"""Iterative atlas estimation in the linearized latent space.

One step: register the current atlas to every image both ways (all images
in one :func:`register_pairs` loop), take logs of all transforms, fit a
symmetrized basis, average the atlas-to-image codes, decode the
negated mean, and warp the atlas by the resulting field. Convergence is the
relative Frobenius change of the atlas intensities.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    RankError,
    require_finite,
    require_integer,
)
from .fields import ScalarImage, warp_image
from .latent import decode_root, encode, fit_basis
from .lie import SolverConfig, log_field
from .registration import RegistrationConfig, register_pairs


@dataclass(frozen=True)
class AtlasConfig:
    epsilon: float = 1e-3
    max_outer_iterations: int = 20
    reg_config: RegistrationConfig = dc_field(default_factory=RegistrationConfig)
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    basis_dim: int = 8
    root_depth: int = 6

    def __post_init__(self):
        require_finite(self, "epsilon")
        require_integer(self, "max_outer_iterations", "basis_dim", "root_depth")
        if not (self.epsilon > 0):
            raise DomainError("epsilon must be > 0")
        if self.max_outer_iterations < 1:
            raise DomainError("max_outer_iterations must be >= 1")
        if self.basis_dim < 1 or self.root_depth < 1:
            raise DomainError("basis_dim and root_depth must be >= 1")


@dataclass
class AtlasState:
    atlas: ScalarImage
    iteration: int = 0
    mean_latent: np.ndarray | None = None
    delta_history: list[float] = dc_field(default_factory=list)
    converged: bool = False


def atlas_step(
    state: AtlasState,
    images: list[ScalarImage],
    cfg: AtlasConfig = AtlasConfig(),
) -> AtlasState:
    """One outer iteration.

    A registration that diverges raises ConvergenceError naming the image
    (``index``): the lowest-index image whose registration failed, at the
    first iteration where any did.
    """
    if len(images) < 2:
        raise DomainError("atlas estimation needs at least 2 images")
    atlas = state.atlas
    for img in images:
        if img.grid != atlas.grid:
            raise DomainError("all images must share the atlas grid")
    atlas_norm = float(np.linalg.norm(atlas.values))
    if atlas_norm == 0.0:
        raise DomainError("degenerate input: atlas has zero intensity norm")

    try:
        regs = register_pairs([atlas] * len(images), images, cfg.reg_config)
    except ConvergenceError as err:
        raise _image_failed(err.index, err) from err
    logs_forward = []  # atlas -> image
    logs_backward = []
    for idx, reg in enumerate(regs):
        try:
            logs_forward.append(log_field(reg.phi_ab, cfg.root_depth, cfg.solver))
            logs_backward.append(log_field(reg.phi_ba, cfg.root_depth, cfg.solver))
        except ConvergenceError as err:
            raise _image_failed(idx, err) from err

    basis = _fit_population_basis(logs_forward + logs_backward, cfg.basis_dim)
    if basis is None:
        # Degenerate population (all logs numerically zero): identity update.
        mean_z = np.zeros(1)
        atlas_next = ScalarImage(atlas.grid, atlas.values.copy())
    else:
        codes = np.stack([encode(basis, lf) for lf in logs_forward])
        mean_z = codes.mean(axis=0)
        mean_inverse = decode_root(basis, -mean_z, 1, cfg.root_depth)
        atlas_next = warp_image(atlas, mean_inverse)

    delta = float(np.linalg.norm(atlas_next.values - atlas.values)) / atlas_norm
    return AtlasState(
        atlas=atlas_next,
        iteration=state.iteration + 1,
        mean_latent=mean_z,
        delta_history=state.delta_history + [delta],
        converged=delta < cfg.epsilon,
    )


def _image_failed(idx, err):
    return ConvergenceError(
        f"atlas step failed on image {idx}: {err}",
        residual=err.residual,
        iterations=err.iterations,
        index=idx,
    )


def _fit_population_basis(logs, dim):
    """Fit a symmetrized basis, clamping the dimension to the achieved rank.

    Returns None when the population is numerically rank zero (e.g. an
    identical-image population registers to all-zero logs).
    """
    dim = min(dim, len(logs) * 2)
    while dim >= 1:
        try:
            return fit_basis(logs, dim, symmetrize=True)
        except RankError as err:
            if err.rank < 1:
                return None
            dim = err.rank
    return None


def estimate_atlas(
    images: list[ScalarImage],
    cfg: AtlasConfig = AtlasConfig(),
    init_index: int | None = None,
    seed: int | None = None,
) -> tuple[ScalarImage, list[AtlasState]]:
    """Iterate :func:`atlas_step` from a chosen or randomly selected image.

    Non-convergence within the iteration budget is reported via
    ``converged=False`` on the final state, not raised.
    """
    if len(images) < 2:
        raise DomainError("atlas estimation needs at least 2 images")
    if init_index is None:
        init_index = int(np.random.default_rng(seed).integers(len(images)))
    if not (0 <= init_index < len(images)):
        raise DomainError(f"init_index {init_index} out of range")

    init = images[init_index]
    state = AtlasState(atlas=ScalarImage(init.grid, init.values.copy()))
    history = [state]
    for _ in range(cfg.max_outer_iterations):
        state = atlas_step(state, images, cfg)
        history.append(state)
        if state.converged:
            break
    return state.atlas, history


def pixelwise_mean_atlas(images: list[ScalarImage]) -> ScalarImage:
    """Per-pixel arithmetic mean; the naive baseline."""
    if not images:
        raise DomainError("need at least one image")
    grid = images[0].grid
    for img in images:
        if img.grid != grid:
            raise DomainError("all images must share one grid")
    return ScalarImage(grid, np.mean([img.values for img in images], axis=0))
