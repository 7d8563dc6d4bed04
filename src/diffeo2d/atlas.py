"""Iterative atlas estimation in the linearized latent space.

One step: register the current atlas to every image both ways, take logs of
all transforms, fit a symmetrized basis, average the atlas-to-image codes,
decode the negated mean, and warp the atlas by the resulting field.
Convergence is the relative Frobenius change of the atlas intensities.

The registrations and logs of a step are independent per image. A step
splits the images, in order, into one contiguous chunk per usable CPU
(``os.sched_getaffinity``), with sizes that differ by at most one, and runs
each chunk in a forked worker process: one :func:`register_pairs` loop over
the chunk, then the forward and backward log of each pair. The step runs
in-process, as one chunk of all images, when there is one usable CPU, when
``fork`` is unavailable, when it is called in a ``multiprocessing`` child
(whose siblings hold the other CPUs, and which may be daemonic and so may
not have children) or while another thread is alive (a forked child could
block on a lock that thread holds). Each pair registers bit for bit
as it does alone, so the step's result is byte-identical whatever the
split, and its errors are those of the one-chunk run (see
:func:`atlas_step`). The worker count comes from ``fields._workers`` and
the split from ``fields._chunks``, which also size and cut a large grid's
rows into the bands of a ``fields.DisplacedGrid``.

A root or inverse solve on a large grid runs on row bands in threads of its
own and joins them before it returns or raises, so a step that follows one
in the same process still finds no other thread alive. A worker solves on
one band, by the same rule that keeps it from starting a pool.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from itertools import repeat

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    RankError,
    check_depth,
    check_float,
    check_integer,
    check_seed,
)
from .fields import ScalarImage, _check_same_grid, _chunks, _workers, warp_image
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
        check_float("epsilon", self.epsilon, 0, exclusive=True)
        check_integer("max_outer_iterations", self.max_outer_iterations, 1)
        check_integer("basis_dim", self.basis_dim, 1)
        check_depth("root_depth", self.root_depth)


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
    """One outer iteration, its registrations and logs run in one chunk of
    images per usable CPU (see the module docstring).

    A registration that diverges raises ConvergenceError naming the image
    (``index``): the lowest-index image whose registration failed, at the
    first check where any did. A log that fails raises it only when every
    registration succeeded, naming the lowest-index image whose forward or
    backward log failed. These are the errors of the one-chunk run, which
    registers every image before it takes any log. When a chunk fails, the
    step joins its workers and reruns in-process as one chunk, which
    raises the error; so the message, index, iterations and residual are the
    same whatever the split, at the cost of one more run of the step's
    registrations.
    """
    if len(images) < 2:
        raise DomainError("atlas estimation needs at least 2 images")
    atlas = state.atlas
    for img in images:
        _check_same_grid(atlas, img)
    atlas_norm = float(np.linalg.norm(atlas.values))
    if atlas_norm == 0.0:
        raise DomainError("degenerate input: atlas has zero intensity norm")

    logs = _logs_in_chunks(atlas, images, cfg)
    logs_forward = [fwd for fwd, _ in logs]  # atlas -> image
    logs_backward = [bwd for _, bwd in logs]

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


def _register_and_log(atlas, images, cfg):
    """Register ``atlas`` with each image both ways in one loop, then take
    the forward and backward log of each pair, in image order: the list of
    (forward, backward) logs. Raises ConvergenceError naming the image whose
    registration, or else whose log, failed first."""
    try:
        regs = register_pairs([atlas] * len(images), images, cfg.reg_config)
    except ConvergenceError as err:
        raise err.within(f"atlas step failed on image {err.index}", err.index) from err
    logs = []
    for idx, reg in enumerate(regs):
        try:
            logs.append((
                log_field(reg.phi_ab, cfg.root_depth, cfg.solver),
                log_field(reg.phi_ba, cfg.root_depth, cfg.solver),
            ))
        except ConvergenceError as err:
            raise err.within(f"atlas step failed on image {idx}", idx) from err
    return logs


def _logs_in_chunks(atlas, images, cfg):
    """:func:`_register_and_log` over all images, one chunk per worker (see
    :func:`_worker_count`). When a chunk raises ConvergenceError, the step
    joins the workers and runs once more as one chunk, in this process, to
    raise that run's error."""
    chunks = _chunks(len(images), _worker_count(len(images)))
    if len(chunks) > 1:
        fork = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(len(chunks), mp_context=fork) as pool:
                parts = [images[chunk] for chunk in chunks]
                results = pool.map(_register_and_log, repeat(atlas), parts, repeat(cfg))
                return [pair for logs in results for pair in logs]
        except ConvergenceError:
            pass  # the one-chunk run below raises the step's error
    return _register_and_log(atlas, images, cfg)


def _worker_count(n_images):
    """``fields._workers`` for one worker per image; one, in-process, when
    forking is unavailable or unsafe (see the module docstring)."""
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    return _workers(n_images)


def _fit_population_basis(logs, dim):
    """Fit a symmetrized basis of ``min(dim, rank)`` components through
    :func:`fit_basis`: one SVD, and a second only when the population is
    rank-deficient (its rank is below ``min(dim, len(logs))``).

    Returns None when the population is numerically rank zero (e.g. an
    identical-image population registers to all-zero logs).
    """
    try:
        return fit_basis(logs, min(dim, len(logs)))  # the rank is at most len(logs)
    except RankError as err:
        return fit_basis(logs, err.rank) if err.rank else None


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
        check_seed(seed)
        init_index = int(np.random.default_rng(seed).integers(len(images)))
    check_integer("init_index", init_index, 0, len(images) - 1)

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
    for img in images:
        _check_same_grid(images[0], img)
    return ScalarImage(images[0].grid, np.mean([img.values for img in images], axis=0))
