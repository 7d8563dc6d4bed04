"""Inverse-consistent pairwise registration.

Jointly estimates both direction fields by alternating smoothed gradient
descent on a weighted sum of an SSD similarity term and a bidirectional
inverse-consistency term, over a factor-2 image pyramid.

Gradients use the frozen-partner approximation: when stepping one field the
other is held constant, and the cross term that samples the partner at points
moved by the stepped field is linearized by freezing that sample. The
gradient is exact for that frozen objective (including the bilinear
interpolation of the moving image), which is what the finite-difference
check certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ConvergenceError, DomainError
from .fields import (
    DisplacementField,
    Grid,
    ScalarImage,
    Stencil,
    _check_same_grid,
    compose,
    field_rms_diff,
    grid_coords,
    identity_field,
    sample_values,
    warp_image,
)


@dataclass(frozen=True)
class RegistrationConfig:
    """Optimizer and loss weights for :func:`register_pair`.

    ``step_size`` is in pixels per unit of per-pixel gradient; smoothing
    sigmas are in pixels, applied to the update and to the field itself
    (demons-style regularization).
    """

    lambda_sim: float = 1.0
    lambda_reg: float = 1.0
    pyramid_levels: int = 3
    iterations_per_level: int = 100
    step_size: float = 1.0
    update_smoothing_sigma: float = 1.5
    field_smoothing_sigma: float = 0.5

    def __post_init__(self):
        if self.lambda_sim < 0 or self.lambda_reg < 0:
            raise DomainError("loss weights must be >= 0")
        if self.pyramid_levels < 1 or self.iterations_per_level < 1:
            raise DomainError("pyramid_levels and iterations_per_level must be >= 1")
        if not (self.step_size > 0):
            raise DomainError("step_size must be > 0")
        if self.update_smoothing_sigma < 0 or self.field_smoothing_sigma < 0:
            raise DomainError("smoothing sigmas must be >= 0")


@dataclass
class RegistrationResult:
    phi_ab: DisplacementField
    phi_ba: DisplacementField
    loss_history: list[tuple[int, float, float, float]] = dc_field(default_factory=list)
    final_inverse_consistency: float = 0.0


def mse(a: ScalarImage, b: ScalarImage) -> float:
    _check_same_grid(a, b)
    d = a.values - b.values
    return float(np.mean(d * d))


def sim_loss(
    a: ScalarImage,
    b: ScalarImage,
    phi_ab: DisplacementField,
    phi_ba: DisplacementField,
) -> float:
    """SSD similarity, both directions: mse(A, B o phi_AB) + mse(B, A o phi_BA)."""
    return mse(a, warp_image(b, phi_ab)) + mse(b, warp_image(a, phi_ba))


def _mean_sq_displacement(u: np.ndarray) -> float:
    """Mean over pixels of the squared displacement norm (components summed)."""
    return float(np.mean(np.sum(u * u, axis=-1)))


def icon_loss(phi_ab: DisplacementField, phi_ba: DisplacementField) -> float:
    """Inverse-consistency: mean-square displacement of both composition orders."""
    _check_same_grid(phi_ab, phi_ba)
    return _mean_sq_displacement(compose(phi_ab, phi_ba).u) + _mean_sq_displacement(
        compose(phi_ba, phi_ab).u
    )


def primary_loss(
    a: ScalarImage,
    b: ScalarImage,
    phi_ab: DisplacementField,
    phi_ba: DisplacementField,
    cfg: RegistrationConfig = RegistrationConfig(),
) -> float:
    return cfg.lambda_sim * sim_loss(a, b, phi_ab, phi_ba) + cfg.lambda_reg * icon_loss(
        phi_ab, phi_ba
    )


def frozen_loss_and_grad(
    a: ScalarImage,
    b: ScalarImage,
    u_var: np.ndarray,
    u_other: np.ndarray,
    lambda_sim: float,
    lambda_reg: float,
    cross: np.ndarray | None = None,
):
    """Frozen-partner objective and its exact gradient w.r.t. ``u_var``.

    ``u_var`` plays the role of u_AB (the field warping ``b`` toward ``a``);
    ``u_other`` is held constant. ``cross`` is the sample of ``u_other`` at
    x + u_var, frozen at the linearization point; pass the value computed at
    the base point when finite-differencing, otherwise it is computed here.

    Returns (loss, grad) with grad of shape (H, W, 2).
    """
    x = grid_coords(a.grid)
    shape = a.grid.shape
    terms, grad = _frozen_terms(
        a, b, u_var, u_other, Stencil(x + u_var, shape), Stencil(x + u_other, shape),
        lambda_sim, lambda_reg, cross,
    )
    m_var, m_other, icon_1, icon_2 = terms
    loss = lambda_sim * m_var + lambda_sim * m_other + lambda_reg * icon_1 + lambda_reg * icon_2
    return loss, grad


def _frozen_terms(a, b, u_var, u_other, s_var, s_other, lambda_sim, lambda_reg, cross=None):
    """Unweighted terms of the frozen-partner objective, and its gradient.

    ``s_var`` and ``s_other`` are the stencils of x + u_var and x + u_other.
    Returns ((m_var, m_other, icon_1, icon_2), grad): the similarity of each
    direction and the mean-square displacement of each composition order.
    With a fresh ``cross`` these are the terms of :func:`sim_loss` and
    :func:`icon_loss` at the current fields.
    """
    h, w = a.values.shape
    n = h * w
    grad = np.zeros((h, w, 2))

    # Similarity: mean((B(x + u_var) - A)^2); exact bilinear derivative.
    warped, d_row, d_col = s_var.sample_grad(b.values)
    resid = warped - a.values
    m_var = float(np.mean(resid * resid))
    # Constant partner similarity term, included so the value is the full loss.
    other_resid = s_other.sample(a.values) - b.values
    m_other = float(np.mean(other_resid * other_resid))
    grad[..., 0] += lambda_sim * (2.0 / n) * resid * d_row
    grad[..., 1] += lambda_sim * (2.0 / n) * resid * d_col

    # Consistency term 1: u_other(x) + u_var(x + u_other(x)); linear in the
    # nodes of u_var, so the gradient is the adjoint (bilinear splat).
    r1 = u_other + s_other.sample(u_var)
    icon_1 = _mean_sq_displacement(r1)
    grad += lambda_reg * (2.0 / n) * s_other.splat(r1)

    # Consistency term 2: u_var(x) + [u_other sampled at x + u_var], with the
    # sample frozen (residual pushback, no differentiation through the
    # partner's interpolation).
    if cross is None:
        cross = s_var.sample(u_other)
    r2 = u_var + cross
    icon_2 = _mean_sq_displacement(r2)
    grad += lambda_reg * (2.0 / n) * r2

    return (m_var, m_other, icon_1, icon_2), grad


def _downsample(values: np.ndarray) -> np.ndarray:
    return gaussian_filter(values, 1.0, mode="nearest")[::2, ::2]


def _upsample_field(u: np.ndarray, shape) -> np.ndarray:
    """Bilinear upsample of a coarse field to ``shape``, displacements x2."""
    h, w = shape
    r = np.arange(h, dtype=np.float64) / 2.0
    c = np.arange(w, dtype=np.float64) / 2.0
    pts = np.stack(np.meshgrid(r, c, indexing="ij"), axis=-1)
    return 2.0 * sample_values(u, pts)


def _smooth_field(u: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return u
    return gaussian_filter(u, (sigma, sigma, 0.0), mode="nearest")


def _field_stencil(x, u, iteration, level):
    """Stencil of x + u for a field the optimizer just produced; a field
    that has left the finite numbers is divergence, not bad input."""
    try:
        return Stencil(x + u, u.shape)
    except DomainError:
        raise ConvergenceError(
            f"registration diverged at iteration {iteration} (level {level}): "
            "non-finite displacement field",
            residual=float("inf"),
            iterations=iteration,
        ) from None


def _history_row(cfg, terms, iteration, level):
    """(iteration, l_sim, l_reg, l_p) from the terms of :func:`_frozen_terms`
    at the fields after ``iteration``, summed as :func:`primary_loss` does."""
    m_ab, m_ba, icon_1, icon_2 = terms
    l_sim = m_ab + m_ba
    l_reg = icon_1 + icon_2
    l_p = cfg.lambda_sim * l_sim + cfg.lambda_reg * l_reg
    if not np.isfinite(l_p):
        raise ConvergenceError(
            f"registration diverged at iteration {iteration} (level {level})",
            residual=l_p,
            iterations=iteration,
        )
    return (iteration, l_sim, l_reg, l_p)


def register_pair(
    a: ScalarImage, b: ScalarImage, cfg: RegistrationConfig = RegistrationConfig()
) -> RegistrationResult:
    """Coarse-to-fine alternating descent on both direction fields.

    Each iteration steps u_AB, then u_BA, on the frozen-partner objective.
    ``loss_history`` row ``it`` holds (it, l_sim, l_reg, l_p) at the fields
    after iteration ``it``. Those are the terms the next iteration's first
    frozen evaluation computes anyway, so they are taken from there; the
    last row of each level is evaluated once at the end of the level.
    """
    _check_same_grid(a, b)
    pyramid = [(a.values, b.values)]
    for _ in range(cfg.pyramid_levels - 1):
        pa, pb = pyramid[-1]
        if min(pa.shape) < 8:
            break
        pyramid.append((_downsample(pa), _downsample(pb)))
    pyramid.reverse()  # coarse -> fine

    u_ab = np.zeros(pyramid[0][0].shape + (2,))
    u_ba = np.zeros_like(u_ab)
    history: list[tuple[int, float, float, float]] = []
    global_it = 0

    for level, (va, vb) in enumerate(pyramid):
        if u_ab.shape[:2] != va.shape:
            u_ab = _upsample_field(u_ab, va.shape)
            u_ba = _upsample_field(u_ba, va.shape)
        grid = Grid(*va.shape)
        la = ScalarImage(grid, va)
        lb = ScalarImage(grid, vb)
        x = grid_coords(grid)
        s_ab = _field_stencil(x, u_ab, global_it, level)
        s_ba = _field_stencil(x, u_ba, global_it, level)
        step = cfg.step_size * va.size
        for i in range(cfg.iterations_per_level):
            terms, g_ab = _frozen_terms(
                la, lb, u_ab, u_ba, s_ab, s_ba, cfg.lambda_sim, cfg.lambda_reg
            )
            if i > 0:
                history.append(_history_row(cfg, terms, global_it - 1, level))
            u_ab = u_ab - step * _smooth_field(g_ab, cfg.update_smoothing_sigma)
            u_ab = _smooth_field(u_ab, cfg.field_smoothing_sigma)
            s_ab = _field_stencil(x, u_ab, global_it, level)

            _, g_ba = _frozen_terms(
                lb, la, u_ba, u_ab, s_ba, s_ab, cfg.lambda_sim, cfg.lambda_reg
            )
            u_ba = u_ba - step * _smooth_field(g_ba, cfg.update_smoothing_sigma)
            u_ba = _smooth_field(u_ba, cfg.field_smoothing_sigma)
            s_ba = _field_stencil(x, u_ba, global_it, level)
            global_it += 1
        terms, _ = _frozen_terms(
            la, lb, u_ab, u_ba, s_ab, s_ba, cfg.lambda_sim, cfg.lambda_reg
        )
        history.append(_history_row(cfg, terms, global_it - 1, level))

    grid = a.grid
    phi_ab = DisplacementField(grid, u_ab)
    phi_ba = DisplacementField(grid, u_ba)
    ident = identity_field(grid)
    final_ic = max(
        field_rms_diff(compose(phi_ab, phi_ba), ident),
        field_rms_diff(compose(phi_ba, phi_ab), ident),
    )
    return RegistrationResult(phi_ab, phi_ba, history, final_ic)
