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

:func:`register_pairs` runs any number of same-grid pairs through one
optimizer loop, with a leading subject axis on every array and stencil;
:func:`register_pair` is that loop on one pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
from scipy.ndimage import correlate1d, gaussian_filter

from .errors import ConvergenceError, DomainError
from .fields import (
    DisplacementField,
    ScalarImage,
    Stencil,
    _check_same_grid,
    compose,
    field_rms,
    warp_image,
)


@dataclass(frozen=True)
class RegistrationConfig:
    """Optimizer and loss weights for :func:`register_pairs`.

    ``step_size`` is in pixels per unit of per-pixel gradient; smoothing
    sigmas are in pixels, applied to the update and to the field itself
    (demons-style regularization). The defaults are the CLI's: they recover
    the synthetic suite's 64x64 deformations (acceptance criterion 4).
    """

    lambda_sim: float = 1.0
    lambda_reg: float = 1.0
    pyramid_levels: int = 3
    iterations_per_level: int = 300
    step_size: float = 0.45
    update_smoothing_sigma: float = 1.0
    field_smoothing_sigma: float = 0.0

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
    """Mean over pixels of the squared displacement norm (components summed)
    of an (H, W, 2) field."""
    return float(_mean_sq_planes(np.moveaxis(u, -1, 0)))


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

    Returns (loss, grad) with grad of shape (H, W, 2). Raises DomainError
    if either field is not finite.
    """
    if not (np.isfinite(u_var).all() and np.isfinite(u_other).all()):
        raise DomainError("displacement fields must be finite")
    xr, xc = np.indices(a.grid.shape, dtype=np.float64)
    u_var = np.moveaxis(u_var, -1, 0)
    u_other = np.moveaxis(u_other, -1, 0)
    s_var = Stencil(xr + u_var[0], xc + u_var[1], a.grid.shape)
    s_other = Stencil(xr + u_other[0], xc + u_other[1], a.grid.shape)
    if cross is not None:
        cross = np.moveaxis(cross, -1, 0)
    warped, d_row, d_col = s_var.sample_grad(b.values)
    resid = warped - a.values
    # Constant partner similarity term, included so the value is the full loss.
    other_resid = s_other.sample(a.values) - b.values
    r1, r2 = _icon_residuals(u_var, u_other, s_var, s_other, cross)
    grad = _frozen_grad(resid, d_row, d_col, r1, r2, s_other, lambda_sim, lambda_reg)
    loss = (
        lambda_sim * _mean_sq(resid)
        + lambda_sim * _mean_sq(other_resid)
        + lambda_reg * _mean_sq_planes(r1)
        + lambda_reg * _mean_sq_planes(r2)
    )
    return float(loss), np.moveaxis(grad, 0, -1)


# The optimizer works on planar fields: a (2, ...) array of the row and the
# column displacement planes, each of the stencil's shape, so that every
# product is taken on whole planes (see the ``fields`` module docstring).


def _grid_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last two (grid) axes: the sum and the division that
    ``np.mean`` makes, without its wrapper."""
    return np.add.reduce(x, axis=(-2, -1)) / (x.shape[-2] * x.shape[-1])


def _mean_sq(r: np.ndarray) -> np.ndarray:
    """Mean square over the last two (grid) axes."""
    return _grid_mean(r * r)


def _mean_sq_planes(u: np.ndarray) -> np.ndarray:
    """Mean squared displacement norm of a planar field, per subject."""
    return _grid_mean(u[0] * u[0] + u[1] * u[1])


def _icon_residuals(u_var, u_other, s_var, s_other, cross=None):
    """Residuals of the two consistency terms of the frozen-partner objective.

    ``s_var`` and ``s_other`` are the stencils of x + u_var and x + u_other.
    r1 = u_other(x) + u_var(x + u_other(x)) is linear in the nodes of
    u_var, so its gradient is the adjoint (bilinear splat). r2 = u_var(x) +
    [u_other sampled at x + u_var], with that sample (``cross``) frozen:
    residual pushback, no differentiation through the partner's
    interpolation.
    """
    r1 = u_other + s_other.sample(u_var)
    if cross is None:
        return r1, u_var + s_var.sample(u_other)
    return r1, u_var + cross


def _frozen_grad(resid, d_row, d_col, r1, r2, s_other, lambda_sim, lambda_reg):
    """Exact gradient of the frozen-partner objective w.r.t. the stepped
    field, from the similarity residual B(x + u_var) - A with its image
    derivative, and the consistency residuals of :func:`_icon_residuals`."""
    n = resid.shape[-2] * resid.shape[-1]
    grad = np.zeros(r2.shape)
    sim = lambda_sim * (2.0 / n) * resid
    grad[0] += sim * d_row
    grad[1] += sim * d_col
    del sim  # the splat below is the loop's peak of live memory
    # One splat call for both planes shares the corner weights between them.
    grad += lambda_reg * (2.0 / n) * s_other.splat(r1)
    grad += lambda_reg * (2.0 / n) * r2
    return grad


def _descend(u_var, resid, d_row, d_col, r1, r2, s_other, step, cfg):
    """One smoothed gradient step of ``u_var`` on the frozen-partner objective."""
    grad = _frozen_grad(
        resid, d_row, d_col, r1, r2, s_other, cfg.lambda_sim, cfg.lambda_reg
    )
    u_var = u_var - step * _smooth_field(grad, cfg.update_smoothing_sigma)
    return _smooth_field(u_var, cfg.field_smoothing_sigma)


def _downsample(values: np.ndarray) -> np.ndarray:
    """Halve a stack of (N, H, W) images after a σ=1 blur of each."""
    return gaussian_filter(values, (0.0, 1.0, 1.0), mode="nearest")[:, ::2, ::2]


def _upsample_field(u: np.ndarray, shape) -> np.ndarray:
    """Bilinear upsample of planar fields to grids of ``shape`` (N, H, W),
    displacements x2."""
    _, h, w = shape
    rows = np.broadcast_to((np.arange(h, dtype=np.float64) / 2.0)[:, None], shape)
    cols = np.broadcast_to(np.arange(w, dtype=np.float64) / 2.0, shape)
    stencil = Stencil(rows, cols, u.shape[1:])
    return 2.0 * stencil.sample(u)


@lru_cache(maxsize=8)
def _gaussian_weights(sigma: float) -> np.ndarray:
    """Correlation weights of scipy's Gaussian kernel of ``sigma``, truncated
    at 4 sigma: the weights ``gaussian_filter`` computes on every call."""
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = (phi / phi.sum())[::-1].copy()
    weights.flags.writeable = False  # the cache hands one array to every call
    return weights


def _smooth_field(u: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of each plane of a planar (2, N, H, W) field.

    The same two passes as ``gaussian_filter(u, (0, 0, sigma, sigma),
    mode="nearest")``, rows into a new array and then columns in place, with
    the kernel computed once per sigma. Like ``gaussian_filter``, it leaves
    the field as it is for sigma up to 1e-15.
    """
    if sigma <= 1e-15:
        return u
    weights = _gaussian_weights(sigma)
    out = correlate1d(u, weights, axis=-2, mode="nearest")
    return correlate1d(out, weights, axis=-1, output=out, mode="nearest")


def _diverged(index, residual, reason, iteration, level):
    return ConvergenceError(
        f"registration diverged at iteration {iteration} (level {level}): {reason}",
        residual=float(residual),
        iterations=iteration,
        index=index,
    )


def _field_stencil(xr, xc, u, diagonal, iteration, level):
    """Stencil of x + u for planar fields the optimizer just produced.

    A displacement longer than the grid ``diagonal`` maps every point off
    the grid: that is divergence, whether or not the field is still finite.
    The comparison is false for NaN and inf as well, so this check is what
    keeps non-finite points out of the stencil.
    """
    with np.errstate(over="ignore"):  # an overflow to inf is divergence too
        sq = u * u
        sq[0] += sq[1]
        longest = np.sqrt(sq[0].max(axis=(-2, -1)))
    within = longest <= diagonal
    if not within.all():
        n = int(np.argmin(within))
        raise _diverged(
            n, longest[n],
            f"a displacement of {longest[n]:.4g} px exceeds the grid diagonal "
            f"({diagonal:.4g} px)",
            iteration, level,
        )
    return Stencil(xr + u[0], xc + u[1], u.shape[1:])


def _history_terms(cfg, res_ab, res_ba, r1, r2, iteration, level):
    """Per-pair (l_sim, l_reg, l_p) from the residuals of the first
    half-step at the fields after ``iteration``, summed as
    :func:`primary_loss` does."""
    l_sim = _mean_sq(res_ab) + _mean_sq(res_ba)
    l_reg = _mean_sq_planes(r1) + _mean_sq_planes(r2)
    l_p = cfg.lambda_sim * l_sim + cfg.lambda_reg * l_reg
    finite = np.isfinite(l_p)
    if not finite.all():
        n = int(np.argmin(finite))
        raise _diverged(n, l_p[n], "non-finite loss", iteration, level)
    return l_sim, l_reg, l_p


def register_pairs(
    fixed: list[ScalarImage],
    moving: list[ScalarImage],
    cfg: RegistrationConfig = RegistrationConfig(),
) -> list[RegistrationResult]:
    """Register ``moving[n]`` and ``fixed[n]`` both ways, all pairs in one loop.

    Pair n plays (a, b) = (fixed[n], moving[n]) of :func:`register_pair`.
    All images share one grid. The pairs share the loop, the stencils and
    the smoothing calls, one subject-batch of arrays per half-step, but no
    values: each result is bit for bit the one the pair gives alone.

    Coarse-to-fine alternating descent on both direction fields: each
    iteration steps u_AB, then u_BA, on the frozen-partner objective.
    ``loss_history`` row ``it`` holds (it, l_sim, l_reg, l_p) at the fields
    after iteration ``it``. Those are the terms the next iteration's first
    half-step computes anyway, so they are taken from there; the last row
    of each level is evaluated once at the end of the level.

    Raises ConvergenceError, with ``index`` set to the pair, when a stepped
    field has a displacement longer than the grid diagonal or a loss is not
    finite: at the first check any pair fails, for the lowest such pair.
    """
    if not fixed or len(fixed) != len(moving):
        raise DomainError("register_pairs needs as many moving as fixed images, at least one")
    for a, b in zip(fixed, moving):
        _check_same_grid(fixed[0], a)
        _check_same_grid(a, b)
    pyramid = [(np.stack([a.values for a in fixed]), np.stack([b.values for b in moving]))]
    for _ in range(cfg.pyramid_levels - 1):
        pa, pb = pyramid[-1]
        if min(pa.shape[1:]) < 8:
            break
        pyramid.append((_downsample(pa), _downsample(pb)))
    pyramid.reverse()  # coarse -> fine

    u_ab = np.zeros((2,) + pyramid[0][0].shape)
    u_ba = np.zeros_like(u_ab)
    iterations: list[int] = []
    terms: list[tuple] = []
    global_it = 0

    for level, (va, vb) in enumerate(pyramid):
        if u_ab.shape[1:] != va.shape:
            u_ab = _upsample_field(u_ab, va.shape)
            u_ba = _upsample_field(u_ba, va.shape)
        xr, xc = np.indices(va.shape[1:], dtype=np.float64)
        diagonal = np.hypot(xr.shape[0] - 1, xr.shape[1] - 1)
        s_ab = _field_stencil(xr, xc, u_ab, diagonal, global_it, level)
        s_ba = _field_stencil(xr, xc, u_ba, diagonal, global_it, level)
        step = cfg.step_size * xr.size
        for i in range(cfg.iterations_per_level):
            # Step u_AB with u_BA frozen. The sample of A at x + u_BA serves
            # this half-step's loss terms and the next one's gradient.
            res_ab, db_row, db_col = s_ab.sample_grad(vb)
            res_ab -= va
            res_ba, da_row, da_col = s_ba.sample_grad(va)
            res_ba -= vb
            r1, r2 = _icon_residuals(u_ab, u_ba, s_ab, s_ba)
            if i > 0:
                iterations.append(global_it - 1)
                terms.append(_history_terms(cfg, res_ab, res_ba, r1, r2, global_it - 1, level))
            u_ab = _descend(u_ab, res_ab, db_row, db_col, r1, r2, s_ba, step, cfg)
            # Free the old field's arrays before its successor's stencil is
            # built, so that one batch of temporaries is alive at a time.
            del res_ab, db_row, db_col, r1, r2, s_ab
            s_ab = _field_stencil(xr, xc, u_ab, diagonal, global_it, level)

            # Step u_BA with the new u_AB frozen; no loss terms are needed.
            r1, r2 = _icon_residuals(u_ba, u_ab, s_ba, s_ab)
            u_ba = _descend(u_ba, res_ba, da_row, da_col, r1, r2, s_ab, step, cfg)
            del res_ba, da_row, da_col, r1, r2, s_ba
            s_ba = _field_stencil(xr, xc, u_ba, diagonal, global_it, level)
            global_it += 1
        res_ab = s_ab.sample(vb) - va
        res_ba = s_ba.sample(va) - vb
        r1, r2 = _icon_residuals(u_ab, u_ba, s_ab, s_ba)
        iterations.append(global_it - 1)
        terms.append(_history_terms(cfg, res_ab, res_ba, r1, r2, global_it - 1, level))

    grid = fixed[0].grid
    per_pair = np.array(terms).transpose(2, 0, 1).tolist()  # (pair, row, term)
    results = []
    for n, rows in enumerate(per_pair):
        phi_ab = DisplacementField(grid, np.stack(u_ab[:, n], axis=-1))
        phi_ba = DisplacementField(grid, np.stack(u_ba[:, n], axis=-1))
        final_ic = max(field_rms(compose(phi_ab, phi_ba)), field_rms(compose(phi_ba, phi_ab)))
        history = [(it, *row) for it, row in zip(iterations, rows)]
        results.append(RegistrationResult(phi_ab, phi_ba, history, final_ic))
    return results


def register_pair(
    a: ScalarImage, b: ScalarImage, cfg: RegistrationConfig = RegistrationConfig()
) -> RegistrationResult:
    """Register ``b`` to ``a`` and ``a`` to ``b``: :func:`register_pairs`
    on the one pair. ``phi_ab`` pulls ``b`` back onto ``a``."""
    return register_pairs([a], [b], cfg)[0]
