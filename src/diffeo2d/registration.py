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
:func:`register_pair` is that loop on one pair. ``frozen_loss_and_grad`` is
the loop's first half-step on one pair, with the same code.

Workspace: each pyramid level allocates, per direction, a :class:`_Side`
(its field and image stacked as one ``(3, N, H, W)`` array, the stencil of
x + u, what it samples of its partner and the image derivative), and one
scratch block of :data:`_WORK_PLANES` planes that both directions share.
These live for the level; the previous level's fields live only until they
are upsampled, and its images are dropped once copied. Inside an
iteration every gather, gradient, splat weight, smoothing pass and
loss-history square writes into these arrays; the only fresh arrays of
image size are ``np.bincount``'s results.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
from scipy.ndimage import correlate1d, gaussian_filter

from .errors import ConvergenceError, DomainError, check_float, check_integer
from .fields import (
    DisplacementField,
    ScalarImage,
    Stencil,
    _check_same_grid,
    _grid_array,
    _sq_lengths,
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
        check_float("lambda_sim", self.lambda_sim, 0)
        check_float("lambda_reg", self.lambda_reg, 0)
        check_integer("pyramid_levels", self.pyramid_levels, 1)
        check_integer("iterations_per_level", self.iterations_per_level, 1)
        check_float("step_size", self.step_size, 0, exclusive=True)
        check_float("update_smoothing_sigma", self.update_smoothing_sigma, 0)
        check_float("field_smoothing_sigma", self.field_smoothing_sigma, 0)


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
    return float(_grid_mean(_sq_lengths(np.moveaxis(u, -1, 0))))


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

    Returns (loss, grad) with grad of shape (H, W, 2). The weights are
    finite and non-negative, as in :class:`RegistrationConfig`, the images
    share a grid, and ``u_var``, ``u_other`` and ``cross`` are (H, W, 2)
    arrays on it: DomainError if a weight is out of range or an array is not
    finite, ShapeError if a shape differs. This is the first half-step of
    :func:`register_pairs`, on a one-pair level, without the descent.
    """
    check_float("lambda_sim", lambda_sim, 0)
    check_float("lambda_reg", lambda_reg, 0)
    _check_same_grid(a, b)
    shape = a.grid.shape + (2,)
    var, other, work = _level(a.values[None], b.values[None])
    for side, u, name in ((var, u_var, "u_var"), (other, u_other, "u_other")):
        side.u[:, 0] = np.moveaxis(_grid_array(u, shape, name), -1, 0)
        side.displace()
    _evaluate(var, other, work, image=True)
    # The partner's sample reads var.var, never var.at, so the frozen cross
    # sample may replace the one just taken.
    if cross is not None:
        cross = np.moveaxis(_grid_array(cross, shape, "cross"), -1, 0)
        np.add(var.u[:, 0], cross, out=var.at[:2, 0])
    # The partner's similarity term is constant; it is included so that the
    # value is the full loss.
    loss = float(_pair_terms(lambda_sim, lambda_reg, var, other, work)[2][0])
    grad = _gradient(var, other, lambda_sim, lambda_reg, work)
    return loss, np.moveaxis(grad[:, 0], 0, -1)


# The optimizer works on planar fields: a (2, ...) array of the row and the
# column displacement planes, each of the stencil's shape, so that every
# product is taken on whole planes (see the ``fields`` module docstring).


def _grid_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last two (grid) axes: the sum and the division that
    ``np.mean`` makes, without its wrapper."""
    return np.add.reduce(x, axis=(-2, -1)) / (x.shape[-2] * x.shape[-1])


# Planes of one pyramid level's scratch block, shared by both directions,
# which use it one phase at a time: the gather of three planes (12); the
# gradient (2), the splat's output (2) and its weights and weighted values
# (8); the gradient and one smoothing pass (2 + 2); the loss-history
# squares (6); the length check (2).
_WORK_PLANES = 12


class _Side:
    """One direction of the optimizer at one pyramid level.

    ``var`` stacks the planar field u (planes 0-1) and the side's own image
    (plane 2), so that the partner's stencil gathers both with one take.
    ``stencil`` is the stencil of x + u, placed by :meth:`displace` whenever
    u moves. ``at`` holds what this side reads at x + u (see
    :func:`_evaluate`) and ``d_image`` the clamped derivative of the
    partner's image there.

    For the side of u_AB (image A; partner u_BA, image B), ``at[2]`` is the
    similarity residual B(x + u_AB) - A and ``at[:2]`` the consistency
    residual u_AB + u_BA(x + u_AB): the r2 of u_AB's half-step and the r1 of
    u_BA's. The frozen-partner gradient of one side reads its own ``at`` and
    ``d_image``, the partner's ``at[:2]`` and the partner's stencil.
    """

    def __init__(self, image: np.ndarray, x: np.ndarray):
        self.var = np.empty((3,) + image.shape)
        self.var[2] = image
        self.u = self.var[:2]
        self.image = self.var[2]
        self.x = x
        self.stencil = None
        self.at = np.empty_like(self.var)
        self.d_image = np.empty((2,) + image.shape)

    def displace(self):
        """Point the stencil at x + u, allocating it on the first call: after
        the level's fields are upsampled, so that the upsampling's stencil
        and these are not live at once."""
        if self.stencil is None:
            self.stencil = Stencil(self.u.shape[1:], self.image.shape)
        self.stencil.displace(self.x, self.u)

    def place(self, diagonal, sq, iteration, level):
        """Check the field's length (see :func:`_check_length`), then
        :meth:`displace`."""
        _check_length(self.u, diagonal, sq, iteration, level)
        self.displace()


def _level(va: np.ndarray, vb: np.ndarray):
    """The workspace of one pyramid level of (N, H, W) image stacks: the
    sides of u_AB (image A) and u_BA (image B) on one coordinate grid, and
    the scratch block they share. The images are copied into the sides, so
    the caller's may go."""
    x = np.indices(va.shape[1:], dtype=np.float64)[:, None]
    return _Side(va, x), _Side(vb, x), np.empty((_WORK_PLANES,) + va.shape)


def _gradient(side: _Side, partner: _Side, lambda_sim, lambda_reg, work: np.ndarray):
    """Exact gradient of the frozen-partner objective w.r.t. the side's field,
    into ``work[:2]``; overwrites the side's consistency residual.

    The similarity term contributes 2/n λ_sim (B(x + u) - A) ∇B(x + u). The
    residual r1 = u_partner + u(x + u_partner) is linear in the nodes of u,
    so its gradient is the adjoint (bilinear splat on the partner's
    stencil). The residual r2 = u + u_partner(x + u) is taken with the
    partner's sample frozen: residual pushback, no differentiation through
    the partner's interpolation.
    """
    n = side.image.shape[-2] * side.image.shape[-1]
    grad, sim = work[:2], work[2]
    np.multiply(side.at[2], lambda_sim * (2.0 / n), out=sim)
    np.multiply(side.d_image, sim, out=grad)
    grad += 0.0  # 0 + p, the sum into a zeroed gradient: -0.0 becomes 0.0
    c_reg = lambda_reg * (2.0 / n)
    r1 = partner.stencil.splat(partner.at[:2], out=work[2:4], work=work[4:])
    r1 *= c_reg
    grad += r1
    r2 = side.at[:2]
    r2 *= c_reg
    grad += r2
    return grad


def _smooth(u: np.ndarray, sigma: float, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gaussian blur of each plane of a planar (2, ..., H, W) field into
    ``out``, by way of ``tmp``; ``out`` may be ``u``.

    The two passes of ``gaussian_filter(u, (0, ..., sigma, sigma),
    mode="nearest")``, rows and then columns, with the kernel computed once
    per sigma. Like ``gaussian_filter``, it leaves the field as it is (and
    returns ``u``) for sigma up to 1e-15.
    """
    if sigma <= 1e-15:
        return u
    weights = _gaussian_weights(sigma)
    correlate1d(u, weights, axis=-2, output=tmp, mode="nearest")
    return correlate1d(tmp, weights, axis=-1, output=out, mode="nearest")


def _half_step(side, partner, step, cfg, work, diagonal, iteration, level):
    """One smoothed gradient step of the side's field with the partner
    frozen, then the side's length check and stencil at the new points
    x + u (see :meth:`_Side.place`)."""
    grad = _gradient(side, partner, cfg.lambda_sim, cfg.lambda_reg, work)
    update = _smooth(grad, cfg.update_smoothing_sigma, work[2:4], grad)
    update *= step
    side.u -= update
    _smooth(side.u, cfg.field_smoothing_sigma, work[2:4], side.u)
    side.place(diagonal, work[:2], iteration, level)


def _downsample(values: np.ndarray) -> np.ndarray:
    """Halve a stack of (N, H, W) images after a σ=1 blur of each."""
    return gaussian_filter(values, (0.0, 1.0, 1.0), mode="nearest")[:, ::2, ::2]


def _upsample_field(u: np.ndarray, out: np.ndarray, work: np.ndarray):
    """Bilinear upsample of planar fields into ``out``, (2, N, H, W) grids
    twice as fine, displacements x2; ``work`` holds the gather."""
    x = np.indices(out.shape[-2:], dtype=np.float64)[:, None] / 2.0
    Stencil(out.shape[1:], u.shape[1:]).displace(x).sample(u, out=out, work=work)
    out *= 2.0


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


def _diverged(index, residual, reason, iteration, level):
    """The ConvergenceError of a divergence of pair ``index``."""
    return ConvergenceError(
        f"registration diverged at iteration {iteration} (level {level}): {reason}",
        residual=float(residual),
        iterations=iteration,
        index=index,
    )


def _check_length(u, diagonal, sq, iteration, level):
    """Raise divergence if a displacement of the planar fields ``u`` is
    longer than the grid ``diagonal``; ``sq`` is a scratch array of u's
    shape.

    Such a displacement maps every point off the grid, whether or not the
    field is still finite. The comparison is false for NaN and inf as well,
    so this check is what keeps non-finite points out of the stencils. A
    square that overflows to inf is divergence too, so the loop runs with
    overflow warnings off.
    """
    longest = np.sqrt(_sq_lengths(u, sq).max(axis=(-2, -1)))
    within = longest <= diagonal
    if not within.all():
        n = int(np.argmin(within))
        raise _diverged(
            n, longest[n],
            f"a displacement of {longest[n]:.4g} px exceeds the grid diagonal "
            f"({diagonal:.4g} px)",
            iteration, level,
        )


def _pair_terms(lambda_sim, lambda_reg, ab, ba, work):
    """Per-pair (l_sim, l_reg, l_p) of :func:`primary_loss`, summed as it
    sums them, from the residuals of the first half-step.

    The squares go into ``work``, one plane per term (the squared lengths
    of r1 and r2 in planes 2 and 4), so that one reduction takes all the
    means; each is the sum over its own plane, as ``np.mean`` takes it.
    """
    sq = work[:6]
    np.multiply(ab.at[2], ab.at[2], out=sq[0])
    np.multiply(ba.at[2], ba.at[2], out=sq[1])
    _sq_lengths(ba.at[:2], sq[2:4])
    _sq_lengths(ab.at[:2], sq[4:6])
    means = _grid_mean(sq)
    l_sim = means[0] + means[1]
    l_reg = means[2] + means[4]
    return l_sim, l_reg, lambda_sim * l_sim + lambda_reg * l_reg


def _history_terms(cfg, ab, ba, work, iteration, level):
    """:func:`_pair_terms` at the fields after ``iteration``; raises
    divergence if a pair's loss is not finite."""
    terms = _pair_terms(cfg.lambda_sim, cfg.lambda_reg, ab, ba, work)
    finite = np.isfinite(terms[2])
    if not finite.all():
        n = int(np.argmin(finite))
        raise _diverged(n, terms[2][n], "non-finite loss", iteration, level)
    return terms


def _evaluate(ab: _Side, ba: _Side, work: np.ndarray, image: bool):
    """Sample each side's partner at the side's points x + u, one gather a
    side.

    ``at[:2]`` becomes u + u_partner(x + u). With ``image`` the partner's
    image is gathered too: ``at[2]`` becomes the similarity residual
    image_partner(x + u) - image and ``d_image`` its derivative. The
    arithmetic is that of ``Stencil.sample`` and ``Stencil.sample_grad``.
    """
    for side, partner in ((ab, ba), (ba, ab)):
        if image:
            side.stencil.sample(partner.var, out=side.at, grad=side.d_image, work=work)
            side.at[2] -= side.image
        else:
            side.stencil.sample(partner.u, out=side.at[:2], work=work)
        side.at[:2] += side.u


def _descend_pyramid(pyramid, cfg):
    """The loop of :func:`register_pairs` over the image pyramid, finest
    level first in ``pyramid`` (which it empties): the final planar fields
    u_AB and u_BA, their consistency residuals u_AB + u_BA(x + u_AB) and
    u_BA + u_AB(x + u_BA), and the terms of each iteration's history row.

    Each level places both sides and evaluates them once; each iteration
    then steps u_AB, re-reads the consistency residuals, steps u_BA and
    evaluates both sides in full. That last evaluation gives the
    iteration's history row, and the next half-step steps from it, so no
    pass is made for the history alone. The loop variable is the global
    iteration number that divergence reports carry.
    """
    fields = None  # the previous level's (u_AB, u_BA, residuals)
    terms: list[tuple] = []
    n = cfg.iterations_per_level

    for level in range(len(pyramid)):
        ab, ba, work = _level(*pyramid.pop())  # coarse -> fine
        h, w = ab.image.shape[-2:]
        diagonal = np.hypot(h - 1, w - 1)
        step = cfg.step_size * (h * w)
        if fields is None:  # the first level starts from zero
            ab.u[...] = ba.u[...] = 0.0
        else:
            _upsample_field(fields[0], ab.u, work)
            _upsample_field(fields[1], ba.u, work)
            fields = None
        ab.place(diagonal, work[:2], level * n, level)
        ba.place(diagonal, work[:2], level * n, level)
        _evaluate(ab, ba, work, image=True)
        for it in range(level * n, (level + 1) * n):
            _half_step(ab, ba, step, cfg, work, diagonal, it, level)
            # Step u_BA against the new u_AB: only the consistency residuals
            # moved, and A(x + u_BA) with its derivative still holds.
            _evaluate(ab, ba, work, image=False)
            _half_step(ba, ab, step, cfg, work, diagonal, it, level)
            # Both sides read their partners in full: this iteration's loss
            # terms, and what the next iteration's half-steps step from.
            _evaluate(ab, ba, work, image=True)
            terms.append(_history_terms(cfg, ab, ba, work, it, level))
        fields = (ab.u, ba.u, ab.at[:2], ba.at[:2])
        del ab, ba, work

    return (*fields, terms)


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
    ``final_inverse_consistency`` is the larger ``field_rms`` of the two
    compositions of the final fields, phi_AB o phi_BA and phi_BA o phi_AB.
    It is read off the consistency residuals of the loop's last
    evaluation, which are those compositions' displacements formed with
    the operations and operands of :func:`fields.compose`, so with its bits.

    Coarse-to-fine alternating descent on both direction fields: each
    iteration steps u_AB, then u_BA, on the frozen-partner objective.
    ``loss_history`` row ``it`` holds (it, l_sim, l_reg, l_p) at the fields
    after iteration ``it``, evaluated at the end of that iteration. The
    next half-step steps from that evaluation, so the history costs no
    extra loss pass.

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
        if min(pyramid[-1][0].shape[1:]) < 8:
            break
        pyramid.append(tuple(_downsample(v) for v in pyramid[-1]))
    with np.errstate(over="ignore"):  # overflow is divergence; see _check_length
        u_ab, u_ba, r_ab, r_ba, terms = _descend_pyramid(pyramid, cfg)

    grid = fixed[0].grid

    def field(planes, n):  # pair n of planar fields, as an (H, W, 2) field
        return DisplacementField(grid, np.stack(planes[:, n], axis=-1))

    per_pair = np.array(terms).transpose(2, 0, 1).tolist()  # (pair, row, term)
    results = []
    for n, rows in enumerate(per_pair):
        phi_ab, phi_ba = field(u_ab, n), field(u_ba, n)
        final_ic = max(field_rms(field(r_ba, n)), field_rms(field(r_ab, n)))
        history = [(it, *row) for it, row in enumerate(rows)]
        results.append(RegistrationResult(phi_ab, phi_ba, history, final_ic))
    return results


def register_pair(
    a: ScalarImage, b: ScalarImage, cfg: RegistrationConfig = RegistrationConfig()
) -> RegistrationResult:
    """Register ``b`` to ``a`` and ``a`` to ``b``: :func:`register_pairs`
    on the one pair. ``phi_ab`` pulls ``b`` back onto ``a``."""
    return register_pairs([a], [b], cfg)[0]
