"""Group operations beyond composition: inversion, square roots, root chains,
and the log/exp maps.

``sqrt_field`` is a damped fixed-point (Picard) iteration; ``invert`` takes
safeguarded per-pixel Newton steps. Both stop once the RMS update falls
below the tolerance, and both return their achieved residuals as
first-class outputs so callers can assert them. ``exp_field`` is scaling and
squaring on :func:`fields.self_compose_m`; ``log_field`` is inverse scaling
and squaring on ``root_chain``, successive ``sqrt_field`` calls (Arsigny et
al., "A Log-Euclidean framework for statistics on diffeomorphisms", MICCAI
2006).

The loops hold their fields planar, ``(2, H, W)``, from the first iteration
to the last, and resample through one :class:`fields.DisplacedGrid` whose
stencil they rebuild in place. ``sqrt_field`` allocates its buffers once;
``invert``'s Newton step and ``sample_grad``'s outputs are fresh arrays,
for the handful of iterations a call takes. Each converts back to a
C-contiguous ``(H, W, 2)`` field once, at the end.
Stopping tests and residuals are RMS values summed in the ``(H, W, 2)``
order, so they carry the bits that ``field_rms`` and ``field_rms_diff``
give on the returned fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConvergenceError, DomainError
from .fields import (
    DisplacedGrid,
    DisplacementField,
    LogField,
    Stencil,
    neg_jacobian_fraction,
    self_compose_m,
)

# The solvers no longer call compose or sample_values. Both stay bound here,
# as before, for code that reaches or wraps them as lie.compose and
# lie.sample_values, such as perfbench's tracer tests.
from .fields import compose, sample_values  # noqa: F401

# invert takes a Newton step where det(I + grad u) exceeds this, and halves
# a pixel's step at most this many times while its residual does not drop,
# then takes the damped Picard step instead.
_MIN_NEWTON_DET = 1e-3
_MAX_HALVINGS = 6


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters. ``tolerance`` bounds the RMS update, in px, at
    which ``sqrt_field`` and ``invert`` stop. ``damping`` is the Picard step
    of ``sqrt_field`` and the fallback step of ``invert`` where its Newton
    step is unsafe or does not lower the residual."""

    tolerance: float = 1e-6
    max_iterations: int = 200
    damping: float = 0.5

    def __post_init__(self):
        if not (self.tolerance > 0):
            raise DomainError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if not (0 < self.damping <= 1):
            raise DomainError("damping must be in (0, 1]")


@dataclass
class FieldSolution:
    """A solved field plus the residual the solver achieved."""

    field: DisplacementField
    residual: float
    iterations: int
    warning: str | None = None


@dataclass
class RootChain:
    """Successive square roots: roots[n] holds phi^(1/2^(n+1))."""

    roots: list[DisplacementField] = dc_field(default_factory=list)
    residuals: list[float] = dc_field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.roots)


class _ChannelLastRMS:
    """RMS of planar ``(2, H, W)`` arrays, summed in ``(H, W, 2)`` order.

    ``np.mean`` sums a contiguous array in memory order, so a planar mean
    can differ in the last bits from ``field_rms`` of the same field; the
    squares go into one ``(H, W, 2)`` buffer instead.
    """

    def __init__(self, shape):
        self._squares = np.empty(tuple(shape) + (2,))
        self._planar = self._squares.transpose(2, 0, 1)

    def __call__(self, a: np.ndarray) -> float:
        np.multiply(a, a, out=self._planar)
        return float(np.sqrt(np.mean(self._squares)))


def _not_converged(what, residual, cfg: SolverConfig) -> ConvergenceError:
    return ConvergenceError(
        f"{what} did not converge in {cfg.max_iterations} iterations "
        f"(residual {residual:.3e} px)",
        residual=residual,
        iterations=cfg.max_iterations,
    )


def _sq_norm(g: np.ndarray) -> np.ndarray:
    """Squared length of the 2-vectors of a ``(2, ...)`` array."""
    return g[0] * g[0] + g[1] * g[1]


def _inverse_gap(stencil: Stencil, u: np.ndarray, w: np.ndarray):
    """F = w + u(x + w) at the stencil's points x + w, and dF/dw - I as the
    derivatives of u along rows and columns."""
    val, d_row, d_col = stencil.sample_grad(u)
    val += w
    return val, d_row, d_col


def _newton_step(gap, d_row, d_col, damping):
    """-J^-1 F per pixel, J = I + grad u, where det J > _MIN_NEWTON_DET;
    the damped Picard step -damping F elsewhere."""
    a = 1.0 + d_row[0]
    d = 1.0 + d_col[1]
    b, c = d_col[0], d_row[1]
    det = a * d - b * c
    newton = det > _MIN_NEWTON_DET
    det[~newton] = 1.0
    step = np.empty_like(gap)
    step[0] = b * gap[1] - d * gap[0]
    step[1] = c * gap[0] - a * gap[1]
    step /= det
    np.multiply(-damping, gap, out=step, where=~newton)
    return step


def invert(field: DisplacementField, cfg: SolverConfig = SolverConfig()) -> FieldSolution:
    """Numerical inverse w with w(x) + u(x + w(x)) = 0 at every pixel.

    The equation is pointwise: each pixel has its own 2-D root problem, with
    Jacobian I + grad u(x + w) from :meth:`fields.Stencil.sample_grad`.
    Starting at w = -u, each iteration takes a Newton step where
    det(I + grad u) > 1e-3 and the damped Picard step -damping * F
    elsewhere, then halves the step of each pixel whose |F| did not drop
    (at most 6 times; pixels already within the tolerance are accepted), as
    a line search would. A pixel that no halving improves takes the damped
    Picard step instead: the fixed-point iteration of Chen et al., "A
    simple fixed-point approach to invert a deformation field" (Med. Phys.
    2008), which the Newton steps accelerate. It stops once the RMS of the
    full step, before any halving, falls below the tolerance.

    The returned residual is the RMS distance of compose(field, inverse)
    from the identity.
    """
    grid = field.grid
    tol_sq = cfg.tolerance * cfg.tolerance
    u = field.u.transpose(2, 0, 1).copy()
    displaced = DisplacedGrid(grid)
    rms = _ChannelLastRMS(grid.shape)
    w = -u
    gap, d_row, d_col = _inverse_gap(displaced.stencil(w), u, w)
    iterations = None
    for it in range(1, cfg.max_iterations + 1):
        step = _newton_step(gap, d_row, d_col, cfg.damping)
        # The stop test reads the full step: a halved step is short because
        # the residual did not drop, not because w is near the root.
        converged = rms(step) < cfg.tolerance
        f_w = gap
        w_new = w + step
        gap, d_row, d_col = _inverse_gap(displaced.stencil(w_new), u, w_new)
        _halve_steps(displaced, u, w, w_new, step, f_w, gap, d_row, d_col, tol_sq, cfg.damping)
        w = w_new
        if converged:
            iterations = it
            break
    residual = rms(gap)
    inv = DisplacementField(grid, w.transpose(1, 2, 0))
    if iterations is None:
        raise _not_converged("inversion", residual, cfg)
    return FieldSolution(inv, residual, iterations)


def _halve_steps(displaced, u, w, w_new, step, f_w, gap, d_row, d_col, tol_sq, damping):
    """Safeguard the step from w to w_new per pixel, in place.

    ``f_w`` is F at w; ``gap``, ``d_row`` and ``d_col`` hold F and grad u at
    w_new and follow it. A pixel whose squared residual did not drop below
    its value at w (where that exceeds ``tol_sq``) has its step halved and is
    re-evaluated alone, at most ``_MAX_HALVINGS`` times. A pixel that still
    did not improve takes the damped Picard step -damping * F(w) instead,
    accepted where it lands: near a fold the Newton direction can point
    uphill at every length, and the Picard step moves the pixel on.
    """
    w, w_new, step, f_w, gap, d_row, d_col = (
        a.reshape(2, -1) for a in (w, w_new, step, f_w, gap, d_row, d_col)
    )
    before = _sq_norm(f_w)
    shape = u.shape[1:]
    rows, cols = displaced.x.reshape(2, -1)

    def move(idx, new_step):
        step[:, idx] = new_step
        w_new[:, idx] = w[:, idx] + new_step
        stencil = Stencil(rows[idx] + w_new[0, idx], cols[idx] + w_new[1, idx], shape)
        g, dr, dc = _inverse_gap(stencil, u, w_new[:, idx])
        gap[:, idx], d_row[:, idx], d_col[:, idx] = g, dr, dc
        return g

    retry = np.flatnonzero((_sq_norm(gap) >= before) & (before > tol_sq))
    for _ in range(_MAX_HALVINGS):
        if retry.size == 0:
            return
        g = move(retry, 0.5 * step[:, retry])
        retry = retry[_sq_norm(g) >= before[retry]]
    if retry.size:
        move(retry, -damping * f_w[:, retry])


def sqrt_field(field: DisplacementField, cfg: SolverConfig = SolverConfig()) -> FieldSolution:
    """Square root psi with psi o psi ~= field, by damped fixed-point iteration.

    Iterates w <- w + damping * (u - F(w)) with F(w)(x) = w(x) + w(x + w(x)),
    starting from w = u/2, until the RMS update falls below the tolerance.
    The residual is the RMS distance of the self-composition of the root
    from the input field.
    """
    warning = None
    if neg_jacobian_fraction(field) > 0:
        warning = "input field has non-positive Jacobian pixels; root may be inaccurate"
    grid = field.grid
    u = field.u.transpose(2, 0, 1).copy()
    displaced = DisplacedGrid(grid)
    rms = _ChannelLastRMS(grid.shape)
    w = 0.5 * u
    step = np.empty_like(u)
    iterations = None
    for it in range(1, cfg.max_iterations + 1):
        # step = damping * (u - (w + w(x + w))), formed in place.
        np.subtract(u, displaced.self_composed(w, out=step), out=step)
        step *= cfg.damping
        w += step
        if rms(step) < cfg.tolerance:
            iterations = it
            break
    # F(w) - u, as field_rms_diff(self_compose_m(root, 2), field) forms it.
    composed = displaced.self_composed(w, out=step)
    composed -= u
    residual = rms(composed)
    root = DisplacementField(grid, w.transpose(1, 2, 0))
    if iterations is None:
        raise _not_converged("square root", residual, cfg)
    return FieldSolution(root, residual, iterations, warning=warning)


def root_chain(
    field: DisplacementField, n_levels: int, cfg: SolverConfig = SolverConfig()
) -> RootChain:
    """Successive square roots phi^(1/2), phi^(1/4), ..., phi^(1/2^n_levels)."""
    if n_levels < 1:
        raise DomainError(f"root chain depth must be >= 1, got {n_levels}")
    chain = RootChain()
    current = field
    for level in range(n_levels):
        try:
            sol = sqrt_field(current, cfg)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"root chain failed at level {level}: {err}",
                residual=err.residual,
                iterations=err.iterations,
            ) from err
        chain.roots.append(sol.field)
        chain.residuals.append(sol.residual)
        current = sol.field
    return chain


def log_field(
    field: DisplacementField, n_levels: int = 6, cfg: SolverConfig = SolverConfig()
) -> LogField:
    """Logarithm by inverse scaling and squaring: 2^N times the 2^N-th root's
    displacement."""
    chain = root_chain(field, n_levels, cfg)
    return LogField(field.grid, (2.0 ** n_levels) * chain.roots[-1].u)


def exp_field(v: LogField, n_levels: int = 6) -> DisplacementField:
    """Exponential by scaling and squaring: halve v dyadically, then square N
    times."""
    if n_levels < 1:
        raise DomainError(f"exp depth must be >= 1, got {n_levels}")
    return self_compose_m(DisplacementField(v.grid, v.v / 2.0**n_levels), 2**n_levels)
