"""Group operations beyond composition: inversion, square roots, root chains,
and the log/exp maps.

``sqrt_field`` is a damped fixed-point (Picard) iteration; ``invert`` takes
safeguarded per-pixel Newton steps. Both stop once the RMS update falls
below the tolerance, and both return their achieved residuals as
first-class outputs so callers can assert them. Neither checks its input for
folds, so a chain costs only its roots; a caller that needs a fold check
makes it (the CLI ``sqrt`` command does). ``exp_field`` is scaling and
squaring on :func:`fields.self_compose_m`. The log is inverse scaling and
squaring (Arsigny et al., "A Log-Euclidean framework for statistics on
diffeomorphisms", MICCAI 2006): ``root_chain`` takes successive
``sqrt_field`` roots into a :class:`RootChain`, which keeps each level's
residual and iteration count and owns what is derived from the roots,
:meth:`RootChain.log` (2^depth times the last root) and
:meth:`RootChain.reconstruction_rms`. ``log_field`` is
``root_chain(...).log()``; a caller that needs the roots as well as the log
takes both from one chain.

The loops hold their fields planar, ``(2, H, W)``, from the first iteration
to the last, and resample through one :class:`fields.DisplacedGrid`, whose
stencils are re-placed every iteration. Both allocate their fields, steps,
residuals and derivatives once, and convert back to a C-contiguous
``(H, W, 2)`` field once, at the end; only the temporaries inside
``invert``'s Newton step and its per-pixel step halving are fresh.
Stopping tests and residuals are RMS values summed in the ``(H, W, 2)``
order, so they carry the bits that ``field_rms`` and ``field_rms_diff``
give on the returned fields.

On a large grid the per-pixel part of an iteration runs on the grid's row
bands at once (see :class:`fields.DisplacedGrid`): in ``sqrt_field`` the
finiteness check, placement, sample, damped step, the step's squares and
w + step, in ``invert`` the Newton step, its squares, the move to w + step,
placement and sample with derivative. Every band reads all of w, so w + step
goes into a second buffer and the two swap once every band is done. The
means over the grid, the stop tests and ``invert``'s step halving run on
the calling thread, so every result is the same bit for bit at any band
count, and a solve joins its threads before it returns or raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    ShapeError,
    check_depth,
    require_finite,
    require_integer,
)
from .fields import (
    DisplacedGrid,
    DisplacementField,
    LogField,
    Stencil,
    _sq_lengths,
    field_rms_diff,
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
        require_finite(self, "tolerance", "damping")
        require_integer(self, "max_iterations")
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


@dataclass
class RootChain:
    """Successive square roots: roots[n] holds phi^(1/2^(n+1)), and
    residuals[n] and iterations[n] what ``sqrt_field`` reported for it."""

    roots: list[DisplacementField] = dc_field(default_factory=list)
    residuals: list[float] = dc_field(default_factory=list)
    iterations: list[int] = dc_field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.roots)

    def log(self) -> LogField:
        """The logarithm by inverse scaling and squaring: 2^depth times the
        last root's displacement."""
        if not self.roots:
            raise DomainError("an empty root chain has no log")
        last = self.roots[-1]
        return LogField(last.grid, (2.0 ** self.depth) * last.u)

    def reconstruction_rms(self, field: DisplacementField) -> list[float]:
        """Per level n, the RMS distance (``field_rms_diff``) from ``field``,
        the chain's source, of root n self-composed 2^(n+1) times."""
        rms = []
        for n, root in enumerate(self.roots):
            if root.grid != field.grid:
                raise ShapeError("chain grid does not match field grid")
            rms.append(field_rms_diff(self_compose_m(root, 2 ** (n + 1)), field))
        return rms


class _ChannelLastRMS:
    """RMS of planar ``(2, H, W)`` arrays, summed in ``(H, W, 2)`` order.

    ``np.mean`` sums a contiguous array in memory order, so a planar mean
    can differ in the last bits from ``field_rms`` of the same field; the
    squares go into one ``(H, W, 2)`` buffer instead. A banded solve writes
    the squares of each band's rows (:meth:`square`) on the band's thread
    and takes the one mean over the grid (:meth:`value`) on the calling
    thread.
    """

    def __init__(self, shape):
        self._squares = np.empty(tuple(shape) + (2,))
        self._planar = self._squares.transpose(2, 0, 1)

    def __call__(self, a: np.ndarray) -> float:
        self.square(a)
        return self.value()

    def square(self, a: np.ndarray, rows: slice = slice(None)):
        """Hold the squares of the ``rows`` of ``a``."""
        a = a[:, rows]
        np.multiply(a, a, out=self._planar[:, rows])

    def value(self) -> float:
        """The RMS of the squares held."""
        return float(np.sqrt(np.mean(self._squares)))


def _not_converged(what, residual, cfg: SolverConfig) -> ConvergenceError:
    return ConvergenceError(
        f"{what} did not converge in {cfg.max_iterations} iterations "
        f"(residual {residual:.3e} px)",
        residual=residual,
        iterations=cfg.max_iterations,
    )


def _inverse_gap(stencil: Stencil, u: np.ndarray, w: np.ndarray, gap, grad):
    """F = w + u(x + w) into ``gap``, and dF/dw - I, the derivatives of u
    along rows and columns, into ``grad`` (``(2, *gap.shape)``), at the
    stencil's points x + w."""
    # A unit axis makes both planes of u "the last along the last axis".
    stencil.sample(u[:, None], gap[:, None], grad)
    gap += w


def _newton_step(gap, d_row, d_col, damping, out):
    """-J^-1 F per pixel into ``out``, J = I + grad u, where det J >
    _MIN_NEWTON_DET; the damped Picard step -damping F elsewhere."""
    a = 1.0 + d_row[0]
    d = 1.0 + d_col[1]
    b, c = d_col[0], d_row[1]
    det = a * d - b * c
    newton = det > _MIN_NEWTON_DET
    det[~newton] = 1.0
    out[0] = b * gap[1] - d * gap[0]
    out[1] = c * gap[0] - a * gap[1]
    out /= det
    np.multiply(-damping, gap, out=out, where=~newton)


def _band_gap(band, u, w, gap, grad):
    """:func:`_inverse_gap` at x + w on one band's rows of the
    ``(2, H, W)`` arrays ``w`` and ``gap`` and the ``(2, 2, H, W)``
    ``grad``."""
    rows = band.rows
    _inverse_gap(band.stencil(w), u, w[:, rows], gap[:, rows], grad[:, :, rows])


def _newton_move(band, u, w, f_w, grad, damping, step, rms, w_new, gap):
    """On one band's rows: the step from w, where F is ``f_w`` and grad u
    is ``grad``, and its squares for ``rms``; then w_new = w + step, and F
    and grad u at w_new into ``gap`` and ``grad``."""
    rows = band.rows
    d_row, d_col = grad[:, :, rows]
    _newton_step(f_w[:, rows], d_row, d_col, damping, step[:, rows])
    rms.square(step, rows)
    np.add(w[:, rows], step[:, rows], out=w_new[:, rows])
    _band_gap(band, u, w_new, gap, grad)


def invert(field: DisplacementField, cfg: SolverConfig = SolverConfig()) -> FieldSolution:
    """Numerical inverse w with w(x) + u(x + w(x)) = 0 at every pixel.

    The equation is pointwise: each pixel has its own 2-D root problem, with
    Jacobian I + grad u(x + w) from :meth:`fields.Stencil.sample`'s
    derivative. Starting at w = -u, each iteration takes a Newton step where
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
    rms = _ChannelLastRMS(grid.shape)
    # The returned field goes into an array allocated before the loop's
    # buffers. Allocated after them, it sat above their freed space in the
    # heap, and perfbench's algebra256, which keeps results, peaked about
    # 15 MB higher. (sqrt_field's root comes last: allocated first, it left
    # the buffers on top of the heap, which was trimmed and grown again on
    # every call, with 2.7 times the page faults of a 64^2 log_field.)
    result = np.empty(grid.shape + (2,))
    # F and grad u at w live in f_w and grad; the step moves w to w_new,
    # where F goes into gap. The pairs (w, w_new) and (f_w, gap) swap once
    # the step is accepted.
    w = -u
    w_new, step, f_w, gap = (np.empty_like(u) for _ in range(4))
    grad = np.empty((2,) + u.shape)
    iterations = None
    with DisplacedGrid(grid) as displaced:
        displaced.run(_band_gap, u, w, f_w, grad)
        for it in range(1, cfg.max_iterations + 1):
            displaced.run(_newton_move, u, w, f_w, grad, cfg.damping, step, rms, w_new, gap)
            # The stop test reads the full step: a halved step is short
            # because the residual did not drop, not because w is near the
            # root.
            converged = rms.value() < cfg.tolerance
            _halve_steps(displaced, u, w, w_new, step, f_w, gap, grad, tol_sq, cfg.damping)
            w, w_new = w_new, w
            f_w, gap = gap, f_w
            if converged:
                iterations = it
                break
    residual = rms(f_w)
    np.copyto(result, w.transpose(1, 2, 0))
    inv = DisplacementField(grid, result)
    if iterations is None:
        raise _not_converged("inversion", residual, cfg)
    return FieldSolution(inv, residual, iterations)


def _halve_steps(displaced, u, w, w_new, step, f_w, gap, grad, tol_sq, damping):
    """Safeguard the step from w to w_new per pixel, in place.

    ``f_w`` is F at w; ``gap`` and ``grad`` hold F and grad u at w_new and
    follow it. A pixel whose squared residual did not drop below its value
    at w (where that exceeds ``tol_sq``) has its step halved and is
    re-evaluated alone, at most ``_MAX_HALVINGS`` times. A pixel that still
    did not improve takes the damped Picard step -damping * F(w) instead,
    accepted where it lands: near a fold the Newton direction can point
    uphill at every length, and the Picard step moves the pixel on.
    """
    w, w_new, step, f_w, gap = (a.reshape(2, -1) for a in (w, w_new, step, f_w, gap))
    grad = grad.reshape(2, 2, -1)
    before = _sq_lengths(f_w)
    shape = u.shape[1:]
    rows, cols = displaced.x.reshape(2, -1)

    def move(idx, new_step):
        step[:, idx] = new_step
        w_new[:, idx] = w[:, idx] + new_step
        stencil = Stencil(rows[idx] + w_new[0, idx], cols[idx] + w_new[1, idx], shape)
        g = np.empty((2, idx.size))
        g_grad = np.empty((2, 2, idx.size))
        _inverse_gap(stencil, u, w_new[:, idx], g, g_grad)
        gap[:, idx], grad[:, :, idx] = g, g_grad
        return g

    retry = np.flatnonzero((_sq_lengths(gap) >= before) & (before > tol_sq))
    for _ in range(_MAX_HALVINGS):
        if retry.size == 0:
            return
        g = move(retry, 0.5 * step[:, retry])
        retry = retry[_sq_lengths(g) >= before[retry]]
    if retry.size:
        move(retry, -damping * f_w[:, retry])


def _picard_step(band, u, w, damping, step, rms, w_next):
    """On one band's rows: step = damping * (u - (w + w(x + w))), formed
    in place, its squares for ``rms``, and w_next = w + step."""
    rows = band.rows
    composed = band.self_composed(w, out=step)
    np.subtract(u[:, rows], composed, out=composed)
    composed *= damping
    rms.square(step, rows)
    np.add(w[:, rows], composed, out=w_next[:, rows])


def _composition_gap(band, u, w, out, rms):
    """F(w) - u = w + w(x + w) - u on one band's rows, into ``out``, and
    its squares for ``rms``."""
    composed = band.self_composed(w, out=out)
    composed -= u[:, band.rows]
    rms.square(out, band.rows)


def sqrt_field(field: DisplacementField, cfg: SolverConfig = SolverConfig()) -> FieldSolution:
    """Square root psi with psi o psi ~= field, by damped fixed-point iteration.

    Iterates w <- w + damping * (u - F(w)) with F(w)(x) = w(x) + w(x + w(x)),
    starting from w = u/2, until the RMS update falls below the tolerance.
    The residual is the RMS distance of the self-composition of the root
    from the input field.
    """
    grid = field.grid
    u = field.u.transpose(2, 0, 1).copy()
    rms = _ChannelLastRMS(grid.shape)
    # Every band reads all of w, so the update goes into w_next, and the
    # two swap once all bands are done.
    w = 0.5 * u
    step, w_next = np.empty_like(u), np.empty_like(u)
    iterations = None
    with DisplacedGrid(grid) as displaced:
        for it in range(1, cfg.max_iterations + 1):
            displaced.run(_picard_step, u, w, cfg.damping, step, rms, w_next)
            w, w_next = w_next, w
            if rms.value() < cfg.tolerance:
                iterations = it
                break
        # F(w) - u, as field_rms_diff(self_compose_m(root, 2), field) forms it.
        displaced.run(_composition_gap, u, w, step, rms)
    residual = rms.value()
    root = DisplacementField(grid, w.transpose(1, 2, 0))
    if iterations is None:
        raise _not_converged("square root", residual, cfg)
    return FieldSolution(root, residual, iterations)


def root_chain(
    field: DisplacementField, n_levels: int, cfg: SolverConfig = SolverConfig()
) -> RootChain:
    """Successive square roots phi^(1/2), phi^(1/4), ..., phi^(1/2^n_levels).

    Each level calls ``sqrt_field`` by its module-level name, so a wrapper
    bound to ``lie.sqrt_field`` sees every root of every chain."""
    check_depth("root chain depth", n_levels)
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
        chain.iterations.append(sol.iterations)
        current = sol.field
    return chain


def log_field(
    field: DisplacementField, n_levels: int = 6, cfg: SolverConfig = SolverConfig()
) -> LogField:
    """Logarithm by inverse scaling and squaring: :meth:`RootChain.log` of
    the field's chain of ``n_levels`` roots."""
    return root_chain(field, n_levels, cfg).log()


def exp_field(v: LogField, n_levels: int = 6) -> DisplacementField:
    """Exponential by scaling and squaring: halve v dyadically, then square N
    times."""
    check_depth("exp depth", n_levels)
    return self_compose_m(DisplacementField(v.grid, v.v / 2.0**n_levels), 2**n_levels)
