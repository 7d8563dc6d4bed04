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
``invert``'s Newton step and its step safeguard are fresh. The safeguard
allocates only for the pixels that retry: their candidate steps, one
stencil over all of them and one sample with derivative there.
Stopping tests and residuals are RMS values summed in the ``(H, W, 2)``
order, so they carry the bits that ``field_rms`` and ``field_rms_diff``
give on the returned fields: each band writes its squares into an
``(H, W, 2)`` buffer that the grid holds, and :meth:`DisplacedGrid.rms`
takes the mean. Each solver allocates that buffer itself, right after its
planar copy of the input, since the place of the buffer in the heap shows
in the peak memory of a process that keeps many results.

On a large grid the per-pixel part of an iteration runs on the grid's row
bands at once (see :class:`fields.DisplacedGrid`): in ``sqrt_field`` the
finiteness check, placement, sample, damped step, the step's squares and
w + step, in ``invert`` the Newton step, its squares, the move to w + step,
placement, sample with derivative and the step safeguard. Every band reads
all of w, so w + step goes into a second buffer and the two swap once every
band is done. Only the means over the grid and the stop tests run on the
calling thread. The safeguard is per pixel, so every result is the same bit for bit
at any band count, and a solve joins its threads before it returns or
raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    check_depth,
    check_float,
    check_integer,
)
from .fields import (
    DisplacedGrid,
    DisplacementField,
    LogField,
    Stencil,
    _Band,
    _check_same_grid,
    _sq_lengths,
    field_rms_diff,
    self_compose_m,
)

# The solvers no longer call compose or sample_values. Both stay bound here,
# as before, for code that reaches or wraps them as lie.compose and
# lie.sample_values, such as perfbench's tracer tests.
from .fields import compose, sample_values  # noqa: F401

# invert takes a Newton step where det(I + grad u) exceeds this. Where a
# pixel's residual does not drop, it tries the step halved 1 to this many
# times, then the damped Picard step.
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
        check_float("tolerance", self.tolerance, 0, exclusive=True)
        check_integer("max_iterations", self.max_iterations, 1)
        check_float("damping", self.damping, 0, 1, exclusive=True)


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
            _check_same_grid(root, field)
            rms.append(field_rms_diff(self_compose_m(root, 2 ** (n + 1)), field))
        return rms


def _not_converged(what, residual, cfg: SolverConfig) -> ConvergenceError:
    return ConvergenceError(
        f"{what} did not converge in {cfg.max_iterations} iterations "
        f"(residual {residual:.3e} px)",
        residual=residual,
        iterations=cfg.max_iterations,
    )


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


def _newton_move(band, u, w, f_w, grad, damping, step, w_new, gap, tol_sq):
    """On one band's rows: the step from w, where F is ``f_w`` and grad u
    is ``grad``, and its squares; then w_new = w + step, and F = w_new +
    u(x + w_new) and grad u there, dF/dw - I, into ``gap`` and ``grad``;
    then :func:`_halve_steps`."""
    rows = band.rows
    d_row, d_col = grad[:, :, rows]
    _newton_step(f_w[:, rows], d_row, d_col, damping, step[:, rows])
    band.square(step)
    np.add(w[:, rows], step[:, rows], out=w_new[:, rows])
    band.composed(u, w_new, gap, grad)
    _halve_steps(band, u, w, w_new, step, f_w, gap, grad, tol_sq, damping)


def invert(field: DisplacementField, cfg: SolverConfig = SolverConfig()) -> FieldSolution:
    """Numerical inverse w with w(x) + u(x + w(x)) = 0 at every pixel.

    The equation is pointwise: each pixel has its own 2-D root problem, with
    Jacobian I + grad u(x + w) from :meth:`fields.Stencil.sample`'s
    derivative. Starting at w = -u, each iteration takes a Newton step where
    det(I + grad u) > 1e-3 and the damped Picard step -damping * F
    elsewhere. Where a pixel's |F| did not drop (pixels already within the
    tolerance are accepted), it backtracks as a line search would: it moves
    by the first of its step halved 1 to 6 times that lowers |F|, all six
    tried at once. A pixel that no halving improves takes the damped
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
    squares = np.empty(grid.shape + (2,))
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
    with DisplacedGrid(grid, squares) as displaced:
        displaced.run(_Band.composed, u, w, f_w, grad)
        for it in range(1, cfg.max_iterations + 1):
            displaced.run(_newton_move, u, w, f_w, grad, cfg.damping, step, w_new, gap, tol_sq)
            w, w_new = w_new, w
            f_w, gap = gap, f_w
            # The stop test reads the full step, squared before any
            # halving: a halved step is short because the residual did not
            # drop, not because w is near the root.
            if displaced.rms() < cfg.tolerance:
                iterations = it
                break
        displaced.run(_Band.square, f_w)
    residual = displaced.rms()
    np.copyto(result, w.transpose(1, 2, 0))
    inv = DisplacementField(grid, result)
    if iterations is None:
        raise _not_converged("inversion", residual, cfg)
    return FieldSolution(inv, residual, iterations)


def _halve_steps(band, u, w, w_new, step, f_w, gap, grad, tol_sq, damping):
    """Safeguard the step from w to w_new per pixel, in place, on one
    band's rows.

    ``f_w`` is F at w; ``gap`` and ``grad`` hold F and grad u at w_new and
    follow it. A pixel whose squared residual did not drop below its value
    at w (where that exceeds ``tol_sq``) retries. Its candidate steps are
    the step halved 1 to ``_MAX_HALVINGS`` times, then the damped Picard
    step -damping * F(w), all evaluated at once through one stencil; it
    moves by the first that lowers its residual, or else by the Picard
    step, accepted where it lands: near a fold the Newton direction can
    point uphill at every length, and the Picard step moves the pixel on.
    ``step`` keeps the full step, which the stop test has already read.
    """
    # A band's rows are contiguous in each plane, so these are views.
    r = band.rows
    w, w_new, step, f_w, gap = (a[:, r].reshape(2, -1) for a in (w, w_new, step, f_w, gap))
    grad = grad[:, :, r].reshape(2, 2, -1)
    before = _sq_lengths(f_w)
    retry = np.flatnonzero((_sq_lengths(gap) >= before) & (before > tol_sq))
    if retry.size == 0:
        return
    # Candidate k of a pixel is its step halved k + 1 times, by successive
    # products with 0.5 (one product with 0.5**(k+1) rounds differently
    # where the step underflows); the last candidate is the Picard step.
    steps = np.full((2, _MAX_HALVINGS + 1, retry.size), 0.5)
    steps[:, 0] *= step[:, retry]
    np.multiply.accumulate(steps[:, :-1], axis=1, out=steps[:, :-1])
    steps[:, -1] = -damping * f_w[:, retry]
    moved = w[:, None, retry] + steps
    x = band.x.reshape(2, -1)[:, None, retry]
    stencil = Stencil(moved.shape[1:], u.shape[1:]).displace(x, moved)
    g, g_grad = np.empty_like(moved), np.empty((2,) + moved.shape)
    stencil.sample_grad(u, g, g_grad)
    g += moved
    # The first candidate whose residual is not >= the pixel's at w, which
    # takes NaN as a drop; the Picard step where there is none.
    dropped = ~(_sq_lengths(g) >= before[retry])
    dropped[-1] = True
    first, pixel = dropped.argmax(axis=0), np.arange(retry.size)
    w_new[:, retry] = moved[:, first, pixel]
    gap[:, retry] = g[:, first, pixel]
    grad[:, :, retry] = g_grad[:, :, first, pixel]


def _picard_step(band, u, w, damping, step, w_next):
    """On one band's rows: step = damping * (u - (w + w(x + w))), formed
    in place, its squares, and w_next = w + step."""
    rows = band.rows
    composed = band.composed(w, w, step)
    np.subtract(u[:, rows], composed, out=composed)
    composed *= damping
    band.square(step)
    np.add(w[:, rows], composed, out=w_next[:, rows])


def _composition_gap(band, u, w, out):
    """F(w) - u = w + w(x + w) - u on one band's rows, into ``out``, and
    its squares."""
    composed = band.composed(w, w, out)
    composed -= u[:, band.rows]
    band.square(out)


def sqrt_field(field: DisplacementField, cfg: SolverConfig = SolverConfig()) -> FieldSolution:
    """Square root psi with psi o psi ~= field, by damped fixed-point iteration.

    Iterates w <- w + damping * (u - F(w)) with F(w)(x) = w(x) + w(x + w(x)),
    starting from w = u/2, until the RMS update falls below the tolerance.
    The residual is the RMS distance of the self-composition of the root
    from the input field.
    """
    grid = field.grid
    u = field.u.transpose(2, 0, 1).copy()
    squares = np.empty(grid.shape + (2,))
    # Every band reads all of w, so the update goes into w_next, and the
    # two swap once all bands are done.
    w = 0.5 * u
    step, w_next = np.empty_like(u), np.empty_like(u)
    iterations = None
    with DisplacedGrid(grid, squares) as displaced:
        for it in range(1, cfg.max_iterations + 1):
            displaced.run(_picard_step, u, w, cfg.damping, step, w_next)
            w, w_next = w_next, w
            if displaced.rms() < cfg.tolerance:
                iterations = it
                break
        # F(w) - u, as field_rms_diff(self_compose_m(root, 2), field) forms it.
        displaced.run(_composition_gap, u, w, step)
    residual = displaced.rms()
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
            raise err.within(f"root chain failed at level {level}") from err
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
