"""Group operations beyond composition: inversion, square roots, root chains,
and the log/exp maps.

``invert`` and ``sqrt_field`` are damped fixed-point (Picard) iterations on
displacement fields, both run by one loop, ``_fixed_point``; they differ
only in the gap they drive to zero. They are exact for constant translations
and first-order accurate in general; achieved residuals are returned as
first-class outputs so callers can assert them. ``exp_field`` is scaling and
squaring on :func:`fields.self_compose_m`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConvergenceError, DomainError
from .fields import (
    DisplacementField,
    LogField,
    compose,
    field_rms,
    field_rms_diff,
    grid_coords,
    neg_jacobian_fraction,
    sample_values,
    self_compose_m,
)


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver parameters (tolerance is an RMS update, in px)."""

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


def _fixed_point(gap, w0, cfg: SolverConfig):
    """Damped Picard iteration w <- w + damping * gap(w), starting at w0.

    Stops once the RMS update falls below the tolerance. Returns
    ``(w, iterations)``, with ``iterations`` None if that did not happen
    within ``max_iterations``.
    """
    w = w0
    for it in range(1, cfg.max_iterations + 1):
        update = cfg.damping * gap(w)
        w = w + update
        if np.sqrt(np.mean(update * update)) < cfg.tolerance:
            return w, it
    return w, None


def _not_converged(what, residual, cfg: SolverConfig) -> ConvergenceError:
    return ConvergenceError(
        f"{what} did not converge in {cfg.max_iterations} iterations "
        f"(residual {residual:.3e} px)",
        residual=residual,
        iterations=cfg.max_iterations,
    )


def invert(field: DisplacementField, cfg: SolverConfig = SolverConfig()) -> FieldSolution:
    """Numerical inverse via the fixed point w(x) = -u(x + w(x)).

    The returned residual is the RMS distance of compose(field, inverse)
    from the identity.
    """
    x = grid_coords(field.grid)
    u = field.u
    w, iterations = _fixed_point(lambda w: -sample_values(u, x + w) - w, -u, cfg)
    inv = DisplacementField(field.grid, w)
    residual = field_rms(compose(field, inv))
    if iterations is None:
        raise _not_converged("inversion", residual, cfg)
    return FieldSolution(inv, residual, iterations)


def sqrt_field(field: DisplacementField, cfg: SolverConfig = SolverConfig()) -> FieldSolution:
    """Square root psi with psi o psi ~= field, by damped fixed-point iteration.

    Iterates w <- w + damping * (u - F(w)) with F(w)(x) = w(x) + w(x + w(x)),
    starting from w = u/2. The residual is the RMS distance of the
    self-composition of the root from the input field.
    """
    warning = None
    if neg_jacobian_fraction(field) > 0:
        warning = "input field has non-positive Jacobian pixels; root may be inaccurate"
    x = grid_coords(field.grid)
    u = field.u
    w, iterations = _fixed_point(lambda w: u - (w + sample_values(w, x + w)), 0.5 * u, cfg)
    root = DisplacementField(field.grid, w)
    residual = field_rms_diff(self_compose_m(root, 2), field)
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
