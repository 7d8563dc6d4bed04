import numpy as np
import pytest

from diffeo2d import (
    DisplacementField,
    Grid,
    LogField,
    RandomFieldSpec,
    SolverConfig,
    compose,
    exp_field,
    field_rms_diff,
    identity_field,
    invert,
    log_field,
    random_log_field,
    root_chain,
    self_compose_m,
    sqrt_field,
)
from diffeo2d.errors import ConvergenceError, DomainError
from diffeo2d.fields import field_rms
from diffeo2d.lie import _newton_step

from conftest import constant_field, suite_field


class TestInvert:
    def test_translation_negates(self):
        sol = invert(constant_field(Grid(16, 16), 1.0, 2.0))
        assert np.allclose(sol.field.u[..., 0], -1.0)
        assert np.allclose(sol.field.u[..., 1], -2.0)

    def test_identity(self):
        sol = invert(identity_field(Grid(8, 8)))
        assert np.all(sol.field.u == 0.0)
        assert sol.residual == 0.0

    def test_suite_bound(self):
        _, phi = suite_field(3, amplitude=5.0)
        sol = invert(phi)
        ident = identity_field(phi.grid)
        assert field_rms_diff(compose(phi, sol.field), ident) <= 1e-3

    def test_both_orders_near_identity(self):
        # The fixed point drives phi o inv to the identity, so that order
        # lands at the solver tolerance.  The reversed order inv o phi
        # resamples the inverse between grid nodes, so its residual is
        # bounded by bilinear interpolation error (O(h^2) in the field's
        # curvature), not by the solver tolerance.
        cfg = SolverConfig()
        for seed in range(5):
            _, phi = suite_field(seed)
            sol = invert(phi, cfg)
            ident = identity_field(phi.grid)
            assert field_rms_diff(compose(phi, sol.field), ident) <= 10 * cfg.tolerance
            assert field_rms_diff(compose(sol.field, phi), ident) <= 0.05

    @pytest.mark.parametrize("seed", [5, 27])
    def test_strong_shear_converges(self, seed):
        # 32x32 synth fields, amplitude 4 and smoothing 2, on which a damped
        # Picard iteration ends its 200 iterations at 1.7e-5 and 8.9e-2 px
        # although every bilinear cell is fold-free.
        spec = RandomFieldSpec(Grid(32, 32), seed=seed, amplitude=4.0, smoothing_sigma=2.0)
        phi = exp_field(random_log_field(spec))
        cfg = SolverConfig()
        sol = invert(phi, cfg)
        assert sol.residual == field_rms(compose(phi, sol.field))
        assert sol.residual <= 10 * cfg.tolerance
        assert sol.iterations <= 8

    @pytest.mark.parametrize("seed", [4, 7, 12, 25])
    def test_sharp_fields_converge_through_picard_fallback(self, seed):
        # 32x32 synth fields, amplitude 4 and smoothing 1. At a few pixels
        # the Newton direction raises |F| at every halving; accepting the
        # last halved step left those pixels creeping uphill, and seeds 4, 7
        # and 12 ran out of iterations that way. The damped Picard step
        # moves them on.
        spec = RandomFieldSpec(Grid(32, 32), seed=seed, amplitude=4.0, smoothing_sigma=1.0)
        phi = exp_field(random_log_field(spec))
        cfg = SolverConfig()
        sol = invert(phi, cfg)
        assert sol.residual <= 10 * cfg.tolerance
        assert sol.iterations <= 60

    def test_newton_iterations_on_suite_fields(self):
        for seed in range(3):
            _, phi = suite_field(seed)
            sol = invert(phi)
            assert sol.iterations <= 6
            assert sol.residual <= 1e-9

    def test_step_is_newton_or_damped_picard(self):
        # Pixel 0: det(I + grad u) = 1.5 * 2 - 0.5 * 0.25 > 1e-3, a Newton
        # step solving (I + grad u) step = -F. Pixel 1: det = 0 * 0.5 - 0 = 0,
        # the damped Picard step -damping * F.
        gap = np.array([[0.3, -1.0], [-0.2, 2.0]])
        d_row = np.array([[0.5, -1.0], [0.25, 0.0]])
        d_col = np.array([[0.5, 0.0], [1.0, -0.5]])
        step = _newton_step(gap, d_row, d_col, 0.5)
        jac = np.array([[1.0 + d_row[0, 0], d_col[0, 0]], [d_row[1, 0], 1.0 + d_col[1, 0]]])
        assert np.allclose(jac @ step[:, 0], -gap[:, 0], rtol=0.0, atol=1e-15)
        assert np.array_equal(step[:, 1], -0.5 * gap[:, 1])


class TestSqrt:
    def test_translation_halves(self):
        sol = sqrt_field(constant_field(Grid(16, 16), 2.0, 0.0))
        assert np.allclose(sol.field.u[..., 0], 1.0)
        assert np.allclose(sol.field.u[..., 1], 0.0)

    def test_identity(self):
        sol = sqrt_field(identity_field(Grid(8, 8)))
        assert np.all(sol.field.u == 0.0)

    def test_square_root_law(self):
        cfg = SolverConfig()
        for seed in range(5):
            _, phi = suite_field(seed)
            sol = sqrt_field(phi, cfg)
            assert sol.residual <= 1e-3
            assert field_rms_diff(self_compose_m(sol.field, 2), phi) <= 10 * cfg.tolerance

    def test_folded_input_warns(self):
        g = Grid(8, 8)
        u = np.zeros((8, 8, 2))
        u[..., 0] = -2.0 * np.arange(8)[:, None]
        sol = sqrt_field(DisplacementField(g, u), SolverConfig(max_iterations=2000))
        assert sol.warning is not None


class TestRootChain:
    def test_dyadic_translation_chain(self):
        chain = root_chain(constant_field(Grid(16, 16), 8.0, 0.0), 3)
        for expected, root in zip([4.0, 2.0, 1.0], chain.roots):
            assert np.allclose(root.u[..., 0], expected)
            assert np.allclose(root.u[..., 1], 0.0)

    def test_depth_one_is_sqrt(self):
        _, phi = suite_field(6)
        chain = root_chain(phi, 1)
        sol = sqrt_field(phi)
        assert np.array_equal(chain.roots[0].u, sol.field.u)

    def test_per_level_reconstruction(self):
        _, phi = suite_field(12)
        chain = root_chain(phi, 6)
        for n, root in enumerate(chain.roots):
            recon = field_rms_diff(self_compose_m(root, 2 ** (n + 1)), phi)
            assert recon <= 5e-3

    def test_residuals_do_not_blow_up(self):
        _, phi = suite_field(13)
        chain = root_chain(phi, 6)
        assert all(np.isfinite(r) for r in chain.residuals)
        floor = 1e-9  # below this, ratios are dominated by rounding noise
        for prev, cur in zip(chain.residuals, chain.residuals[1:]):
            assert cur <= 10 * max(prev, floor)

    def test_bad_depth(self):
        with pytest.raises(DomainError):
            root_chain(identity_field(Grid(4, 4)), 0)


class TestLogExp:
    def test_log_of_identity_is_zero(self):
        lf = log_field(identity_field(Grid(8, 8)), 4)
        assert np.allclose(lf.v, 0.0)

    def test_translation_log_is_itself(self):
        f = constant_field(Grid(16, 16), 1.5, -0.5)
        for depth in (1, 4, 6):
            assert np.allclose(log_field(f, depth).v, f.u)

    def test_exp_of_zero_is_identity(self):
        g = Grid(8, 8)
        f = exp_field(LogField(g, np.zeros((8, 8, 2))), 6)
        assert np.all(f.u == 0.0)

    def test_exp_of_translation(self):
        g = Grid(16, 16)
        v = np.zeros((16, 16, 2))
        v[..., 0] = 1.0
        v[..., 1] = 2.0
        f = exp_field(LogField(g, v), 5)
        assert np.allclose(f.u, v)

    def test_roundtrip(self):
        for seed in range(5):
            _, phi = suite_field(seed)
            back = exp_field(log_field(phi, 6), 6)
            assert field_rms_diff(back, phi) <= 1e-2

    def test_one_parameter_property(self):
        v, _ = suite_field(21)
        half = LogField(v.grid, v.v / 2.0)
        lhs = compose(exp_field(half, 6), exp_field(half, 6))
        rhs = exp_field(v, 6)
        assert field_rms_diff(lhs, rhs) <= 5e-3

    def test_negation_matches_inversion(self):
        for seed in range(5):
            _, phi = suite_field(seed)
            lf = log_field(phi, 6)
            neg = exp_field(LogField(phi.grid, -lf.v), 6)
            inv = invert(phi).field
            assert field_rms_diff(neg, inv) <= 2e-2


class TestNonConvergence:
    """One iteration cannot meet the tolerance on a suite field: each solver
    raises ConvergenceError with the achieved residual and its budget."""

    @pytest.mark.parametrize(
        "solve, name",
        [
            (invert, "inversion"),
            (sqrt_field, "square root"),
            (lambda phi, cfg: root_chain(phi, 3, cfg), "root chain failed at level 0: square root"),
        ],
    )
    def test_error_carries_residual_and_budget(self, solve, name):
        _, phi = suite_field(0)
        cfg = SolverConfig(max_iterations=1)
        with pytest.raises(ConvergenceError) as info:
            solve(phi, cfg)
        err = info.value
        assert str(err).startswith(f"{name} did not converge in 1 iterations")
        assert err.iterations == cfg.max_iterations
        assert np.isfinite(err.residual) and err.residual > 0
        assert f"(residual {err.residual:.3e} px)" in str(err)
