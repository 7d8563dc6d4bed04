import multiprocessing
import threading
import time

import numpy as np
import pytest

from diffeo2d import (
    DisplacementField,
    Grid,
    LogField,
    RandomFieldSpec,
    RootChain,
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
from diffeo2d import fields as fields_module
from diffeo2d.errors import ConvergenceError, DomainError, ShapeError
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
        step = np.empty_like(gap)
        _newton_step(gap, d_row, d_col, 0.5, step)
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

    def test_records_each_level_of_sqrt_field(self):
        _, phi = suite_field(6)
        chain = root_chain(phi, 3)
        current = phi
        for root, residual, iterations in zip(chain.roots, chain.residuals, chain.iterations):
            sol = sqrt_field(current)
            assert np.array_equal(root.u, sol.field.u)
            assert (residual, iterations) == (sol.residual, sol.iterations)
            current = sol.field
        assert len(chain.iterations) == chain.depth == 3

    def test_log_is_scaled_last_root(self):
        _, phi = suite_field(7)
        chain = root_chain(phi, 4)
        lf = chain.log()
        assert np.array_equal(lf.v, 16.0 * chain.roots[-1].u)
        assert np.array_equal(lf.v, log_field(phi, 4).v)

    def test_empty_chain_has_no_log(self):
        with pytest.raises(DomainError):
            RootChain().log()

    def test_reconstruction_rms_per_level(self):
        _, phi = suite_field(8)
        chain = root_chain(phi, 3)
        expected = [field_rms_diff(self_compose_m(root, 2 ** (n + 1)), phi)
                    for n, root in enumerate(chain.roots)]
        assert chain.reconstruction_rms(phi) == expected
        with pytest.raises(ShapeError):
            chain.reconstruction_rms(identity_field(Grid(8, 8)))


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


@pytest.mark.parametrize("name", ["tolerance", "damping", "max_iterations"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solver_config_rejects_non_finite(name, bad):
    # An infinite tolerance would stop sqrt_field after one iteration and
    # report convergence; NaN slips past every range check.
    with pytest.raises(DomainError, match=name):
        SolverConfig(**{name: bad})


@pytest.mark.parametrize("bad", [2.5, np.float64(2.0)])
def test_solver_config_rejects_non_integer(bad):
    with pytest.raises(DomainError, match="max_iterations"):
        SolverConfig(max_iterations=bad)
    assert SolverConfig(max_iterations=np.int32(2)).max_iterations == 2


@pytest.mark.parametrize("bad", [2.5, np.inf, np.float64(2.0)])
@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(root_chain, "root chain depth", id="root_chain"),
        pytest.param(log_field, "root chain depth", id="log_field"),
        pytest.param(lambda phi, n: exp_field(LogField(phi.grid, phi.u), n), "exp depth",
                     id="exp_field"),
        pytest.param(self_compose_m, "m", id="self_compose_m"),
    ],
)
def test_depth_and_power_reject_non_integers(call, name, bad):
    # A range check alone passes a float depth or power on to range() or to
    # m & (m - 1), which raise TypeError.
    phi = constant_field(Grid(8, 8), 0.5, 0.0)
    with pytest.raises(DomainError, match=f"^{name} must be an integer"):
        call(phi, bad)
    call(phi, np.int64(2))


@pytest.mark.parametrize(
    "call, bad, message",
    [
        pytest.param(root_chain, 0, "root chain depth must be >= 1, got 0", id="root_chain"),
        pytest.param(lambda phi, n: exp_field(LogField(phi.grid, phi.u), n), -1,
                     "exp depth must be >= 1, got -1", id="exp_field"),
        pytest.param(self_compose_m, 6, "m must be a positive power of two, got 6",
                     id="self_compose_m"),
    ],
)
def test_depth_and_power_range_messages(call, bad, message):
    phi = constant_field(Grid(8, 8), 0.5, 0.0)
    with pytest.raises(DomainError) as info:
        call(phi, bad)
    assert str(info.value) == message


def banded(monkeypatch, bands):
    """Give every DisplacedGrid made from here on ``bands`` row bands, on
    any grid of at least that many rows."""
    monkeypatch.setattr(fields_module, "_BAND_PIXELS", 1)
    monkeypatch.setattr(fields_module, "_usable_cpus", lambda: bands)


def solve_or_error(solve):
    """The solve's result, or its error's type, message and numbers."""
    try:
        return solve()
    except (ConvergenceError, DomainError) as err:
        return type(err), str(err), getattr(err, "residual", None), getattr(err, "iterations", None)


def huge_field(grid):
    # Overflows to inf within a few iterations of either solver, which then
    # rejects the non-finite sample points.
    u = np.random.default_rng(0).uniform(-1.0, 1.0, grid.shape + (2,)) * 1.5e308
    return DisplacementField(grid, u)


class TestBands:
    def test_threads_are_joined_after_every_solve(self, monkeypatch):
        banded(monkeypatch, 2)
        seen = []
        place = fields_module._Band.stencil

        def counted(band, w):
            seen.append(threading.active_count())
            return place(band, w)

        monkeypatch.setattr(fields_module._Band, "stencil", counted)
        _, phi = suite_field(0)
        one_iteration = SolverConfig(max_iterations=1)
        solves = [
            lambda: sqrt_field(phi),
            lambda: log_field(phi, 2),
            lambda: invert(phi),
            lambda: sqrt_field(phi, one_iteration),
            lambda: log_field(phi, 2, one_iteration),
            lambda: invert(phi, one_iteration),
            lambda: sqrt_field(huge_field(phi.grid)),
            lambda: invert(huge_field(phi.grid)),
        ]
        before = threading.active_count()
        for solve in solves:
            seen.clear()
            with np.errstate(all="ignore"):
                solve_or_error(solve)
            assert max(seen) == before + 1  # one pool thread for band 1
            assert threading.active_count() == before

    def test_the_lowest_failing_band_raises_once_every_band_is_done(self, monkeypatch):
        banded(monkeypatch, 3)
        done = []

        def task(band, failing, slow):
            if band.rows.start == slow:
                time.sleep(0.05)
            done.append(band.rows.start)
            if band.rows.start in failing:
                raise ConvergenceError(f"band at row {band.rows.start}")

        with fields_module.DisplacedGrid(Grid(9, 4)) as displaced:
            for failing, slow, raised in (({0, 3, 6}, 6, 0), ({3, 6}, 3, 3), ({6}, 0, 6)):
                done.clear()
                with pytest.raises(ConvergenceError, match=f"band at row {raised}$"):
                    displaced.run(task, failing, slow)
                assert sorted(done) == [0, 3, 6]

    def test_one_band_starts_no_pool(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a solve on one band started a pool")

        monkeypatch.setattr(fields_module, "ThreadPoolExecutor", no_pool)
        # One usable CPU at 160^2, or two CPUs below the band size.
        _, small = suite_field(0)
        _, big = suite_field(0, grid=Grid(160, 160))
        for cpus, field in ((1, big), (2, small)):
            monkeypatch.setattr(fields_module, "_usable_cpus", lambda cpus=cpus: cpus)
            assert band_count(field.grid.shape) == 1
            sqrt_field(field)
            invert(field)
        monkeypatch.setattr(fields_module, "_usable_cpus", lambda: 2)
        assert band_count(big.grid.shape) == 2

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_a_multiprocessing_child_solves_on_one_band(self, monkeypatch):
        monkeypatch.setattr(fields_module, "_usable_cpus", lambda: 2)
        assert band_count((256, 256)) == 2
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(band_count, ((256, 256),)).get(timeout=60) == 1


def band_count(shape):
    return len(fields_module.DisplacedGrid(Grid(*shape)).bands)
