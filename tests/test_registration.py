import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from diffeo2d import (
    DisplacementField,
    Grid,
    RegistrationConfig,
    ScalarImage,
    exp_field,
    field_rms_diff,
    icon_loss,
    identity_field,
    invert,
    neg_jacobian_fraction,
    primary_loss,
    random_log_field,
    register_pair,
    register_pairs,
    sim_loss,
    warp_image,
)
from diffeo2d import RandomFieldSpec, registration
from diffeo2d.fields import compose, field_rms
from diffeo2d.errors import ConvergenceError, DomainError, ShapeError
from diffeo2d.registration import frozen_loss_and_grad, mse

from conftest import GRID64, SUITE_REG_CONFIG, constant_field, suite_field, textured_image


def ground_truth_pair(seed, amplitude=3.0):
    a = textured_image(seed)
    v, phi = suite_field(seed + 100, amplitude=amplitude)
    b = warp_image(a, phi)
    return a, b, phi


def median_epe(recovered, truth):
    d = recovered.u - truth.u
    return float(np.median(np.hypot(d[..., 0], d[..., 1])))


class TestSimLoss:
    def test_identical_zero(self):
        a = textured_image(0)
        ident = identity_field(GRID64)
        assert sim_loss(a, a, ident, ident) == 0.0

    def test_constant_images(self):
        a = ScalarImage(GRID64, np.zeros((64, 64)))
        b = ScalarImage(GRID64, np.ones((64, 64)))
        ident = identity_field(GRID64)
        assert sim_loss(a, b, ident, ident) == pytest.approx(2.0)

    def test_ground_truth_fields_reach_floor(self):
        a, b, phi = ground_truth_pair(1)
        inv = invert(phi).field
        # b samples a along phi, so warping b back onto a needs the inverse.
        assert sim_loss(a, b, inv, phi) <= 1e-3

    def test_grid_mismatch(self):
        a = textured_image(0)
        small = ScalarImage(Grid(32, 32), np.zeros((32, 32)))
        ident = identity_field(GRID64)
        with pytest.raises(ShapeError):
            sim_loss(a, small, ident, ident)


class TestIconLoss:
    def test_identity_zero(self):
        ident = identity_field(GRID64)
        assert icon_loss(ident, ident) == 0.0

    def test_inverse_translations_zero(self):
        f = constant_field(GRID64, 1.0, 0.0)
        g = constant_field(GRID64, -1.0, 0.0)
        assert icon_loss(f, g) == pytest.approx(0.0)

    def test_one_sided_translation(self):
        f = constant_field(GRID64, 1.0, 0.0)
        z = identity_field(GRID64)
        assert icon_loss(f, z) == pytest.approx(2.0)


class TestPrimaryLoss:
    def test_perfect_zero(self):
        a = textured_image(0)
        ident = identity_field(GRID64)
        assert primary_loss(a, a, ident, ident) == 0.0

    def test_zero_sim_weight(self):
        a, b, phi = ground_truth_pair(2)
        inv = invert(phi).field
        cfg = RegistrationConfig(lambda_sim=0.0, lambda_reg=1.0)
        assert primary_loss(a, b, phi, inv, cfg) == pytest.approx(
            icon_loss(phi, inv)
        )

    def test_linearity_in_sim_weight(self):
        a, b, phi = ground_truth_pair(3)
        inv = invert(phi).field
        lam = 0.7
        lp1 = primary_loss(a, b, phi, inv, RegistrationConfig(lambda_sim=lam))
        lp2 = primary_loss(a, b, phi, inv, RegistrationConfig(lambda_sim=2 * lam))
        s = sim_loss(a, b, phi, inv)
        assert lp2 - lp1 == pytest.approx(lam * s)


class TestFrozenGradient:
    def test_matches_central_differences(self):
        # Relative error of the analytic gradient against second-order
        # finite differences of the same frozen-partner objective.
        grid = Grid(8, 8)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = ScalarImage(grid, rng.random((8, 8)))
            b = ScalarImage(grid, rng.random((8, 8)))
            u_var = 0.5 * rng.standard_normal((8, 8, 2))
            u_other = 0.5 * rng.standard_normal((8, 8, 2))
            from diffeo2d.fields import grid_coords, sample_values

            # Freeze the partner's cross-sample at the base point; the
            # analytic gradient is taken with that sample held constant.
            x = grid_coords(grid)
            cross = sample_values(u_other, x + u_var)
            _, grad = frozen_loss_and_grad(a, b, u_var, u_other, 1.0, 1.0, cross)
            h = 1e-6
            fd = np.zeros_like(grad)
            it = np.ndindex(u_var.shape)
            for idx in it:
                up = u_var.copy()
                up[idx] += h
                dn = u_var.copy()
                dn[idx] -= h
                lp, _ = frozen_loss_and_grad(a, b, up, u_other, 1.0, 1.0, cross)
                lm, _ = frozen_loss_and_grad(a, b, dn, u_other, 1.0, 1.0, cross)
                fd[idx] = (lp - lm) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, bad):
        grid = Grid(6, 6)
        a = ScalarImage(grid, np.zeros((6, 6)))
        finite = np.zeros((6, 6, 2))
        broken = finite.copy()
        broken[2, 3, 1] = bad
        for u_var, u_other in ((broken, finite), (finite, broken)):
            with pytest.raises(DomainError):
                frozen_loss_and_grad(a, a, u_var, u_other, 1.0, 1.0)


    @pytest.mark.parametrize("name, shape", [
        ("u_var", (31, 32, 2)), ("u_other", (32, 32)), ("cross", (32, 32, 3)),
    ])
    def test_field_shapes_are_checked(self, name, shape):
        # Each field is checked against the images' grid, as every other
        # entry point checks its fields: an (H, W) partner is not broadcast.
        grid = Grid(32, 32)
        a = ScalarImage(grid, np.zeros((32, 32)))
        args = {"u_var": np.zeros((32, 32, 2)), "u_other": np.zeros((32, 32, 2)),
                "cross": np.zeros((32, 32, 2)), name: np.zeros(shape)}
        with pytest.raises(ShapeError, match=rf"^{name} shape \({shape[0]}, "):
            frozen_loss_and_grad(a, a, args["u_var"], args["u_other"], 1.0, 1.0, args["cross"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cross_rejected(self, bad):
        grid = Grid(6, 6)
        a = ScalarImage(grid, np.zeros((6, 6)))
        cross = np.zeros((6, 6, 2))
        cross[1, 4, 0] = bad
        with pytest.raises(DomainError, match="^cross contains non-finite values$"):
            frozen_loss_and_grad(a, a, np.zeros((6, 6, 2)), np.zeros((6, 6, 2)), 1.0, 1.0, cross)

    @pytest.mark.parametrize("name", ["lambda_sim", "lambda_reg"])
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "must be finite, got nan"),
        (np.inf, "must be finite, got inf"),
        (-1.0, "must be >= 0, got -1.0"),
    ])
    def test_weights_are_checked(self, name, bad, message):
        # The weights RegistrationConfig rejects: a NaN or infinite one
        # would give a NaN or infinite loss.
        a = ScalarImage(Grid(6, 6), np.zeros((6, 6)))
        weights = {"lambda_sim": 1.0, "lambda_reg": 1.0, name: bad}
        with pytest.raises(DomainError) as info:
            frozen_loss_and_grad(a, a, np.zeros((6, 6, 2)), np.zeros((6, 6, 2)), **weights)
        assert str(info.value) == f"{name} {message}"

    def test_loss_is_primary_loss_bit_for_bit(self):
        # With the partner's sample computed here, the frozen objective at
        # the base point is primary_loss, summed in the same order.
        grid = Grid(20, 18)
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = (ScalarImage(grid, rng.random((20, 18))) for _ in range(2))
            u_ab, u_ba = rng.normal(size=(2, 20, 18, 2))
            lambda_sim, lambda_reg = rng.uniform(0.1, 2.0, 2)
            cfg = RegistrationConfig(lambda_sim=lambda_sim, lambda_reg=lambda_reg)
            loss, _ = frozen_loss_and_grad(a, b, u_ab, u_ba, lambda_sim, lambda_reg)
            expected = primary_loss(
                a, b, DisplacementField(grid, u_ab), DisplacementField(grid, u_ba), cfg
            )
            assert loss == expected


class TestRegisterPair:
    def test_self_registration_near_identity(self):
        a = textured_image(4)
        res = register_pair(a, a, SUITE_REG_CONFIG)
        ident = identity_field(GRID64)
        assert field_rms_diff(res.phi_ab, ident) <= 0.05
        assert field_rms_diff(res.phi_ba, ident) <= 0.05

    def test_ground_truth_recovery(self):
        # The defaults are the suite settings, and they recover the pair
        # rather than diverge.
        assert RegistrationConfig() == SUITE_REG_CONFIG
        a, b, phi = ground_truth_pair(5)
        res = register_pair(a, b)
        # phi_ab pulls b back onto a, so its ground truth is the inverse of
        # the generating field; phi_ba matches the field itself.
        assert median_epe(res.phi_ab, invert(phi).field) <= 0.5
        assert median_epe(res.phi_ba, phi) <= 0.5
        assert res.final_inverse_consistency <= 0.1
        assert neg_jacobian_fraction(res.phi_ab) == 0.0
        assert neg_jacobian_fraction(res.phi_ba) == 0.0

    def test_swap_symmetry(self):
        a, b, _ = ground_truth_pair(6)
        fwd = register_pair(a, b, SUITE_REG_CONFIG)
        rev = register_pair(b, a, SUITE_REG_CONFIG)
        assert field_rms_diff(fwd.phi_ab, rev.phi_ba) <= 0.2
        assert field_rms_diff(fwd.phi_ba, rev.phi_ab) <= 0.2

    def test_final_level_descends(self):
        a, b, _ = ground_truth_pair(7)
        res = register_pair(a, b, SUITE_REG_CONFIG)
        # Iteration numbers run on across levels, one history row per
        # iteration; the final level is the last iterations_per_level rows.
        iters = [row[0] for row in res.loss_history]
        assert iters == list(range(len(iters)))
        final = [row[3] for row in res.loss_history[-SUITE_REG_CONFIG.iterations_per_level:]]
        assert final[-1] <= final[0]

    def test_history_ends_at_returned_fields(self):
        # The last history row equals the loss functions re-evaluated on the
        # returned fields, bit for bit.
        a, b, _ = ground_truth_pair(9)
        cfg = replace(SUITE_REG_CONFIG, iterations_per_level=20, lambda_sim=0.7)
        res = register_pair(a, b, cfg)
        assert len(res.loss_history) == cfg.pyramid_levels * cfg.iterations_per_level
        expected = (
            sim_loss(a, b, res.phi_ab, res.phi_ba),
            icon_loss(res.phi_ab, res.phi_ba),
            primary_loss(a, b, res.phi_ab, res.phi_ba, cfg),
        )
        assert res.loss_history[-1][1:] == expected

    def test_divergence_is_convergence_error(self):
        # A step that overflows the fields is divergence (exit 3 in the
        # CLI), not a domain error in the inputs.
        a, b, _ = ground_truth_pair(10)
        cfg = RegistrationConfig(step_size=1e300, iterations_per_level=5)
        with pytest.raises(ConvergenceError) as info:
            register_pair(a, b, cfg)
        assert info.value.iterations == 0

    def test_huge_finite_field_is_divergence(self):
        # These settings blow the fields up to ~1e129 px while they stay
        # finite; a displacement longer than the grid diagonal is divergence.
        a, b, _ = ground_truth_pair(5)
        cfg = RegistrationConfig(
            step_size=1.0, lambda_sim=0.7, lambda_reg=1.3, pyramid_levels=2,
            iterations_per_level=20, update_smoothing_sigma=1.5,
            field_smoothing_sigma=0.5,
        )
        with pytest.raises(ConvergenceError) as info:
            register_pair(a, b, cfg)
        assert info.value.residual > np.hypot(31, 31)
        assert info.value.iterations < cfg.iterations_per_level
        assert info.value.index == 0

    def test_icon_weight_improves_consistency(self):
        a, b, _ = ground_truth_pair(8)
        cfg_on = SUITE_REG_CONFIG
        cfg_off = replace(SUITE_REG_CONFIG, lambda_reg=0.0)
        on = register_pair(a, b, cfg_on)
        off = register_pair(a, b, cfg_off)
        assert icon_loss(on.phi_ab, on.phi_ba) <= icon_loss(off.phi_ab, off.phi_ba)

    def test_grid_mismatch(self):
        a = textured_image(0)
        small = ScalarImage(Grid(32, 32), np.zeros((32, 32)))
        with pytest.raises(ShapeError):
            register_pair(a, small, SUITE_REG_CONFIG)


class TestRegisterPairs:
    def test_batch_equals_single_pairs(self):
        # Pairs share the loop, not values: each result is bit for bit the
        # one its pair gives alone.
        grid = Grid(24, 20)
        cfg = replace(SUITE_REG_CONFIG, iterations_per_level=25, field_smoothing_sigma=0.5)
        fixed, moving = [], []
        for seed in range(3):
            a = textured_image(30 + seed, grid)
            _, phi = suite_field(130 + seed, amplitude=2.0, grid=grid)
            fixed.append(a)
            moving.append(warp_image(a, phi))
        batch = register_pairs(fixed, moving, cfg)
        assert len(batch) == 3
        for a, b, res in zip(fixed, moving, batch):
            one = register_pair(a, b, cfg)
            assert np.array_equal(res.phi_ab.u, one.phi_ab.u)
            assert np.array_equal(res.phi_ba.u, one.phi_ba.u)
            assert res.loss_history == one.loss_history
            assert res.final_inverse_consistency == one.final_inverse_consistency

    @pytest.mark.parametrize("n_pairs", [1, 3, 8])
    def test_final_inverse_consistency_is_the_compositions_rms(self, n_pairs, monkeypatch):
        # The loop's last consistency residuals are the displacements of
        # both compositions of the final fields, so the result needs no
        # compose of its own and carries the bits of the two composes.
        grid = Grid(24, 20)
        cfg = replace(SUITE_REG_CONFIG, pyramid_levels=2, iterations_per_level=15)
        fixed = [textured_image(40 + k, grid) for k in range(n_pairs)]
        moving = [warp_image(a, suite_field(140 + k, amplitude=2.0, grid=grid)[1])
                  for k, a in enumerate(fixed)]
        calls = []
        monkeypatch.setattr(registration, "compose", lambda *f: calls.append(f))
        results = register_pairs(fixed, moving, cfg)
        assert calls == []
        monkeypatch.undo()
        for res in results:
            expected = max(field_rms(compose(res.phi_ab, res.phi_ba)),
                           field_rms(compose(res.phi_ba, res.phi_ab)))
            assert res.final_inverse_consistency == expected

    def test_matches_reference_descent_loop(self):
        # register_pairs is plain alternating descent: u_AB steps on the
        # frozen-partner gradient, smoothed by gaussian_filter, then u_BA
        # does the same against the new u_AB. A loop written that way from
        # the public gradient gives the same fields bit for bit, so a change
        # to the loop's order, stencils, step or smoother that moves a bit
        # fails here (the gradient arithmetic is shared with the reference;
        # the finite-difference test above checks it). The pixel count and
        # the weights are not powers of two, because a rearranged product
        # with those is exact and would pass.
        grid = Grid(16, 15)
        cfg = replace(
            SUITE_REG_CONFIG, pyramid_levels=1, iterations_per_level=3,
            lambda_sim=0.7, lambda_reg=1.3,
        )
        sigma = (cfg.update_smoothing_sigma, cfg.update_smoothing_sigma, 0.0)
        step = cfg.step_size * grid.n_pixels
        fixed, moving = [], []
        for seed in range(2):
            a = textured_image(40 + seed, grid)
            _, phi = suite_field(140 + seed, amplitude=1.5, grid=grid)
            fixed.append(a)
            moving.append(warp_image(a, phi))
        batch = register_pairs(fixed, moving, cfg)
        for a, b, res in zip(fixed, moving, batch):
            u_ab = np.zeros(grid.shape + (2,))
            u_ba = np.zeros_like(u_ab)
            for it in range(cfg.iterations_per_level):
                _, grad = frozen_loss_and_grad(
                    a, b, u_ab, u_ba, cfg.lambda_sim, cfg.lambda_reg
                )
                u_ab = u_ab - step * gaussian_filter(grad, sigma, mode="nearest")
                _, grad = frozen_loss_and_grad(
                    b, a, u_ba, u_ab, cfg.lambda_sim, cfg.lambda_reg
                )
                u_ba = u_ba - step * gaussian_filter(grad, sigma, mode="nearest")
                loss = primary_loss(
                    a, b, DisplacementField(grid, u_ab), DisplacementField(grid, u_ba), cfg
                )
                assert res.loss_history[it][0] == it
                assert res.loss_history[it][3] == pytest.approx(loss, rel=1e-12, abs=1e-12)
            assert np.array_equal(res.phi_ab.u, u_ab)
            assert np.array_equal(res.phi_ba.u, u_ba)

    def test_diverging_pair_is_named(self):
        # A pair of constant images has zero gradient and never moves; the
        # other pair diverges at the first step.
        flat = ScalarImage(GRID64, np.full((64, 64), 0.5))
        a, b, _ = ground_truth_pair(11)
        cfg = RegistrationConfig(step_size=1e300, iterations_per_level=5)
        with pytest.raises(ConvergenceError) as info:
            register_pairs([flat, a], [flat, b], cfg)
        assert info.value.index == 1
        assert info.value.iterations == 0

    @pytest.mark.parametrize(
        "grid,levels,iterations,batch,message,index,iteration,residual",
        [
            # Two unrelated 16^2 textures at the default step diverge in the
            # middle of their one level.
            (Grid(16, 16), 1, 300, False,
             "registration diverged at iteration 30 (level 0): a displacement "
             "of 106.7 px exceeds the grid diagonal (21.21 px)",
             0, 30, 106.68773057908287),
            # Behind a pair that registers an image to itself, the second pair
            # diverges on the fine level of a non-square pyramid.
            (Grid(32, 24), 2, 30, True,
             "registration diverged at iteration 54 (level 1): a displacement "
             "of 263.5 px exceeds the grid diagonal (38.6 px)",
             1, 54, 263.4666934017262),
        ],
    )
    def test_divergence_report_is_pinned(
        self, grid, levels, iterations, batch, message, index, iteration, residual
    ):
        # The pair, iteration, level and residual of a divergence are part of
        # the result; these values are the loop's before its workspace was
        # restructured, and a faster loop must report the same.
        a, b = textured_image(1, grid), textured_image(2, grid)
        fixed, moving = ([a, a], [a, b]) if batch else ([a], [b])
        cfg = RegistrationConfig(pyramid_levels=levels, iterations_per_level=iterations)
        with pytest.raises(ConvergenceError) as info:
            register_pairs(fixed, moving, cfg)
        assert str(info.value) == message
        assert info.value.index == index
        assert info.value.iterations == iteration
        assert info.value.residual == residual

    def test_non_finite_loss_is_divergence(self):
        # Images of 0 and 1e155 keep every displacement short, but their
        # squared difference, 1e310, overflows: pair 1 diverges on its first
        # loss, behind a pair that registers an image to itself.
        grid = Grid(16, 16)
        a = textured_image(1, grid)
        zero, huge = (ScalarImage(grid, np.full((16, 16), v)) for v in (0.0, 1e155))
        cfg = RegistrationConfig(pyramid_levels=1, iterations_per_level=5)
        with pytest.raises(ConvergenceError) as info:
            register_pairs([a, zero], [a, huge], cfg)
        assert str(info.value) == (
            "registration diverged at iteration 0 (level 0): non-finite loss")
        assert info.value.index == 1
        assert info.value.iterations == 0
        assert info.value.residual == np.inf

    def test_pyramid_stops_below_eight_pixels(self):
        # 12x12 halves once, to 6x6, which is below 8 px and not halved
        # again: 3 levels asked, 2 run, one history row per iteration.
        grid = Grid(12, 12)
        cfg = replace(SUITE_REG_CONFIG, pyramid_levels=3, iterations_per_level=4)
        (res,) = register_pairs([textured_image(1, grid)], [textured_image(2, grid)], cfg)
        assert len(res.loss_history) == 2 * cfg.iterations_per_level
        assert [row[0] for row in res.loss_history] == list(range(8))

    def test_rejects_mismatched_inputs(self):
        a = textured_image(0)
        small = ScalarImage(Grid(32, 32), np.zeros((32, 32)))
        with pytest.raises(DomainError):
            register_pairs([], [])
        with pytest.raises(DomainError):
            register_pairs([a, a], [a])
        with pytest.raises(ShapeError):
            register_pairs([a, small], [a, small])


@pytest.mark.parametrize(
    "name",
    ["lambda_sim", "lambda_reg", "step_size", "update_smoothing_sigma", "field_smoothing_sigma",
     "pyramid_levels", "iterations_per_level"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite(name, bad):
    # Range checks let NaN through (it compares false) and inf past a lower
    # bound; either would surface later as a smoother's ValueError or
    # OverflowError, or as divergence, instead of a domain error.
    with pytest.raises(DomainError, match=name):
        RegistrationConfig(**{name: bad})


# A case's id names the rule it breaks, where its message names the value.
@pytest.mark.parametrize("kwargs, message", [
    pytest.param({"lambda_sim": -1.0}, "lambda_sim must be >= 0, got -1.0",
                 id="kwargs0-loss weights must be >= 0"),
    pytest.param({"lambda_reg": -1e-9}, "lambda_reg must be >= 0, got -1e-09",
                 id="kwargs1-loss weights must be >= 0"),
    ({"pyramid_levels": 0}, "pyramid_levels must be >= 1, got 0"),
    ({"iterations_per_level": -3}, "iterations_per_level must be >= 1, got -3"),
    pytest.param({"step_size": 0.0}, "step_size must be > 0, got 0.0",
                 id="kwargs4-step_size must be > 0"),
    pytest.param({"update_smoothing_sigma": -0.5}, "update_smoothing_sigma must be >= 0, got -0.5",
                 id="kwargs5-smoothing sigmas must be >= 0"),
    pytest.param({"field_smoothing_sigma": -0.5}, "field_smoothing_sigma must be >= 0, got -0.5",
                 id="kwargs6-smoothing sigmas must be >= 0"),
])
def test_config_range_checks(kwargs, message):
    with pytest.raises(DomainError) as info:
        RegistrationConfig(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["pyramid_levels", "iterations_per_level"])
@pytest.mark.parametrize("bad", [2.5, np.float64(2.0)])
def test_config_rejects_non_integer(name, bad):
    # 2.5 passes the range check and would fail later in range().
    with pytest.raises(DomainError, match=name):
        RegistrationConfig(**{name: bad})
    assert getattr(RegistrationConfig(**{name: np.int64(2)}), name) == 2


def _peak_planes(fixed, moving, cfg):
    """Peak traced memory of one register_pairs call, in float64 planes of
    the batch's N*H*W size."""
    register_pairs(fixed, moving, cfg)  # caches (the smoothing kernel) warm
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        register_pairs(fixed, moving, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * len(fixed) * fixed[0].grid.n_pixels)


def test_peak_memory_budget():
    # The loop's live set, in N*H*W float64 planes, at N = 8 on 32^2 with
    # three pyramid levels: 47.99 planes before the loop ran in one
    # per-level workspace (two stencils built fresh each iteration and
    # fresh temporaries in every step), 42.5 since. Nothing may take the
    # peak above the former.
    grid = Grid(32, 32)
    fixed = [textured_image(50 + k, grid) for k in range(8)]
    moving = [textured_image(60 + k, grid) for k in range(8)]
    cfg = replace(SUITE_REG_CONFIG, iterations_per_level=3)
    assert _peak_planes(fixed, moving, cfg) <= 47.99


def test_mse_basic():
    a = ScalarImage(GRID64, np.zeros((64, 64)))
    b = ScalarImage(GRID64, np.full((64, 64), 0.5))
    assert mse(a, b) == pytest.approx(0.25)
