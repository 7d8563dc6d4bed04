import numpy as np
import pytest

from diffeo2d import (
    Grid,
    LabelImage,
    LossWeights,
    RootChain,
    SolverConfig,
    dice,
    dice_report,
    identity_field,
    inv_loss,
    invert,
    latent_inv_loss,
    rec_loss,
    root_chain,
    secondary_loss,
)
from diffeo2d.errors import DomainError, ShapeError

from conftest import GRID64, constant_field, suite_field


def translation_chain(grid, steps):
    """RootChain of constant translations (dr, dc) per level."""
    chain = RootChain()
    for dr, dc in steps:
        chain.roots.append(constant_field(grid, dr, dc))
        chain.residuals.append(0.0)
    return chain


class TestRecLoss:
    def test_exact_translation_chain(self):
        g = Grid(16, 16)
        phi = constant_field(g, 8.0, 0.0)
        chain = translation_chain(g, [(4.0, 0.0), (2.0, 0.0), (1.0, 0.0)])
        assert rec_loss(chain, phi, chain, phi) <= 1e-12

    def test_single_level_definition(self):
        from diffeo2d import field_rms_diff, self_compose_m

        _, phi = suite_field(0)
        chain = root_chain(phi, 1)
        expected = 2 * field_rms_diff(self_compose_m(chain.roots[0], 2), phi) ** 2
        assert rec_loss(chain, phi, chain, phi) == pytest.approx(expected)

    def test_suite_bound(self):
        _, phi = suite_field(1)
        inv = invert(phi).field
        ca = root_chain(phi, 6)
        cb = root_chain(inv, 6)
        assert rec_loss(ca, phi, cb, inv) <= 1e-4


class TestInvLoss:
    def test_mutually_inverse_translations(self):
        g = Grid(16, 16)
        ca = translation_chain(g, [(2.0, 0.0), (1.0, 0.0)])
        cb = translation_chain(g, [(-2.0, 0.0), (-1.0, 0.0)])
        assert inv_loss(ca, cb) == pytest.approx(0.0)

    def test_translation_against_identity(self):
        g = Grid(16, 16)
        ca = translation_chain(g, [(4.0, 0.0), (2.0, 0.0), (1.0, 0.0)])
        cb = translation_chain(g, [(0.0, 0.0)] * 3)
        assert inv_loss(ca, cb) == pytest.approx(21.0)

    def test_suite_bound(self):
        _, phi = suite_field(2)
        inv = invert(phi).field
        assert inv_loss(root_chain(phi, 6), root_chain(inv, 6)) <= 1e-4

    def test_depth_mismatch(self):
        g = Grid(16, 16)
        ca = translation_chain(g, [(1.0, 0.0)])
        cb = translation_chain(g, [(1.0, 0.0), (0.5, 0.0)])
        with pytest.raises(ShapeError):
            inv_loss(ca, cb)

    def test_tolerance_convergence(self):
        # inv_loss settles at a resampling floor as the solver tolerance
        # tightens; the solver-attributable part (distance from the
        # tightest-tolerance value) must shrink monotonically.
        _, phi = suite_field(3)
        values = []
        for tol in (1e-3, 1e-5, 1e-7):
            cfg = SolverConfig(tolerance=tol, max_iterations=500)
            inv = invert(phi, cfg).field
            values.append(inv_loss(root_chain(phi, 3, cfg), root_chain(inv, 3, cfg)))
        limit = values[-1]
        assert abs(values[0] - limit) >= abs(values[1] - limit)


class TestLatentInvLoss:
    def test_perfect_antialignment(self):
        z = np.array([1.0, -2.0, 0.5])
        assert latent_inv_loss(z, -z) == pytest.approx(0.0)

    def test_aligned_codes(self):
        z = np.array([0.6, 0.8])
        assert latent_inv_loss(z, z) == pytest.approx(1.0 + 4 * np.dot(z, z))

    def test_zero_pair_is_perfect(self):
        z = np.zeros(4)
        assert latent_inv_loss(z, z) == pytest.approx(0.0)

    def test_one_zero_code_has_cosine_zero(self):
        # No angle to a zero code: cos := 0, so the loss is 1/2 + ||z||^2.
        z = np.array([0.6, -0.8, 2.0])
        for za, zb in ((z, np.zeros(3)), (np.zeros(3), z)):
            assert latent_inv_loss(za, zb) == 0.5 + float(np.dot(z, z))

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            za = rng.standard_normal(5)
            zb = rng.standard_normal(5)
            assert latent_inv_loss(za, zb) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            latent_inv_loss(np.zeros(2), np.zeros(3))


class TestSecondaryLoss:
    def test_zero(self):
        assert secondary_loss(LossWeights(), 0.0, 0.0, 0.0) == 0.0

    def test_unit_weights(self):
        assert secondary_loss(LossWeights(1, 1, 1), 1.0, 2.0, 3.0) == pytest.approx(6.0)

    def test_zeroing_one_weight(self):
        full = secondary_loss(LossWeights(1, 1, 1), 1.0, 2.0, 3.0)
        no_linv = secondary_loss(LossWeights(1, 1, 0), 1.0, 2.0, 3.0)
        assert full - no_linv == pytest.approx(3.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            secondary_loss(LossWeights(-1, 1, 1), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("name", ["alpha_rec", "alpha_inv", "alpha_linv"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, name, bad):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            LossWeights(**{name: bad})


def square_labels(grid, r0, c0, size, label=1):
    arr = np.zeros(grid.shape, dtype=np.int64)
    arr[r0 : r0 + size, c0 : c0 + size] = label
    return LabelImage(grid, arr)


class TestDice:
    G5 = Grid(5, 5)

    def test_identical(self):
        a = square_labels(self.G5, 1, 1, 2)
        assert dice(a, a, 1) == 1.0

    def test_disjoint(self):
        a = square_labels(self.G5, 0, 0, 2)
        b = square_labels(self.G5, 3, 3, 2)
        assert dice(a, b, 1) == 0.0

    def test_half_overlap_square(self):
        # Two 4-pixel squares overlapping in 2 pixels: 2*2/(4+4) = 0.5.
        a = square_labels(self.G5, 1, 1, 2)
        b = square_labels(self.G5, 2, 1, 2)
        assert dice(a, b, 1) == pytest.approx(0.5)

    def test_both_empty_convention(self):
        a = square_labels(self.G5, 0, 0, 1, label=2)
        assert dice(a, a, 7) == 1.0

    def test_symmetric_and_bounded(self):
        a = square_labels(self.G5, 0, 0, 3)
        b = square_labels(self.G5, 1, 1, 3)
        d1, d2 = dice(a, b, 1), dice(b, a, 1)
        assert d1 == d2
        assert 0.0 <= d1 <= 1.0

    def test_grid_mismatch(self):
        a = square_labels(self.G5, 0, 0, 2)
        b = square_labels(Grid(4, 4), 0, 0, 2)
        with pytest.raises(ShapeError):
            dice(a, b, 1)


class TestDiceReport:
    def test_identical(self):
        g = Grid(8, 8)
        arr = np.zeros((8, 8), dtype=np.int64)
        arr[:4, :4] = 1
        arr[4:, 4:] = 2
        labs = LabelImage(g, arr)
        per_label, mean = dice_report(labs, labs)
        assert per_label == {1: 1.0, 2: 1.0}
        assert mean == 1.0

    def test_grid_mismatch(self):
        a = LabelImage(Grid(8, 8), np.zeros((8, 8), dtype=np.int64))
        b = LabelImage(Grid(8, 6), np.zeros((8, 6), dtype=np.int64))
        with pytest.raises(ShapeError) as info:
            dice_report(a, b)
        assert str(info.value) == (
            "grid mismatch: Grid(height=8, width=8) vs Grid(height=8, width=6)")

    def test_half_matched(self):
        g = Grid(8, 8)
        a = np.zeros((8, 8), dtype=np.int64)
        b = np.zeros((8, 8), dtype=np.int64)
        a[:4, :4] = 1
        b[:4, :4] = 1  # label 1 matches exactly
        a[6:, :2] = 2
        b[6:, 6:] = 2  # label 2 disjoint
        per_label, mean = dice_report(LabelImage(g, a), LabelImage(g, b))
        assert per_label[1] == 1.0
        assert per_label[2] == 0.0
        assert mean == pytest.approx(0.5)

    def test_background_excluded(self):
        g = Grid(8, 8)
        a = np.zeros((8, 8), dtype=np.int64)
        a[0, 0] = 3
        per_label, _ = dice_report(LabelImage(g, a), LabelImage(g, a))
        assert set(per_label) == {3}
