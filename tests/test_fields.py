import numpy as np
import pytest

from diffeo2d import (
    DisplacementField,
    Grid,
    LabelImage,
    LogField,
    ScalarImage,
    compose,
    field_rms_diff,
    identity_field,
    invert,
    jacobian_determinant,
    make_phantom,
    neg_jacobian_fraction,
    PhantomSpec,
    sample_field,
    self_compose_m,
    warp_image,
    warp_labels,
)
from diffeo2d.errors import DomainError, ShapeError
from diffeo2d.fields import field_rms, sample_values, sample_values_grad, splat_values

from conftest import constant_field, suite_field, textured_image


def brute_force_compose(outer, inner):
    """Independent per-pixel oracle for composition."""
    h, w = inner.grid.shape
    out = np.zeros((h, w, 2))
    for i in range(h):
        for j in range(w):
            p = (i + inner.u[i, j, 0], j + inner.u[i, j, 1])
            s = sample_field(outer, p)
            out[i, j] = inner.u[i, j] + s
    return DisplacementField(inner.grid, out)


@pytest.mark.parametrize("shape", [(2.5, 8), (8, 2.5), (8.0, 8), (8, np.nan)])
def test_grid_rejects_non_integer_size(shape):
    with pytest.raises(DomainError, match="must be an integer"):
        Grid(*shape)
    assert Grid(np.int64(8), 8).shape == (8, 8)


@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (0, 0), (-2, 5)])
def test_grid_rejects_a_size_below_two(shape):
    with pytest.raises(DomainError) as info:
        Grid(*shape)
    assert str(info.value) == f"grid must be at least 2x2, got {shape[0]}x{shape[1]}"


@pytest.mark.parametrize("labels, error, message", [
    (np.zeros((3, 4)), DomainError, "labels must be an integer array"),
    (np.zeros((4, 3), dtype=int), ShapeError, "label shape (4, 3) != grid (3, 4)"),
    (np.full((3, 4), -1), DomainError, "labels must be non-negative"),
])
def test_label_image_checks(labels, error, message):
    with pytest.raises(error) as info:
        LabelImage(Grid(3, 4), labels)
    assert str(info.value) == message


class TestIdentity:
    def test_all_zero(self):
        f = identity_field(Grid(4, 4))
        assert np.all(f.u == 0.0)

    def test_group_identity_law_exact(self):
        _, phi = suite_field(11)
        ident = identity_field(phi.grid)
        assert np.array_equal(compose(ident, phi).u, phi.u)
        assert np.array_equal(compose(phi, ident).u, phi.u)

    def test_jacobian_is_one(self):
        det = jacobian_determinant(identity_field(Grid(6, 6)))
        assert np.all(det.values == 1.0)


class TestSampleField:
    def test_node_values_exact(self):
        _, phi = suite_field(5)
        for i, j in [(0, 0), (3, 7), (63, 63), (20, 41)]:
            assert sample_field(phi, (i, j)) == pytest.approx(tuple(phi.u[i, j]), abs=0)

    def test_constant_field(self):
        f = constant_field(Grid(5, 5), 1.0, 2.0)
        assert sample_field(f, (2.3, 1.7)) == pytest.approx((1.0, 2.0))
        assert sample_field(f, (-4.0, 99.0)) == pytest.approx((1.0, 2.0))

    def test_linear_field_exact(self):
        g = Grid(4, 4)
        u = np.zeros((4, 4, 2))
        u[..., 0] = 0.5 * np.arange(4)[:, None]
        f = DisplacementField(g, u)
        assert sample_field(f, (1.5, 2.0)) == pytest.approx((0.75, 0.0))

    def test_non_finite_point_rejected(self):
        f = identity_field(Grid(4, 4))
        with pytest.raises(DomainError):
            sample_field(f, (np.nan, 0.0))

    @pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0), [[1.0, 2.0]], 1.0])
    def test_point_must_be_a_pair(self, point):
        f = identity_field(Grid(4, 4))
        with pytest.raises(ShapeError, match="^point must be a pair of coordinates$"):
            sample_field(f, point)


class TestCompose:
    def test_constant_translations_add(self):
        g = Grid(8, 8)
        f1 = constant_field(g, 1.0, 0.0)
        f2 = constant_field(g, 0.0, 2.0)
        r12 = compose(f1, f2)
        r21 = compose(f2, f1)
        assert np.allclose(r12.u, r21.u)
        assert np.allclose(r12.u[..., 0], 1.0)
        assert np.allclose(r12.u[..., 1], 2.0)

    def test_matches_brute_force_oracle(self):
        g = Grid(8, 8)
        rng = np.random.default_rng(42)
        for _ in range(3):
            a = DisplacementField(g, 0.8 * rng.standard_normal((8, 8, 2)))
            b = DisplacementField(g, 0.8 * rng.standard_normal((8, 8, 2)))
            assert np.array_equal(compose(a, b).u, brute_force_compose(a, b).u)

    def test_grid_mismatch(self):
        with pytest.raises(ShapeError):
            compose(identity_field(Grid(4, 4)), identity_field(Grid(5, 5)))

    def test_associativity_within_tolerance(self):
        _, a = suite_field(1, amplitude=5.0)
        _, b = suite_field(2, amplitude=5.0)
        _, c = suite_field(3, amplitude=5.0)
        lhs = compose(a, compose(b, c))
        rhs = compose(compose(a, b), c)
        assert field_rms_diff(lhs, rhs) <= 0.05


class TestSelfCompose:
    def test_m1_returns_input(self):
        _, phi = suite_field(7)
        assert self_compose_m(phi, 1) is phi

    def test_translation_multiplies(self):
        f = constant_field(Grid(8, 8), 0.5, 0.0)
        r = self_compose_m(f, 4)
        assert np.allclose(r.u[..., 0], 2.0)

    def test_repeated_squaring_structure(self):
        _, f = suite_field(9, amplitude=1.0)
        expected = compose(compose(f, f), compose(f, f))
        assert np.array_equal(self_compose_m(f, 4).u, expected.u)

    @pytest.mark.parametrize("m", [2, 4])
    def test_overflow_rejected(self, m):
        # 1e308 + 1e308 overflows: the squared field is not finite.
        f = DisplacementField(Grid(4, 4), np.full((4, 4, 2), 1e308))
        with pytest.raises(DomainError), np.errstate(over="ignore"):
            self_compose_m(f, m)

    def test_m_zero_rejected(self):
        with pytest.raises(DomainError):
            self_compose_m(identity_field(Grid(4, 4)), 0)

    def test_m_not_power_of_two_rejected(self):
        with pytest.raises(DomainError, match="power of two, got 3"):
            self_compose_m(identity_field(Grid(4, 4)), 3)


class TestWarpImage:
    def test_zero_field_identity_bitwise(self):
        img = textured_image(3)
        out = warp_image(img, identity_field(img.grid))
        assert np.array_equal(out.values, img.values)

    def test_constant_shift_reads_neighbor(self):
        g = Grid(5, 5)
        img = ScalarImage(g, np.tile(np.arange(5.0), (5, 1)))
        out = warp_image(img, constant_field(g, 0.0, 1.0))
        expected = np.minimum(np.arange(5.0) + 1, 4.0)
        assert np.allclose(out.values, np.tile(expected, (5, 1)))

    def test_warp_inverse_warp_roundtrip(self):
        img = textured_image(8)
        _, phi = suite_field(8)
        inv = invert(phi).field
        back = warp_image(warp_image(img, phi), inv)
        mae = np.mean(np.abs(back.values - img.values))
        assert mae <= 0.02


class TestWarpLabels:
    def test_zero_field_identity(self):
        g = Grid(5, 5)
        labs = LabelImage(g, np.arange(25).reshape(5, 5))
        out = warp_labels(labs, identity_field(g))
        assert np.array_equal(out.labels, labs.labels)

    def test_stripe_moves_one_column(self):
        g = Grid(5, 5)
        arr = np.zeros((5, 5), dtype=np.int64)
        arr[:, 2] = 1
        out = warp_labels(LabelImage(g, arr), constant_field(g, 0.0, 1.0))
        expected = np.zeros((5, 5), dtype=np.int64)
        expected[:, 1] = 1
        assert np.array_equal(out.labels, expected)

    @pytest.mark.parametrize("shift, rows", [
        (0.5, [1, 2, 3, 4, 5, 5]),
        # 0.5 - 2**-54 stays below a half on row 0; from row 1 on, row + it
        # is the float row + 0.5.
        (0.49999999999999994, [0, 2, 3, 4, 5, 5]),
    ])
    def test_ties_round_half_up(self, shift, rows):
        g = Grid(6, 6)
        labs = LabelImage(g, np.repeat(np.arange(6), 6).reshape(6, 6))
        out = warp_labels(labs, constant_field(g, shift, 0.0))
        assert np.array_equal(out.labels, np.array(rows)[:, None].repeat(6, axis=1))

    def test_roundtrip_recovers_most_pixels(self):
        spec = PhantomSpec(kind="four_label_phantom", grid=Grid(64, 64), seed=0)
        _, labs = make_phantom(spec)
        _, phi = suite_field(4)
        inv = invert(phi).field
        back = warp_labels(warp_labels(labs, phi), inv)
        frac = np.mean(back.labels == labs.labels)
        assert frac >= 0.95


class TestJacobian:
    def test_constant_field_det_one(self):
        det = jacobian_determinant(constant_field(Grid(6, 6), 2.5, -1.0))
        assert np.allclose(det.values, 1.0)

    def test_linear_field(self):
        g = Grid(8, 8)
        u = np.zeros((8, 8, 2))
        u[..., 0] = 0.1 * np.arange(8)[:, None]
        u[..., 1] = 0.2 * np.arange(8)[None, :]
        det = jacobian_determinant(DisplacementField(g, u))
        assert np.allclose(det.values, 1.1 * 1.2)

    def test_suite_field_positive(self):
        _, phi = suite_field(17)
        assert jacobian_determinant(phi).values.min() > 0


class TestNegJacobianFraction:
    def test_identity(self):
        assert neg_jacobian_fraction(identity_field(Grid(8, 8))) == 0.0

    def test_fold_everywhere(self):
        g = Grid(8, 8)
        u = np.zeros((8, 8, 2))
        u[..., 0] = -2.0 * np.arange(8)[:, None]
        assert neg_jacobian_fraction(DisplacementField(g, u)) == 100.0

    def test_suite_fields_fold_free(self):
        for seed in range(5):
            _, phi = suite_field(seed)
            assert neg_jacobian_fraction(phi) == 0.0


class TestFieldRms:
    def test_zero_for_equal(self):
        _, phi = suite_field(2)
        assert field_rms_diff(phi, phi) == 0.0

    def test_component_averaging_convention(self):
        g = Grid(4, 4)
        a = constant_field(g, 3.0, 4.0)
        b = identity_field(g)
        assert field_rms_diff(a, b) == pytest.approx(5.0 / np.sqrt(2.0), rel=1e-12)

    def test_symmetric(self):
        _, a = suite_field(1)
        _, b = suite_field(2)
        assert field_rms_diff(a, b) == field_rms_diff(b, a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda u, p: sample_values(u, p),
        lambda u, p: sample_values_grad(u, p),
        lambda u, p: splat_values(p, np.ones(p.shape[:-1] + (2,)), u.shape[:2]),
        lambda u, p: sample_field(DisplacementField(Grid(4, 5), u), p[0]),
    ],
    ids=["sample_values", "sample_values_grad", "splat_values", "sample_field"],
)
def test_non_finite_points_rejected(call, bad):
    # The stencil does not check its points; every public entry point does.
    u = np.zeros((4, 5, 2))
    for coord in (0, 1):
        p = np.full((3, 2), 1.5)
        p[0, coord] = bad
        with pytest.raises(DomainError):
            call(u, p)


@pytest.mark.parametrize("shape", [(3, 1), (3, 3), (1,), ()])
@pytest.mark.parametrize(
    "call",
    [
        lambda u, p: sample_values(u, p),
        lambda u, p: sample_values_grad(u, p),
        lambda u, p: splat_values(p, np.ones(p.shape[:-1] + (2,)), u.shape[:2]),
    ],
    ids=["sample_values", "sample_values_grad", "splat_values"],
)
def test_points_must_end_in_a_coordinate_pair(call, shape):
    # A stencil is placed by broadcasting the coordinate axis, so a last
    # axis of 1 would put both coordinates at one value without this check.
    with pytest.raises(ShapeError, match=r"^points must be \(\.\.\., 2\) coordinates"):
        call(np.zeros((4, 5, 2)), np.full(shape, 1.5))


def test_a_0d_point_reads_as_a_one_point_set():
    # A (2,) point gives element [0] of what the (1, 2) set of it gives:
    # the value and both derivatives, of one and of two channels, and the
    # splat of one value or of two.
    image = np.random.default_rng(5).random((4, 5, 2))
    for point in (np.array([1.3, 2.6]), np.array([-0.5, 4.0])):
        for values in (image[..., 0], image):
            one = sample_values_grad(values, point)
            for got, expected in zip(one, sample_values_grad(values, point[None])):
                assert np.array_equal(got, expected[0])
        for v in (np.float64(0.7), np.array([0.7, -1.2])):
            got = splat_values(point, v, (4, 5))
            assert np.array_equal(got, splat_values(point[None], v[None], (4, 5)))


def test_sampling_exact_on_linear_fields():
    g = Grid(6, 6)
    rows = np.arange(6.0)[:, None] * np.ones(6)
    cols = np.ones(6)[:, None] * np.arange(6.0)
    u = np.stack([0.3 * rows + 0.1 * cols, -0.2 * rows + 0.05 * cols], axis=-1)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 5, (50, 2))
    vals = sample_values(u, pts)
    expected = np.stack(
        [0.3 * pts[:, 0] + 0.1 * pts[:, 1], -0.2 * pts[:, 0] + 0.05 * pts[:, 1]],
        axis=-1,
    )
    assert np.allclose(vals, expected, atol=1e-12)


@pytest.mark.parametrize(
    "grid_type, attr, trailing",
    [(ScalarImage, "values", ()), (DisplacementField, "u", (2,)), (LogField, "v", (2,))],
)
class TestGridArrayValidation:
    """Every float grid type casts, shape-checks and finiteness-checks its
    array the same way."""

    def test_ints_cast_to_float64(self, grid_type, attr, trailing):
        obj = grid_type(Grid(3, 4), np.ones((3, 4) + trailing, dtype=np.int32))
        arr = getattr(obj, attr)
        assert arr.dtype == np.float64
        assert np.all(arr == 1.0)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4, 3), (3, 4, 1, 2), (12,)])
    def test_wrong_shape(self, grid_type, attr, trailing, shape):
        with pytest.raises(ShapeError):
            grid_type(Grid(3, 4), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, grid_type, attr, trailing, bad):
        values = np.zeros((3, 4) + trailing)
        values[1, 2] = bad
        with pytest.raises(DomainError):
            grid_type(Grid(3, 4), values)

    def test_stored_c_contiguous(self, grid_type, attr, trailing):
        # A view in another memory order is copied into C order; a
        # C-contiguous float64 array is kept, not copied.
        values = np.random.default_rng(0).standard_normal((3, 4) + trailing)
        obj = grid_type(Grid(3, 4), np.asfortranarray(values))
        assert getattr(obj, attr).flags.c_contiguous
        assert np.array_equal(getattr(obj, attr), values)
        assert getattr(grid_type(Grid(3, 4), values), attr) is values


def test_field_from_planar_view_sums_like_its_copy():
    # np.mean sums an array in memory order. A field built from a transposed
    # planar array used to keep the view, and for this one its RMS differed
    # from its copy's in the last bit.
    planar = np.random.default_rng(3).standard_normal((2, 16, 16))
    grid = Grid(16, 16)
    view = DisplacementField(grid, planar.transpose(1, 2, 0))
    copy = DisplacementField(grid, planar.transpose(1, 2, 0).copy())
    assert field_rms(view).hex() == field_rms(copy).hex()
