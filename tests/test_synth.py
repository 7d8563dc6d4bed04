import numpy as np
import pytest

from diffeo2d import (
    Grid,
    LogField,
    PhantomSpec,
    RandomFieldSpec,
    exp_field,
    field_rms_diff,
    identity_field,
    invert,
    log_field,
    make_phantom,
    make_subject,
    neg_jacobian_fraction,
    phantom_intensity,
    random_log_field,
)
from diffeo2d.errors import DomainError, ShapeError
from diffeo2d.fields import grid_coords

from conftest import GRID64


class TestPhantom:
    def test_deterministic(self):
        spec = PhantomSpec(kind="gaussian_blobs", grid=GRID64, seed=11)
        img1, lab1 = make_phantom(spec)
        img2, lab2 = make_phantom(spec)
        assert np.array_equal(img1.values, img2.values)
        assert np.array_equal(lab1.labels, lab2.labels)

    def test_intensity_range(self):
        for kind in ("ring_with_bump", "four_label_phantom", "gaussian_blobs"):
            img, _ = make_phantom(PhantomSpec(kind=kind, grid=GRID64, seed=3))
            assert img.values.min() >= 0.0
            assert img.values.max() <= 1.0

    def test_ring_labels_partition_grid(self):
        spec = PhantomSpec(kind="ring_with_bump", grid=GRID64, seed=0,
                           bump_amplitude=3.0)
        _, labs = make_phantom(spec)
        assert set(np.unique(labs.labels)) <= {0, 1, 2}

    def test_zero_bump_rotational_symmetry(self):
        # Sample the analytic intensity along a circle of ring radius; with no
        # bump the profile must be constant.
        spec = PhantomSpec(kind="ring_with_bump", grid=GRID64, seed=0,
                           bump_amplitude=0.0)
        cr, cc = spec.center
        theta = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        pts = np.stack(
            [cr + spec.radius * np.sin(theta), cc + spec.radius * np.cos(theta)],
            axis=-1,
        )
        vals = phantom_intensity(spec, pts)
        assert np.var(vals) <= 1e-6

    def test_four_label_phantom_has_four_regions(self):
        _, labs = make_phantom(
            PhantomSpec(kind="four_label_phantom", grid=GRID64, seed=0)
        )
        present = set(np.unique(labs.labels)) - {0}
        assert present == {1, 2, 3, 4}

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            PhantomSpec(kind="checkerboard", grid=GRID64, seed=0)

    def test_geometry_margin_enforced(self):
        with pytest.raises(DomainError):
            PhantomSpec(kind="ring_with_bump", grid=Grid(16, 16), seed=0,
                        ring_radius=7.0)


@pytest.mark.parametrize("kind", ["ring_with_bump", "gaussian_blobs"])
@pytest.mark.parametrize("bump_angle", [0.0, 2.0, 3.0, -3.0])
def test_phantom_image_is_its_intensity_function_at_the_nodes(kind, bump_angle):
    spec = PhantomSpec(kind=kind, grid=Grid(48, 40), seed=5, bump_angle=bump_angle,
                       bump_amplitude=2.0, bump_width=0.6, blob_sigma=3.0)
    image, labels = make_phantom(spec)
    coords = grid_coords(spec.grid)
    assert np.array_equal(image.values, phantom_intensity(spec, coords))
    if kind == "ring_with_bump":
        # The bump label, from the angle to bump_angle wrapped into (−π, π].
        theta = np.arctan2(coords[..., 1] - spec.center[1], coords[..., 0] - spec.center[0])
        ang = np.mod(theta - bump_angle + np.pi, 2 * np.pi) - np.pi
        on_ring = image.values >= 0.5
        assert np.array_equal(labels.labels == 2, on_ring & (np.abs(ang) <= spec.bump_width))
        assert np.array_equal(labels.labels == 1, on_ring & (labels.labels != 2))
        assert (labels.labels == 2).any()


@pytest.mark.parametrize("name", [
    "ring_radius", "ring_thickness", "bump_angle", "bump_amplitude", "bump_width",
    "blob_sigma",
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_phantom_spec_rejects_non_finite(name, bad):
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        PhantomSpec(kind="gaussian_blobs", grid=GRID64, **{name: bad})


@pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
def test_phantom_spec_rejects_non_integer_blob_count(bad):
    with pytest.raises(DomainError, match="blob_count must be an integer"):
        PhantomSpec(kind="gaussian_blobs", grid=GRID64, blob_count=bad)
    assert PhantomSpec(kind="gaussian_blobs", grid=GRID64, blob_count=np.int64(2)).blob_count == 2


@pytest.mark.parametrize("kwargs, message", [
    ({"ring_radius": 0.0}, "ring_radius must be > 0, got 0.0"),
    ({"ring_radius": -3.0}, "ring_radius must be > 0, got -3.0"),
    ({"ring_thickness": 0.0}, "ring_thickness must be > 0, got 0.0"),
    ({"bump_width": -0.5}, "bump_width must be > 0, got -0.5"),
    ({"blob_sigma": 0.0}, "blob_sigma must be > 0, got 0.0"),
    ({"blob_count": 0}, "blob_count must be >= 1, got 0"),
    ({"blob_count": -1}, "blob_count must be >= 1, got -1"),
])
@pytest.mark.parametrize("kind", ["ring_with_bump", "gaussian_blobs"])
def test_phantom_spec_rejects_degenerate_geometry(kind, kwargs, message):
    # Each would draw an empty or all-zero phantom through a division by
    # zero or, for a negative blob count, fail inside numpy.
    with pytest.raises(DomainError) as info:
        PhantomSpec(kind=kind, grid=GRID64, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["smoothing_sigma", "amplitude"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_random_field_spec_rejects_non_finite(name, bad):
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        RandomFieldSpec(GRID64, seed=0, **{name: bad})


# A case's id names the rule it breaks, where its message names the value.
@pytest.mark.parametrize("kwargs, message", [
    pytest.param({"smoothing_sigma": 0.0}, "smoothing_sigma must be > 0, got 0.0",
                 id="kwargs0-smoothing_sigma must be > 0"),
    pytest.param({"amplitude": -0.5}, "amplitude must be >= 0, got -0.5",
                 id="kwargs1-amplitude must be >= 0"),
    ({"amplitude": 8.5}, "amplitude exceeds min(grid)/8; the diffeomorphism guarantee "
                         "requires small deformations"),
])
def test_random_field_spec_range_checks(kwargs, message):
    with pytest.raises(DomainError) as info:
        RandomFieldSpec(GRID64, seed=0, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [-1, 2.5, np.nan])
@pytest.mark.parametrize("make", [
    lambda seed: PhantomSpec(kind="ring_with_bump", grid=GRID64, seed=seed),
    lambda seed: RandomFieldSpec(GRID64, seed=seed),
], ids=["phantom", "random_field"])
def test_specs_reject_a_bad_seed(make, bad):
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        make(bad)
    assert make(np.int64(1)).seed == 1


class TestRandomLogField:
    def test_deterministic(self):
        spec = RandomFieldSpec(GRID64, seed=5)
        v1 = random_log_field(spec)
        v2 = random_log_field(spec)
        assert np.array_equal(v1.v, v2.v)

    def test_zero_amplitude_gives_zero_field(self):
        v = random_log_field(RandomFieldSpec(GRID64, seed=0, amplitude=0.0))
        assert np.all(v.v == 0.0)

    def test_amplitude_bound(self):
        spec = RandomFieldSpec(GRID64, seed=7, amplitude=3.0)
        v = random_log_field(spec)
        norms = np.hypot(v.v[..., 0], v.v[..., 1])
        assert norms.max() == pytest.approx(3.0, rel=1e-9)

    def test_amplitude_invariant_enforced(self):
        with pytest.raises(DomainError):
            RandomFieldSpec(GRID64, seed=0, amplitude=9.0)

    def test_border_is_zero(self):
        v = random_log_field(RandomFieldSpec(GRID64, seed=9))
        for sl in (np.s_[:2, :], np.s_[-2:, :], np.s_[:, :2], np.s_[:, -2:]):
            assert np.all(v.v[sl] == 0.0)

    def test_suite_fields_are_diffeomorphic(self):
        # The suite's folding guarantee, spot-checked over many seeds.
        for seed in range(100):
            v = random_log_field(RandomFieldSpec(GRID64, seed=seed))
            phi = exp_field(v, 6)
            assert neg_jacobian_fraction(phi) == 0.0


class TestMakeSubject:
    def test_zero_log_is_identity_subject(self):
        phantom = make_phantom(
            PhantomSpec(kind="four_label_phantom", grid=GRID64, seed=0)
        )
        v = LogField(GRID64, np.zeros((64, 64, 2)))
        subj = make_subject(phantom, v)
        assert np.array_equal(subj.image.values, phantom[0].values)
        assert np.array_equal(subj.labels.labels, phantom[1].labels)
        assert field_rms_diff(subj.field, identity_field(GRID64)) == 0.0

    def test_log_roundtrip_recovers_generator(self):
        phantom = make_phantom(
            PhantomSpec(kind="ring_with_bump", grid=GRID64, seed=1)
        )
        v = random_log_field(RandomFieldSpec(GRID64, seed=2))
        subj = make_subject(phantom, v)
        v_hat = log_field(subj.field, 6)
        rms = np.sqrt(np.mean((v_hat.v - v.v) ** 2))
        assert rms <= 1e-2

    def test_negated_seed_gives_inverse_field(self):
        phantom = make_phantom(
            PhantomSpec(kind="ring_with_bump", grid=GRID64, seed=1)
        )
        v = random_log_field(RandomFieldSpec(GRID64, seed=3))
        neg = LogField(GRID64, -v.v)
        s1 = make_subject(phantom, v)
        s2 = make_subject(phantom, neg)
        inv = invert(s1.field).field
        assert field_rms_diff(s2.field, inv) <= 2e-2

    def test_grid_mismatch(self):
        phantom = make_phantom(
            PhantomSpec(kind="ring_with_bump", grid=GRID64, seed=1)
        )
        v = LogField(Grid(32, 32), np.zeros((32, 32, 2)))
        with pytest.raises(ShapeError):
            make_subject(phantom, v)


def _four_label_by_loops(spec):
    """The four-label phantom's intensity at every node and its labels, as
    two loops over the shell radii computed them."""
    coords = grid_coords(spec.grid)
    cr, cc = spec.center
    r = np.hypot(coords[..., 0] - cr, coords[..., 1] - cc)
    shells = (0.35 * spec.radius, 0.6 * spec.radius, 0.8 * spec.radius, spec.radius)
    intensity = np.zeros_like(r)
    labels = np.zeros(spec.grid.shape, dtype=np.int64)
    prev = 0.0
    for idx, (radius, level) in enumerate(zip(shells, (1.0, 0.45, 0.8, 0.25)), start=1):
        inside = (r >= prev) & (r < radius)
        intensity = np.where(inside, level, intensity)
        labels[inside] = 5 - idx
        prev = radius
    return intensity, labels


@pytest.mark.parametrize("shape, ring_radius", [
    ((64, 64), None), ((32, 32), None), ((33, 47), None), ((40, 24), 5.0),
    ((64, 64), 20.0), ((64, 64), 11.5), ((31, 30), 0.5),
])
def test_four_label_shells_match_the_shell_loops(shape, ring_radius):
    spec = PhantomSpec(kind="four_label_phantom", grid=Grid(*shape), ring_radius=ring_radius)
    intensity, labels = _four_label_by_loops(spec)
    raw = phantom_intensity(spec, grid_coords(spec.grid))
    assert raw.dtype == intensity.dtype and raw.tobytes() == intensity.tobytes()
    _, label_image = make_phantom(spec)
    assert label_image.labels.dtype == np.int64
    assert label_image.labels.tobytes() == labels.tobytes()
