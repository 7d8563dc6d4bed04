"""Property tests of the bilinear stencil, the registration smoother, the
identity law, inversion and the file parsers, on inputs drawn by hypothesis
(deterministic profile registered in conftest.py)."""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import gaussian_filter

from diffeo2d import (
    DisplacementField,
    Grid,
    RandomFieldSpec,
    SolverConfig,
    compose,
    exp_field,
    identity_field,
    invert,
    neg_jacobian_fraction,
    read_basis,
    read_field,
    read_pgm,
    read_pgm_labels,
    random_log_field,
)
from diffeo2d.errors import FileFormatError
from diffeo2d.fields import Stencil, field_rms, sample_values, sample_values_grad, splat_values
from diffeo2d.registration import _smooth_field

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def values_and_points(draw, max_side=9, max_points=24):
    """Node values on a random grid, as the stencil takes them: (H, W), or
    (C, H, W) with 1 or 2 leading channel planes; and a point set reaching
    up to 3 px outside the domain on every side."""
    h = draw(st.integers(2, max_side))
    w = draw(st.integers(2, max_side))
    channels = draw(st.sampled_from([(), (1,), (2,)]))
    values = draw(arrays(np.float64, channels + (h, w), elements=finite))
    n = draw(st.integers(1, max_points))
    coord = st.floats(-3.0, max(h, w) + 2.0, allow_nan=False)
    points = draw(arrays(np.float64, (n, 2), elements=coord))
    return values, points


def _channels_last(planes):
    """(H, W, C) view of (C, H, W) planes, the layout of the public wrappers;
    an (H, W) array as is."""
    return np.moveaxis(planes, 0, -1) if planes.ndim == 3 else planes


def _reference_sample(values, points):
    """Corner-by-corner fancy-indexing form of the bilinear sample."""
    h, w = values.shape[:2]
    pr = np.clip(points[..., 0], 0.0, h - 1.0)
    pc = np.clip(points[..., 1], 0.0, w - 1.0)
    i0 = np.minimum(np.floor(pr), h - 2).astype(np.intp)
    j0 = np.minimum(np.floor(pc), w - 2).astype(np.intp)
    fr, fc = pr - i0, pc - j0
    if values.ndim == 3:
        fr, fc = fr[..., None], fc[..., None]
    top = values[i0, j0] + fc * (values[i0, j0 + 1] - values[i0, j0])
    bot = values[i0 + 1, j0] + fc * (values[i0 + 1, j0 + 1] - values[i0 + 1, j0])
    return top + fr * (bot - top), (i0, j0, fr, fc)


def _reference_splat(points, r, shape):
    """Four sequential ``np.add.at`` calls, one per corner."""
    _, (i0, j0, fr, fc) = _reference_sample(np.zeros(shape[:2]), points)
    out = np.zeros(shape)
    if r.ndim == 2:
        fr, fc = fr[..., None], fc[..., None]
    np.add.at(out, (i0, j0), (1 - fr) * (1 - fc) * r)
    np.add.at(out, (i0, j0 + 1), (1 - fr) * fc * r)
    np.add.at(out, (i0 + 1, j0), fr * (1 - fc) * r)
    np.add.at(out, (i0 + 1, j0 + 1), fr * fc * r)
    return out


@given(values_and_points(), st.data())
def test_sample_splat_adjoint(vp, data):
    # <sample(u, p), r> == <u, splat(p, r)> for every u and r.
    u, p = vp
    r = data.draw(arrays(np.float64, u.shape[:-2] + p.shape[:1], elements=finite))
    stencil = Stencil(p[..., 0], p[..., 1], u.shape[-2:])
    lhs = float(np.sum(stencil.sample(u) * r))
    rhs = float(np.sum(u * stencil.splat(r)))
    scale = float(np.sum(np.abs(r))) * max(float(np.max(np.abs(u))), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(values_and_points(), st.data())
def test_stencil_matches_corner_by_corner_reference(vp, data):
    # np.take gathers and np.bincount splats do the same float operations
    # in the same order as fancy indexing and np.add.at, and the wrappers
    # convert the (H, W, C) layout to planes and back without changing a bit.
    u, p = vp
    u = _channels_last(u)
    r = data.draw(arrays(np.float64, p.shape[:1] + u.shape[2:], elements=finite))
    expected, _ = _reference_sample(u, p)
    assert np.array_equal(sample_values(u, p), expected)
    assert np.array_equal(sample_values_grad(u, p)[0], expected)
    assert np.array_equal(splat_values(p, r, u.shape[:2]), _reference_splat(p, r, u.shape))


@given(
    st.integers(2, 9),
    st.integers(2, 9),
    st.sampled_from([(), (2,)]),
    st.data(),
)
def test_sample_grad_matches_central_differences(h, w, channels, data):
    # Away from cell edges the bilinear sample is linear along each
    # coordinate, so a central difference is exact up to rounding.
    u = data.draw(arrays(np.float64, channels + (h, w), elements=finite))
    n = data.draw(st.integers(1, 12))
    cell = data.draw(arrays(np.int64, (n, 2), elements=st.integers(0, 7)))
    frac = data.draw(arrays(np.float64, (n, 2), elements=st.floats(0.05, 0.95)))
    p = np.minimum(cell, [h - 2, w - 2]) + frac

    def sample(q):
        return Stencil(q[..., 0], q[..., 1], (h, w)).sample(u)

    val, d_row, d_col = Stencil(p[..., 0], p[..., 1], (h, w)).sample_grad(u)
    assert np.array_equal(val, sample(p))
    eps = 1e-6
    for axis, analytic in ((0, d_row), (1, d_col)):
        step = np.zeros(2)
        step[axis] = eps
        fd = (sample(p + step) - sample(p - step)) / (2 * eps)
        assert np.allclose(analytic, fd, rtol=0.0, atol=1e-6)


@given(
    st.integers(1, 4),
    st.integers(2, 9),
    st.integers(2, 9),
    st.sampled_from([(), (2,), (3,)]),
    st.data(),
)
def test_subject_axis_matches_per_subject_stencils(n, h, w, channels, data):
    # A stencil over N stacked grids, on C leading channel planes, gives bit
    # for bit what N stencils of one grid give on each plane alone: sample,
    # sample_grad and splat.
    values = data.draw(arrays(np.float64, channels + (n, h, w), elements=finite))
    k = data.draw(st.integers(1, 12))
    coord = st.floats(-3.0, max(h, w) + 2.0, allow_nan=False)
    rows = data.draw(arrays(np.float64, (n, k), elements=coord))
    cols = data.draw(arrays(np.float64, (n, k), elements=coord))
    r = data.draw(arrays(np.float64, channels + (n, k), elements=finite))
    batch = Stencil(rows, cols, (n, h, w))
    sampled = batch.sample(values)
    grads = batch.sample_grad(values)
    splatted = batch.splat(r)
    for c in np.ndindex(channels):
        for i in range(n):
            one = Stencil(rows[i], cols[i], (h, w))
            plane = c + (i,)
            assert np.array_equal(sampled[plane], one.sample(values[plane]))
            for got, want in zip(grads, one.sample_grad(values[plane])):
                assert np.array_equal(got[plane], want)
            assert np.array_equal(splatted[plane], one.splat(r[plane]))


@given(
    st.integers(1, 3),
    st.integers(2, 12),
    st.integers(2, 12),
    st.floats(0.3, 3.0),
    st.data(),
)
def test_smooth_field_is_scipy_gaussian_filter(n, h, w, sigma, data):
    # The registration smoother keeps its kernel across calls; it must give
    # bit for bit what scipy's gaussian_filter gives on each plane.
    u = data.draw(arrays(np.float64, (2, n, h, w), elements=finite))
    expected = gaussian_filter(u, (0.0, 0.0, sigma, sigma), mode="nearest")
    assert np.array_equal(_smooth_field(u, sigma), expected)


@given(st.integers(2, 9), st.integers(2, 9), st.data())
def test_compose_with_identity(h, w, data):
    grid = Grid(h, w)
    u = data.draw(arrays(np.float64, (h, w, 2), elements=finite))
    f = DisplacementField(grid, u)
    ident = identity_field(grid)
    assert np.array_equal(compose(ident, f).u, u)
    right = compose(f, ident).u
    # Interior nodes sample with zero offsets and come back exactly. The last
    # row and column use the cell before them at offset 1, where
    # v0 + 1 * (v1 - v0) can round away from v1.
    assert np.array_equal(right[:-1, :-1], u[:-1, :-1])
    assert np.allclose(right, u, rtol=0.0, atol=1e-13)
    # Fields that vanish on the last row and column (as synth's tapered
    # fields do) therefore compose with the identity exactly everywhere.
    u[-1, :] = 0.0
    u[:, -1] = 0.0
    f = DisplacementField(grid, u)
    assert np.array_equal(compose(f, ident).u, u)


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 4.0),  # up to synth's limit of min(grid) / 8
    st.floats(4.0, 8.0),  # synth's default smoothing and smoother
)
def test_invert_is_right_inverse_on_synth_fields(seed, amplitude, sigma):
    """On fold-free 32x32 synth fields, phi o invert(phi) is the identity to
    within ten times the solver tolerance."""
    spec = RandomFieldSpec(Grid(32, 32), seed=seed, amplitude=amplitude, smoothing_sigma=sigma)
    phi = exp_field(random_log_field(spec))
    assume(neg_jacobian_fraction(phi) == 0.0)
    cfg = SolverConfig()
    sol = invert(phi, cfg)
    residual = field_rms(compose(phi, sol.field))
    assert residual <= 10 * cfg.tolerance
    assert sol.residual == residual


# ---------------------------------------------------------------------------
# Parsers: whatever the bytes, nothing but a FileFormatError escapes.

FIELD_READERS = [read_field, lambda p: read_field(p, as_log=True)]
READERS = [read_pgm, read_pgm_labels, *FIELD_READERS, read_basis]
side = st.integers(0, 4)
any_float = st.floats(allow_nan=True, allow_infinity=True)
# Payloads are mostly of the size the header implies and all finite, so that
# the checks after the size and finiteness tests are reached too.
payload_error = st.one_of(st.just(0), st.integers(-8, 8))
payload_value = st.sampled_from([finite, finite, any_float])


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _read_or_reject(read, path, data):
    path.write_bytes(data)
    try:
        read(path)
    except FileFormatError:
        pass


@given(st.sampled_from([b"", b"P2", b"P5", b"MFLD", b"MLEB"]), st.binary(max_size=96))
def test_parsers_on_arbitrary_bytes(input_file, magic, tail):
    for read in READERS:
        _read_or_reject(read, input_file, magic + tail)


@given(
    st.sampled_from([b"P2", b"P5"]),
    side,
    side,
    st.sampled_from([0, 1, 255, 256, 65535, 65536]),
    st.data(),
)
def test_pgm_with_random_header(input_file, magic, w, h, maxval, data):
    header = magic + f"\n{w} {h}\n{maxval}\n".encode()
    if magic == b"P2":
        pixels = data.draw(st.lists(st.integers(0, 70000), max_size=20))
        payload = " ".join(map(str, pixels)).encode()
    else:
        payload = data.draw(st.binary(max_size=40))
    for read in (read_pgm, read_pgm_labels):
        _read_or_reject(read, input_file, header + payload)


@given(side, side, st.integers(0, 3), payload_error, st.data())
def test_mfld_with_random_header(input_file, h, w, channels, extra, data):
    n = max(h * w * channels + extra, 0)
    values = data.draw(st.lists(data.draw(payload_value), min_size=n, max_size=n))
    blob = struct.pack("<4sHIIB", b"MFLD", 1, h, w, channels) + struct.pack(f"<{n}d", *values)
    for read in FIELD_READERS:
        _read_or_reject(read, input_file, blob)


@given(side, side, st.integers(0, 3), payload_error, st.data())
def test_basis_with_random_header(input_file, h, w, dim, extra, data):
    n = max(h * w * 2 * (1 + dim) + dim + extra, 0)
    values = data.draw(st.lists(data.draw(payload_value), min_size=n, max_size=n))
    header = struct.pack("<4sHIIHBBd", b"MLEB", 1, h, w, dim, 1, 1, data.draw(any_float))
    _read_or_reject(read_basis, input_file, header + struct.pack(f"<{n}d", *values))
