"""Property tests of the bilinear stencil, the registration smoother and
loop, the identity law, inversion and the file parsers, on inputs drawn by
hypothesis (deterministic profile registered in conftest.py)."""

import itertools
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import gaussian_filter

from diffeo2d import (
    DisplacementField,
    Grid,
    RandomFieldSpec,
    RegistrationConfig,
    ScalarImage,
    SolverConfig,
    compose,
    exp_field,
    field_rms_diff,
    identity_field,
    invert,
    neg_jacobian_fraction,
    read_basis,
    read_field,
    read_pgm,
    read_pgm_labels,
    random_log_field,
    register_pairs,
    root_chain,
    sqrt_field,
)
from diffeo2d import fields as fields_module
from diffeo2d.errors import ConvergenceError, DomainError, FileFormatError
from diffeo2d.fields import (
    DisplacedGrid,
    Stencil,
    _Band,
    _blur,
    field_rms,
    grid_coords,
    sample_values,
    sample_values_grad,
    splat_values,
)

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


def _reference_grad(values, points):
    """The derivatives of the bilinear sample along rows and columns, bot -
    top and right - left, zero where the coordinate is clamped."""
    h, w = values.shape[:2]
    _, (i0, j0, fr, fc) = _reference_sample(values, points)
    v00, v01 = values[i0, j0], values[i0, j0 + 1]
    v10, v11 = values[i0 + 1, j0], values[i0 + 1, j0 + 1]
    top, bot = v00 + fc * (v01 - v00), v10 + fc * (v11 - v10)
    left, right = v00 + fr * (v10 - v00), v01 + fr * (v11 - v01)
    inside_r = (points[..., 0] > 0.0) & (points[..., 0] < h - 1.0)
    inside_c = (points[..., 1] > 0.0) & (points[..., 1] < w - 1.0)
    if values.ndim == 3:
        inside_r, inside_c = inside_r[..., None], inside_c[..., None]
    return np.where(inside_r, bot - top, 0.0), np.where(inside_c, right - left, 0.0)


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
    stencil = Stencil(p.shape[:1], u.shape[-2:]).displace(p.T)
    lhs = float(np.sum(stencil.sample(u) * r))
    rhs = float(np.sum(u * stencil.splat(r)))
    scale = float(np.sum(np.abs(r))) * max(float(np.max(np.abs(u))), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(values_and_points(), st.data())
def test_stencil_matches_corner_by_corner_reference(vp, data):
    # np.take gathers and np.bincount splats do the same float operations
    # in the same order as fancy indexing and np.add.at, the derivative
    # sampled with the value is the textbook one bit for bit, and the
    # wrappers convert the (H, W, C) layout to planes and back without
    # changing a bit.
    u, p = vp
    u = _channels_last(u)
    r = data.draw(arrays(np.float64, p.shape[:1] + u.shape[2:], elements=finite))
    expected, _ = _reference_sample(u, p)
    assert np.array_equal(sample_values(u, p), expected)
    value, d_row, d_col = sample_values_grad(u, p)
    assert np.array_equal(value, expected)
    want_row, want_col = _reference_grad(u, p)
    assert _bits(d_row) == _bits(want_row) and _bits(d_col) == _bits(want_col)
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
        return Stencil(q.shape[:1], (h, w)).displace(q.T).sample(u)

    val, d_row, d_col = Stencil(p.shape[:1], (h, w)).displace(p.T).sample_grad(u)
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
    batch = Stencil((n, k), (n, h, w)).displace(np.stack([rows, cols]))
    sampled = batch.sample(values)
    grads = batch.sample_grad(values)
    splatted = batch.splat(r)
    for c in np.ndindex(channels):
        for i in range(n):
            one = Stencil((k,), (h, w)).displace(np.stack([rows[i], cols[i]]))
            plane = c + (i,)
            assert np.array_equal(sampled[plane], one.sample(values[plane]))
            for got, want in zip(grads, one.sample_grad(values[plane])):
                assert np.array_equal(got[plane], want)
            assert np.array_equal(splatted[plane], one.splat(r[plane]))


@given(
    st.sampled_from(["planar", "image", "channels-last"]),
    st.integers(1, 3),
    st.integers(2, 12),
    st.integers(2, 12),
    st.floats(0.3, 3.0),
    st.data(),
)
def test_smooth_field_is_scipy_gaussian_filter(layout, n, h, w, sigma, data):
    # The package's one blur keeps its kernel across calls and writes into
    # fresh arrays or the caller's; it must give bit for bit what scipy's
    # gaussian_filter gives on each plane, in place too. It blurs planar
    # (2, N, H, W) fields in registration, (H, W) images in the pyramid
    # and the phantom, and the planar view of an (H, W, 2) random field.
    if layout == "planar":
        u = data.draw(arrays(np.float64, (2, n, h, w), elements=finite))
        expected = gaussian_filter(u, (0.0, 0.0, sigma, sigma), mode="nearest")
    elif layout == "image":
        u = data.draw(arrays(np.float64, (h, w), elements=finite))
        expected = gaussian_filter(u, sigma, mode="nearest")
    else:
        last = data.draw(arrays(np.float64, (h, w, 2), elements=finite))
        u = np.moveaxis(last, -1, 0)
        expected = np.moveaxis(gaussian_filter(last, (sigma, sigma, 0.0), mode="nearest"), -1, 0)
    before = _bits(u)
    assert _bits(_blur(u, sigma)) == _bits(expected)
    assert _bits(u) == before
    tmp = np.empty_like(u)
    assert _bits(_blur(u, sigma, tmp, np.empty_like(u))) == _bits(expected)
    assert _blur(u, sigma, tmp, u) is u
    assert _bits(u) == _bits(expected)
    assert _blur(u, 1e-16) is u


def _bits(a) -> bytes:
    """The bytes of an array, so that -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(a).tobytes()


@given(values_and_points(), st.data())
def test_rebuilt_stencil_matches_fresh(vp, data):
    # A stencil re-placed in place by displace, sampling into out=, gives
    # the bits a fresh stencil and a fresh sample give: clamped points,
    # points on the last row and column and -0.0 coordinates included.
    u, p = vp
    h, w = u.shape[-2:]
    coord = st.one_of(
        st.sampled_from([-0.0, 0.0, h - 1.0, w - 1.0, -3.0, max(h, w) + 2.0]),
        st.floats(-3.0, max(h, w) + 2.0, allow_nan=False),
    )
    q = data.draw(arrays(np.float64, p.shape, elements=coord))
    x = data.draw(arrays(np.float64, (2, 1), elements=st.floats(0.0, 3.0)))
    stencil = Stencil(p.shape[:1], (h, w)).displace(p.T)
    out = np.empty(u.shape[:-2] + p.shape[:1])
    stencil.sample(u, out=out)  # the owned gather buffer now holds p's corners
    assert stencil.displace(x, q.T.copy()) is stencil
    fresh = Stencil(q.shape[:1], (h, w)).displace(np.stack([x[0] + q[:, 0], x[1] + q[:, 1]]))
    for name in ("fr", "fc", "k4", "outside"):
        assert _bits(getattr(stencil, name)) == _bits(getattr(fresh, name))
    assert stencil.sample(u, out=out) is out
    assert _bits(out) == _bits(fresh.sample(u))
    for got, want in zip(stencil.sample_grad(u), fresh.sample_grad(u)):
        assert _bits(got) == _bits(want)
    # Placed at x + q, at q alone or at -0.0 + q, a stencil's clamp masks
    # are those of its unclamped points: on or beyond an edge, -0.0
    # included. Adding -0.0 keeps every coordinate's bits, so the last two
    # stencils see q itself.
    edge = np.array([[h - 1.0], [w - 1.0]])
    zero = np.full((2, 1), -0.0)
    placed = [
        (fresh, x + q.T),
        (Stencil(q.shape[:1], (h, w)).displace(q.T), q.T),
        (Stencil(q.shape[:1], (h, w)).displace(zero, q.T.copy()), q.T),
    ]
    for placed_stencil, points in placed:
        assert np.array_equal(placed_stencil.outside, (points <= 0.0) | (points >= edge))


@given(values_and_points(), st.data())
def test_sample_grad_into_buffers_is_its_fresh_result(vp, data):
    # sample_grad writes into the caller's buffers, strided views included,
    # the bits it returns in fresh arrays. invert's sample of a (2, H, W)
    # field into (2, n) and (2, 2, n) buffers gives bit for bit what
    # Stencil.sample gives with a unit axis after the component axis.
    u, p = vp
    h, w = u.shape[-2:]
    stencil = Stencil(p.shape[:1], (h, w)).displace(p.T)
    fresh = stencil.sample_grad(u)
    shape = u.shape[:-2] + p.shape[:1]
    out = np.full(shape + (3,), np.nan)[..., 1]
    grad = np.full((2,) + shape + (2,), np.nan)[..., 0]
    got = stencil.sample_grad(u, out, grad)
    assert got[0] is out
    for a, b in zip(got, fresh):
        assert _bits(a) == _bits(b)

    field = data.draw(arrays(np.float64, (2, h, w), elements=finite))
    value, d_row, d_col = stencil.sample_grad(field)
    gap = np.full((2,) + p.shape[:1], np.nan)
    gap_grad = np.full((2,) + gap.shape, np.nan)
    stencil.sample_grad(field, gap, gap_grad)
    assert _bits(gap) == _bits(value)
    assert _bits(gap_grad) == _bits(np.stack([d_row, d_col]))
    unit_gap, unit_grad = np.empty_like(gap), np.empty_like(gap_grad)
    stencil.sample(field[:, None], unit_gap[:, None], unit_grad)
    assert _bits(gap) == _bits(unit_gap)
    assert _bits(gap_grad) == _bits(unit_grad)


@st.composite
def reaching_fields(draw, max_side=7):
    """Displacement fields whose points x + u land on nodes, between them
    and past the border, with row 0 reaching the last row and column 0 the
    last column, where bilinear sampling rounds differently."""
    h = draw(st.integers(2, max_side))
    w = draw(st.integers(2, max_side))
    element = st.one_of(
        st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.0]),
        st.floats(-2.0, 2.0, allow_nan=False),
    )
    u = draw(arrays(np.float64, (h, w, 2), elements=element))
    u[0, :, 0] = h - 1.0
    u[:, 0, 1] = w - 1.0
    return DisplacementField(Grid(h, w), u)


def _reference_sqrt(field, cfg):
    """sqrt_field as a damped Picard loop over sample_values on (H, W, 2)
    fields: (root, residual, iterations), iterations None if the loop ran
    out."""
    x = grid_coords(field.grid)
    u = field.u
    w = 0.5 * u
    iterations = None
    for it in range(1, cfg.max_iterations + 1):
        update = cfg.damping * (u - (w + sample_values(w, x + w)))
        w = w + update
        if np.sqrt(np.mean(update * update)) < cfg.tolerance:
            iterations = it
            break
    root = DisplacementField(field.grid, w)
    return root, field_rms_diff(compose(root, root), field), iterations


@given(reaching_fields(), st.data())
def test_self_composed_is_compose(field, data):
    # _Band.composed(v, w) is w + v(x + w). With v = w it is the
    # displacement of compose(f, f), as sqrt_field forms it.
    planar = field.u.transpose(2, 0, 1).copy()
    out = np.empty_like(planar)
    displaced = DisplacedGrid(field.grid, np.empty(field.u.shape))
    displaced.run(_Band.composed, planar, planar, out)
    assert _bits(out.transpose(1, 2, 0)) == _bits(compose(field, field).u)
    # With another v, and v's derivative at x + w, as invert forms F and
    # grad u: compose(g, f) and sample_values_grad's derivatives.
    element = st.floats(-4.0, 4.0, allow_nan=False)
    outer = DisplacementField(field.grid, data.draw(arrays(np.float64, field.u.shape,
                                                           elements=element)))
    grad = np.empty((2,) + planar.shape)
    displaced.run(_Band.composed, outer.u.transpose(2, 0, 1).copy(), planar, out, grad)
    assert _bits(out.transpose(1, 2, 0)) == _bits(compose(outer, field).u)
    _, d_row, d_col = sample_values_grad(outer.u, grid_coords(field.grid) + field.u)
    assert _bits(grad[0].transpose(1, 2, 0)) == _bits(d_row)
    assert _bits(grad[1].transpose(1, 2, 0)) == _bits(d_col)


@st.composite
def band_fields(draw):
    """Fields on grids of 5-40 rows and columns: smooth ones of up to 1 px,
    on which the solvers converge; per-pixel noise of up to 2 px, on which
    ``sqrt_field`` mostly runs out of iterations; and noise of up to 1e307
    or 1.5e308 px, which overflows to non-finite sample points."""
    h = draw(st.integers(5, 40))
    w = draw(st.integers(5, 40))
    scale = draw(st.sampled_from([1.0, 1.0, 2.0, 1e307, 1.5e308]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(-1.0, 1.0, (h, w, 2))
    if scale == 1.0:
        u = gaussian_filter(u, (2.0, 2.0, 0.0))
        u /= np.abs(u).max()
    return DisplacementField(Grid(h, w), u * scale)


def _solutions(field):
    """The bits of sqrt_field's, a 3-level root_chain's and invert's
    results on ``field``, or their errors' types, messages and numbers, at
    50 iterations (the smooth fields take about 10) and at one."""
    out = []
    solves = (sqrt_field, lambda f, c: root_chain(f, 3, c), invert)
    budgets = (SolverConfig(max_iterations=50), SolverConfig(max_iterations=1))
    for solve, cfg in itertools.product(solves, budgets):
        try:
            with np.errstate(all="ignore"):
                sol = solve(field, cfg)
        except (ConvergenceError, DomainError) as err:
            out.append((type(err), str(err), repr(getattr(err, "residual", None)),
                        getattr(err, "iterations", None)))
        else:
            fields = [root.u for root in sol.roots] if hasattr(sol, "roots") else [sol.field.u]
            residuals = sol.residuals if hasattr(sol, "roots") else [sol.residual]
            iterations = sol.iterations
            out.append(([_bits(u) for u in fields], [repr(r) for r in residuals], iterations))
    return out


@settings(max_examples=30)
@given(band_fields())
def test_solves_are_bit_identical_at_every_band_count(field):
    # Each band samples the whole field and writes its own rows; every RMS
    # sums the whole grid on the calling thread. So the fields, residuals,
    # iteration counts and errors must not depend on the number of bands,
    # and the grid's RMS of the bands' squares is field_rms of the field.
    # Up to four bands, more than most hosts' CPUs, switch threads often.
    results = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for bands in (1, 2, 3, 4):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fields_module, "_BAND_PIXELS", 1)
                patch.setattr(fields_module, "_usable_cpus", lambda bands=bands: bands)
                with DisplacedGrid(field.grid, np.empty(field.u.shape)) as displaced, \
                        np.errstate(over="ignore"):
                    assert len(displaced.bands) == bands
                    displaced.run(_Band.square, field.u.transpose(2, 0, 1).copy())
                    assert _bits(displaced.rms()) == _bits(field_rms(field))
                results.append(_solutions(field))
    finally:
        sys.setswitchinterval(interval)
    assert results[1:] == results[:1] * 3


@given(
    reaching_fields(),
    st.integers(1, 40),
    st.sampled_from([0.5, 0.3, 1.0]),
    st.sampled_from([1e-6, 1e-3, 0.1]),
)
def test_sqrt_field_matches_channel_last_picard(field, max_iterations, damping, tolerance):
    # Field, residual and iteration count, or the residual of the error.
    cfg = SolverConfig(tolerance=tolerance, max_iterations=max_iterations, damping=damping)
    root, residual, iterations = _reference_sqrt(field, cfg)
    try:
        sol = sqrt_field(field, cfg)
    except ConvergenceError as err:
        assert iterations is None
        assert err.residual.hex() == residual.hex()
    else:
        assert sol.iterations == iterations
        assert sol.residual.hex() == residual.hex()
        assert _bits(sol.field.u) == _bits(root.u)


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
    st.floats(2.0, 8.0),  # down to strong local shear, up to synth's smoother
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


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 3.0),
    st.floats(4.0, 8.0),
)
def test_log_round_trips_and_roots_reconstruct_on_synth_fields(seed, amplitude, sigma):
    """Criterion 2's bounds on fold-free 32x32 synth fields: exp(log(phi))
    is within 1e-2 px of phi, and every root of the chain, self-composed
    back up, within 5e-3 px. The log comes from the same chain, as
    ``log_field`` takes it."""
    spec = RandomFieldSpec(Grid(32, 32), seed=seed, amplitude=amplitude, smoothing_sigma=sigma)
    phi = exp_field(random_log_field(spec))
    assume(neg_jacobian_fraction(phi) == 0.0)
    chain = root_chain(phi, 6)
    assert field_rms_diff(exp_field(chain.log()), phi) <= 1e-2
    assert max(chain.reconstruction_rms(phi)) <= 5e-3


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


def _texture(rng, h, w):
    t = gaussian_filter(rng.standard_normal((h, w)), 1.5, mode="nearest")
    return (t - t.min()) / (t.max() - t.min())


def _reference_half_step(a, b, u_var, u_other, cfg):
    """One half-step of u_var (the field that pulls b onto a) with u_other
    frozen, from the public one-shot wrappers on (H, W, 2) fields: the
    frozen-partner gradient, then the smoothed descent step. Also returns
    the residuals res = b(x + u_var) - a, r1 = u_other + u_var(x + u_other)
    and r2 = u_var + u_other(x + u_var)."""
    shape = a.shape
    n = shape[0] * shape[1]
    x = grid_coords(Grid(*shape))
    warped, d_row, d_col = sample_values_grad(b, x + u_var)
    res = warped - a
    r1 = u_other + sample_values(u_var, x + u_other)
    r2 = u_var + sample_values(u_other, x + u_var)
    grad = np.zeros(shape + (2,))
    sim = cfg.lambda_sim * (2.0 / n) * res
    grad[..., 0] += sim * d_row
    grad[..., 1] += sim * d_col
    grad += cfg.lambda_reg * (2.0 / n) * splat_values(x + u_other, r1, shape)
    grad += cfg.lambda_reg * (2.0 / n) * r2
    sigma_u, sigma_f = cfg.update_smoothing_sigma, cfg.field_smoothing_sigma
    step = cfg.step_size * n
    u_new = u_var - step * gaussian_filter(grad, (sigma_u, sigma_u, 0.0), mode="nearest")
    u_new = gaussian_filter(u_new, (sigma_f, sigma_f, 0.0), mode="nearest")
    return u_new, res, r1, r2


def _reference_register(a, b, cfg):
    """register_pair written as plain alternating descent on one pair."""
    pyramid = [(a, b)]
    for _ in range(cfg.pyramid_levels - 1):
        pa, pb = pyramid[-1]
        if min(pa.shape) < 8:
            break
        pyramid.append(tuple(gaussian_filter(v, 1.0, mode="nearest")[::2, ::2] for v in (pa, pb)))
    u_ab = u_ba = None
    history = []
    it = 0

    def terms(va, vb):
        _, res_ab, r1, r2 = _reference_half_step(va, vb, u_ab, u_ba, cfg)
        res_ba = sample_values(va, grid_coords(Grid(*va.shape)) + u_ba) - vb
        l_sim = np.mean(res_ab * res_ab) + np.mean(res_ba * res_ba)
        l_reg = sum(np.mean(r[..., 0] * r[..., 0] + r[..., 1] * r[..., 1]) for r in (r1, r2))
        return l_sim, l_reg, cfg.lambda_sim * l_sim + cfg.lambda_reg * l_reg

    for va, vb in reversed(pyramid):
        if u_ab is None:
            u_ab = u_ba = np.zeros(va.shape + (2,))
        else:
            h, w = va.shape
            half = np.stack(np.meshgrid(np.arange(h) / 2.0, np.arange(w) / 2.0, indexing="ij"), -1)
            u_ab = 2.0 * sample_values(u_ab, half)
            u_ba = 2.0 * sample_values(u_ba, half)
        for i in range(cfg.iterations_per_level):
            if i > 0:
                history.append((it - 1, *terms(va, vb)))
            u_ab = _reference_half_step(va, vb, u_ab, u_ba, cfg)[0]
            u_ba = _reference_half_step(vb, va, u_ba, u_ab, cfg)[0]
            it += 1
        history.append((it - 1, *terms(va, vb)))
    return u_ab, u_ba, history


@settings(max_examples=25)
@given(
    h=st.integers(9, 21),
    w=st.integers(9, 21),
    n=st.integers(1, 3),
    levels=st.integers(1, 2),
    iterations=st.integers(1, 3),
    lambda_sim=st.sampled_from([0.3, 0.7, 1.3]),
    lambda_reg=st.sampled_from([0.0, 0.6, 1.7]),
    step=st.sampled_from([0.2, 0.45]),
    sigma_update=st.sampled_from([0.0, 0.7, 1.0, 1.6]),
    sigma_field=st.sampled_from([0.0, 0.5, 1.2]),
    seed=st.integers(0, 2**16),
)
def test_register_pairs_replays_plain_descent(
    h, w, n, levels, iterations, lambda_sim, lambda_reg, step, sigma_update, sigma_field, seed
):
    # register_pairs runs its pairs as one batch in one workspace, with
    # fused gathers and in-place scratch. Each pair must still give, bit
    # for bit, the fields and loss history of plain alternating descent
    # written from the one-shot wrappers and scipy's gaussian_filter, one
    # pair at a time.
    assume(h != w)
    grid = Grid(h, w)
    cfg = RegistrationConfig(
        lambda_sim=lambda_sim, lambda_reg=lambda_reg, pyramid_levels=levels,
        iterations_per_level=iterations, step_size=step,
        update_smoothing_sigma=sigma_update, field_smoothing_sigma=sigma_field,
    )
    rng = np.random.default_rng(seed)
    fixed = [ScalarImage(grid, _texture(rng, h, w)) for _ in range(n)]
    moving = [ScalarImage(grid, _texture(rng, h, w)) for _ in range(n)]
    for a, b, res in zip(fixed, moving, register_pairs(fixed, moving, cfg)):
        u_ab, u_ba, history = _reference_register(a.values, b.values, cfg)
        assert _bits(res.phi_ab.u) == _bits(u_ab)
        assert _bits(res.phi_ba.u) == _bits(u_ba)
        assert res.loss_history == history
