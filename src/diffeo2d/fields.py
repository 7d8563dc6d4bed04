"""Grid-based images and fields: sampling, composition, warping, and
Jacobian analysis.

Grid types: :class:`ScalarImage`, :class:`LabelImage`,
:class:`DisplacementField` and :class:`LogField` (v with exp(v) = phi). The
float types check their arrays in one place, ``_grid_array``. ``LogField``
is not a ``DisplacementField``, so ``compose`` and ``warp_image`` cannot
take it.

Conventions (normative for the whole package):

* Arrays are indexed ``[row, col]``; vector components are ordered
  ``(row-displacement, col-displacement)``.
* A deformation maps ``x -> x + u(x)`` with ``u`` in pixels.
* Sampling outside ``[0, H-1] x [0, W-1]`` clamps the coordinate to the
  boundary before interpolating (zero-gradient extension).
* RMS distances average over pixels *and* components before the square root.
* All field arithmetic is float64.

Bilinear sampling, its derivative and its adjoint splat all go through
:class:`Stencil`, which clamps and indexes a point set once. One point set
has one stencil: code that reads the same points more than once
(registration samples and splats at ``x + u`` several times per step) builds
the stencil once and reuses it. ``sample_values``, ``sample_values_grad`` and
``splat_values`` are one-shot wrappers for callers with a single use.

The stencil does not check its points, because registration builds two
stencils an iteration. Points must be finite, and the entry points check
that they are, raising ``DomainError``: the public wrappers above (and
through them ``sample_field``, ``compose`` and ``warp_image``) and
``registration.frozen_loss_and_grad``. Inside the registration loop the
displacement-length check that builds each stencil rejects NaN and inf.

The stencil is planar: it takes the row and column coordinates as two
arrays and values channel-first, ``(*lead, H, W)`` with any leading channel
axes, because weights that broadcast over a trailing axis of length 2 cost
several times more than the same products on a plane. One gather reads the
corners of every plane and the weights broadcast over the leading axes.
Fields keep their ``(H, W, 2)`` layout outside. ``sample_values``,
``sample_values_grad`` and ``splat_values`` move the channel axis to the
front and back on every call; the iterative loops ``sqrt_field`` and
``invert`` in ``lie`` move it once on entry and once on exit. A stencil may
also carry a leading subject axis, ``(N, H, W)``: N point sets on N grids
of one shape, indexed into one flattened stack, so that a batch of
registrations costs one gather and one splat per plane, not N.

A loop that moves its points every iteration need not build a new stencil:
:meth:`Stencil.build` rewrites one in place, and ``sample(values, out=...)``
writes into the caller's array and gathers into a buffer the stencil owns.
:class:`DisplacedGrid` packages this for the loops that sample a field at
its own displaced grid x + w. At 256^2 every fresh temporary costs page
faults, so a loop that allocated its stencil and samples anew each
iteration spent much of its time faulting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class Grid:
    """Pixel grid with unit spacing."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 2 or self.width < 2:
            raise DomainError(
                f"grid must be at least 2x2, got {self.height}x{self.width}"
            )

    @property
    def shape(self):
        return (self.height, self.width)

    @property
    def n_pixels(self):
        return self.height * self.width


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ShapeError(f"grid mismatch: {a.grid} vs {b.grid}")


def _grid_array(values, shape, what) -> np.ndarray:
    """``values`` as a C-contiguous float64 array, checked to have ``shape``
    and finite entries. A contiguous float64 input is kept, not copied;
    anything else (a transposed view, say) is copied, so that reductions over
    the field sum in one order whatever view it was built from."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != shape:
        raise ShapeError(f"{what} shape {values.shape} != {shape}")
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} contains non-finite values")
    return values


@dataclass
class ScalarImage:
    """Real-valued image on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _grid_array(self.values, self.grid.shape, "image")


@dataclass
class LabelImage:
    """Integer label map; label 0 is background."""

    grid: Grid
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise DomainError("labels must be an integer array")
        self.labels = self.labels.astype(np.int64)
        if self.labels.shape != self.grid.shape:
            raise ShapeError(
                f"label shape {self.labels.shape} != grid {self.grid.shape}"
            )
        if np.any(self.labels < 0):
            raise DomainError("labels must be non-negative")

    def label_set(self):
        return sorted(int(v) for v in np.unique(self.labels))


@dataclass
class DisplacementField:
    """Displacement field u of shape (H, W, 2); deformation is x + u(x)."""

    grid: Grid
    u: np.ndarray

    def __post_init__(self):
        self.u = _grid_array(self.u, self.grid.shape + (2,), "displacement field")


@dataclass
class LogField:
    """Tangent-space vector field v with exp(v) = phi, shape (H, W, 2)."""

    grid: Grid
    v: np.ndarray

    def __post_init__(self):
        self.v = _grid_array(self.v, self.grid.shape + (2,), "log field")


def identity_field(grid: Grid) -> DisplacementField:
    """Zero displacement: the group identity."""
    return DisplacementField(grid, np.zeros((grid.height, grid.width, 2)))


def grid_coords(grid: Grid) -> np.ndarray:
    """(H, W, 2) array of pixel coordinates."""
    r, c = np.meshgrid(
        np.arange(grid.height, dtype=np.float64),
        np.arange(grid.width, dtype=np.float64),
        indexing="ij",
    )
    return np.stack([r, c], axis=-1)


class Stencil:
    """Clamped bilinear stencil of one point set on one grid, or of N point
    sets on a stack of N grids of one shape.

    ``shape`` is ``(H, W)``, or ``(N, H, W)`` with a leading subject axis.
    ``rows`` and ``cols`` hold the point coordinates; with a subject axis
    they lead with it too, and subject ``n``'s points read plane ``n`` only.
    Built once per point set, the stencil keeps what sampling, sampling
    with the derivative and the adjoint splat all need: the fractional
    offsets ``fr``, ``fc`` toward the +1 corners and a ``(4, ...)`` array
    ``k4`` of flat node indices of the corners (00, 01, 10, 11). Indices
    run over the flattened stack, so subject ``n``'s are offset by
    ``n*H*W`` and one gather or one ``np.bincount`` serves all subjects.

    The methods take channel-first values, ``(*lead, *shape)`` for sampling
    and ``(*lead, *points)`` for the splat, with any leading channel axes,
    and compute all planes at once: one ``np.take`` gathers the corners of
    every plane, ``fr`` and ``fc`` broadcast over the leading axes, and the
    splat runs one ``np.bincount`` per leading plane into one output array.

    The constructor allocates ``fr``, ``fc`` and ``k4`` and calls
    :meth:`build`, which a loop may call again on new points of the same
    shape; the rebuilt stencil is bit for bit a fresh one.

    The points must be finite; neither the constructor nor :meth:`build`
    checks them (see the module docstring for where that check lives).
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape):
        self.shape = tuple(shape)
        points = rows.shape
        self.fr = np.empty(points)
        self.fc = np.empty(points)
        self.k4 = np.empty((4,) + points, dtype=np.intp)
        # Views of k4's rows; 0-d arrays rather than scalars for one point.
        self._k_rows = tuple(self.k4[i, ...] for i in range(4))
        self._gathered = None
        self.build(rows, cols)

    def build(self, rows: np.ndarray, cols: np.ndarray) -> "Stencil":
        """Point the stencil at new points of the same shape, in place.

        Writes ``fr``, ``fc`` and ``k4`` into the arrays the constructor
        allocated, so a loop that moves its points every iteration keeps
        one stencil and allocates nothing. ``rows`` and ``cols`` are kept
        by reference for :meth:`sample_grad`'s clamp masks, so they must
        hold these points until the stencil is used. Returns the stencil.
        """
        h, w = self.shape[-2:]
        self.rows = rows
        self.cols = cols
        fr, fc = self.fr, self.fc
        k00, k01, k10, k11 = self._k_rows
        # The array method skips np.clip's dispatch wrapper and makes no
        # temporary. Clamped coordinates are non-negative, so the cast to
        # an integer is the floor, and flooring before or after the
        # minimum with the integer h - 2 gives the same corner. k01 and k10
        # hold the corner row and column until k00 is formed.
        rows.clip(0.0, h - 1.0, out=fr)
        cols.clip(0.0, w - 1.0, out=fc)
        np.minimum(fr, h - 2, out=k01, casting="unsafe")
        np.minimum(fc, w - 2, out=k10, casting="unsafe")
        fr -= k01
        fc -= k10
        np.multiply(k01, w, out=k00)
        k00 += k10
        if len(self.shape) == 3 and self.shape[0] > 1:
            n = self.shape[0]
            k00 += (np.arange(n) * (h * w)).reshape((n,) + (1,) * (fr.ndim - 1))
        np.add(k00, 1, out=k01)
        np.add(k00, w, out=k10)
        np.add(k00, w + 1, out=k11)
        return self

    def _corners(self, values: np.ndarray, owned: bool = False):
        """The four corner values 00, 01, 10, 11 of every point, each of
        shape ``(*lead, *points)``, from one gather over ``(*lead, *shape)``
        values. With ``owned`` the gather writes into a buffer the stencil
        keeps across calls and rebuilds."""
        lead = values.shape[: values.ndim - len(self.shape)]
        flat = values.reshape(lead + (-1,))
        if owned:
            shape = lead + self.k4.shape
            if self._gathered is None or self._gathered.shape != shape:
                self._gathered = np.empty(shape)
            # Under the default mode="raise", take writes through a hidden
            # copy when it gets out=; the indices are in range by
            # construction, so "clip" changes no value and skips the copy.
            corners = flat.take(self.k4, axis=-1, out=self._gathered, mode="clip")
        else:
            corners = flat.take(self.k4, axis=-1)
        # Corner axis first, as a view. Registration gathers six times an
        # iteration with one leading (component) axis, so that case takes
        # the cheapest call.
        if len(lead) == 1:
            return corners.swapaxes(0, 1)
        return np.rollaxis(corners, len(lead))

    def sample(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear sample of ``(*lead, *shape)`` values at the points.

        With ``out``, a ``(*lead, *points)`` float64 array, the result is
        written there and the corners are gathered into a buffer the
        stencil owns and reuses, so a loop that samples every iteration
        allocates nothing. The corners are gathered before ``out`` is
        written, so ``out`` may be ``values`` itself.
        """
        # top = v00 + fc (v01 - v00), bot = v10 + fc (v11 - v10) and
        # top + fr (bot - top), computed in place on the gathered corners:
        # the same operations on the same operands, without temporaries.
        v00, v01, v10, v11 = self._corners(values, out is not None)
        top = v01 - v00 if out is None else np.subtract(v01, v00, out=out)
        top *= self.fc
        top += v00
        v11 -= v10
        v11 *= self.fc
        v11 += v10
        v11 -= top
        v11 *= self.fr
        top += v11
        return top

    def sample_grad(self, values: np.ndarray):
        """Sample plus its exact derivative w.r.t. the point coordinates.

        Returns (value, d/d_row, d/d_col). The derivative is zero where the
        coordinate is clamped outside the domain.
        """
        h, w = self.shape[-2:]
        fr, fc = self.fr, self.fc
        # As in sample, plus d_row = bot - top and d_col = right - left with
        # left = v00 + fr (v10 - v00), right = v01 + fr (v11 - v01).
        v00, v01, v10, v11 = self._corners(values)
        top = v01 - v00
        top *= fc
        top += v00
        d_row = v11 - v10
        d_row *= fc
        d_row += v10
        d_row -= top
        val = fr * d_row
        val += top
        v10 -= v00
        v10 *= fr
        v10 += v00
        v11 -= v01
        v11 *= fr
        v11 += v01
        inside_r = (self.rows > 0.0) & (self.rows < h - 1.0)
        inside_c = (self.cols > 0.0) & (self.cols < w - 1.0)
        return val, np.where(inside_r, d_row, 0.0), np.where(inside_c, v11 - v10, 0.0)

    def splat(self, values: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`sample`: scatter per-point values onto the nodes.

        ``values`` has shape ``(*lead, *points)``; returns ``(*lead, *shape)``
        bilinearly weighted sums. One ``np.bincount`` per leading plane adds
        into each node in the order of the corners 00, 01, 10, 11, then of
        the points.
        """
        fr, fc = self.fr, self.fc
        # The weights (1-fr)(1-fc), (1-fr) fc, fr (1-fc) and fr fc of the
        # corners, written into one array with 1-fr and 1-fc held in its
        # rows 0 and 2 until they are used: no temporaries, which at a batch
        # of 64^2 fields are large enough to cost page faults on every call.
        w4 = np.empty((4,) + fr.shape)
        np.subtract(1, fr, out=w4[0])
        np.multiply(w4[0], fc, out=w4[1])
        np.subtract(1, fc, out=w4[2])
        np.multiply(w4[0], w4[2], out=w4[0])
        np.multiply(fr, w4[2], out=w4[2])
        np.multiply(fr, fc, out=w4[3])
        idx = self.k4.ravel()
        size = int(np.prod(self.shape))
        lead = values.shape[: values.ndim - fr.ndim]
        out = np.empty(lead + (size,))
        weighted = np.empty_like(w4)
        for plane, r in zip(out.reshape(-1, size), values.reshape((-1,) + fr.shape)):
            np.multiply(w4, r, out=weighted)
            plane[:] = np.bincount(idx, weighted.ravel(), size)
        return out.reshape(lead + self.shape)


class DisplacedGrid:
    """The points x + w(x) of a grid for planar ``(2, H, W)`` fields w, and
    their stencil, rebuilt in place whenever the field moves.

    A solver that samples a field at its own displaced grid every iteration
    (``lie.sqrt_field``, ``lie.invert``) keeps one for the whole loop, so
    the points, their finiteness mask and the stencil's arrays are allocated
    once. Each rebuild checks that the points are finite, as
    ``sample_values`` does.
    """

    def __init__(self, grid: Grid):
        self.x = np.indices(grid.shape, dtype=np.float64)
        self.points = np.empty_like(self.x)
        self._finite = np.empty(self.x.shape, dtype=bool)
        self._stencil = None

    def stencil(self, w: np.ndarray) -> Stencil:
        """The stencil of x + w; raises DomainError if a point is not finite."""
        np.add(self.x, w, out=self.points)
        if not np.isfinite(self.points, out=self._finite).all():
            raise DomainError("sample points must be finite")
        rows, cols = self.points
        if self._stencil is None:
            self._stencil = Stencil(rows, cols, rows.shape)
            return self._stencil
        return self._stencil.build(rows, cols)

    def self_composed(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """w + w(x + w) into ``out``: the displacement of ``compose(f, f)``
        for the field f of w, with the same operations on the same operands,
        so the same bits. ``out`` is a ``(2, H, W)`` array other than ``w``;
        returns it."""
        self.stencil(w).sample(w, out=out)
        out += w
        return out


def _point_stencil(points: np.ndarray, shape) -> Stencil:
    """Stencil of (..., 2) points on the grid of an (H, W[, C]) array."""
    if not np.isfinite(points).all():
        raise DomainError("sample points must be finite")
    return Stencil(points[..., 0], points[..., 1], shape[:2])


def _channels_first(values: np.ndarray, channels: bool) -> np.ndarray:
    """``(C, ...)`` view of a ``(..., C)`` array; without channels, as is."""
    return np.moveaxis(values, -1, 0) if channels else values


def _channels_last(values: np.ndarray, channels: bool) -> np.ndarray:
    """Inverse of :func:`_channels_first`."""
    return np.moveaxis(values, 0, -1) if channels else values


def sample_values(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Bilinear sample of a (H, W) or (H, W, C) array at (..., 2) points.

    Coordinates are clamped to the domain before interpolation. Sampling at
    integer grid coordinates reproduces node values exactly, except on the
    last row and column: those nodes are reached at offset 1 from the cell
    before them, and ``v0 + 1 * (v1 - v0)`` can round away from ``v1``.
    """
    channels = values.ndim == 3
    out = _point_stencil(points, values.shape).sample(_channels_first(values, channels))
    return _channels_last(out, channels)


def sample_values_grad(values: np.ndarray, points: np.ndarray):
    """Bilinear sample plus its derivative; see :meth:`Stencil.sample_grad`."""
    channels = values.ndim == 3
    stencil = _point_stencil(points, values.shape)
    outs = stencil.sample_grad(_channels_first(values, channels))
    return tuple(_channels_last(out, channels) for out in outs)


def splat_values(points: np.ndarray, values: np.ndarray, shape) -> np.ndarray:
    """Adjoint of :func:`sample_values`: scatter values at points onto nodes.

    ``points`` is (..., 2), ``values`` is points.shape[:-1] (+ channels);
    returns an array of ``shape`` (+ channels) with bilinearly-weighted sums.
    """
    channels = values.ndim == points.ndim
    out = _point_stencil(points, shape).splat(_channels_first(values, channels))
    return _channels_last(out, channels)


def sample_field(field: DisplacementField, point) -> tuple[float, float]:
    """Bilinear interpolation of the displacement at a single point."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (2,):
        raise ShapeError("point must be a pair of coordinates")
    v = sample_values(field.u, p)
    return (float(v[0]), float(v[1]))


def compose(outer: DisplacementField, inner: DisplacementField) -> DisplacementField:
    """Composition r(x) = outer(inner(x)).

    In displacements: u_r(x) = u_inner(x) + u_outer sampled at x + u_inner(x).
    """
    _check_same_grid(outer, inner)
    x = grid_coords(inner.grid)
    sampled = sample_values(outer.u, x + inner.u)
    return DisplacementField(inner.grid, inner.u + sampled)


def self_compose_m(field: DisplacementField, m: int) -> DisplacementField:
    """Compose a field with itself m times, m a power of two, by repeated
    squaring (m=1 returns the input)."""
    if m < 1 or (m & (m - 1)) != 0:
        raise DomainError(f"m must be a positive power of two, got {m}")
    result = field
    while m > 1:
        result = compose(result, result)
        m //= 2
    return result


def warp_image(image: ScalarImage, field: DisplacementField) -> ScalarImage:
    """Backward warp: out(x) = image sampled at x + u(x)."""
    _check_same_grid(image, field)
    if not np.any(field.u):
        return ScalarImage(image.grid, image.values.copy())
    x = grid_coords(field.grid)
    return ScalarImage(image.grid, sample_values(image.values, x + field.u))


def warp_labels(labels: LabelImage, field: DisplacementField) -> LabelImage:
    """Nearest-neighbor warp of a label map."""
    _check_same_grid(labels, field)
    x = grid_coords(field.grid)
    p = x + field.u
    i = np.clip(np.round(p[..., 0]), 0, field.grid.height - 1).astype(np.intp)
    j = np.clip(np.round(p[..., 1]), 0, field.grid.width - 1).astype(np.intp)
    return LabelImage(labels.grid, labels.labels[i, j])


def jacobian_determinant(field: DisplacementField) -> ScalarImage:
    """Per-pixel det(I + grad u): central differences inside, one-sided at borders."""
    ur = field.u[..., 0]
    uc = field.u[..., 1]
    dur_dr = np.gradient(ur, axis=0)
    dur_dc = np.gradient(ur, axis=1)
    duc_dr = np.gradient(uc, axis=0)
    duc_dc = np.gradient(uc, axis=1)
    det = (1.0 + dur_dr) * (1.0 + duc_dc) - dur_dc * duc_dr
    return ScalarImage(field.grid, det)


def neg_jacobian_fraction(field: DisplacementField) -> float:
    """Percent of pixels with det(I + grad u) <= 0 (a folding measure)."""
    det = jacobian_determinant(field).values
    return 100.0 * float(np.count_nonzero(det <= 0.0)) / det.size


def field_rms_diff(a: DisplacementField, b: DisplacementField) -> float:
    """RMS of component-wise differences, averaged over pixels and components."""
    _check_same_grid(a, b)
    d = a.u - b.u
    return float(np.sqrt(np.mean(d * d)))


def field_rms(a: DisplacementField) -> float:
    """RMS displacement magnitude of a field (distance from the identity)."""
    return float(np.sqrt(np.mean(a.u * a.u)))
