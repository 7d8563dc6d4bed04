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
(registration samples and splats at ``x + u`` several times per step) places
the stencil once and reuses it. ``sample_values``, ``sample_values_grad`` and
``splat_values`` are one-shot wrappers for callers with a single use.

The stencil does not check its points, because the registration loop
re-places two stencils an iteration. Points must be finite, and the entry
points check that they are, raising ``DomainError``: the public wrappers
above (and through them ``sample_field``, ``compose`` and ``warp_image``)
and ``registration.frozen_loss_and_grad``. Inside the registration loop the
displacement-length check before each placement rejects NaN and inf.

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

A stencil is made one way: ``Stencil(points, shape)`` allocates it for
point sets of shape ``points``, and :meth:`Stencil.displace` alone places
it. That writes the points x + u of planar arrays into the stencil's own
coordinate arrays, clamps them there, takes the clamp masks and forms the
corner indices. ``displace(x)`` places it at x exactly, as the one-shot
wrappers do with their points; a loop that moves its points every
iteration keeps one stencil and re-places it at x + u, without any point
array. One buffer policy serves every gather: ``sample`` gathers into
the caller's ``work`` or, without it, into a buffer the stencil owns, and
writes into the caller's ``out`` if given; ``splat`` takes ``out`` and
``work`` too. With ``grad=...``, ``sample`` also returns the derivative of
the last value plane from the same gather, so registration samples a field
and an image stacked as one array in one ``take``.
:class:`DisplacedGrid` packages the re-placement for the ``lie`` loops,
which sample a field at its own displaced grid x + w; the registration loop
keeps one stencil per direction and one scratch block for the temporaries
of both. At a batch of 64^2 fields or at 256^2 every fresh temporary costs
page faults, so a loop that allocated its stencil and samples anew each
iteration spent much of its time faulting.

A large ``DisplacedGrid`` splits its rows into contiguous bands, one stencil
each, and runs the per-pixel work of an iteration on the bands at once, on
threads that a solve opens and joins; a band's stencil gathers from the
whole field. The pixel work is elementwise and every sum over the grid stays
on the calling thread, so the results are bit for bit those of one band.
Below ``_BAND_PIXELS`` pixels a band, with one usable CPU, or in a
``multiprocessing`` child, there is one band and no thread: the GIL that
small numpy calls hold makes threads slower there. One rule, ``_workers``,
sizes both the bands and ``atlas_step``'s pool of forked workers, so a
child of that pool, or of any other, solves on one band and starts no pool
of its own; ``_chunks`` splits the rows into bands and the subjects among
the workers.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, check_integer, check_power_of_two


@dataclass(frozen=True)
class Grid:
    """Pixel grid with unit spacing."""

    height: int
    width: int

    def __post_init__(self):
        check_integer("height", self.height)
        check_integer("width", self.width)
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
    The points have a shape of their own; with a subject axis it leads with
    N, and subject ``n``'s points read plane ``n`` only. Placed at a point
    set, the stencil keeps what sampling, sampling with the derivative and
    the adjoint splat all need: the fractional offsets ``fr``, ``fc``
    toward the +1 corners, a ``(4, ...)`` array ``k4`` of flat node indices
    of the corners (00, 01, 10, 11), and the clamp masks ``outside``, a
    ``(2, ...)`` bool array that is true where the row or the column of a
    point lies on or beyond the domain edge. Indices run over the flattened
    stack, so subject ``n``'s are offset by ``n*H*W`` and one gather or one
    ``np.bincount`` serves all subjects.

    The methods take channel-first values, ``(*lead, *shape)`` for sampling
    and ``(*lead, *points)`` for the splat, with any leading channel axes,
    and compute all planes at once: one ``np.take`` gathers the corners of
    every plane, ``fr`` and ``fc`` broadcast over the leading axes, and the
    splat runs one ``np.bincount`` per leading plane into one output array.

    The constructor allocates the stencil for point sets of shape
    ``points``; only :meth:`displace` places it. That writes the points
    x + u into the stencil's own arrays, clamps them there, takes the masks
    and forms ``k4``, so a loop keeps one stencil and re-places it. A
    re-placed stencil is bit for bit a fresh one placed at the same points,
    and keeps no reference to the caller's arrays.
    ``sample`` gathers into the caller's ``work`` if given, otherwise into a
    buffer the stencil owns; ``sample`` and ``splat`` write into the
    caller's ``out`` if given. So a loop that samples and splats every
    iteration allocates only ``np.bincount``'s result.

    The points must be finite; the stencil does not check them (see the
    module docstring for where that check lives).
    """

    def __init__(self, points, shape):
        self.shape = tuple(shape)
        h, w = self.shape[-2:]
        self._size = int(np.prod(self.shape))
        self._frc = np.empty((2,) + tuple(points))
        self.k4 = np.empty((4,) + tuple(points), dtype=np.intp)
        # Views of the rows of _frc and k4: 0-d arrays rather than scalars
        # for one point.
        self.fr, self.fc = self._frc[0, ...], self._frc[1, ...]
        self._k_rows = tuple(self.k4[i, ...] for i in range(4))
        # The clamp masks, then the upper-edge tests while they are formed.
        self.outside, self._edge = np.empty((2,) + self._frc.shape, dtype=bool)
        self._offset = None
        if len(self.shape) == 3 and self.shape[0] > 1:
            n = self.shape[0]
            self._offset = (np.arange(n) * (h * w)).reshape((n,) + (1,) * (len(points) - 1))
        # The largest corner row and column, broadcast over the points.
        self._corner_max = np.array([h - 2.0, w - 2.0]).reshape((2,) + (1,) * len(points))
        # The last plane along the last leading axis (see sample's grad).
        self._last = (Ellipsis, -1) + (slice(None),) * len(points)
        self._work = None

    def displace(self, x: np.ndarray, u: np.ndarray | float = -0.0) -> "Stencil":
        """Place the stencil at the points x + u of planar ``(2, *points)``
        arrays; ``x`` and ``u`` broadcast against the points.

        The sum is written into the stencil's own coordinate arrays, so a
        loop that moves its points every iteration keeps one stencil and
        allocates nothing. With ``x`` alone the stencil is placed at x
        exactly: adding -0.0 keeps every coordinate's bits, -0.0 included.
        Returns the stencil.
        """
        np.add(x, u, out=self._frc)
        return self._place()

    def _place(self) -> "Stencil":
        """Clamp the points written in ``fr`` and ``fc`` to the grid, in
        place, take the clamp masks of the derivative, and form the corner
        indices ``k4`` and the offsets toward the +1 corners.

        A clamped coordinate is on the edge exactly where the point lies on
        or beyond it, so the masks, (p <= 0) | (p >= edge) of the points p,
        are read from the clamped coordinates. Those are non-negative, so
        the cast to an integer is the floor, and flooring before or after
        the minimum with h - 2 gives the same corner. k01 and k10 hold the
        corner row and column until k00 is formed.
        """
        h, w = self.shape[-2:]
        fr, fc = self.fr, self.fc
        # The array method skips np.clip's dispatch wrapper.
        fr.clip(0.0, h - 1.0, out=fr)
        fc.clip(0.0, w - 1.0, out=fc)
        outside, edge = self.outside, self._edge
        np.less_equal(self._frc, 0.0, out=outside)
        np.greater_equal(fr, h - 1.0, out=edge[0, ...])
        np.greater_equal(fc, w - 1.0, out=edge[1, ...])
        outside |= edge
        k00, k01, k10, k11 = self._k_rows
        np.minimum(self._frc, self._corner_max, out=self.k4[1:3], casting="unsafe")
        self._frc -= self.k4[1:3]
        np.multiply(k01, w, out=k00)
        k00 += k10
        if self._offset is not None:
            k00 += self._offset
        np.add(k00, 1, out=k01)
        np.add(k00, w, out=k10)
        np.add(k00, w + 1, out=k11)
        return self

    def _corners(self, values: np.ndarray, work: np.ndarray | None):
        """The four corner values 00, 01, 10, 11 of every point, each of
        shape ``(*lead, *points)``, from one gather over ``(*lead, *shape)``
        values, into ``work`` if given. Without it they go into a buffer
        the stencil keeps across calls and placements, grown to the largest
        gather asked of it."""
        lead = values.shape[: values.ndim - len(self.shape)]
        flat = values.reshape(lead + (-1,))
        if work is None:
            size = 4 * (values.size // self._size) * self.fr.size
            if self._work is None or self._work.size < size:
                self._work = np.empty(size)
            work = self._work
        # Under the default mode="raise", take writes through a hidden copy
        # when it gets out=; the indices are in range by construction, so
        # "clip" changes no value and skips the copy.
        buf = _work_view(work, lead + self.k4.shape)
        corners = flat.take(self.k4, axis=-1, out=buf, mode="clip")
        # Corner axis first, as a view. The loops gather with one leading
        # (component) axis, so that case takes the cheapest call.
        if len(lead) == 1:
            return corners.swapaxes(0, 1)
        return np.rollaxis(corners, len(lead))

    def sample(
        self,
        values: np.ndarray,
        out: np.ndarray | None = None,
        grad: np.ndarray | None = None,
        work: np.ndarray | None = None,
    ) -> np.ndarray:
        """Bilinear sample of ``(*lead, *shape)`` values at the points.

        The corners are gathered into ``work``, a C-contiguous float64 array
        of at least four times the planes of the result, or without it into
        a buffer the stencil owns and reuses. With ``out``, a
        ``(*lead, *points)`` float64 array, the result is written there, so
        a loop that samples every iteration allocates nothing. The corners
        are gathered before ``out`` is written, so ``out`` may be ``values``
        itself.

        With ``grad``, a ``(2, *lead[:-1], *points)`` float64 array, the
        derivatives along rows and columns of the last plane along the last
        leading axis, ``values[..., -1, <grid>]``, are written there too,
        zero where the coordinate is clamped (see :meth:`sample_grad`). So
        a field and an image stacked as one ``(3, ...)`` array give the
        image's derivative from the same gather as the field's sample.
        """
        v00, v01, v10, v11 = self._corners(values, work)
        fr, fc = self.fr, self.fc
        # top = v00 + fc (v01 - v00), bot = v10 + fc (v11 - v10) and
        # top + fr (bot - top), computed in place on the gathered corners:
        # the same operations on the same operands, without temporaries.
        # The derivative is d_row = bot - top and d_col = right - left with
        # left = v00 + fr (v10 - v00), right = v01 + fr (v11 - v01), taken
        # from the last plane's corners before they are overwritten.
        if grad is not None:
            last = self._last
            # [i, ...] views stay arrays for one point given as 0-d.
            d_row, d_col = grad[0, ...], grad[1, ...]
            np.subtract(v11[last], v01[last], out=d_col)
            d_col *= fr
            d_col += v01[last]
            np.subtract(v10[last], v00[last], out=d_row)
            d_row *= fr
            d_row += v00[last]
            d_col -= d_row
        top = v01 - v00 if out is None else np.subtract(v01, v00, out=out)
        top *= fc
        top += v00
        v11 -= v10
        v11 *= fc
        v11 += v10
        v11 -= top
        if grad is not None:
            outside_row, outside_col = self.outside
            np.copyto(d_row, v11[last])
            np.copyto(d_row, 0.0, where=outside_row)
            np.copyto(d_col, 0.0, where=outside_col)
        v11 *= fr
        top += v11
        return top

    def sample_grad(
        self,
        values: np.ndarray,
        out: np.ndarray | None = None,
        grad: np.ndarray | None = None,
    ):
        """Sample plus its exact derivative w.r.t. the point coordinates, of
        every plane of ``(*lead, *shape)`` values.

        Returns (value, d/d_row, d/d_col). The derivative is zero where the
        coordinate is clamped: on the domain edge or outside it. The value
        goes into ``out``, a ``(*lead, *points)`` float64 array, and the
        derivatives into ``grad``, ``(2, *lead, *points)``, when given;
        otherwise into fresh arrays.
        """
        lead = values.ndim - len(self.shape)
        if out is None:
            out = np.empty(values.shape[:lead] + self.fr.shape)
        if grad is None:
            grad = np.empty((2,) + out.shape)
        # A unit axis after the leading axes makes every plane "the last
        # along the last axis".
        self.sample(np.expand_dims(values, lead), np.expand_dims(out, lead), grad)
        return out, grad[0], grad[1]

    def splat(
        self,
        values: np.ndarray,
        out: np.ndarray | None = None,
        work: np.ndarray | None = None,
    ) -> np.ndarray:
        """Adjoint of :meth:`sample`: scatter per-point values onto the nodes.

        ``values`` has shape ``(*lead, *points)``; returns ``(*lead, *shape)``
        bilinearly weighted sums, in ``out`` (C-contiguous) if given. One
        ``np.bincount`` per leading plane adds into each node in the order
        of the corners 00, 01, 10, 11, then of the points. ``work``, a
        C-contiguous float64 array of at least eight point planes, holds the
        corner weights and the weighted values.
        """
        fr, fc = self.fr, self.fc
        if work is None:
            w4 = np.empty((4,) + fr.shape)
            weighted = np.empty_like(w4)
        else:
            w4, weighted = _work_view(work, (2, 4) + fr.shape)
        # The weights (1-fr)(1-fc), (1-fr) fc, fr (1-fc) and fr fc of the
        # corners, with 1-fr and 1-fc held in rows 0 and 2 until they are
        # used: no temporaries, which at a batch of 64^2 fields are large
        # enough to cost page faults on every call. The rows are [i, ...]
        # views, so that they stay arrays for one point given as 0-d.
        np.subtract(1, fr, out=w4[0, ...])
        np.multiply(w4[0, ...], fc, out=w4[1, ...])
        np.subtract(1, fc, out=w4[2, ...])
        np.multiply(w4[0, ...], w4[2, ...], out=w4[0, ...])
        np.multiply(fr, w4[2, ...], out=w4[2, ...])
        np.multiply(fr, fc, out=w4[3, ...])
        idx = self.k4.ravel()
        size = self._size
        lead = values.shape[: values.ndim - fr.ndim]
        if out is None:
            out = np.empty(lead + self.shape)
        for plane, r in zip(out.reshape(-1, size), values.reshape((-1,) + fr.shape)):
            np.multiply(w4, r, out=weighted)
            plane[:] = np.bincount(idx, weighted.ravel(), size)
        return out


def _work_view(work: np.ndarray, shape) -> np.ndarray:
    """A float64 array of ``shape`` on the front of the C-contiguous
    ``work``; raises rather than copy if ``work`` is not contiguous or is
    too small."""
    return np.ndarray(shape, buffer=work)


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _chunks(n, parts):
    """``parts`` contiguous slices of ``range(n)``, in order, whose lengths
    differ by at most one."""
    size, extra = divmod(n, parts)
    bounds = [k * size + min(k, extra) for k in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# A DisplacedGrid gives each band at least this many pixels. On a 2-CPU
# host, log_field plus invert on two bands took 1.22x the time of one band
# at 128^2 and 1.07x at 136^2, 0.86x at 160^2 and 0.65x at 256^2; so two
# bands start at 24576 px, about 157^2.
_BAND_PIXELS = 12288


def _workers(limit) -> int:
    """Workers for at most ``limit`` independent pieces of work: one per
    usable CPU, and at least one. A ``multiprocessing`` child, whose
    siblings hold the other CPUs, gets one. The row bands of a solve and
    ``atlas_step``'s pool are both sized here."""
    if multiprocessing.parent_process() is not None:
        return 1
    return max(1, min(limit, _usable_cpus()))


def _band_count(shape) -> int:
    """Row bands for a solve on a grid of ``shape``: :func:`_workers` for at
    most one band per ``_BAND_PIXELS`` pixels and one per row."""
    h, w = shape
    return _workers(min(h * w // _BAND_PIXELS, h))


class _Band:
    """One contiguous block of rows of a :class:`DisplacedGrid`: the
    coordinates ``x`` of those rows, its own stencil of the points x + w
    there, its own finiteness mask and
    a planar view of its rows of the grid's ``(H, W, 2)`` squares. The
    methods take whole ``(2, H, W)`` arrays and read and write the band's
    rows of them; samples gather from the whole field."""

    def __init__(self, x: np.ndarray, rows: slice, squares: np.ndarray):
        self.rows = rows
        self.x = x[:, rows]
        self._finite = np.empty(self.x.shape, dtype=bool)
        self._stencil = Stencil(self.x.shape[1:], x.shape[1:])
        self._squares = squares.transpose(2, 0, 1)[:, rows]

    def square(self, a: np.ndarray):
        """The squares of the band's rows of the ``(2, H, W)`` array ``a``,
        into the grid's squares, for :meth:`DisplacedGrid.rms`."""
        a = a[:, self.rows]
        np.multiply(a, a, out=self._squares)

    def composed(self, v: np.ndarray, w: np.ndarray, out: np.ndarray, grad=None) -> np.ndarray:
        """w + v(x + w) on the band's rows, into the same rows of ``out``:
        the displacement of ``compose(g, f)`` for the fields g of v and f
        of w, with the same operations on the same operands, so the same
        bits. With ``grad``, a ``(2, 2, H, W)`` array, the derivatives of v
        along rows and columns at x + w go into its band's rows too, as
        :meth:`Stencil.sample_grad` gives them. ``out`` is a ``(2, H, W)``
        array other than ``v`` and ``w``; returns its band. Raises
        DomainError if w is not finite on the band's rows."""
        rows = self.rows
        w = w[:, rows]
        if not np.isfinite(w, out=self._finite).all():
            raise DomainError("sample points must be finite")
        stencil = self._stencil.displace(self.x, w)
        out = out[:, rows]
        if grad is None:
            stencil.sample(v, out=out)
        else:
            stencil.sample_grad(v, out, grad[:, :, rows])
        out += w
        return out


class DisplacedGrid:
    """The points x + w(x) of a grid for planar ``(2, H, W)`` fields w, as
    one stencil per band of rows, re-placed whenever the field moves.

    A solver that samples a field at its own displaced grid every iteration
    (``lie.sqrt_field``, ``lie.invert``) keeps one for the whole loop, so
    the finiteness masks and the stencils' arrays are allocated once. Each
    placement checks that the field is finite on its rows, as
    ``sample_values`` checks its points: x + w is finite exactly where w is.

    The grid splits its rows into ``_band_count`` contiguous bands of
    ``_chunks``; a 2-CPU host gets two bands from about 157^2 up and one
    below, and a ``multiprocessing`` child gets one at any size.
    The solver hands :meth:`run` the per-pixel part of an iteration, such
    as :meth:`_Band.composed`, which reads the whole field, read-only,
    and writes its band's rows; the solver keeps
    whatever sums over the grid (RMS values, stop tests) on the calling
    thread, so its results are bit for bit those of one band.

    Stop tests and residuals are RMS values summed in ``(H, W, 2)`` order,
    so they carry the bits of ``field_rms`` on the channel-last field:
    ``np.mean`` sums a contiguous array in memory order, and a planar mean
    can differ in the last bits. So the grid keeps the squares in the
    solver's ``(H, W, 2)`` buffer ``squares``: each band writes its rows
    (:meth:`_Band.square`), and :meth:`rms` takes the one mean on the
    calling thread. The solver allocates that buffer right after its planar
    copy of the input, since where it sits in the heap shows in the peak
    memory of a process that keeps results: allocated here, after the
    solver's own arrays, it raised perfbench's algebra256 peak RSS from
    about 330 to 339-340 MB.

    Used as a context manager, a grid of several bands opens a thread pool
    that the exit shuts down and joins: no thread outlives a solve, so
    ``atlas_step`` still finds no other thread alive when it forks. At one
    band :meth:`run` is one call on the whole grid, and no pool starts.
    """

    def __init__(self, grid: Grid, squares: np.ndarray):
        x = np.indices(grid.shape, dtype=np.float64)
        self._squares = squares
        bands = _chunks(grid.height, _band_count(grid.shape))
        self.bands = [_Band(x, rows, squares) for rows in bands]
        self._pool = None

    def __enter__(self) -> "DisplacedGrid":
        if len(self.bands) > 1:
            self._pool = ThreadPoolExecutor(len(self.bands) - 1)
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def run(self, task, *args):
        """``task(band, *args)`` for every band: band 0 on the calling
        thread, the others on the pool. Every band finishes before this
        returns; if any raised, the lowest band's exception is re-raised.
        Outside a ``with`` block the bands run in turn on the calling
        thread."""
        if self._pool is None:
            for band in self.bands:
                task(band, *args)
            return
        first, *rest = self.bands
        # Each band runs in a copy of the caller's context, so numpy's
        # errstate holds on every thread.
        futures = [
            self._pool.submit(contextvars.copy_context().run, task, band, *args)
            for band in rest
        ]
        errors = []
        try:
            task(first, *args)
        except Exception as err:
            errors.append(err)
        errors += [e for e in (f.exception() for f in futures) if e is not None]
        if errors:
            raise errors[0]

    def rms(self) -> float:
        """The RMS of the squares the bands last wrote."""
        return float(np.sqrt(np.mean(self._squares)))


def _sq_lengths(u: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """u[0]² + u[1]², the squared vector lengths of a planar ``(2, ...)``
    field, as the first plane of ``tmp``: a C-contiguous array of u's shape,
    allocated when not given."""
    if tmp is None:
        tmp = np.empty(u.shape)
    np.multiply(u, u, out=tmp)
    tmp[0] += tmp[1]
    return tmp[0]


def _point_stencil(points: np.ndarray, shape) -> Stencil:
    """Stencil of (..., 2) points on the grid of an (H, W[, C]) array."""
    if points.shape[-1:] != (2,):
        raise ShapeError(f"points must be (..., 2) coordinates, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise DomainError("sample points must be finite")
    return Stencil(points.shape[:-1], shape[:2]).displace(np.moveaxis(points, -1, 0))


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
    check_power_of_two("m", m)
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
    return _nonpositive_percent(jacobian_determinant(field).values)


def _nonpositive_percent(det: np.ndarray) -> float:
    """Percent of the entries of a determinant map that are <= 0."""
    return 100.0 * float(np.count_nonzero(det <= 0.0)) / det.size


def field_rms_diff(a: DisplacementField, b: DisplacementField) -> float:
    """RMS of component-wise differences, averaged over pixels and components."""
    _check_same_grid(a, b)
    d = a.u - b.u
    return float(np.sqrt(np.mean(d * d)))


def field_rms(a: DisplacementField) -> float:
    """RMS displacement magnitude of a field (distance from the identity)."""
    return float(np.sqrt(np.mean(a.u * a.u)))
