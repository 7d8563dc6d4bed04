"""Synthetic ground-truth generators: phantoms and guaranteed-diffeomorphic
random deformations with known logarithms.

Random deformations are built as exp(v) of a smooth tangent field v, so every
generated subject carries an exact logarithm and an invertible deformation.
Fields are tapered to zero near the border to keep sampling in-bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DEFAULT_DEPTH, DomainError, _shown, check_float, check_integer, check_seed
from .fields import (
    DisplacementField,
    Grid,
    LabelImage,
    LogField,
    ScalarImage,
    _blur,
    _check_same_grid,
    grid_coords,
    warp_image,
    warp_labels,
)
from .lie import exp_field

PHANTOM_KINDS = ("ring_with_bump", "four_label_phantom", "gaussian_blobs")


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry of a deterministic test image.

    ``ring_radius`` defaults to a quarter of the smaller grid dimension.
    Angles are radians; lengths are pixels. Every length and width is
    positive, and ``blob_count`` is at least 1: a zero or negative one
    draws an empty or all-zero phantom, through divisions by zero.
    """

    kind: str
    grid: Grid
    seed: int = 0
    ring_radius: float | None = None
    ring_thickness: float = 2.5
    bump_angle: float = 0.0
    bump_amplitude: float = 0.0
    bump_width: float = 0.5
    blob_count: int = 3
    blob_sigma: float = 5.0

    def __post_init__(self):
        if self.kind not in PHANTOM_KINDS:
            raise DomainError(f"unknown phantom kind {_shown(self.kind, repr)}")
        check_seed(self.seed)
        # A ring_radius of None reads as the default radius, which passes.
        check_float("ring_radius", self.radius, 0, exclusive=True)
        check_float("ring_thickness", self.ring_thickness, 0, exclusive=True)
        check_float("bump_angle", self.bump_angle)
        check_float("bump_amplitude", self.bump_amplitude)
        check_float("bump_width", self.bump_width, 0, exclusive=True)
        check_integer("blob_count", self.blob_count, 1)
        check_float("blob_sigma", self.blob_sigma, 0, exclusive=True)
        half = min(self.grid.height, self.grid.width) / 2.0
        if self.radius + abs(self.bump_amplitude) + self.ring_thickness > half - 4.0:
            raise DomainError(
                "phantom geometry does not fit the grid with a 4 px margin"
            )

    @property
    def radius(self) -> float:
        if self.ring_radius is not None:
            return self.ring_radius
        return min(self.grid.height, self.grid.width) / 4.0

    @property
    def center(self) -> tuple[float, float]:
        return ((self.grid.height - 1) / 2.0, (self.grid.width - 1) / 2.0)


@dataclass(frozen=True)
class RandomFieldSpec:
    """Seeded smooth random tangent field; amplitude is the max vector norm."""

    grid: Grid
    seed: int
    smoothing_sigma: float = 4.0
    amplitude: float = 3.0

    def __post_init__(self):
        check_seed(self.seed)
        check_float("smoothing_sigma", self.smoothing_sigma, 0, exclusive=True)
        check_float("amplitude", self.amplitude, 0)
        if self.amplitude > min(self.grid.height, self.grid.width) / 8.0:
            raise DomainError(
                "amplitude exceeds min(grid)/8; the diffeomorphism guarantee "
                "requires small deformations"
            )


def phantom_intensity(spec: PhantomSpec, points: np.ndarray) -> np.ndarray:
    """Continuous intensity of a phantom evaluated at (..., 2) coordinates.

    This is the analytic function the discrete image samples; useful for
    resampling/symmetry checks that must not inherit interpolation error.
    """
    p = np.asarray(points, dtype=np.float64)
    if spec.kind == "ring_with_bump":
        r, ang = _polar(spec, p)
        radius = spec.radius + spec.bump_amplitude * np.exp(
            -((ang / spec.bump_width) ** 2)
        )
        return np.exp(-(((r - radius) / spec.ring_thickness) ** 2))
    if spec.kind == "four_label_phantom":
        return np.array([1.0, 0.45, 0.8, 0.25, 0.0])[_four_label_shell(spec, p)]
    # gaussian_blobs, the one kind left: PhantomSpec admits no other.
    rng = np.random.default_rng(spec.seed)
    centers, sigmas = _blob_geometry(spec, rng)
    out = np.zeros(p.shape[:-1])
    for (br, bc), s in zip(centers, sigmas):
        out = out + np.exp(
            -((p[..., 0] - br) ** 2 + (p[..., 1] - bc) ** 2) / (2 * s * s)
        )
    return np.clip(out, 0.0, 1.0)


def _polar(spec: PhantomSpec, points: np.ndarray):
    """Distance of (..., 2) ``points`` from the phantom centre, and their
    angle from ``bump_angle``, wrapped to (−π, π]."""
    cr, cc = spec.center
    dr = points[..., 0] - cr
    dc = points[..., 1] - cc
    return np.hypot(dr, dc), np.angle(np.exp(1j * (np.arctan2(dc, dr) - spec.bump_angle)))


def _four_label_shell(spec: PhantomSpec, points: np.ndarray) -> np.ndarray:
    """The shell of the four-label phantom that holds each of the (..., 2)
    ``points``: 0 to 3 from the centre out, inside the radii 0.35, 0.6, 0.8
    and 1 times ``spec.radius``, and 4 outside."""
    r = spec.radius
    return np.searchsorted([0.35 * r, 0.6 * r, 0.8 * r, r], _polar(spec, points)[0], side="right")


def _blob_geometry(spec: PhantomSpec, rng):
    h, w = spec.grid.height, spec.grid.width
    margin = 4.0 + 2 * spec.blob_sigma
    centers = np.column_stack(
        [
            rng.uniform(margin, h - 1 - margin, spec.blob_count),
            rng.uniform(margin, w - 1 - margin, spec.blob_count),
        ]
    )
    sigmas = rng.uniform(0.7 * spec.blob_sigma, 1.3 * spec.blob_sigma, spec.blob_count)
    return centers, sigmas


def make_phantom(spec: PhantomSpec) -> tuple[ScalarImage, LabelImage]:
    """Deterministic image in [0, 1] plus a consistent label partition."""
    grid = spec.grid
    coords = grid_coords(grid)
    intensity = phantom_intensity(spec, coords)
    if spec.kind == "ring_with_bump":
        labels = np.zeros(grid.shape, dtype=np.int64)
        on_ring = intensity >= 0.5
        labels[on_ring] = 1
        if spec.bump_amplitude > 0:
            _, ang = _polar(spec, coords)
            labels[on_ring & (np.abs(ang) <= spec.bump_width)] = 2
    elif spec.kind == "four_label_phantom":
        labels = np.array([4, 3, 2, 1, 0], dtype=np.int64)[_four_label_shell(spec, coords)]
        # Slight blur gives SSD registration usable gradients at boundaries.
        intensity = np.clip(_blur(intensity, 1.0), 0.0, 1.0)
    else:
        labels = (intensity >= 0.5).astype(np.int64)
    return ScalarImage(grid, intensity), LabelImage(grid, labels)


def random_log_field(spec: RandomFieldSpec) -> LogField:
    """Seeded smooth tangent field, border-tapered, scaled to max norm
    ``amplitude``."""
    grid = spec.grid
    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal((grid.height, grid.width, 2))
    # The noise is blurred, tapered and scaled in place, as two planes.
    planes = np.moveaxis(noise, -1, 0)
    _blur(planes, spec.smoothing_sigma, out=planes)
    planes *= _border_taper(grid)
    max_norm = float(np.max(np.hypot(planes[0], planes[1])))
    if spec.amplitude == 0.0 or max_norm == 0.0:
        return LogField(grid, np.zeros_like(noise))
    planes *= spec.amplitude / max_norm
    return LogField(grid, noise)


@lru_cache(maxsize=8)
def _border_taper(grid: Grid) -> np.ndarray:
    """Window that is 0 within 2 px of the border and eases up to 1."""
    i = np.arange(grid.height, dtype=np.float64)
    j = np.arange(grid.width, dtype=np.float64)
    di = np.minimum(i, grid.height - 1 - i)
    dj = np.minimum(j, grid.width - 1 - j)
    d = np.minimum(di[:, None], dj[None, :])
    t = np.clip((d - 2.0) / 4.0, 0.0, 1.0)
    taper = 0.5 - 0.5 * np.cos(math.pi * t)
    taper.flags.writeable = False  # the cache hands one array to every call
    return taper


class Subject(NamedTuple):
    """A warped phantom together with its ground-truth deformation and log."""

    image: ScalarImage
    labels: LabelImage
    field: DisplacementField
    log: LogField


def make_subject(
    phantom: tuple[ScalarImage, LabelImage], v: LogField, n_levels: int = DEFAULT_DEPTH
) -> Subject:
    """Warp a phantom by exp(v); returns warped data plus the exact ground truth."""
    image, labels = phantom
    _check_same_grid(image, v)
    _check_same_grid(labels, v)
    phi = exp_field(v, n_levels)
    return Subject(warp_image(image, phi), warp_labels(labels, phi), phi, v)
