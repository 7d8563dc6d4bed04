"""Linearized latent space over log-fields: basis fitting, encode/decode,
root decoding, and PCA modes of variation.

The log space is linear, so orthogonal projection plus the exp/log maps give
a fully classical encoder/decoder: codes negate exactly where deformations
invert (up to the log-negation error).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DEFAULT_DEPTH, DomainError, RankError, ShapeError, check_integer,
                     check_power_of_two)
from .fields import DisplacementField, Grid, LogField, _check_same_grid
from .lie import exp_field


@dataclass
class LogEuclideanBasis:
    """Mean plus orthonormal principal directions over a log-field population.

    ``components`` has shape (d, H, W, 2) with rows orthonormal under the
    flattened dot product; ``singular_values`` are per-sample standard
    deviations, descending. ``total_variance`` is the full (untruncated)
    variance, kept so explained-variance ratios stay meaningful after
    truncation.
    """

    grid: Grid
    mean: LogField
    components: np.ndarray
    singular_values: np.ndarray
    symmetrized: bool
    total_variance: float

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=np.float64)
        self.singular_values = np.asarray(self.singular_values, dtype=np.float64)
        if self.components.ndim != 4 or self.components.shape[1:] != (
            self.grid.height,
            self.grid.width,
            2,
        ):
            raise ShapeError("components must have shape (d, H, W, 2)")
        if self.singular_values.shape != (self.components.shape[0],):
            raise ShapeError("one singular value per component required")
        if np.any(np.diff(self.singular_values) > 0):
            raise DomainError("singular values must be descending")

    @property
    def dim(self) -> int:
        return self.components.shape[0]


def fit_basis(
    logfields: list[LogField], dim: int, symmetrize: bool = True
) -> LogEuclideanBasis:
    """PCA basis of a log-field population.

    With ``symmetrize`` (default) the sample set is augmented with the
    negation of every field, forcing the mean to zero exactly. That
    augmented matrix is never formed: if X = U S Vᵀ holds the fields as
    rows, then [X; −X] = ([U; −U]/√2)(√2·S)Vᵀ, so the SVD of X alone gives
    the augmented components, and √2·S its singular values. Singular
    values, total variance, rank tolerance and the sample-count check all
    count the 2·len(logfields) augmented samples. The logs are copied once
    into one (len(logfields), 2·H·W) buffer, centred in place when not
    symmetrized, and factored by one SVD. Component signs are fixed by
    making each component's largest-magnitude entry positive, so fitting is
    reproducible.
    """
    if len(logfields) < 2:
        raise DomainError("need at least 2 log fields to fit a basis")
    grid = logfields[0].grid
    for lf in logfields:
        _check_same_grid(logfields[0], lf)
    n = len(logfields) * (2 if symmetrize else 1)
    check_integer("latent dimension", dim, 1, n)

    x = np.stack([lf.v.ravel() for lf in logfields])
    if symmetrize:
        mean_flat = np.zeros(x.shape[1])
    else:
        mean_flat = np.mean(x, axis=0)
        x -= mean_flat
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    if symmetrize:
        s *= np.sqrt(2.0)
    tol = s[0] * max(n, x.shape[1]) * np.finfo(np.float64).eps
    rank = int(np.count_nonzero(s > tol))
    del x  # freed before the components are copied out of vt
    if rank < dim:
        raise RankError(f"samples span rank {rank}, cannot fit {dim} components", rank=rank)

    comps = vt[:dim].copy()
    for k in range(dim):
        j = int(np.argmax(np.abs(comps[k])))
        if comps[k, j] < 0:
            comps[k] = -comps[k]
    shape = (grid.height, grid.width, 2)
    return LogEuclideanBasis(
        grid=grid,
        mean=LogField(grid, mean_flat.reshape(shape)),
        components=comps.reshape((dim,) + shape),
        singular_values=s[:dim] / np.sqrt(n),
        symmetrized=symmetrize,
        total_variance=float(np.sum(s * s) / n),
    )


def encode(basis: LogEuclideanBasis, v: LogField) -> np.ndarray:
    """Latent code: projections of v - mean onto the components."""
    _check_same_grid(v, basis)
    centered = (v.v - basis.mean.v).ravel()
    return basis.components.reshape(basis.dim, -1) @ centered


def decode(basis: LogEuclideanBasis, z: np.ndarray) -> LogField:
    """Linear reconstruction: mean + sum_k z_k * component_k."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (basis.dim,):
        raise ShapeError(f"code length {z.shape} != basis dimension {basis.dim}")
    flat = basis.components.reshape(basis.dim, -1)
    v = basis.mean.v + (z @ flat).reshape(basis.mean.v.shape)
    return LogField(basis.grid, v)


def decode_root(
    basis: LogEuclideanBasis, z: np.ndarray, m: int, exp_depth: int = DEFAULT_DEPTH
) -> DisplacementField:
    """Decode the m-th root deformation exp(decode(z)/m) for m a power of two."""
    check_power_of_two("m", m)
    v = decode(basis, z)
    return exp_field(LogField(basis.grid, v.v / m), exp_depth)


def pca_mode_field(
    basis: LogEuclideanBasis, k: int, c: float, exp_depth: int = DEFAULT_DEPTH
) -> DisplacementField:
    """Deformation at c standard deviations along mode k (1-based)."""
    check_integer("mode index", k, 1, basis.dim)
    v = basis.mean.v + c * basis.singular_values[k - 1] * basis.components[k - 1]
    return exp_field(LogField(basis.grid, v), exp_depth)


def explained_variance(basis: LogEuclideanBasis) -> list[float]:
    """Variance fraction per retained mode; sums to <= 1."""
    if basis.total_variance <= 0:
        return [0.0] * basis.dim
    sv2 = basis.singular_values**2
    return [float(val / basis.total_variance) for val in sv2]
