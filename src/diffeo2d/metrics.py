"""Evaluation functionals: root-chain diagnostics, latent consistency, Dice,
and the weighted secondary loss.

All chain losses score a single pair of fields; summation over a population
of pairs is the caller's business.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, check_float
from .fields import DisplacementField, LabelImage, _check_same_grid, compose
from .lie import RootChain
from .registration import _mean_sq_displacement


@dataclass(frozen=True)
class LossWeights:
    """Weights for the secondary (consistency) loss; all must be >= 0."""

    alpha_rec: float = 1.0
    alpha_inv: float = 1.0
    alpha_linv: float = 1.0

    def __post_init__(self):
        check_float("alpha_rec", self.alpha_rec, 0)
        check_float("alpha_inv", self.alpha_inv, 0)
        check_float("alpha_linv", self.alpha_linv, 0)


def rec_loss(
    chain_ab: RootChain,
    phi_ab: DisplacementField,
    chain_ba: RootChain,
    phi_ba: DisplacementField,
) -> float:
    """Reconstruction residual of both chains against their source fields:
    the squares of :meth:`RootChain.reconstruction_rms`, summed over levels
    and both directions."""
    total = 0.0
    for chain, phi in ((chain_ab, phi_ab), (chain_ba, phi_ba)):
        for rms in chain.reconstruction_rms(phi):
            total += rms * rms
    return total


def inv_loss(chain_ab: RootChain, chain_ba: RootChain) -> float:
    """Per-level inverse consistency: mean-square displacement (components
    summed) of composing corresponding roots, summed over levels."""
    if chain_ab.depth != chain_ba.depth:
        raise ShapeError(
            f"chain depths differ: {chain_ab.depth} vs {chain_ba.depth}"
        )
    total = 0.0
    for ra, rb in zip(chain_ab.roots, chain_ba.roots):
        total += _mean_sq_displacement(compose(ra, rb).u)
    return total


def latent_inv_loss(z_ab: np.ndarray, z_ba: np.ndarray) -> float:
    """(1 + cos(theta))/2 + ||z_ab + z_ba||^2.

    Conventions: both codes zero scores the perfect case (cos := -1);
    exactly one zero code has no meaningful angle and uses cos := 0.
    """
    z_ab = np.asarray(z_ab, dtype=np.float64)
    z_ba = np.asarray(z_ba, dtype=np.float64)
    if z_ab.shape != z_ba.shape or z_ab.ndim != 1:
        raise ShapeError("codes must be 1-D vectors of equal length")
    na = np.linalg.norm(z_ab)
    nb = np.linalg.norm(z_ba)
    if na == 0.0 and nb == 0.0:
        cos = -1.0
    elif na == 0.0 or nb == 0.0:
        cos = 0.0
    else:
        cos = float(np.dot(z_ab, z_ba) / (na * nb))
    s = z_ab + z_ba
    return (1.0 + cos) / 2.0 + float(np.dot(s, s))


def secondary_loss(weights: LossWeights, rec: float, inv: float, linv: float) -> float:
    """Weighted sum of the three consistency components."""
    return weights.alpha_rec * rec + weights.alpha_inv * inv + weights.alpha_linv * linv


def dice(a: LabelImage, b: LabelImage, label: int) -> float:
    """Dice overlap 2|X n Y| / (|X| + |Y|) for one label; both-empty is 1.0."""
    _check_same_grid(a, b)
    x = a.labels == label
    y = b.labels == label
    denom = int(x.sum()) + int(y.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(x & y)) / denom


def dice_report(warped: LabelImage, target: LabelImage):
    """Per-label Dice over the union of nonzero labels, plus the unweighted mean.

    Returns (per_label, mean) where per_label maps label -> score.
    """
    _check_same_grid(warped, target)
    labels = sorted((set(warped.label_set()) | set(target.label_set())) - {0})
    per_label = {lab: dice(warped, target, lab) for lab in labels}
    mean = float(np.mean(list(per_label.values()))) if per_label else 1.0
    return per_label, mean
