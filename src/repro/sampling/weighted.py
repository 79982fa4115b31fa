"""Importance sampling with defensive mixing.

Implements the weighted sampling used by the IS-CI algorithms
(Algorithms 4-5 of the paper):

1. raw weights are a power of the proxy score, ``A(x) ** exponent``,
   with the paper's Theorem 1 showing ``exponent = 0.5`` (square root)
   is variance-optimal for calibrated proxies;
2. the normalized weights are *defensively mixed* with the uniform
   distribution, ``w = (1 - mix) * w_proxy + mix * u``, guarding against
   adversarially mis-calibrated proxies (Owen & Zhou 2000, cited as [49]);
3. records are drawn i.i.d. with replacement according to ``w``.

The mixing step also guarantees ``w(x) > 0`` everywhere, so the
reweighting factors ``m(x) = u(x) / w(x)`` are always finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_MIXING",
    "DEFAULT_EXPONENT",
    "proxy_sampling_weights",
    "cdf_sample",
    "weight_cdf",
    "weighted_sample",
    "WeightedSample",
]

#: Defensive mixing ratio used throughout the paper's algorithms (the
#: ``.9 * w + .1 * uniform`` line in Algorithms 4-5).
DEFAULT_MIXING = 0.1

#: Theorem 1's variance-optimal exponent for calibrated proxies.
DEFAULT_EXPONENT = 0.5


def proxy_sampling_weights(
    proxy_scores: np.ndarray,
    exponent: float = DEFAULT_EXPONENT,
    mixing: float = DEFAULT_MIXING,
) -> np.ndarray:
    """Compute defensive importance-sampling weights from proxy scores.

    Args:
        proxy_scores: array of proxy confidences ``A(x)`` in [0, 1].
        exponent: power applied to the scores before normalization.
            0.0 recovers uniform sampling, 1.0 proportional sampling, and
            0.5 the paper's square-root weights.  The fig12 ablation
            sweeps this parameter.
        mixing: fraction of uniform distribution blended in defensively.
            Must lie in [0, 1]; 0 disables the guard (used only in
            ablations), 1 recovers uniform sampling.

    Returns:
        A probability vector over records (sums to 1).

    Raises:
        ValueError: for scores outside [0, 1], empty inputs, a negative
            exponent, a mixing ratio outside [0, 1], or weights that sum
            to zero with no defensive mixing to rescue them.
    """
    scores = np.asarray(proxy_scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError(f"proxy_scores must be a non-empty 1-D array, got shape {scores.shape}")
    if np.any(scores < 0) or np.any(scores > 1):
        raise ValueError("proxy scores must lie in [0, 1]")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    if not (0.0 <= mixing <= 1.0):
        raise ValueError(f"mixing must be in [0, 1], got {mixing}")

    if exponent == 0.0:
        raw = np.ones_like(scores)
    else:
        raw = np.power(scores, exponent)
    total = raw.sum()
    uniform = np.full(scores.size, 1.0 / scores.size)
    if total == 0.0:
        if mixing == 0.0:
            raise ValueError(
                "all proxy scores are zero and defensive mixing is disabled; "
                "the sampling distribution is undefined"
            )
        return uniform
    proportional = raw / total
    return (1.0 - mixing) * proportional + mixing * uniform


@dataclass(frozen=True)
class WeightedSample:
    """An importance sample together with its reweighting factors.

    Attributes:
        indices: sampled record indices (with replacement).
        mass: reweighting factors ``m(x) = u(x) / w(x)`` aligned with
            ``indices``; multiplying observations by ``mass`` makes
            sample averages unbiased for uniform-population averages
            (Equation 10 of the paper).
    """

    indices: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        if self.indices.shape != self.mass.shape:
            raise ValueError("indices and mass must be aligned 1-D arrays")

    @property
    def size(self) -> int:
        """Number of sampled records."""
        return int(self.indices.size)


def weight_cdf(weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Validate ``weights`` and build the ``(total, cdf)`` table a draw searches.

    The CDF is the one ``Generator.choice(p=weights / total)`` would
    rebuild on every call, so a caller that draws repeatedly from the
    same weights (``Dataset.sampling_cdf``) builds it once and passes
    it to :func:`cdf_sample`.

    Raises:
        ValueError: for an empty or non-1-D vector, negative entries, or
            a total mass that is not positive and finite.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weights must be a non-empty 1-D array, got shape {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if not (np.isfinite(total) and total > 0):
        raise ValueError("weights must have positive, finite total mass")
    # Accumulating in place allocates one n-length array, not two.
    cdf = w / total
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return float(total), cdf


def cdf_sample(
    weights: np.ndarray,
    table: tuple[float, np.ndarray],
    sample_size: int,
    rng: np.random.Generator,
) -> WeightedSample:
    """Draw from ``weights`` through its ``weight_cdf`` table.

    Indices and the generator's post-draw state are identical to
    ``rng.choice(n, size=s, replace=True, p=weights / total)``: this is
    numpy's own inverse-CDF algorithm, with the CDF built by the caller.
    """
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    total, cdf = table
    u = rng.random(sample_size)
    # Searching the keys in ascending order keeps consecutive binary
    # searches in cache on a large CDF; each key still lands where an
    # unsorted search would put it.
    order = np.argsort(u)
    indices = np.empty(u.size, dtype=np.intp)
    indices[order] = cdf.searchsorted(u[order], side="right")
    # Bitwise the same as indexing the normalized vector weights / total.
    # Drawn records have positive probability, so the mass is finite.
    sampled_w = np.asarray(weights, dtype=float)[indices] / total
    mass = (1.0 / cdf.size) / sampled_w
    return WeightedSample(indices=indices, mass=mass)


def weighted_sample(
    weights: np.ndarray,
    sample_size: int,
    rng: np.random.Generator,
) -> WeightedSample:
    """Draw an i.i.d. sample of indices according to ``weights``.

    Args:
        weights: probability vector over the population (need not be
            exactly normalized; it is renormalized defensively).
        sample_size: number of draws ``s``.
        rng: NumPy random generator.

    Returns:
        A :class:`WeightedSample` with indices and ``m(x)`` factors.

    Raises:
        ValueError: for invalid sizes or non-positive total weight.
    """
    return cdf_sample(weights, weight_cdf(weights), sample_size, rng)
