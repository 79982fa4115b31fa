"""Microbenchmark: cached-CDF weighted draw vs. ``Generator.choice``.

Marked ``perf`` (excluded from the default pytest run; select with
``pytest -m perf benchmarks/``).  A proxy-weighted SUPG draw used to
renormalize the dataset's weight vector and let ``Generator.choice``
rebuild the CDF on every call.  The dataset now caches the CDF per
``(exponent, mixing)``, so a draw is ``s`` binary searches.  At 1M
records and 10,000 draws the cached draw must return the same indices,
mass and generator state as ``choice`` and be at least 3x faster; the
ratio, not the wall time, is asserted, so it holds on any machine.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.sampling import proxy_sampling_weights
from repro.sampling.weighted import cdf_sample, weight_cdf

pytestmark = pytest.mark.perf

RECORDS = 1_000_000
DRAWS = 10_000


def _best_seconds(fn, repeats: int = 7) -> float:
    """Best-of-N wall time — robust against scheduler noise."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _choice_draw(weights, rng):
    """The draw before the cached CDF: normalize, then ``choice``."""
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()
    indices = rng.choice(w.size, size=DRAWS, replace=True, p=p)
    return indices, (1.0 / w.size) / p[indices]


def test_cached_cdf_draw_speedup():
    scores = np.random.default_rng(0).beta(0.01, 1.0, size=RECORDS)
    weights = proxy_sampling_weights(scores)
    table = weight_cdf(weights)

    reference_rng = np.random.default_rng(7)
    rng = np.random.default_rng(7)
    indices, mass = _choice_draw(weights, reference_rng)
    sample = cdf_sample(weights, table, DRAWS, rng)
    assert sample.indices.tobytes() == indices.tobytes()
    assert sample.mass.tobytes() == mass.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state

    cached = _best_seconds(lambda: cdf_sample(weights, table, DRAWS, rng))
    choice = _best_seconds(lambda: _choice_draw(weights, reference_rng))
    speedup = choice / cached
    print(
        f"\ncached-CDF draw {cached * 1e3:.2f} ms, Generator.choice "
        f"{choice * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 3.0, f"expected >= 3x, measured {speedup:.1f}x"
