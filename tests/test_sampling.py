"""Unit tests for the sampling substrate."""

import numpy as np
import pytest

from repro.sampling import (
    DEFAULT_EXPONENT,
    DEFAULT_MIXING,
    proxy_sampling_weights,
    uniform_sample,
    uniform_weights,
    weighted_sample,
)
from repro.sampling.weighted import cdf_sample, weight_cdf


class TestUniformSample:
    def test_returns_requested_count(self, rng):
        idx = uniform_sample(1000, 50, rng)
        assert idx.shape == (50,)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_without_replacement_unique(self, rng):
        idx = uniform_sample(100, 100, rng, replace=False)
        assert len(np.unique(idx)) == 100

    def test_without_replacement_overdraw_rejected(self, rng):
        with pytest.raises(ValueError, match="without replacement"):
            uniform_sample(10, 11, rng, replace=False)

    def test_invalid_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            uniform_sample(0, 5, rng)
        with pytest.raises(ValueError):
            uniform_sample(10, 0, rng)

    def test_approximately_uniform(self, rng):
        idx = uniform_sample(10, 50_000, rng)
        counts = np.bincount(idx, minlength=10)
        assert counts.min() > 4_000  # each cell expects 5000

    def test_uniform_weights_vector(self):
        w = uniform_weights(4)
        np.testing.assert_allclose(w, [0.25] * 4)


class TestProxyWeights:
    def test_normalized(self):
        scores = np.array([0.1, 0.5, 0.9])
        w = proxy_sampling_weights(scores)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w > 0)

    def test_default_is_sqrt_with_mixing(self):
        scores = np.array([0.04, 0.16, 0.64])
        w = proxy_sampling_weights(scores)
        sqrt = np.sqrt(scores)
        expected = 0.9 * sqrt / sqrt.sum() + 0.1 / 3
        np.testing.assert_allclose(w, expected)

    def test_exponent_zero_is_uniform(self):
        scores = np.array([0.0, 0.3, 0.9])
        w = proxy_sampling_weights(scores, exponent=0.0)
        np.testing.assert_allclose(w, [1 / 3] * 3)

    def test_exponent_one_is_proportional(self):
        scores = np.array([0.2, 0.3, 0.5])
        w = proxy_sampling_weights(scores, exponent=1.0, mixing=0.0)
        np.testing.assert_allclose(w, scores)

    def test_mixing_keeps_zero_score_records_samplable(self):
        scores = np.array([0.0, 0.0, 1.0])
        w = proxy_sampling_weights(scores, mixing=DEFAULT_MIXING)
        assert np.all(w > 0)

    def test_all_zero_scores_fall_back_to_uniform(self):
        w = proxy_sampling_weights(np.zeros(5))
        np.testing.assert_allclose(w, [0.2] * 5)

    def test_all_zero_without_mixing_rejected(self):
        with pytest.raises(ValueError, match="defensive mixing"):
            proxy_sampling_weights(np.zeros(5), mixing=0.0)

    def test_scores_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            proxy_sampling_weights(np.array([0.5, 1.5]))

    def test_invalid_mixing_rejected(self):
        with pytest.raises(ValueError):
            proxy_sampling_weights(np.array([0.5]), mixing=1.5)

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            proxy_sampling_weights(np.array([0.5]), exponent=-1.0)

    def test_defaults_match_paper(self):
        assert DEFAULT_EXPONENT == 0.5
        assert DEFAULT_MIXING == 0.1


class TestWeightedSample:
    def test_mass_is_inverse_probability_ratio(self, rng):
        weights = np.array([0.7, 0.1, 0.1, 0.1])
        sample = weighted_sample(weights, 100, rng)
        expected_mass = (1 / 4) / weights[sample.indices]
        np.testing.assert_allclose(sample.mass, expected_mass)

    def test_respects_weights(self, rng):
        weights = np.array([0.9, 0.05, 0.05])
        sample = weighted_sample(weights, 20_000, rng)
        frac_zero = float(np.mean(sample.indices == 0))
        assert frac_zero == pytest.approx(0.9, abs=0.02)

    def test_unnormalized_weights_accepted(self, rng):
        sample = weighted_sample(np.array([7.0, 1.0, 1.0, 1.0]), 50, rng)
        assert sample.size == 50

    def test_mean_mass_near_one(self, rng):
        """E_w[u/w] = 1, so reweighting factors average to ~1."""
        weights = proxy_sampling_weights(rng.random(500))
        sample = weighted_sample(weights, 20_000, rng)
        assert sample.mass.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_inputs_rejected(self, rng):
        with pytest.raises(ValueError):
            weighted_sample(np.array([]), 10, rng)
        with pytest.raises(ValueError):
            weighted_sample(np.array([0.5, 0.5]), 0, rng)
        with pytest.raises(ValueError):
            weighted_sample(np.array([-0.1, 1.1]), 10, rng)
        with pytest.raises(ValueError):
            weighted_sample(np.array([0.0, 0.0]), 10, rng)

    def test_non_finite_weights_rejected(self, rng):
        with pytest.raises(ValueError):
            weighted_sample(np.array([0.5, np.nan]), 10, rng)
        with pytest.raises(ValueError):
            weighted_sample(np.array([0.5, np.inf]), 10, rng)


def _pin_weights(n: int, seed: int, kind: str) -> np.ndarray:
    """Unnormalized weights over ``n`` records, optionally with zeros."""
    w = np.random.default_rng(10_000 + seed).random(n) * 7.0
    if kind == "zeros" and n > 1:
        w[::3] = 0.0
        w[-1] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    return w


class TestCdfDrawMatchesChoice:
    """The cached-CDF draw is numpy's own ``choice`` algorithm.

    Every proxy-weighted sample, and so every selection, depends on it
    returning the indices ``Generator.choice(p=w / w.sum())`` returns
    and leaving the generator in the same state.
    """

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 100_000])
    @pytest.mark.parametrize("kind", ["dense", "zeros"])
    def test_indices_mass_and_state(self, n, kind):
        for seed in range(20):
            w = _pin_weights(n, seed, kind)
            p = w / w.sum()
            for s in (1, 17, 10_000):
                reference_rng = np.random.default_rng(seed)
                rng = np.random.default_rng(seed)
                expected = reference_rng.choice(n, size=s, replace=True, p=p)
                sample = weighted_sample(w, s, rng)
                np.testing.assert_array_equal(sample.indices, expected)
                assert sample.indices.dtype == expected.dtype
                # The mass formula before the cached CDF: u / w_norm[idx].
                assert sample.mass.tobytes() == ((1.0 / n) / p[expected]).tobytes()
                assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_cached_table_draw_equals_uncached(self):
        w = _pin_weights(5_000, 3, "zeros")
        table = weight_cdf(w)
        for seed in range(5):
            cached = cdf_sample(w, table, 2_000, np.random.default_rng(seed))
            fresh = weighted_sample(w, 2_000, np.random.default_rng(seed))
            assert cached.indices.tobytes() == fresh.indices.tobytes()
            assert cached.mass.tobytes() == fresh.mass.tobytes()

    def test_zero_weight_records_never_drawn_on_exact_cdf_hits(self):
        """A uniform key equal to a CDF step skips the zero-width bins
        after it, as ``choice``'s right-sided search does."""

        class FixedKeys:
            def random(self, size):
                return np.array([0.0, 0.25, 0.5, 0.75])[:size]

        w = np.array([0.0, 1.0, 1.0, 0.0, 2.0])
        sample = cdf_sample(w, weight_cdf(w), 4, FixedKeys())
        np.testing.assert_array_equal(sample.indices, [1, 2, 4, 4])
        assert np.all(np.isfinite(sample.mass))

    def test_table_is_read_only(self):
        _, cdf = weight_cdf(np.array([1.0, 2.0, 3.0]))
        assert not cdf.flags.writeable
        assert cdf[-1] == 1.0
