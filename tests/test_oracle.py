"""Unit tests for the budgeted oracle and the cost model."""

import numpy as np
import pytest

from repro.oracle import (
    BudgetedOracle,
    BudgetExhaustedError,
    CostModel,
    DATASET_COST_MODELS,
    HUMAN_LABEL_COST,
    oracle_from_labels,
)


class TestBudgetedOracle:
    def test_returns_ground_truth(self):
        labels = np.array([0, 1, 0, 1, 1])
        oracle = oracle_from_labels(labels, budget=5)
        np.testing.assert_array_equal(oracle.query(np.array([1, 3, 0])), [1, 1, 0])

    def test_budget_enforced(self):
        oracle = oracle_from_labels(np.zeros(100, dtype=int), budget=3)
        oracle.query(np.array([0, 1, 2]))
        with pytest.raises(BudgetExhaustedError):
            oracle.query(np.array([3]))

    def test_budget_checked_before_revealing(self):
        oracle = oracle_from_labels(np.ones(10, dtype=int), budget=2)
        with pytest.raises(BudgetExhaustedError):
            oracle.query(np.array([0, 1, 2]))
        # The failed call leaked nothing and consumed nothing.
        assert oracle.calls_used == 0
        assert oracle.labeled_count == 0

    def test_duplicates_free_by_default(self):
        """Re-querying a labeled record is free (per-record labeling)."""
        oracle = oracle_from_labels(np.ones(10, dtype=int), budget=2)
        oracle.query(np.array([4, 4, 4, 4]))
        assert oracle.calls_used == 1
        oracle.query(np.array([4, 5]))
        assert oracle.calls_used == 2
        assert oracle.remaining() == 0

    def test_strict_mode_charges_duplicates(self):
        oracle = oracle_from_labels(np.ones(10, dtype=int), budget=3, charge_duplicates=True)
        oracle.query(np.array([4, 4, 4]))
        assert oracle.calls_used == 3
        with pytest.raises(BudgetExhaustedError):
            oracle.query(np.array([4]))

    def test_unlimited_budget(self):
        oracle = oracle_from_labels(np.ones(10, dtype=int), budget=None)
        oracle.query(np.arange(10))
        assert oracle.remaining() is None
        assert oracle.labeled_count == 10

    def test_known_positives_sorted(self):
        labels = np.array([1, 0, 1, 0, 1])
        oracle = oracle_from_labels(labels, budget=None)
        oracle.query(np.array([4, 1, 0]))
        np.testing.assert_array_equal(oracle.known_positives(), [0, 4])

    def test_labeled_indices(self):
        oracle = oracle_from_labels(np.zeros(10, dtype=int), budget=None)
        oracle.query(np.array([7, 2, 2]))
        np.testing.assert_array_equal(oracle.labeled_indices(), [2, 7])

    def test_empty_query_is_free(self):
        oracle = oracle_from_labels(np.zeros(5, dtype=int), budget=1)
        result = oracle.query(np.array([], dtype=int))
        assert result.size == 0
        assert oracle.calls_used == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BudgetedOracle(lambda idx: idx, budget=-1)

    def test_misbehaving_label_fn_detected(self):
        oracle = BudgetedOracle(lambda idx: np.zeros(idx.size + 1), budget=None)
        with pytest.raises(ValueError, match="one label per"):
            oracle.query(np.array([0, 1]))


class _DictOracle:
    """The dict-memo oracle the array-backed one replaced, kept as a pin."""

    def __init__(self, label_fn, budget, charge_duplicates=False):
        self._label_fn = label_fn
        self.budget = budget
        self.charge_duplicates = charge_duplicates
        self._cache = {}
        self.calls_used = 0

    @property
    def labeled_count(self):
        return len(self._cache)

    def query(self, indices):
        idx = np.asarray(indices, dtype=np.intp).ravel()
        if idx.size == 0:
            return np.zeros(0, dtype=np.int8)
        if self.charge_duplicates:
            charge = idx.size
        else:
            charge = len({int(i) for i in idx} - self._cache.keys())
        if self.budget is not None and self.calls_used + charge > self.budget:
            raise BudgetExhaustedError(self.budget, self.calls_used + charge)
        missing = np.array(sorted({int(i) for i in idx} - self._cache.keys()), dtype=np.intp)
        if missing.size:
            labels = np.asarray(self._label_fn(missing)).astype(np.int8)
            self._cache.update(zip(missing.tolist(), labels.tolist()))
        self.calls_used += charge
        return np.array([self._cache[int(i)] for i in idx], dtype=np.int8)

    def labeled_indices(self):
        return np.array(sorted(self._cache), dtype=np.intp)

    def known_positives(self):
        return np.array(sorted(i for i, y in self._cache.items() if y == 1), dtype=np.intp)


def _recording_lookup(truth, calls):
    def lookup(indices):
        calls.append(np.array(indices, copy=True))
        return truth[indices]

    return lookup


def _snapshot(oracle):
    return (
        oracle.calls_used,
        oracle.labeled_count,
        oracle.labeled_indices().tolist(),
        oracle.known_positives().tolist(),
    )


class TestArrayMemoMatchesDictMemo:
    """The array-backed memo answers, charges and calls ``label_fn``
    exactly as the dict memo did, refusals included."""

    @pytest.mark.parametrize("charge_duplicates", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_query_sequences(self, seed, charge_duplicates):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 400))
        truth = (rng.random(n) < 0.3).astype(np.int64)
        budget = None if seed % 4 == 0 else int(rng.integers(1, 2 * n))
        new_calls, ref_calls = [], []
        oracle = BudgetedOracle(
            _recording_lookup(truth, new_calls), budget, charge_duplicates=charge_duplicates
        )
        reference = _DictOracle(
            _recording_lookup(truth, ref_calls), budget, charge_duplicates=charge_duplicates
        )
        asked = np.zeros(0, dtype=np.intp)
        for _ in range(40):
            size = int(rng.integers(0, 30))
            fresh = rng.integers(0, n, size=size)
            # Mix brand-new indices with repeats of earlier queries.
            if asked.size and rng.random() < 0.5:
                fresh = np.concatenate([fresh, rng.choice(asked, size=min(10, asked.size))])
            rng.shuffle(fresh)
            before = _snapshot(oracle)
            calls_before = len(new_calls)
            try:
                expected = reference.query(fresh)
            except BudgetExhaustedError as ref_error:
                with pytest.raises(BudgetExhaustedError) as error:
                    oracle.query(fresh)
                assert error.value.requested == ref_error.requested
                # A refused call changes nothing and reveals nothing.
                assert _snapshot(oracle) == before
                assert len(new_calls) == calls_before
                continue
            got = oracle.query(fresh)
            assert got.dtype == expected.dtype == np.int8
            np.testing.assert_array_equal(got, expected)
            assert _snapshot(oracle) == _snapshot(reference)
            asked = np.concatenate([asked, np.asarray(fresh, dtype=np.intp)])
        assert len(new_calls) == len(ref_calls)
        for mine, theirs in zip(new_calls, ref_calls):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)

    def test_label_fn_failure_leaves_memo_untouched(self):
        calls = []

        def flaky(indices):
            calls.append(indices.copy())
            if len(calls) == 2:
                raise RuntimeError("labeling service down")
            return np.ones(indices.size, dtype=int)

        oracle = BudgetedOracle(flaky, budget=10)
        oracle.query(np.array([3, 1]))
        before = _snapshot(oracle)
        with pytest.raises(RuntimeError):
            oracle.query(np.array([2, 3, 5]))
        assert _snapshot(oracle) == before
        np.testing.assert_array_equal(oracle.query(np.array([5, 2, 3])), [1, 1, 1])
        np.testing.assert_array_equal(calls[-1], [2, 5])


class TestCostModel:
    def test_oracle_cost_linear(self):
        model = CostModel(oracle_unit_cost=HUMAN_LABEL_COST)
        assert model.oracle_cost(1_000) == pytest.approx(80.0)

    def test_exhaustive_matches_paper_imagenet(self):
        """Table 5: exhaustively labeling ImageNet costs $4,000."""
        model = DATASET_COST_MODELS["imagenet"]
        assert model.exhaustive_cost(50_000) == pytest.approx(4_000.0)

    def test_supg_breakdown_structure(self):
        model = DATASET_COST_MODELS["imagenet"]
        cost = model.supg_query(num_records=50_000, oracle_budget=1_000)
        # Table 5's qualitative claims: oracle dominates, sampling is
        # negligible, and SUPG is far below exhaustive labeling.
        assert cost.oracle > cost.proxy > cost.sampling
        assert cost.total < model.exhaustive_cost(50_000) / 10
        assert cost.total == pytest.approx(cost.sampling + cost.proxy + cost.oracle)

    def test_dnn_oracle_cheaper_per_label_than_human(self):
        night = DATASET_COST_MODELS["night-street"]
        assert night.oracle_unit_cost < HUMAN_LABEL_COST

    def test_negative_counts_rejected(self):
        model = CostModel(oracle_unit_cost=0.08)
        with pytest.raises(ValueError):
            model.oracle_cost(-1)
        with pytest.raises(ValueError):
            model.proxy_cost(-1)
        with pytest.raises(ValueError):
            model.sampling_cost(-1)
