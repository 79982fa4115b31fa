"""Unit tests for query/result types and the selector registry."""

import numpy as np
import pytest

from repro.core import (
    ApproxQuery,
    ImportanceCIPrecisionTwoStage,
    ImportanceCIRecall,
    SelectionResult,
    TargetType,
    available_selectors,
    default_selector,
    make_selector,
)


class TestApproxQuery:
    def test_constructors(self):
        rt = ApproxQuery.recall_target(0.9, 0.05, 100)
        assert rt.target_type is TargetType.RECALL
        pt = ApproxQuery.precision_target(0.8, 0.1, 50)
        assert pt.target_type is TargetType.PRECISION

    def test_string_target_type_coerced(self):
        q = ApproxQuery("recall", 0.9, 0.05, 100)
        assert q.target_type is TargetType.RECALL

    def test_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            ApproxQuery.recall_target(0.0, 0.05, 100)
        with pytest.raises(ValueError, match="gamma"):
            ApproxQuery.recall_target(1.2, 0.05, 100)
        with pytest.raises(ValueError, match="delta"):
            ApproxQuery.recall_target(0.9, 0.0, 100)
        with pytest.raises(ValueError, match="budget"):
            ApproxQuery.recall_target(0.9, 0.05, 0)


class TestSelectionResult:
    def test_indices_deduplicated_and_sorted(self):
        result = SelectionResult(
            indices=np.array([5, 1, 5, 3]),
            tau=0.5,
            oracle_calls=10,
            sampled_indices=np.array([1, 2]),
        )
        np.testing.assert_array_equal(result.indices, [1, 3, 5])
        assert result.size == 3

    @pytest.mark.parametrize(
        "raw",
        [
            np.array([5, 1, 5, 3]),
            np.array([1, 1, 2, 3]),
            np.array([9, 7, 4]),
            np.array([[4, 2], [2, 0]]),
            np.array([[0, 1], [2, 3]]),
            np.array(6),
            np.array([], dtype=int),
            np.array([-3, 0, 8]),
            [3, 2, 2],
        ],
        ids=lambda raw: repr(np.asarray(raw).tolist()),
    )
    def test_indices_normalized_exactly_as_np_unique(self, raw):
        """Sorted distinct input skips np.unique; every other shape of
        caller input still comes out exactly as np.unique would make it."""
        result = SelectionResult(
            indices=raw, tau=0.5, oracle_calls=0, sampled_indices=np.array([])
        )
        expected = np.unique(np.asarray(raw, dtype=np.intp))
        assert result.indices.dtype == expected.dtype
        assert result.indices.shape == expected.shape
        np.testing.assert_array_equal(result.indices, expected)

    def test_negative_calls_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(
                indices=np.array([1]),
                tau=0.5,
                oracle_calls=-1,
                sampled_indices=np.array([]),
            )


class TestSelectorRegistry:
    def test_recall_and_precision_partitions(self):
        rt_names = available_selectors("recall")
        pt_names = available_selectors("precision")
        assert "is-ci-r" in rt_names and "u-ci-r" in rt_names
        assert "is-ci-p" in pt_names and "u-ci-p" in pt_names
        assert set(rt_names).isdisjoint(pt_names)

    def test_make_selector_by_name(self, rt_query):
        selector = make_selector("is-ci-r", rt_query)
        assert isinstance(selector, ImportanceCIRecall)

    def test_make_selector_kwargs_forwarded(self, rt_query):
        selector = make_selector("is-ci-r", rt_query, weight_exponent=1.0, mixing=0.2)
        assert selector.weight_exponent == 1.0
        assert selector.mixing == 0.2

    def test_unknown_name_rejected(self, rt_query):
        with pytest.raises(KeyError, match="is-ci-r"):
            make_selector("nope", rt_query)

    def test_target_type_mismatch_rejected(self, rt_query):
        with pytest.raises(ValueError, match="precision-target"):
            make_selector("is-ci-p", rt_query)

    def test_default_selector_is_supg(self, rt_query, pt_query):
        assert isinstance(default_selector(rt_query), ImportanceCIRecall)
        assert isinstance(default_selector(pt_query), ImportanceCIPrecisionTwoStage)
