"""Model selection tests: k-fold, grid search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LearningError
from repro.learn import SVC, KFold, cross_val_score, grid_search


def _blobs(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X1 = rng.normal([2, 0], 0.6, (n // 2, 2))
    X2 = rng.normal([-2, 0], 0.6, (n // 2, 2))
    return np.vstack([X1, X2]), np.r_[np.ones(n // 2), -np.ones(n // 2)]


class TestKFold:
    @given(n=st.integers(10, 60), k=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_folds_partition_the_data(self, n, k):
        folds = list(KFold(n_splits=k, seed=0).split(n))
        assert len(folds) == k
        all_test = np.concatenate([te for _, te in folds])
        assert sorted(all_test.tolist()) == list(range(n))
        for train_idx, test_idx in folds:
            assert set(train_idx) & set(test_idx) == set()
            assert len(train_idx) + len(test_idx) == n

    def test_too_few_samples(self):
        with pytest.raises(LearningError):
            list(KFold(5).split(3))

    def test_invalid_split_count(self):
        with pytest.raises(LearningError):
            KFold(1)


class TestCrossValAndGrid:
    def test_cross_val_high_on_separable(self):
        X, y = _blobs()
        scores = cross_val_score(SVC(), X, y, n_splits=4)
        assert scores.shape == (4,)
        assert scores.mean() > 0.95

    def test_grid_search_returns_best(self):
        X, y = _blobs(seed=2)
        best, score, results = grid_search(
            SVC, {"C": [0.01, 10.0], "gamma": [1.0]}, X, y, n_splits=3)
        assert best["C"] in (0.01, 10.0)
        assert len(results) == 2
        assert score == max(r for _, r in results)

    def test_grid_search_empty_grid_rejected(self):
        with pytest.raises(LearningError):
            grid_search(SVC, {}, np.zeros((4, 1)), np.ones(4))
