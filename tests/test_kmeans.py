"""Tests for the K-means token-class calibration (paper Section III.B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import BASE_ENERGY, Kind
from repro.isa.kmeans import (
    TokenClassMap,
    calibrate_token_classes,
    default_token_classes,
    kmeans_1d,
)


class TestKmeans1D:
    def test_separates_obvious_clusters(self):
        values = np.array([1.0] * 50 + [10.0] * 50)
        centroids, labels = kmeans_1d(values, 2)
        assert len(centroids) == 2
        assert centroids[0] == pytest.approx(1.0)
        assert centroids[1] == pytest.approx(10.0)
        assert set(labels[:50]) == {0}
        assert set(labels[50:]) == {1}

    def test_centroids_sorted(self):
        rng = np.random.default_rng(1)
        values = rng.random(500) * 20
        centroids, _ = kmeans_1d(values, 8)
        assert np.all(np.diff(centroids) >= 0)

    def test_fewer_uniques_than_k(self):
        values = np.array([2.0, 5.0, 2.0, 5.0])
        centroids, labels = kmeans_1d(values, 8)
        assert len(centroids) == 2
        assert np.all(centroids[labels] == values)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        values = rng.random(300) * 10
        c1, l1 = kmeans_1d(values, 4)
        c2, l2 = kmeans_1d(values, 4)
        assert np.array_equal(c1, c2)
        assert np.array_equal(l1, l2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kmeans_1d(np.array([]), 3)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            kmeans_1d(np.array([1.0, 2.0]), 0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.1, 100.0), min_size=10, max_size=200),
        st.integers(1, 8),
    )
    def test_labels_always_valid(self, values, k):
        centroids, labels = kmeans_1d(np.array(values), k)
        assert labels.min() >= 0
        assert labels.max() < len(centroids)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.1, 50.0), min_size=20, max_size=100))
    def test_assignment_is_nearest_centroid(self, values):
        arr = np.array(values)
        centroids, labels = kmeans_1d(arr, 4)
        for v, lbl in zip(arr, labels):
            dists = np.abs(centroids - v)
            assert dists[lbl] == pytest.approx(dists.min())


class TestTokenClassCalibration:
    def test_default_has_eight_classes(self):
        cmap = default_token_classes()
        assert cmap.num_classes == 8

    def test_every_kind_mapped(self):
        cmap = default_token_classes()
        for kind in Kind:
            tokens = cmap.tokens_for_kind(kind)
            assert tokens >= 1

    def test_class_ordering_follows_energy(self):
        cmap = default_token_classes()
        assert (
            cmap.tokens_for_kind(Kind.FP_MULT)
            >= cmap.tokens_for_kind(Kind.INT_ALU)
        )
        assert (
            cmap.tokens_for_kind(Kind.FP_ALU)
            >= cmap.tokens_for_kind(Kind.NOP)
        )

    def test_token_unit_scales_class_tokens(self):
        coarse = default_token_classes(token_unit=1.0)
        fine = default_token_classes(token_unit=0.1)
        # Smaller token unit -> more tokens per instruction.
        assert (
            fine.tokens_for_kind(Kind.INT_ALU)
            > coarse.tokens_for_kind(Kind.INT_ALU)
        )

    def test_quantization_error_below_paper_bound(self):
        """Paper: 8 groups keep token accounting within 1% of exact."""
        rng = np.random.default_rng(42)
        kinds = list(Kind)
        probs = np.array([1, 1, 1, 1, 4, 2, 3, 1, 1], dtype=float)
        probs /= probs.sum()
        chosen = rng.choice(len(kinds), 5000, p=probs)
        sample = np.array(
            [BASE_ENERGY[kinds[i]] for i in chosen]
        ) * rng.normal(1.0, 0.05, 5000).clip(0.5)
        cmap = calibrate_token_classes(sample, k=8, token_unit=0.15)
        err = cmap.quantization_error(sample, token_unit=0.15)
        assert err < 0.01

    def test_fewer_classes_have_higher_error(self):
        rng = np.random.default_rng(3)
        kinds = list(Kind)
        chosen = rng.integers(0, len(kinds), 4000)
        sample = np.array([BASE_ENERGY[kinds[i]] for i in chosen])
        sample = sample * rng.normal(1.0, 0.1, 4000).clip(0.5)
        err8 = calibrate_token_classes(sample, 8).quantization_error(sample)
        err2 = calibrate_token_classes(sample, 2).quantization_error(sample)
        assert err8 <= err2 + 1e-9

    def test_classify_nearest(self):
        cmap = TokenClassMap(
            centroids=(1.0, 5.0, 10.0),
            class_tokens=(1, 5, 10),
            kind_class=tuple(0 for _ in Kind),
        )
        assert cmap.classify(1.4) == 0
        assert cmap.classify(4.0) == 1
        assert cmap.classify(100.0) == 2

    def test_tokens_for_energy(self):
        cmap = TokenClassMap(
            centroids=(2.0, 8.0),
            class_tokens=(2, 8),
            kind_class=tuple(0 for _ in Kind),
        )
        assert cmap.tokens_for_energy(2.5) == 2
        assert cmap.tokens_for_energy(7.0) == 8

    def test_rejects_bad_token_unit(self):
        with pytest.raises(ValueError):
            calibrate_token_classes([1.0, 2.0], token_unit=0.0)

    def test_default_deterministic(self):
        # Two uncached calibrations: the memo below relies on this.
        a = default_token_classes.__wrapped__(seed=9)
        b = default_token_classes.__wrapped__(seed=9)
        assert a.centroids == b.centroids
        assert a.class_tokens == b.class_tokens


class TestDefaultTokenClassesMemo:
    """``default_token_classes`` is memoized per process: the first
    simulator pays for the K-means, every later one gets the same map."""

    def test_same_arguments_same_object(self):
        a = default_token_classes(8, seed=77, token_unit=0.25)
        b = default_token_classes(8, seed=77, token_unit=0.25)
        assert a is b

    def test_memoized_map_equals_fresh_calibration(self):
        memo = default_token_classes(8, seed=77, token_unit=0.25)
        fresh = default_token_classes.__wrapped__(8, seed=77, token_unit=0.25)
        assert fresh is not memo
        assert fresh == memo

    def test_other_token_unit_or_seed_gives_other_map(self):
        base = default_token_classes(8, seed=77, token_unit=0.25)
        assert default_token_classes(8, seed=77, token_unit=0.5) != base
        assert default_token_classes(8, seed=78, token_unit=0.25) != base

    def test_shared_map_is_frozen(self):
        cmap = default_token_classes(8, seed=77, token_unit=0.25)
        with pytest.raises(AttributeError):
            cmap.class_tokens = (1,)
