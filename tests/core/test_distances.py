"""Tests for D0-D4: CF closed forms vs brute-force over raw points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.distances import (
    Metric,
    distance,
    stable_distances_to_set,
    stable_merged_diameter,
    stable_merged_radius,
)
from repro.core.features import CF, StableCF

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def cluster_arrays(dims: int = 2):
    return arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 15), st.just(dims)),
        elements=finite,
    )


def brute_d0(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))


def brute_d1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a.mean(axis=0) - b.mean(axis=0)).sum())


def brute_d2(a: np.ndarray, b: np.ndarray) -> float:
    diffs = a[:, None, :] - b[None, :, :]
    return math.sqrt((diffs**2).sum() / (a.shape[0] * b.shape[0]))


def brute_d3(a: np.ndarray, b: np.ndarray) -> float:
    merged = np.concatenate([a, b])
    n = merged.shape[0]
    if n < 2:
        return 0.0
    diffs = merged[:, None, :] - merged[None, :, :]
    return math.sqrt((diffs**2).sum() / (n * (n - 1)))


def brute_d4(a: np.ndarray, b: np.ndarray) -> float:
    def ssd(x: np.ndarray) -> float:
        return float(((x - x.mean(axis=0)) ** 2).sum())

    merged = np.concatenate([a, b])
    return math.sqrt(max(ssd(merged) - ssd(a) - ssd(b), 0.0))


BRUTE = {
    Metric.D0_EUCLIDEAN: brute_d0,
    Metric.D1_MANHATTAN: brute_d1,
    Metric.D2_AVG_INTERCLUSTER: brute_d2,
    Metric.D3_AVG_INTRACLUSTER: brute_d3,
    Metric.D4_VARIANCE_INCREASE: brute_d4,
}


class TestScalarDistances:
    @pytest.mark.parametrize("metric", list(Metric))
    @given(a=cluster_arrays(), b=cluster_arrays())
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, metric, a, b):
        got = distance(CF.from_points(a), CF.from_points(b), metric)
        expected = BRUTE[metric](a, b)
        assert got == pytest.approx(expected, abs=1e-5, rel=1e-6)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_symmetry(self, metric, rng):
        a = CF.from_points(rng.normal(size=(6, 2)))
        b = CF.from_points(rng.normal(size=(9, 2)))
        assert distance(a, b, metric) == pytest.approx(
            distance(b, a, metric), rel=1e-10
        )

    @pytest.mark.parametrize("metric", list(Metric))
    def test_nonnegative(self, metric, rng):
        a = CF.from_points(rng.normal(size=(4, 2)))
        b = CF.from_points(rng.normal(size=(4, 2)))
        assert distance(a, b, metric) >= 0.0

    def test_identical_singletons_have_zero_distance(self):
        p = CF.from_point(np.array([2.0, -1.0]))
        q = CF.from_point(np.array([2.0, -1.0]))
        for metric in Metric:
            assert distance(p, q, metric) == pytest.approx(0.0, abs=1e-9)

    def test_empty_cf_rejected(self):
        good = CF.from_point(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            distance(good, CF.empty(2))

    def test_d0_on_singletons_is_euclidean(self):
        p = CF.from_point(np.array([0.0, 0.0]))
        q = CF.from_point(np.array([3.0, 4.0]))
        assert distance(p, q, Metric.D0_EUCLIDEAN) == pytest.approx(5.0)

    def test_d1_on_singletons_is_manhattan(self):
        p = CF.from_point(np.array([0.0, 0.0]))
        q = CF.from_point(np.array([3.0, 4.0]))
        assert distance(p, q, Metric.D1_MANHATTAN) == pytest.approx(7.0)


class TestVectorisedDistances:
    """The tree's per-node kernel against the reference closed forms."""

    @pytest.mark.parametrize("metric", list(Metric))
    def test_matches_scalar_loop(self, metric, rng):
        probe_points = rng.normal(size=(5, 3))
        target_points = [
            rng.normal(size=(rng.integers(1, 8), 3)) for _ in range(6)
        ]
        targets = [StableCF.from_points(t) for t in target_points]
        ns = np.array([t.n for t in targets], dtype=float)
        means = np.stack([t.mean for t in targets])
        ssds = np.array([t.ssd for t in targets])
        got = stable_distances_to_set(
            StableCF.from_points(probe_points), ns, means, ssds, metric
        )
        reference = CF.from_points(probe_points)
        expected = [
            distance(reference, CF.from_points(t), metric) for t in target_points
        ]
        assert np.allclose(got, expected, atol=1e-8)

    def test_empty_set_returns_empty(self):
        probe = StableCF.from_point(np.array([0.0, 0.0]))
        out = stable_distances_to_set(
            probe, np.empty(0), np.empty((0, 2)), np.empty(0)
        )
        assert out.shape == (0,)

    def test_empty_probe_rejected(self):
        with pytest.raises(ValueError):
            stable_distances_to_set(
                StableCF.empty(2), np.ones(1), np.zeros((1, 2)), np.zeros(1)
            )


class TestMergedStatistics:
    def test_merged_diameter_matches_cf_merge(self, rng):
        a, b = rng.normal(size=(4, 2)), rng.normal(size=(7, 2))
        target = StableCF.from_points(b)
        got = stable_merged_diameter(
            StableCF.from_points(a),
            np.array([target.n], dtype=float),
            target.mean.reshape(1, -1),
            np.array([target.ssd]),
        )[0]
        reference = CF.from_points(a).merge(CF.from_points(b))
        assert got == pytest.approx(reference.diameter, rel=1e-9)

    def test_merged_radius_matches_cf_merge(self, rng):
        a, b = rng.normal(size=(4, 2)), rng.normal(size=(7, 2))
        target = StableCF.from_points(b)
        got = stable_merged_radius(
            StableCF.from_points(a),
            np.array([target.n], dtype=float),
            target.mean.reshape(1, -1),
            np.array([target.ssd]),
        )[0]
        reference = CF.from_points(a).merge(CF.from_points(b))
        assert got == pytest.approx(reference.radius, rel=1e-9)

    def test_merged_radius_empty_set(self):
        probe = StableCF.from_point(np.array([1.0, 1.0]))
        empty = stable_merged_radius(
            probe, np.empty(0), np.empty((0, 2)), np.empty(0)
        )
        assert empty.size == 0


class TestMetricParsing:
    def test_from_name_accepts_values(self):
        assert Metric.from_name("d2") is Metric.D2_AVG_INTERCLUSTER
        assert Metric.from_name("D4_VARIANCE_INCREASE") is Metric.D4_VARIANCE_INCREASE
        assert Metric.from_name(Metric.D0_EUCLIDEAN) is Metric.D0_EUCLIDEAN

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            Metric.from_name("d9")
