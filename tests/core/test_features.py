"""Tests for the Clustering Feature — including the Additivity Theorem.

Property-based tests check that every CF-derived statistic matches a
brute-force computation over the raw points, which is exactly the
exactness claim of Section 4.1.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.features import CF

EPS = float(np.finfo(np.float64).eps)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def points_arrays(min_rows: int = 1, max_rows: int = 30, dims: int = 3):
    return arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.just(dims)
        ),
        elements=finite,
    )


class TestConstruction:
    def test_from_point(self):
        cf = CF.from_point(np.array([3.0, 4.0]))
        assert cf.n == 1
        assert np.allclose(cf.ls, [3.0, 4.0])
        assert cf.ss == pytest.approx(25.0)

    def test_from_points_matches_manual_sum(self, rng):
        pts = rng.normal(size=(20, 4))
        cf = CF.from_points(pts)
        assert cf.n == 20
        assert np.allclose(cf.ls, pts.sum(axis=0))
        assert cf.ss == pytest.approx(float((pts**2).sum()))

    def test_from_points_accepts_single_row(self):
        cf = CF.from_points([1.0, 2.0])
        assert cf.n == 1
        assert cf.dimensions == 2

    def test_empty_is_identity(self):
        empty = CF.empty(3)
        cf = CF.from_points(np.ones((5, 3)))
        merged = cf.merge(empty)
        assert merged.allclose(cf)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            CF(-1, np.zeros(2), 0.0)

    def test_non_vector_ls_rejected(self):
        with pytest.raises(ValueError):
            CF(1, np.zeros((2, 2)), 0.0)


class TestAdditivity:
    """Theorem 4.1: CF(A) + CF(B) == CF(A ++ B) for disjoint A, B."""

    @given(a=points_arrays(), b=points_arrays())
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation(self, a, b):
        merged = CF.from_points(a).merge(CF.from_points(b))
        direct = CF.from_points(np.concatenate([a, b]))
        assert merged.n == direct.n
        assert np.allclose(merged.ls, direct.ls, atol=1e-6)
        assert merged.ss == pytest.approx(direct.ss, abs=1e-5, rel=1e-9)

    @given(pts=points_arrays(min_rows=2))
    @settings(max_examples=60, deadline=None)
    def test_subtract_inverts_merge(self, pts):
        whole = CF.from_points(pts)
        part = CF.from_points(pts[:1])
        rest = whole.subtract(part)
        rebuilt = rest.merge(part)
        assert rebuilt.allclose(whole, rtol=1e-7, atol=1e-6)

    def test_merge_inplace_matches_merge(self, rng):
        a = CF.from_points(rng.normal(size=(7, 2)))
        b = CF.from_points(rng.normal(size=(5, 2)))
        out_of_place = a.merge(b)
        a.merge_inplace(b)
        assert a.allclose(out_of_place)

    def test_iadd_operator(self, rng):
        a = CF.from_points(rng.normal(size=(3, 2)))
        b = CF.from_points(rng.normal(size=(4, 2)))
        expected = a + b
        a += b
        assert a.allclose(expected)

    def test_add_point_matches_merge_of_singleton(self, rng):
        pts = rng.normal(size=(6, 3))
        point = rng.normal(size=3)
        incremental = CF.from_points(pts)
        incremental.add_point(point)
        direct = CF.from_points(np.vstack([pts, point]))
        assert incremental.allclose(direct, rtol=1e-8, atol=1e-8)

    def test_dimension_mismatch_rejected(self):
        a = CF.from_points(np.zeros((2, 2)))
        b = CF.from_points(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_subtract_larger_rejected(self):
        a = CF.from_points(np.zeros((2, 2)))
        b = CF.from_points(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            a.subtract(b)


class TestDerivedStatistics:
    """Equations (1)-(3): centroid, radius, diameter from CFs alone."""

    @given(pts=points_arrays())
    @settings(max_examples=60, deadline=None)
    def test_centroid_matches_mean(self, pts):
        cf = CF.from_points(pts)
        assert np.allclose(cf.centroid, pts.mean(axis=0), atol=1e-7)

    @given(pts=points_arrays())
    @settings(max_examples=60, deadline=None)
    def test_radius_matches_bruteforce(self, pts):
        cf = CF.from_points(pts)
        centroid = pts.mean(axis=0)
        expected = math.sqrt(((pts - centroid) ** 2).sum(axis=1).mean())
        assert cf.radius == pytest.approx(expected, abs=1e-5, rel=1e-6)

    @given(pts=points_arrays(min_rows=2))
    # 30 identical rows near 95.73: the classic diameter is a
    # cancellation residue, 2.9e-6 at 95.73 and 1.3e-5 at 95.730459,
    # which a fixed ``abs=1e-5`` failed.
    @example(pts=np.full((30, 3), 95.73))
    @example(pts=np.full((30, 3), 95.730459))
    @settings(max_examples=60, deadline=None)
    def test_diameter_matches_bruteforce(self, pts):
        cf = CF.from_points(pts)
        n, d = pts.shape
        diffs = pts[:, None, :] - pts[None, :, :]
        total = (diffs**2).sum()
        expected = math.sqrt(total / (n * (n - 1)))
        # D^2 = 2 (n SS - |LS|^2) / (n (n - 1)) cancels.  Rounding SS
        # (n d terms) and LS (n terms per coordinate), then |LS|^2 <= n SS,
        # leaves an absolute error of at most about
        # 2 (n d + 2 n + 2) eps SS / (n - 1) in D^2: n |mean|^2 eps at
        # scale, and |D - D_true| <= sqrt(|D^2 - D_true^2|).
        ss = float((pts**2).sum())
        d2_error = 2.0 * (n * d + 2 * n + 2) * EPS * ss / (n - 1)
        assert cf.diameter == pytest.approx(
            expected, abs=math.sqrt(d2_error), rel=1e-6
        )

    def test_singleton_diameter_is_zero(self):
        assert CF.from_point(np.array([1.0, 2.0])).diameter == 0.0

    def test_singleton_radius_is_zero(self):
        assert CF.from_point(np.array([1.0, 2.0])).radius == pytest.approx(0.0)

    def test_empty_statistics_rejected(self):
        empty = CF.empty(2)
        with pytest.raises(ValueError):
            _ = empty.centroid
        with pytest.raises(ValueError):
            _ = empty.radius
        with pytest.raises(ValueError):
            _ = empty.diameter

    @given(pts=points_arrays())
    @settings(max_examples=40, deadline=None)
    def test_sum_squared_deviation_bruteforce(self, pts):
        cf = CF.from_points(pts)
        centroid = pts.mean(axis=0)
        expected = float(((pts - centroid) ** 2).sum())
        assert cf.sum_squared_deviation == pytest.approx(expected, abs=1e-5)

    def test_radius_nonnegative_under_cancellation(self):
        # Points far from origin stress SS/N - ||c||^2 cancellation.
        pts = np.full((10, 2), 1e6) + np.arange(10).reshape(-1, 1) * 1e-6
        cf = CF.from_points(pts)
        assert cf.radius >= 0.0
        assert cf.diameter >= 0.0


class TestCopy:
    def test_copy_is_independent(self, rng):
        a = CF.from_points(rng.normal(size=(4, 2)))
        b = a.copy()
        b.add_point(np.array([100.0, 100.0]))
        assert a.n == 4
        assert b.n == 5

    def test_repr_mentions_n(self):
        cf = CF.from_point(np.array([1.0, 1.0]))
        assert "n=1" in repr(cf)
