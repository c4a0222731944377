"""End-to-end property-based tests of the full pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.birch import Birch
from repro.core.config import BirchConfig

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)

small_datasets = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(3, 80), st.just(2)),
    elements=finite,
)


class TestPipelineProperties:
    @given(points=small_datasets, k=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_fit_always_produces_valid_result(self, points, k):
        result = Birch(BirchConfig(n_clusters=k)).fit(points)
        # Clusters conserve points exactly.
        assert sum(cf.n for cf in result.clusters) == points.shape[0]
        # Labels valid and within range.
        assert result.labels is not None
        assert result.labels.shape == (points.shape[0],)
        assert (result.labels >= 0).all()
        assert (result.labels < len(result.clusters)).all()
        # Centroids are finite.
        assert np.isfinite(result.centroids).all()
        # Never more clusters than requested... (Phase 4 may leave some
        # empty, but the list length matches the Phase 3 output).
        assert 1 <= result.n_clusters <= max(k, 1)

    @given(points=small_datasets)
    @settings(max_examples=15, deadline=None)
    def test_memory_pressure_never_loses_points(self, points):
        config = BirchConfig(
            n_clusters=2,
            memory_bytes=2 * 1024,
            phase4_passes=0,
            total_points_hint=points.shape[0],
        )
        estimator = Birch(config)
        estimator.partial_fit(points)
        handler = estimator._outlier_handler
        on_disk = handler.pending_points if handler else 0
        assert estimator.tree.points + on_disk == points.shape[0]
        estimator.tree.check_invariants()

    @given(
        points=small_datasets,
        split=st.integers(1, 79),
    )
    @settings(max_examples=15, deadline=None)
    def test_batch_splitting_is_transparent(self, points, split):
        """partial_fit in two batches == one batch, summary-wise."""
        if split >= points.shape[0]:
            split = points.shape[0] - 1
        if split < 1:
            return
        one = Birch(BirchConfig(n_clusters=2, phase4_passes=0))
        one.partial_fit(points)
        two = Birch(BirchConfig(n_clusters=2, phase4_passes=0))
        two.partial_fit(points[:split])
        two.partial_fit(points[split:])
        a, b = one.tree.summary_cf(), two.tree.summary_cf()
        assert a.n == b.n
        assert np.allclose(a.ls, b.ls, rtol=1e-9, atol=1e-9)

    @given(points=small_datasets, k=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_predict_is_consistent_with_centroids(self, points, k):
        estimator = Birch(BirchConfig(n_clusters=k))
        result = estimator.fit(points)
        labels = estimator.predict(points)
        # Every predicted label indexes the closest centroid.
        dist2 = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(
            axis=2
        )
        best = dist2[np.arange(points.shape[0]), labels]
        assert np.allclose(best, dist2.min(axis=1))


@pytest.mark.evolve
class TestAdditivityRoundTrip:
    """The CF additivity theorem run backwards: add then subtract.

    The decay/forgetting machinery leans on ``merge`` and ``subtract``
    being exact inverses up to round-off; these properties pin that
    down for the stored ``StableCF`` and the reference ``CF`` on
    arbitrary splits.
    """

    @given(points=small_datasets, cut=st.integers(1, 79))
    @settings(max_examples=25, deadline=None)
    def test_stable_add_then_subtract_recovers_the_rest(self, points, cut):
        from repro.core.features import StableCF

        cut = min(cut, points.shape[0] - 1)
        if cut < 1:
            return
        whole = StableCF.from_points(points)
        part = StableCF.from_points(points[:cut])
        rest = whole.subtract(part)
        expected = StableCF.from_points(points[cut:])
        assert rest.n == expected.n
        assert np.allclose(rest.mean, expected.mean, rtol=1e-6, atol=1e-6)
        scale = max(abs(expected.ssd), 1.0)
        assert abs(rest.ssd - expected.ssd) <= 1e-5 * scale

    @given(points=small_datasets, cut=st.integers(1, 79))
    @settings(max_examples=25, deadline=None)
    def test_classic_add_then_subtract_recovers_the_rest(self, points, cut):
        from repro.core.features import CF

        cut = min(cut, points.shape[0] - 1)
        if cut < 1:
            return
        whole = CF.from_points(points)
        part = CF.from_points(points[:cut])
        rest = whole.subtract(part)
        expected = CF.from_points(points[cut:])
        assert rest.n == expected.n
        assert np.allclose(rest.ls, expected.ls, rtol=1e-9, atol=1e-9)
        scale = max(abs(expected.ss), 1.0)
        assert abs(rest.ss - expected.ss) <= 1e-6 * scale

    @given(points=small_datasets)
    @settings(max_examples=25, deadline=None)
    def test_subtracting_a_non_subset_raises_not_mints_variance(self, points):
        from repro.core.features import StableCF

        whole = StableCF.from_points(points)
        # A "subset" translated far away can never have been merged in:
        # the guard must raise rather than fabricate negative spread.
        # (Leave a remainder — removing *all* mass legitimately returns
        # an empty CF without consulting the geometry.)
        alien = StableCF(
            float(points.shape[0] - 1),
            whole.mean + 1e4,
            whole.ssd * 100.0 + 1e8,
        )
        with pytest.raises(ValueError):
            whole.subtract(alien)

    @given(points=small_datasets)
    @settings(max_examples=25, deadline=None)
    def test_subtract_everything_leaves_an_empty_cf(self, points):
        from repro.core.features import StableCF

        whole = StableCF.from_points(points)
        rest = whole.subtract(whole.copy())
        assert rest.n == 0
        assert rest.ssd == 0.0
