"""Regression tests for the input-validation bugfixes.

Before these fixes:

* ``CF.from_points([])`` returned a bogus ``CF(n=1, d=0)`` — the empty
  1-d array slipped through the singleton-reshape path;
* ``CF.add_point`` / ``CF.from_point`` accepted a point of the wrong
  dimensionality and blew up later (or silently broadcast);
* the per-node distance kernel with malformed arrays failed with an
  opaque ``einsum`` shape error from deep inside a metric kernel.

All of the above must now raise ``ValueError`` with a message naming the
actual mismatch, for the reference ``CF`` and for ``StableCF``.
"""

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.distances import (
    Metric,
    stable_distances_to_set,
    stable_merged_radius,
)
from repro.core.features import CF, StableCF
from repro.errors import InvalidPointError

#: The reference ``(N, LS, SS)`` class and the stored representation.
CF_CLASSES = {"classic": CF, "stable": StableCF}
BACKENDS = sorted(CF_CLASSES)


class TestFromPointsValidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_list_raises(self, backend):
        with pytest.raises(ValueError, match="zero points"):
            CF_CLASSES[backend].from_points([])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_2d_array_raises(self, backend):
        with pytest.raises(ValueError, match="zero points"):
            CF_CLASSES[backend].from_points(np.empty((0, 3)))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_dimension_points_raise(self, backend):
        with pytest.raises(ValueError, match="at least one dimension"):
            CF_CLASSES[backend].from_points(np.empty((4, 0)))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_3d_array_raises(self, backend):
        with pytest.raises(ValueError, match="2-d"):
            CF_CLASSES[backend].from_points(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_vector_still_accepted(self, backend):
        """The convenience 1-d path must keep working for real points."""
        cf = CF_CLASSES[backend].from_points([1.0, 2.0, 3.0])
        assert cf.n == 1
        assert cf.dimensions == 3


class TestPointDimensionValidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_from_point_rejects_empty(self, backend):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            CF_CLASSES[backend].from_point([])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_from_point_rejects_matrix(self, backend):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            CF_CLASSES[backend].from_point(np.zeros((2, 2)))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_add_point_rejects_wrong_dimensions(self, backend):
        cf = CF_CLASSES[backend].from_point([1.0, 2.0])
        with pytest.raises(ValueError, match="3 dimensions, CF has 2"):
            cf.add_point([1.0, 2.0, 3.0])
        assert cf.n == 1  # unchanged after the failed add

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_add_point_rejects_matrix(self, backend):
        cf = CF_CLASSES[backend].from_point([1.0, 2.0])
        with pytest.raises(ValueError, match="non-empty 1-d"):
            cf.add_point(np.zeros((2, 2)))


class TestDistancesToSetValidation:
    """The per-node kernel's set is ``(ns, means, ssds)``."""

    def _probe(self):
        return StableCF.from_points([[0.0, 0.0], [1.0, 1.0]])

    def test_ls_must_be_2d(self):
        probe = self._probe()
        with pytest.raises(ValueError, match="means must be 2-d"):
            stable_distances_to_set(probe, np.ones(3), np.ones(3), np.ones(3))

    def test_row_count_mismatch(self):
        probe = self._probe()
        with pytest.raises(ValueError, match="2 rows but ns has 3"):
            stable_distances_to_set(
                probe, np.ones(3), np.ones((2, 2)), np.ones(3)
            )

    def test_sq_shape_mismatch(self):
        probe = self._probe()
        with pytest.raises(ValueError, match=r"ssds shape \(2,\)"):
            stable_distances_to_set(
                probe, np.ones(3), np.ones((3, 2)), np.ones(2)
            )

    def test_dimension_mismatch_with_probe(self):
        probe = self._probe()
        with pytest.raises(ValueError, match="3 dimensions, probe has 2"):
            stable_distances_to_set(
                probe, np.ones(2), np.ones((2, 3)), np.ones(2)
            )

    def test_ns_must_be_1d(self):
        probe = self._probe()
        with pytest.raises(ValueError, match="ns must be 1-d"):
            stable_distances_to_set(
                probe, np.ones((2, 2)), np.ones((2, 2)), np.ones(2)
            )

    def test_stable_kernel_names_its_arrays(self):
        probe = self._probe()
        with pytest.raises(ValueError, match="means must be 2-d"):
            stable_distances_to_set(probe, np.ones(3), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match=r"ssds shape"):
            stable_distances_to_set(probe, np.ones(3), np.ones((3, 2)), np.ones(2))

    def test_merged_radius_validates_too(self):
        probe = self._probe()
        with pytest.raises(ValueError, match="means must be 2-d"):
            stable_merged_radius(probe, np.ones(3), np.ones(3), np.ones(3))

    @pytest.mark.parametrize("metric", list(Metric))
    def test_empty_set_returns_empty(self, metric):
        """A size-zero set is valid (an empty node view), not an error."""
        probe = self._probe()
        out = stable_distances_to_set(
            probe, np.empty(0), np.empty((0, 2)), np.empty(0), metric
        )
        assert out.shape == (0,)


class TestBirchIngestValidation:
    """The estimator-level guardrail: ``fit`` rejects poisoned rows by
    default, naming the offending row and the reason."""

    def _points(self):
        rng = np.random.default_rng(5)
        return rng.normal(0.0, 4.0, (120, 2))

    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    def test_nan_raises_invalid_point_by_default(self, backend):
        points = self._points()
        points[37, 1] = np.nan
        est = Birch(BirchConfig(n_clusters=2))
        with pytest.raises(InvalidPointError, match="row 37") as excinfo:
            est.fit(points)
        assert excinfo.value.row == 37
        assert excinfo.value.reason == "nan"

    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    def test_inf_raises_with_reason(self, backend):
        points = self._points()
        points[0, 0] = np.inf
        est = Birch(BirchConfig(n_clusters=2))
        with pytest.raises(InvalidPointError, match="contains Inf"):
            est.fit(points)

    def test_partial_fit_row_index_is_stream_global(self):
        points = self._points()
        points[60, 0] = np.nan  # row 10 of the *second* batch
        est = Birch(BirchConfig(n_clusters=2))
        est.partial_fit(points[:50])
        with pytest.raises(InvalidPointError, match="row 60"):
            est.partial_fit(points[50:])

    def test_dimension_change_mid_stream_raises(self):
        est = Birch(BirchConfig(n_clusters=2))
        est.partial_fit(self._points())
        with pytest.raises(InvalidPointError, match="dimension"):
            est.partial_fit(np.ones((5, 3)))

    def test_invalid_point_error_is_a_value_error(self):
        """Callers that catch ``ValueError`` keep working."""
        points = self._points()
        points[3, 0] = np.nan
        with pytest.raises(ValueError):
            Birch(BirchConfig(n_clusters=2)).fit(points)

    def test_legacy_opt_out_restores_old_behaviour(self):
        points = self._points()
        points[3, 0] = np.nan
        # Generous memory: no rebuild, so the poisoned threshold guard
        # in rebuild_tree is never reached either.
        config = BirchConfig(
            n_clusters=2, validate_points=False, memory_bytes=1 << 20
        )
        # No InvalidPointError: NaN flows into the tree as before.
        result = Birch(config).fit(points)
        assert result is not None
