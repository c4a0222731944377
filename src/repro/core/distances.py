"""Inter-cluster distances D0-D4 computed exactly from CFs.

Section 3 of the paper defines five alternatives for measuring the
closeness of two clusters; Section 4.1 observes all of them are
closed-form functions of the clusters' CF vectors.  Given clusters 1 and
2 with CFs ``(N1, LS1, SS1)`` and ``(N2, LS2, SS2)`` and centroids
``c1 = LS1/N1``, ``c2 = LS2/N2``:

* **D0** — centroid Euclidean distance: ``||c1 - c2||``  (eq. 4)
* **D1** — centroid Manhattan distance: ``sum_t |c1(t) - c2(t)|``  (eq. 5)
* **D2** — average inter-cluster distance:
  ``sqrt( (N2*SS1 + N1*SS2 - 2*LS1.LS2) / (N1*N2) )``  (eq. 6)
* **D3** — average intra-cluster distance of the merged cluster, i.e.
  the diameter of ``CF1 + CF2``.
* **D4** — variance-increase distance: the square root of the increase
  in total squared deviation caused by merging,
  ``||LS1||^2/N1 + ||LS2||^2/N2 - ||LS1+LS2||^2/(N1+N2)``.

:func:`distance` evaluates these closed forms on two reference
:class:`~repro.core.features.CF` objects, clamping squared quantities
at zero before the square root.  They compute squared statistics as
differences of large raw moments, which loses all precision far from
the origin, so every kernel the CF-tree uses (the ``stable_*``
functions) evaluates the same five distances from the ``(n, mean,
SSD)`` representation of :class:`~repro.core.features.StableCF` without
any cancellation.  With ``delta = mean_1 - mean_2``:

* **D0** = ``||delta||``, **D1** = ``sum_t |delta(t)|``;
* **D2^2** = ``SSD_1/n_1 + SSD_2/n_2 + ||delta||^2``;
* **D3^2** = ``2 * SSD_merged / (n_1 + n_2 - 1)`` where
  ``SSD_merged = SSD_1 + SSD_2 + (n_1 n_2 / (n_1+n_2)) ||delta||^2``;
* **D4** = ``sqrt(n_1 n_2 / (n_1 + n_2)) * ||delta||``.

Each identity follows by substituting ``LS = n * mean`` and
``SS = SSD + n ||mean||^2`` into equations (4)-(6) and simplifying; the
cancelling ``||mean||^2`` terms drop out symbolically instead of
numerically.

The vectorised per-probe kernels are checked wrappers around unchecked
``*_core`` functions holding their arithmetic; the CF-tree's insertion
path calls the cores directly.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.core.features import CF, StableCF

__all__ = [
    "Metric",
    "distance",
    "stable_distances_core",
    "stable_distances_to_set",
    "stable_gathered_cf_distances",
    "stable_merged_diameter",
    "stable_merged_radius",
    "stable_merged_radius_core",
    "stable_cf_batch_distances",
    "stable_paired_cf_merged_stat",
]


class Metric(enum.Enum):
    """The five distance definitions of Section 3."""

    D0_EUCLIDEAN = "d0"
    D1_MANHATTAN = "d1"
    D2_AVG_INTERCLUSTER = "d2"
    D3_AVG_INTRACLUSTER = "d3"
    D4_VARIANCE_INCREASE = "d4"

    @classmethod
    def from_name(cls, name: "str | Metric") -> "Metric":
        """Accept 'd0'..'d4' strings, enum names, or Metric values."""
        if isinstance(name, Metric):
            return name
        lowered = name.strip().lower()
        for metric in cls:
            if lowered in (metric.value, metric.name.lower()):
                return metric
        raise ValueError(f"unknown metric {name!r}; expected one of d0..d4")


def distance(a: CF, b: CF, metric: Metric = Metric.D2_AVG_INTERCLUSTER) -> float:
    """Distance between two non-empty CFs under ``metric``.

    Accepts either class: two reference :class:`CF` arguments use the
    paper's closed forms; a pair with a :class:`StableCF` in it is
    lifted to ``(n, mean, SSD)`` first and goes through the
    cancellation-free formulas (the classic participant has already
    paid its cancellation, so nothing is lost by converting).
    """
    if a.n == 0 or b.n == 0:
        raise ValueError("distances are undefined for empty CFs")
    if isinstance(a, StableCF) or isinstance(b, StableCF):
        return _stable_distance(a.to_stable(), b.to_stable(), metric)
    if metric is Metric.D0_EUCLIDEAN:
        diff = a.ls / a.n - b.ls / b.n
        return math.sqrt(max(float(diff @ diff), 0.0))
    if metric is Metric.D1_MANHATTAN:
        diff = a.ls / a.n - b.ls / b.n
        return float(np.abs(diff).sum())
    if metric is Metric.D2_AVG_INTERCLUSTER:
        d2 = (b.n * a.ss + a.n * b.ss - 2.0 * float(a.ls @ b.ls)) / (a.n * b.n)
        return math.sqrt(max(d2, 0.0))
    if metric is Metric.D3_AVG_INTRACLUSTER:
        return a.merge(b).diameter
    if metric is Metric.D4_VARIANCE_INCREASE:
        return math.sqrt(max(_variance_increase(a, b), 0.0))
    raise ValueError(f"unhandled metric {metric!r}")


def _variance_increase(a: CF, b: CF) -> float:
    """Increase in total squared deviation when merging ``a`` and ``b``."""
    merged_norm = a.ls + b.ls
    return (
        float(a.ls @ a.ls) / a.n
        + float(b.ls @ b.ls) / b.n
        - float(merged_norm @ merged_norm) / (a.n + b.n)
    )


def _stable_distance(a: StableCF, b: StableCF, metric: Metric) -> float:
    """D0-D4 between two non-empty StableCFs, cancellation-free."""
    delta = a.mean - b.mean
    if metric is Metric.D1_MANHATTAN:
        return float(np.abs(delta).sum())
    delta2 = float(delta @ delta)
    if metric is Metric.D0_EUCLIDEAN:
        return math.sqrt(delta2)
    if metric is Metric.D2_AVG_INTERCLUSTER:
        return math.sqrt(a.ssd / a.n + b.ssd / b.n + delta2)
    if metric is Metric.D3_AVG_INTRACLUSTER:
        n = a.n + b.n
        if n < 2:
            return 0.0
        ssd_merged = a.ssd + b.ssd + (a.n * b.n / n) * delta2
        return math.sqrt(2.0 * ssd_merged / (n - 1))
    if metric is Metric.D4_VARIANCE_INCREASE:
        return math.sqrt((a.n * b.n / (a.n + b.n)) * delta2)
    raise ValueError(f"unhandled metric {metric!r}")


def _validate_set(
    probe: StableCF,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coerce and shape-check the struct-of-arrays CF set.

    A malformed node view used to surface as an opaque ``einsum`` error
    deep inside a metric kernel; fail here with the actual mismatch
    instead.
    """
    ns = np.asarray(ns, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    ssds = np.asarray(ssds, dtype=np.float64)
    if ns.ndim != 1:
        raise ValueError(f"ns must be 1-d, got shape {ns.shape}")
    if means.ndim != 2:
        raise ValueError(f"means must be 2-d (k, d), got shape {means.shape}")
    if means.shape[0] != ns.shape[0]:
        raise ValueError(
            f"means holds {means.shape[0]} rows but ns has "
            f"{ns.shape[0]} entries"
        )
    if ssds.shape != ns.shape:
        raise ValueError(
            f"ssds shape {ssds.shape} does not match ns shape {ns.shape}"
        )
    if ns.size and means.shape[1] != probe.dimensions:
        raise ValueError(
            f"means rows have {means.shape[1]} dimensions, probe has "
            f"{probe.dimensions}"
        )
    return ns, means, ssds


# -- stable (n, mean, SSD) kernels -------------------------------------------


def stable_distances_to_set(
    probe: StableCF,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
    metric: Metric = Metric.D2_AVG_INTERCLUSTER,
) -> np.ndarray:
    """Distances from ``probe`` to ``k`` StableCFs given as parallel arrays.

    ``ns``, ``means`` and ``ssds`` have shapes ``(k,)``, ``(k, d)`` and
    ``(k,)`` (the struct-of-arrays view of a tree node).
    """
    ns, means, ssds = _validate_set(probe, ns, means, ssds)
    if ns.size == 0:
        return np.empty(0, dtype=np.float64)
    if probe.n == 0 or (ns <= 0).any():
        raise ValueError("distances are undefined for empty CFs")
    return stable_distances_core(
        probe.n, probe.mean, probe.ssd, ns, means, ssds, metric
    )


def stable_distances_core(
    p_n: float,
    p_mean: np.ndarray,
    p_ssd: float,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
    metric: Metric,
) -> np.ndarray:
    """The arithmetic of :func:`stable_distances_to_set`, unchecked.

    The probe arrives as its raw ``(n, mean, SSD)`` row and the set as
    float64 arrays of matching, non-empty shape with positive counts;
    nothing is coerced or validated.  The CF-tree's insertion path
    calls this directly, the public kernel after its checks.
    """
    diff = means - p_mean
    if metric is Metric.D1_MANHATTAN:
        return np.abs(diff).sum(axis=1)
    delta2 = np.einsum("ij,ij->i", diff, diff)
    if metric is Metric.D0_EUCLIDEAN:
        return np.sqrt(delta2)
    if metric is Metric.D2_AVG_INTERCLUSTER:
        return np.sqrt(ssds / ns + p_ssd / p_n + delta2)
    if metric is Metric.D3_AVG_INTRACLUSTER:
        n_merged = ns + p_n
        ssd_merged = ssds + p_ssd + (ns * p_n / n_merged) * delta2
        denom = n_merged - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = np.where(denom > 0, 2.0 * ssd_merged / denom, 0.0)
        return np.sqrt(np.maximum(d2, 0.0))
    if metric is Metric.D4_VARIANCE_INCREASE:
        return np.sqrt((ns * p_n / (ns + p_n)) * delta2)
    raise ValueError(f"unhandled metric {metric!r}")


def stable_merged_diameter(
    probe: StableCF, ns: np.ndarray, means: np.ndarray, ssds: np.ndarray
) -> np.ndarray:
    """Diameter of ``probe`` merged with each StableCF in the set."""
    return stable_distances_to_set(
        probe, ns, means, ssds, Metric.D3_AVG_INTRACLUSTER
    )


def stable_merged_radius(
    probe: StableCF, ns: np.ndarray, means: np.ndarray, ssds: np.ndarray
) -> np.ndarray:
    """Radius of ``probe`` merged with each StableCF in the set.

    ``R^2 = SSD_merged / n_merged`` of each hypothetical merge.
    """
    ns, means, ssds = _validate_set(probe, ns, means, ssds)
    if ns.size == 0:
        return np.empty(0, dtype=np.float64)
    return stable_merged_radius_core(probe.n, probe.mean, probe.ssd, ns, means, ssds)


def stable_merged_radius_core(
    p_n: float,
    p_mean: np.ndarray,
    p_ssd: float,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
) -> np.ndarray:
    """The arithmetic of :func:`stable_merged_radius`, unchecked."""
    diff = means - p_mean
    delta2 = np.einsum("ij,ij->i", diff, diff)
    n_merged = ns + p_n
    ssd_merged = ssds + p_ssd + (ns * p_n / n_merged) * delta2
    return np.sqrt(np.maximum(ssd_merged, 0.0) / n_merged)


# -- bulk-ingest kernels ------------------------------------------------------
#
# The vectorised Phase-1 fast path (CFTree.bulk_insert) routes a window
# of CF rows of any weight with stable_cf_batch_distances below and
# validates it with the gathered kernel here (every level) and the
# paired kernel (the d >= 3 leaf threshold test), which see
# per-row entry states that evolve within the window.  Each reproduces,
# element for element, the exact floating-point value the corresponding
# per-probe core above computes — same elementwise operation order, same
# einsum contraction — so a bulk build is byte-identical to a sequential
# insert_cf loop.  That property rules out BLAS ``@`` (gemm and gemv
# round differently) and any algebraic rearrangement, however innocuous.


def stable_gathered_cf_distances(
    p_ns: np.ndarray,
    p_means: np.ndarray,
    p_ssds: np.ndarray,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
    metric: Metric = Metric.D2_AVG_INTERCLUSTER,
) -> np.ndarray:
    """Distances from ``m`` CF probes to per-row entry states.

    The probes have shapes ``(m,)``, ``(m, d)`` and ``(m,)``; every
    probe sees its **own** snapshot of the ``k`` entries: ``ns``,
    ``means`` and ``ssds`` have shapes ``(m, k)``, ``(m, k, d)`` and
    ``(m, k)``.  This is the validation kernel of the bulk-ingest fast
    path, where entries evolve row by row within a window.  Element
    ``(r, k)`` equals
    ``stable_distances_to_set(StableCF(p_ns[r], p_means[r], p_ssds[r]),
    ns[r], means[r], ssds[r], metric)[k]`` bitwise.
    """
    if ns.shape[1] == 0:
        return np.empty((p_ns.shape[0], 0), dtype=np.float64)
    diff = means - p_means[:, None, :]
    if metric is Metric.D1_MANHATTAN:
        return np.abs(diff).sum(axis=2)
    delta2 = np.einsum("rkj,rkj->rk", diff, diff)
    if metric is Metric.D0_EUCLIDEAN:
        return np.sqrt(delta2)
    pn = p_ns[:, None]
    if metric is Metric.D2_AVG_INTERCLUSTER:
        return np.sqrt(ssds / ns + (p_ssds / p_ns)[:, None] + delta2)
    n_merged = ns + pn
    if metric is Metric.D3_AVG_INTRACLUSTER:
        ssd_merged = ssds + p_ssds[:, None] + (ns * pn / n_merged) * delta2
        denom = n_merged - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = np.where(denom > 0, 2.0 * ssd_merged / denom, 0.0)
        return np.sqrt(np.maximum(d2, 0.0))
    if metric is Metric.D4_VARIANCE_INCREASE:
        return np.sqrt((ns * pn / n_merged) * delta2)
    raise ValueError(f"unhandled metric {metric!r}")


def stable_paired_cf_merged_stat(
    p_ns: np.ndarray,
    p_means: np.ndarray,
    p_ssds: np.ndarray,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Merged diameter/radius of StableCF probe ``r`` with StableCF ``r``.

    All arguments are parallel over the first axis.  ``kind`` is
    ``"diameter"`` or ``"radius"``; element ``r`` equals the scalar
    :func:`stable_merged_diameter`/:func:`stable_merged_radius` of probe
    ``r`` on a one-entry slice, bitwise (the leaf threshold test of the
    bulk path).
    """
    diff = means - p_means
    delta2 = np.einsum("rj,rj->r", diff, diff)
    n_merged = ns + p_ns
    ssd_merged = ssds + p_ssds + (ns * p_ns / n_merged) * delta2
    if kind == "diameter":
        denom = n_merged - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = np.where(denom > 0, 2.0 * ssd_merged / denom, 0.0)
        return np.sqrt(np.maximum(d2, 0.0))
    return np.sqrt(np.maximum(ssd_merged, 0.0) / n_merged)


# -- batch CF kernels -----------------------------------------------------------
#
# These kernels evaluate the m x k distance matrix between CF *probes*
# of any weight and a node's entries.  CFTree.bulk_insert routes a
# window of rows through a node with one call, and
# CFNode.pairwise_entry_distances evaluates a node against itself.  Row
# ``r`` equals the per-probe kernel on probe ``r`` bitwise — the same
# elementwise operations in the same order, the same einsum
# contractions — for D0-D4, so the bulk path's routing,
# the merging refinement's closest pair and the threshold heuristics'
# pairwise statistics are those of a per-entry loop.


def stable_cf_batch_distances(
    p_ns: np.ndarray,
    p_means: np.ndarray,
    p_ssds: np.ndarray,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
    metric: Metric = Metric.D2_AVG_INTERCLUSTER,
) -> np.ndarray:
    """Distances between ``m`` StableCF probes and ``k`` StableCFs.

    The probes have shapes ``(m,)``, ``(m, d)`` and ``(m,)``; the
    target set ``(k,)``, ``(k, d)`` and ``(k,)`` (the struct-of-arrays
    view of a tree node).  Returns the ``(m, k)`` distance matrix whose
    row ``r`` equals :func:`stable_distances_to_set` on probe ``r``
    bitwise.
    """
    m, k = p_ns.shape[0], ns.shape[0]
    if m == 0 or k == 0:
        return np.empty((m, k), dtype=np.float64)
    diff = means[None, :, :] - p_means[:, None, :]
    if metric is Metric.D1_MANHATTAN:
        return np.abs(diff).sum(axis=2)
    delta2 = np.einsum("mkj,mkj->mk", diff, diff)
    if metric is Metric.D0_EUCLIDEAN:
        return np.sqrt(delta2)
    if metric is Metric.D2_AVG_INTERCLUSTER:
        return np.sqrt(
            ssds[None, :] / ns[None, :]
            + p_ssds[:, None] / p_ns[:, None]
            + delta2
        )
    n_merged = ns[None, :] + p_ns[:, None]
    if metric is Metric.D3_AVG_INTRACLUSTER:
        ssd_merged = (
            ssds[None, :]
            + p_ssds[:, None]
            + (ns[None, :] * p_ns[:, None] / n_merged) * delta2
        )
        denom = n_merged - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = np.where(denom > 0, 2.0 * ssd_merged / denom, 0.0)
        return np.sqrt(np.maximum(d2, 0.0))
    if metric is Metric.D4_VARIANCE_INCREASE:
        return np.sqrt((ns[None, :] * p_ns[:, None] / n_merged) * delta2)
    raise ValueError(f"unhandled metric {metric!r}")
