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

Both scalar (CF-vs-CF) and vectorised (CF-vs-array-of-CFs) forms are
provided.  Each vectorised per-probe kernel is a checked wrapper around
an unchecked ``*_core`` function holding its arithmetic; the CF-tree's
insertion path calls the cores directly.
All squared quantities are clamped at zero before the square root to
guard against floating-point cancellation.

The closed forms above compute squared statistics as differences of
large raw moments, which loses all precision far from the origin.  The
``stable_*`` counterparts evaluate the same five distances from the
``(n, mean, SSD)`` representation of :class:`~repro.core.features.StableCF`
without any cancellation.  With ``delta = mean_1 - mean_2``:

* **D0** = ``||delta||``, **D1** = ``sum_t |delta(t)|``;
* **D2^2** = ``SSD_1/n_1 + SSD_2/n_2 + ||delta||^2``;
* **D3^2** = ``2 * SSD_merged / (n_1 + n_2 - 1)`` where
  ``SSD_merged = SSD_1 + SSD_2 + (n_1 n_2 / (n_1+n_2)) ||delta||^2``;
* **D4** = ``sqrt(n_1 n_2 / (n_1 + n_2)) * ||delta||``.

Each identity follows by substituting ``LS = n * mean`` and
``SS = SSD + n ||mean||^2`` into equations (4)-(6) and simplifying; the
cancelling ``||mean||^2`` terms drop out symbolically instead of
numerically.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.core.features import CF, AnyCF, StableCF

__all__ = [
    "Metric",
    "cf_batch_distances",
    "classic_distances_core",
    "classic_merged_radius_core",
    "distance",
    "distances_to_set",
    "gathered_cf_distances",
    "merged_diameter",
    "merged_radius",
    "paired_cf_merged_stat",
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

    Accepts either backend: two :class:`StableCF` arguments are routed
    through the cancellation-free formulas; a mixed pair is lifted to
    the stable representation first (the classic participant has already
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
    probe: AnyCF,
    ns: np.ndarray,
    vecs: np.ndarray,
    sqs: np.ndarray,
    vec_name: str,
    sq_name: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coerce and shape-check the struct-of-arrays CF set.

    A malformed node view used to surface as an opaque ``einsum`` error
    deep inside a metric kernel; fail here with the actual mismatch
    instead.
    """
    ns = np.asarray(ns, dtype=np.float64)
    vecs = np.asarray(vecs, dtype=np.float64)
    sqs = np.asarray(sqs, dtype=np.float64)
    if ns.ndim != 1:
        raise ValueError(f"ns must be 1-d, got shape {ns.shape}")
    if vecs.ndim != 2:
        raise ValueError(f"{vec_name} must be 2-d (k, d), got shape {vecs.shape}")
    if vecs.shape[0] != ns.shape[0]:
        raise ValueError(
            f"{vec_name} holds {vecs.shape[0]} rows but ns has "
            f"{ns.shape[0]} entries"
        )
    if sqs.shape != ns.shape:
        raise ValueError(
            f"{sq_name} shape {sqs.shape} does not match ns shape {ns.shape}"
        )
    if ns.size and vecs.shape[1] != probe.dimensions:
        raise ValueError(
            f"{vec_name} rows have {vecs.shape[1]} dimensions, probe has "
            f"{probe.dimensions}"
        )
    return ns, vecs, sqs


def distances_to_set(
    probe: CF,
    ns: np.ndarray,
    ls: np.ndarray,
    ss: np.ndarray,
    metric: Metric = Metric.D2_AVG_INTERCLUSTER,
) -> np.ndarray:
    """Distances from ``probe`` to ``k`` CFs given as parallel arrays.

    Parameters
    ----------
    probe:
        The CF being inserted or compared.
    ns, ls, ss:
        Arrays of shape ``(k,)``, ``(k, d)`` and ``(k,)`` holding the
        target CFs (the struct-of-arrays view of a tree node).
    metric:
        Which of D0-D4 to evaluate.

    Returns
    -------
    numpy.ndarray
        Shape ``(k,)`` array of distances.
    """
    ns, ls, ss = _validate_set(probe, ns, ls, ss, "ls", "ss")
    if ns.size == 0:
        return np.empty(0, dtype=np.float64)
    if probe.n == 0 or (ns <= 0).any():
        raise ValueError("distances are undefined for empty CFs")
    return classic_distances_core(probe.n, probe.ls, probe.ss, ns, ls, ss, metric)


def classic_distances_core(
    p_n: float,
    p_ls: np.ndarray,
    p_ss: float,
    ns: np.ndarray,
    ls: np.ndarray,
    ss: np.ndarray,
    metric: Metric,
) -> np.ndarray:
    """The arithmetic of :func:`distances_to_set`, unchecked.

    The probe arrives as its raw ``(N, LS, SS)`` row and the set as
    float64 arrays of matching, non-empty shape with positive counts;
    nothing is coerced or validated.  The CF-tree's insertion path
    calls this directly, the public kernel after its checks.
    """
    if metric is Metric.D0_EUCLIDEAN:
        diff = ls / ns[:, None] - p_ls / p_n
        return np.sqrt(np.maximum(np.einsum("ij,ij->i", diff, diff), 0.0))
    if metric is Metric.D1_MANHATTAN:
        diff = ls / ns[:, None] - p_ls / p_n
        return np.abs(diff).sum(axis=1)
    if metric is Metric.D2_AVG_INTERCLUSTER:
        # einsum rather than BLAS ``@``: BLAS gemv/gemm results are not
        # bitwise consistent across operand shapes, and the bulk-ingest
        # matrix kernels must reproduce these values exactly.
        cross = np.einsum("ij,j->i", ls, p_ls)
        d2 = (ns * p_ss + p_n * ss - 2.0 * cross) / (ns * p_n)
        return np.sqrt(np.maximum(d2, 0.0))
    if metric is Metric.D3_AVG_INTRACLUSTER:
        n_merged = ns + p_n
        ls_merged = ls + p_ls
        ss_merged = ss + p_ss
        norm = np.einsum("ij,ij->i", ls_merged, ls_merged)
        denom = n_merged * (n_merged - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = np.where(
                denom > 0, (2.0 * n_merged * ss_merged - 2.0 * norm) / denom, 0.0
            )
        return np.sqrt(np.maximum(d2, 0.0))
    if metric is Metric.D4_VARIANCE_INCREASE:
        ls_merged = ls + p_ls
        own = np.einsum("ij,ij->i", ls, ls) / ns
        probe_own = float(np.einsum("j,j->", p_ls, p_ls)) / p_n
        merged = np.einsum("ij,ij->i", ls_merged, ls_merged) / (ns + p_n)
        return np.sqrt(np.maximum(own + probe_own - merged, 0.0))
    raise ValueError(f"unhandled metric {metric!r}")


def merged_diameter(
    probe: CF, ns: np.ndarray, ls: np.ndarray, ss: np.ndarray
) -> np.ndarray:
    """Diameter of ``probe`` merged with each CF in the set.

    Used by the leaf-level absorption test when the threshold condition
    is expressed on diameter.  Identical to D3 but kept under its paper
    name for readability at call sites.
    """
    return distances_to_set(probe, ns, ls, ss, Metric.D3_AVG_INTRACLUSTER)


def merged_radius(
    probe: CF, ns: np.ndarray, ls: np.ndarray, ss: np.ndarray
) -> np.ndarray:
    """Radius of ``probe`` merged with each CF in the set.

    ``R^2 = SS/N - ||LS/N||^2`` of each hypothetical merge; the
    alternative threshold condition mentioned in Section 4.1.
    """
    ns, ls, ss = _validate_set(probe, ns, ls, ss, "ls", "ss")
    if ns.size == 0:
        return np.empty(0, dtype=np.float64)
    return classic_merged_radius_core(probe.n, probe.ls, probe.ss, ns, ls, ss)


def classic_merged_radius_core(
    p_n: float,
    p_ls: np.ndarray,
    p_ss: float,
    ns: np.ndarray,
    ls: np.ndarray,
    ss: np.ndarray,
) -> np.ndarray:
    """The arithmetic of :func:`merged_radius`, unchecked."""
    n_merged = ns + p_n
    ls_merged = ls + p_ls
    ss_merged = ss + p_ss
    norm = np.einsum("ij,ij->i", ls_merged, ls_merged)
    r2 = ss_merged / n_merged - norm / (n_merged * n_merged)
    return np.sqrt(np.maximum(r2, 0.0))


# -- stable (n, mean, SSD) kernels -------------------------------------------


def stable_distances_to_set(
    probe: StableCF,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
    metric: Metric = Metric.D2_AVG_INTERCLUSTER,
) -> np.ndarray:
    """Distances from ``probe`` to ``k`` StableCFs given as parallel arrays.

    The stable counterpart of :func:`distances_to_set`: ``ns``,
    ``means`` and ``ssds`` have shapes ``(k,)``, ``(k, d)`` and ``(k,)``
    (the struct-of-arrays view of a stable-backend tree node).
    """
    ns, means, ssds = _validate_set(probe, ns, means, ssds, "means", "ssds")
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

    The probe arrives as its raw ``(n, mean, SSD)`` row; see
    :func:`classic_distances_core` for what the caller guarantees.
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
    ns, means, ssds = _validate_set(probe, ns, means, ssds, "means", "ssds")
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
# of CF rows of any weight with the batch kernels below
# (cf_batch_distances / stable_cf_batch_distances) and validates it
# with the gathered and paired kernels here, which see per-row entry
# states that evolve within the window.  Each reproduces, element for
# element, the exact floating-point value the corresponding per-probe
# core above computes — same elementwise operation order, same einsum
# contraction — so a bulk build is byte-identical to a sequential
# insert_cf loop.  That property rules out BLAS ``@`` (gemm and gemv
# round differently) and any algebraic rearrangement, however innocuous.


def gathered_cf_distances(
    p_ns: np.ndarray,
    p_ls: np.ndarray,
    p_ss: np.ndarray,
    ns: np.ndarray,
    ls: np.ndarray,
    ss: np.ndarray,
    metric: Metric = Metric.D2_AVG_INTERCLUSTER,
) -> np.ndarray:
    """Distances from ``m`` classic CF probes to per-row entry states.

    The probes have shapes ``(m,)``, ``(m, d)`` and ``(m,)``; every
    probe sees its **own** snapshot of the ``k`` entries: ``ns``,
    ``ls`` and ``ss`` have shapes ``(m, k)``, ``(m, k, d)`` and
    ``(m, k)``.  Element ``(r, k)`` equals
    ``distances_to_set(CF(p_ns[r], p_ls[r], p_ss[r]), ns[r], ls[r],
    ss[r], metric)[k]`` bitwise.  This is the validation kernel of the
    bulk-ingest fast path, where entries evolve row by row within a
    window.
    """
    if ns.shape[1] == 0:
        return np.empty((p_ns.shape[0], 0), dtype=np.float64)
    pn = p_ns[:, None]
    if metric is Metric.D0_EUCLIDEAN or metric is Metric.D1_MANHATTAN:
        diff = ls / ns[:, :, None] - (p_ls / pn)[:, None, :]
        if metric is Metric.D1_MANHATTAN:
            return np.abs(diff).sum(axis=2)
        return np.sqrt(np.maximum(np.einsum("rkj,rkj->rk", diff, diff), 0.0))
    if metric is Metric.D2_AVG_INTERCLUSTER:
        cross = np.einsum("rj,rkj->rk", p_ls, ls)
        d2 = (ns * p_ss[:, None] + pn * ss - 2.0 * cross) / (ns * pn)
        return np.sqrt(np.maximum(d2, 0.0))
    n_merged = ns + pn
    ls_merged = ls + p_ls[:, None, :]
    if metric is Metric.D3_AVG_INTRACLUSTER:
        ss_merged = ss + p_ss[:, None]
        norm = np.einsum("rkj,rkj->rk", ls_merged, ls_merged)
        denom = n_merged * (n_merged - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = np.where(
                denom > 0, (2.0 * n_merged * ss_merged - 2.0 * norm) / denom, 0.0
            )
        return np.sqrt(np.maximum(d2, 0.0))
    if metric is Metric.D4_VARIANCE_INCREASE:
        own = np.einsum("rkj,rkj->rk", ls, ls) / ns
        probe_own = np.einsum("rj,rj->r", p_ls, p_ls) / p_ns
        merged = np.einsum("rkj,rkj->rk", ls_merged, ls_merged) / n_merged
        return np.sqrt(np.maximum(own + probe_own[:, None] - merged, 0.0))
    raise ValueError(f"unhandled metric {metric!r}")


def stable_gathered_cf_distances(
    p_ns: np.ndarray,
    p_means: np.ndarray,
    p_ssds: np.ndarray,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
    metric: Metric = Metric.D2_AVG_INTERCLUSTER,
) -> np.ndarray:
    """Stable counterpart of :func:`gathered_cf_distances`.

    Same shapes; element ``(r, k)`` equals
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


def paired_cf_merged_stat(
    p_ns: np.ndarray,
    p_ls: np.ndarray,
    p_ss: np.ndarray,
    ns: np.ndarray,
    ls: np.ndarray,
    ss: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Merged diameter/radius of classic CF probe ``r`` with CF ``r``.

    All arguments are parallel over the first axis.  ``kind`` is
    ``"diameter"`` or ``"radius"``; element ``r`` equals the scalar
    :func:`merged_diameter`/:func:`merged_radius` of probe ``r`` on a
    one-entry slice, bitwise (the leaf threshold test of the bulk path).
    """
    n_merged = ns + p_ns
    ls_merged = ls + p_ls
    ss_merged = ss + p_ss
    norm = np.einsum("rj,rj->r", ls_merged, ls_merged)
    if kind == "diameter":
        denom = n_merged * (n_merged - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = np.where(
                denom > 0, (2.0 * n_merged * ss_merged - 2.0 * norm) / denom, 0.0
            )
    else:
        d2 = ss_merged / n_merged - norm / (n_merged * n_merged)
    return np.sqrt(np.maximum(d2, 0.0))


def stable_paired_cf_merged_stat(
    p_ns: np.ndarray,
    p_means: np.ndarray,
    p_ssds: np.ndarray,
    ns: np.ndarray,
    means: np.ndarray,
    ssds: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Merged diameter/radius of StableCF probe ``r`` with StableCF ``r``."""
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
# contractions — for D0-D4 on both backends, so the bulk path's routing,
# the merging refinement's closest pair and the threshold heuristics'
# pairwise statistics are those of a per-entry loop.


def cf_batch_distances(
    p_ns: np.ndarray,
    p_ls: np.ndarray,
    p_ss: np.ndarray,
    ns: np.ndarray,
    ls: np.ndarray,
    ss: np.ndarray,
    metric: Metric = Metric.D2_AVG_INTERCLUSTER,
) -> np.ndarray:
    """Distances between ``m`` classic CF probes and ``k`` classic CFs.

    Parameters
    ----------
    p_ns, p_ls, p_ss:
        The probes, shapes ``(m,)``, ``(m, d)`` and ``(m,)``.
    ns, ls, ss:
        The target set, shapes ``(k,)``, ``(k, d)`` and ``(k,)`` (the
        struct-of-arrays view of a tree node).

    Returns
    -------
    numpy.ndarray
        Shape ``(m, k)`` distance matrix whose row ``r`` equals
        ``distances_to_set(CF(p_ns[r], p_ls[r], p_ss[r]), ns, ls, ss,
        metric)`` bitwise.
    """
    m, k = p_ns.shape[0], ns.shape[0]
    if m == 0 or k == 0:
        return np.empty((m, k), dtype=np.float64)
    if metric is Metric.D0_EUCLIDEAN or metric is Metric.D1_MANHATTAN:
        diff = (ls / ns[:, None])[None, :, :] - (p_ls / p_ns[:, None])[
            :, None, :
        ]
        if metric is Metric.D1_MANHATTAN:
            return np.abs(diff).sum(axis=2)
        return np.sqrt(
            np.maximum(np.einsum("mkj,mkj->mk", diff, diff), 0.0)
        )
    if metric is Metric.D2_AVG_INTERCLUSTER:
        cross = np.einsum("mj,kj->mk", p_ls, ls)
        d2 = (
            ns[None, :] * p_ss[:, None]
            + p_ns[:, None] * ss[None, :]
            - 2.0 * cross
        ) / (ns[None, :] * p_ns[:, None])
        return np.sqrt(np.maximum(d2, 0.0))
    n_merged = ns[None, :] + p_ns[:, None]
    ls_merged = ls[None, :, :] + p_ls[:, None, :]
    if metric is Metric.D3_AVG_INTRACLUSTER:
        ss_merged = ss[None, :] + p_ss[:, None]
        norm = np.einsum("mkj,mkj->mk", ls_merged, ls_merged)
        denom = n_merged * (n_merged - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = np.where(
                denom > 0,
                (2.0 * n_merged * ss_merged - 2.0 * norm) / denom,
                0.0,
            )
        return np.sqrt(np.maximum(d2, 0.0))
    if metric is Metric.D4_VARIANCE_INCREASE:
        own = np.einsum("kj,kj->k", ls, ls) / ns
        probe_own = np.einsum("mj,mj->m", p_ls, p_ls) / p_ns
        merged = np.einsum("mkj,mkj->mk", ls_merged, ls_merged) / n_merged
        return np.sqrt(
            np.maximum(own[None, :] + probe_own[:, None] - merged, 0.0)
        )
    raise ValueError(f"unhandled metric {metric!r}")


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

    The stable counterpart of :func:`cf_batch_distances`; same shapes,
    cancellation-free arithmetic throughout.  Row ``r`` equals
    :func:`stable_distances_to_set` on probe ``r`` bitwise.
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
