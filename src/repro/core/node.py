"""CF-tree nodes (Section 4.2 of the paper).

A nonleaf node holds up to ``B`` entries of the form ``[CF_i, child_i]``
where ``CF_i`` summarises everything under ``child_i``.  A leaf node
holds up to ``L`` entries ``[CF_i]``, each a *subcluster* whose diameter
(or radius) must satisfy the threshold ``T``, plus ``prev``/``next``
pointers chaining all leaves together for efficient scans.

Entries are stored struct-of-arrays — parallel arrays pre-allocated to
the node's page capacity — so the insertion descent can evaluate D0-D4
against a whole node with one vectorised call.  The array semantics
follow the node's ``cf_backend``:

* ``"classic"`` — ``N``/``LS``/``SS`` (paper Definition 4.1), served by
  :func:`repro.core.distances.distances_to_set`;
* ``"stable"`` — ``N``/``mean``/``SSD`` (the BETULA representation, see
  :class:`repro.core.features.StableCF`), served by
  :func:`repro.core.distances.stable_distances_to_set`.

Either way a CF costs the same ``1 + d + 1`` floats, so the page model
charges identically.  Node capacities come from a
:class:`repro.pagestore.PageLayout`; every node corresponds to exactly
one simulated page.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.core.distances import (
    Metric,
    cf_batch_distances,
    distances_to_set,
    stable_cf_batch_distances,
    stable_distances_to_set,
)
from repro.core.features import (
    CF,
    AnyCF,
    CF_BACKENDS,
    StableCF,
    cf_row,
    coerce_backend,
    row_cf,
)
from repro.pagestore.page import PageLayout

__all__ = ["CFNode"]


class CFNode:
    """One page-sized node of the CF-tree.

    Parameters
    ----------
    layout:
        Page layout from which the entry capacity is derived.
    is_leaf:
        Leaf nodes store subcluster entries and chain pointers; nonleaf
        nodes store child pointers parallel to their entries.
    cf_backend:
        ``"classic"`` stores ``(N, LS, SS)`` rows; ``"stable"`` stores
        ``(n, mean, SSD)`` rows and uses the cancellation-free kernels.
    """

    __slots__ = (
        "layout",
        "is_leaf",
        "cf_backend",
        "size",
        "_ns",
        "_vec",
        "_sq",
        "children",
        "prev_leaf",
        "next_leaf",
    )

    def __init__(
        self, layout: PageLayout, is_leaf: bool, cf_backend: str = "classic"
    ) -> None:
        if cf_backend not in CF_BACKENDS:
            raise ValueError(
                f"unknown cf_backend {cf_backend!r}; expected one of "
                f"{sorted(CF_BACKENDS)}"
            )
        self.layout = layout
        self.is_leaf = is_leaf
        self.cf_backend = cf_backend
        capacity = layout.leaf_capacity if is_leaf else layout.branching_factor
        self.size = 0
        self._ns = np.zeros(capacity, dtype=np.float64)
        self._vec = np.zeros((capacity, layout.dimensions), dtype=np.float64)
        self._sq = np.zeros(capacity, dtype=np.float64)
        self.children: Optional[list[CFNode]] = None if is_leaf else []
        self.prev_leaf: Optional[CFNode] = None
        self.next_leaf: Optional[CFNode] = None

    # -- capacity & views -----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum entries this node can hold (``L`` or ``B``)."""
        return self._ns.shape[0]

    @property
    def is_full(self) -> bool:
        """True when no further entry fits without a split."""
        return self.size >= self.capacity

    @property
    def ns(self) -> np.ndarray:
        """View of the live entry counts, shape ``(size,)``."""
        return self._ns[: self.size]

    @property
    def ls(self) -> np.ndarray:
        """View of the live linear sums, shape ``(size, d)`` (classic only)."""
        self._require_backend("classic", "ls")
        return self._vec[: self.size]

    @property
    def ss(self) -> np.ndarray:
        """View of the live square sums, shape ``(size,)`` (classic only)."""
        self._require_backend("classic", "ss")
        return self._sq[: self.size]

    @property
    def means(self) -> np.ndarray:
        """View of the live entry means, shape ``(size, d)`` (stable only)."""
        self._require_backend("stable", "means")
        return self._vec[: self.size]

    @property
    def ssds(self) -> np.ndarray:
        """View of the live entry SSDs, shape ``(size,)`` (stable only)."""
        self._require_backend("stable", "ssds")
        return self._sq[: self.size]

    def _require_backend(self, backend: str, view: str) -> None:
        if self.cf_backend != backend:
            raise AttributeError(
                f"node uses the {self.cf_backend!r} backend; the {view!r} "
                f"view exists only on {backend!r} nodes"
            )

    def entry_cf(self, index: int) -> AnyCF:
        """Entry ``index`` as an independent CF object (backend class)."""
        self._check_index(index)
        return row_cf(
            self._ns[index], self._vec[index], self._sq[index], self.cf_backend
        )

    def iter_entry_cfs(self) -> Iterator[AnyCF]:
        """All live entries as CF objects (copies)."""
        for i in range(self.size):
            yield self.entry_cf(i)

    def summary_cf(self) -> AnyCF:
        """CF of everything stored under this node (sum of entries)."""
        n, vec, sq = self.summary_row()
        if self.cf_backend == "stable":
            return StableCF(n, vec, sq)
        return CF(int(n), vec, sq)

    def summary_row(self) -> tuple[float, np.ndarray, float]:
        """:meth:`summary_cf` as a raw ``(n, vector, scalar)`` row."""
        if self.cf_backend == "stable":
            if self.size == 0:
                return 0.0, np.zeros(self.layout.dimensions, dtype=np.float64), 0.0
            ns = self.ns
            n_total = float(ns.sum())
            mean = (ns[:, None] * self.means).sum(axis=0) / n_total
            # SSD decomposes as within-entry + between-entry parts; both
            # are sums of non-negative same-scale terms (no cancellation).
            diff = self.means - mean
            between = float(ns @ np.einsum("ij,ij->i", diff, diff))
            return n_total, mean, float(self.ssds.sum()) + between
        return (
            float(self.ns.sum()),
            self._vec[: self.size].sum(axis=0)
            if self.size
            else np.zeros(self.layout.dimensions, dtype=np.float64),
            float(self._sq[: self.size].sum()),
        )

    # -- entry mutation ---------------------------------------------------------

    def append_entry(self, cf: AnyCF, child: Optional["CFNode"] = None) -> int:
        """Add an entry; returns its index.

        Raises
        ------
        ValueError
            If the node is full (the caller must split instead) or if a
            child is supplied/omitted inconsistently with the node kind.
        """
        if self.is_full:
            raise ValueError("cannot append to a full node; split required")
        if self.is_leaf != (child is None):
            kind = "leaf" if self.is_leaf else "nonleaf"
            raise ValueError(f"{kind} node entry child mismatch")
        return self.append_row(*cf_row(coerce_backend(cf, self.cf_backend)), child)

    def set_entry(self, index: int, cf: AnyCF) -> None:
        """Overwrite the summary of entry ``index``."""
        self._check_index(index)
        self.set_row(index, *cf_row(coerce_backend(cf, self.cf_backend)))

    def add_to_entry(self, index: int, cf: AnyCF) -> None:
        """Absorb ``cf`` into entry ``index`` (CF additivity)."""
        self._check_index(index)
        self.add_row(index, *cf_row(coerce_backend(cf, self.cf_backend)))

    # Unchecked row primitives.  The CF-tree's insertion path calls them
    # with a CF already in this node's backend, split into its raw
    # ``(n, vector, scalar)`` row; the CF-object methods above check
    # their arguments and delegate here, so each update exists once.

    def append_row(
        self, n: float, vec: np.ndarray, sq: float, child: Optional["CFNode"] = None
    ) -> int:
        """Append a raw entry row (unchecked); returns its index."""
        index = self.size
        self._ns[index] = n
        self._vec[index] = vec
        self._sq[index] = sq
        if child is not None:
            self.children.append(child)
        self.size = index + 1
        return index

    def set_row(self, index: int, n: float, vec: np.ndarray, sq: float) -> None:
        """Overwrite entry ``index`` with a raw row (unchecked)."""
        self._ns[index] = n
        self._vec[index] = vec
        self._sq[index] = sq

    def add_row(self, index: int, n: float, vec: np.ndarray, sq: float) -> None:
        """Absorb a raw row into entry ``index`` (unchecked)."""
        if self.cf_backend == "stable":
            # Pairwise Chan update on the stored (n, mean, SSD) row.
            n_old = self._ns[index]
            n_new = n_old + n
            delta = vec - self._vec[index]
            self._vec[index] += (n / n_new) * delta
            # einsum, not ``delta @ delta``: the fused bulk-ingest update
            # must reproduce this value bitwise and BLAS dot products are
            # not shape-consistent.
            self._sq[index] += sq + (n_old * n / n_new) * float(
                np.einsum("j,j->", delta, delta)
            )
            self._ns[index] = n_new
        else:
            self._ns[index] += n
            self._vec[index] += vec
            self._sq[index] += sq

    def fill_rows(
        self,
        ns: np.ndarray,
        vecs: np.ndarray,
        sqs: np.ndarray,
        children: Optional[list["CFNode"]],
    ) -> None:
        """Replace every entry with the given rows, in order (unchecked).

        What :meth:`clear` followed by one :meth:`append_entry` per row
        leaves behind, without a CF object per entry.
        """
        m = ns.shape[0]
        self._ns[:m] = ns
        self._vec[:m] = vecs
        self._sq[:m] = sqs
        if self.size > m:
            self._ns[m : self.size] = 0.0
            self._vec[m : self.size] = 0.0
            self._sq[m : self.size] = 0.0
        if self.children is not None:
            assert children is not None
            self.children[:] = children
        self.size = m

    def remove_entry(self, index: int) -> None:
        """Delete entry ``index``, compacting the arrays."""
        self._check_index(index)
        last = self.size - 1
        if index != last:
            self._ns[index] = self._ns[last]
            self._vec[index] = self._vec[last]
            self._sq[index] = self._sq[last]
            if self.children is not None:
                self.children[index] = self.children[last]
        self._ns[last] = 0.0
        self._vec[last] = 0.0
        self._sq[last] = 0.0
        if self.children is not None:
            self.children.pop()
        self.size -= 1

    def clear(self) -> None:
        """Remove every entry."""
        self._ns[: self.size] = 0.0
        self._vec[: self.size] = 0.0
        self._sq[: self.size] = 0.0
        if self.children is not None:
            self.children.clear()
        self.size = 0

    # -- searching ----------------------------------------------------------------

    def closest_entry(self, probe: AnyCF, metric: Metric) -> tuple[int, float]:
        """Index and distance of the entry closest to ``probe``.

        Raises
        ------
        ValueError
            If the node has no entries.
        """
        if self.size == 0:
            raise ValueError("closest_entry on an empty node")
        dists = self.entry_distances(probe, metric)
        index = int(np.argmin(dists))
        return index, float(dists[index])

    def entry_distances(self, probe: AnyCF, metric: Metric) -> np.ndarray:
        """Distances from ``probe`` to every live entry."""
        probe = coerce_backend(probe, self.cf_backend)
        if self.cf_backend == "stable":
            return stable_distances_to_set(
                probe, self.ns, self._vec[: self.size], self._sq[: self.size], metric
            )
        return distances_to_set(
            probe, self.ns, self._vec[: self.size], self._sq[: self.size], metric
        )

    def pairwise_entry_distances(self, metric: Metric) -> np.ndarray:
        """Full ``(size, size)`` matrix of entry-vs-entry distances.

        Used by the split procedure (farthest pair as seeds) and the
        merging refinement (closest pair).  The diagonal is zero.
        """
        k = self.size
        ns, vec, sq = self._ns[:k], self._vec[:k], self._sq[:k]
        kernel = (
            stable_cf_batch_distances
            if self.cf_backend == "stable"
            else cf_batch_distances
        )
        # Row i equals entry_distances(entry_cf(i), metric) bitwise.
        out = kernel(ns, vec, sq, ns, vec, sq, metric)
        np.fill_diagonal(out, 0.0)
        return out

    # -- invariants -------------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert structural invariants; used by tests and debug builds."""
        if self.size < 0 or self.size > self.capacity:
            raise AssertionError(f"size {self.size} out of range 0..{self.capacity}")
        if self.is_leaf:
            if self.children is not None:
                raise AssertionError("leaf node must not have children")
        else:
            if self.children is None or len(self.children) != self.size:
                raise AssertionError(
                    f"nonleaf node has {self.size} entries but "
                    f"{len(self.children or [])} children"
                )
        if (self.ns <= 0).any():
            raise AssertionError("live entries must summarise at least one point")

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"entry index {index} out of range 0..{self.size - 1}")

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "nonleaf"
        return (
            f"CFNode({kind}, {self.size}/{self.capacity} entries, "
            f"{self.cf_backend})"
        )
