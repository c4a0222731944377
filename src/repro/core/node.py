"""CF-tree nodes (Section 4.2 of the paper).

A nonleaf node holds up to ``B`` entries of the form ``[CF_i, child_i]``
where ``CF_i`` summarises everything under ``child_i``.  A leaf node
holds up to ``L`` entries ``[CF_i]``, each a *subcluster* whose diameter
(or radius) must satisfy the threshold ``T``, plus ``prev``/``next``
pointers chaining all leaves together for efficient scans.

Entries are stored struct-of-arrays — parallel arrays pre-allocated to
the node's page capacity — so the insertion descent can evaluate D0-D4
against a whole node with one vectorised call.  Each entry is an
``(n, mean, SSD)`` row (the BETULA representation, see
:class:`repro.core.features.StableCF`), served by
:func:`repro.core.distances.stable_distances_to_set`.  A row costs the
same ``1 + d + 1`` floats as the paper's ``(N, LS, SS)`` triple, so the
page model charges as the paper does.  Node capacities come from a
:class:`repro.pagestore.PageLayout`; every node corresponds to exactly
one simulated page.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.core.distances import (
    Metric,
    stable_cf_batch_distances,
    stable_distances_to_set,
)
from repro.core.features import CF, StableCF, as_stable, cf_row, row_cf
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
    """

    __slots__ = (
        "layout",
        "is_leaf",
        "size",
        "_ns",
        "_vec",
        "_sq",
        "children",
        "prev_leaf",
        "next_leaf",
    )

    def __init__(self, layout: PageLayout, is_leaf: bool) -> None:
        self.layout = layout
        self.is_leaf = is_leaf
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
    def means(self) -> np.ndarray:
        """View of the live entry means, shape ``(size, d)``."""
        return self._vec[: self.size]

    @property
    def ssds(self) -> np.ndarray:
        """View of the live entry SSDs, shape ``(size,)``."""
        return self._sq[: self.size]

    def entry_cf(self, index: int) -> StableCF:
        """Entry ``index`` as an independent :class:`StableCF`."""
        self._check_index(index)
        return row_cf(self._ns[index], self._vec[index], self._sq[index])

    def iter_entry_cfs(self) -> Iterator[StableCF]:
        """All live entries as CF objects (copies)."""
        for i in range(self.size):
            yield self.entry_cf(i)

    def summary_cf(self) -> StableCF:
        """CF of everything stored under this node (sum of entries)."""
        return StableCF(*self.summary_row())

    def summary_row(self) -> tuple[float, np.ndarray, float]:
        """:meth:`summary_cf` as a raw ``(n, mean, SSD)`` row."""
        if self.size == 0:
            return 0.0, np.zeros(self.layout.dimensions, dtype=np.float64), 0.0
        ns = self.ns
        n_total = float(ns.sum())
        mean = (ns[:, None] * self.means).sum(axis=0) / n_total
        # SSD decomposes as within-entry + between-entry parts; both are
        # sums of non-negative same-scale terms (no cancellation).
        diff = self.means - mean
        between = float(ns @ np.einsum("ij,ij->i", diff, diff))
        return n_total, mean, float(self.ssds.sum()) + between

    # -- entry mutation ---------------------------------------------------------

    def append_entry(
        self, cf: CF | StableCF, child: Optional["CFNode"] = None
    ) -> int:
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
        return self.append_row(*cf_row(cf), child)

    def set_entry(self, index: int, cf: CF | StableCF) -> None:
        """Overwrite the summary of entry ``index``."""
        self._check_index(index)
        self.set_row(index, *cf_row(cf))

    def add_to_entry(self, index: int, cf: CF | StableCF) -> None:
        """Absorb ``cf`` into entry ``index`` (CF additivity)."""
        self._check_index(index)
        self.add_row(index, *cf_row(cf))

    # Unchecked row primitives.  The CF-tree's insertion path calls them
    # with a raw ``(n, mean, SSD)`` row; the CF-object methods above
    # check their arguments and delegate here, so each update exists
    # once.

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
        """Absorb a raw row into entry ``index`` (unchecked).

        The pairwise Chan update on the stored ``(n, mean, SSD)`` row.
        """
        n_old = self._ns[index]
        n_new = n_old + n
        delta = vec - self._vec[index]
        self._vec[index] += (n / n_new) * delta
        # einsum, not ``delta @ delta``: the fused bulk-ingest update must
        # reproduce this value bitwise and BLAS dot products are not
        # shape-consistent.
        self._sq[index] += sq + (n_old * n / n_new) * float(
            np.einsum("j,j->", delta, delta)
        )
        self._ns[index] = n_new

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

    def closest_entry(
        self, probe: CF | StableCF, metric: Metric
    ) -> tuple[int, float]:
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

    def entry_distances(self, probe: CF | StableCF, metric: Metric) -> np.ndarray:
        """Distances from ``probe`` to every live entry."""
        return stable_distances_to_set(
            as_stable(probe), self.ns, self.means, self.ssds, metric
        )

    def pairwise_entry_distances(self, metric: Metric) -> np.ndarray:
        """Full ``(size, size)`` matrix of entry-vs-entry distances.

        Used by the split procedure (farthest pair as seeds) and the
        merging refinement (closest pair).  The diagonal is zero.
        """
        k = self.size
        ns, vec, sq = self._ns[:k], self._vec[:k], self._sq[:k]
        # Row i equals entry_distances(entry_cf(i), metric) bitwise.
        out = stable_cf_batch_distances(ns, vec, sq, ns, vec, sq, metric)
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
        return f"CFNode({kind}, {self.size}/{self.capacity} entries)"
