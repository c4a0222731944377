"""The CF-tree: insertion, splitting and merging refinement (Section 4.3).

The tree is height-balanced.  A new point (or subcluster CF, during
rebuilds and outlier re-absorption) is inserted by:

1. **Identifying the appropriate leaf** — descend from the root, at each
   nonleaf choosing the child whose entry is closest under the chosen
   metric (D0-D4).
2. **Modifying the leaf** — absorb into the closest leaf entry if the
   merged subcluster still satisfies the threshold condition (diameter
   or radius <= ``T``); otherwise add a new entry, splitting the leaf by
   the *farthest pair* seeding rule when it is full.
3. **Modifying the path** — update each ancestor's summary; propagate
   splits upward, growing a new root when the old root splits.
4. **Merging refinement** — at the nonleaf where split propagation
   stops, merge the two closest entries if they are not the pair that
   just resulted from the split, re-splitting if the merged child
   overflows a page.

Every node occupies one simulated page from an optional
:class:`~repro.pagestore.MemoryBudget`, and splits/merges are recorded
in an optional :class:`~repro.pagestore.IOStats` ledger.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.core.distances import (
    Metric,
    stable_cf_batch_distances,
    stable_distances_core,
    stable_gathered_cf_distances,
    stable_paired_cf_merged_stat,
)
from repro.core.features import CF, StableCF, as_stable, cf_row, point_rows
from repro.core.node import CFNode
from repro.observe.recorder import NULL_RECORDER, Recorder
from repro.pagestore.iostats import IOStats
from repro.pagestore.memory import MemoryBudget
from repro.pagestore.page import PageLayout

__all__ = ["CFTree", "ThresholdKind", "TreeStats"]

#: Optimistic run-window bounds for :meth:`CFTree.bulk_insert`.  The
#: window doubles while whole windows keep committing and shrinks toward
#: the observed run length otherwise, bounding wasted vectorised work to
#: a constant factor of the useful work on adversarial (shuffled) input.
#: The upper bound also caps a window's temporary arrays, which grow
#: with rows x touched entries at every nonleaf visit.
_BULK_MIN_WINDOW = 16
_BULK_MAX_WINDOW = 1024

#: Per-window path chooser for :meth:`CFTree.bulk_insert`.  The tree
#: keeps an exponential moving average (weight ``_CHOOSER_EMA_WEIGHT``,
#: seeded at ``_CHOOSER_INITIAL_ESTIMATE``) of the rows each speculative
#: window commits per node visit (leaf sub-windows count as visits).  A
#: window costs about a fixed amount per visit plus a little per row,
#: against one :meth:`CFTree.insert_cf` pass per scalar row, so below
#: ``_CHOOSER_BREAK_EVEN`` rows per visit the next rows go through
#: :meth:`CFTree.insert_cf` as one scalar run, followed by one probe
#: window.  The run length doubles from ``_SCALAR_MIN_RUN`` up to
#: ``_SCALAR_MAX_RUN`` while probes keep committing fewer rows per
#: visit than the break-even, and resets once one commits at least
#: that many.  Both paths build the same tree, so these constants
#: change cost only.
_CHOOSER_EMA_WEIGHT = 0.25
_CHOOSER_INITIAL_ESTIMATE = 16.0
_CHOOSER_BREAK_EVEN = 2
_SCALAR_MIN_RUN = 16
_SCALAR_MAX_RUN = 1024

#: Rows per leaf sub-window of :meth:`CFTree._resolve_leaf`.  On the
#: d <= 2 path each sub-window costs one batch kernel call, and a row
#: evaluates the entries changed earlier in its sub-window on Python
#: floats, so the length trades one against the other.  For d >= 3 it
#: caps a replayed sub-window, whose cost grows with rows x touched
#: entries.
_LEAF_CHUNK = 128

_EPS = float(np.finfo(np.float64).eps)

#: What :meth:`CFTree._insert_row` did at the leaf, and its counters.
_ABSORBED, _APPENDED, _SPLIT = range(3)
_OUTCOME_COUNTERS = ("scalar.absorbs", "scalar.appends", "scalar.splits")


def _d0(e, n, x0, x1, s):
    d0, d1 = e[1] - x0, e[2] - x1
    return math.sqrt(d0 * d0 + d1 * d1)


def _d1(e, n, x0, x1, s):
    return abs(e[1] - x0) + abs(e[2] - x1)


def _d2(e, n, x0, x1, s):
    d0, d1 = e[1] - x0, e[2] - x1
    return math.sqrt(e[3] / e[0] + s / n + (d0 * d0 + d1 * d1))


def _d3(e, n, x0, x1, s):
    d0, d1 = e[1] - x0, e[2] - x1
    n_merged = e[0] + n
    ssd = e[3] + s + e[0] * n / n_merged * (d0 * d0 + d1 * d1)
    denom = n_merged - 1.0
    return math.sqrt(max(2.0 * ssd / denom if denom > 0 else 0.0, 0.0))


def _d4(e, n, x0, x1, s):
    d0, d1 = e[1] - x0, e[2] - x1
    return math.sqrt(e[0] * n / (e[0] + n) * (d0 * d0 + d1 * d1))


#: D0-D4 from a packed entry state ``[n, m0, m1, SSD]`` to a row
#: ``(n, x0, x1, SSD)`` (d = 1 padded with a zero), on Python floats.
#: Each is the one-row kernel's IEEE operations in order, so for
#: d <= 2 (where einsum sums at most two products, alike in any order)
#: it equals ``stable_distances_core`` bitwise.
_ROW_DISTANCE = {
    Metric.D0_EUCLIDEAN: _d0,
    Metric.D1_MANHATTAN: _d1,
    Metric.D2_AVG_INTERCLUSTER: _d2,
    Metric.D3_AVG_INTRACLUSTER: _d3,
    Metric.D4_VARIANCE_INCREASE: _d4,
}


def _entry_groups(cols: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The entries a visit's argmin columns touch (ascending), and the
    bounds of each one's rows in the columns' stable argsort."""
    counts = np.bincount(cols)
    touched = counts.nonzero()[0]
    return touched, [0, *counts[touched].cumsum().tolist()]


def _pack_rows(ns: np.ndarray, vecs: np.ndarray, sqs: np.ndarray) -> np.ndarray:
    """``(n, mean, SSD)`` rows as one array, each ``[n, *mean, SSD]``.
    A single coordinate gets a ``0.0`` pad, so the d <= 2 replay always
    unpacks two; the pad adds ``0.0 * 0.0`` to a square, no float moves."""
    pad = [np.zeros_like(vecs)] if vecs.shape[1] == 1 else []
    return np.concatenate([ns[:, None], vecs, *pad, sqs[:, None]], axis=1)


def _within_threshold(value, n_merged, mean_sq, threshold_sq):
    """``value² <= T²`` up to the rounding slack, on floats or arrays alike.

    The slack is ``64·eps·(value² + eps·n·|mean|²)``: a relative term
    for the statistic plus the absolute error inherited from rounding
    the entry's mean.  The scalar and the bulk threshold tests both call
    this, so they cannot drift apart.
    """
    value_sq = value * value
    return value_sq <= threshold_sq + 64.0 * _EPS * (
        value_sq + _EPS * n_merged * mean_sq
    )


# The d <= 2 row step on Python floats, for a packed entry ``[n, m0, m1,
# SSD]`` and a row ``(n, x0, x1, SSD)`` (d = 1 padded with zeros, as in
# _pack_rows): the numpy path's IEEE operations in order, bitwise equal.


def _row_fits(e, n, x0, x1, s, radius, threshold_sq):
    """:func:`_merged_stat`, then :func:`_within_threshold`."""
    en, m0, m1, es = e
    d0, d1 = x0 - m0, x1 - m1
    n_new = en + n
    ssd = es + s + en * n / n_new * (d0 * d0 + d1 * d1)
    if radius:
        value = math.sqrt(max(ssd, 0.0) / n_new)
    else:
        denom = n_new - 1.0
        value = math.sqrt(max(2.0 * ssd / denom if denom > 0 else 0.0, 0.0))
    return _within_threshold(value, n_new, m0 * m0 + m1 * m1, threshold_sq)


def _row_fold(e, n, x0, x1, s):
    """Entry ``e`` with the row folded in: ``CFNode.add_row``'s Chan update."""
    en, m0, m1, es = e
    d0, d1 = x0 - m0, x1 - m1
    n_new = en + n
    iv = n / n_new
    between = en * n / n_new * (d0 * d0 + d1 * d1)
    return [n_new, m0 + iv * d0, m1 + iv * d1, es + (s + between)]


def _entry(node: CFNode, index: int) -> list:
    """Entry ``index`` of a d <= 2 node, packed as ``[n, m0, m1, SSD]``."""
    vec = node._vec
    m1 = vec.item(index, 1) if vec.shape[1] == 2 else 0.0
    return [node._ns.item(index), vec.item(index, 0), m1, node._sq.item(index)]


def _coords(vec: np.ndarray) -> tuple[float, float]:
    """A d <= 2 row vector as ``(x0, x1)``."""
    return vec.item(0), vec.item(1) if vec.shape[0] == 2 else 0.0


def _trim(visit: tuple, cut: int) -> Optional[tuple]:
    """A routed visit without its rows at or past ``cut`` (None if none
    is left)."""
    node, idx, cols, probes, mat, order = visit
    if idx[-1] < cut:
        return visit
    live = int(idx.searchsorted(cut))
    if live == 0:
        return None
    probes = tuple(p[:live] for p in probes)
    return node, idx[:live], cols[:live], probes, mat[:live], order[order < live]


def _merged_stat(
    entry_n: float,
    mean: np.ndarray,
    entry_sq: float,
    n: float,
    vec: np.ndarray,
    sq: float,
    radius: bool,
) -> tuple[float, float]:
    """Merged diameter (or radius) and count of an entry and a raw row:
    the one-row kernels' IEEE operations, in order, on Python floats."""
    diff = mean - vec
    delta2 = float(np.einsum("j,j->", diff, diff))
    n_merged = entry_n + n
    ssd_merged = entry_sq + sq + entry_n * n / n_merged * delta2
    if radius:
        return math.sqrt(max(ssd_merged, 0.0) / n_merged), n_merged
    denom = n_merged - 1.0
    d2 = 2.0 * ssd_merged / denom if denom > 0 else 0.0
    return math.sqrt(max(d2, 0.0)), n_merged


class ThresholdKind(enum.Enum):
    """Which statistic of a merged subcluster the threshold bounds.

    The paper states a leaf entry "has to satisfy a threshold
    requirement with respect to a threshold value T: the diameter (or
    radius) has to be less than T".
    """

    DIAMETER = "diameter"
    RADIUS = "radius"


@dataclass(frozen=True)
class TreeStats:
    """Structural snapshot of a CF-tree."""

    height: int
    node_count: int
    leaf_count: int
    leaf_entry_count: int
    points: int

    @property
    def average_entries_per_leaf(self) -> float:
        """Mean leaf occupancy; a space-utilisation indicator."""
        if self.leaf_count == 0:
            return 0.0
        return self.leaf_entry_count / self.leaf_count


class CFTree:
    """A threshold-governed, height-balanced tree of Clustering Features.

    Parameters
    ----------
    layout:
        Page layout determining ``B`` and ``L``.
    threshold:
        ``T``; absorption into an existing leaf entry is allowed only if
        the merged subcluster's diameter (or radius) stays within it.
    metric:
        Distance used to choose the closest entry during descent
        (default D2, the experimental default of Table 2).
    threshold_kind:
        Whether ``T`` bounds the merged diameter (default) or radius.
    budget:
        Optional memory budget; each node allocates one page.
    stats:
        Optional shared I/O ledger recording splits and merges.
    merging_refinement:
        Enables the post-split closest-pair merge of Section 4.3.  On
        by default; the ablation benchmarks switch it off to measure
        its contribution to space utilisation and order robustness.

    Every entry is an ``(n, mean, SSD)`` row (see
    :class:`~repro.core.features.StableCF`), and every threshold test
    and distance uses the cancellation-free kernels.
    """

    def __init__(
        self,
        layout: PageLayout,
        threshold: float = 0.0,
        metric: Metric = Metric.D2_AVG_INTERCLUSTER,
        threshold_kind: ThresholdKind = ThresholdKind.DIAMETER,
        budget: Optional[MemoryBudget] = None,
        stats: Optional[IOStats] = None,
        merging_refinement: bool = True,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.layout = layout
        self.threshold = float(threshold)
        self.metric = Metric.from_name(metric)
        self.threshold_kind = threshold_kind
        self.merging_refinement = merging_refinement
        self.budget = budget
        self.stats = stats
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._node_count = 0
        self._points = 0
        # bulk_insert's path chooser (cost only, never results): the
        # rows-committed-per-window estimate, the next scalar run's
        # length, rows left in the current run, and whether the next
        # window probes the bulk path after a run.
        self._committed_ema = _CHOOSER_INITIAL_ESTIMATE
        self._scalar_run_len = _SCALAR_MIN_RUN
        self._scalar_left = 0
        self._probe_due = False
        # Exponential decay state (evolving-stream support).  ``None``
        # half-life disables decay entirely; the clock counts logical
        # epochs, and every advance scales the whole tree at once.
        self.decay_half_life: Optional[float] = None
        self.decay_clock: int = 0
        self.root: CFNode = self._new_node(is_leaf=True)
        self._leaf_head: CFNode = self.root

    # -- node lifecycle -------------------------------------------------------

    def _new_node(self, is_leaf: bool) -> CFNode:
        if self.budget is not None:
            self.budget.allocate(1)
        self._node_count += 1
        return CFNode(self.layout, is_leaf)

    def _free_node(self, node: CFNode) -> None:
        if node.is_leaf:
            self._unlink_leaf(node)
        if self.budget is not None:
            self.budget.release(1)
        self._node_count -= 1

    def _link_leaf_after(self, existing: CFNode, new: CFNode) -> None:
        new.prev_leaf = existing
        new.next_leaf = existing.next_leaf
        if existing.next_leaf is not None:
            existing.next_leaf.prev_leaf = new
        existing.next_leaf = new

    def _unlink_leaf(self, leaf: CFNode) -> None:
        if self._leaf_head is leaf:
            if leaf.next_leaf is not None:
                self._leaf_head = leaf.next_leaf
            elif leaf.prev_leaf is not None:
                self._leaf_head = leaf.prev_leaf
            # Otherwise this is the only leaf; the caller is replacing
            # the whole tree and will reset the head.
        if leaf.prev_leaf is not None:
            leaf.prev_leaf.next_leaf = leaf.next_leaf
        if leaf.next_leaf is not None:
            leaf.next_leaf.prev_leaf = leaf.prev_leaf
        leaf.prev_leaf = None
        leaf.next_leaf = None

    # -- exponential decay (evolving streams) -----------------------------------

    def set_decay(self, half_life: Optional[float], clock: int) -> None:
        """Install decay state for a tree whose entries reflect ``clock``.

        Used when adopting a tree whose entries already carry every
        factor up to the given clock — checkpoint restore and
        post-rebuild state copy.
        """
        self.decay_half_life = half_life
        self.decay_clock = int(clock)

    def advance_decay_clock(self, epochs: int = 1) -> None:
        """Advance the logical decay clock, scaling every node at once.

        Mass decays as ``0.5 ** (epochs / half_life)``; scaling both
        ``n`` and the quadratic statistic by the same factor keeps every
        mean (and hence every centroid distance) invariant.  Applying
        the factor to the whole tree at the advance pins the
        floating-point decay trajectory to the epoch schedule alone:
        since ``0.5**(a/H) * 0.5**(b/H)`` is not bit-equal to
        ``0.5**((a+b)/H)``, chunking epochs by when a node happened to be
        visited would leak into results.
        """
        if epochs < 0:
            raise ValueError(f"cannot rewind the decay clock by {epochs}")
        self.decay_clock += int(epochs)
        if self.decay_half_life is None or epochs == 0:
            return
        g = 0.5 ** (int(epochs) / self.decay_half_life)
        stack = [self.root]
        while stack:
            node = stack.pop()
            node._ns[: node.size] *= g
            node._sq[: node.size] *= g
            if node.children is not None:
                stack.extend(node.children)

    # -- public API --------------------------------------------------------------

    @property
    def points(self) -> int:
        """Total number of raw points summarised by the tree."""
        return self._points

    @property
    def node_count(self) -> int:
        """Number of allocated nodes (= simulated pages in use)."""
        return self._node_count

    def insert_point(self, point: np.ndarray) -> None:
        """Insert one raw data point."""
        self.insert_cf(StableCF.from_point(point))

    def _coerce_points(self, points: np.ndarray) -> np.ndarray:
        """Validate a point batch; a single ``(d,)`` point becomes ``(1, d)``."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1 and points.shape[0] == self.layout.dimensions:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != self.layout.dimensions:
            raise ValueError(
                f"points must be (n, {self.layout.dimensions}) or a single "
                f"({self.layout.dimensions},) point — the tree's page layout "
                f"was built for d={self.layout.dimensions} — got shape "
                f"{points.shape}"
            )
        return points

    def insert_points(self, points: np.ndarray) -> None:
        """Insert a batch of points one row at a time (rows of ``(n, d)``).

        Semantically identical to calling :meth:`insert_point` per row;
        the per-point oracle that :meth:`bulk_insert` is checked against.
        The rows come from :func:`~repro.core.features.point_rows` (a
        singleton carries ``SSD = 0``).  A single ``(d,)`` point is
        promoted to ``(1, d)``.
        """
        points = self._coerce_points(points)
        if self.recorder.enabled:
            self.recorder.count("scalar.rows", points.shape[0])
        rows = point_rows(points)
        self._insert_rows(*rows, 0, points.shape[0], stop_on_alloc=False)

    def _insert_rows(
        self,
        ns: np.ndarray,
        vecs: np.ndarray,
        sqs: np.ndarray,
        start: int,
        count: int,
        stop_on_alloc: bool,
    ) -> int:
        """Insert rows ``start .. start+count-1`` one at a time.

        The scalar path shared by :meth:`insert_points`, the chooser's
        scalar runs and :meth:`bulk_insert`'s threshold-miss fallback:
        each row goes through :meth:`insert_cf`'s pass without a CF
        object.  With ``stop_on_alloc`` the run ends right after an
        insertion that allocated or freed a node.  Returns the number
        of rows inserted, and counts their outcomes once (``scalar.*``).
        """
        stop = start + count
        nodes = self._node_count
        t = start
        outcomes = [0, 0, 0]
        for n, sq in zip(ns[start:stop].tolist(), sqs[start:stop].tolist()):
            outcomes[self._insert_row(n, vecs[t], sq)] += 1
            t += 1
            if stop_on_alloc and self._node_count != nodes:
                break
        self._add_points(ns[start:t])
        if self.recorder.enabled:
            for name, value in zip(_OUTCOME_COUNTERS, outcomes):
                self.recorder.count(name, value)
        return t - start

    def _add_points(self, ns: np.ndarray) -> None:
        """Count inserted rows into :attr:`points` as ``insert_cf`` does.

        Integral counts add as one exact integer sum; a fractional
        (decayed) count makes the total a float, summed row by row in
        order.
        """
        if isinstance(self._points, int) and (ns == np.rint(ns)).all():
            self._points += int(ns.sum())
            return
        for n in ns.tolist():
            self._points += n

    def bulk_insert(
        self,
        vecs: np.ndarray,
        ns: Optional[np.ndarray] = None,
        sqs: Optional[np.ndarray] = None,
        *,
        max_rows: Optional[int] = None,
        stop_on_alloc: bool = False,
    ) -> int:
        """Insert a batch of CF rows via the Phase-1 fast path.

        The rows are ``(n, mean, SSD)`` triples ``(ns[i], vecs[i],
        sqs[i])`` of any positive, possibly fractional, count: points,
        weighted points, decayed-stream points, a rebuilt tree's old
        leaf entries or a donor tree's entries.  Without ``ns`` and ``sqs``, ``vecs``
        holds points, each a CF with ``n = 1``.

        Produces a tree **byte-identical** to a sequential
        :meth:`insert_cf` loop over the same rows (structure, entry
        floats, leaf chain, point count and I/O ledger).  Rows go in
        through one of two paths that build the same tree, so the
        choice between them changes cost only:

        * **Speculative windows** (:meth:`_bulk_run`) descend once per
          *node group* instead of once per row and commit the longest
          prefix of rows whose speculative routing survives exact
          replay.  At the leaf a window handles two of Section 4.3's
          three outcomes itself: it absorbs a row into its closest
          entry (re-routing a row whose closest entry changed inside
          the window) or appends it as a new entry when the leaf has
          room.  A window ends early only at a row whose argmin flipped
          at a nonleaf (it starts the next window) or that needs a new
          entry in a full leaf (it is inserted as a scalar run of
          length 1, which splits).
        * **Scalar runs** (:meth:`_insert_rows`) insert rows one by one
          through :meth:`insert_cf`'s pass, which handles appends,
          splits and merging refinement verbatim.

        The tree keeps a moving average of the rows each window commits
        per node visit (leaf sub-windows count as visits).  While it
        stays below ``_CHOOSER_BREAK_EVEN`` (shuffled input at a small
        threshold, where a window commits a few rows over many nodes),
        the next rows go in as one scalar run, then one window probes
        the bulk path again; the run length doubles while probes keep
        failing.  The chooser reads counts only, so a traced run
        repeats its counters exactly, and its state lives on this tree
        (a resume starts afresh; a rebuilt tree keeps what the
        reinsertion of the old entries left).

        Parameters
        ----------
        vecs:
            ``(m, d)`` row vectors (or one ``(d,)`` row).
        ns, sqs:
            ``(m,)`` counts and scalars of the rows; both or neither.
            Counts must be positive, as every tree entry's is.
        max_rows:
            Consume at most this many rows (``None`` = all).  Lets the
            caller align consumption with checkpoint boundaries; a
            scalar run cut there carries on in the next call.
        stop_on_alloc:
            Return right after an insertion that allocated or freed a
            node, so the caller can re-check its memory budget.  Window
            commits never change the node count, and neither does a
            scalar insertion that absorbs or appends, so no other
            insertion can flip the budget's over/under state.  If the
            budget is over on entry, insert through windows that append
            nothing and return after the first row that needs a new
            entry.

        Returns
        -------
        int
            Number of rows consumed (all of them unless ``max_rows`` or
            ``stop_on_alloc`` cut the batch short).
        """
        vecs = self._coerce_points(vecs)
        limit = vecs.shape[0] if max_rows is None else min(
            vecs.shape[0], int(max_rows)
        )
        if limit <= 0:
            return 0
        if ns is None:
            ns, vecs, sqs = point_rows(vecs[:limit])
        stat_kind = (
            "diameter"
            if self.threshold_kind is ThresholdKind.DIAMETER
            else "radius"
        )
        i = 0
        window = _BULK_MIN_WINDOW
        rec = self.recorder
        # A caller already over budget (a rebuild did not get under it)
        # re-checks after every row that needs a new entry.  Windows
        # alone find those rows, so the chooser stands down meanwhile.
        over = (
            stop_on_alloc and self.budget is not None and self.budget.over_budget
        )
        while i < limit:
            if (
                not over
                and self._scalar_left == 0
                and not self._probe_due
                and self._committed_ema < _CHOOSER_BREAK_EVEN
            ):
                # Windows have stopped paying: start a scalar run, to be
                # followed by one probe window.
                self._scalar_left = self._scalar_run_len
                self._probe_due = True
                if rec.enabled:
                    rec.count("bulk.scalar_runs")
            nodes = self._node_count
            if self._scalar_left and not over:
                took = self._insert_rows(
                    ns, vecs, sqs, i, min(self._scalar_left, limit - i),
                    stop_on_alloc,
                )
                i += took
                self._scalar_left -= took
                if rec.enabled:
                    rec.count("bulk.fallback_rows", took)
                if stop_on_alloc and self._node_count != nodes:
                    break
                continue
            w = min(window, limit - i)
            absorbed, flipped, visits = self._bulk_run(
                ns, vecs, sqs, i, w, stat_kind, not over
            )
            i += absorbed
            rate = absorbed / visits
            self._committed_ema += _CHOOSER_EMA_WEIGHT * (
                rate - self._committed_ema
            )
            if rate >= _CHOOSER_BREAK_EVEN:
                self._scalar_run_len = _SCALAR_MIN_RUN
            elif self._probe_due:
                self._scalar_run_len = min(
                    _SCALAR_MAX_RUN, 2 * self._scalar_run_len
                )
            self._probe_due = False
            if rec.enabled:
                # Per-window accounting (never per row): window count,
                # committed prefix length, whether the whole window
                # committed and whether a nonleaf flip cut it — enough
                # to derive the fallback rate and the speculative-commit
                # prefix distribution offline.
                rec.count("bulk.windows")
                rec.count("bulk.absorbed_rows", absorbed)
                if absorbed == w:
                    rec.count("bulk.full_windows")
                elif flipped:
                    rec.count("bulk.flips")
            if absorbed == w:
                window = min(_BULK_MAX_WINDOW, 2 * w)
                continue  # the whole window committed; widen and go on
            # A partial commit predicts the next commit length; sizing
            # the window just above it bounds the work wasted on rows
            # past the commit point that must be re-validated.
            window = min(
                _BULK_MAX_WINDOW,
                max(_BULK_MIN_WINDOW, absorbed + absorbed // 2 + 1),
            )
            if flipped:
                continue  # row i routes against committed state next
            # Row i needs a new entry in a full leaf (or, over budget,
            # any new entry): insert it exactly as the sequential loop
            # would.
            i += self._insert_rows(ns, vecs, sqs, i, 1, stop_on_alloc)
            if rec.enabled:
                rec.count("bulk.fallback_rows")
            if stop_on_alloc and (over or self._node_count != nodes):
                break
        return i

    def _bulk_run(
        self,
        ns: np.ndarray,
        vecs: np.ndarray,
        sqs: np.ndarray,
        start: int,
        w: int,
        stat_kind: str,
        appends: bool,
    ) -> tuple[int, bool, int]:
        """Commit the longest confirmable prefix of a window of rows.

        :meth:`bulk_insert` calls this only when its chooser picks the
        bulk path (the window is worth speculating on, or it probes
        after a scalar run); the rows a window commits per node visit
        feed the chooser's estimate.  Speculate-validate-commit over
        rows ``start .. start+w-1``:

        1. **Route** the window down the tree using the entries' current
           (static) states — one batch distance kernel per visited
           node, rows partitioned by argmin child.
        2. **Replay** the nonleaf visits: each touched entry's exact
           state history over the rows routed to it, bitwise equal to
           the sequential ``CFNode.add_row`` fold with each row's own
           count and scalar, and every routing argmin
           re-evaluated against the state each row would actually have
           seen.  A visited node costs one Python pass over its rows,
           one gather and one kernel call, however many entries the
           window touched.  An ancestor folds a row whether its leaf
           absorbs or appends it, so these checks do not depend on the
           leaves.  The first row whose argmin flipped ends the window,
           and rows at or past it are left out of every later visit.
           Row ``start`` always sees static state, so its routing is
           confirmed by construction and progress is guaranteed.
        3. **Resolve** each leaf visit's rows in order
           (:meth:`_resolve_leaf`): a row whose closest entry changed
           inside the window is re-routed to it, a threshold miss in a
           leaf with room appends a new entry, and only a miss in a
           full leaf ends the window (at the first such row of any
           leaf).
        4. **Commit** the rows before the window's end, with one batched
           write per array of each nonleaf visit and one row write per
           changed or appended leaf entry.

        With ``appends`` False (the caller is over its memory budget) a
        threshold miss ends the window wherever the leaf has room.

        Returns ``(committed, flipped, visits)``: the number of rows
        committed, whether the first uncommitted row flipped at a
        nonleaf (it may then start the next window) rather than needing
        a new entry (it needs the scalar path), and the node visits
        made, leaf sub-windows included.  ``committed`` is 0 only when
        row ``start`` needs a new entry, and then ``flipped`` is False.
        """
        if self.root.size == 0:
            return 0, False, 1
        stop = start + w
        p_ns, rows, p_sq = ns[start:stop], vecs[start:stop], sqs[start:stop]

        # -- 1. speculative routing --------------------------------------
        # visits: (node, row indices routed here (ascending), their
        # argmin columns, those rows' (n, vector, scalar) gathered once,
        # the distance matrix, and a stable argsort of the columns, which
        # groups the rows by entry), every node after its ancestors.
        visits: list[tuple] = []
        pending: list[tuple[CFNode, np.ndarray]] = [(self.root, np.arange(w))]
        while pending:
            node, idx = pending.pop()
            k = node.size
            probes = (p_ns[idx], rows[idx], p_sq[idx])
            mat = stable_cf_batch_distances(
                *probes,
                node._ns[:k],
                node._vec[:k],
                node._sq[:k],
                self.metric,
            )
            cols = mat.argmin(axis=1)
            order = cols.argsort(kind="stable")
            visits.append((node, idx, cols, probes, mat, order))
            if not node.is_leaf:
                assert node.children is not None
                touched, bounds = _entry_groups(cols)
                routed = idx[order]
                for c, lo, hi in zip(touched.tolist(), bounds, bounds[1:]):
                    pending.append((node.children[c], routed[lo:hi]))

        # -- 2./3. exact sequential validation ---------------------------
        # Prefix states are exact for any row all of whose predecessors
        # are confirmed, which is all that matters: commit stops at the
        # first unconfirmed row, so ``cut`` (the first row known to
        # fail) only moves down.  The nonleaf checks run first; then
        # each leaf's rows are all confirmed at every ancestor.
        packed = _pack_rows(p_ns, rows, p_sq)
        cut = w
        flipped = False
        n_visits = len(visits)
        replayed = {"nonleaf": 0, "leaf": 0}
        writes: list[tuple] = []
        d = self.layout.dimensions
        for visit in [v for v in visits if not v[0].is_leaf]:
            visit = _trim(visit, cut)
            if visit is None:
                continue
            node, idx, cols, _, mat, _ = visit
            replayed["nonleaf"] += idx.shape[0]
            touched, base, seen, states, _ = self._replay(packed, visit)
            route_bad = mat.argmin(axis=1) != cols
            if route_bad.any():
                cut = int(idx[int(route_bad.argmax())])
                flipped = True
            writes.append((node, idx, touched, base, seen, states))
        leaves: list[tuple] = []
        for visit in [v for v in visits if v[0].is_leaf]:
            visit = _trim(visit, cut)
            if visit is None:
                continue
            miss, final, counts, subs, rows = self._resolve_leaf(
                packed, visit, stat_kind, appends
            )
            n_visits += subs - 1
            replayed["leaf"] += rows
            if miss is not None and miss < cut:
                cut, flipped = miss, False
            leaves.append((visit, miss, final, counts))

        # -- 4. commit the confirmed prefix ------------------------------
        events = [0, 0]  # rows repaired, rows appended
        if cut:
            for node, idx, touched, base, seen, states in writes:
                live = int(idx.searchsorted(cut))
                if live:
                    final = states[base + seen[live - 1]]
                    node._ns[touched] = final[:, 0]
                    node._vec[touched] = final[:, 1 : d + 1]
                    node._sq[touched] = final[:, -1]
            for visit, miss, final, counts in leaves:
                if visit[1][-1] >= cut and miss != cut:
                    # Another leaf's split ended the window before this
                    # leaf's last row: resolve the rows before it again.
                    visit = _trim(visit, cut)
                    if visit is None:
                        continue
                    _, final, counts, _, _ = self._resolve_leaf(
                        packed, visit, stat_kind, appends
                    )
                leaf = visit[0]
                # Appended entries follow the leaf's own, in order.
                for c in sorted(final):
                    state = final[c]
                    if c < leaf.size:
                        leaf.set_row(c, state[0], state[1 : d + 1], state[-1])
                    else:
                        leaf.append_row(state[0], state[1 : d + 1], state[-1])
                events[0] += counts[0]
                events[1] += counts[1]
            self._add_points(p_ns[:cut])
        if self.recorder.enabled:
            for level, count in replayed.items():
                self.recorder.count(f"bulk.replayed_{level}_rows", count)
            if events[0]:
                self.recorder.count("bulk.repairs", events[0])
            if events[1]:
                self.recorder.count("bulk.appends", events[1])
        return cut, flipped, n_visits

    def _replay(self, packed: np.ndarray, visit: tuple) -> tuple:
        """Replay a visit's rows against the exact states of the entries
        they touch.

        Folds every touched entry's state history over the rows routed
        to it, bitwise equal to the sequential ``CFNode.add_row`` fold,
        and re-evaluates each row's distances to the touched entries
        against the states the row would see, in place in the visit's
        distance matrix.  Returns ``(touched, base, seen, states, own)``:
        entry ``touched[g]`` after its first ``t`` rows is
        ``states[base[g] + t]``, ``seen[r, g]`` counts its rows up to
        and including row ``r``, and ``own[r]`` is the state row ``r``
        sees of the entry it was routed to.
        """
        node, idx, cols, probes, mat, order = visit
        d = self.layout.dimensions
        touched, bounds = _entry_groups(cols)
        # One pass folds every touched entry's exact state history
        # into one flat list of packed rows: entry g's state after
        # its first t rows is row base[g] + t.  Counts and coefficients
        # are add_row's IEEE operations, ``n_old + n``, ``n / n_new``
        # and ``n_old * n / n_new``, and each step adds the row's own
        # SSD before the between-means term.
        mine = packed[idx[order]]
        mine_l = mine.tolist()
        entries = _pack_rows(
            node._ns[touched], node._vec[touched], node._sq[touched]
        ).tolist()
        hist: list = []
        for entry, lo, hi in zip(entries, bounds, bounds[1:]):
            hist += entry
            n_old, sq = entry[0], entry[-1]
            if d <= 2:
                # Pure floats match add_row bitwise for d <= 2 only:
                # its einsum sums one or two products, alike in any
                # order; for d >= 3 its SIMD partial sums reorder.
                m0, m1 = entry[1], entry[2]
                for n, x0, x1, s in mine_l[lo:hi]:
                    n_new = n_old + n
                    iv = n / n_new
                    d0 = x0 - m0
                    d1 = x1 - m1
                    m0 += iv * d0
                    m1 += iv * d1
                    sq += s + n_old * n / n_new * (d0 * d0 + d1 * d1)
                    n_old = n_new
                    hist += (n_new, m0, m1, sq)
                continue
            vec = np.array(entry[1:-1])
            for (n, *_, s), x in zip(mine_l[lo:hi], mine[lo:hi, 1:-1]):
                n_new = n_old + n
                delta = x - vec
                vec = vec + (n / n_new) * delta
                sq += s + n_old * n / n_new * float(
                    np.einsum("j,j->", delta, delta)
                )
                n_old = n_new
                hist += (n_new, *vec.tolist(), sq)
        states = np.array(hist).reshape(-1, packed.shape[1])
        # Row r sees entry g after the group's rows before r, which
        # a cumsum over the rows x touched one-hot matrix counts.
        group = touched.searchsorted(cols)
        onehot = group[:, None] == np.arange(touched.shape[0])
        seen = onehot.cumsum(axis=0)
        base = np.arange(touched.shape[0]) + bounds[:-1]
        view = states[seen - onehot + base]
        # Untouched columns keep their static states, whose
        # distances are the routing matrix's, bitwise.
        g_ns, g_vec, g_sq = view[..., 0], view[..., 1 : d + 1], view[..., -1]
        mat[:, touched] = stable_gathered_cf_distances(
            *probes, g_ns, g_vec, g_sq, self.metric
        )
        return touched, base, seen, states, view[np.arange(idx.shape[0]), group]

    def _resolve_leaf(
        self, packed: np.ndarray, visit: tuple, stat_kind: str, appends: bool
    ) -> tuple[Optional[int], dict[int, list], tuple[int, int], int, int]:
        """Resolve a leaf visit's rows in order, exactly as insert_cf would.

        Every earlier row of the window is settled when a row's turn
        comes (the nonleaf checks ran first, and only this visit's rows
        reach this leaf), so each row takes Section 4.3's leaf step
        against the leaf's exact state: it goes to its closest entry,
        which absorbs it if the threshold test passes (a **repair** when
        that is not the window's routing column for the row, i.e. its
        argmin flipped inside the window, toward a drifted entry or one
        appended earlier in the window); otherwise it is **appended** as
        entry ``size`` if the leaf has room (and ``appends`` is True),
        and otherwise it ends the window there (a split, left to the
        scalar path).

        For d <= 2 the rows go in leaf sub-windows of ``_LEAF_CHUNK``
        rows, each routed once against the exact states at its start (a
        batch kernel call; the first is the routing step's).  Inside a
        sub-window an entry no row has changed yet keeps that distance,
        so a row evaluates only the entries changed before it, on
        Python floats (:data:`_ROW_DISTANCE`, the one-row kernels'
        operations), plus the nearest unchanged one; no row is resolved
        twice.  Python floats cannot stand in for d >= 3 (einsum's
        partial sums reorder there), so wider rows go through
        :meth:`_resolve_leaf_rows`, which replays sub-windows as the
        nonleaf levels do.  That path builds the same tree for d <= 2
        too, but ingests ordered DS1 more slowly than the float path
        (see docs/performance.md).

        Nothing is written to the tree.  Returns the window row that
        ends the window (None if none does), the final ``[n, *mean,
        SSD]`` state of every changed or appended entry (the mean
        padded to two coordinates when d = 1), the rows repaired and
        appended, the number of sub-windows and the rows resolved or
        replayed (each row once for d <= 2).
        """
        leaf, idx, cols, probes, mat, _ = visit
        d = self.layout.dimensions
        if d > 2:
            return self._resolve_leaf_rows(packed, visit, stat_kind, appends)
        distance = _ROW_DISTANCE[self.metric]
        radius = stat_kind == "radius"
        threshold_sq = self.threshold**2
        capacity = leaf.capacity
        k = leaf.size
        ents = _pack_rows(leaf._ns[:k], leaf._vec[:k], leaf._sq[:k]).tolist()
        rows_idx = idx.tolist()
        cols_l = cols.tolist()
        wn = len(rows_idx)
        touched: set[int] = set()
        repairs = subs = 0
        miss, resolved = None, wn
        for lo in range(0, wn, _LEAF_CHUNK):
            hi = min(wn, lo + _LEAF_CHUNK)
            if subs:
                states = np.array(ents)
                part = stable_cf_batch_distances(
                    *(p[lo:hi] for p in probes),
                    states[:, 0],
                    np.ascontiguousarray(states[:, 1 : d + 1]),
                    states[:, -1],
                    self.metric,
                )
            else:
                part = mat[:hi]
            subs += 1
            ranked = part.argsort(axis=1, kind="stable").tolist()
            static = part.tolist()
            changed: set[int] = set()
            for t, (n, x0, x1, s) in enumerate(packed[idx[lo:hi]].tolist()):
                # The closest entry, lowest index on ties (as argmin).
                best = -1
                routed = ranked[t]
                for c in routed:
                    if c not in changed:
                        best, best_v = c, static[t][c]
                        break
                for c in changed:
                    v = distance(ents[c], n, x0, x1, s)
                    if best < 0 or v < best_v or (v == best_v and c < best):
                        best, best_v = c, v
                if _row_fits(ents[best], n, x0, x1, s, radius, threshold_sq):
                    ents[best] = _row_fold(ents[best], n, x0, x1, s)
                    repairs += best != cols_l[lo + t]
                elif appends and len(ents) < capacity:
                    best = len(ents)
                    ents.append([n, x0, x1, s])
                else:
                    miss, resolved = rows_idx[lo + t], lo + t + 1
                    break
                changed.add(best)
            touched |= changed
            if miss is not None:
                break
        final = {c: ents[c] for c in touched}
        return miss, final, (repairs, len(ents) - k), subs, resolved

    def _resolve_leaf_rows(
        self, packed: np.ndarray, visit: tuple, stat_kind: str, appends: bool
    ) -> tuple[Optional[int], dict[int, list], tuple[int, int], int, int]:
        """:meth:`_resolve_leaf` for d >= 3, in vectorised sub-windows.

        Each sub-window is replayed at once (:meth:`_replay`, the
        nonleaf check plus the threshold test of every row against its
        routed entry's state before it), which confirms its rows up to
        the first one whose argmin flipped or that missed the threshold.
        That row takes insert_cf's own leaf step on a copy of the leaf,
        and the next sub-window starts after it, routed against the
        copy's exact states (the first reuses the routing step's
        distances).  A sub-window holds at most ``_LEAF_CHUNK`` rows,
        because a replay costs rows x touched entries x d; within that
        cap it is sized as :meth:`bulk_insert` sizes windows: doubled
        after a sub-window that confirmed whole, else just above the
        rows the last one confirmed.
        """
        leaf, idx, cols, probes, mat, _ = visit
        d = self.layout.dimensions
        q_ns, q_vec, q_sq = probes
        wn = idx.shape[0]
        work = CFNode(leaf.layout, is_leaf=True)
        k = work.size = leaf.size
        work._ns[:k], work._vec[:k], work._sq[:k] = (
            leaf._ns[:k], leaf._vec[:k], leaf._sq[:k]
        )
        changed: set[int] = set()
        repairs = subs = pos = replayed = 0
        size = _LEAF_CHUNK
        miss = None
        while pos < wn:
            hi = min(wn, pos + size)
            replayed += hi - pos
            part = tuple(p[pos:hi] for p in probes)
            if pos:
                m = work.size
                s_mat = stable_cf_batch_distances(
                    *part, work._ns[:m], work._vec[:m], work._sq[:m], self.metric
                )
                s_cols = s_mat.argmin(axis=1)
            else:
                s_mat, s_cols = mat[:hi], cols[:hi]
            sub = (
                work, idx[pos:hi], s_cols, part, s_mat, s_cols.argsort(kind="stable")
            )
            subs += 1
            touched, base, seen, states, own = self._replay(packed, sub)
            s_ns, s_vec, s_sq = part
            own_vec = np.ascontiguousarray(own[:, 1 : d + 1])
            value = stable_paired_cf_merged_stat(
                s_ns, s_vec, s_sq, own[:, 0], own_vec, own[:, -1], stat_kind
            )
            ok = (s_mat.argmin(axis=1) == s_cols) & _within_threshold(
                value,
                own[:, 0] + s_ns,
                np.einsum("rj,rj->r", own_vec, own_vec),
                self.threshold**2,
            )
            f = hi - pos if ok.all() else int(ok.argmin())
            if f:
                done = seen[f - 1]
                state = states[base + done]
                work._ns[touched] = state[:, 0]
                work._vec[touched] = state[:, 1 : d + 1]
                work._sq[touched] = state[:, -1]
                changed.update(touched[done > 0].tolist())
                repairs += int((s_cols[:f] != cols[pos : pos + f]).sum())
            if f == hi - pos:
                pos, size = hi, min(_LEAF_CHUNK, 2 * f)
                continue
            pos += f
            size = min(_LEAF_CHUNK, max(_BULK_MIN_WINDOW, f + f // 2 + 1))
            n, vec, s = q_ns[pos].item(), q_vec[pos], q_sq[pos].item()
            best, _ = self._closest(work, n, vec, s)
            if self._fits_threshold(work, best, n, vec, s):
                self._absorb(work, best, n, vec, s)
                repairs += best != cols[pos]
            elif appends and work.size < work.capacity:
                best = work.append_row(n, vec, s)
            else:
                miss = int(idx[pos])
                break
            changed.add(best)
            pos += 1
        final = {
            c: [work._ns[c].item(), *work._vec[c].tolist(), work._sq[c].item()]
            for c in changed
        }
        return miss, final, (repairs, work.size - k), subs, replayed

    def insert_cf(self, cf: CF | StableCF) -> None:
        """Insert a subcluster CF (a point, an old leaf entry, an outlier).

        A reference :class:`~repro.core.features.CF` is converted to
        ``(n, mean, SSD)`` on the way in.  One iterative pass (Section
        4.3): descend to the closest leaf, recording ``(node, entry)``
        along the path; absorb, append or split at the leaf; then walk
        the path back up.  Above a level
        where nothing split, updating the path is a plain add of the
        CF; a split is pushed into its parent, which appends the new
        sibling (running merging refinement there) or splits in turn,
        and a root split grows the tree.
        """
        if cf.n <= 0:
            raise ValueError("cannot insert an empty CF")
        n, vec, sq = cf_row(cf)
        self._insert_row(n, vec, sq)
        self._points += n

    def _insert_row(self, n: float, vec: np.ndarray, sq: float) -> int:
        """:meth:`insert_cf`'s pass on a raw ``(n, mean, SSD)`` row.

        Leaves the point count to the caller; returns the leaf's outcome.
        """
        leaf, path = self._descend_to_leaf(n, vec, sq)
        sibling: Optional[CFNode] = None
        if leaf.size > 0:
            index, _ = self._closest(leaf, n, vec, sq)
            if self._fits_threshold(leaf, index, n, vec, sq):
                self._absorb(leaf, index, n, vec, sq)
                for node, child_index in path:
                    self._absorb(node, child_index, n, vec, sq)
                return _ABSORBED
        if leaf.size < leaf.capacity:
            leaf.append_row(n, vec, sq)
        else:
            sibling = self._split_node(leaf, (n, vec, sq), None)
        outcome = _APPENDED if sibling is None else _SPLIT
        for node, child_index in reversed(path):
            if sibling is None:
                self._absorb(node, child_index, n, vec, sq)
                continue
            # The child split: refresh its summary and add the sibling.
            node.set_row(child_index, *node.children[child_index].summary_row())
            row = sibling.summary_row()
            if node.size < node.capacity:
                new_index = node.append_row(*row, sibling)
                sibling = None
                self._merging_refinement(node, child_index, new_index)
            else:
                sibling = self._split_node(node, row, sibling)
        if sibling is not None:
            self._grow_root(sibling)
        return outcome

    def try_absorb_cf(self, cf: CF | StableCF) -> bool:
        """Absorb ``cf`` only if it fits an existing leaf entry.

        Implements the re-absorption test for potential outliers
        (Section 5.1.4): the entry is added only when it can merge into
        the closest existing leaf entry *without* splitting anything.
        Returns True if absorbed.
        """
        if cf.n <= 0:
            raise ValueError("cannot absorb an empty CF")
        n, vec, sq = cf_row(cf)
        leaf, path = self._descend_to_leaf(n, vec, sq)
        if leaf.size == 0:
            return False
        index, _ = self._closest(leaf, n, vec, sq)
        if not self._fits_threshold(leaf, index, n, vec, sq):
            return False
        self._absorb(leaf, index, n, vec, sq)
        for node, child_idx in path:
            self._absorb(node, child_idx, n, vec, sq)
        self._points += n
        return True

    # -- forgetting (guarded CF subtraction) ----------------------------------

    def subtract_cf(
        self,
        cf: CF | StableCF,
        *,
        account_points: bool = True,
        max_probes: int = 8,
        on_clamp=None,
    ) -> dict[str, float]:
        """Remove ``cf``'s mass from the tree by guarded CF subtraction.

        The additivity theorem runs in both directions: a delta that was
        once merged in can be subtracted back out.  Each probe descends
        to the leaf entry closest to the remaining delta (the same walk
        an insertion of that delta would take, so the mass comes out of
        the entries it most plausibly went into), then either

        * subtracts the whole remaining delta from that entry via the
          guarded :meth:`StableCF.subtract` (tiny negative SSD residues
          clamp to zero through ``on_clamp``; grossly negative residues
          raise and demote to a pro-rata mass withdrawal that keeps the
          entry's own mean and variance shape, so the removal never
          exceeds the request), or
        * removes the entry outright when the delta covers it, scaling
          the remaining delta's mass down by what the entry held.

        Ancestor summaries are recomputed exactly bottom-up, emptied
        leaves are pruned (freeing their pages), and a root left with a
        single child collapses.  Splitting a delta across entries stops
        after ``max_probes`` descents; any unsubtracted residue stays in
        the tree and is *not* deducted from the point count, so the
        conservation ledger never over-reports forgetting.

        Parameters
        ----------
        account_points:
            When True (default) the tree decrements its own raw point
            count by the subtracted mass (exact for integral deltas).
            Decay-enabled callers pass False and convert the weighted
            mass back to raw points themselves.

        Returns
        -------
        dict
            ``subtracted_n`` (mass actually removed), ``removed_entries``,
            ``clamped`` / ``clamped_mass`` (round-off guards that fired),
            ``mismatched`` (pro-rata fallbacks for deltas whose geometry
            did not match any entry), ``pruned_nodes`` and ``probes``.
        """
        stats: dict[str, float] = {
            "subtracted_n": 0.0,
            "removed_entries": 0,
            "clamped": 0,
            "clamped_mass": 0.0,
            "mismatched": 0,
            "pruned_nodes": 0,
            "probes": 0,
        }

        def clamp(mag: float) -> None:
            stats["clamped"] += 1
            stats["clamped_mass"] += mag
            if on_clamp is not None:
                on_clamp(mag)

        remaining = as_stable(cf)
        while (
            remaining.n > 1e-9
            and stats["probes"] < max_probes
            and self.root.size > 0
        ):
            stats["probes"] += 1
            row = cf_row(remaining)
            leaf, path = self._descend_to_leaf(*row)
            if leaf.size == 0:  # pragma: no cover - empty root leaf only
                break
            index, _ = self._closest(leaf, *row)
            entry = leaf.entry_cf(index)
            if remaining.n >= entry.n - 1e-9:
                # The delta covers this entry: drop it whole and carry
                # the uncovered remainder (same mean, reduced mass) to
                # the next probe.
                leaf.remove_entry(index)
                stats["removed_entries"] += 1
                stats["subtracted_n"] += entry.n
                factor = max(0.0, remaining.n - entry.n) / remaining.n
                remaining = remaining.scaled(factor)
            else:
                try:
                    rest = entry.subtract(remaining, on_clamp=clamp)
                except ValueError:
                    # Grossly negative residue: the delta's geometry does
                    # not live in this entry.  Withdraw the requested mass
                    # pro-rata instead — the entry keeps its own mean and
                    # SSD, scaled down — so no imaginary variance is
                    # minted and the removal never exceeds the request
                    # (removing the entry whole here would over-forget by
                    # ``entry.n - remaining.n`` and, through the decay
                    # factor, let one retirement hollow out the tree).
                    stats["mismatched"] += 1
                    keep = (entry.n - remaining.n) / entry.n
                    rest = entry.scaled(keep)
                    if rest.n <= 1e-9:
                        leaf.remove_entry(index)
                        stats["removed_entries"] += 1
                    else:
                        leaf.set_entry(index, rest)
                    stats["subtracted_n"] += remaining.n
                    remaining = StableCF.empty(self.layout.dimensions)
                else:
                    leaf.set_entry(index, rest)
                    stats["subtracted_n"] += remaining.n
                    remaining = StableCF.empty(self.layout.dimensions)
            # Refresh ancestors bottom-up: exact recomputation (not a
            # subtraction) so the parent/child invariant holds to the
            # last ulp, pruning nodes the subtraction emptied.
            child = leaf
            for parent, idx in reversed(path):
                if child.size == 0:
                    parent.remove_entry(idx)
                    self._free_node(child)
                    stats["pruned_nodes"] += 1
                else:
                    parent.set_entry(idx, child.summary_cf())
                child = parent
        # A nonleaf root that lost children down to one collapses; a
        # fully emptied nonleaf root becomes a fresh empty leaf so the
        # next insertion descends into a well-formed tree.
        while not self.root.is_leaf and self.root.size == 1:
            assert self.root.children is not None
            child = self.root.children[0]
            self._free_node(self.root)
            stats["pruned_nodes"] += 1
            self.root = child
        if not self.root.is_leaf and self.root.size == 0:
            self._free_node(self.root)
            stats["pruned_nodes"] += 1
            self.root = self._new_node(is_leaf=True)
            self._leaf_head = self.root
        if self.root.is_leaf:
            self._leaf_head = self.root
        if account_points:
            self._points = max(
                0, self._points - int(round(stats["subtracted_n"]))
            )
        return stats

    def nearest_entry(self, point: np.ndarray) -> tuple[StableCF, float]:
        """The leaf entry greedily closest to ``point``, with distance.

        Descends the tree like an insertion would and returns the
        closest entry of the reached leaf (as a CF copy) and its
        distance under the tree's metric.  This treats the CF-tree as
        an approximate nearest-subcluster index: greedy descent can
        miss the global optimum near node boundaries, exactly as the
        insertion path can — it answers "where would this point go?"
        rather than "what is the true nearest subcluster?".

        Raises
        ------
        ValueError
            If the tree is empty.
        """
        if self.root.size == 0:
            raise ValueError("nearest_entry on an empty tree")
        row = cf_row(StableCF.from_point(np.asarray(point, dtype=np.float64)))
        leaf, _ = self._descend_to_leaf(*row)
        index, dist = self._closest(leaf, *row)
        return leaf.entry_cf(index), dist

    def leaves(self) -> Iterator[CFNode]:
        """Iterate leaf nodes via the leaf chain (left to right)."""
        # The head may have been superseded if the first leaf split; walk
        # back defensively in case of stale pointers.
        node: Optional[CFNode] = self._leaf_head
        while node is not None and node.prev_leaf is not None:
            node = node.prev_leaf
        while node is not None:
            yield node
            node = node.next_leaf

    def leaf_entries(self) -> list[StableCF]:
        """Every leaf entry (subcluster) as CF objects, in chain order."""
        entries: list[StableCF] = []
        for leaf in self.leaves():
            entries.extend(leaf.iter_entry_cfs())
        return entries

    def summary_cf(self) -> StableCF:
        """CF of the whole dataset held in the tree."""
        if self.root.size == 0:
            return StableCF.empty(self.layout.dimensions)
        return self.root.summary_cf()

    def tree_stats(self) -> TreeStats:
        """Structural statistics (height, node/leaf/entry counts)."""
        height = 1
        node = self.root
        while not node.is_leaf:
            height += 1
            assert node.children is not None
            node = node.children[0]
        leaf_count = 0
        entry_count = 0
        for leaf in self.leaves():
            leaf_count += 1
            entry_count += leaf.size
        return TreeStats(
            height=height,
            node_count=self._node_count,
            leaf_count=leaf_count,
            leaf_entry_count=entry_count,
            points=self._points,
        )

    @property
    def height(self) -> int:
        """Levels from root to leaf, inclusive."""
        return self.tree_stats().height

    # -- insertion machinery ---------------------------------------------------------

    def _closest(
        self, node: CFNode, n: float, vec: np.ndarray, sq: float
    ) -> tuple[int, float]:
        """Index and distance of ``node``'s entry closest to a raw row.

        The unchecked twin of :meth:`CFNode.closest_entry`: the node is
        non-empty.
        """
        k = node.size
        dists = stable_distances_core(
            n, vec, sq, node._ns[:k], node._vec[:k], node._sq[:k], self.metric
        )
        index = int(dists.argmin())
        return index, float(dists[index])

    def _absorb(
        self, node: CFNode, index: int, n: float, vec: np.ndarray, sq: float
    ) -> None:
        """Fold a raw row into entry ``index`` (unchecked ``add_to_entry``);
        for d <= 2 on Python floats (:func:`_row_fold`)."""
        d = self.layout.dimensions
        if d > 2:
            node.add_row(index, n, vec, sq)
            return
        en, m0, m1, es = _row_fold(_entry(node, index), n, *_coords(vec), sq)
        node._ns[index], node._sq[index] = en, es
        node._vec[index, 0] = m0
        if d == 2:
            node._vec[index, 1] = m1

    def _descend_to_leaf(
        self, n: float, vec: np.ndarray, sq: float
    ) -> tuple[CFNode, list[tuple[CFNode, int]]]:
        """Walk to the closest leaf; returns (leaf, [(node, child_idx), ...])."""
        path: list[tuple[CFNode, int]] = []
        node = self.root
        while not node.is_leaf:
            index, _ = self._closest(node, n, vec, sq)
            path.append((node, index))
            assert node.children is not None
            node = node.children[index]
        return node, path

    def _fits_threshold(
        self, leaf: CFNode, index: int, n: float, vec: np.ndarray, sq: float
    ) -> bool:
        """Would merging a raw row into ``leaf`` entry ``index`` satisfy T?

        The statistic keeps full relative precision, so the comparison
        allows a relative slack plus the tiny absolute error inherited
        from rounding the means themselves (``~(eps * ||mean||)^2`` per
        point).  That last term is what lets near-duplicates far from
        the origin keep merging at T = 0: their true merged diameter is
        zero but the computed one is a rounding residue of the means.

        The statistic is :func:`_merged_stat`, on Python floats, and the
        test is :func:`_within_threshold`, as on the bulk path (for d <= 2
        both in :func:`_row_fits`, the window leaf step's test).
        """
        radius = self.threshold_kind is ThresholdKind.RADIUS
        if self.layout.dimensions <= 2:
            return _row_fits(
                _entry(leaf, index), n, *_coords(vec), sq, radius, self.threshold**2
            )
        mean = leaf._vec[index]
        value, n_merged = _merged_stat(
            leaf._ns[index].item(), mean, leaf._sq[index].item(), n, vec, sq, radius
        )
        mean_sq = float(np.einsum("j,j->", mean, mean))
        return _within_threshold(value, n_merged, mean_sq, self.threshold**2)

    def _split_node(
        self,
        node: CFNode,
        extra: tuple[float, np.ndarray, float],
        extra_child: Optional[CFNode],
    ) -> CFNode:
        """Split full ``node`` to make room for one more entry row.

        Seeds are the *farthest pair* of entries; the rest are
        redistributed to the closer seed (Section 4.3).  Entries move as
        array rows, keeping their order on each side.  Returns the new
        sibling node.
        """
        k = node.size
        ns = np.append(node._ns[:k], extra[0])
        vecs = np.concatenate((node._vec[:k], extra[1][None, :]))
        sqs = np.append(node._sq[:k], extra[2])
        children = None if node.is_leaf else node.children + [extra_child]
        sibling = self._new_node(is_leaf=node.is_leaf)
        if node.is_leaf:
            self._link_leaf_after(node, sibling)
        self._distribute(ns, vecs, sqs, children, node, sibling)
        if self.stats is not None:
            self.stats.record_split()
        return sibling

    def _distribute(
        self,
        ns: np.ndarray,
        vecs: np.ndarray,
        sqs: np.ndarray,
        children: Optional[list[CFNode]],
        left: CFNode,
        right: CFNode,
    ) -> None:
        """Seed a split of the given rows and fill ``left`` and ``right``.

        Seeds are the rows whose means lie farthest apart (D0); the
        paper does not fix the seeding metric, and centroid Euclidean
        distance is the conventional choice, well-defined for every
        entry size.  Every other row goes to the closer seed, closest
        margin first, so that when one side fills up the rows forced to
        the other side are the ones with the least preference.
        """
        k = vecs.shape[0]
        # k is at most B+1 (a page worth of entries), so O(k^2) is cheap.
        diffs = vecs[:, None, :] - vecs[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
        flat = int(np.argmax(dist2))
        seed_a, seed_b = flat // k, flat % k

        da = np.linalg.norm(vecs - vecs[seed_a], axis=1)
        db = np.linalg.norm(vecs - vecs[seed_b], axis=1)
        preference = np.where(da <= db, 0, 1)
        margin = np.abs(da - db)
        capacity = left.capacity
        side = np.empty(k, dtype=np.int64)
        side[seed_a] = 0
        side[seed_b] = 1
        counts = [1, 1]
        order = sorted(
            (i for i in range(k) if i not in (seed_a, seed_b)),
            key=lambda i: -margin[i],
        )
        for i in order:
            s = int(preference[i])
            if counts[s] >= capacity:
                s = 1 - s
            side[i] = s
            counts[s] += 1

        for target, mask in ((left, side == 0), (right, side == 1)):
            target.fill_rows(
                ns[mask],
                vecs[mask],
                sqs[mask],
                None
                if children is None
                else [c for c, keep in zip(children, mask) if keep],
            )

    def _grow_root(self, sibling: CFNode) -> None:
        """Create a new root after the old root split."""
        old_root = self.root
        new_root = self._new_node(is_leaf=False)
        new_root.append_row(*old_root.summary_row(), old_root)
        new_root.append_row(*sibling.summary_row(), sibling)
        self.root = new_root

    # -- merging refinement ----------------------------------------------------------

    def _merging_refinement(self, node: CFNode, split_a: int, split_b: int) -> None:
        """Merge the two closest entries of ``node`` if beneficial.

        Runs at the nonleaf node where a split propagation stopped.  If
        the closest pair of entries is not the pair produced by the
        split, their children are merged (or re-split if the combined
        entries overflow one page), improving space utilisation and
        ameliorating input-order skew (Section 4.3).
        """
        if not self.merging_refinement:
            return
        if node.size < 2 or node.children is None:
            return
        dists = node.pairwise_entry_distances(self.metric)
        np.fill_diagonal(dists, np.inf)
        flat = int(np.argmin(dists))
        i, j = flat // node.size, flat % node.size
        if i > j:
            i, j = j, i
        if {i, j} == {split_a, split_b}:
            return

        left, right = node.children[i], node.children[j]
        if left.is_leaf != right.is_leaf:  # pragma: no cover - structural guard
            return
        total = left.size + right.size
        if total <= left.capacity:
            self._merge_children(node, i, j)
        else:
            self._resplit_children(node, i, j)

    def _merge_children(self, node: CFNode, i: int, j: int) -> None:
        """Combine child ``j`` into child ``i`` and drop entry ``j``."""
        assert node.children is not None
        left, right = node.children[i], node.children[j]
        a, b = left.size, right.size
        left.fill_rows(
            np.concatenate((left._ns[:a], right._ns[:b])),
            np.concatenate((left._vec[:a], right._vec[:b])),
            np.concatenate((left._sq[:a], right._sq[:b])),
            None if left.is_leaf else left.children + right.children,
        )
        node.set_row(i, *left.summary_row())
        node.remove_entry(j)
        self._free_node(right)
        if self.stats is not None:
            self.stats.record_merge()

    def _resplit_children(self, node: CFNode, i: int, j: int) -> None:
        """Redistribute the entries of children ``i`` and ``j``.

        The paper: "merge the two closest entries ... and resplit",
        using one seed per page so occupancy balances out.
        """
        assert node.children is not None
        left, right = node.children[i], node.children[j]
        a, b = left.size, right.size
        self._distribute(
            np.concatenate((left._ns[:a], right._ns[:b])),
            np.concatenate((left._vec[:a], right._vec[:b])),
            np.concatenate((left._sq[:a], right._sq[:b])),
            None if left.is_leaf else left.children + right.children,
            left,
            right,
        )
        node.set_row(i, *left.summary_row())
        node.set_row(j, *right.summary_row())
        if self.stats is not None:
            self.stats.record_merge()

    # -- structural snapshot (checkpoint/resume) ---------------------------------------

    def export_structure(self) -> dict[str, np.ndarray]:
        """Flatten the exact tree structure into named arrays.

        Unlike :func:`repro.core.serialization.save_tree` — which keeps
        only the leaf entries and re-inserts them on load — this captures
        the tree *bit-for-bit*: node topology in preorder, every entry's
        raw ``(n, vector, scalar)`` floats, and the leaf-chain order
        (which split/merge history determines and re-insertion would
        not reproduce).  Restoring via :meth:`from_structure` therefore
        continues an interrupted Phase 1 exactly where it left off.

        Returns arrays: ``node_is_leaf`` (uint8, preorder),
        ``node_sizes`` (int64, preorder), ``entry_ns``/``entry_vec``/
        ``entry_sq`` (entries concatenated in preorder) and
        ``leaf_chain`` (preorder indices of leaves in chain order).
        """
        nodes: list[CFNode] = []
        index: dict[int, int] = {}

        def visit(node: CFNode) -> None:
            index[id(node)] = len(nodes)
            nodes.append(node)
            if node.children is not None:
                for child in node.children:
                    visit(child)

        visit(self.root)
        sizes = np.array([n.size for n in nodes], dtype=np.int64)
        d = self.layout.dimensions
        entry_ns = np.concatenate([n._ns[: n.size] for n in nodes])
        entry_vec = np.concatenate([n._vec[: n.size] for n in nodes])
        entry_sq = np.concatenate([n._sq[: n.size] for n in nodes])
        chain = np.array(
            [index[id(leaf)] for leaf in self.leaves()], dtype=np.int64
        )
        return {
            "node_is_leaf": np.array(
                [n.is_leaf for n in nodes], dtype=np.uint8
            ),
            "node_sizes": sizes,
            "entry_ns": entry_ns.astype(np.float64),
            "entry_vec": entry_vec.reshape(-1, d).astype(np.float64),
            "entry_sq": entry_sq.astype(np.float64),
            "leaf_chain": chain,
        }

    @classmethod
    def from_structure(
        cls,
        arrays: dict[str, np.ndarray],
        *,
        layout: PageLayout,
        threshold: float,
        metric: Metric,
        threshold_kind: ThresholdKind,
        points: int,
        budget: Optional[MemoryBudget] = None,
        stats: Optional[IOStats] = None,
        merging_refinement: bool = True,
        recorder: Optional[Recorder] = None,
    ) -> "CFTree":
        """Rebuild the exact tree captured by :meth:`export_structure`.

        Raises
        ------
        ValueError
            If the arrays are internally inconsistent (truncated or
            produced under a different page layout).
        """
        is_leaf = np.asarray(arrays["node_is_leaf"], dtype=bool)
        sizes = np.asarray(arrays["node_sizes"], dtype=np.int64)
        entry_ns = np.asarray(arrays["entry_ns"], dtype=np.float64)
        entry_vec = np.asarray(arrays["entry_vec"], dtype=np.float64)
        entry_sq = np.asarray(arrays["entry_sq"], dtype=np.float64)
        chain = np.asarray(arrays["leaf_chain"], dtype=np.int64)

        n_nodes = is_leaf.shape[0]
        total_entries = int(sizes.sum())
        if sizes.shape[0] != n_nodes or n_nodes == 0:
            raise ValueError("structure arrays disagree on node count")
        if not is_leaf[0] and n_nodes == 1:
            raise ValueError("root is nonleaf but no other nodes exist")
        if (
            entry_ns.shape[0] != total_entries
            or entry_sq.shape[0] != total_entries
            or entry_vec.shape != (total_entries, layout.dimensions)
        ):
            raise ValueError(
                f"entry arrays hold {entry_ns.shape[0]} rows but node sizes "
                f"sum to {total_entries}"
            )
        if sorted(int(i) for i in chain) != [
            int(i) for i in np.flatnonzero(is_leaf)
        ]:
            raise ValueError("leaf chain does not enumerate the leaf nodes")

        tree = cls(
            layout=layout,
            threshold=threshold,
            metric=metric,
            threshold_kind=threshold_kind,
            budget=budget,
            stats=stats,
            merging_refinement=merging_refinement,
            recorder=recorder,
        )
        tree._free_node(tree.root)  # discard the fresh empty root
        nodes = [tree._new_node(bool(flag)) for flag in is_leaf]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        for i, node in enumerate(nodes):
            size = int(sizes[i])
            if size > node.capacity:
                raise ValueError(
                    f"node {i} holds {size} entries but the layout allows "
                    f"{node.capacity}"
                )
            lo = int(offsets[i])
            node._ns[:size] = entry_ns[lo : lo + size]
            node._vec[:size] = entry_vec[lo : lo + size]
            node._sq[:size] = entry_sq[lo : lo + size]
            node.size = size

        cursor = 1

        def attach(index: int) -> None:
            nonlocal cursor
            node = nodes[index]
            if node.is_leaf:
                return
            assert node.children is not None
            for _ in range(node.size):
                if cursor >= n_nodes:
                    raise ValueError("structure arrays truncated mid-topology")
                child = cursor
                cursor += 1
                node.children.append(nodes[child])
                attach(child)

        attach(0)
        if cursor != n_nodes:
            raise ValueError(
                f"topology uses {cursor} of {n_nodes} stored nodes"
            )

        chain_nodes = [nodes[int(i)] for i in chain]
        for left, right in zip(chain_nodes, chain_nodes[1:]):
            left.next_leaf = right
            right.prev_leaf = left
        tree.root = nodes[0]
        tree._leaf_head = chain_nodes[0]
        tree._points = int(points)
        return tree

    # -- invariants -------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify every structural invariant; raises AssertionError on failure.

        Checked: per-node consistency, parent summaries equal child
        sums, uniform leaf depth, leaf chain completeness, threshold
        satisfaction of multi-point leaf entries, and point conservation.

        Under decay two checks relax: the exact point-count identity
        (weighted mass is a decayed fraction of the raw count, which
        ``_points`` keeps) and the leaf threshold (decay shrinks ``n`` faster than SSD's
        ``n - 1`` denominator, inflating the *diameter* of entries that
        satisfied ``T`` when their mass was whole).
        """
        decaying = self.decay_half_life is not None
        leaf_depths: set[int] = set()
        leaves_via_tree: list[CFNode] = []

        def visit(node: CFNode, depth: int) -> StableCF:
            node.check_consistency()
            if node.is_leaf:
                leaf_depths.add(depth)
                leaves_via_tree.append(node)
                if not decaying:
                    self._check_leaf_threshold(node)
                return node.summary_cf()
            assert node.children is not None
            for idx, child in enumerate(node.children):
                child_cf = visit(child, depth + 1)
                entry = node.entry_cf(idx)
                if not entry.allclose(child_cf, rtol=1e-6, atol=1e-6):
                    raise AssertionError(
                        f"parent entry {entry!r} != child summary {child_cf!r}"
                    )
            return node.summary_cf()

        total = visit(self.root, 0)
        if len(leaf_depths) > 1:
            raise AssertionError(f"leaves at multiple depths: {sorted(leaf_depths)}")
        if not decaying and total.n != self._points:
            raise AssertionError(
                f"tree summarises {total.n} points but {self._points} were inserted"
            )
        chain = list(self.leaves())
        if set(map(id, chain)) != set(map(id, leaves_via_tree)):
            raise AssertionError("leaf chain does not match tree leaves")

    def _check_leaf_threshold(self, leaf: CFNode) -> None:
        eps = float(np.finfo(np.float64).eps)
        for i in range(leaf.size):
            cf = leaf.entry_cf(i)
            if cf.n < 2:
                continue
            value = (
                cf.diameter
                if self.threshold_kind is ThresholdKind.DIAMETER
                else cf.radius
            )
            # The statistic is exact up to relative rounding plus the
            # mean-representation residue (mirrors the slack of
            # _fits_threshold).
            mean_sq = float(cf.mean @ cf.mean)
            slack_sq = 64.0 * eps * (value * value + eps * cf.n * mean_sq)
            limit = math.sqrt(self.threshold**2 + slack_sq)
            if value > limit * (1 + 1e-9) + 1e-12:
                raise AssertionError(
                    f"leaf entry {cf!r} violates threshold "
                    f"{self.threshold} ({self.threshold_kind.value}={value})"
                )

    def __repr__(self) -> str:
        return (
            f"CFTree(T={self.threshold:.4g}, metric={self.metric.value}, "
            f"nodes={self._node_count}, "
            f"points={self._points})"
        )
