"""The Clustering Feature (CF) — Definition 4.1 of the paper.

A CF is the triple ``(N, LS, SS)`` for a cluster of ``N`` d-dimensional
points ``{X_i}``:

* ``N``  — the number of points;
* ``LS`` — the linear sum ``sum_i X_i`` (a d-vector);
* ``SS`` — the square sum ``sum_i ||X_i||^2`` (a scalar).

The CF Additivity Theorem (Theorem 4.1) states that for disjoint
clusters, ``CF_1 + CF_2 = (N_1+N_2, LS_1+LS_2, SS_1+SS_2)``.  Because
centroid, radius, diameter and all five inter-cluster distances D0-D4
are closed-form functions of CFs, BIRCH never needs the raw points after
absorbing them.

This module provides :class:`CF`, the paper's triple, kept as the
reference algebra that the tests and the numeric-stability benchmark
check against, in exact correspondence with equations (1)-(6).

The literal ``(N, LS, SS)`` triple is numerically fragile: every
radius/diameter/D2-D4 value is a small difference of the large
quantities ``SS`` and ``||LS||^2/N``, so once data sits far from the
origin the statistics lose all significant digits (catastrophic
cancellation).  The CF-tree, its kernels and every file the library
writes therefore store :class:`StableCF` — the BETULA cluster feature
``(n, mean, SSD)`` of Lang & Schubert (2020), updated with
Welford/Chan-style incremental formulas.  Hot loops operate on the
struct-of-arrays views exposed by the tree nodes (see
:mod:`repro.core.node`).  Both classes expose the same
algebra/statistics interface; :meth:`CF.to_stable` converts a
reference CF (and a legacy ``(N, LS, SS)`` row read from an old file)
into the stored representation.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "CF",
    "StableCF",
    "as_stable",
    "cf_row",
    "point_rows",
    "row_cf",
]

#: Relative scale below which a negative square-sum / SSD residue is
#: treated as round-off (clamped to zero) rather than a logic error.
_NEGATIVE_RESIDUE_RTOL = 1e-6


class CF:
    """A Clustering Feature summarising a set of d-dimensional points.

    Instances are mutable: absorbing a point or merging another CF
    updates ``(N, LS, SS)`` in place, which is exactly how the CF-tree
    maintains its node summaries incrementally.

    Parameters
    ----------
    n:
        Number of points summarised (``N``).
    ls:
        Linear sum, an array of shape ``(d,)``.
    ss:
        Square sum, ``sum_i ||X_i||^2``.
    """

    __slots__ = ("n", "ls", "ss")

    def __init__(self, n: int, ls: np.ndarray, ss: float) -> None:
        if n < 0:
            raise ValueError(f"N must be >= 0, got {n}")
        if not float(n).is_integer():
            raise ValueError(
                f"classic CF counts are integral, got N={n}; fractional "
                "(decayed) mass requires StableCF"
            )
        self.n = int(n)
        self.ls = np.asarray(ls, dtype=np.float64)
        if self.ls.ndim != 1:
            raise ValueError(f"LS must be a 1-d vector, got shape {self.ls.shape}")
        self.ss = float(ss)

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, dimensions: int) -> "CF":
        """The identity element of CF addition."""
        return cls(0, np.zeros(dimensions, dtype=np.float64), 0.0)

    @classmethod
    def from_point(cls, point: np.ndarray) -> "CF":
        """CF of a single point: ``(1, X, ||X||^2)``."""
        point = _validate_point(point)
        return cls(1, point.copy(), float(point @ point))

    @classmethod
    def from_points(cls, points: np.ndarray | Iterable[Iterable[float]]) -> "CF":
        """CF of a batch of points given as an ``(n, d)`` array."""
        points = _validate_points(points)
        n = points.shape[0]
        ls = points.sum(axis=0)
        ss = float(np.einsum("ij,ij->", points, points))
        return cls(n, ls, ss)

    # -- algebra (Theorem 4.1) ----------------------------------------------

    @property
    def dimensions(self) -> int:
        """Dimensionality ``d`` of the summarised points."""
        return self.ls.shape[0]

    def copy(self) -> "CF":
        """An independent copy."""
        return CF(self.n, self.ls.copy(), self.ss)

    def merge(self, other: "CF") -> "CF":
        """``self + other`` as a new CF (Additivity Theorem)."""
        self._check_compatible(other)
        return CF(self.n + other.n, self.ls + other.ls, self.ss + other.ss)

    def merge_inplace(self, other: "CF") -> None:
        """Absorb ``other`` into this CF."""
        self._check_compatible(other)
        self.n += other.n
        self.ls += other.ls
        self.ss += other.ss

    def subtract(
        self,
        other: "CF",
        *,
        on_clamp: Optional[Callable[[float], None]] = None,
    ) -> "CF":
        """``self - other``; valid when ``other`` summarises a subset.

        The difference of two square sums accumulated in different
        orders can dip a hair below its true value; a *tiny* negative
        ``SS`` residue (within ``1e-6`` of the minuend's scale) is
        clamped to zero and reported through ``on_clamp`` (called with
        the clamped magnitude).  A grossly negative square sum — or a
        grossly negative implied variance ``SS - ||LS||^2/N`` — means
        ``other`` was never a subset of ``self`` and raises
        ``ValueError`` instead of minting imaginary radius.
        """
        self._check_compatible(other)
        if other.n > self.n:
            raise ValueError(
                f"cannot subtract CF with N={other.n} from CF with N={self.n}"
            )
        n_rest = self.n - other.n
        ls_rest = self.ls - other.ls
        ss_rest = self.ss - other.ss
        floor = -_NEGATIVE_RESIDUE_RTOL * max(self.ss, 1.0)
        if ss_rest < 0.0:
            if ss_rest < floor:
                raise ValueError(
                    f"CF subtraction yields grossly negative SS {ss_rest}; "
                    "the subtrahend does not summarise a subset"
                )
            if on_clamp is not None:
                on_clamp(-ss_rest)
            ss_rest = 0.0
        if n_rest > 0:
            ssd_rest = ss_rest - float(ls_rest @ ls_rest) / n_rest
            if ssd_rest < floor:
                raise ValueError(
                    f"CF subtraction yields grossly negative variance "
                    f"(implied SSD {ssd_rest}); the subtrahend does not "
                    "summarise a subset"
                )
        return CF(n_rest, ls_rest, ss_rest)

    def add_point(self, point: np.ndarray) -> None:
        """Absorb a single point in place."""
        point = _validate_point(point, self.dimensions)
        self.n += 1
        self.ls += point
        self.ss += float(point @ point)

    def __add__(self, other: "CF") -> "CF":
        return self.merge(other)

    def __iadd__(self, other: "CF") -> "CF":
        self.merge_inplace(other)
        return self

    # -- derived statistics (equations (1)-(3)) -------------------------------

    @property
    def centroid(self) -> np.ndarray:
        """Centroid ``X0 = LS / N`` (equation (1))."""
        if self.n == 0:
            raise ValueError("centroid of an empty CF is undefined")
        return self.ls / self.n

    @property
    def radius(self) -> float:
        """Radius ``R``: RMS distance of members to the centroid (eq. (2)).

        ``R^2 = SS/N - ||LS/N||^2``, clamped at zero against round-off.
        """
        if self.n == 0:
            raise ValueError("radius of an empty CF is undefined")
        centroid = self.ls / self.n
        r2 = self.ss / self.n - float(centroid @ centroid)
        return math.sqrt(max(r2, 0.0))

    @property
    def diameter(self) -> float:
        """Diameter ``D``: RMS pairwise member distance (eq. (3)).

        ``D^2 = (2 N SS - 2 ||LS||^2) / (N (N - 1))`` for ``N >= 2``;
        a singleton cluster has diameter 0 by convention.
        """
        if self.n == 0:
            raise ValueError("diameter of an empty CF is undefined")
        if self.n == 1:
            return 0.0
        d2 = (2.0 * self.n * self.ss - 2.0 * float(self.ls @ self.ls)) / (
            self.n * (self.n - 1)
        )
        return math.sqrt(max(d2, 0.0))

    @property
    def sum_squared_deviation(self) -> float:
        """``sum_i ||X_i - X0||^2 = SS - ||LS||^2 / N`` (used by D4)."""
        if self.n == 0:
            return 0.0
        ssd = self.ss - float(self.ls @ self.ls) / self.n
        return max(ssd, 0.0)

    # -- conversion -----------------------------------------------------------

    def to_stable(self) -> "StableCF":
        """This cluster as a :class:`StableCF` ``(n, mean, SSD)``.

        The mean and SSD are derived from ``(N, LS, SS)``, so any
        cancellation already baked into ``SS`` carries over; converting
        does not recover precision, it only switches representation.
        """
        if self.n == 0:
            return StableCF.empty(self.dimensions)
        return StableCF(self.n, self.centroid, self.sum_squared_deviation)

    # -- comparison -----------------------------------------------------------

    def allclose(self, other: "CF", rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """Approximate equality, tolerant of float accumulation order."""
        return (
            self.n == other.n
            and np.allclose(self.ls, other.ls, rtol=rtol, atol=atol)
            and math.isclose(self.ss, other.ss, rel_tol=rtol, abs_tol=atol)
        )

    def _check_compatible(self, other: "CF") -> None:
        if self.dimensions != other.dimensions:
            raise ValueError(
                f"dimension mismatch: {self.dimensions} vs {other.dimensions}"
            )

    def __repr__(self) -> str:
        ls_repr = np.array2string(self.ls, precision=3)
        return f"CF(n={self.n}, ls={ls_repr}, ss={self.ss:.3f})"


def _require_stable(other: object) -> None:
    """Refuse to mix a reference :class:`CF` into :class:`StableCF` algebra."""
    if not isinstance(other, StableCF):
        raise TypeError(
            f"expected StableCF, got {type(other).__name__}; convert "
            "with .to_stable() before mixing the two classes"
        )


class StableCF:
    """A numerically stable Clustering Feature: ``(n, mean, SSD)``.

    The BETULA representation (Lang & Schubert, SISAP 2020): instead of
    the paper's raw moments ``(N, LS, SS)``, carry the count, the mean
    vector and the *sum of squared deviations from the mean*
    ``SSD = sum_i ||X_i - mean||^2``.  Every statistic BIRCH needs is a
    cancellation-free function of these:

    * centroid = ``mean``;
    * ``R^2 = SSD / n`` (paper eq. (2));
    * ``D^2 = 2 SSD / (n - 1)`` (paper eq. (3));
    * merging two clusters (Chan et al. pairwise update) with
      ``delta = mean_2 - mean_1``::

          n    = n_1 + n_2
          mean = mean_1 + (n_2 / n) * delta
          SSD  = SSD_1 + SSD_2 + (n_1 n_2 / n) * ||delta||^2

    The update additions involve only same-scale non-negative terms, so
    radii and distances keep full relative precision no matter how far
    the data sits from the origin — exactly where the ``(N, LS, SS)``
    triple collapses (see ``tests/core/test_numerics.py``).

    The interface mirrors :class:`CF` (constructors, algebra, derived
    statistics); ``ls``/``ss`` are available as *computed* properties
    for comparisons against the reference algebra.
    """

    __slots__ = ("n", "mean", "ssd")

    def __init__(self, n: float, mean: np.ndarray, ssd: float) -> None:
        if n < 0:
            raise ValueError(f"N must be >= 0, got {n}")
        # Exponential decay scales counts by a fractional factor, so
        # entries carry float mass; integral counts normalise back to
        # int so undecayed trees keep exact integer semantics.
        n = float(n)
        self.n = int(n) if n.is_integer() else n
        self.mean = np.asarray(mean, dtype=np.float64)
        if self.mean.ndim != 1:
            raise ValueError(
                f"mean must be a 1-d vector, got shape {self.mean.shape}"
            )
        # Clamp round-off residue; a genuinely negative SSD is a bug.
        ssd = float(ssd)
        if ssd < 0.0:
            if not math.isfinite(ssd) or ssd < -1e-6 * max(abs(ssd), 1.0):
                raise ValueError(f"SSD must be >= 0, got {ssd}")
            ssd = 0.0
        self.ssd = ssd

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, dimensions: int) -> "StableCF":
        """The identity element of CF addition."""
        return cls(0, np.zeros(dimensions, dtype=np.float64), 0.0)

    @classmethod
    def from_point(cls, point: np.ndarray) -> "StableCF":
        """CF of a single point: ``(1, X, 0)``."""
        point = _validate_point(point)
        return cls(1, point.copy(), 0.0)

    @classmethod
    def from_points(
        cls, points: np.ndarray | Iterable[Iterable[float]]
    ) -> "StableCF":
        """CF of a batch of points given as an ``(n, d)`` array.

        Two-pass: mean first, then deviations — the textbook stable
        formula.
        """
        points = _validate_points(points)
        mean = points.mean(axis=0)
        centered = points - mean
        ssd = float(np.einsum("ij,ij->", centered, centered))
        return cls(points.shape[0], mean, ssd)

    # -- algebra ------------------------------------------------------------

    @property
    def dimensions(self) -> int:
        """Dimensionality ``d`` of the summarised points."""
        return self.mean.shape[0]

    def copy(self) -> "StableCF":
        """An independent copy."""
        return StableCF(self.n, self.mean.copy(), self.ssd)

    def merge(self, other: "StableCF") -> "StableCF":
        """``self + other`` as a new StableCF (pairwise Chan update)."""
        self._check_compatible(other)
        if self.n == 0:
            return other.copy()
        if other.n == 0:
            return self.copy()
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + (other.n / n) * delta
        ssd = self.ssd + other.ssd + (self.n * other.n / n) * float(delta @ delta)
        return StableCF(n, mean, ssd)

    def merge_inplace(self, other: "StableCF") -> None:
        """Absorb ``other`` into this CF."""
        self._check_compatible(other)
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self.mean = other.mean.copy()
            self.ssd = other.ssd
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean = self.mean + (other.n / n) * delta
        self.ssd += other.ssd + (self.n * other.n / n) * float(delta @ delta)
        self.n = n

    def subtract(
        self,
        other: "StableCF",
        *,
        on_clamp: Optional[Callable[[float], None]] = None,
    ) -> "StableCF":
        """``self - other``; valid when ``other`` summarises a subset.

        Inverts the pairwise merge.  Removing most of a cluster is an
        inherently ill-conditioned operation in any representation; a
        *tiny* negative SSD residue (within ``1e-6`` of the minuend's
        scale) is round-off — it is clamped to zero and reported
        through ``on_clamp`` (called with the clamped magnitude).  A
        grossly negative residue means ``other`` was never a subset of
        ``self`` and raises ``ValueError`` instead of minting imaginary
        radius.
        """
        self._check_compatible(other)
        if other.n > self.n:
            raise ValueError(
                f"cannot subtract CF with N={other.n} from CF with N={self.n}"
            )
        n_rest = self.n - other.n
        if n_rest == 0:
            return StableCF.empty(self.dimensions)
        if other.n == 0:
            return self.copy()
        mean_rest = (self.n * self.mean - other.n * other.mean) / n_rest
        delta = other.mean - mean_rest
        ssd_rest = (
            self.ssd - other.ssd - (n_rest * other.n / self.n) * float(delta @ delta)
        )
        if ssd_rest < 0.0:
            if ssd_rest < -_NEGATIVE_RESIDUE_RTOL * max(self.ssd, 1.0):
                raise ValueError(
                    f"CF subtraction yields grossly negative SSD {ssd_rest}; "
                    "the subtrahend does not summarise a subset"
                )
            if on_clamp is not None:
                on_clamp(-ssd_rest)
            ssd_rest = 0.0
        return StableCF(n_rest, mean_rest, ssd_rest)

    def scaled(self, factor: float) -> "StableCF":
        """This cluster with its mass multiplied by ``factor``.

        Uniform exponential decay multiplies every member's weight by
        the same factor, which scales ``n`` and ``SSD`` and leaves the
        mean invariant.  The reference :class:`CF` keeps integral
        counts and has no counterpart.
        """
        if not (math.isfinite(factor) and factor >= 0.0):
            raise ValueError(f"scale factor must be finite and >= 0, got {factor}")
        if factor == 0.0 or self.n == 0:
            return StableCF.empty(self.dimensions)
        return StableCF(self.n * factor, self.mean.copy(), self.ssd * factor)

    def add_point(self, point: np.ndarray) -> None:
        """Absorb a single point in place (Welford's update)."""
        point = _validate_point(point, self.dimensions)
        if self.n == 0:
            self.n = 1
            self.mean = point.copy()
            self.ssd = 0.0
            return
        self.n += 1
        delta = point - self.mean
        self.mean = self.mean + delta / self.n
        self.ssd += float(delta @ (point - self.mean))

    def __add__(self, other: "StableCF") -> "StableCF":
        return self.merge(other)

    def __iadd__(self, other: "StableCF") -> "StableCF":
        self.merge_inplace(other)
        return self

    # -- derived statistics ---------------------------------------------------

    @property
    def centroid(self) -> np.ndarray:
        """Centroid (a copy; equation (1) — here stored directly)."""
        if self.n == 0:
            raise ValueError("centroid of an empty CF is undefined")
        return self.mean.copy()

    @property
    def radius(self) -> float:
        """Radius ``R = sqrt(SSD / n)`` (eq. (2)), cancellation-free."""
        if self.n == 0:
            raise ValueError("radius of an empty CF is undefined")
        return math.sqrt(max(self.ssd, 0.0) / self.n)

    @property
    def diameter(self) -> float:
        """Diameter ``D = sqrt(2 SSD / (n - 1))`` (eq. (3))."""
        if self.n == 0:
            raise ValueError("diameter of an empty CF is undefined")
        if self.n <= 1:
            # A singleton (or a decayed remnant below unit mass) has no
            # pairwise distances; by convention its diameter is 0.
            return 0.0
        return math.sqrt(2.0 * max(self.ssd, 0.0) / (self.n - 1))

    @property
    def sum_squared_deviation(self) -> float:
        """``SSD`` itself — the quantity this representation carries."""
        return max(self.ssd, 0.0)

    # -- (N, LS, SS) views -----------------------------------------------------

    @property
    def ls(self) -> np.ndarray:
        """Linear sum ``LS = n * mean`` (computed, lossy export)."""
        return self.n * self.mean

    @property
    def ss(self) -> float:
        """Square sum ``SS = SSD + n ||mean||^2`` (computed).

        Feeding this back into the ``(N, LS, SS)`` cancellation formulas
        reintroduces the instability this class exists to avoid; use it
        only for comparisons.
        """
        return self.ssd + self.n * float(self.mean @ self.mean)

    def to_stable(self) -> "StableCF":
        """Identity, for symmetry with :meth:`CF.to_stable`."""
        return self.copy()

    # -- comparison -----------------------------------------------------------

    def allclose(
        self, other: "StableCF", rtol: float = 1e-9, atol: float = 1e-9
    ) -> bool:
        """Approximate equality, tolerant of float accumulation order.

        Counts compare approximately too: decayed mass is fractional,
        and ``g * sum(n_i)`` vs ``sum(g * n_i)`` differ in the last
        ulp.  Integral counts still compare exactly under any sane
        tolerance (distinct integers are never within ``1e-9``).  CFs of
        different dimensions are never close; a reference
        :class:`CF` raises ``TypeError``, as in :meth:`merge`.
        """
        _require_stable(other)
        return (
            self.dimensions == other.dimensions
            and math.isclose(self.n, other.n, rel_tol=rtol, abs_tol=atol)
            and np.allclose(self.mean, other.mean, rtol=rtol, atol=atol)
            and math.isclose(self.ssd, other.ssd, rel_tol=rtol, abs_tol=atol)
        )

    def _check_compatible(self, other: "StableCF") -> None:
        _require_stable(other)
        if self.dimensions != other.dimensions:
            raise ValueError(
                f"dimension mismatch: {self.dimensions} vs {other.dimensions}"
            )

    def __repr__(self) -> str:
        mean_repr = np.array2string(self.mean, precision=3)
        return f"StableCF(n={self.n}, mean={mean_repr}, ssd={self.ssd:.3f})"


def as_stable(cf: CF | StableCF) -> StableCF:
    """``cf`` itself if it is a :class:`StableCF`, else its conversion.

    The one place a reference :class:`CF` handed to the tree becomes
    the stored representation (see :meth:`CF.to_stable`).
    """
    return cf if isinstance(cf, StableCF) else cf.to_stable()


def cf_row(cf: CF | StableCF) -> tuple[float, np.ndarray, float]:
    """``cf`` as the raw ``(n, mean, SSD)`` row a tree node stores.

    A :class:`StableCF` gives its own arrays, not copies.
    """
    cf = as_stable(cf)
    return cf.n, cf.mean, cf.ssd


def row_cf(n: float, vec: np.ndarray, sq: float) -> StableCF:
    """The inverse of :func:`cf_row`: a raw row as a :class:`StableCF`.

    The vector is copied.  The raw float count is kept (decayed entries
    carry fractional mass; :class:`StableCF` normalises integral counts
    back to int).
    """
    return StableCF(float(n), vec.copy(), float(sq))


def point_rows(
    points: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch of points as raw ``(ns, means, SSDs)`` rows.

    A point of integer weight ``w`` (default 1) is ``w`` coincident
    points, the row ``(w, x, 0)``.  The rows share ``points`` as their
    means.
    """
    m = points.shape[0]
    ns = np.ones(m) if weights is None else weights.astype(np.float64)
    return ns, points, np.zeros(m)


def _validate_point(point: np.ndarray, dimensions: int | None = None) -> np.ndarray:
    """Coerce ``point`` to a float64 d-vector, with a clear error."""
    point = np.asarray(point, dtype=np.float64)
    if point.ndim != 1 or point.shape[0] == 0:
        raise ValueError(
            f"point must be a non-empty 1-d vector, got shape {point.shape}"
        )
    if dimensions is not None and point.shape[0] != dimensions:
        raise ValueError(
            f"point has {point.shape[0]} dimensions, CF has {dimensions}"
        )
    return point


def _validate_points(
    points: np.ndarray | Iterable[Iterable[float]],
) -> np.ndarray:
    """Coerce ``points`` to a non-empty ``(n, d)`` float64 array."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        if points.shape[0] == 0:
            raise ValueError("cannot build a CF from zero points")
        points = points.reshape(1, -1)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-d, got shape {points.shape}")
    if points.shape[0] == 0:
        raise ValueError("cannot build a CF from zero points")
    if points.shape[1] == 0:
        raise ValueError("points must have at least one dimension")
    return points
