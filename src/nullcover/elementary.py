"""Exact 1-d interval bookkeeping and packed keys for dyadic cells.

Rational intervals merge in `Fraction` (`merge_intervals`); nothing here
touches floating point.  Dimension one gets one exact int64 kernel for
"points + intervals, merged" (`merge_int`, `points_plus`, `first_gap`,
`covered_measure`) and the directed Hausdorff excess of one merged union
over another (`twice_excess`), on which the construction engine and the
greedy cover run; `IntervalAccumulator` is the one-interval-at-a-time
reference of the first.  Higher dimensions only need disjoint-cell unions,
which the covering and fractal modules keep as integer cell sets, sorted
and deduplicated on packed int64 keys (`cell_keys`, `unique_cells`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable

import numpy as np


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def json_int(data, key: str, lo: int, hi: float, error: type) -> int:
    """data[key] of a parsed JSON object, which must be an int in [lo, hi];
    `error` otherwise.  JSON true and false, floats and strings are no ints."""
    value = data.get(key) if isinstance(data, dict) else None
    if type(value) is not int or not lo <= value <= hi:
        raise error(f"{key} must be an integer in [{lo}, {hi}], not {value!r:.40}")
    return value


def merge_intervals(intervals: Iterable[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Sorted disjoint closure of a list of closed intervals; empty ones drop."""
    ivs = sorted((frac(a), frac(b)) for a, b in intervals if b > a)
    out: list[tuple[Fraction, Fraction]] = []
    for a, b in ivs:
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def merge_int(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Sorted disjoint union of the closed intervals [lo_i, hi_i] (int64
    arrays) as (starts, ends); empty ones drop and touching ones join.

    Sort the starts, take a running max of the ends, and split wherever a
    start exceeds the running max of everything before it.  Callers keep
    every value well inside int64 (the engine's frame stays below 2^60), so
    no sum here or in `points_plus` wraps.
    """
    lo = np.asarray(lo, dtype=np.int64).reshape(-1)
    hi = np.asarray(hi, dtype=np.int64).reshape(-1)
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    reach = np.maximum.accumulate(hi[order])
    split = np.flatnonzero(lo[1:] > reach[:-1]) + 1
    return lo[np.concatenate(([0], split))], reach[np.concatenate((split - 1, [lo.size - 1]))]


def points_plus(points, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Merged union of points + [lo_k, hi_k] over every point and interval."""
    p = np.asarray(points, dtype=np.int64).reshape(-1, 1)
    return merge_int(p + np.asarray(lo, dtype=np.int64), p + np.asarray(hi, dtype=np.int64))


def first_gap(starts: np.ndarray, ends: np.ndarray, a: int, b: int):
    """Leftmost point of [a, b] not covered by a merged union, or None."""
    i = int(np.searchsorted(starts, a, side="right")) - 1
    cur = max(a, int(ends[i])) if i >= 0 else a
    return None if cur >= b else cur


def covered_measure(starts: np.ndarray, ends: np.ndarray, a, b) -> np.ndarray:
    """Covered measure of each [a, b] (int64 arrays, b >= a) under a merged union."""

    def below(x):  # measure of the union left of x
        i = np.searchsorted(starts, x, side="right")
        prev = np.maximum(i - 1, 0)
        part = np.clip(x - starts[prev], 0, ends[prev] - starts[prev])
        return np.where(i > 0, cum[prev] + part, 0)

    if starts.size == 0:
        return np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(ends - starts)[:-1]))
    return below(b) - below(a)


def twice_excess(u: tuple[np.ndarray, np.ndarray], v: tuple[np.ndarray, np.ndarray]) -> int:
    """2 sup_{x in U} dist(x, V) for nonempty merged unions U and V, each
    (starts, ends): twice the directed Hausdorff excess of U over V.

    On U, dist(., V) peaks at an endpoint of U or at the midpoint of a gap
    of V inside U.  Every coordinate is doubled, so those midpoints are
    integers; with frame values below 2^60 no difference wraps.
    """
    u_lo, u_hi = 2 * u[0], 2 * u[1]
    v_lo, v_hi = 2 * v[0], 2 * v[1]
    mids = v[1][:-1] + v[0][1:]  # doubled gap midpoints of V
    k = np.searchsorted(u_lo, mids, side="right") - 1  # the U interval starting at or left of each
    x = np.concatenate((u_lo, u_hi, mids[(k >= 0) & (mids <= u_hi[k])]))
    i = np.searchsorted(v_lo, x, side="right")  # V[i - 1] is the last to start at or before x
    left = x - v_hi[np.maximum(i - 1, 0)]
    right = v_lo[np.minimum(i, v_lo.size - 1)] - x
    d = np.where(i == 0, right, np.where(i == v_lo.size, left, np.minimum(left, right)))
    return int(np.max(d, initial=0))


def cell_keys(cells: np.ndarray, bits: int) -> np.ndarray:
    """One int64 key per row of (n, d) integer cells in [0, 2^bits)^d, with
    coordinate 0 most significant, so that sorting keys sorts the rows
    lexicographically.  Needs d * bits <= 62; callers check it."""
    keys = np.zeros(cells.shape[0], dtype=np.int64)
    for col in cells.T:
        keys = (keys << bits) | col
    return keys


def key_cells(keys: np.ndarray, d: int, bits: int) -> np.ndarray:
    """The (n, d) cells of packed keys: the inverse of `cell_keys`."""
    mask = (1 << bits) - 1
    return np.stack([(keys >> (bits * (d - 1 - i))) & mask for i in range(d)], axis=1)


def unique_cells(cells: np.ndarray, bits: int, lo: int = 0) -> np.ndarray:
    """The distinct rows of (n, d) integer cells in [lo, lo + 2^bits)^d, sorted
    lexicographically, as `np.unique(cells, axis=0)` gives them: their packed
    keys are sorted and each key unequal to its left neighbour is kept.  A sort
    and a compare beat numpy's hash-based `np.unique`, and import no `numpy.ma`."""
    keys = np.sort(cell_keys(cells - lo, bits))
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return key_cells(keys[first], cells.shape[1], bits) + lo


class IntervalAccumulator:
    """Growing union of closed intervals, one insertion at a time: the
    reference the int64 kernel above is tested against."""

    def __init__(self):
        self.starts: list[Fraction] = []
        self.ends: list[Fraction] = []

    def add(self, a: Fraction, b: Fraction):
        if b <= a:
            return
        i = bisect_left(self.starts, a)
        # merge with predecessor if it reaches a
        if i > 0 and self.ends[i - 1] >= a:
            i -= 1
            a = self.starts[i]
            b = max(b, self.ends[i])
            del self.starts[i], self.ends[i]
        j = i
        while j < len(self.starts) and self.starts[j] <= b:
            b = max(b, self.ends[j])
            j += 1
        del self.starts[i:j], self.ends[i:j]
        self.starts.insert(i, a)
        self.ends.insert(i, b)

    def first_gap(self, a: Fraction, b: Fraction):
        """Leftmost point of [a, b] not covered, or None if fully covered."""
        cur = a
        i = bisect_right(self.starts, cur) - 1
        if i >= 0 and self.ends[i] > cur:
            cur = self.ends[i]
        if cur >= b:
            return None
        i += 1
        while i < len(self.starts) and self.starts[i] <= cur:
            cur = max(cur, self.ends[i])
            if cur >= b:
                return None
            i += 1
        return cur

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        return list(zip(self.starts, self.ends))

    def measure(self) -> Fraction:
        return sum((e - s for s, e in zip(self.starts, self.ends)), Fraction(0))

    def covered_measure(self, a, b):
        """Measure of [a, b] already covered."""
        if b <= a:
            return 0
        i = max(bisect_right(self.starts, a) - 1, 0)
        total = 0
        while i < len(self.starts) and self.starts[i] < b:
            lo = self.starts[i] if self.starts[i] > a else a
            hi = self.ends[i] if self.ends[i] < b else b
            if hi > lo:
                total += hi - lo
            i += 1
        return total
