"""Exact 1-d interval bookkeeping, the greedy piece cover, and packed keys
for dyadic cells.

Rational intervals merge in `Fraction` (`merge_intervals`); nothing here
touches floating point.  Dimension one gets one exact int64 kernel for
"points + intervals, merged" (`merge_int`, `points_plus`, `first_gap`, and
the uncovered measure left of a point, `left_index` and `uncovered_left`,
under `covered_measure`) and the directed Hausdorff excess of one merged
union over another (`twice_excess`).  The recursive-rectangles engine runs
on these kernels, and so does `greedy_piece_cover`, the piece builder of
its steps, which lives here so that an rrp run loads no other module of the
package; `IntervalAccumulator` is the one-interval-at-a-time reference of
the first kernel.  Higher dimensions only need disjoint-cell unions, which
the covering and fractal modules keep as integer cell sets, sorted and
deduplicated on packed int64 keys (`cell_keys`, `unique_cells`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

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
    cut = np.flatnonzero(lo[1:] > reach[:-1])  # interval cut ends, cut + 1 starts
    return np.concatenate((lo[:1], lo[cut + 1])), np.concatenate((reach[cut], reach[-1:]))


def points_plus(points, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Merged union of points + [lo_k, hi_k] over every point and interval."""
    p = np.asarray(points, dtype=np.int64).reshape(-1, 1)
    return merge_int(p + np.asarray(lo, dtype=np.int64), p + np.asarray(hi, dtype=np.int64))


def first_gap(starts: np.ndarray, ends: np.ndarray, a: int, b: int):
    """Leftmost point of [a, b] not covered by a merged union, or None."""
    i = int(np.searchsorted(starts, a, side="right")) - 1
    cur = max(a, int(ends[i])) if i >= 0 else a
    return None if cur >= b else cur


_FLOOR = -(1 << 63)  # below every frame value


def left_index(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, tops, sums) of a merged union, for `uncovered_left`: tops[i]
    is the end of interval i - 1 (tops[0] is _FLOOR) and
    sums[i] the measure of intervals 0 .. i - 1."""
    tops = np.concatenate(([_FLOOR], ends))
    sums = np.concatenate(([0], np.cumsum(ends - starts)))
    return starts, tops, sums


def uncovered_left(index, x) -> np.ndarray:
    """F(x) = x - (covered measure left of x) for each x (int64), under a
    merged union given by its `left_index`; F(b) - F(a) is the uncovered
    measure of [a, b].  With i the number of starts at or left of x, the
    covered part is sums[i] less what interval i - 1 reaches past x, so
    F(x) = max(x, tops[i]) - sums[i]."""
    starts, tops, sums = index
    i = starts.searchsorted(x, side="right")
    return np.maximum(x, tops.take(i)) - sums.take(i)


def covered_measure(starts: np.ndarray, ends: np.ndarray, a, b) -> np.ndarray:
    """Covered measure of each [a, b] (int64 arrays, b >= a) under a merged union."""
    index = left_index(starts, ends)
    return (b - a) - (uncovered_left(index, b) - uncovered_left(index, a))


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


# ---------------------------------------------------------------------------
# greedy piece cover (d = 1)


class CoverError(ValueError):
    pass


N_CANDIDATES = 48  # witnesses tried per uncovered point
PROBE_STRIDE = 4  # every 4th point is a probe translate


def greedy_piece_cover(
    members: Sequence[tuple[np.ndarray, np.ndarray]],
    piece_w: int,
    allowed_lo: int,
    allowed_hi: int,
    budget: int,
) -> list[tuple[int, int]]:
    """Deterministic greedy cover with width-`piece_w` pieces at exact witness
    offsets: every member's target ends up inside points + union(T).

    A member is (points sorted ascending, targets), the targets an (n, 2)
    array of (lo, hi) rows.  At each uncovered point u the candidate anchors
    are u - x for N_CANDIDATES witnesses x picked across the whole
    window-admissible range; the anchor whose piece is fresh for the most
    probe translates (every PROBE_STRIDE-th point) wins (ties to the
    smallest anchor).  Anchoring at exact offsets lets self-similar point
    sets reuse pieces heavily, which is what keeps the measure near the
    structural optimum.  `budget` bounds the merged measure of T (same
    integer frame), checked after every piece; CoverError when exceeded.

    A member that is a translate (points + c, target + c) of a member already
    walked is skipped: once (points, target) is walked, target lies inside
    points + union(T), and pieces are only ever added, so the translate is
    covered too and its walk would add nothing.  The engine passes one map
    per scale, so the translates left are those between anchors: windows of
    a self-similar point set repeat, and so do their members.
    """
    offs: list[int] = []  # the chosen offsets, sorted
    measure = 0  # merged measure of union(T)
    walked: set[tuple[int, bytes]] = set()
    for mi, (pts, targets) in enumerate(members):
        pts, targets = np.asarray(pts, dtype=np.int64), np.asarray(targets, dtype=np.int64)
        if pts.size == 0:
            raise CoverError(f"member {mi} has no points")
        # points and target relative to the first point; the size splits the two
        key = (pts.size, (np.concatenate((pts, targets.ravel())) - pts[0]).tobytes())
        if key in walked:
            continue
        walked.add(key)
        plist, probes = pts.tolist(), pts[::PROBE_STRIDE]
        taken = np.array(offs, dtype=np.int64)
        union = left_index(*points_plus(pts, taken, taken + piece_w))
        # a target covered now stays covered, so only the open ones are walked
        f_lo, f_hi = uncovered_left(union, targets.T)
        for lo, hi in targets[f_hi > f_lo].tolist():
            while True:
                u = first_gap(union[0], union[1][1:], lo, hi)  # tops[1:] are the ends
                if u is None:
                    break
                # witnesses x whose offset u - x keeps the piece inside the
                # allowed window: w0 <= index < w1
                w0 = bisect_left(plist, u - (allowed_hi - piece_w))
                w1 = bisect_right(plist, u - allowed_lo)
                if w1 <= w0:
                    raise CoverError(
                        f"cannot cover member {mi} at {u} within the allowed window"
                    )
                iu = bisect_right(plist, u)
                cand = set(range(max(w0, iu - N_CANDIDATES // 2), min(w1, iu + 8)))
                if len(cand) < N_CANDIDATES:
                    stride = max(1, (w1 - w0) // (N_CANDIDATES - len(cand) + 1))
                    cand.update(range(w0, w1, stride))
                # ascending offsets; u is a gap of pts + union(T), so none is taken
                o = u - pts[sorted(cand, reverse=True)]
                # fresh measure each piece would add across probe translates:
                # F(q1) - F(q0) on its part [q0, q1] of the target, or 0 where
                # that part is empty; the largest total wins, ties to the
                # smallest offset (argmax takes the first)
                q = np.empty((2, o.size, probes.size), dtype=np.int64)
                np.add.outer(o, probes, out=q[0])
                np.add(q[0], piece_w, out=q[1])
                np.maximum(q[0], lo, out=q[0])
                np.minimum(q[1], hi, out=q[1])
                f = uncovered_left(union, q)
                fresh = np.maximum(f[1] - f[0], 0)
                best = int(o[fresh.sum(axis=1).argmax()])
                union = _extend(union, pts, best, best + piece_w)
                measure += _insert_offset(offs, best, piece_w)
                if measure > budget:
                    raise CoverError(f"greedy piece cover exceeded the budget {budget}")
    return [(o, o + piece_w) for o in offs]


def _extend(index, pts: np.ndarray, lo: int, hi: int):
    """The `left_index` of a merged union, given by its own, grown by pts + [lo, hi]."""
    starts, tops, _ = index
    return left_index(*merge_int(np.concatenate((starts, pts + lo)), np.concatenate((tops[1:], pts + hi))))


def _insert_offset(offs: list[int], b: int, w: int) -> int:
    """Insert the new offset b into the sorted offsets of width-w pieces and
    return how much their merged measure grows.  That measure is the sum of
    min(w, next - cur) over the offsets, the last one counting w, so b adds
    its two terms and removes the one of the pair (pred, succ) it splits; a
    missing neighbour counts w."""
    i = bisect_left(offs, b)
    left = min(w, b - offs[i - 1]) if i else w
    right = min(w, offs[i] - b) if i < len(offs) else w
    split = min(w, offs[i] - offs[i - 1]) if 0 < i < len(offs) else w
    offs.insert(i, b)
    return left + right - split


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
