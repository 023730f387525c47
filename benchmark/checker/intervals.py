"""Integer interval merging: closed intervals [lo, hi] with int64 ends."""

from __future__ import annotations

import numpy as np


def merge(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint sorted union of closed intervals; touching ones are joined."""
    lo = np.asarray(lo, dtype=np.int64).reshape(-1)
    hi = np.asarray(hi, dtype=np.int64).reshape(-1)
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    new_block = np.ones(lo.size, dtype=bool)
    new_block[1:] = lo[1:] > reach[:-1]
    starts = np.flatnonzero(new_block)
    ends = np.append(starts[1:], lo.size) - 1
    return lo[starts], reach[ends]


def sum_union(points, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Merged union of p + [lo_i, hi_i] over points p and intervals i."""
    p = np.asarray(points, dtype=np.int64).reshape(-1, 1)
    lo = np.asarray(lo, dtype=np.int64).reshape(1, -1)
    hi = np.asarray(hi, dtype=np.int64).reshape(1, -1)
    return merge((p + lo).reshape(-1), (p + hi).reshape(-1))


def covers(m_lo: np.ndarray, m_hi: np.ndarray, a: int, b: int) -> bool:
    """[a, b] inside a merged union."""
    i = int(np.searchsorted(m_lo, a, side="right")) - 1
    return i >= 0 and int(m_hi[i]) >= b


def inside(lo, hi, m_lo: np.ndarray, m_hi: np.ndarray) -> bool:
    """Every interval [lo_i, hi_i] lies inside the merged union."""
    return all(covers(m_lo, m_hi, int(a), int(b)) for a, b in zip(lo, hi))


def length(m_lo: np.ndarray, m_hi: np.ndarray) -> int:
    return int((m_hi - m_lo).sum())
