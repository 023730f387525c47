"""Dyadic-resolution fractal models: covering/packing counts, gauge content,
largeness certificates, and a logarithmic-dimension estimator.

A `DyadicCubeSet` is the level-k rasterization of a compact set in [0,1]^d:
the integer cells of side 2^-k meeting it.  Generators (digit rules, sparse
scale schedules) keep their exact rational boxes as metadata so covering
numbers against non-dyadic grids (e.g. base-3) can be counted exactly.

Grid conventions: covering numbers count aligned grid cells overlapping the
set with positive measure (not mere boundary contact); this differs from the
minimal ball-covering number only by dimensional constants, which every
downstream threshold absorbs explicitly (the certificates repeat the 5^d
constant they rely on).  The gauge content is the exact optimum over covers
by dyadic cubes, computed bottom-up on the occupied cube tree.

Cells and the cubes above them are packed int64 keys (`elementary.cell_keys`),
so a set has d * k <= 62.

`hausdorff_distance` is the exact distance of finite point sets.  The
directed excess of 1-d interval unions that the construction engine
certifies is `elementary.twice_excess`, on the engine's int64 frame, so no
construction or trace check imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from nullcover.elementary import cell_keys, frac, key_cells, unique_cells


class FractalError(ValueError):
    pass


@dataclass
class DyadicCubeSet:
    """Occupied cells of the level-k dyadic grid on [0,1]^d, d * k <= 62."""

    d: int
    k: int
    cells: np.ndarray  # (n, d) int64, deduplicated, lexicographically sorted
    generator: Optional[dict] = None

    def __post_init__(self):
        if self.d * self.k > 62:  # a cell is one int64 key of d * k bits
            raise FractalError(f"d * k = {self.d * self.k} exceeds 62 bits of one int64 cell key")
        cells = np.asarray(self.cells, dtype=np.int64).reshape(-1, self.d)
        if cells.size:
            if cells.min() < 0 or cells.max() >= (1 << self.k):
                raise FractalError("cells outside [0, 2^k)^d")
            cells = unique_cells(cells, self.k)
        self.cells = cells

    @property
    def size(self) -> int:
        return int(self.cells.shape[0])

    def cells_at_level(self, j: int) -> np.ndarray:
        """Occupied cells of D_j (j <= k): unique prefixes."""
        if j > self.k:
            raise FractalError(f"level {j} below resolution {self.k}")
        return unique_cells(self.cells >> (self.k - j), j)

    def exact_boxes(self) -> Optional[list]:
        if self.generator and "boxes" in self.generator:
            return [
                tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
                for box in self.generator["boxes"]
            ]
        return None

    def to_json_dict(self) -> dict:
        out = {"d": self.d, "k": self.k, "cells": self.cells.tolist()}
        if self.generator is not None:
            out["generator"] = self.generator
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "DyadicCubeSet":
        return cls(d=int(data["d"]), k=int(data["k"]), cells=data["cells"], generator=data.get("generator"))


@dataclass(frozen=True)
class GaugeFunction:
    """Gauge phi on (0, 1]: power x^alpha, log-power log^-s(1/x), or tabulated.

    Tabulated gauges are right-continuous nondecreasing step functions given
    by breakpoints [(x_i, v_i)] with phi(x) = v_i for x in [x_i, x_{i+1}).
    Log-power gauges are only defined for x <= 1/2 (phi blows up at 1);
    evaluating one on a larger scale raises, which callers surface as the
    "gauge invalid on needed scales" error.
    """

    kind: str  # "power" | "log_power" | "tabulated"
    alpha: Optional[float] = None
    s: Optional[float] = None
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "power":
            if self.alpha is None or self.alpha <= 0:
                raise FractalError("power gauge needs alpha > 0")
        elif self.kind == "log_power":
            if self.s is None or self.s <= 0:
                raise FractalError("log-power gauge needs s > 0")
        elif self.kind == "tabulated":
            if not self.table:
                raise FractalError("tabulated gauge needs breakpoints")
            xs = [frac(x) for x, _ in self.table]
            vs = [float(v) for _, v in self.table]
            if any(b <= a for a, b in zip(xs, xs[1:])) or any(v2 < v1 for v1, v2 in zip(vs, vs[1:])):
                raise FractalError("tabulated gauge must be increasing")
            if min(vs) <= 0:
                raise FractalError("gauge must be positive on (0, 1]")
        else:
            raise FractalError(f"unknown gauge kind {self.kind}")

    @classmethod
    def power(cls, alpha) -> "GaugeFunction":
        return cls(kind="power", alpha=float(alpha))

    @classmethod
    def log_power(cls, s) -> "GaugeFunction":
        return cls(kind="log_power", s=float(s))

    def __call__(self, x) -> float:
        x = float(x)
        if x <= 0:
            return 0.0
        if self.kind == "power":
            return x**self.alpha
        if self.kind == "log_power":
            if x > 0.5:
                raise FractalError(f"log-power gauge undefined at scale {x} > 1/2")
            return math.log(1.0 / x) ** (-self.s)
        v = None
        for xi, vi in self.table:
            if x >= float(frac(xi)):
                v = float(vi)
            else:
                break
        if v is None:
            v = float(self.table[0][1])  # below the first breakpoint: smallest value
        return v

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha, "s": self.s, "table": self.table}


# ---------------------------------------------------------------------------
# generators


def _digit_boxes(base: int, digits_per_axis: Sequence[Sequence[int]], depth: int) -> list[list[int]]:
    """Exact level-`depth` boxes of a base-b digit restriction: per axis, the
    numerators n of the intervals [n, n + 1] / b^depth, in digit order (the
    first digit outermost)."""
    axes = []
    for digits in digits_per_axis:
        starts = [0]
        for _ in range(depth):
            starts = [n * base + dig for n in starts for dig in digits]
        axes.append(starts)
    return axes


def _rasterize_boxes(axes: list[list[int]], scale: int, k: int) -> np.ndarray:
    """Dyadic level-k cells overlapping with positive measure a box whose
    sides are the per-axis intervals [n, n + 1] / scale, every combination."""
    ranges = []
    for starts in axes:
        hit = set()
        for n in starts:
            # cells j with j 2^-k < (n + 1) / scale and (j + 1) 2^-k > n / scale
            hit.update(range(max((n << k) // scale, 0), min(-(-((n + 1) << k) // scale), 1 << k)))
        ranges.append(np.array(sorted(hit), dtype=np.int64))
    return np.stack([g.reshape(-1) for g in np.meshgrid(*ranges, indexing="ij")], axis=1)


def generate_cantor(rule: dict, depth: int, max_cells: int = 1 << 22) -> DyadicCubeSet:
    """Deterministic Cantor-like test sets.

    rule = {"kind": "digits", "base": b, "digits": [per-axis digit lists]} keeps
    the base-b cells with the allowed digits for `depth` levels and rasterizes
    to the finest dyadic grid at least as fine as b^-depth.

    rule = {"kind": "sparse", "schedule": [(N_k, g_k)]} keeps N_k cells in
    total at resolution 2^-g_k, evenly strided within the kept cells of the
    previous scale (`depth` caps how many schedule entries are used).
    """
    if rule.get("kind") == "digits":
        base = int(rule["base"])
        digits = rule["digits"]
        if len(digits) == 0:
            raise FractalError("empty digit set")
        if isinstance(digits[0], int):
            digits = [digits]
        if any(len(ds) == 0 for ds in digits):
            raise FractalError("empty digit set")
        if base < 2 or depth < 0 or any(not 0 <= dig < base for ds in digits for dig in ds):
            raise FractalError(f"need base >= 2, depth >= 0 and digits in [0, base): "
                               f"base {base}, depth {depth}, digits {digits}")
        d = len(digits)
        n_boxes = 1
        for ds in digits:
            n_boxes *= len(ds) ** depth
        if n_boxes > max_cells:
            raise FractalError("depth cap exceeded")
        axes = _digit_boxes(base, digits, depth)
        scale = base**depth
        if (base & (base - 1)) == 0:
            k = depth * (base.bit_length() - 1)
        else:
            k = max(1, (scale - 1).bit_length())  # the least k >= 1 with 2^-k <= base^-depth
        boxes = [[]]
        for starts in axes:
            sides = [(str(Fraction(n, scale)), str(Fraction(n + 1, scale))) for n in starts]
            boxes = [box + [[lo, hi]] for box in boxes for lo, hi in sides]
        gen = {
            "kind": "digits",
            "base": base,
            "digits": [list(ds) for ds in digits],
            "depth": depth,
            "boxes": boxes,
        }
        cells = _rasterize_boxes(axes, scale, k)
        return DyadicCubeSet(d=d, k=k, cells=cells, generator=gen)
    if rule.get("kind") == "sparse":
        sched = rule["schedule"][:depth]
        d = int(rule.get("d", 1))
        cells = np.zeros((1, d), dtype=np.int64)
        g_prev = 0
        for n_keep, g in sched:
            n_keep, g = int(n_keep), int(g)
            if g <= g_prev:
                raise FractalError("schedule resolutions must increase")
            factor = 1 << (g - g_prev)
            # refine every kept cell, then stride-select n_keep cells in total
            sub = np.array(
                np.meshgrid(*([range(factor)] * d), indexing="ij"), dtype=np.int64
            ).reshape(d, -1).T
            all_fine = (cells[:, None, :] * factor + sub[None, :, :]).reshape(-1, d)
            total = all_fine.shape[0]
            if n_keep > total:
                raise FractalError(f"cannot keep {n_keep} of {total} cells")
            order = np.lexsort(all_fine.T[::-1])
            all_fine = all_fine[order]
            pick = (np.arange(n_keep, dtype=np.int64) * total) // n_keep
            cells = all_fine[pick]
            g_prev = g
        gen = {"kind": "sparse", "schedule": [[int(n), int(g)] for n, g in sched], "d": d}
        return DyadicCubeSet(d=d, k=g_prev, cells=cells, generator=gen)
    raise FractalError(f"unknown rule kind {rule.get('kind')}")


# ---------------------------------------------------------------------------
# counting


def covering_number(A: DyadicCubeSet, delta) -> int:
    """Number of side-delta aligned grid cells overlapping A (positive measure).

    Uses the generator's exact rational boxes when available (so base-3 grids
    are counted exactly); otherwise counts against the raster cells.
    """
    delta = frac(delta)
    if delta < Fraction(1, 1 << A.k):
        raise FractalError(f"delta {delta} below the set resolution 2^-{A.k}")
    if A.size == 0:
        return 0
    boxes = A.exact_boxes()
    if boxes is None:
        w = Fraction(1, 1 << A.k)
        boxes = [tuple((c * w, (c + 1) * w) for c in row) for row in A.cells.tolist()]
    hit = set()
    for box in boxes:
        ranges = []
        for lo, hi in box:
            # cells j with j*delta < hi and (j+1)*delta > lo
            j_start = math.floor(lo / delta)
            j_end = math.ceil(hi / delta) - 1
            ranges.append(range(j_start, j_end + 1))
        stack = [()]
        for r in ranges:
            stack = [s + (j,) for s in stack for j in r]
        hit.update(stack)
    return len(hit)


def packing_number_greedy(points, delta) -> int:
    """Greedy maximal packing count: radius-delta sup-norm balls centered in
    the point set, scanned in lexicographic order; balls must be disjoint
    (centers strictly more than 2*delta apart)."""
    pts = [tuple(frac(x) for x in p) for p in points]
    pts.sort()
    delta = frac(delta)
    accepted = []
    for p in pts:
        ok = True
        for q in accepted:
            if max(abs(a - b) for a, b in zip(p, q)) <= 2 * delta:
                ok = False
                break
        if ok:
            accepted.append(p)
    return len(accepted)


# ---------------------------------------------------------------------------
# gauge content on the cube tree


def hausdorff_content_dyadic(A: DyadicCubeSet, phi: GaugeFunction, delta) -> float:
    """Exact optimum of sum phi(side) over dyadic covers with side <= delta.

    One bottom-up pass over the occupied cube tree (`_node_costs`): a cell at
    the raster resolution costs phi(2^-k), a cube at level j costs
    min(phi(2^-j), sum of its children's costs), and the content is the sum
    of the costs at the top level j_top, the coarsest with 2^-j_top <= delta.
    Cubes are packed int64 keys, hence the d * k <= 62 bound of
    `DyadicCubeSet`.
    """
    delta = frac(delta)
    if delta <= 0:
        raise FractalError(f"delta must be positive, got {delta}")
    if A.size == 0:
        return 0.0
    j_top = (-(-delta.denominator // delta.numerator) - 1).bit_length()  # least j with 2^-j <= delta
    if j_top > A.k:
        raise FractalError(f"delta {delta} below resolution 2^-{A.k}")
    # Python's sum adds left to right; np.sum's pairwise order would change the last bit
    return sum(_node_costs(A, phi, j_top)[0][1].tolist())


def _node_costs(A: DyadicCubeSet, phi: GaugeFunction, j_top: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(sorted cube keys, cube costs) of the occupied tree at every level from
    j_top (entry 0) down to k.

    Going up a level, each cube's parent key is found and the children's
    costs are added with `np.bincount`, in key order starting from 0.0, so
    every cost is the same float a per-node recursion over lexicographically
    sorted children would give.
    """
    k, d = A.k, A.d
    keys = cell_keys(A.cells, k)
    costs = np.full(keys.size, phi(Fraction(1, 1 << k)))
    table = [(keys, costs)]
    for j in range(k - 1, j_top - 1, -1):
        keys, parent = np.unique(cell_keys(key_cells(keys, d, j + 1) >> 1, j), return_inverse=True)
        costs = np.minimum(phi(Fraction(1, 1 << j)), np.bincount(parent, weights=costs))
        table.append((keys, costs))
    return table[::-1]


# ---------------------------------------------------------------------------
# Hausdorff distance (exact)


def hausdorff_distance(K1, K2):
    """Exact sup-norm Hausdorff distance between nonempty point sets."""
    if len(K1) == 0 or len(K2) == 0:
        raise FractalError("Hausdorff distance needs nonempty sets")
    P1 = [tuple(frac(x) for x in (p if isinstance(p, (tuple, list, np.ndarray)) else (p,))) for p in K1]
    P2 = [tuple(frac(x) for x in (p if isinstance(p, (tuple, list, np.ndarray)) else (p,))) for p in K2]

    def directed(A, B):
        worst = Fraction(0)
        for a in A:
            best = None
            for b in B:
                dist = max(abs(x - y) for x, y in zip(a, b))
                if best is None or dist < best:
                    best = dist
            worst = max(worst, best)
        return worst

    return max(directed(P1, P2), directed(P2, P1))


# ---------------------------------------------------------------------------
# uniform largeness certificates


@dataclass
class LargenessCertificate:
    eta: float
    phi: dict
    schedule: list  # [(k, delta_k, N_k)]
    per_cube_counts: dict  # level -> list of (cube tuple, count)
    pruned_levels: int
    passed: bool
    notes: str

    def to_json_dict(self) -> dict:
        return {
            "schema": "nullcover/1",
            "kind": "largeness",
            "eta": self.eta,
            "phi": self.phi,
            "schedule": [[k, str(dk), nk] for k, dk, nk in self.schedule],
            "per_cube_counts": {
                str(k): [[list(c), n] for c, n in v] for k, v in self.per_cube_counts.items()
            },
            "pruned_levels": self.pruned_levels,
            "passed": self.passed,
            "notes": self.notes,
        }


def uniform_large_subset(
    A: DyadicCubeSet, phi: GaugeFunction, eta: float, delta_schedule: Sequence
) -> tuple[DyadicCubeSet, list, LargenessCertificate]:
    """Iterative pruning: keep level-(k+1) cubes whose restricted content
    exceeds eta_{k+1} = 2^{-3(k+1)d} eta; certify |A' cap Q|_{delta_k} >= N_k
    with N_k = eta / (2^{3kd+1} phi(delta_k)) for all retained cubes.

    delta_schedule[k] is delta_k for pruning level k (index 0 = level 1's
    parent counts at level 0); entries below the raster resolution are
    rejected, and so is an eta that is not finite and positive.  The decay
    hypothesis (2^{3kd+1} phi(delta_k) decreasing toward zero) is checked on
    the finite schedule.

    Every restricted content comes from one bottom-up pass over A's cube
    tree (`_node_costs`, so d * k <= 62): pruning removes whole cubes, so
    the tree under a kept cube, and with it the cube's cost, is what it was
    in A.  Pruning is a boolean mask over A's cells.
    """
    if not (math.isfinite(eta) and eta > 0):
        raise FractalError(f"eta must be finite and positive, got {eta}")
    d, k = A.d, A.k
    deltas = [frac(x) for x in delta_schedule]
    for dk in deltas:
        if dk < Fraction(1, 1 << k):
            raise FractalError(f"schedule scale {dk} below resolution 2^-{k}")
    hyp = [2.0 ** (3 * lvl * d + 1) * phi(deltas[lvl]) for lvl in range(len(deltas))]
    bad = [lvl for lvl in range(1, len(hyp)) if hyp[lvl] >= hyp[lvl - 1]]
    if bad:
        raise FractalError(f"decay hypothesis fails at schedule indices {bad}: "
                           f"2^(3kd+1) phi(delta_k) must decrease")
    table = _node_costs(A, phi, 0)
    total = sum(table[0][1].tolist(), 0.0)
    if total < eta:
        raise FractalError(f"content below eta: {total} < {eta}")
    levels = len(deltas)
    if levels > k:
        raise FractalError("schedule deeper than the raster resolution")
    keep = np.ones(A.size, dtype=bool)
    for lvl in range(1, levels):
        keys, costs = table[lvl]
        cube = np.searchsorted(keys, cell_keys(A.cells >> (k - lvl), lvl))
        keep &= costs[cube] > 2.0 ** (-3 * lvl * d) * eta
        if not keep.any():
            raise FractalError(f"all level-{lvl} cubes pruned (content below eta_{lvl})")
    pruned = DyadicCubeSet(d=d, k=k, cells=A.cells[keep], generator=A.generator)
    # certificates
    n_values = []
    per_cube = {}
    passed = True
    for lvl in range(levels):
        dk = deltas[lvl]
        nk = eta / (2.0 ** (3 * lvl * d + 1) * phi(dk))
        n_values.append(nk)
        keys, cube = np.unique(cell_keys(pruned.cells >> (k - lvl), lvl), return_inverse=True)
        counts = _grid_counts(pruned, cube, keys.size, lvl, dk)
        per_cube[lvl] = list(zip(map(tuple, key_cells(keys, d, lvl).tolist()), counts))
        passed = passed and min(counts) >= nk
    cert = LargenessCertificate(
        eta=eta,
        phi=phi.to_json_dict(),
        schedule=[(lvl, deltas[lvl], n_values[lvl]) for lvl in range(levels)],
        per_cube_counts=per_cube,
        pruned_levels=levels,
        passed=passed,
        notes="grid covering counts; N_k = eta/(2^(3kd+1) phi(delta_k)); "
        "content restricted to dyadic covers",
    )
    return pruned, n_values, cert


def _grid_counts(A: DyadicCubeSet, cube: np.ndarray, n_cubes: int, lvl: int, delta: Fraction) -> list[int]:
    """Per level-lvl cube (row i of A.cells lies in cube[i]): the count of
    side-delta grid cells overlapping its raster cells (positive measure)."""
    if delta.numerator == 1 and (delta.denominator & (delta.denominator - 1)) == 0:
        g = max(delta.denominator.bit_length() - 1, lvl)  # a cube inside one grid cell counts 1
        if g <= A.k:  # now a grid cell lies inside one cube
            _, first = np.unique(cell_keys(A.cells >> (A.k - g), g), return_index=True)
            return np.bincount(cube[first], minlength=n_cubes).tolist()
    order = np.argsort(cube, kind="stable")
    split = np.cumsum(np.bincount(cube, minlength=n_cubes))[:-1]
    return [covering_number(DyadicCubeSet(d=A.d, k=A.k, cells=sub), delta)
            for sub in np.split(A.cells[order], split)]


# ---------------------------------------------------------------------------
# logarithmic dimension estimate


def log_dimension_estimate(A: DyadicCubeSet, variant: str = "H") -> dict:
    """Heuristic slope estimator for the logarithmic dimension.

    Counts come from the generator schedule when present (the informative
    scales), else from every dyadic level.  If the box-count slope against
    log(1/delta) does not decay across the scale range, the ordinary
    dimension is positive and the logarithmic dimension is infinite; else
    the least-squares slope of log(count) against log log(1/delta) is
    returned.  Certificates carry the scales used.
    """
    if variant not in ("H", "P"):
        raise FractalError("variant must be 'H' or 'P'")
    scales = []
    if A.generator and A.generator.get("kind") == "sparse":
        for n, g in A.generator["schedule"]:
            scales.append(g)
    else:
        scales = list(range(1, A.k + 1))
    scales = [g for g in scales if g <= A.k]
    if len(scales) < 3:
        raise FractalError("need at least 3 usable scales")
    counts = [A.cells_at_level(g).shape[0] for g in scales]
    if max(counts) == 1:
        return {"variant": variant, "value": 0.0, "infinite": False, "scales": scales, "counts": counts}
    ln_counts = [math.log(c) for c in counts]
    ln_inv = [g * math.log(2.0) for g in scales]
    # aggregate box-count slopes over the first and second halves of the
    # scale range; a non-decaying positive slope means positive box dimension
    mid = len(scales) // 2
    slope_a = (ln_counts[mid] - ln_counts[0]) / (ln_inv[mid] - ln_inv[0])
    slope_b = (ln_counts[-1] - ln_counts[mid]) / (ln_inv[-1] - ln_inv[mid])
    box_slopes = [slope_a, slope_b]
    decaying = slope_b < 0.6 * slope_a if slope_a > 0 else True
    if not decaying and slope_b > 0.05:
        return {
            "variant": variant, "value": None, "infinite": True,
            "scales": scales, "counts": counts, "box_slopes": box_slopes,
        }
    ln_ln = [math.log(v) for v in ln_inv]
    n = len(ln_ln)
    mx = sum(ln_ln) / n
    my = sum(ln_counts) / n
    denom = sum((x - mx) ** 2 for x in ln_ln)
    slope = sum((x - mx) * (y - my) for x, y in zip(ln_ln, ln_counts)) / denom if denom else 0.0
    return {
        "variant": variant, "value": slope, "infinite": False,
        "scales": scales, "counts": counts, "box_slopes": box_slopes,
    }
