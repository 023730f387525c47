"""The two iterative constructions: the recursive-rectangles null-cover run
and the full-measure cascade, both at finite depth with exact certificates.

Everything here is one-dimensional and exact.  A run fixes an integer frame:
every coordinate is an integer multiple of 1/D where D clears the
denominators of the point set, the affine family, and the dyadic grids in
play; interval arithmetic on int64 then verifies the invariants with no
rounding anywhere.  The covering pieces K_j are unions of dyadic-width
intervals (width a power of two over D), so their volumes are exact dyadic
rationals.

Per iteration j, `rrp_run` builds one step-wide piece set T with a single
call to `elementary.greedy_piece_cover`: one obligation per (anchor a, map
scale), for the first map f of the scale (the other maps of it are
translates on the frame, and so are their obligations): the images under f
of the points within rho_j of a paired with the part of f(a) + K_j inside
f(a0) + R.  Every piece lies inside the hull of K_j widened by rho_j plus
one piece width.  T covers all of them at once under the step-level budget
5^-d 2^-(j+1), and K_{j+1} is the merged union of T.  The invariants

    (a) K_{j+1} inside the delta_j-neighborhood of K_j,
    (b) |K_j| <= 5^-d 2^-j  and  |K_j^(2 delta_j)| <= 2^-j,
    (c) f(a_0) + R inside f(A'_j) + K_j for every map,

are then re-verified by `_step_checks`, the one check the build and
`verify_rrp_trace` share, never assumed.  The paper-style per-pair volume
budget |T_{s,a}| <= |Q_s| / (2*5^d*|A'_j|) is unattainable for finite point
sets (it forces |A'| to grow geometrically inside shrinking windows), so the
budget is enforced at the step level (|T| <= 5^-d 2^-(j+1), which is what
the pair budget exists to give); the reference thresholds are still
computed and recorded with their margins.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from nullcover.elementary import (
    first_gap,
    frac,
    greedy_piece_cover,
    json_int,
    merge_int,
    merge_intervals,
)
from nullcover.elementary import points_plus as _covered_union
from nullcover.elementary import twice_excess as _directed_hausdorff_intervals

# Names the engine calls from the cascade half (bias_sets, which brings gf
# and groups), imported on first use; the rrp half is `elementary`, imported
# above, so an rrp run loads no other module.  These names and those above
# stay module attributes looked up at call time, so a wrapper set on
# `engine.<name>` sees every call.
_LAZY = {
    "ParameterError": ("nullcover.bias_sets", "ParameterError"),
    "build_patch_template": ("nullcover.bias_sets", "build_patch_template"),
}


def __getattr__(name):
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), attr)
    globals()[name] = value
    return value


def _bind(*names: str) -> None:
    """Import the lazy names a function calls; a name already bound stays."""
    for name in names:
        if name not in globals():
            __getattr__(name)


class EngineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# function families (affine, d = 1)


@dataclass(frozen=True)
class AffineMap:
    scale: Fraction
    offset: Fraction

    def __call__(self, x):
        return self.scale * frac(x) + self.offset

    def to_json(self):
        return [str(self.scale), str(self.offset)]


@dataclass
class FunctionFamily:
    """Finite family of affine maps on [0,1] with a bi-Lipschitz constant C.

    The constant is verified exactly: C^-1 <= |scale| <= 1 for every member.
    The covering number is a greedy net in the exact sup distance
    max(|f(0)-g(0)|, |f(1)-g(1)|).
    """

    maps: list[AffineMap]
    bilipschitz_c: Fraction

    def __post_init__(self):
        if not self.maps:
            raise EngineError("family must be nonempty")
        c = frac(self.bilipschitz_c)
        for f in self.maps:
            a = abs(f.scale)
            if not (1 <= c * a and a <= 1):  # C^-1 <= a <= 1, and no C <= 0
                raise EngineError(f"map scale {f.scale} violates C = {c}")

    def sup_distance(self, i: int, j: int) -> Fraction:
        f, g = self.maps[i], self.maps[j]
        return max(abs(f(0) - g(0)), abs(f(1) - g(1)))

    def to_json_dict(self) -> dict:
        return {
            "maps": [f.to_json() for f in self.maps],
            "bilipschitz_c": str(self.bilipschitz_c),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FunctionFamily":
        return cls(
            maps=[AffineMap(*_rationals(m, "map", 2)) for m in _field(data, "maps", list)],
            bilipschitz_c=_rational(data.get("bilipschitz_c"), "bilipschitz_c"),
        )


def family_covering_number(family: FunctionFamily, delta) -> int:
    """Greedy upper bound on the sup-norm covering number of the family."""
    delta = frac(delta)
    centers: list[int] = []
    for i in range(len(family.maps)):
        if not any(family.sup_distance(i, j) <= delta for j in centers):
            centers.append(i)
    return len(centers)


# ---------------------------------------------------------------------------
# integer frame helpers


def make_frame_denominator(points: Sequence[Fraction], family: FunctionFamily, g_max: int) -> int:
    """Least D with D*f(x) and D*2^-g integral for all points, maps, g <= g_max."""
    points = [frac(p) for p in points]
    D = math.lcm(1 << g_max, *(p.denominator for p in points))
    for f in family.maps:
        a, b = f.scale.numerator, f.scale.denominator
        D = math.lcm(D, b, f.offset.denominator)
        for p in points:
            bm = b * p.denominator  # s p = a n / (b m) has denominator bm / gcd(an, bm)
            D = math.lcm(D, bm // math.gcd(a * p.numerator, bm))
    return D


def _to_frame(values, D: int, what: str) -> np.ndarray:
    """values * D as int64; EngineError where one is not an integer, or is
    so large that sums of a few frame values could wrap in int64."""
    out = []
    for v in map(frac, values):
        x, r = divmod(v.numerator * D, v.denominator)
        if r or abs(x) >= 1 << 60:
            raise EngineError(f"{what} {v} is not on the 1/{D} frame below 2^60")
        out.append(x)
    return np.array(out, dtype=np.int64)


def _frame_images(P: np.ndarray, family: FunctionFamily, D: int) -> list[np.ndarray]:
    """f(p) D = a P // b + o D per map f = (a/b) x + o, as int64 in point
    order, from the frame points P = p D; in Python ints, so nothing wraps.
    EngineError where an image is off the 1/D frame or reaches 2^60."""
    images = []
    for f in family.maps:
        a, b, o = f.scale.numerator, f.scale.denominator, f.offset * D
        img = [divmod(a * x, b) for x in P.tolist()]
        if o.denominator != 1 or any(r or abs(q + o.numerator) >= 1 << 60 for q, r in img):
            raise EngineError(f"an image under the map {f.to_json()} is not on the 1/{D} frame below 2^60")
        images.append(np.array([q + o.numerator for q, _ in img], dtype=np.int64))
    return images


def _one_map_per_scale(family: FunctionFamily) -> list[int]:
    """Index of the first map of each distinct scale, in family order.  On
    the frame, f_i = f_0 + (o_i - o_0) D for maps of one scale, an integer
    shift (`_frame_images` checks o D), so f_0 stands for all of them."""
    first: dict[Fraction, int] = {}
    for i, f in enumerate(family.maps):
        first.setdefault(f.scale, i)
    return list(first.values())


def _neighborhood_measure(starts: np.ndarray, ends: np.ndarray, r):
    """Measure of the closed r-neighborhood of a nonempty merged union."""
    gaps = (starts[1:] - ends[:-1]).tolist()
    return int((ends - starts).sum()) + 2 * r + sum(min(g, 2 * r) for g in gaps)


def _step_checks(prev, cur, delta: Fraction, j: int, D: int, targets) -> tuple[Fraction, Fraction, dict]:
    """|K_j|, |K_{j-1}^(2 delta)| and the verdicts of step record j, exactly
    on the 1/D frame, for K_j = `cur` and K_{j-1} = `prev` (nonempty merged
    (starts, ends)): volume_ok |K_j| <= 1/(5 2^j); delta_ok 0 <= delta <=
    2^-(j-1); nested_ok (a), K_j inside the closed delta-neighborhood of
    K_{j-1}; neighborhood_ok (b), |K_{j-1}^(2 delta)| <= 2^-(j-1), a j >= 2
    claim as the seed K_0 = R cannot meet it; coverage_ok (c), [lo, hi]
    inside pts + K_j for each (pts, lo, hi) of `targets`, one per map scale."""
    vol = Fraction(int((cur[1] - cur[0]).sum()), D)
    nbhd = Fraction(_neighborhood_measure(*prev, 2 * delta * D), D)
    ok = {
        "volume_ok": vol <= Fraction(1, 5 * (1 << j)),
        "delta_ok": 0 <= delta <= Fraction(1, 1 << (j - 1)),
        "nested_ok": Fraction(_directed_hausdorff_intervals(cur, prev), 2 * D) <= delta,
        "neighborhood_ok": j < 2 or nbhd <= Fraction(1, 1 << (j - 1)),
        "coverage_ok": all(first_gap(*_covered_union(pts, *cur), lo, hi) is None
                           for pts, lo, hi in targets),
    }
    return vol, nbhd, ok


# ---------------------------------------------------------------------------
# RRP construction


@dataclass
class RRPStep:
    j: int
    g: int  # cell level: cells of side 2^-g
    delta: Fraction  # = 2^(1-g), the (a)-neighborhood radius
    piece_w_exp: int  # greedy piece width 2^-piece_w_exp
    k_intervals: list  # K_{j+1} as merged (lo, hi) Fractions
    volume: Fraction
    checks: dict

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "g": self.g,
            "delta": str(self.delta),
            "piece_w_exp": self.piece_w_exp,
            "k_intervals": [[str(a), str(b)] for a, b in self.k_intervals],
            "volume": str(self.volume),
            "checks": self.checks,
        }


@dataclass
class ConstructionTrace:
    kind: str
    meta: dict
    steps: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(
            all(v is True for k, v in s.checks.items() if k.startswith("check_"))
            for s in self.steps
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": "nullcover/1",
            "kind": self.kind,
            "meta": self.meta,
            "steps": [s.to_json_dict() for s in self.steps],
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def middle_thirds_points(depth: int, grid_exp: int) -> list[Fraction]:
    """Both endpoints of the level-`depth` middle-thirds intervals, snapped to
    the 2^-grid_exp grid (nearest, ties down): the same dyadic modelling step
    the fractal rasterizers use, and what the exact dyadic construction frame
    consumes.
    """
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for lo, hi in intervals:
            w = (hi - lo) / 3
            nxt.append((lo, lo + w))
            nxt.append((hi - w, hi))
        intervals = nxt
    scale = 1 << grid_exp
    return sorted({Fraction(math.floor(p * scale + Fraction(1, 2)), scale) for iv in intervals for p in iv})


def rrp_run(
    points: Sequence[Fraction],
    family: FunctionFamily,
    depth: int,
    rho_schedule: Optional[Sequence[Fraction]] = None,
    piece_w_schedule: Optional[Sequence[int]] = None,
) -> ConstructionTrace:
    """Iterate the null-cover construction for `depth` steps (d = 1).

    Produces K_1..K_depth with the three invariants re-verified exactly at
    every step; any failure raises.  rho_schedule[j] is the witness-window
    radius of step j (points within rho of an anchor may witness its
    targets), which caps the wandering of K_{j+1} away from K_j and hence
    the realized delta_j; piece_w_schedule[j] is the exponent of the piece
    width 2^-w used at step j (longer pieces keep the component count of K_j
    compatible with the 2 delta_j-neighborhood bound).  By default rho is
    1, 2^-10, 2^-11, ... and w is 12 at every step.  The seed rectangle
    R = [r_lo, r_hi] is the least one on the 1/16 grid with [0, 1] inside
    f(a0) + R for every map.
    """
    if depth < 1:
        raise EngineError(f"rrp depth must be >= 1, got {depth}")
    points = sorted(frac(p) for p in points)
    a0 = points[0]
    r_lo = Fraction(math.floor(min(-f(a0) for f in family.maps) * 16), 16)
    r_hi = Fraction(math.ceil(max(1 - f(a0) for f in family.maps) * 16), 16)
    if rho_schedule is None:
        rho_schedule = [Fraction(1)] + [Fraction(1, 1 << (10 + j)) for j in range(depth - 1)]
    if piece_w_schedule is None:
        piece_w_schedule = [12] * depth
    if len(rho_schedule) < depth or len(piece_w_schedule) < depth:
        raise EngineError("schedules shorter than depth")
    piece_w_exp = max(piece_w_schedule[:depth])
    D = make_frame_denominator(points, family, g_max=piece_w_exp)
    r_lo_i, r_hi_i = _to_frame([r_lo, r_hi], D, "R endpoint").tolist()
    pts_plain = _to_frame(points, D, "point")
    images = _frame_images(pts_plain, family, D)  # [0] is f(a0) D
    scaled = [images[i] for i in _one_map_per_scale(family)]
    targets = [(img, int(img[0]) + r_lo_i, int(img[0]) + r_hi_i) for img in scaled]

    trace = ConstructionTrace(
        kind="rrp",
        meta={
            "family": family.to_json_dict(),
            "points": [str(p) for p in points],
            "a0": str(a0),
            "R": [str(r_lo), str(r_hi)],
            "depth": depth,
            "rho_schedule": [str(frac(r)) for r in rho_schedule[:depth]],
            "piece_w_schedule": list(piece_w_schedule[:depth]),
            "frame_denominator": D,
        },
    )

    k_cur = (np.array([r_lo_i], dtype=np.int64), np.array([r_hi_i], dtype=np.int64))  # K_0 = R
    for j in range(depth):
        w_piece = D >> piece_w_schedule[j]
        rho = int(frac(rho_schedule[j]) * D)
        budget_total = (D >> (j + 1)) // 5  # 5^-d 2^-(j+1) in frame units
        n_anchors = 1 if j == 0 else len(points)  # the first n_anchors points
        hull_lo = int(k_cur[0][0]) - rho - w_piece
        hull_hi = int(k_cur[1][-1]) + rho + w_piece
        # for all anchors a at once: the window [i0, i1) of points within rho
        # of a, and per map the rows of f(a) + K_j clipped to f(a0) + R
        i0s = np.searchsorted(pts_plain, pts_plain[:n_anchors] - rho, side="left").tolist()
        i1s = np.searchsorted(pts_plain, pts_plain[:n_anchors] + rho, side="right").tolist()
        per_map = []
        for img, t_lo, t_hi in targets:
            rows = np.empty((n_anchors, k_cur[0].size, 2), dtype=np.int64)
            np.maximum(img[:n_anchors, None] + k_cur[0], t_lo, out=rows[..., 0])
            np.minimum(img[:n_anchors, None] + k_cur[1], t_hi, out=rows[..., 1])
            keep = rows[..., 1] > rows[..., 0]
            # f is monotone on the sorted points: each window's images come
            # out ascending, or descending for a negative scale
            per_map.append((img, bool(img[0] > img[-1]), rows, keep, keep.any(axis=1).tolist()))
        obligations = []
        for a, (i0, i1) in enumerate(zip(i0s, i1s)):
            if i1 <= i0:
                continue
            for img, desc, rows, keep, live in per_map:
                if live[a]:
                    win = img[i0:i1]
                    obligations.append((win[::-1] if desc else win, rows[a][keep[a]]))
        if not obligations:
            raise EngineError(f"step {j}: no coverage obligations (empty windows)")
        pieces_all = greedy_piece_cover(obligations, piece_w=w_piece, allowed_lo=hull_lo,
                                        allowed_hi=hull_hi, budget=budget_total)
        # reference threshold report (margin only; coverage is verified exactly)
        delta_p = Fraction(rho, D)
        m_ref = family_covering_number(family, delta_p / family.bilipschitz_c)
        window = np.searchsorted(pts_plain, pts_plain[0] + np.array([-rho, rho]))
        threshold_report = {
            "anchor": str(a0),
            "window_points": int(window[1] - window[0]),
            "threshold_ref_108": 2 * 108.0 * math.log(max(float(1 / delta_p) * m_ref, 2.0)),
        }
        p_lo, p_hi = np.array(pieces_all, dtype=np.int64).reshape(-1, 2).T
        k_next = merge_int(p_lo, p_hi)
        # delta_j is defined only now that K_{j+1} is known (the induction
        # fixes each delta one step late): the smallest dyadic 2^-t bounding
        # the one-sided Hausdorff excess of K_{j+1} over K_j, capped at 2^-j,
        # where (a) then fails if K_{j+1} wanders further
        excess = Fraction(_directed_hausdorff_intervals(k_next, k_cur), 2 * D)
        delta_j = Fraction(1, 1 << j)
        while delta_j / 2 >= excess and delta_j / 2 >= Fraction(1, 1 << piece_w_exp):
            delta_j /= 2
        vol_next, prev_nbhd_vol, ok = _step_checks(k_cur, k_next, delta_j, j + 1, D, targets)
        # halving is the proof's mechanism, reported but not required (see
        # the step-budget note in the module docstring)
        vol_prev = Fraction(int((k_cur[1] - k_cur[0]).sum()), D)
        checks = {
            "check_a_nested": ok["nested_ok"],
            "check_b_volume": ok["volume_ok"],
            "check_b_neighborhood": ok["neighborhood_ok"],
            "check_c_coverage": ok["coverage_ok"],
            "halving_observed": bool(vol_next <= vol_prev / 2),
            "volume_prev": str(vol_prev),
            "neighborhood_volume_prev": str(prev_nbhd_vol),
            "threshold_reports": [threshold_report],
        }
        if not all(ok.values()):
            raise EngineError(f"invariant failure at step {j}: {checks}")
        trace.steps.append(RRPStep(
            j=j + 1, g=piece_w_schedule[j], delta=delta_j, piece_w_exp=piece_w_schedule[j],
            k_intervals=[(Fraction(lo, D), Fraction(hi, D)) for lo, hi in zip(*(e.tolist() for e in k_next))],
            volume=vol_next, checks=checks,
        ))
        k_cur = k_next
    # Delta_j <= 2 delta_j on the realized schedule
    deltas = [s.delta for s in trace.steps]
    if not _delta_tail_ok(deltas):
        raise EngineError(f"Delta_j exceeds 2 delta_j on the realized schedule {deltas}")
    trace.meta["delta_schedule"] = [str(dv) for dv in deltas]
    trace.meta["delta_tail_ok"] = True
    return trace


def _delta_tail_ok(deltas: list[Fraction]) -> bool:
    """Delta_j = sum_{i >= j} delta_i <= 2 delta_j for every j."""
    return all(sum(deltas[j:], Fraction(0)) <= 2 * deltas[j] for j in range(len(deltas)))


def _field(obj, key: str, kind: type):
    """obj[key] of a stored trace, which must be a `kind`; JSON true and
    false are no ints."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise EngineError(f"trace field {key!r} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _rational(x, what: str) -> Fraction:
    """A stored rational with a nonzero denominator: an int, or "n" or "n/d" as
    written; no exponent, as "1e<n>" makes Fraction compute 10^n (seconds at n = 10^7)."""
    try:
        if isinstance(x, int) or isinstance(x, str) and x.lstrip("-").replace("/", "", 1).isdigit():
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise EngineError(f"{what} {x!r:.40} is not a rational")


def _rationals(xs, what: str, n: Optional[int] = None) -> list[Fraction]:
    """A stored list of rationals, of length n when given."""
    if not isinstance(xs, list) or n not in (None, len(xs)):
        raise EngineError(f"{xs!r:.40} is not a list of {n or 'some'} {what}s")
    return [_rational(x, what) for x in xs]


def verify_rrp_trace(data: dict) -> dict:
    """Re-validate a serialized rrp trace from the stored sets alone.

    Every inequality is recomputed on the integer frame of the stored
    denominator D: per step record j, by `_step_checks`, the volume (stored
    value and bound 1/(5 2^j)), delta_j <= 2^-(j-1), the nesting of K_j in
    the delta-neighborhood of K_{j-1}, for j >= 2 the neighborhood bound
    |K_{j-1}^(2 delta)| <= 2^-(j-1), and coverage of f(a0) + R, which must
    hold [0, 1] for every map; over all records the Delta-tail.  Coverage
    runs once per map scale: another map of a scale shifts the points and
    the target alike by (o_i - o_0) D, an integer checked per map, and a
    shift keeps every gap.  A field of the wrong type, a rational that does
    not parse, a point, image or endpoint off the 1/D frame, or a step count
    other than the stored depth (at least 1), raises EngineError.
    """
    meta = _field(data, "meta", dict)
    depth = _field(meta, "depth", int)
    records = _field(data, "steps", list)
    if depth < 1 or len(records) != depth:
        raise EngineError(f"trace of depth {depth} holds {len(records)} step records")
    family = FunctionFamily.from_json_dict(_field(meta, "family", dict))
    D = json_int(meta, "frame_denominator", 1, math.inf, EngineError)
    r_lo, r_hi = _to_frame(_rationals(meta.get("R"), "R endpoint", 2), D, "R endpoint").tolist()
    images = _frame_images(_to_frame(_rationals(meta.get("points"), "point"), D, "point"), family, D)
    a0 = _rational(meta.get("a0"), "a0")
    fa0 = _to_frame([f(a0) for f in family.maps], D, "image of a0").tolist()
    target_ok = all(fa + r_lo <= 0 and fa + r_hi >= D for fa in fa0)
    targets = [(images[i], fa0[i] + r_lo, fa0[i] + r_hi) for i in _one_map_per_scale(family)]
    prev = (np.array([r_lo], dtype=np.int64), np.array([r_hi], dtype=np.int64))
    steps, deltas = [], []
    for n, step in enumerate(records, start=1):
        j = _field(step, "j", int)
        if j != n:
            raise EngineError(f"step record {n} is numbered {j}")
        delta = _rational(step.get("delta"), "delta")
        volume = _rational(step.get("volume"), "volume")
        ivs = _field(step, "k_intervals", list)
        ends = _to_frame([x for iv in ivs for x in _rationals(iv, "K endpoint", 2)], D, "K endpoint")
        cur = merge_int(ends[0::2], ends[1::2])
        if cur[0].size == 0:
            raise EngineError(f"K_{j} is empty")
        vol, _, ok = _step_checks(prev, cur, delta, j, D, targets)
        ok["volume_ok"] = ok["volume_ok"] and vol == volume
        steps.append({"j": j, **ok})
        deltas.append(delta)
        prev = cur
    tail_ok = _delta_tail_ok(deltas)
    passed = target_ok and tail_ok and all(all(v for k, v in s.items() if k != "j") for s in steps)
    return {"steps": steps, "target_ok": target_ok, "delta_tail_ok": tail_ok, "passed": passed}


# ---------------------------------------------------------------------------
# full-measure cascade (d = 1, implicit uniform grid test sets)


# far finer than any cascade stage reaches; bounds the shifts `GridSet.cells`
# makes, and so every grid a trace records reads back
MAX_SPACING_EXPONENT = 1 << 12


@dataclass
class GridSet:
    """Implicit test set: the points i 2^-spacing_exponent of the region.

    The region is stored merged as closed [lo, hi] pairs, but the point rule
    is half-open: the set holds the grid points of each [lo, hi), so a grid
    point at a right endpoint is not in it.  The spacing exponent is an int
    in [0, MAX_SPACING_EXPONENT]; EngineError otherwise.
    """

    spacing_exponent: int
    region: list  # [(lo, hi)] Fractions, merged

    def __post_init__(self):
        json_int(vars(self), "spacing_exponent", 0, MAX_SPACING_EXPONENT, EngineError)
        self.region = merge_intervals([(frac(a), frac(b)) for a, b in self.region])

    def cells(self, level: int) -> np.ndarray:
        """Sorted indices c of the cells [c 2^-level, (c + 1) 2^-level) of
        [0, 1) that hold a point of the set.  Per interval the points are i in
        [ceil(a 2^s), ceil(b 2^s)) of [a, b) clipped to [0, 1), and point i
        lies in cell (i 2^level) >> s: a contiguous run when s >= level, a
        stride of 2^(level - s) when s < level."""
        s = self.spacing_exponent
        step, last, runs = 1 << max(level - s, 0), -1, []
        for a, b in self.region:
            i0, i1 = (math.ceil(min(max(x, 0), 1) * (1 << s)) for x in (a, b))
            if i1 > i0:  # neighbouring intervals may share a cell when s > level
                first = max((i0 << level) >> s, last + 1)
                last = ((i1 - 1) << level) >> s
                runs.append(np.arange(first, last + 1, step, dtype=np.int64))
        return np.concatenate(runs) if runs else np.zeros(0, dtype=np.int64)

    def to_json_dict(self):
        return {
            "spacing_exponent": self.spacing_exponent,
            "region": [[str(a), str(b)] for a, b in self.region],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GridSet":
        region = [_rationals(iv, "region endpoint", 2) for iv in _field(data, "region", list)]
        return cls(data.get("spacing_exponent"), region)


@dataclass
class FullMeasureStage:
    j: int
    cube_level: int  # cubes of B_j live in D_{cube_level}
    cube_count: int
    template_cert: Optional[dict]
    measure: Fraction
    checks: dict

    def to_json_dict(self):
        return {
            "j": self.j,
            "cube_level": self.cube_level,
            "cube_count": self.cube_count,
            "template": self.template_cert,
            "measure": str(self.measure),
            "checks": self.checks,
        }


def full_measure_run(grid: GridSet, eps, depth: int) -> ConstructionTrace:
    """Finite-depth full-measure cascade: B_0 = [-1,1]; each stage replaces
    every cube of B_j by a Gauss-sum patch inside its 4-fold inflation, with

        (a) B_j a union of D_{m_j} cubes,
        (b) B_{j+1} inside union of 4 Q_s^(j),
        (c) |B_j| <= 2^-j for j >= 1 (j = 0 is the [-1,1] seed, measure 2^d,
            recorded as the initialization convention),
        (d) |[0,1] minus (A'_j + B_j)| <= (1 - 2^-j) eps, bounded by the
            cyclic counts of the A-cells + B* in Z_m: at stage 1 on the cells
            of the grid itself (`GridSet.cells`), at later stages on the
            canonical interior cube, every sub-cell of which the grid fills.
            An exact interval check of (d) on the emitted cells is still open
            (ROADMAP item 1).

    Stage 1 is one patch of the unit cube whose wraps {-2, -1, 0, 1} reach
    a0 + [-1, 1] for every a0 in [0, 1]; the grid must occupy N' =
    threshold_nz of its cells.  Deeper stages reuse one template per stage
    (patches are translates, wraps {-1, 0, 1}), so cube counts stay
    analytic; every inequality is checked in exact rational arithmetic and
    the per-stage cyclic coverage certificates come from the
    Walsh-Hadamard-exact bias of the underlying k-th power sets.  The
    template budgets are fixed (1/4 of |B_0| at stage 1, at most 1/2 of |B_j|
    later), so (grid, eps, depth) determine the trace and
    `verify_full_measure_trace` rebuilds it from them.
    """
    _bind("ParameterError", "build_patch_template")
    if depth < 1:
        raise EngineError(f"full-measure depth must be >= 1, got {depth}")
    eps = frac(eps)
    if not (0 < eps < 1):  # the (d) bound (1 - 2^-j) eps is vacuous from eps = 1 on
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    trace = ConstructionTrace(
        kind="full_measure",
        meta={"grid": grid.to_json_dict(), "eps": str(eps), "depth": depth},
    )
    measure = Fraction(2)  # B_0 = [-1, 1]
    trace.steps.append(FullMeasureStage(
        j=0, cube_level=0, cube_count=2, template_cert=None, measure=measure,
        checks={"check_c_measure": True, "note": "B_0 = [-1,1], measure 2^d by convention"},
    ))
    cube_level, cube_count, uncovered = 0, 1, Fraction(0)
    for j in range(depth):
        eps_j = eps / (1 << (j + 1))
        if j == 0:
            # budget |B_1| <= eta_0 |B_0|, measured against the unit A-cube
            tpl = build_patch_template(Fraction(1, 4) * measure, eps_j, wraps=(-2, -1, 0, 1), min_m=2)
            m, need = tpl.m, tpl.threshold_nz
            level = m.bit_length() - 1
            a_cells = grid.cells(level)
            if a_cells.size < need:
                raise EngineError(
                    f"largeness certificate insufficient at stage 1: need N' = {need}, "
                    f"have {a_cells.size} occupied 2^-{level} cells"
                )
            measure = Fraction(1)  # the patch replaces the unit cube, not B_0
            in_4q = (-2 * m - 1, 2 * m)
        else:
            # per-cube patches, one shared template; budget |B_{j+1}| <= 2^-(j+1)
            eta_tpl = min(Fraction(1, 2), Fraction(1, 1 << (j + 1)) / measure)
            tpl = build_patch_template(eta_tpl, eps_j, wraps=(-1, 0, 1), min_m=2)
            m, need = tpl.m, tpl.threshold_nz
            level = cube_level + m.bit_length() - 1
            if grid.spacing_exponent < level:
                raise EngineError(
                    f"stage {j + 1}: grid spacing 2^-{grid.spacing_exponent} coarser than "
                    f"operative cells 2^-{level}; required N' = {need}"
                )
            a_cells = np.arange(m, dtype=np.int64)  # the canonical interior cube
            in_4q = (-Fraction(3, 2) * m, Fraction(5, 2) * m)  # 4Q = [-3/2, 5/2] of the unit cube
        # the cells, and a threshold-sized subsample of them (the sparse-regime check)
        u_full, u_sub = tpl.cyclic_uncovered(
            [a_cells, a_cells[(np.arange(need, dtype=np.int64) * a_cells.size) // need]])
        if not (u_sub <= eps_j * m):
            raise EngineError(f"cyclic coverage certificate failed at stage {j + 1}")
        cube_level, cube_count = level, cube_count * tpl.cell_count
        measure *= Fraction(tpl.cell_count, m)
        uncovered += Fraction(u_full, m)
        check_b = in_4q[0] <= int(tpl.cells.min()) and int(tpl.cells.max()) < in_4q[1]
        check_c = measure <= Fraction(1, 1 << (j + 1))
        bound_d = (1 - Fraction(1, 1 << (j + 1))) * eps
        check_d = uncovered <= bound_d
        checks = {
            "check_a_cube_union": True,
            "check_b_nested_4q": bool(check_b),
            "check_c_measure": bool(check_c),
            "check_d_uncovered": bool(check_d),
            "uncovered_bound": str(bound_d),
            "uncovered_value": str(uncovered),
            "cyclic_uncovered_full": int(u_full),
            "cyclic_uncovered_subsample": int(u_sub),
            "threshold_nz": int(need),
            "threshold_spec_reference": int(tpl.threshold_spec),
        }
        if not (check_b and check_c and check_d):
            raise EngineError(f"full-measure invariant failure at stage {j + 1}: {checks}")
        trace.steps.append(FullMeasureStage(
            j=j + 1, cube_level=cube_level, cube_count=cube_count,
            template_cert=tpl.certificate(), measure=measure, checks=checks,
        ))
    trace.meta["final_measure"] = str(measure)
    return trace


def verify_full_measure_trace(data: dict) -> dict:
    """Re-validate a serialized cascade trace: the construction is
    deterministic, so rebuild from the recorded inputs and compare byte for
    byte, then recheck the stage inequalities from the stored record.  A
    field of the wrong type, a rational that does not parse, a grid spacing
    outside [0, MAX_SPACING_EXPONENT], or a stage count other than the stored
    depth (at least 1) plus the B_0 record, raises EngineError."""
    meta = _field(data, "meta", dict)
    depth = _field(meta, "depth", int)
    records = _field(data, "steps", list)
    if depth < 1 or len(records) != depth + 1:
        raise EngineError(f"trace of depth {depth} holds {len(records)} stage records")
    grid = GridSet.from_json_dict(_field(meta, "grid", dict))
    eps = _rational(meta.get("eps"), "eps")
    steps = []
    for n, s in enumerate(records[1:], start=1):
        j = _field(s, "j", int)
        if j != n:
            raise EngineError(f"stage record {n} is numbered {j}")
        checks = _field(s, "checks", dict)
        measure_ok = _rational(s.get("measure"), "measure") <= Fraction(1, 1 << j)
        unc_ok = (_rational(checks.get("uncovered_value"), "uncovered_value")
                  <= _rational(checks.get("uncovered_bound"), "uncovered_bound"))
        steps.append({"j": j, "measure_ok": measure_ok, "uncovered_ok": unc_ok})
    rebuilt = full_measure_run(grid, eps, depth)
    same = json.dumps(rebuilt.to_json_dict(), sort_keys=True) == json.dumps(data, sort_keys=True)
    passed = same and all(s["measure_ok"] and s["uncovered_ok"] for s in steps)
    return {"passed": passed, "rebuild_identical": same, "steps": steps}
