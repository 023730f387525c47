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
call to `covering.greedy_piece_cover`: one obligation per (anchor a, map f),
the images under f of the points within rho_j of a paired with the part of
f(a) + K_j inside f(a0) + R, and every piece inside the hull of K_j widened
by rho_j plus one piece width.  T covers all of them at once under
the step-level budget 5^-d 2^-(j+1), and K_{j+1} is the merged union of T.
The invariants

    (a) K_{j+1} inside the delta_j-neighborhood of K_j,
    (b) |K_j| <= 5^-d 2^-j  and  |K_j^(2 delta_j)| <= 2^-j,
    (c) f(a_0) + R inside f(A'_j) + K_j for every map,

are then re-verified from the stored intervals, never assumed.  The
paper-style per-pair volume budget |T_{s,a}| <= |Q_s| / (2*5^d*|A'_j|) is
unattainable for finite point sets (it forces |A'| to grow geometrically
inside shrinking windows), so the budget is enforced at the step level
(|T| <= 5^-d 2^-(j+1), which is what the pair budget exists to give);
the reference thresholds are still computed and recorded with their margins.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from nullcover.elementary import (
    first_gap,
    frac,
    merge_int,
    merge_intervals,
)
from nullcover.elementary import points_plus as _covered_union
from nullcover.elementary import twice_excess as _directed_hausdorff_intervals

if TYPE_CHECKING:
    from nullcover.bias_sets import PatchTemplate

# Names the engine calls from the rrp half (covering) and from the cascade
# half (bias_sets, which brings gf and groups), imported on first use so that
# a run loads only its own half.  They stay module attributes looked
# up at call time, so a wrapper set on `engine.<name>` sees every call.
_LAZY = {
    "greedy_piece_cover": ("nullcover.covering", "greedy_piece_cover"),
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


def _neighborhood_measure(starts: np.ndarray, ends: np.ndarray, r):
    """Measure of the closed r-neighborhood of a nonempty merged union."""
    gaps = (starts[1:] - ends[:-1]).tolist()
    return int((ends - starts).sum()) + 2 * r + sum(min(g, 2 * r) for g in gaps)


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


def middle_thirds_points(depth: int, grid_exp: Optional[int] = None) -> list[Fraction]:
    """Both endpoints of the level-`depth` middle-thirds intervals.

    With `grid_exp` the points are snapped to the 2^-grid_exp grid (nearest,
    ties down), the same dyadic modelling step the fractal rasterizers use;
    the snapped set is what the exact dyadic construction frame consumes.
    """
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for lo, hi in intervals:
            w = (hi - lo) / 3
            nxt.append((lo, lo + w))
            nxt.append((hi - w, hi))
        intervals = nxt
    pts = sorted({p for iv in intervals for p in iv})
    if grid_exp is None:
        return pts
    scale = 1 << grid_exp
    snapped = sorted({Fraction(math.floor(p * scale + Fraction(1, 2)), scale) for p in pts})
    return snapped


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
    compatible with the 2 delta_j-neighborhood bound).  The seed rectangle
    R = [r_lo, r_hi] is the least one on the 1/16 grid with [0, 1] inside
    f(a0) + R for every map.
    """
    _bind("greedy_piece_cover")
    if depth < 1:
        raise EngineError(f"rrp depth must be >= 1, got {depth}")
    points = sorted(frac(p) for p in points)
    a0 = points[0]
    r_lo = Fraction(math.floor(min(-f(a0) for f in family.maps) * 16), 16)
    r_hi = Fraction(math.ceil(max(1 - f(a0) for f in family.maps) * 16), 16)
    if rho_schedule is None:
        rho_schedule = [Fraction(1, 4)] + [Fraction(1, 1 << 10)] * (depth - 1)
    if piece_w_schedule is None:
        piece_w_schedule = [11] + [12] * (depth - 1)
    if len(rho_schedule) < depth or len(piece_w_schedule) < depth:
        raise EngineError("schedules shorter than depth")
    piece_w_exp = max(piece_w_schedule[:depth])
    D = make_frame_denominator(points, family, g_max=piece_w_exp)
    r_lo_i, r_hi_i = _to_frame([r_lo, r_hi], D, "R endpoint").tolist()
    pts_plain = _to_frame(points, D, "point")
    images = _frame_images(pts_plain, family, D)  # [0] is f(a0) D

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
        anchors = [0] if j == 0 else range(len(points))
        hull_lo = int(k_cur[0][0]) - rho - w_piece
        hull_hi = int(k_cur[1][-1]) + rho + w_piece
        obligations = []
        for ai in anchors:
            i0 = int(np.searchsorted(pts_plain, pts_plain[ai] - rho, side="left"))
            i1 = int(np.searchsorted(pts_plain, pts_plain[ai] + rho, side="right"))
            if i1 <= i0:
                continue
            for img in images:
                fa = int(img[ai])
                lo2 = np.maximum(fa + k_cur[0], img[0] + r_lo_i)
                hi2 = np.minimum(fa + k_cur[1], img[0] + r_hi_i)
                keep = hi2 > lo2
                if keep.any():
                    obligations.append((np.sort(img[i0:i1]), np.stack((lo2[keep], hi2[keep]), 1)))
        if not obligations:
            raise EngineError(f"step {j}: no coverage obligations (empty windows)")
        pieces_all = greedy_piece_cover(
            obligations, piece_w=w_piece, allowed_lo=hull_lo, allowed_hi=hull_hi,
            budget=budget_total,
        )
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
        vol_next = Fraction(int((k_next[1] - k_next[0]).sum()), D)
        # delta_j is defined only now that K_{j+1} is known (the induction
        # fixes each delta one step late): the smallest
        # dyadic 2^-t bounding the one-sided Hausdorff excess of K_{j+1}
        # over K_j, required to stay within 2^-j
        excess = Fraction(_directed_hausdorff_intervals(k_next, k_cur), 2 * D)
        delta_j = Fraction(1, 1 << j)
        while delta_j / 2 >= excess and delta_j / 2 >= Fraction(1, 1 << piece_w_exp):
            delta_j /= 2
        if excess > Fraction(1, 1 << j):
            raise EngineError(f"step {j}: K_{j+1} wanders {excess} > 2^-{j} from K_{j}")
        # ---- invariant checks, all exact ----
        # (a): K_{j+1} inside the closed delta_j-neighborhood of K_j, i.e. its
        # excess over K_j is at most delta_j
        check_a = excess <= delta_j
        # (b) first part for j+1
        check_b_vol = vol_next <= Fraction(1, 5 * (1 << (j + 1)))
        # (b) second part for j (verified now that delta_j is fixed); the seed
        # rectangle K_0 = R cannot satisfy it, so like the measure part it is
        # a j >= 1 claim
        prev_nbhd_vol = Fraction(_neighborhood_measure(*k_cur, 2 * delta_j * D), D)
        check_b_nbhd = prev_nbhd_vol <= Fraction(1, 1 << j) if j >= 1 else True
        # halving bookkeeping: the proof's mechanism, reported but not
        # required (the construction meets the (b) volume bound directly;
        # see the step-budget note in the module docstring)
        vol_prev = Fraction(int((k_cur[1] - k_cur[0]).sum()), D)
        halving_observed = vol_next <= vol_prev / 2
        # (c): every map covers f(a0) + R, the full target, from the full
        # point set
        check_c = all(
            first_gap(*_covered_union(img, *k_next), int(img[0]) + r_lo_i, int(img[0]) + r_hi_i)
            is None
            for img in images
        )
        checks = {
            "check_a_nested": bool(check_a),
            "check_b_volume": bool(check_b_vol),
            "check_b_neighborhood": bool(check_b_nbhd),
            "check_c_coverage": bool(check_c),
            "halving_observed": bool(halving_observed),
            "volume_prev": str(vol_prev),
            "neighborhood_volume_prev": str(prev_nbhd_vol),
            "threshold_reports": [threshold_report],
        }
        if not (check_a and check_b_vol and check_b_nbhd and check_c):
            raise EngineError(f"invariant failure at step {j}: {checks}")
        trace.steps.append(
            RRPStep(
                j=j + 1,
                g=piece_w_schedule[j],
                delta=delta_j,
                piece_w_exp=piece_w_schedule[j],
                k_intervals=[(Fraction(lo, D), Fraction(hi, D))
                             for lo, hi in zip(k_next[0].tolist(), k_next[1].tolist())],
                volume=vol_next,
                checks=checks,
            )
        )
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
    """obj[key] of a stored trace, which must be a `kind`."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
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
    denominator D: per step record j, the volume (stored value and bound
    1/(5 2^j)), delta_j <= 2^-(j-1), the nesting of K_j in the
    delta-neighborhood of K_{j-1}, for j >= 2 the neighborhood bound
    |K_{j-1}^(2 delta)| <= 2^-(j-1), and coverage of f(a0) + R, which must
    hold [0, 1], for every map; over all records the Delta-tail.  A field
    of the wrong type, a rational that does not parse, a point, image or
    endpoint off the 1/D frame, or a step count other than the stored depth
    (at least 1), raises EngineError.
    """
    meta = _field(data, "meta", dict)
    depth = _field(meta, "depth", int)
    records = _field(data, "steps", list)
    if depth < 1 or len(records) != depth:
        raise EngineError(f"trace of depth {depth} holds {len(records)} step records")
    family = FunctionFamily.from_json_dict(_field(meta, "family", dict))
    D = _field(meta, "frame_denominator", int)
    if D < 1:
        raise EngineError(f"frame denominator {D} is not positive")
    r_lo, r_hi = _to_frame(_rationals(meta.get("R"), "R endpoint", 2), D, "R endpoint").tolist()
    images = _frame_images(_to_frame(_rationals(meta.get("points"), "point"), D, "point"), family, D)
    a0 = _rational(meta.get("a0"), "a0")
    fa0 = _to_frame([f(a0) for f in family.maps], D, "image of a0").tolist()
    target_ok = all(fa + r_lo <= 0 and fa + r_hi >= D for fa in fa0)
    prev = (np.array([r_lo], dtype=np.int64), np.array([r_hi], dtype=np.int64))
    steps, deltas = [], []
    for n, step in enumerate(records, start=1):
        j = _field(step, "j", int)
        if j != n:
            raise EngineError(f"step record {n} is numbered {j}")
        delta = _rational(step.get("delta"), "delta")
        ivs = _field(step, "k_intervals", list)
        ends = _to_frame([x for iv in ivs for x in _rationals(iv, "K endpoint", 2)], D, "K endpoint")
        cur = merge_int(ends[0::2], ends[1::2])
        if cur[0].size == 0:
            raise EngineError(f"K_{j} is empty")
        vol = Fraction(int((cur[1] - cur[0]).sum()), D)
        ok_vol = vol == _rational(step.get("volume"), "volume") and vol <= Fraction(1, 5 * (1 << j))
        ok_delta = 0 <= delta <= Fraction(1, 1 << (j - 1))
        ok_a = Fraction(_directed_hausdorff_intervals(cur, prev), 2 * D) <= delta
        nbhd = Fraction(_neighborhood_measure(*prev, 2 * delta * D), D)
        ok_b = j < 2 or nbhd <= Fraction(1, 1 << (j - 1))
        ok_c = all(
            first_gap(*_covered_union(img, *cur), fa + r_lo, fa + r_hi) is None
            for img, fa in zip(images, fa0)
        )
        steps.append({"j": j, "volume_ok": ok_vol, "delta_ok": ok_delta, "nested_ok": ok_a,
                      "neighborhood_ok": ok_b, "coverage_ok": ok_c})
        deltas.append(delta)
        prev = cur
    tail_ok = _delta_tail_ok(deltas)
    passed = target_ok and tail_ok and all(all(v for k, v in s.items() if k != "j") for s in steps)
    return {"steps": steps, "target_ok": target_ok, "delta_tail_ok": tail_ok, "passed": passed}


# ---------------------------------------------------------------------------
# full-measure cascade (d = 1, implicit uniform grid test sets)


@dataclass
class GridSet:
    """Implicit test set: the 2^-spacing_exponent grid inside the region."""

    spacing_exponent: int
    region: list  # [(lo, hi)] Fractions, merged

    def __post_init__(self):
        self.region = merge_intervals([(frac(a), frac(b)) for a, b in self.region])

    def count_in(self, lo: Fraction, hi: Fraction) -> int:
        """Number of occupied 2^-g cells inside [lo, hi] for g = spacing."""
        total = 0
        for a, b in self.region:
            a2, b2 = max(a, lo), min(b, hi)
            if b2 > a2:
                sp = Fraction(1, 1 << self.spacing_exponent)
                total += math.ceil((b2 - a2) / sp)
        return total

    def to_json_dict(self):
        return {
            "spacing_exponent": self.spacing_exponent,
            "region": [[str(a), str(b)] for a, b in self.region],
        }


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


def full_measure_run(
    grid: GridSet,
    eps,
    depth: int,
    eta_schedule: Optional[Sequence[Fraction]] = None,
    cap: int = 1 << 24,
) -> ConstructionTrace:
    """Finite-depth full-measure cascade: B_0 = [-1,1]; each stage replaces
    every cube of B_j by a Gauss-sum patch inside its 4-fold inflation, with

        (a) B_j a union of D_{m_j} cubes,
        (b) B_{j+1} inside union of 4 Q_s^(j),
        (c) |B_j| <= 2^-j for j >= 1 (j = 0 is the [-1,1] seed, measure 2^d,
            recorded as the initialization convention),
        (d) |[0,1] minus (A'_j + B_j)| <= (1 - 2^-j) eps, computed exactly
            with A'_j the stage grid of the test set.

    Deeper stages reuse one template per stage (patches are translates), so
    cube counts stay analytic; every inequality is checked in exact rational
    arithmetic and the per-stage cyclic coverage certificates come from the
    Walsh-Hadamard-exact bias of the underlying k-th power sets.
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
    if eta_schedule is None:
        eta_schedule = [Fraction(1, 4)] + [Fraction(1, 2)] * (depth - 1)
    cube_level = 0
    measure = Fraction(2)  # B_0 = [-1, 1]
    stage0 = FullMeasureStage(
        j=0, cube_level=0, cube_count=2, template_cert=None, measure=measure,
        checks={"check_c_measure": True, "note": "B_0 = [-1,1], measure 2^d by convention"},
    )
    trace.steps.append(stage0)
    # chain state: B_j = stage-1 corners, refined by one template per stage
    corners: Optional[np.ndarray] = None
    cube_count_implicit = 2
    chain_templates: list[PatchTemplate] = []
    chain_levels: list[int] = []
    uncovered_prev = Fraction(0)
    for j in range(depth):
        eps_j = eps / (1 << (j + 1))
        eta_j = frac(eta_schedule[j])
        if j == 0:
            # single whole-target patch: cover a0 + [-1, 1] for a0 in [0,1],
            # wraps {-2,-1,0,1}; budget |B_1| <= eta_0 * |B_0|
            budget = eta_j * measure
            wraps = (-2, -1, 0, 1)
            eta_tpl = budget  # measured against the unit A-cube
            tpl = build_patch_template(eta_tpl, eps_j, wraps=wraps, min_m=2, cap=cap)
            need = tpl.threshold_nz
            m = tpl.m
            have = grid.count_in(Fraction(0), Fraction(1))
            a_cells = _grid_cells_in(grid, 0, Fraction(0), m)
            if a_cells.size < need:
                raise EngineError(
                    f"largeness certificate insufficient at stage 0: need N' = {need}, "
                    f"have {a_cells.size} occupied cells (grid points {have})"
                )
            u_star = tpl.cyclic_uncovered(a_cells)
            # also certify a threshold-sized subsample (the sparse-regime check)
            sub = a_cells[(np.arange(need, dtype=np.int64) * a_cells.size) // need]
            u_sub = tpl.cyclic_uncovered(sub)
            if not (u_sub <= eps_j * m):
                raise EngineError("cyclic coverage certificate failed at stage 0")
            corners = tpl.cells.copy()  # level-`log2 m` cells, signed
            cube_count_implicit = int(corners.size)
            measure_next = Fraction(int(corners.size), m)
            uncovered = Fraction(u_star, m)  # target [0,1] has measure 1
        else:
            # per-cube patches, wraps {-1, 0, 1}; one shared template
            budget_ratio = Fraction(1, 1 << (j + 1)) / measure  # |B_{j+1}| <= 2^-(j+1)
            eta_tpl = min(eta_j, budget_ratio)
            tpl = build_patch_template(eta_tpl, eps_j, wraps=(-1, 0, 1), min_m=2, cap=cap)
            m = tpl.m
            need = tpl.threshold_nz
            # largeness: every D_{cube_level} cube meeting the grid must hold
            # `need` occupied sub-cells at the operative scale
            sub_level = cube_level + int(math.log2(m))
            cap_cells = m
            if need > cap_cells:
                raise EngineError(
                    f"stage {j}: threshold N' = {need} exceeds per-cube capacity {cap_cells}"
                )
            if grid.spacing_exponent < sub_level:
                raise EngineError(
                    f"stage {j}: grid spacing 2^-{grid.spacing_exponent} coarser than "
                    f"operative cells 2^-{sub_level}; required N' = {need}"
                )
            # the grid fills every sub-cell of cubes it meets away from the
            # region boundary; certify on the canonical interior cube
            a_cells = np.arange(m, dtype=np.int64)
            u_full = tpl.cyclic_uncovered(a_cells)
            sub = a_cells[(np.arange(need, dtype=np.int64) * m) // need]
            u_sub = tpl.cyclic_uncovered(sub)
            if not (u_sub <= eps_j * m):
                raise EngineError(f"cyclic coverage certificate failed at stage {j}")
            chain_templates.append(tpl)
            chain_levels.append(sub_level)
            cube_count_implicit *= tpl.cell_count
            measure_next = measure * Fraction(tpl.cell_count, m)
            u_star = u_full
            uncovered = uncovered_prev + Fraction(u_full, m)
        # (b): template cells within the 4-fold inflation of the parent cube
        if j == 0:
            lo_cell, hi_cell = int(corners.min()), int(corners.max())
            check_b = -2 * m - 1 <= lo_cell and hi_cell < 2 * m
        else:
            lo_cell, hi_cell = int(tpl.cells.min()), int(tpl.cells.max())
            # relative to a unit cube [0,1] scaled frame: 4Q = [-3/2, 5/2]
            check_b = -Fraction(3, 2) * m <= lo_cell and hi_cell < Fraction(5, 2) * m
        check_c = measure_next <= Fraction(1, 1 << (j + 1))
        bound_d = (1 - Fraction(1, 1 << (j + 1))) * eps
        check_d = uncovered <= bound_d
        checks = {
            "check_a_cube_union": True,
            "check_b_nested_4q": bool(check_b),
            "check_c_measure": bool(check_c),
            "check_d_uncovered": bool(check_d),
            "uncovered_bound": str(bound_d),
            "uncovered_value": str(uncovered),
            "cyclic_uncovered_full": int(u_star),
            "cyclic_uncovered_subsample": int(u_sub),
            "threshold_nz": int(tpl.threshold_nz),
            "threshold_spec_reference": int(tpl.threshold_spec),
        }
        if not (check_b and check_c and check_d):
            raise EngineError(f"full-measure invariant failure at stage {j + 1}: {checks}")
        cube_level = int(math.log2(tpl.m)) if j == 0 else chain_levels[-1]
        stage = FullMeasureStage(
            j=j + 1,
            cube_level=cube_level,
            cube_count=cube_count_implicit,
            template_cert=tpl.certificate(),
            measure=measure_next,
            checks=checks,
        )
        trace.steps.append(stage)
        measure = measure_next
        uncovered_prev = uncovered
    trace.meta["final_measure"] = str(measure)
    return trace


def verify_full_measure_trace(data: dict) -> dict:
    """Re-validate a serialized cascade trace: the construction is
    deterministic, so rebuild from the recorded inputs and compare byte for
    byte, then recheck the stage inequalities from the stored record."""
    meta = data["meta"]
    grid = GridSet(
        spacing_exponent=int(meta["grid"]["spacing_exponent"]),
        region=[(Fraction(a), Fraction(b)) for a, b in meta["grid"]["region"]],
    )
    rebuilt = full_measure_run(grid, Fraction(meta["eps"]), int(meta["depth"]))
    same = json.dumps(rebuilt.to_json_dict(), sort_keys=True) == json.dumps(data, sort_keys=True)
    steps = []
    ok = True
    for s in data["steps"][1:]:
        j = int(s["j"])
        measure_ok = Fraction(s["measure"]) <= Fraction(1, 1 << j)
        unc_ok = Fraction(s["checks"]["uncovered_value"]) <= Fraction(s["checks"]["uncovered_bound"])
        steps.append({"j": j, "measure_ok": measure_ok, "uncovered_ok": unc_ok})
        ok = ok and measure_ok and unc_ok
    return {"passed": bool(same and ok), "rebuild_identical": bool(same), "steps": steps}


def _grid_cells_in(grid: GridSet, level: int, corner: Fraction, m: int) -> np.ndarray:
    """Occupied width-(2^-level / m) cells of the cube at `corner`, as indices."""
    w = Fraction(1, (1 << level) * m)
    out = []
    for a, b in grid.region:
        a2, b2 = max(a, corner), min(b, corner + Fraction(1, 1 << level))
        if b2 > a2:
            c0 = math.floor((a2 - corner) / w)
            c1 = math.ceil((b2 - corner) / w) - 1
            out.append(np.arange(c0, c1 + 1, dtype=np.int64))
    if not out:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.concatenate(out))
