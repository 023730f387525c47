"""Randomized covering complements and their discrete-to-continuous lifts.

The combinatorial core: if every member A of a finite family in Z_N^d has
|A| > (2/eps) * ln(|family| * N^d), a uniform random B of size floor(eps N^d)
covers (A + B = Z_N^d for all members) with positive probability; the builder
draws, verifies exactly, and retries within a budget, recording the seed and
draw count.  All logs are natural.

Continuous lift (one dyadic scale delta = 2^-g): members are rasterized to
the delta grid, the random complement runs in Z_m^d (m = 2^g) at
eps_cyclic = eps * 6^-d / 2, the result is lifted to the signed box,
neighbor-expanded (b' ~ b, offsets {0,+-1}^d) and clipped to [-1,1]^d.  That
reproduces the proof shape exactly, and the outcome is verified rather than
trusted: pixel coverage is checked at delta/2 with "robust" semantics (a
pixel counts as covered only when it stays covered for every position of the
witness point inside its own pixel), which can never report a false positive.

Convolution counts are computed by FFT and rounded; they are exact because
all counts are integers far below 2^53 and the FFT error at these sizes is
orders of magnitude below 1/2.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from nullcover.elementary import (
    covered_measure,
    first_gap,
    frac,
    merge_int,
    points_plus,
    unique_cells,
)
from nullcover.groups import FiniteAbelianGroup, GroupSubset, sumset_counts


class CoverError(ValueError):
    pass


class ThresholdError(CoverError):
    pass


class RetryBudgetError(CoverError):
    pass


def size_threshold(eps, family_size: int, N: int, d: int) -> float:
    """K = (2/eps) * ln(|family| * N^d); members must exceed K strictly."""
    eps = float(eps)
    if not (0 < eps <= 1):
        raise CoverError("eps must lie in (0, 1]")
    if N < 1 or family_size < 1:
        raise CoverError("need N >= 1 and a nonempty family")
    return (2.0 / eps) * math.log(family_size * float(N) ** d)


@dataclass
class SetFamily:
    """Finite family of point sets over Z_N^d ("grid") or [0,1]^d ("cube").

    Grid members are (n_i, d) integer arrays with entries in [0, N).  Cube
    members are (n_i, d) integer arrays of dyadic coordinates at resolution
    2^-point_exponent (the row x stands for the point x * 2^-point_exponent).
    A non-integral coordinate is a CoverError, never truncated.
    """

    d: int
    kind: str  # "grid" | "cube"
    N: Optional[int] = None
    point_exponent: Optional[int] = None
    members: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("grid", "cube"):
            raise CoverError("kind must be 'grid' or 'cube'")
        if self.kind == "grid" and (self.N is None or self.N < 1):
            raise CoverError("grid family needs N >= 1")
        if self.kind == "cube" and self.point_exponent is None:
            raise CoverError("cube family needs a point resolution exponent")
        self.members = [_integer_rows(m, self.d) for m in self.members]
        if self.kind == "grid":
            for m in self.members:
                if m.size and (m.min() < 0 or m.max() >= self.N):
                    raise CoverError("grid member outside [0, N)^d")

    def to_json_dict(self) -> dict:
        out = {"d": self.d, "kind": self.kind, "members": [m.tolist() for m in self.members]}
        if self.kind == "grid":
            out["N"] = self.N
        else:
            out["point_exponent"] = self.point_exponent
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SetFamily":
        return cls(
            d=int(data["d"]),
            kind=data["kind"],
            N=data.get("N"),
            point_exponent=data.get("point_exponent"),
            members=data["members"],
        )


def _integer_rows(member, d: int) -> np.ndarray:
    """A member as (n, d) int64 rows; int64 input pays only a dtype check.

    Anything else must hold integral values inside int64: a float such as
    1e20 or a Python int beyond 2^63 is a CoverError, never cast or wrapped.
    """
    a = np.asarray(member)
    if a.dtype != np.int64:
        with np.errstate(invalid="ignore"):  # inf or nan mod 1 is nan: no integer
            integral = np.all(np.mod(a, 1) == 0)
        if not integral:
            raise CoverError("member coordinates must be integers")
        if a.size and not (-(1 << 63) <= int(a.min()) and int(a.max()) < 1 << 63):
            raise CoverError("member coordinates must fit in int64")
    return a.astype(np.int64, copy=False).reshape(-1, d)


def _uniform_subset(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Uniform size-subset of range(n) by seeded partial Fisher-Yates."""
    idx = np.arange(n, dtype=np.int64)
    for i in range(size):
        j = i + int(rng.integers(0, n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:size])


@dataclass
class RandomCoverCertificate:
    seed: int
    eps: str
    N: int
    d: int
    family_size: int
    member_sizes: list[int]
    threshold: float
    b_size: int
    draws: int
    expected_uncovered_bound: float

    def to_json_dict(self) -> dict:
        return {"schema": "nullcover/1", "kind": "random_cover", **self.__dict__}


def random_cover_complement(
    family: SetFamily, eps, seed: int, max_draws: int = 64
) -> tuple[GroupSubset, RandomCoverCertificate]:
    """B of size floor(eps N^d), uniform, verified to cover for all members."""
    if family.kind != "grid":
        raise CoverError("random_cover_complement needs a grid family")
    eps = frac(eps)
    N, d = family.N, family.d
    n_total, shape = N**d, (N,) * d
    K = size_threshold(eps, len(family.members), N, d)
    flats = [np.ravel_multi_index(tuple(m.T), shape) for m in family.members]  # C order
    sizes = [int(np.unique(f).size) for f in flats]
    bad = [i for i, s in enumerate(sizes) if s <= K]
    if bad:
        raise ThresholdError(
            f"members {bad} have size <= threshold {K:.3f} (sizes {[sizes[i] for i in bad]})"
        )
    b_size = int(eps * n_total)
    if b_size < 1:
        raise CoverError("eps * N^d below 1: empty complement cannot cover")
    member_masks = []
    for f in flats:
        mask = np.zeros(n_total, dtype=bool)
        mask[f] = True
        member_masks.append(mask.reshape(shape))
    exp_bound = sum(n_total * (1 - s / n_total) ** b_size for s in sizes)
    rng = np.random.default_rng(seed)
    for draw in range(1, max_draws + 1):
        flat = _uniform_subset(rng, n_total, b_size)
        b_mask = np.zeros(n_total, dtype=bool)
        b_mask[flat] = True
        b_nd = b_mask.reshape(shape)
        if all(sumset_counts(mm, b_nd).min() >= 1 for mm in member_masks):
            cert = RandomCoverCertificate(
                seed=seed,
                eps=str(eps),
                N=N,
                d=d,
                family_size=len(family.members),
                member_sizes=sizes,
                threshold=K,
                b_size=b_size,
                draws=draw,
                expected_uncovered_bound=float(exp_bound),
            )
            return GroupSubset(FiniteAbelianGroup(shape), b_mask), cert
    raise RetryBudgetError(f"no covering draw in {max_draws} attempts (seed {seed})")


def lift_cover_to_box(B: GroupSubset):
    """Signed-box lift of a cyclic complement (translates by {-N, 0}^d)."""
    from nullcover.bias_sets import lift_to_signed_box

    moduli = B.group.moduli
    N = moduli[0]
    if any(m != N for m in moduli):
        raise CoverError("lift requires Z_N^d")
    return lift_to_signed_box(B, N, len(moduli))


# ---------------------------------------------------------------------------
# pixel verification (exact, robust semantics)


def _upscale_cells(cells: np.ndarray, d: int, factor: int) -> np.ndarray:
    """Each coarse cell index becomes its factor^d fine subcells."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, d)
    offs = np.array(
        np.meshgrid(*([range(factor)] * d), indexing="ij"), dtype=np.int64
    ).reshape(d, -1).T
    return (cells[:, None, :] * factor + offs[None, :, :]).reshape(-1, d)


def _erode_mask(mask: np.ndarray) -> np.ndarray:
    """Keep t with both t and t + e_j set for every axis j (robust coverage)."""
    out = mask
    for ax in range(mask.ndim):
        shifted = np.roll(out, -1, axis=ax)
        idx = [slice(None)] * mask.ndim
        idx[ax] = -1
        shifted[tuple(idx)] = False
        out = out & shifted
    return out


def pixel_cover_mask(
    member_hcells: np.ndarray,
    b_hcells: np.ndarray,
    d: int,
    window_lo,
    window_hi,
) -> np.ndarray:
    """Mask over [window_lo, window_hi) of h-pixels robustly covered by A + B.

    member_hcells are the pixels met by A; b_hcells the (possibly signed)
    h-cells of the elementary set.  Pixel p is covered when some member pixel
    j satisfies p = j + t + 1 - 1 with t and t + 1 (per axis) both in B; then
    every real witness inside pixel j covers all of pixel p.
    """
    member_hcells = np.asarray(member_hcells, dtype=np.int64).reshape(-1, d)
    b_hcells = np.asarray(b_hcells, dtype=np.int64).reshape(-1, d)
    window_lo = np.asarray(window_lo, dtype=np.int64).reshape(d)
    window_hi = np.asarray(window_hi, dtype=np.int64).reshape(d)
    out = np.zeros(tuple(window_hi - window_lo), dtype=bool)
    if b_hcells.size == 0 or member_hcells.size == 0:
        return out
    a_lo = member_hcells.min(axis=0)
    b_lo = b_hcells.min(axis=0)
    a_idx, b_idx = member_hcells - a_lo, b_hcells - b_lo
    # zero-padded to the linear-convolution shape: cyclic sums never wrap
    full = tuple(int(x) for x in a_idx.max(axis=0) + b_idx.max(axis=0) + 1)
    a_mask = np.zeros(full, dtype=bool)
    a_mask[tuple(a_idx.T)] = True
    b_mask = np.zeros(full, dtype=bool)
    b_mask[tuple(b_idx.T)] = True
    b_er = _erode_mask(b_mask)
    if not b_er.any():
        return out
    covered = sumset_counts(a_mask, b_er) >= 1  # index p relative to a_lo + b_lo, p = j + t
    # pixel p is robustly covered when p = j + t + 1 per axis (t interior start)
    base = a_lo + b_lo + 1
    src_lo = np.maximum(window_lo - base, 0)
    src_hi = np.minimum(window_hi - base, np.array(covered.shape))
    if np.any(src_hi <= src_lo):
        return out
    dst_lo = src_lo + base - window_lo
    dst_hi = src_hi + base - window_lo
    out[tuple(slice(int(l), int(h)) for l, h in zip(dst_lo, dst_hi))] = covered[
        tuple(slice(int(l), int(h)) for l, h in zip(src_lo, src_hi))
    ]
    return out


# ---------------------------------------------------------------------------
# Hausdorff-metric family covering count (greedy upper bound)


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    out = mask.copy()
    for ax in range(mask.ndim):
        acc = out.copy()
        for r in range(1, radius + 1):
            for sgn in (-1, 1):
                sh = np.roll(out, sgn * r, axis=ax)
                idx = [slice(None)] * mask.ndim
                idx[ax] = slice(0, r) if sgn == 1 else slice(-r, None)
                sh[tuple(idx)] = False
                acc |= sh
        out = acc
    return out


def family_hausdorff_cover_count(family: SetFamily, g: int) -> int:
    """Greedy upper bound on the family's delta-covering number (delta = 2^-g)
    in the Hausdorff metric, computed on member pixel masks."""
    if family.kind != "cube":
        raise CoverError("Hausdorff covering count needs a cube family")
    pe = family.point_exponent
    if pe < g:
        raise CoverError("point resolution coarser than delta")
    radius = 1 << (pe - g)
    shape = (1 << pe,) * family.d
    masks = []
    for m in family.members:
        mask = np.zeros(shape, dtype=bool)
        mask[tuple(np.clip(m, 0, (1 << pe) - 1).T)] = True
        masks.append(mask)
    reps: list[tuple[np.ndarray, np.ndarray]] = []
    for mask in masks:
        dil = None
        matched = False
        for rmask, rdil in reps:
            if np.all(mask <= rdil):
                if dil is None:
                    dil = _dilate(mask, radius)
                if np.all(rmask <= dil):
                    matched = True
                    break
        if not matched:
            reps.append((mask, _dilate(mask, radius)))
    return len(reps)


# ---------------------------------------------------------------------------
# discrete-to-continuous: dyadic-cell covering complement


@dataclass
class DyadicCoverResult:
    cells: np.ndarray  # signed delta-cell coordinates, d columns: the cubes of B
    g: int
    certificate: dict


def dyadic_cover_complement(
    family: SetFamily, g: int, eps, seed: int, max_draws: int = 64
) -> DyadicCoverResult:
    """Union B of delta-dyadic cubes (delta = 2^-g) in [-1,1]^d with |B| <= eps
    and A + B covering [0,1]^d for every member, pixel-verified at delta/2.

    Construction follows the proof: rasterize members to the delta grid, draw
    the cyclic complement at eps * 6^-d / 2, lift to the signed box, expand by
    the {0,+-1}^d neighbors, clip to [-1,1]^d.
    """
    eps = frac(eps)
    if family.kind != "cube":
        raise CoverError("dyadic_cover_complement needs a cube family")
    d = family.d
    pe = family.point_exponent
    if pe < g + 1:
        raise CoverError("points must be at least at delta/2 resolution")
    if d * (g + 1) > 62:
        raise CoverError(f"d * (g + 1) = {d * (g + 1)} exceeds 62 bits of one int64 cell key")
    m = 1 << g
    for pts in family.members:
        if pts.size and (pts.min() < 0 or pts.max() >= 1 << pe):
            raise CoverError("cube member outside [0,1]^d")
    grid_members = [unique_cells(pts >> (pe - g), g) for pts in family.members]
    counts = [c.shape[0] for c in grid_members]
    fam_count = family_hausdorff_cover_count(family, g)
    threshold = (18.0**d / float(eps)) * math.log((1 << g) * fam_count)
    bad = [i for i, c in enumerate(counts) if c <= threshold]
    if bad:
        raise ThresholdError(
            f"members {bad} have delta-covering count <= threshold {threshold:.2f} "
            f"(counts {[counts[i] for i in bad]}, family count {fam_count})"
        )
    eps_cyc = eps * Fraction(1, 2 * 6**d)
    grid_family = SetFamily(d=d, kind="grid", N=m, members=grid_members)
    b_cyc, rc_cert = random_cover_complement(grid_family, eps_cyc, seed, max_draws=max_draws)
    box = lift_cover_to_box(b_cyc)
    nbr = np.array(np.meshgrid(*([(-1, 0, 1)] * d), indexing="ij"), dtype=np.int64).reshape(d, -1).T
    cells = (box.points[:, None, :] + nbr[None, :, :]).reshape(-1, d)
    cells = cells[np.all((cells >= -m) & (cells < m), axis=1)]  # keep inside [-1,1]^d
    cells = unique_cells(cells, g + 1, lo=-m)
    measure = Fraction(int(cells.shape[0]), m**d)
    if measure > eps:
        raise CoverError(f"measure {measure} exceeds eps {eps}")
    h_b = _upscale_cells(cells, d, 2)
    window_lo = np.zeros(d, dtype=np.int64)
    window_hi = np.full(d, 1 << (g + 1), dtype=np.int64)
    for i, pts in enumerate(family.members):
        hcells = unique_cells(pts >> (pe - g - 1), g + 1)
        cov = pixel_cover_mask(hcells, h_b, d, window_lo, window_hi)
        if not cov.all():
            raise CoverError(
                f"pixel coverage failed for member {i} (a bug): {int((~cov).sum())} pixels"
            )
    cert = {
        "schema": "nullcover/1",
        "kind": "dyadic_cover",
        "d": d,
        "g": g,
        "eps": str(eps),
        "eps_cyclic": str(eps_cyc),
        "measure": str(measure),
        "cell_count": int(cells.shape[0]),
        "threshold_18d": threshold,
        "threshold_note": "18^d threshold applied to grid counts (constant-level slack vs ball counts)",
        "log_convention": "natural",
        "family_hausdorff_count": fam_count,
        "member_grid_counts": counts,
        "random_cover": rc_cert.to_json_dict(),
        "pixel_resolution_exponent": g + 1,
        "coverage_complete": True,
        "symbol_note": "the measure budget eps is sometimes written eta; one symbol here",
    }
    return DyadicCoverResult(cells=cells, g=g, certificate=cert)


# ---------------------------------------------------------------------------
# greedy piece cover (d = 1)


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
    covered too and its walk would add nothing.  Families of translated maps
    make most members such translates.
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
        probes = pts[::PROBE_STRIDE]
        taken = np.array(offs, dtype=np.int64)
        union = points_plus(pts, taken, taken + piece_w)
        # a target covered now stays covered, so only the open ones are walked
        lo_t, hi_t = targets.T
        open_now = covered_measure(*union, lo_t, hi_t) < hi_t - lo_t
        for lo, hi in targets[open_now].tolist():
            while True:
                u = first_gap(*union, lo, hi)
                if u is None:
                    break
                # witnesses whose offset can sit inside the allowed window
                w0 = int(np.searchsorted(pts, u - (allowed_hi - piece_w), side="left"))
                w1 = int(np.searchsorted(pts, u - allowed_lo, side="right"))
                if w1 <= w0:
                    raise CoverError(
                        f"cannot cover member {mi} at {u} within the allowed window"
                    )
                iu = int(np.searchsorted(pts, u, side="right"))
                cand = set(range(max(w0, iu - N_CANDIDATES // 2), min(w1, iu + 8)))
                if len(cand) < N_CANDIDATES:
                    stride = max(1, (w1 - w0) // (N_CANDIDATES - len(cand) + 1))
                    cand.update(range(w0, w1, stride))
                # u is a gap of pts + union(T), so no u - x is an offset taken
                o = u - pts[sorted(cand)]
                o = o[(o >= allowed_lo) & (o + piece_w <= allowed_hi)]
                if o.size == 0:
                    raise CoverError(
                        f"cannot cover member {mi} at {u} within the allowed window"
                    )
                # fresh measure each piece would add across probe translates;
                # the largest gain wins, ties to the smallest offset
                q0 = np.maximum(probes + o[:, None], lo)
                q1 = np.minimum(probes + o[:, None] + piece_w, hi)
                fresh = np.where(q1 > q0, (q1 - q0) - covered_measure(*union, q0, q1), 0)
                gain = fresh.sum(axis=1)
                best = int(o[gain == gain.max()].min())
                union = _extend(union, pts, best, best + piece_w)
                measure += _insert_offset(offs, best, piece_w)
                if measure > budget:
                    raise CoverError(f"greedy piece cover exceeded the budget {budget}")
    return [(o, o + piece_w) for o in offs]


def _insert_offset(offs: list[int], b: int, w: int) -> int:
    """Insert the new offset b into the sorted offsets of width-w pieces and
    return how much their merged measure grows.  That measure is the sum of
    min(w, next - cur) over the offsets, the last one counting w, so b adds
    its two terms and removes the one of the pair (pred, succ) it splits; a
    missing neighbour counts w."""
    i = bisect.bisect_left(offs, b)
    left = min(w, b - offs[i - 1]) if i else w
    right = min(w, offs[i] - b) if i < len(offs) else w
    split = min(w, offs[i] - offs[i - 1]) if 0 < i < len(offs) else w
    offs.insert(i, b)
    return left + right - split


def _extend(union, pts: np.ndarray, lo: int, hi: int):
    """A merged union grown by pts + [lo, hi]."""
    return merge_int(np.concatenate((union[0], pts + lo)), np.concatenate((union[1], pts + hi)))
