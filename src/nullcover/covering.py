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

The 1-d greedy piece cover of the recursive-rectangles engine is
`elementary.greedy_piece_cover`; its `CoverError` is imported here, so the
errors of both modules are one class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from nullcover.elementary import CoverError, box_translates, frac, json_int, unique_cells
from nullcover.groups import FiniteAbelianGroup, GroupSubset, sumset_counts


# the largest dense mask a construction allocates holds 2^MAX_MASK_BITS cells
# (one member row, or one pixel grid); the constructions in use need 2^16
MAX_MASK_BITS = 24
# the draws `random_cover_complement` makes before it raises RetryBudgetError
MAX_DRAWS = 64


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
        """A family read from JSON: d in [1, 62], and N >= 1 (grid) or
        point_exponent in [0, 62] (cube), as JSON integers, and a list of
        members; CoverError otherwise."""
        d = json_int(data, "d", 1, 62, CoverError)
        kind, members = data.get("kind"), data.get("members")
        if not isinstance(members, list):
            raise CoverError("members must be a list")
        if kind == "grid":
            return cls(d=d, kind=kind, N=json_int(data, "N", 1, math.inf, CoverError), members=members)
        pe = json_int(data, "point_exponent", 0, 62, CoverError) if kind == "cube" else None
        return cls(d=d, kind=kind, point_exponent=pe, members=members)  # any other kind is refused


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
    """Uniform size-subset of range(n) by seeded partial Fisher-Yates.

    Swap i trades slot i with slot j_i = i + U[0, n - i); all the offsets come
    from one vector draw, which numpy answers with the values of the scalar
    draws in order (pinned by a test).  Only the slots a swap has moved are
    stored, so the cost is O(size), whatever n.
    """
    js = rng.integers(0, n - np.arange(size, dtype=np.int64)) + np.arange(size)
    moved: dict[int, int] = {}  # slot -> the value now there, where not the slot itself
    out = []
    for i, j in enumerate(js.tolist()):
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)  # slot i is never read again: j_k >= k > i
    return np.sort(np.array(out, dtype=np.int64))


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


def random_cover_complement(family: SetFamily, eps, seed: int) -> tuple[GroupSubset, RandomCoverCertificate]:
    """B of size floor(eps N^d), uniform, verified to cover for all members
    within MAX_DRAWS draws."""
    if family.kind != "grid":
        raise CoverError("random_cover_complement needs a grid family")
    eps = frac(eps)
    N, d = family.N, family.d
    n_total, shape = N**d, (N,) * d
    if n_total > 1 << MAX_MASK_BITS:
        raise CoverError(f"N^d = {N}^{d} cells exceed 2^{MAX_MASK_BITS}")
    K = size_threshold(eps, len(family.members), N, d)
    member_masks = np.zeros((len(family.members), n_total), dtype=bool)  # one row per member
    for mask, m in zip(member_masks, family.members):
        mask[np.ravel_multi_index(tuple(m.T), shape)] = True  # C order
    sizes = np.count_nonzero(member_masks, axis=1).tolist()
    member_masks = member_masks.reshape((len(family.members),) + shape)
    bad = [i for i, s in enumerate(sizes) if s <= K]
    if bad:
        raise ThresholdError(
            f"members {bad} have size <= threshold {K:.3f} (sizes {[sizes[i] for i in bad]})"
        )
    b_size = int(eps * n_total)
    if b_size < 1:
        raise CoverError("eps * N^d below 1: empty complement cannot cover")
    exp_bound = sum(n_total * (1 - s / n_total) ** b_size for s in sizes)
    rng = np.random.default_rng(seed)
    for draw in range(1, MAX_DRAWS + 1):
        flat = _uniform_subset(rng, n_total, b_size)
        b_mask = np.zeros(n_total, dtype=bool)
        b_mask[flat] = True
        b_nd = b_mask.reshape(shape)
        # one batched call transforms B once for every member (no early exit on a miss)
        if sumset_counts(member_masks, b_nd).min() >= 1:
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
    raise RetryBudgetError(f"no covering draw in {MAX_DRAWS} attempts (seed {seed})")


# ---------------------------------------------------------------------------
# pixel verification (exact, robust semantics)


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
    member_hcells: Sequence[np.ndarray],
    b_hcells: np.ndarray,
    d: int,
    window_lo,
    window_hi,
) -> np.ndarray:
    """Masks over [window_lo, window_hi) of h-pixels robustly covered by A + B,
    one per member A, stacked on a leading axis.

    member_hcells holds each member's pixels, an (n, d) array per member; B is
    eroded, folded and transformed once for all of them.  b_hcells are the
    (possibly signed) h-cells of the elementary set.  Pixel p is covered when
    some member pixel j satisfies p = j + t + 1 - 1 with t and t + 1 (per
    axis) both in B; then every real witness inside pixel j covers all of
    pixel p.
    """
    members = [np.asarray(m, dtype=np.int64).reshape(-1, d) for m in member_hcells]
    b_hcells = np.asarray(b_hcells, dtype=np.int64).reshape(-1, d)
    window_lo = np.asarray(window_lo, dtype=np.int64).reshape(d)
    window_hi = np.asarray(window_hi, dtype=np.int64).reshape(d)
    out = np.zeros((len(members),) + tuple(window_hi - window_lo), dtype=bool)
    filled = [m for m in members if m.size]
    if b_hcells.size == 0 or not filled or out.size == 0:
        return out
    # erode B on its own linear frame: a cyclic erosion would join its two ends
    b_lo = b_hcells.min(axis=0)
    b_idx = b_hcells - b_lo
    b_mask = np.zeros(tuple(int(x) for x in b_idx.max(axis=0) + 1), dtype=bool)
    b_mask[tuple(b_idx.T)] = True
    t = np.argwhere(_erode_mask(b_mask)) + b_lo
    if t.size == 0:
        return out
    # The sums s = j + t of every member lie in [s_lo, s_hi] and pixel p reads
    # s = p - 1, so the reads r lie in [window_lo - 1, window_hi - 2].  On a
    # cyclic axis of length L > max(r_hi - s_lo, s_hi - r_lo), |s - r| < L for
    # every sum and read, so s = r mod L only when s = r: no sum aliases into a
    # read, and the smallest power of two above that bound is exact and fast.
    s_lo = np.min([m.min(axis=0) for m in filled], axis=0) + t.min(axis=0)
    s_hi = np.max([m.max(axis=0) for m in filled], axis=0) + t.max(axis=0)
    reach = np.maximum(window_hi - 2 - s_lo, s_hi - window_lo + 1)
    L = tuple(1 << int(x).bit_length() for x in reach)
    a_masks = np.zeros((len(members),) + L, dtype=bool)
    for a_mask, m in zip(a_masks, members):
        a_mask[tuple((m % L).T)] = True
    t_mask = np.zeros(L, dtype=bool)
    t_mask[tuple((t % L).T)] = True
    covered = sumset_counts(a_masks, t_mask) >= 1  # index s mod L, s = j + t
    reads = [(np.arange(lo, hi) - 1) % m for lo, hi, m in zip(window_lo.tolist(), window_hi.tolist(), L)]
    return covered[(slice(None),) + np.ix_(*reads)]


# ---------------------------------------------------------------------------
# Hausdorff-metric family covering count (greedy upper bound)


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Cells within sup-distance `radius` of the mask, without wrapping: per
    axis, a window sum of a prefix sum, so linear in the mask."""
    out = mask
    for ax in range(mask.ndim):
        n = mask.shape[ax]
        r = min(radius, n - 1)
        c = np.moveaxis(np.cumsum(out, axis=ax, dtype=np.int32), ax, 0)  # c[i] = #set in [0, i]
        window = np.empty_like(c)  # #set in [i - r, i + r], clipped to [0, n)
        window[:n - r] = c[r:]
        window[n - r:] = c[n - 1]
        window[r + 1:] -= c[:n - r - 1]
        out = np.moveaxis(window > 0, 0, ax)
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


def dyadic_cover_complement(family: SetFamily, g: int, eps, seed: int) -> DyadicCoverResult:
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
    if not family.members:
        raise CoverError("the family has no members")
    # the Hausdorff count masks hold 2^(d pe) cells, the pixel check's at most 2^(d (g + 3))
    if d * max(pe, g + 3) > MAX_MASK_BITS:
        raise CoverError(f"pixel masks of 2^{d * max(pe, g + 3)} cells exceed 2^{MAX_MASK_BITS}")
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
    b_cyc, rc_cert = random_cover_complement(grid_family, eps_cyc, seed)
    # the signed-box lift (translates by {-m, 0}^d) and the neighbours
    # (translates by {-1, 0, 1}^d) in one step: {-m, 0} + {-1, 0, 1} per axis
    cells = box_translates(b_cyc.member_array(), (-m - 1, -m, -m + 1, -1, 0, 1), d)
    cells = cells[np.all((cells >= -m) & (cells < m), axis=1)]  # keep inside [-1,1]^d
    cells = unique_cells(cells, g + 1, lo=-m)
    measure = Fraction(int(cells.shape[0]), m**d)
    if measure > eps:
        raise CoverError(f"measure {measure} exceeds eps {eps}")
    h_b = box_translates(2 * cells, (0, 1), d)  # each cell's 2^d half-width subcells
    window_lo = np.zeros(d, dtype=np.int64)
    window_hi = np.full(d, 1 << (g + 1), dtype=np.int64)
    hcells = [unique_cells(pts >> (pe - g - 1), g + 1) for pts in family.members]
    for i, cov in enumerate(pixel_cover_mask(hcells, h_b, d, window_lo, window_hi)):
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
