"""Seeded inputs for the three workloads and the tamper mutations.

Everything here is a pure function of (seed, round): the same seed gives the
same instances, requests and mutations in the same order.  The package under
test is not imported; the points, maps, regions and request payloads are
built here and handed to it.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

WORKLOAD_IDS = {"rrp": 1, "cascade": 2, "certify": 3}

# rrp: 256 snapped middle-thirds points and 8 maps x/2 + o, o = i 2^-20, i < 256
RRP_CANTOR_DEPTH = 7
RRP_GRID_EXP = 12
RRP_MAPS = 8
RRP_DEPTH = 3
RRP_OFFSET_EXP = 20
RRP_OFFSET_SLOTS = 256
RRP_RHO = [Fraction(1), Fraction(1, 1 << 10), Fraction(1, 1 << 11)]
RRP_PIECE_W = [12, 12, 12]

CASCADE_EPS = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(3, 8)]
CASCADE_DEPTH = 3
CASCADE_SPACING = 50

# certify: the prepared complement B* over (Z_2)^16
CERTIFY_ETA = Fraction(1, 3)
CERTIFY_M0 = 256
CERTIFY_D = 2
CERTIFY_T = 16
CERTIFY_K = 3
COVERAGE_SIZES = [16, 32, 64, 128, 256]
# (eta, m0 range, d) with q = 2^12, and with q <= 2^8
BIAS_SETS_Q12 = [
    (Fraction(1, 3), (1025, 4096), 1),
    (Fraction(1, 3), (17, 64), 2),
    (Fraction(1, 3), (5, 16), 3),
    (Fraction(1, 4), (257, 4096), 1),
    (Fraction(1, 4), (1, 16), 3),
]
BIAS_SETS_SMALL = [
    (Fraction(1, 3), (1, 16), 1),
    (Fraction(1, 3), (5, 16), 2),
    (Fraction(1, 4), (17, 256), 1),
    (Fraction(1, 6), (1, 64), 1),
]
# (N, d, member size range) at eps = 1/64: |B| = 1024, and every member is
# far above the threshold (128 ln(3 N^d)), so the first draw covers
RANDOM_COVER_EPS = "1/64"
RANDOM_COVERS = [(1 << 16, 1, 2000, 2400)] + [(256, 2, 2000, 2400)] * 4
LARGENESS_DIGITS = [[0, 1], [0, 2], [1, 2]]


def round_rng(seed: int, workload: str, r: int, stream: int = 0) -> np.random.Generator:
    """Stream 0 draws a round's inputs, stream 1 its tamper mutations."""
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], r, stream])


# ---------------------------------------------------------------------------
# rrp


def middle_thirds_snapped(depth: int, grid_exp: int) -> list[Fraction]:
    """Endpoints of the level-`depth` middle-thirds intervals, each rounded to
    the nearest multiple of 2^-grid_exp (ties down)."""
    den = 3**depth
    ends = set()
    starts = [0]
    for _ in range(depth):
        starts = [3 * s + dg for s in starts for dg in (0, 2)]
    for s in starts:
        ends.update((s, s + 1))
    scale = 1 << grid_exp
    return sorted({Fraction(math.floor(Fraction(e * scale, den) + Fraction(1, 2)), scale) for e in ends})


def rrp_instance(seed: int, r: int) -> dict:
    rng = round_rng(seed, "rrp", r)
    slots = sorted(int(x) for x in rng.choice(RRP_OFFSET_SLOTS, size=RRP_MAPS, replace=False))
    return {
        "points": middle_thirds_snapped(RRP_CANTOR_DEPTH, RRP_GRID_EXP),
        "maps": [(Fraction(1, 2), Fraction(s, 1 << RRP_OFFSET_EXP)) for s in slots],
        "depth": RRP_DEPTH,
        "rho": RRP_RHO,
        "piece_w": RRP_PIECE_W,
    }


def rrp_spec(inst: dict) -> dict:
    """The JSON handed to the build worker."""
    return {
        "points": [str(p) for p in inst["points"]],
        "maps": [[str(a), str(b)] for a, b in inst["maps"]],
        "depth": inst["depth"],
        "rho": [str(x) for x in inst["rho"]],
        "piece_w": inst["piece_w"],
    }


def rrp_tampers(trace: dict, seed: int, r: int) -> list[tuple[str, dict]]:
    """Three single-value mutations: a corner of K_j, a stored volume, and a
    delta_j raised above 2^-j (the step j + 1 record holds delta_j)."""
    rng = round_rng(seed, "rrp", r, stream=1)
    out = []
    steps = trace["steps"]

    t = _copy(trace)
    s = int(rng.integers(len(steps)))
    iv = t["steps"][s]["k_intervals"]
    i = int(rng.integers(len(iv)))
    lo, hi = Fraction(iv[i][0]), Fraction(iv[i][1])
    iv[i][1] = str(hi - (hi - lo) / 2)
    out.append(("corner", t))

    t = _copy(trace)
    s = int(rng.integers(len(steps)))
    vol = Fraction(t["steps"][s]["volume"])
    t["steps"][s]["volume"] = str(vol + Fraction(1, int(t["meta"]["frame_denominator"])))
    out.append(("volume", t))

    t = _copy(trace)
    s = int(rng.integers(len(steps)))
    t["steps"][s]["delta"] = str(Fraction(2, 1 << s))
    out.append(("delta", t))
    return out


# ---------------------------------------------------------------------------
# cascade


def cascade_instance(seed: int, r: int) -> dict:
    rng = round_rng(seed, "cascade", r)
    eps = CASCADE_EPS[int(rng.integers(len(CASCADE_EPS)))]
    a = int(rng.integers(0, 8))
    b = int(rng.integers(a + 1, 9))
    return {
        "eps": eps,
        "region": [(Fraction(a, 8), Fraction(b, 8))],
        "spacing_exponent": CASCADE_SPACING,
        "depth": CASCADE_DEPTH,
    }


def cascade_spec(inst: dict) -> dict:
    return {
        "eps": str(inst["eps"]),
        "region": [[str(a), str(b)] for a, b in inst["region"]],
        "spacing_exponent": inst["spacing_exponent"],
        "depth": inst["depth"],
    }


def cascade_tampers(trace: dict, seed: int, r: int) -> list[tuple[str, dict]]:
    """One mutation: a stage measure halved."""
    rng = round_rng(seed, "cascade", r, stream=1)
    t = _copy(trace)
    s = 1 + int(rng.integers(len(t["steps"]) - 1))
    t["steps"][s]["measure"] = str(Fraction(t["steps"][s]["measure"]) / 2)
    return [("measure", t)]


def _copy(data: dict) -> dict:
    return json.loads(json.dumps(data))


# ---------------------------------------------------------------------------
# certify


def _draw_m0(rng, lo_hi) -> int:
    return int(rng.integers(lo_hi[0], lo_hi[1] + 1))


def _grid_member(rng, N: int, d: int, lo: int, hi: int) -> list:
    flat = rng.choice(N**d, size=int(rng.integers(lo, hi + 1)), replace=False)
    return np.stack([(flat // N ** (d - 1 - j)) % N for j in range(d)], axis=1).tolist()


def _cube_member(rng, d: int, pe: int, density: float) -> list:
    mask = rng.random((1 << pe,) * d) < density
    return np.argwhere(mask).tolist()


def popcount_profile(n: int, t: int) -> list[int]:
    """The popcounts of n elements of (Z_2)^t, at the midpoint quantiles
    (i + 1/2)/n of Binomial(t, 1/2), the popcount of a uniform element."""
    cdf = np.cumsum([math.comb(t, k) for k in range(t + 1)]) / 2**t
    return [int(np.searchsorted(cdf, (i + 0.5) / n, side="right")) for i in range(n)]


@functools.cache
def _by_popcount(t: int) -> list[np.ndarray]:
    idx = np.arange(1 << t)
    pc = np.array([i.bit_count() for i in range(1 << t)])
    return [idx[pc == k] for k in range(t + 1)]


def coverage_set(rng, n: int, t: int) -> list[int]:
    """n distinct elements of (Z_2)^t with the popcounts popcount_profile(n, t),
    each drawn uniformly among the elements of its popcount.  A's popcounts
    fix the cost of `groups.sumset`, which rolls B once per element of A over
    every axis the element shifts, 2^popcount block copies, so a uniform A
    would make the coverage time a matter of the seed."""
    pools = _by_popcount(t)
    counts = sorted(Counter(popcount_profile(n, t)).items())
    return sorted(int(x) for k, c in counts for x in rng.choice(pools[k], size=c, replace=False))


def certify_round(seed: int, r: int) -> list[dict]:
    """One round of 26 certificate requests, always the same kinds with the
    same parameters in the same order; only their contents come from the
    seed, so every round costs about the same.  The five coverage
    certificates take about 1.4 s.  The other 21 requests, the
    constructions, take about 0.55 s, and no layer has most of that: bias
    sets about a fifth, random covers a tenth, dyadic covers a quarter,
    largeness and log-dimension two fifths."""
    rng = round_rng(seed, "certify", r)
    reqs = []
    for n in COVERAGE_SIZES:
        reqs.append({"op": "coverage", "a": coverage_set(rng, n, CERTIFY_T)})
    for eta, m0_range, d in BIAS_SETS_Q12 + BIAS_SETS_SMALL:
        reqs.append({"op": "bias_set", "eta": str(eta), "m0": _draw_m0(rng, m0_range), "d": d})
    for N, d, lo, hi in RANDOM_COVERS:
        reqs.append({
            "op": "random_cover", "d": d, "N": N, "eps": RANDOM_COVER_EPS, "seed": int(rng.integers(1 << 30)),
            "members": [_grid_member(rng, N, d, lo, hi) for _ in range(3)],
        })
    reqs.append({
        "op": "dyadic_cover", "d": 1, "g": 8, "point_exponent": 9, "eps": "9/10",
        "seed": int(rng.integers(1 << 30)),
        "members": [_cube_member(rng, 1, 9, 0.85) for _ in range(3)],
    })
    reqs.append({
        "op": "dyadic_cover", "d": 2, "g": 6, "point_exponent": 7, "eps": "9/10",
        "seed": int(rng.integers(1 << 30)),
        "members": [_cube_member(rng, 2, 7, 0.8) for _ in range(2)],
    })
    for digits in LARGENESS_DIGITS:
        reqs.append({
            "op": "largeness", "base": 3, "depth": 8, "alpha": 0.7, "eta": 0.3,
            "digits": digits, "schedule_exponents": [1, 7, 13],
        })
    for _ in range(2):
        digits = sorted(int(x) for x in rng.choice(5, size=3, replace=False))
        reqs.append({"op": "log_dimension", "base": 5, "digits": digits, "depth": 5})
    return reqs
