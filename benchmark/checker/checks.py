"""Verdicts on the outputs of every benchmark operation.

Each check recomputes the claimed quantities from the stored sets and the
generated inputs with the arithmetic in this package (gf2, wht, intervals)
and returns a list of problems; an empty list accepts the output.  Nothing
here imports nullcover.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from checker import gf2, intervals, wht

kth_powers = functools.cache(gf2.kth_powers)  # callers only read the arrays


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _frame(x: Fraction, D: int, what: str, problems: list) -> int:
    v = x * D
    if v.denominator != 1:
        problems.append(f"{what} = {x} is off the 1/{D} frame")
    return math.floor(v)


# ---------------------------------------------------------------------------
# recursive-rectangles traces


def check_rrp(data: dict, instance: dict) -> list[str]:
    """K_j coverage for every map, |K_j| <= 1/(5 2^j), nesting in the
    delta_{j-1}-neighbourhood, delta_j <= 2^-j and the Delta-tail."""
    problems: list[str] = []
    meta = data["meta"]
    points = [Fraction(p) for p in meta["points"]]
    maps = [(Fraction(a), Fraction(b)) for a, b in meta["family"]["maps"]]
    if points != instance["points"]:
        problems.append("stored points differ from the generated instance")
    if maps != instance["maps"]:
        problems.append("stored maps differ from the generated instance")
    if len(data["steps"]) != instance["depth"]:
        problems.append(f"{len(data['steps'])} steps for depth {instance['depth']}")
    a0 = Fraction(meta["a0"])
    if a0 != min(points):
        problems.append("a0 is not the least point")
    r_lo, r_hi = Fraction(meta["R"][0]), Fraction(meta["R"][1])
    for scale, off in maps:
        fa0 = scale * a0 + off
        if not (fa0 + r_lo <= 0 and fa0 + r_hi >= 1):
            problems.append("[0,1] not inside f(a0) + R")
    D = int(meta["frame_denominator"])
    image_pts = [
        np.array(sorted(_frame(scale * p + off, D, "f(p)", problems) for p in points), dtype=np.int64)
        for scale, off in maps
    ]
    targets = [
        (_frame(scale * a0 + off + r_lo, D, "target", problems),
         _frame(scale * a0 + off + r_hi, D, "target", problems))
        for scale, off in maps
    ]
    prev = [(r_lo, r_hi)]
    deltas = []
    for i, step in enumerate(data["steps"]):
        j = i + 1
        if int(step["j"]) != j:
            problems.append(f"step {i} is labelled j = {step['j']}")
        cur = [(Fraction(a), Fraction(b)) for a, b in step["k_intervals"]]
        lo = [_frame(a, D, "corner", problems) for a, _ in cur]
        hi = [_frame(b, D, "corner", problems) for _, b in cur]
        m_lo, m_hi = intervals.merge(lo, hi)
        vol = Fraction(intervals.length(m_lo, m_hi), D)
        if vol != Fraction(step["volume"]):
            problems.append(f"step {j}: stored volume {step['volume']} != recomputed {vol}")
        if vol > Fraction(1, 5 << j):
            problems.append(f"step {j}: |K_{j}| = {vol} > 1/(5 2^{j})")
        delta = Fraction(step["delta"])
        deltas.append(delta)
        if not 0 < delta <= Fraction(1, 1 << i):
            problems.append(f"step {j}: delta_{i} = {delta} outside (0, 2^-{i}]")
        # nesting, on a frame fine enough for delta
        L = D * delta.denominator // math.gcd(D, delta.denominator)
        n_lo, n_hi = intervals.merge(
            [math.floor((a - delta) * L) for a, _ in prev],
            [math.floor((b + delta) * L) for _, b in prev],
        )
        if not intervals.inside([a * (L // D) for a in lo], [b * (L // D) for b in hi], n_lo, n_hi):
            problems.append(f"step {j}: K_{j} leaves the delta_{i}-neighbourhood of K_{i}")
        for f_idx, (pts, (t_lo, t_hi)) in enumerate(zip(image_pts, targets)):
            u_lo, u_hi = intervals.sum_union(pts, lo, hi)
            if not intervals.covers(u_lo, u_hi, t_lo, t_hi):
                problems.append(f"step {j}: map {f_idx} leaves f(a0) + R uncovered")
        prev = cur
    for i, d in enumerate(deltas):
        if sum(deltas[i:], Fraction(0)) > 2 * d:
            problems.append(f"Delta_{i} exceeds 2 delta_{i}")
    return problems


# ---------------------------------------------------------------------------
# full-measure cascades


def _threshold(lemma_constant: Fraction, eps: Fraction) -> int:
    need = lemma_constant * (1 - eps) / eps
    return max(math.ceil(need), 1)


def _cyclic_uncovered_runs(runs: list[tuple[int, int]], codes: np.ndarray, m: int) -> int:
    """Residues of Z_m outside (union of cell runs [c0, c1]) + codes."""
    lo, hi = [], []
    for c0, c1 in runs:
        if c1 - c0 + 1 >= m:
            return 0
        s = (codes + c0) % m
        e = s + (c1 - c0 + 1)
        wrap = e > m
        lo += [s, np.zeros(int(wrap.sum()), dtype=np.int64)]
        hi += [np.minimum(e, m), e[wrap] - m]
    m_lo, m_hi = intervals.merge(np.concatenate(lo), np.concatenate(hi))
    return m - intervals.length(m_lo, m_hi)


def _cyclic_uncovered_points(a: np.ndarray, codes: np.ndarray, m: int) -> int:
    covered = np.zeros(m, dtype=bool)
    for x in a.tolist():
        covered[(codes + x) % m] = True
    return int(m - covered.sum())


def _grid_runs(grid: dict, m: int) -> list[tuple[int, int]]:
    """Width-1/m cells of [0,1] holding a point i 2^-s of the half-open region."""
    s = int(grid["spacing_exponent"])
    runs = []
    for a, b in grid["region"]:
        a, b = max(Fraction(a), Fraction(0)), min(Fraction(b), Fraction(1))
        first = math.ceil(a * (1 << s))
        last = math.ceil(b * (1 << s)) - 1
        if last >= first:
            runs.append((first * m >> s, last * m >> s))
    return runs


def check_cascade(data: dict, instance: dict) -> list[str]:
    """Per stage: |B*| = (q-1)/k, ||B||_u^2 q < 1, the template cells, the
    threshold, both cyclic-uncovered counts, |B_j| <= 2^-j and the uncovered
    value <= (1 - 2^-j) eps, all recomputed exactly."""
    problems: list[str] = []
    meta = data["meta"]
    eps = Fraction(meta["eps"])
    grid = meta["grid"]
    if eps != instance["eps"] or int(meta["depth"]) != instance["depth"]:
        problems.append("stored eps or depth differ from the generated instance")
    if int(grid["spacing_exponent"]) != instance["spacing_exponent"] or [
        (Fraction(a), Fraction(b)) for a, b in grid["region"]
    ] != instance["region"]:
        problems.append("stored grid differs from the generated instance")
    steps = data["steps"]
    if len(steps) != instance["depth"] + 1 or Fraction(steps[0]["measure"]) != 2:
        problems.append("stage list does not start from B_0 = [-1, 1]")
    measure, uncovered, cubes = Fraction(2), Fraction(0), 2
    for j, step in enumerate(steps[1:], start=1):
        if int(step["j"]) != j:
            problems.append(f"stage {j} is labelled j = {step['j']}")
        tpl = step["template"]
        par = tpl["params"]
        k, q, m = int(par["k"]), int(par["q"]), int(par["m"])
        t = q.bit_length() - 1
        if q != 1 << t or m != q or int(par["d"]) != 1:
            problems.append(f"stage {j}: q = {q}, m = {m} is not a d = 1 field of order 2^t")
            continue
        if not _is_prime(k) or (q - 1) % k:
            problems.append(f"stage {j}: k = {k} is not a prime dividing q - 1")
            continue
        eta_prop = Fraction(par["eta"])
        if not (1 / eta_prop <= k <= 2 / eta_prop):
            problems.append(f"stage {j}: k = {k} outside [1/eta, 2/eta]")
        codes = kth_powers(t, k)
        if codes.size != (q - 1) // k:
            problems.append(f"stage {j}: |B*| = {codes.size} != (q-1)/k")
        bias = wht.linear_bias(codes, t)
        if not bias * bias * q < 1:
            problems.append(f"stage {j}: ||B||_u^2 q = {bias * bias * q} >= 1")
        if float(bias) != tpl["bias"]:
            problems.append(f"stage {j}: stored bias {tpl['bias']} != {float(bias)}")
        lemma = bias * bias * q**3 / Fraction(codes.size**2)
        if float(lemma) != tpl["lemma_constant"]:
            problems.append(f"stage {j}: stored lemma constant differs")
        eps_j = eps / (1 << j)
        if Fraction(tpl["eps"]) != eps_j:
            problems.append(f"stage {j}: template eps {tpl['eps']} != eps / 2^{j}")
        need = _threshold(lemma, eps_j)
        if need != tpl["threshold_nz"] or need != step["checks"]["threshold_nz"] or need > m:
            problems.append(f"stage {j}: threshold {need} differs from the stored one or exceeds m")
        nbr = np.union1d(codes, codes - 1)
        cells = np.unique(np.concatenate([nbr + w * m for w in tpl["wraps"]]))
        budget = math.floor(Fraction(tpl["eta"]) * m)
        if cells.size != tpl["cell_count"] or budget != tpl["budget_cells"] or cells.size > budget:
            problems.append(f"stage {j}: {cells.size} template cells, budget {budget}, "
                            f"stored {tpl['cell_count']} / {tpl['budget_cells']}")
        if j == 1:
            runs = _grid_runs(grid, m)
            a_cells = np.unique(np.concatenate([np.arange(c0, c1 + 1, dtype=np.int64) for c0, c1 in runs]))
            in_4q = -2 * m - 1 <= cells.min() and cells.max() < 2 * m
        else:
            runs = [(0, m - 1)]
            a_cells = np.arange(m, dtype=np.int64)
            in_4q = -Fraction(3, 2) * m <= cells.min() and cells.max() < Fraction(5, 2) * m
        if not in_4q:
            problems.append(f"stage {j}: template cells leave the 4-fold cube")
        if a_cells.size < need:
            problems.append(f"stage {j}: {a_cells.size} occupied cells < threshold {need}")
            continue
        u_full = _cyclic_uncovered_runs(runs, codes, m)
        sub = a_cells[(np.arange(need, dtype=np.int64) * a_cells.size) // need]
        u_sub = _cyclic_uncovered_points(sub, codes, m)
        chk = step["checks"]
        if u_full != chk["cyclic_uncovered_full"] or u_sub != chk["cyclic_uncovered_subsample"]:
            problems.append(f"stage {j}: cyclic uncovered ({u_full}, {u_sub}) != stored "
                            f"({chk['cyclic_uncovered_full']}, {chk['cyclic_uncovered_subsample']})")
        if u_sub > eps_j * m:
            problems.append(f"stage {j}: subsample leaves {u_sub} > eps_j m residues")
        measure = Fraction(cells.size, m) if j == 1 else measure * Fraction(cells.size, m)
        cubes = cells.size if j == 1 else cubes * cells.size
        uncovered += Fraction(u_full, m)
        if measure != Fraction(step["measure"]) or cubes != step["cube_count"]:
            problems.append(f"stage {j}: measure {step['measure']} / cube count "
                            f"{step['cube_count']} != recomputed {measure} / {cubes}")
        if measure > Fraction(1, 1 << j):
            problems.append(f"stage {j}: |B_{j}| = {measure} > 2^-{j}")
        bound = (1 - Fraction(1, 1 << j)) * eps
        if uncovered != Fraction(chk["uncovered_value"]) or bound != Fraction(chk["uncovered_bound"]):
            problems.append(f"stage {j}: uncovered {chk['uncovered_value']} <= {chk['uncovered_bound']}"
                            f" != recomputed {uncovered} <= {bound}")
        if uncovered > bound:
            problems.append(f"stage {j}: uncovered {uncovered} > (1 - 2^-{j}) eps")
    if Fraction(meta.get("final_measure", "-1")) != measure:
        problems.append("final measure differs from the last stage")
    return problems


# ---------------------------------------------------------------------------
# certificate requests


def check_power_set(codes, group_idx, bias_text: str, t: int, k: int) -> list[str]:
    """The prepared complement: codes, its group indices and its exact bias."""
    problems = []
    own = kth_powers(t, k)
    codes = np.asarray(codes, dtype=np.int64)
    if not np.array_equal(codes, own):
        problems.append(f"B* codes differ from the k-th powers of GF(2^{t})")
    if not np.array_equal(np.sort(np.asarray(group_idx, dtype=np.int64)), np.sort(gf2.bit_reverse(own, t))):
        problems.append("B* group indices are not the coordinate images of its codes")
    if Fraction(bias_text) != wht.linear_bias(own, t):
        problems.append(f"B* bias {bias_text} != {wht.linear_bias(own, t)}")
    return problems


def check_coverage(a_idx, out: dict, b_idx, bias: Fraction, eta: Fraction, t: int) -> list[str]:
    """|A + B|, the ratio, the lemma bound and the headline bound."""
    problems = []
    n = 1 << t
    size_a, size_b = len(set(a_idx)), len(b_idx)
    s = wht.sumset_size(a_idx, b_idx, t)
    ratio = Fraction(n, s)
    lemma = 1 + bias**2 * n**3 / Fraction(size_a * size_b**2)
    headline = 1 + 1 / (4 * eta**2 * size_a)
    if (out["size_a"], out["size_b"], out["sumset_size"], out["group_order"]) != (size_a, size_b, s, n):
        problems.append(f"sizes {out['size_a']}, {out['size_b']}, {out['sumset_size']} != {size_a}, {size_b}, {s}")
    if Fraction(out["ratio"]) != ratio or Fraction(out["lemma_bound"]) != lemma:
        problems.append("ratio or lemma bound differ from the recomputation")
    if Fraction(out["headline_bound"]) != headline:
        problems.append("headline bound differs from 1 + 1/(4 eta^2 |A|)")
    if out["lemma_ok"] is not True or not ratio <= lemma:
        problems.append("lemma bound not certified")
    if out["headline_ok"] != (ratio <= headline):
        problems.append("headline verdict is wrong")
    return problems


def select_parameters(eta: Fraction, m0: int, d: int) -> tuple[int, int]:
    """Smallest prime k in [1/eta, 2/eta], then smallest s with 2^{s(k-1)} >= m0."""
    k = next(n for n in range(math.ceil(1 / eta), math.floor(2 / eta) + 1) if _is_prime(n))
    s = 1
    while (1 << (s * (k - 1))) < m0:
        s += 1
    return k, s


def check_bias_set(req: dict, out: dict) -> list[str]:
    problems = []
    eta = Fraction(req["eta"])
    k, s = select_parameters(eta, req["m0"], req["d"])
    t = req["d"] * s * (k - 1)
    q = 1 << t
    cert = out["certificate"]
    par = cert["params"]
    if (par["k"], par["s"], par["q"]) != (k, s, q):
        problems.append(f"parameters {par['k']}, {par['s']}, {par['q']} != {k}, {s}, {q}")
        return problems
    own = kth_powers(t, k)
    if not np.array_equal(np.asarray(out["codes"], dtype=np.int64), own):
        problems.append("codes differ from the k-th powers")
    if cert["size"] != own.size or own.size != (q - 1) // k or not own.size <= eta * q:
        problems.append(f"|B*| = {cert['size']} against {own.size} = (q-1)/k <= eta q")
    bias = wht.linear_bias(own, t)
    if Fraction(out["bias"]) != bias or cert["bias"] != float(bias):
        problems.append(f"bias {out['bias']} != {bias}")
    if not (bias * bias * q < 1 and cert["bias_ok"] is True and cert["size_ok"] is True):
        problems.append("bias or size certificate fails")
    return problems


def _bits(flat: np.ndarray, n: int) -> int:
    """The set of flat indices in [0, n) as the bits of one integer."""
    mask = np.zeros(n, dtype=bool)
    mask[flat] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _uncovered_by_sumset(a: np.ndarray, b: np.ndarray, N: int, d: int) -> int:
    """|Z_N^d \\ (A + B)| for coordinate arrays a and b, exactly.

    A is a bitset of the row-major indices; a cyclic shift along axis j by k
    moves each bit k * N^(d-1-j) places within its block of N^(d-j) bits.
    A is shifted along the inner axes once per distinct inner part of b,
    then along axis 0 (a plain rotation of all n bits) for each b."""
    n = N**d
    full = (1 << n) - 1
    strides = [N ** (d - 1 - j) for j in range(d)]
    # blocks[j]: bit 0 of every block of N * strides[j] bits
    blocks = [sum(1 << i for i in range(0, n, N * s)) for s in strides]
    A = _bits(a @ np.array(strides, dtype=np.int64), n)
    covered = 0
    inner: dict[tuple, list[int]] = {}
    for row in b.tolist():
        inner.setdefault(tuple(row[1:]), []).append(row[0])
    for rest, firsts in inner.items():
        X = A
        for j, k in enumerate(rest, start=1):
            if k:
                s = strides[j]
                ge = ((1 << N * s) - (1 << k * s)) * blocks[j]  # axis-j coordinate >= k
                X = ((X << k * s) & ge) | ((X >> (N - k) * s) & (full ^ ge))
        for k in firsts:
            s = k * strides[0]
            covered |= ((X << s) | (X >> (n - s))) & full if s else X
    return n - bin(covered).count("1")


def check_random_cover(req: dict, out: dict) -> list[str]:
    """|B| = floor(eps N^d) and A + B = Z_N^d for every member."""
    problems = []
    N, d = req["N"], req["d"]
    n = N**d
    b = np.asarray(out["b_indices"], dtype=np.int64)
    if b.size != math.floor(Fraction(req["eps"]) * n) or np.unique(b).size != b.size:
        problems.append(f"|B| = {b.size} != floor(eps N^d)")
    if b.size and (b.min() < 0 or b.max() >= n):
        problems.append("B leaves Z_N^d")
        return problems
    b_coords = np.stack([(b // N ** (d - 1 - j)) % N for j in range(d)], axis=1)
    for i, member in enumerate(req["members"]):
        a = np.asarray(member, dtype=np.int64).reshape(-1, d)
        missed = _uncovered_by_sumset(a, b_coords, N, d)
        if missed:
            problems.append(f"member {i}: A + B misses {missed} elements")
    return problems


def check_dyadic_cover(req: dict, out: dict) -> list[str]:
    """|B| <= eps and A + B covers [0,1]^d as real sets, member by member.

    Points and cell corners are integers on the 2^-pe frame, so the closed
    cubes a + c are unions of frame pixels and [0,1]^d is covered exactly
    when each of its (2^pe)^d pixels lies in one of them."""
    problems = []
    d, g, pe = req["d"], req["g"], req["point_exponent"]
    m, side, size = 1 << g, 1 << (pe - g), 1 << pe
    cells = np.asarray(out["cells"], dtype=np.int64).reshape(-1, d)
    if np.unique(cells, axis=0).shape[0] != cells.shape[0]:
        problems.append("repeated cells")
    if cells.size and (cells.min() < -m or cells.max() >= m):
        problems.append("cells leave [-1, 1]^d")
        return problems
    measure = Fraction(cells.shape[0], m**d)
    if measure != Fraction(out["measure"]) or measure > Fraction(req["eps"]):
        problems.append(f"measure {out['measure']} (recomputed {measure}) against eps {req['eps']}")
    for i, member in enumerate(req["members"]):
        pts = np.asarray(member, dtype=np.int64).reshape(-1, d)
        a_mask = np.zeros((size,) * d, dtype=bool)
        a_mask[tuple(pts.T)] = True
        corner_hit = np.zeros((size,) * d, dtype=bool)
        for c in cells.tolist():
            shift = [cj * side for cj in c]
            src = tuple(slice(max(0, -s), min(size, size - s)) for s in shift)
            dst = tuple(slice(max(0, s), min(size, size + s)) for s in shift)
            corner_hit[dst] |= a_mask[src]
        covered = corner_hit.copy()
        for ax in range(d):
            grown = covered.copy()
            for o in range(1, side):
                idx = [slice(None)] * d
                src = [slice(None)] * d
                idx[ax], src[ax] = slice(o, None), slice(None, -o)
                grown[tuple(idx)] |= covered[tuple(src)]
            covered = grown
        if not covered.all():
            problems.append(f"member {i}: {int((~covered).sum())} pixels of [0,1]^{d} uncovered")
    return problems


def cantor_cells(base: int, digits: list[int], depth: int) -> tuple[int, np.ndarray]:
    """Level-k dyadic cells meeting a level-depth base-b digit Cantor set with
    positive measure, k the least level with 2^-k <= b^-depth."""
    k = 0
    while (1 << k) < base**depth:
        k += 1
    den = base**depth
    nums = [0]
    for _ in range(depth):
        nums = [n * base + dg for n in nums for dg in digits]
    cells = set()
    for n in nums:
        j0 = (n << k) // den
        j1 = -((-(n + 1) << k) // den) - 1
        cells.update(range(j0, j1 + 1))
    return k, np.array(sorted(cells), dtype=np.int64)


def check_largeness(req: dict, out: dict) -> list[str]:
    """Pruned set inside the model; every per-cube count recounted and at
    least N_k = eta / (2^(3k+1) delta_k^alpha)."""
    problems = []
    k, own = cantor_cells(req["base"], req["digits"], req["depth"])
    if out["k"] != k:
        return [f"raster level {out['k']} != {k}"]
    pruned = np.asarray(out["pruned"], dtype=np.int64).reshape(-1)
    if not np.isin(pruned, own).all() or pruned.size == 0:
        problems.append("pruned set is empty or leaves the model")
    counts = out["per_cube_counts"]
    for lvl, g in enumerate(req["schedule_exponents"]):
        cubes = sorted(set((pruned >> (k - lvl)).tolist())) if lvl else [0]
        recorded = counts.get(str(lvl), [])
        if [c[0][0] for c in recorded] != cubes:
            problems.append(f"level {lvl}: recorded cubes differ from the pruned set's")
            continue
        n_k = req["eta"] / (2.0 ** (3 * lvl + 1) * (2.0**-g) ** req["alpha"])
        for (cube,), count in ((c[0], c[1]) for c in recorded):
            sel = pruned[(pruned >> (k - lvl)) == cube] if lvl else pruned
            own_count = len(set((sel >> (k - g)).tolist()))
            if own_count != count or own_count < n_k:
                problems.append(f"level {lvl} cube {cube}: count {count}, recount {own_count}, N_k {n_k:.3f}")
    if out["passed"] is not True:
        problems.append("largeness certificate reports failure")
    return problems


def check_log_dimension(req: dict, out: dict) -> list[str]:
    k, own = cantor_cells(req["base"], req["digits"], req["depth"])
    scales = list(range(1, k + 1))
    counts = [len(set((own >> (k - g)).tolist())) for g in scales]
    if out["scales"] != scales or out["counts"] != counts:
        return [f"scales/counts {out['scales']} {out['counts']} != {scales} {counts}"]
    return []
