"""Acceptance gate: one test per criterion, exact tolerances, one printed
pass/fail line each.

Criterion 3 appears twice.  The always-true bias-to-sumset bound
1 + ||B||_u^2 |G|^3 / (|A| |B|^2) is asserted with zero violations (3a).
3b checks the headline constant over the same samples, which one
module-scoped fixture draws once for both.  It asserts the
eta-only bound 1 + (k q/(q-1))^2/|A| that the parameter chain proves
(||B||_u^2 q < 1 and |B*| = (q-1)/k with k <= 2/eta), with zero violations,
and it asserts that the stated constant 1 + 1/(4 eta^2 |A|) is refuted: at
q = 4, eta = 1/3 a singleton A has ratio 4 > 13/4, and verify_coverage_bound
reports exactly that.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nullcover.bias_sets import (
    build_bias_complement,
    select_parameters,
    verify_coverage_bound,
)
from nullcover.covering import SetFamily, dyadic_cover_complement, random_cover_complement
from nullcover.engine import (
    AffineMap,
    FunctionFamily,
    GridSet,
    full_measure_run,
    middle_thirds_points,
    rrp_run,
)
from nullcover.fractal import (
    GaugeFunction,
    generate_cantor,
    packing_number_greedy,
    uniform_large_subset,
)
from nullcover.gf import coordinate_subset, kth_power_codes, make_field
from nullcover.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    GroupSubset,
    convolve,
    dft,
    linear_bias,
    sumset_counts,
)


def report(num: int, ok: bool, detail: str):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------


def divisors_upto(n: int, cap: int) -> list[int]:
    return [k for k in range(1, min(n, cap) + 1) if n % k == 0]


def test_criterion_01_gauss_sum_bias():
    """Bias of B* below q^-1/2 for every q <= 2^16, p in {2,3,5,7}, k <= 50."""
    t0 = time.time()
    checked = 0
    worst_margin = float("inf")
    for p in (2, 3, 5, 7):
        n = 1
        while p**n <= 1 << 16:
            spec = make_field(p, n)
            q = spec.q
            for k in divisors_upto(q - 1, 50):
                codes = kth_power_codes(spec, k)
                bias = linear_bias(coordinate_subset(spec, codes))
                bound = q**-0.5
                if p == 2:
                    assert isinstance(bias, Fraction)
                    assert bias**2 * q < 1, f"exact bias bound failed at q={q}, k={k}"
                else:
                    assert float(bias) < bound + 1e-9, f"bias bound failed at q={q}, k={k}"
                worst_margin = min(worst_margin, bound - float(bias))
                checked += 1
            n += 1
    elapsed = time.time() - t0
    report(1, elapsed < 60, f"{checked} (q,k) pairs, min margin {worst_margin:.2e}, {elapsed:.1f}s")
    assert checked > 60
    assert elapsed < 60


def _rotation_table(n: int) -> np.ndarray:
    """rot[b, A] = bitmask of A rotated by +b in Z_n."""
    masks = np.arange(1 << n, dtype=np.uint32)
    table = np.empty((n, 1 << n), dtype=np.uint32)
    full = (1 << n) - 1
    for b in range(n):
        table[b] = ((masks << b) | (masks >> (n - b))) & full if b else masks
    return table


def test_criterion_02_bias_to_sumset():
    """ratio <= 1 + bias^2 |G|^3/(|A||B|^2): exhaustive n <= 12 + 10^4 random."""
    t0 = time.time()
    total = 0
    # exhaustive cyclic part: all nonempty (A, B) in Z_n
    for n in range(1, 13):
        size = 1 << n
        rot = _rotation_table(n)
        # T[B] = bitmask of A + B for every A, built by subset DP over B's bits
        T = np.zeros((size, size), dtype=np.uint32)
        for B in range(1, size):
            low = B & (-B)
            T[B] = T[B ^ low] | rot[low.bit_length() - 1]
        sum_sizes = np.bitwise_count(T[1:, 1:]).astype(np.float64)  # [B-1, A-1]
        bits = ((np.arange(size)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        fhat = np.fft.fft(bits, axis=1) / n
        bias = np.abs(fhat[:, 1:]).max(axis=1) if n > 1 else np.zeros(size)
        card = np.bitwise_count(np.arange(size, dtype=np.uint32)).astype(np.float64)
        ratio = n / sum_sizes
        bound = 1 + (bias[1:][:, None] ** 2) * n**3 / (card[1:][None, :] * card[1:][:, None] ** 2)
        viol = ratio > bound + 1e-9
        assert not viol.any(), f"violation in exhaustive Z_{n}"
        total += (size - 1) ** 2
    # random pairs on groups up to 4096
    rng = np.random.default_rng(2024)
    shapes = [(4096,), (64, 64), (16, 16, 16), (2,) * 12, (3, 3, 3, 3), (45, 91), (17,), (1024,)]
    pairs = 0
    while pairs < 10_000:
        moduli = shapes[pairs % len(shapes)]
        order = int(np.prod(moduli))
        ma = rng.random(order) < rng.uniform(0.05, 0.95)
        mb = rng.random(order) < rng.uniform(0.05, 0.95)
        if not ma.any() or not mb.any():
            continue
        fa = np.fft.rfftn(ma.reshape(moduli).astype(float))
        fb = np.fft.rfftn(mb.reshape(moduli).astype(float))
        counts = np.rint(np.fft.irfftn(fa * fb, s=moduli, axes=range(len(moduli))))
        sum_size = int((counts >= 1).sum())
        fhat = np.fft.fftn(mb.reshape(moduli).astype(float)).reshape(-1) / order
        bias = float(np.abs(fhat[1:]).max())
        ratio = order / sum_size
        bound = 1 + bias**2 * order**3 / (int(ma.sum()) * int(mb.sum()) ** 2)
        assert ratio <= bound + 1e-9, f"violation on random pair {pairs} ({moduli})"
        pairs += 1
    total += pairs
    elapsed = time.time() - t0
    report(2, elapsed < 120, f"{total} pairs exhaustive+random, zero violations, {elapsed:.1f}s")
    assert elapsed < 120


def _criterion3_cells():
    cells = []
    for eta in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)):
        for d in (1, 2):
            seen = set()
            for m0 in range(1, 65):
                params = select_parameters(eta, m0, d, cap=1 << 20)
                key = (params.k, params.s)
                if key in seen or params.q > 1 << 20:
                    continue
                seen.add(key)
                cells.append(params)
    return cells


def _coverage_ratios_random(comp, n_draws: int, seed: int):
    """(ratio, |A|) samples for seeded nonempty uniform-random subsets."""
    g = comp.subset.group
    order = g.order
    moduli = g.moduli
    rng = np.random.default_rng(seed)
    b = comp.subset.mask.reshape(moduli)
    out = []
    while len(out) < n_draws:
        ma = rng.random(order) < 0.5
        if not ma.any():
            continue
        counts = sumset_counts(ma.reshape(moduli), b)
        out.append((order / int(np.count_nonzero(counts)), int(ma.sum())))
    return out


def _coverage_ratios_small(comp):
    """All singleton and pair ratios (exhaustive over translation classes)."""
    g = comp.subset.group
    assert g.is_elementary_2  # B = -B, so the autocorrelation is B's sum count
    order = g.order
    b = comp.subset.mask.reshape(g.moduli)
    size_b = int(comp.subset.mask.sum())
    out = [(order / size_b, 1)]
    inter = sumset_counts(b, b).reshape(-1)  # |B ∩ (B+c)| for every difference c
    union = 2 * size_b - inter[1:]
    for u in union:
        out.append((order / float(u), 2))
    return out


@pytest.fixture(scope="module")
def criterion3_samples():
    """(params, comp, samples) per criterion-3 cell, drawn once for 3a and 3b."""
    out = []
    for params in _criterion3_cells():
        comp = build_bias_complement(params, cap=1 << 20)
        samples = _coverage_ratios_random(comp, 1000, seed=params.q * 7 + params.k)
        if params.q <= 256:
            samples += _coverage_ratios_small(comp)
        if params.q <= 16:
            samples += _exhaustive_ratios(comp)
        out.append((params, comp, samples))
    return out


def test_criterion_03a_sizes_and_lemma_bound(criterion3_samples):
    """|B*| <= eta m^d exactly; the rigorous lemma bound never violated."""
    t0 = time.time()
    violations = 0
    cells = 0
    for params, comp, samples in criterion3_samples:
        assert comp.size <= params.eta * params.q  # exact Fraction comparison
        k_b = float(comp.lemma_constant)
        for ratio, size_a in samples:
            if ratio > 1 + k_b / size_a + 1e-9:
                violations += 1
        cells += 1
    elapsed = time.time() - t0
    report(3, violations == 0, f"3a sizes+lemma: {cells} cells, {violations} violations, {elapsed:.0f}s")
    assert violations == 0


def _exhaustive_ratios(comp):
    """(ratio, |A|) over every nonempty subset A (feasible for |G| <= 16)."""
    g = comp.subset.group
    order = g.order
    moduli = g.moduli
    axes = tuple(range(1, len(moduli) + 1))
    bits = ((np.arange(1, 1 << order)[:, None] >> np.arange(order)[None, :]) & 1).astype(float)
    batch = bits.reshape((-1,) + moduli)
    fa = np.fft.fftn(batch, axes=axes)
    fb = np.fft.fftn(comp.subset.mask.reshape(moduli).astype(float))
    counts = np.rint(np.fft.ifftn(fa * fb[None, ...], axes=axes).real)
    sums = (counts >= 1).reshape(len(bits), -1).sum(axis=1)
    sizes = bits.sum(axis=1)
    return [(order / int(s), int(a)) for s, a in zip(sums, sizes)]


def test_criterion_03b_headline_bound_as_stated(criterion3_samples):
    """On 3a's samples the chain bound holds and the stated constant is refuted.

    Every sample satisfies ratio <= 1 + (k q/(q-1))^2/|A|, the bound that
    bias_ok and |B*| = (q-1)/k give.  The stated 1 + 1/(4 eta^2 |A|) is
    refuted at the exhaustive cell q = 4, eta = 1/3, |A| = 1, and
    verify_coverage_bound reports that refutation.  The number of
    stated-constant violations is printed as a fingerprint of the sample
    stream, not asserted.
    """
    chain_violations = 0
    violations = []
    for params, comp, samples in criterion3_samples:
        eta = params.eta
        chain = Fraction(params.k * params.q, params.q - 1) ** 2
        assert comp.lemma_constant < chain  # exact: ||B||_u^2 q < 1, |B| = (q-1)/k
        for ratio, size_a in samples:
            if ratio > float(1 + chain / size_a) + 1e-9:
                chain_violations += 1
            if ratio > float(1 + 1 / (4 * eta**2 * size_a)) + 1e-9:
                violations.append((str(eta), params.q, size_a, float(ratio)))
    counterexample = ("1/3", 4, 1, 4.0)
    refuted = counterexample in violations
    # the certificate at that cell must report the refutation, not a pass
    p4 = select_parameters(Fraction(1, 3), 1, 1)
    comp4 = build_bias_complement(p4)
    A = GroupSubset.from_members(comp4.subset.group, [(0, 0)])
    cert = verify_coverage_bound(A, comp4.subset, p4.eta, bias=comp4.bias)
    reported = (p4.q == 4 and cert.headline_bound == Fraction(13, 4) and cert.ratio == 4
                and not cert.headline_ok and cert.lemma_ok)
    report(3, chain_violations == 0 and refuted and reported,
           f"3b chain bound: {chain_violations} violations; stated bound: "
           f"{len(violations)} violations (first: {violations[0] if violations else None})")
    assert chain_violations == 0
    assert refuted, f"counterexample {counterexample} not detected"
    assert reported, f"q = {p4.q} singleton: {cert}"


def test_criterion_04_random_cover_retries():
    """N=64, d=1, eps=1/2, member 1.2x threshold: 10^3 seeded runs, mean draws < 2."""
    t0 = time.time()
    threshold = (2 / 0.5) * math.log(64)
    size = math.ceil(1.2 * threshold)
    draws = []
    master = np.random.default_rng(99)
    for seed in range(1000):
        member = master.choice(64, size=size, replace=False).reshape(-1, 1)
        fam = SetFamily(d=1, kind="grid", N=64, members=[member])
        B, cert = random_cover_complement(fam, Fraction(1, 2), seed=seed)
        assert B.size == 32
        draws.append(cert.draws)
    mean = sum(draws) / len(draws)
    elapsed = time.time() - t0
    report(4, mean < 2, f"1000 runs, mean draws {mean:.4f}, max {max(draws)}, {elapsed:.0f}s")
    assert mean < 2


def _corpus_member(rng, d, pe, density):
    n = 1 << pe
    if d == 1:
        pts = np.flatnonzero(rng.random(n) < density).reshape(-1, 1)
    else:
        pts = np.argwhere(rng.random((n, n)) < density)
    return pts.astype(np.int64)


def test_criterion_05_dyadic_covers():
    """20 families at delta in {2^-6, 2^-8}: measure <= eps exact, coverage complete."""
    t0 = time.time()
    rng = np.random.default_rng(55)
    built = 0
    for i in range(10):  # delta = 2^-6, d = 2
        fam = SetFamily(
            d=2, kind="cube", point_exponent=7,
            members=[_corpus_member(rng, 2, 7, rng.uniform(0.75, 0.9))
                     for _ in range(1 + i % 3)],
        )
        res = dyadic_cover_complement(fam, g=6, eps=Fraction(9, 10), seed=100 + i)
        assert Fraction(res.certificate["measure"]) <= Fraction(9, 10)
        assert res.certificate["coverage_complete"]
        built += 1
    for i in range(10):  # delta = 2^-8, d = 1
        fam = SetFamily(
            d=1, kind="cube", point_exponent=9,
            members=[_corpus_member(rng, 1, 9, rng.uniform(0.8, 0.95))
                     for _ in range(1 + i % 3)],
        )
        res = dyadic_cover_complement(fam, g=8, eps=Fraction(9, 10), seed=200 + i)
        assert Fraction(res.certificate["measure"]) <= Fraction(9, 10)
        assert res.certificate["coverage_complete"]
        built += 1
    elapsed = time.time() - t0
    report(5, built == 20, f"{built} families, measure bounds exact, pixel coverage complete, {elapsed:.0f}s")
    assert built == 20


def _acceptance_rrp():
    points = middle_thirds_points(7, grid_exp=12)
    family = FunctionFamily(
        maps=[AffineMap(Fraction(1, 2), Fraction(i, 1 << 20)) for i in range(8)],
        bilipschitz_c=Fraction(2),
    )
    return rrp_run(
        points, family, depth=3,
        rho_schedule=[Fraction(1), Fraction(1, 1 << 10), Fraction(1, 1 << 11)],
        piece_w_schedule=[12, 12, 12],
    )


def test_criterion_06_rrp_construction():
    """d=1, 8 affine maps, depth-7 middle-thirds points, J=3: invariants exact."""
    t0 = time.time()
    trace = _acceptance_rrp()
    for step in trace.steps:
        assert step.checks["check_a_nested"]
        assert step.checks["check_b_volume"]
        assert step.checks["check_b_neighborhood"]
        assert step.checks["check_c_coverage"]
    k3 = trace.steps[2].volume
    assert k3 <= Fraction(1, 5) * Fraction(1, 8)  # exact rational comparison
    elapsed = time.time() - t0
    report(6, True, f"|K3| = {float(k3):.5f} <= 1/40 exactly, all invariants, {elapsed:.0f}s")
    assert elapsed < 300


def test_criterion_07_full_measure():
    """d=1, eps=1/2, J=3 on a certified uniformly large grid set."""
    t0 = time.time()
    grid = GridSet(spacing_exponent=50, region=[(Fraction(0), Fraction(1, 2))])
    trace = full_measure_run(grid, Fraction(1, 2), depth=3)
    for step in trace.steps[1:]:
        assert step.measure <= Fraction(1, 1 << step.j)  # exact
        bound = (1 - Fraction(1, 1 << step.j)) * Fraction(1, 2)
        assert Fraction(step.checks["uncovered_value"]) <= bound
    elapsed = time.time() - t0
    report(7, True, f"measures {[float(s.measure) for s in trace.steps[1:]]} within 2^-j, {elapsed:.0f}s")
    assert elapsed < 300


def test_criterion_08_chain_plancherel_convolution():
    """Packing-covering chain (grid constants absorbed into 5^d) + Fourier suites."""
    rng = np.random.default_rng(808)
    violations = 0
    for d in (1, 2):
        for _ in range(50):
            n_pts = int(rng.integers(2, 40))
            pts = [tuple(Fraction(int(x), 1 << 10) for x in row)
                   for row in rng.integers(0, (1 << 10) + 1, (n_pts, d))]
            delta = Fraction(1, int(rng.choice([16, 32, 64])))
            c1 = len({tuple(p // delta for p in pt) for pt in pts})
            c2 = len({tuple(p // (2 * delta) for p in pt) for pt in pts})
            pack = packing_number_greedy(pts, delta)
            if not (Fraction(c1, 5**d) <= c2 and c2 <= 5**d * pack):
                violations += 1
    assert violations == 0
    # Plancherel and convolution theorem at 1e-9 relative tolerance
    for moduli in [(4096,), (64, 64), (2,) * 12, (3, 3, 3, 3), (45, 91)]:
        g = FiniteAbelianGroup(moduli)
        f1 = GroupFunction(g, rng.normal(size=g.order) + 1j * rng.normal(size=g.order))
        f2 = GroupFunction(g, rng.normal(size=g.order))
        lhs = g.order * np.sum(np.abs(dft(f1).values) ** 2)
        rhs = np.sum(np.abs(f1.values) ** 2)
        assert abs(lhs - rhs) <= 1e-9 * rhs
        conv_hat = dft(convolve(f1, f2)).values
        prod = dft(f1).values * dft(f2).values
        assert np.max(np.abs(conv_hat - prod)) <= 1e-9 * (1 + np.max(np.abs(prod)))
    report(8, violations == 0, "chain (5^d grid constants) + Plancherel + convolution: zero violations")


def test_criterion_09_largeness_recount():
    """Independent recount of |A' /\\ Q|_{delta_k} matches every certificate."""
    corpus = [
        (generate_cantor({"kind": "digits", "base": 2, "digits": [0, 1]}, depth=8),
         GaugeFunction.power(2.0), 2.0**-9, [Fraction(1, 1 << g) for g in (4, 6, 8)]),
        (generate_cantor({"kind": "digits", "base": 3, "digits": [0, 2]}, depth=8),
         GaugeFunction.power(0.7), 0.3, [Fraction(1, 1 << g) for g in (1, 7, 13)]),
        (generate_cantor({"kind": "digits", "base": 2, "digits": [[0, 1], [0, 1]]}, depth=4),
         GaugeFunction.power(4.0), 2.0**-9, [Fraction(1, 1 << g) for g in (2, 4)]),
    ]
    mismatches = 0
    total = 0
    for cube, phi, eta, sched in corpus:
        pruned, n_values, cert = uniform_large_subset(cube, phi, eta, sched)
        assert cert.passed
        for lvl, counts in cert.per_cube_counts.items():
            dk = cert.schedule[lvl][1]
            dk = dk if isinstance(dk, Fraction) else Fraction(dk)
            g = dk.denominator.bit_length() - 1
            for cube_idx, recorded in counts:
                if lvl:
                    sel = np.all(pruned.cells >> (pruned.k - lvl) == np.array(cube_idx), axis=1)
                else:
                    sel = np.ones(pruned.size, dtype=bool)
                recount = int(np.unique(pruned.cells[sel] >> (pruned.k - g), axis=0).shape[0])
                total += 1
                if recount != recorded or recount < n_values[lvl]:
                    mismatches += 1
    report(9, mismatches == 0, f"{total} cube counts recounted, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_10_determinism():
    """Byte-identical certificates for repeated seeded runs."""
    # randomized: covering complement
    rng = np.random.default_rng(4)
    member = rng.choice(64, size=20, replace=False).reshape(-1, 1)
    fam = SetFamily(d=1, kind="grid", N=64, members=[member])
    b1, c1 = random_cover_complement(fam, Fraction(1, 2), seed=3)
    b2, c2 = random_cover_complement(fam, Fraction(1, 2), seed=3)
    assert json.dumps(c1.to_json_dict(), sort_keys=True) == json.dumps(c2.to_json_dict(), sort_keys=True)
    assert b1 == b2
    # deterministic constructions
    t1, t2 = _acceptance_rrp(), _acceptance_rrp()
    assert t1.content_hash() == t2.content_hash()
    grid = GridSet(spacing_exponent=50, region=[(Fraction(0), Fraction(1, 2))])
    f1 = full_measure_run(grid, Fraction(1, 2), depth=2)
    f2 = full_measure_run(grid, Fraction(1, 2), depth=2)
    assert f1.content_hash() == f2.content_hash()
    # bias pipeline certificates
    p = select_parameters(Fraction(1, 3), 10, 1)
    d1 = json.dumps(build_bias_complement(p).certificate(), sort_keys=True)
    d2 = json.dumps(build_bias_complement(p).certificate(), sort_keys=True)
    assert d1 == d2
    report(10, True, "seeded and deterministic runs byte-identical")
