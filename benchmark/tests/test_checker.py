"""The independent checker: its arithmetic against brute force, and for every
kind of output it checks, acceptance of a genuine output and rejection of a
mutated one.

    PYTHONPATH=src python3 -m pytest -q benchmark/tests
"""

import copy
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

import workloads as wl
import worker
from checker import checks, gf2, intervals, wht


# ---------------------------------------------------------------------------
# arithmetic


def test_smallest_irreducible_known_moduli():
    assert gf2.smallest_irreducible(2) == 0b111
    assert gf2.smallest_irreducible(4) == 0b10011  # x^4 + x + 1
    assert gf2.smallest_irreducible(8) == 0b100011011  # x^8 + x^4 + x^3 + x + 1
    assert not gf2.is_irreducible(0b10101)  # (x^2 + x + 1)^2


def test_field_product_matches_scalar_arithmetic():
    t = 6
    f = gf2.smallest_irreducible(t)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << t, 200).astype(np.uint64)
    b = rng.integers(0, 1 << t, 200).astype(np.uint64)
    got = gf2.mul_vec(a, b, f, t)
    assert [int(x) for x in got] == [gf2.poly_mod(gf2.clmul(int(x), int(y)), f) for x, y in zip(a, b)]


@pytest.mark.parametrize("t,k", [(4, 3), (4, 5), (6, 7), (8, 3)])
def test_kth_powers_size_and_closure(t, k):
    codes = gf2.kth_powers(t, k)
    assert codes.size == ((1 << t) - 1) // k
    f = gf2.smallest_irreducible(t)
    members = set(codes.tolist())
    assert all(gf2.poly_mod(gf2.clmul(x, y), f) in members for x, y in itertools.product(codes.tolist()[:5], repeat=2))


def test_xor_counts_and_bias_brute_force():
    rng = np.random.default_rng(1)
    t = 5
    a = rng.random(1 << t) < 0.3
    b = rng.random(1 << t) < 0.4
    counts = wht.xor_counts(a, b)
    for x in range(1 << t):
        assert counts[x] == sum(1 for u in range(1 << t) if a[u] and b[u ^ x])
    idx = np.flatnonzero(b)
    brute = max(abs(sum((-1) ** bin(x & xi).count("1") for x in idx)) for xi in range(1, 1 << t))
    assert wht.linear_bias(idx, t) == Fraction(brute, 1 << t)


def test_merge_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        lo = rng.integers(0, 60, 12)
        hi = lo + rng.integers(0, 8, 12)
        m_lo, m_hi = intervals.merge(lo, hi)
        covered = {x + 0.5 for a, b in zip(lo, hi) for x in range(a, b)}
        assert {x + 0.5 for a, b in zip(m_lo, m_hi) for x in range(a, b)} == covered
        assert np.all(m_lo[1:] > m_hi[:-1])


# ---------------------------------------------------------------------------
# rrp traces


@pytest.fixture(scope="module")
def rrp_case(tmp_path_factory):
    d = tmp_path_factory.mktemp("rrp")
    inst = wl.rrp_instance(0, 0)
    (d / "spec.json").write_text(json.dumps(wl.rrp_spec(inst)))
    worker.build(worker.rrp_trace, str(d / "spec.json"), str(d / "trace.json"))
    return inst, json.loads((d / "trace.json").read_text())


def _set_interval(trace, s, i, lo, hi, keep_volume=False):
    step = trace["steps"][s]
    old_lo, old_hi = (Fraction(x) for x in step["k_intervals"][i])
    step["k_intervals"][i] = [str(lo), str(hi)]
    if not keep_volume:
        step["volume"] = str(Fraction(step["volume"]) + (hi - lo) - (old_hi - old_lo))


def test_rrp_genuine_accepted(rrp_case):
    inst, trace = rrp_case
    assert checks.check_rrp(trace, inst) == []


def test_rrp_benchmark_tampers_rejected(rrp_case):
    inst, trace = rrp_case
    for kind, bad in wl.rrp_tampers(trace, 0, 0):
        assert checks.check_rrp(bad, inst), kind


def _rrp_mutants(trace):
    D = int(trace["meta"]["frame_denominator"])
    iv = [[Fraction(a), Fraction(b)] for a, b in trace["steps"][1]["k_intervals"]]
    lo, hi = iv[3]

    t = copy.deepcopy(trace)
    _set_interval(t, 1, 3, lo, lo + (hi - lo) / 4)
    yield "uncovered", t

    t = copy.deepcopy(trace)
    t["steps"][1]["volume"] = str(Fraction(t["steps"][1]["volume"]) + Fraction(1, D))
    yield "stored volume", t

    t = copy.deepcopy(trace)
    _set_interval(t, 1, 3, lo + Fraction(1, 2), hi + Fraction(1, 2))
    yield "neighbourhood", t

    t = copy.deepcopy(trace)
    _set_interval(t, 2, 0, Fraction(-1), Fraction(1))
    yield "1/(5 2^3)", t

    t = copy.deepcopy(trace)
    t["steps"][1]["delta"] = "1"
    yield "outside (0, 2^-1]", t

    t = copy.deepcopy(trace)
    t["steps"][2]["delta"] = "1/8"  # within 2^-2, but the tail from step 2 exceeds 2 delta_1
    yield "Delta_1", t

    t = copy.deepcopy(trace)
    t["steps"][0]["k_intervals"][0][0] = str(Fraction(t["steps"][0]["k_intervals"][0][0]) + Fraction(1, 3 * D))
    yield "frame", t

    t = copy.deepcopy(trace)
    t["meta"]["points"][5] = str(Fraction(t["meta"]["points"][5]) + Fraction(1, 4096))
    yield "points differ", t

    t = copy.deepcopy(trace)
    t["meta"]["family"]["maps"][0][1] = "1/1024"
    yield "maps differ", t


def test_rrp_each_mutation_rejected_by_its_check(rrp_case):
    inst, trace = rrp_case
    for expect, bad in _rrp_mutants(trace):
        found = checks.check_rrp(bad, inst)
        assert any(expect in p for p in found), (expect, found)


# ---------------------------------------------------------------------------
# cascade traces


@pytest.fixture(scope="module")
def cascade_case(tmp_path_factory):
    d = tmp_path_factory.mktemp("cascade")
    inst = wl.cascade_instance(0, 0)
    (d / "spec.json").write_text(json.dumps(wl.cascade_spec(inst)))
    worker.build(worker.cascade_trace, str(d / "spec.json"), str(d / "trace.json"))
    return inst, json.loads((d / "trace.json").read_text())


def test_cascade_genuine_accepted(cascade_case):
    inst, trace = cascade_case
    assert checks.check_cascade(trace, inst) == []


def test_cascade_each_mutation_rejected_by_its_check(cascade_case):
    inst, trace = cascade_case

    def mutant(edit):
        t = copy.deepcopy(trace)
        edit(t)
        return t

    cases = [
        ("measure", lambda t: t["steps"][2].update(measure=str(Fraction(t["steps"][2]["measure"]) / 2))),
        ("cube count", lambda t: t["steps"][1].update(cube_count=t["steps"][1]["cube_count"] + 1)),
        ("cyclic uncovered", lambda t: t["steps"][1]["checks"].update(cyclic_uncovered_full=1)),
        ("cyclic uncovered", lambda t: t["steps"][3]["checks"].update(cyclic_uncovered_subsample=7)),
        ("uncovered", lambda t: t["steps"][2]["checks"].update(uncovered_value="1/1000")),
        ("uncovered", lambda t: t["steps"][2]["checks"].update(uncovered_bound="1/1000")),
        ("stored bias", lambda t: t["steps"][1]["template"].update(bias=0.001)),
        ("lemma constant", lambda t: t["steps"][1]["template"].update(lemma_constant=1.0)),
        ("template cells", lambda t: t["steps"][2]["template"].update(cell_count=10)),
        ("template cells", lambda t: t["steps"][2]["template"].update(budget_cells=10)),
        ("threshold", lambda t: t["steps"][2]["template"].update(threshold_nz=1)),
        ("order 2^t", lambda t: t["steps"][3]["template"]["params"].update(q=4000)),
        ("prime", lambda t: t["steps"][3]["template"]["params"].update(k=9)),
        ("eps / 2^", lambda t: t["steps"][1]["template"].update(eps="1/3")),
        ("final measure", lambda t: t["meta"].update(final_measure="0")),
        ("generated instance", lambda t: t["meta"].update(eps="1/5")),
        ("generated instance", lambda t: t["meta"]["grid"].update(region=[["0", "1"]])),
    ]
    for expect, edit in cases:
        found = checks.check_cascade(mutant(edit), inst)
        assert any(expect in p for p in found), (expect, found)
    for kind, bad in wl.cascade_tampers(trace, 0, 0):
        assert checks.check_cascade(bad, inst), kind


# ---------------------------------------------------------------------------
# certificate requests


@pytest.fixture(scope="module")
def server():
    return worker.CertifyServer()


@pytest.fixture(scope="module")
def answers(server):
    return [(req, getattr(server, req["op"])(req)[1]) for req in wl.certify_round(0, 0)]


def test_prepared_complement(server):
    out = server.prepared({})[1]
    args = (wl.CERTIFY_T, wl.CERTIFY_K)
    assert checks.check_power_set(out["codes"], out["group_idx"], out["bias"], *args) == []
    assert checks.check_power_set(out["codes"][1:] + [0], out["group_idx"], out["bias"], *args)
    assert checks.check_power_set(out["codes"], out["codes"], out["bias"], *args)
    assert checks.check_power_set(out["codes"], out["group_idx"], "1/2", *args)


def _check(req, out, server):
    if req["op"] == "coverage":
        idx = np.flatnonzero(server.comp.subset.mask)
        return checks.check_coverage(req["a"], out, idx, server.comp.bias, wl.CERTIFY_ETA, wl.CERTIFY_T)
    return getattr(checks, f"check_{req['op']}")(req, out)


CERTIFY_MUTANTS = {
    "coverage": [
        lambda o: o.update(sumset_size=o["sumset_size"] - 1),
        lambda o: o.update(lemma_bound=str(Fraction(o["lemma_bound"]) / 2)),
        lambda o: o.update(lemma_ok=False),
        lambda o: o.update(headline_ok=not o["headline_ok"]),
        lambda o: o.update(headline_bound="2"),
    ],
    "bias_set": [
        lambda o: o.update(codes=o["codes"][:-1]),
        lambda o: o.update(bias="1/2"),
        lambda o: o["certificate"].update(size=o["certificate"]["size"] + 1),
        lambda o: o["certificate"]["params"].update(s=o["certificate"]["params"]["s"] + 1),
    ],
    "random_cover": [
        lambda o: o.update(b_indices=o["b_indices"][:-1]),
        lambda o: o.update(b_indices=o["b_indices"][:-1] + o["b_indices"][:1]),
        lambda o: o["b_indices"].__setitem__(-1, 1 << 20),
    ],
    "dyadic_cover": [
        lambda o: o.update(measure="1/1000"),
        lambda o: o.update(cells=o["cells"][: len(o["cells"]) // 3]),
        lambda o: o.update(cells=o["cells"] + [o["cells"][0]]),
    ],
    "largeness": [
        lambda o: o["per_cube_counts"]["2"][0].__setitem__(1, o["per_cube_counts"]["2"][0][1] + 1),
        lambda o: o.update(pruned=o["pruned"] + [-1]),
        lambda o: o.update(passed=False),
        lambda o: o.update(k=o["k"] + 1),
    ],
    "log_dimension": [
        lambda o: o["counts"].__setitem__(2, o["counts"][2] + 1),
    ],
}


def test_certify_answers_accepted_and_mutants_rejected(answers, server):
    seen = set()
    for req, out in answers:
        assert _check(req, out, server) == [], req["op"]
        for mutate in CERTIFY_MUTANTS[req["op"]]:
            bad = copy.deepcopy(out)
            mutate(bad)
            assert _check(req, bad, server), req["op"]
        seen.add(req["op"])
    assert seen == set(CERTIFY_MUTANTS)


def test_random_cover_coverage_is_recomputed():
    req = {"N": 8, "d": 1, "eps": "1/2", "members": [[[0], [1]]]}
    assert checks.check_random_cover(req, {"b_indices": [0, 2, 4, 6]}) == []
    assert checks.check_random_cover(req, {"b_indices": [0, 1, 2, 3]})


def test_sumset_bitset_matches_pairs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d, N = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        a = rng.integers(0, N, size=(int(rng.integers(1, 5)), d))
        b = rng.integers(0, N, size=(int(rng.integers(1, 6)), d))
        pairs = {tuple((x + y) % N) for x in a for y in b}
        assert checks._uncovered_by_sumset(a, b, N, d) == N**d - len(pairs)


def test_dyadic_cover_is_a_real_cover():
    req = {"d": 1, "g": 1, "point_exponent": 2, "eps": "1", "members": [[[0]]]}
    assert checks.check_dyadic_cover(req, {"cells": [[0], [1]], "measure": "1"}) == []
    found = checks.check_dyadic_cover(req, {"cells": [[0]], "measure": "1/2"})
    assert any("uncovered" in p for p in found)


def test_coverage_sets_have_the_fixed_popcount_profile():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for n in wl.COVERAGE_SIZES:
            a = wl.coverage_set(rng, n, wl.CERTIFY_T)
            assert len(set(a)) == n and all(0 <= x < 1 << wl.CERTIFY_T for x in a)
            assert sorted(x.bit_count() for x in a) == wl.popcount_profile(n, wl.CERTIFY_T)
