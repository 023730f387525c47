"""Parameter selection, Gauss complements, coverage bounds, lifts, patches."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nullcover.bias_sets import (
    ParameterError,
    PropositionParams,
    build_bias_complement,
    build_patch_template,
    choose_patch_k,
    coverage_threshold,
    integer_cover_in_box,
    lift_to_signed_box,
    select_parameters,
    verify_coverage_bound,
)
from nullcover.elementary import covered_measure, merge_int, points_plus
from nullcover.groups import FiniteAbelianGroup, GroupSubset, linear_bias, sumset


def select_parameters_oracle(eta, m0):
    """Direct search following the derivation: first prime, then first power."""
    k = None
    n = 2
    while True:
        ok = all(n % d for d in range(2, n))
        if ok and 1 / eta <= n <= 2 / eta:
            k = n
            break
        n += 1
        if n > 1000:
            raise AssertionError
    s = 1
    while 2 ** (s * (k - 1)) < m0:
        s += 1
    return k, s, 2 ** (s * (k - 1))


class TestSelectParameters:
    def test_example_small(self):
        p = select_parameters(Fraction(1, 3), 1, 1)
        assert (p.k, p.s, p.m, p.q) == (3, 1, 4, 4)
        assert (p.q - 1) % p.k == 0

    def test_example_m0_10(self):
        p = select_parameters(Fraction(1, 3), 10, 1)
        assert (p.k, p.s, p.m, p.q) == (3, 2, 16, 16)
        assert (p.q - 1) % p.k == 0
        assert p.m <= 4**3 * 10

    @pytest.mark.parametrize("eta", [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 8)])
    @pytest.mark.parametrize("m0", [1, 2, 7, 64, 1000])
    def test_matches_oracle(self, eta, m0):
        k, s, m = select_parameters_oracle(eta, m0)
        if 2 ** (s * (k - 1)) > 1 << 24:
            with pytest.raises(ParameterError):
                select_parameters(eta, m0, 1)
            return
        p = select_parameters(eta, m0, 1)
        assert (p.k, p.s, p.m) == (k, s, m)

    def test_cap_error_reports_minimum(self):
        with pytest.raises(ParameterError, match="minimal admissible cap"):
            select_parameters(Fraction(1, 16), 1, 2)  # k = 17 -> q = 2^32

    def test_cap_bounds_the_prime_scan(self):
        # k >= 1/eta lies far beyond the cap: the search stops before 2^(k-1)
        for eta in (Fraction(1, 10**6), Fraction(1, 10**11), Fraction(2, 2001), Fraction(1, 10**5000)):
            with pytest.raises(ParameterError, match="minimal admissible cap"):
                select_parameters(eta, 2, 1)
        with pytest.raises(ParameterError, match="no admissible"):
            choose_patch_k(Fraction(1, 10**11), 2)
        with pytest.raises(ParameterError, match="d must be >= 1"):
            select_parameters(Fraction(1, 3), 4, 0)

    @pytest.mark.parametrize("cap", [-1, 0, 1, 4, 15, 16, 1 << 12, 1 << 16, 1 << 24])
    def test_both_searches_match_oracle(self, cap):
        def primes(eta):
            return [n for n in range(2, 200) if all(n % f for f in range(2, n)) and 1 / eta <= n <= 2 / eta]

        def least_s(k, m0):
            s = 1
            while 2 ** (s * (k - 1)) < m0:
                s += 1
            return s

        for eta in (Fraction(1, 3), Fraction(2, 7), Fraction(1, 12), Fraction(3, 79)):
            for m0 in (1, 2, 5, 17, 4097, (1 << 24) + 1):
                for d in (1, 2, 3):
                    k = primes(eta)[0]
                    s = least_s(k, m0)
                    if 2 ** (d * s * (k - 1)) > cap:
                        with pytest.raises(ParameterError):
                            select_parameters(eta, m0, d, cap=cap)
                    else:
                        p = select_parameters(eta, m0, d, cap=cap)
                        assert (p.k, p.s) == (k, s)
                fits = [(k, least_s(k, m0)) for k in primes(eta) if 2 ** (least_s(k, m0) * (k - 1)) <= cap]
                if not fits:
                    with pytest.raises(ParameterError):
                        choose_patch_k(eta, m0, cap=cap)
                else:
                    assert choose_patch_k(eta, m0, cap=cap) == min(fits, key=lambda ks: ks[1] * (ks[0] - 1))

    def test_invalid_eta(self):
        # the range is checked before the prime search
        for eta in (Fraction(1, 2), Fraction(2), Fraction(0), Fraction(-1, 4)):
            with pytest.raises(ParameterError, match=r"eta must lie in \(0, 1/3\]"):
                select_parameters(eta, 4, 1)


class TestPropositionParams:
    def test_growth_bound_with_half_integer_inverse_eta(self):
        # 4^(1/eta) = 4^1000.5 overflows a float; the exact check accepts
        p = PropositionParams(eta=Fraction(2, 2001), m0=1, d=1, k=1009, s=1)
        assert p.m == 1 << 1008

    def test_growth_bound_with_large_numerator(self):
        # x = 2*10^9 - 2 <= a (bit_length(17) - 1) = 4*10^9: accepted without
        # forming 2^x or 17^a
        p = PropositionParams(eta=Fraction(10**9, 3 * 10**9 + 1), m0=17, d=1, k=5, s=2)
        assert p.m == 256

    @pytest.mark.parametrize("eta, m0, k, s, ok", [
        (Fraction(1, 3), 1, 3, 3, True),  # m = 64 = 4^3
        (Fraction(1, 3), 1, 3, 4, False),
        (Fraction(2, 7), 1, 5, 2, False),  # 256 > 4^3.5 = 128
        (Fraction(2, 7), 2, 5, 2, True),  # 256 = 4^3.5 * 2
        (Fraction(3, 10), 3, 5, 2, True),  # 256 <= 4^(10/3) * 3 = 304.8
        (Fraction(3, 10), 2, 5, 2, False),  # 256 > 203.2
    ])
    def test_growth_bound_exact(self, eta, m0, k, s, ok):
        if ok:
            PropositionParams(eta=eta, m0=m0, d=1, k=k, s=s)
        else:
            with pytest.raises(ParameterError, match="exceeds"):
                PropositionParams(eta=eta, m0=m0, d=1, k=k, s=s)


class TestBiasComplement:
    def test_q4_cubes(self):
        p = select_parameters(Fraction(1, 3), 1, 1)
        comp = build_bias_complement(p)
        # x^3 = 1 for every x in F_4^*
        assert comp.size == 1
        assert list(comp.codes) == [1]
        assert comp.size <= Fraction(1, 3) * 4

    def test_q16(self):
        p = select_parameters(Fraction(1, 3), 10, 1)
        comp = build_bias_complement(p)
        assert comp.size == 5
        assert comp.size <= Fraction(1, 3) * 16  # 5 <= 5.33
        assert comp.bias < Fraction(1, 4)  # 1/sqrt(16)
        # oracle: exhaustive cubing in F_16 on the scalar polynomial path
        from nullcover.gf import _polypowmod, make_field

        spec = make_field(2, 4)
        cube = [_polypowmod([(c >> i) & 1 for i in range(4)], 3, list(spec.modulus), 2) for c in range(1, 16)]
        assert list(comp.codes) == sorted({sum(b << i for i, b in enumerate(x)) for x in cube})

    def test_certificate(self):
        p = select_parameters(Fraction(1, 4), 4, 1)
        cert = build_bias_complement(p).certificate()
        assert cert["size_ok"] and cert["bias_ok"]

    def test_reinterpretation_reported(self):
        p = select_parameters(Fraction(1, 3), 10, 1)
        comp = build_bias_complement(p, reinterpret=True)
        assert comp.reinterpreted is not None
        assert comp.reinterpreted.group.moduli == (16,)
        assert comp.reinterpreted.size == comp.size
        assert comp.reinterpreted_bias is not None

    def test_include_zero(self):
        p = select_parameters(Fraction(1, 3), 10, 1)
        comp = build_bias_complement(p, include_zero=True)
        assert comp.size == 6

    @pytest.mark.parametrize("eta,m0,d", [(Fraction(1, 3), 1, 1), (Fraction(1, 3), 10, 1), (Fraction(1, 3), 2, 2), (Fraction(1, 4), 2, 1)])
    def test_bias_exact_vs_float(self, eta, m0, d):
        comp = build_bias_complement(select_parameters(eta, m0, d))
        g = comp.subset.group
        vals = np.fft.fftn(comp.subset.mask.astype(float).reshape(g.moduli)).reshape(-1)
        ref = np.abs(vals[1:]).max() / g.order
        assert abs(float(comp.bias) - ref) < 1e-12


class TestCoverageBound:
    def test_whole_group(self):
        p = select_parameters(Fraction(1, 3), 10, 1)
        comp = build_bias_complement(p)
        g = comp.subset.group
        A = GroupSubset(g, np.ones(g.order, dtype=bool))
        cert = verify_coverage_bound(A, comp.subset, p.eta, bias=comp.bias)
        assert cert.sumset_size == g.order and cert.ratio == 1
        assert cert.lemma_ok and cert.headline_ok

    def test_nine_element_sets_q16(self):
        # spec workthrough: bound 1.25 -> |A+B| >= 13 for random 9-subsets
        p = select_parameters(Fraction(1, 3), 10, 1)
        comp = build_bias_complement(p)
        g = comp.subset.group
        rng = np.random.default_rng(31)
        for _ in range(200):
            idx = rng.choice(16, size=9, replace=False)
            mask = np.zeros(16, dtype=bool)
            mask[idx] = True
            cert = verify_coverage_bound(GroupSubset(g, mask), comp.subset, p.eta, bias=comp.bias)
            assert cert.headline_bound == Fraction(5, 4)
            assert cert.lemma_ok
            assert cert.sumset_size >= 13  # headline holds here
            assert cert.headline_ok

    def test_singleton_q16_eta_third(self):
        # ratio 16/5 = 3.2 <= 3.25: tight but passing
        p = select_parameters(Fraction(1, 3), 10, 1)
        comp = build_bias_complement(p)
        g = comp.subset.group
        A = GroupSubset.from_members(g, [(0,) * 4])
        cert = verify_coverage_bound(A, comp.subset, p.eta, bias=comp.bias)
        assert cert.sumset_size == 5
        assert cert.headline_bound == Fraction(13, 4)
        assert cert.headline_ok and cert.lemma_ok

    def test_singleton_q4_headline_fails_lemma_holds(self):
        # documented defect of the headline constant: q=4, eta=1/3, |B*|=1
        p = select_parameters(Fraction(1, 3), 1, 1)
        comp = build_bias_complement(p)
        g = comp.subset.group
        A = GroupSubset.from_members(g, [(0, 0)])
        cert = verify_coverage_bound(A, comp.subset, p.eta, bias=comp.bias)
        assert cert.ratio == 4
        assert cert.headline_bound == Fraction(13, 4)
        assert not cert.headline_ok  # the stated constant is violated
        assert cert.lemma_ok  # the actual lemma never is

    def test_lemma_never_fails_random(self):
        rng = np.random.default_rng(7)
        for eta, m0, d in [(Fraction(1, 3), 1, 1), (Fraction(1, 3), 10, 1), (Fraction(1, 4), 2, 1)]:
            p = select_parameters(eta, m0, d)
            comp = build_bias_complement(p)
            g = comp.subset.group
            for _ in range(300):
                mask = rng.random(g.order) < rng.uniform(0.05, 0.95)
                if not mask.any():
                    continue
                cert = verify_coverage_bound(GroupSubset(g, mask), comp.subset, p.eta, bias=comp.bias)
                assert cert.lemma_ok

    def test_empty_a(self):
        p = select_parameters(Fraction(1, 3), 1, 1)
        comp = build_bias_complement(p)
        g = comp.subset.group
        with pytest.raises(ParameterError):
            verify_coverage_bound(GroupSubset(g, np.zeros(4, dtype=bool)), comp.subset, p.eta)


class TestSignedBoxLift:
    def test_singleton(self):
        g = FiniteAbelianGroup((8,))
        B = GroupSubset.from_members(g, [(0,)])
        box = lift_to_signed_box(B, 8, 1)
        assert box.points.reshape(-1).tolist() == [-8, 0]

    def test_two_points_m4(self):
        g = FiniteAbelianGroup((4,))
        B = GroupSubset.from_members(g, [(1,), (3,)])
        box = lift_to_signed_box(B, 4, 1)
        assert box.points.reshape(-1).tolist() == [-3, -1, 1, 3]

    def test_size_bound_d2(self):
        g = FiniteAbelianGroup((5, 5))
        rng = np.random.default_rng(3)
        mask = np.zeros(25, dtype=bool)
        mask[rng.choice(25, 5, replace=False)] = True
        B = GroupSubset(g, mask)
        box = lift_to_signed_box(B, 5, 2)
        assert box.size <= 4 * B.size

    @pytest.mark.parametrize("m,d", [(16, 1), (8, 2)])
    def test_coverage_equivalence(self, m, d):
        # integer-sum coverage inside [m]^d equals cyclic coverage
        g = FiniteAbelianGroup((m,) * d)
        rng = np.random.default_rng(11)
        for _ in range(100):
            mb = rng.random(g.order) < 0.2
            ma = rng.random(g.order) < 0.3
            if not mb.any() or not ma.any():
                continue
            B = GroupSubset(g, mb)
            A = GroupSubset(g, ma)
            box = lift_to_signed_box(B, m, d)
            a_pts = np.array(A.members(), dtype=np.int64).reshape(-1, d)
            integer_mask = integer_cover_in_box(a_pts, box, m)
            cyclic_mask = sumset(A, B).mask
            assert np.array_equal(integer_mask, cyclic_mask)

    def test_exhaustive_small(self):
        # all B, all A over Z_4: exhaustive equivalence
        g = FiniteAbelianGroup((4,))
        for bm in range(1, 16):
            B = GroupSubset(g, [(bm >> i) & 1 for i in range(4)])
            box = lift_to_signed_box(B, 4, 1)
            for am in range(1, 16):
                A = GroupSubset(g, [(am >> i) & 1 for i in range(4)])
                a_pts = np.array(A.members(), dtype=np.int64)
                got = integer_cover_in_box(a_pts, box, 4)
                assert np.array_equal(got, sumset(A, B).mask)


class TestPatchTemplate:
    def test_coverage_threshold(self):
        # least N with 1 + K/N <= 1/(1-eps), i.e. N >= K(1-eps)/eps
        assert coverage_threshold(Fraction(100), Fraction(1, 2)) == 100
        assert coverage_threshold(Fraction(100), Fraction(1, 16)) == 1500
        assert coverage_threshold(Fraction(7, 2), Fraction(1, 3)) == 7

    def test_choose_k_capacity_aware(self):
        # eta_prop = 1/12 admits k in {13,17,19,23}; for min_m = 30000 the
        # smallest field comes from k = 17 (2^16), not k = 13 (2^24)
        k, s = choose_patch_k(Fraction(1, 12), 30000)
        assert (k, s) == (17, 1)

    def test_field_grows_until_threshold_fits(self):
        # eps = 1/32 needs 4455 cells from the k = 13, m = 2^12 field; the
        # next admissible field, k = 17 with m = 2^16, needs 7941 and fits
        tpl = build_patch_template(Fraction(1, 2), Fraction(1, 32), wraps=(-1, 0, 1), min_m=2)
        assert (tpl.params.k, tpl.m, tpl.params.m0) == (17, 65536, 4097)
        assert tpl.threshold_nz == 7941
        with pytest.raises(ParameterError, match="coverage threshold 4455 exceeds cell capacity m = 4096"):
            build_patch_template(Fraction(1, 2), Fraction(1, 32), wraps=(-1, 0, 1), min_m=2, cap=4096)

    def test_template_budget_and_bias(self):
        tpl = build_patch_template(Fraction(1, 2), Fraction(1, 4), wraps=(-1, 0, 1), min_m=64)
        assert tpl.cell_count <= tpl.budget_cells
        assert tpl.bias ** 2 * tpl.params.q < 1

    def test_cyclic_uncovered_exact(self):
        tpl = build_patch_template(Fraction(1, 2), Fraction(1, 4), wraps=(-1, 0, 1), min_m=64)
        m = tpl.m
        rng = np.random.default_rng(5)
        for a_cells in (np.flatnonzero(rng.random(m) < 0.5), rng.choice(m, 3, replace=False), [m - 1]):
            [u] = tpl.cyclic_uncovered([np.asarray(a_cells)])
            # brute-force oracle
            covered = set()
            for a in a_cells:
                for b in tpl.prop_cells:
                    covered.add((int(a) + int(b)) % m)
            assert u == m - len(covered)

    def test_threshold_guarantee(self):
        # any A meeting the operative threshold leaves at most eps*m uncovered
        tpl = build_patch_template(Fraction(1, 2), Fraction(1, 4), wraps=(-1, 0, 1), min_m=64)
        m = tpl.m
        rng = np.random.default_rng(9)
        for _ in range(20):
            size = tpl.threshold_nz + int(rng.integers(0, m // 4))
            a_cells = rng.choice(m, size=min(size, m), replace=False)
            [u] = tpl.cyclic_uncovered([a_cells])
            assert u <= tpl.eps * m

    def test_full_grid_family_coverage(self):
        # A = the cell centres (i + 1/2) w of all m cells of [0, 1], and of
        # the threshold-sized subsample the cascade certifies; B = the union
        # of corner + [c, c + 1] w over the template cells.  a0 + corner +
        # [0, 1] lies inside A + B for every a0 tried, exactly, on the 1/D
        # frame.  With m = 4096, dropping the wrap t = 0 leaves 263/8192 of
        # the target uncovered at a0 = 0, t = +1 leaves 263/8192 at a0 = 1,
        # and t = -1 leaves 1/8192 at a0 = 0.
        tpl = build_patch_template(Fraction(1, 2), Fraction(1, 4), wraps=(-1, 0, 1), min_m=128)
        m, need = tpl.m, tpl.threshold_nz
        corner, a0s = Fraction(3, 4), [Fraction(0), Fraction(5, 17), Fraction(1, 2), Fraction(1)]
        D = math.lcm(2 * m, corner.denominator, *(a0.denominator for a0 in a0s))
        w, c = D // m, tpl.cells.astype(np.int64)
        b_lo, b_hi = merge_int(int(corner * D) + c * w, int(corner * D) + (c + 1) * w)
        full = np.arange(m, dtype=np.int64)
        for a_cells in (full, full[(np.arange(need, dtype=np.int64) * m) // need]):
            assert tpl.cyclic_uncovered([a_cells]) == [0]
            parts = [points_plus(p, b_lo, b_hi) for p in np.array_split((2 * a_cells + 1) * (w // 2), 8)]
            union = merge_int(np.concatenate([lo for lo, _ in parts]), np.concatenate([hi for _, hi in parts]))
            for a0 in a0s:
                lo = int((a0 + corner) * D)
                assert int(covered_measure(*union, lo, lo + D)) == D, (a_cells.size, a0)
