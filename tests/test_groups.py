"""Fourier/sumset machinery tests against direct character-sum oracles."""

import cmath
import json
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nullcover import groups
from nullcover.bias_sets import (
    ParameterError,
    build_bias_complement,
    build_patch_template,
    select_parameters,
    verify_coverage_bound,
)
from nullcover.groups import (
    FiniteAbelianGroup,
    GroupError,
    GroupFunction,
    GroupSubset,
    convolve,
    dft,
    linear_bias,
    sumset,
    sumset_counts,
    wht_int,
)


def dft_oracle(f: GroupFunction) -> np.ndarray:
    """Direct O(|G|^2) character sum with the 1/|G| normalization."""
    g = f.group
    n = g.order
    out = np.zeros(n, dtype=complex)
    elems = list(g.elements())
    for i, xi in enumerate(elems):
        acc = 0j
        for j, x in enumerate(elems):
            phase = sum(a * b / m for a, b, m in zip(x, xi, g.moduli))
            acc += f.values[j] * cmath.exp(-2j * cmath.pi * phase)
        out[i] = acc / n
    return out


def inverse_oracle(fhat: GroupFunction) -> np.ndarray:
    """The bare conjugate character sum f(x) = sum_xi fhat(xi) exp(2 pi i xi.x)."""
    g = fhat.group
    elems = list(g.elements())
    out = np.zeros(g.order, dtype=complex)
    for j, x in enumerate(elems):
        for i, xi in enumerate(elems):
            phase = sum(a * b / m for a, b, m in zip(x, xi, g.moduli))
            out[j] += fhat.values[i] * cmath.exp(2j * cmath.pi * phase)
    return out


def convolve_oracle(f: GroupFunction, g: GroupFunction) -> np.ndarray:
    G = f.group
    n = G.order
    elems = list(G.elements())
    out = np.zeros(n, dtype=complex)
    for i, x in enumerate(elems):
        acc = 0j
        for j, y in enumerate(elems):
            diff = tuple((a - b) % m for a, b, m in zip(x, y, G.moduli))
            acc += f.values[j] * g.values[G.index(diff)]
        out[i] = acc / n
    return out


def sumset_oracle(A: GroupSubset, B: GroupSubset) -> set:
    G = A.group
    out = set()
    for a in A.members():
        for b in B.members():
            out.add(tuple((x + y) % m for x, y, m in zip(a, b, G.moduli)))
    return out


def sumset_count_oracle(A: GroupSubset, B: GroupSubset) -> Counter:
    """r(x) = #{(a, b) : a + b = x} by enumerating all pairs."""
    G = A.group
    return Counter(
        tuple((x + y) % m for x, y, m in zip(a, b, G.moduli))
        for a in A.members()
        for b in B.members()
    )


def assert_kernel_matches_oracles(A: GroupSubset, B: GroupSubset):
    G = A.group
    assert set(sumset(A, B).members()) == sumset_oracle(A, B)
    counts = sumset_counts(A.mask.reshape(G.moduli), B.mask.reshape(G.moduli))
    assert counts.dtype == np.int64 and counts.shape == G.moduli
    got = {G.element(int(i)): int(c) for i, c in enumerate(counts.reshape(-1)) if c}
    assert got == sumset_count_oracle(A, B)


Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))
Z8 = FiniteAbelianGroup((8,))


class TestDft:
    def test_full_indicator_z4(self):
        f = GroupFunction(Z4, [1, 1, 1, 1])
        assert np.allclose(dft(f).values, [1, 0, 0, 0], atol=1e-12)

    def test_point_indicator_z2(self):
        f = GroupFunction(Z2, [1, 0])
        assert np.allclose(dft(f).values, [0.5, 0.5], atol=1e-15)

    def test_even_indicator_z4_oracle(self):
        f = GroupFunction(Z4, [1, 0, 1, 0])
        expect = dft_oracle(f)
        assert np.allclose(expect, [0.5, 0, 0.5, 0], atol=1e-12)
        assert np.allclose(dft(f).values, expect, atol=1e-12)

    @pytest.mark.parametrize("moduli", [(2,), (4,), (2, 2), (3, 4), (2, 3, 5), (6, 2, 2)])
    def test_matches_oracle_random(self, moduli):
        g = FiniteAbelianGroup(moduli)
        rng = np.random.default_rng(7)
        f = GroupFunction(g, rng.normal(size=g.order) + 1j * rng.normal(size=g.order))
        assert np.allclose(dft(f).values, dft_oracle(f), atol=1e-10)

    @pytest.mark.parametrize("moduli", [(4,), (2, 2, 2), (3, 5)])
    def test_inverse_recovers(self, moduli):
        g = FiniteAbelianGroup(moduli)
        rng = np.random.default_rng(11)
        f = GroupFunction(g, rng.normal(size=g.order))
        assert np.allclose(inverse_oracle(dft(f)), f.values, atol=1e-10)

    def test_invalid_group(self):
        with pytest.raises(GroupError):
            FiniteAbelianGroup(())

    def test_plancherel_random_groups(self):
        rng = np.random.default_rng(3)
        shapes = [(2,), (17,), (64,), (4, 4), (8, 8, 8), (2,) * 12, (3, 3, 3, 3), (45, 91)]
        for moduli in shapes:
            g = FiniteAbelianGroup(moduli)
            assert g.order <= 4096
            f = GroupFunction(g, rng.normal(size=g.order) + 1j * rng.normal(size=g.order))
            lhs = g.order * np.sum(np.abs(dft(f).values) ** 2)
            rhs = np.sum(np.abs(f.values) ** 2)
            assert abs(lhs - rhs) <= 1e-9 * rhs


class TestConvolve:
    def test_point_masses_z4(self):
        f = GroupFunction(Z4, [1, 0, 0, 0])
        g = GroupFunction(Z4, [0, 1, 0, 0])
        assert np.allclose(convolve(f, g).values, [0, 0.25, 0, 0], atol=1e-15)

    def test_full_z2(self):
        f = GroupFunction(Z2, [1, 1])
        assert np.allclose(convolve(f, f).values, [1, 1], atol=1e-15)

    def test_block_z8_oracle(self):
        f = GroupFunction(Z8, [1, 1, 0, 0, 0, 0, 0, 0])
        got = convolve(f, f).values
        expect = convolve_oracle(f, f)
        assert np.allclose(got, expect, atol=1e-12)
        assert abs(got[1] - 2 / 8) < 1e-12

    def test_group_mismatch(self):
        with pytest.raises(GroupError):
            convolve(GroupFunction(Z4, [1, 0, 0, 0]), GroupFunction(Z2, [1, 0]))

    def test_convolution_theorem_random(self):
        rng = np.random.default_rng(5)
        for moduli in [(16,), (4096,), (2,) * 10, (16, 16), (5, 7, 9)]:
            g = FiniteAbelianGroup(moduli)
            f1 = GroupFunction(g, rng.normal(size=g.order))
            f2 = GroupFunction(g, rng.normal(size=g.order))
            lhs = dft(convolve(f1, f2)).values
            rhs = dft(f1).values * dft(f2).values
            assert np.allclose(lhs, rhs, atol=1e-9)


class TestLinearBias:
    def test_whole_group_zero(self):
        for g in (Z8, FiniteAbelianGroup((2, 2, 2)), FiniteAbelianGroup((3, 5))):
            B = GroupSubset(g, np.ones(g.order, dtype=bool))
            assert abs(float(linear_bias(B))) < 1e-14

    def test_singleton(self):
        for n in (2, 5, 16):
            g = FiniteAbelianGroup((n,))
            B = GroupSubset.from_members(g, [(0,)])
            assert abs(float(linear_bias(B)) - 1 / n) < 1e-12

    def test_exact_fraction_on_two_groups(self):
        g = FiniteAbelianGroup((2, 2, 2, 2))
        rng = np.random.default_rng(9)
        mask = rng.random(16) < 0.5
        mask[0] = True
        B = GroupSubset(g, mask)
        b = linear_bias(B)
        assert isinstance(b, Fraction)
        # float path agreement within 1e-12
        vals = np.fft.fftn(mask.astype(float).reshape(g.moduli)).reshape(-1)
        ref = np.abs(vals[1:]).max() / g.order
        assert abs(float(b) - ref) < 1e-12

    def test_trivial_group_error(self):
        g = FiniteAbelianGroup((1,))
        with pytest.raises(GroupError):
            linear_bias(GroupSubset(g, [True]))


class TestSumset:
    def test_matches_oracle_random(self):
        rng = np.random.default_rng(13)
        for moduli in [(7,), (12,), (4, 5), (2, 3, 4), (2,), (2,) * 5, (2,) * 7]:
            g = FiniteAbelianGroup(moduli)
            for _ in range(20):
                ma = rng.random(g.order) < 0.3
                mb = rng.random(g.order) < 0.3
                if not ma.any() or not mb.any():
                    continue
                assert_kernel_matches_oracles(GroupSubset(g, ma), GroupSubset(g, mb))

    def test_2_group_full_popcount(self):
        # (Z_2)^16 with the all-ones element (popcount 16) in A
        g = FiniteAbelianGroup((2,) * 16)
        rng = np.random.default_rng(29)
        ma = np.zeros(g.order, dtype=bool)
        ma[[0, g.order - 1, 0x5A5A, 0x0F0F]] = True
        mb = np.zeros(g.order, dtype=bool)
        mb[rng.choice(g.order, 300, replace=False)] = True
        mb[g.order - 1] = True
        assert_kernel_matches_oracles(GroupSubset(g, ma), GroupSubset(g, mb))

    def test_support_identity(self):
        # 1A * 1B vanishes exactly off A+B
        g = FiniteAbelianGroup((6, 4))
        rng = np.random.default_rng(17)
        ma = rng.random(24) < 0.25
        mb = rng.random(24) < 0.25
        ma[0] = mb[0] = True
        A, B = GroupSubset(g, ma), GroupSubset(g, mb)
        conv = convolve(GroupFunction.indicator(A), GroupFunction.indicator(B))
        S = sumset(A, B)
        off = np.abs(conv.values[~S.mask])
        assert off.size == 0 or off.max() < 1e-12

    @pytest.mark.parametrize("moduli", [(7,), (16,), (6, 10), (8, 8), (2,), (2,) * 5])
    def test_batch_equals_per_row_calls(self, moduli):
        # one leading batch axis on a: B transformed once, the same counts as row by row
        rng = np.random.default_rng(len(moduli) * 100 + moduli[0])
        a = rng.random((4,) + moduli) < 0.3
        b = rng.random(moduli) < 0.4
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. numpy's `s` without `axes`
            got = sumset_counts(a, b)
            rows = [sumset_counts(row, b) for row in a]
        assert got.dtype == np.int64 and got.shape == a.shape
        assert np.array_equal(got, np.stack(rows))
        for row, counts in zip(a, got):  # and each row against the pair enumeration
            g = FiniteAbelianGroup(moduli)
            A, B = GroupSubset(g, row), GroupSubset(g, b)
            want = sumset_count_oracle(A, B)
            assert {g.element(i): int(c) for i, c in enumerate(counts.reshape(-1)) if c} == want


def pair_counts(row: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r(x) by enumerating every pair (s, t) of A x B, vectorised: the oracle
    for the packed rows."""
    shape = b.shape
    sums = (np.argwhere(row)[:, None, :] + np.argwhere(b)[None, :, :]) % np.array(shape)
    idx = np.ravel_multi_index(tuple(sums.reshape(-1, len(shape)).T), shape)
    return np.bincount(idx, minlength=b.size).reshape(shape)


def transform_pairs(monkeypatch) -> list:
    """Counts the forward real transforms `sumset_counts` takes: one for B,
    then one per pack of rows."""
    calls, real = [], np.fft.rfftn

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counted)
    return calls


class TestPackedRows:
    """Rows packed as base-2^w digits of one signal against per-row calls and
    the pair enumeration."""

    def check(self, a, b):
        got = sumset_counts(a, b)
        assert got.dtype == np.int64 and got.shape == a.shape
        for row, counts in zip(a, got):
            assert np.array_equal(counts, sumset_counts(row, b))
            assert np.array_equal(counts, pair_counts(row, b))
        return got

    @pytest.mark.parametrize("moduli", [(97,), (256,), (12, 10), (16, 16)])
    def test_random_batches(self, moduli):
        rng = np.random.default_rng(sum(moduli))
        for rows in range(1, 8):
            a = rng.random((rows,) + moduli) < rng.uniform(0.02, 0.6, (rows,) + (1,) * len(moduli))
            b = rng.random(moduli) < rng.uniform(0.05, 0.9)
            self.check(a, b)

    @pytest.mark.parametrize("moduli", [(61,), (9, 14)])
    def test_counts_reach_the_digit_top(self, moduli):
        # |B| = 7 and each row holds a translate of -B, so a count reaches
        # 7 = 2^w - 1 in every digit of the pack; then |A| = 7 against a full B
        rng = np.random.default_rng(7)
        b = np.zeros(moduli, dtype=bool)
        b_cells = np.unravel_index(rng.choice(b.size, 7, replace=False), moduli)
        b[b_cells] = True
        a = rng.random((7,) + moduli) < 0.2
        for i, row in enumerate(a):
            x = np.unravel_index(int(rng.integers(b.size)), moduli)
            row[tuple((xi - c) % m for xi, c, m in zip(x, b_cells, moduli))] = True
        got = self.check(a, b)
        assert all(counts.max() == 7 for counts in got)
        small = np.zeros((3,) + moduli, dtype=bool)
        for row in small:
            row.reshape(-1)[rng.choice(b.size, 7, replace=False)] = True
        got = self.check(small, np.ones(moduli, dtype=bool))
        assert np.all(got == 7)

    def test_several_packs(self, monkeypatch):
        # |A|, |B| about 1500 of 4096: w = 11, and the bound allows P = 3
        # (P = 4 would pass w P <= 52 but not 2^-8), so 7 rows take 3 packs
        rng = np.random.default_rng(3)
        a = rng.random((7, 4096)) < 0.37
        b = rng.random(4096) < 0.37
        calls = transform_pairs(monkeypatch)
        got = sumset_counts(a, b)
        assert len(calls) == 1 + 3
        monkeypatch.undo()
        assert np.array_equal(got, np.stack([pair_counts(row, b) for row in a]))
        assert np.array_equal(got, np.stack([sumset_counts(row, b) for row in a]))

    def test_bound_forces_single_rows(self, monkeypatch):
        # half of Z_{2^20} against half of it: w = 20 would fit two digits in
        # 52 bits, but the bound for P = 2 is about 2^-5, so every row is a pack
        # of one; the counts are the trapezoid of two intervals
        N, half = 1 << 20, 1 << 19
        a = np.zeros((2, N), dtype=bool)
        a[0, :half] = True
        a[1, 7:7 + half] = True
        b = np.zeros(N, dtype=bool)
        b[:half] = True
        calls = transform_pairs(monkeypatch)
        got = sumset_counts(a, b)
        assert len(calls) == 1 + 2
        x = np.arange(N)
        trapezoid = np.maximum(np.minimum(np.minimum(x + 1, half), 2 * half - 1 - x), 0)
        assert np.array_equal(got[0], trapezoid)
        assert np.array_equal(got[1], np.roll(trapezoid, 7))


class TestCoverReport:
    """The bias-to-sumset inequality, as `verify_coverage_bound` certifies it."""

    def test_singleton_plus_group(self):
        g = FiniteAbelianGroup((8,))
        A = GroupSubset.from_members(g, [(0,)])
        B = GroupSubset(g, np.ones(8, dtype=bool))
        cert = verify_coverage_bound(A, B, Fraction(1, 3))
        assert cert.sumset_size == 8
        assert cert.ratio == 1
        assert float(cert.lemma_bound) == pytest.approx(1.0, abs=1e-12)
        assert cert.lemma_ok

    def test_block_pair_z8(self):
        g = FiniteAbelianGroup((8,))
        A = GroupSubset.from_members(g, [(0,), (1,)])
        cert = verify_coverage_bound(A, A, Fraction(1, 3))
        assert cert.sumset_size == 3
        assert cert.ratio == Fraction(8, 3)
        assert cert.lemma_ok
        assert cert.lemma_bound >= cert.ratio

    def test_empty_error(self):
        g = FiniteAbelianGroup((4,))
        empty, full = GroupSubset(g, np.zeros(4, dtype=bool)), GroupSubset(g, np.ones(4, dtype=bool))
        for A, B in [(empty, full), (full, empty)]:
            with pytest.raises(ParameterError):
                verify_coverage_bound(A, B, Fraction(1, 3))

    def test_random_pairs_never_violate(self):
        # (2, 2, 2, 2) takes the exact Fraction path; (11,), (16,) and (6, 6) the float one
        rng = np.random.default_rng(23)
        for moduli in [(11,), (16,), (2, 2, 2, 2), (6, 6)]:
            g = FiniteAbelianGroup(moduli)
            for _ in range(50):
                ma = rng.random(g.order) < rng.uniform(0.1, 0.9)
                mb = rng.random(g.order) < rng.uniform(0.1, 0.9)
                if not ma.any() or not mb.any():
                    continue
                cert = verify_coverage_bound(GroupSubset(g, ma), GroupSubset(g, mb), Fraction(1, 3))
                assert cert.lemma_ok


def test_wht_roundtrip():
    rng = np.random.default_rng(1)
    v = rng.integers(-5, 6, size=32)
    w = wht_int(v, (2,) * 5)
    assert np.array_equal(wht_int(w, (2,) * 5), 32 * v)


@pytest.mark.parametrize("r", [0, 1, 3, 8, 10])
def test_wht_matches_character_sum(r):
    """W(xi) = sum_x f(x) (-1)^(x.xi), directly, and the input is left as it was."""
    rng = np.random.default_rng(r)
    v = rng.integers(-50, 51, size=1 << r)
    kept = v.copy()
    x = np.arange(1 << r)
    signs = 1 - 2 * (np.bitwise_count(x[:, None] & x[None, :]) & 1).astype(np.int64)
    assert np.array_equal(wht_int(v, (2,) * r), signs @ v)
    assert np.array_equal(wht_int(v > 0, (2,) * r), signs @ (v > 0))
    assert np.array_equal(v, kept)
    with pytest.raises(GroupError):
        wht_int(v, (2,) * (r + 1))


def test_subset_serialization_roundtrip():
    g = FiniteAbelianGroup((3, 4))
    B = GroupSubset.from_members(g, [(2, 3), (0, 0), (1, 2)])
    d = B.to_json_dict()
    assert d["members"] == sorted(d["members"])  # lexicographic order
    assert GroupSubset.from_json_dict(d) == B


@pytest.mark.parametrize("moduli", [(1,), (7,), (3, 4), (2, 5, 3), (4, 1, 6)])
@pytest.mark.parametrize("n", [0, 1, 5, 40])
def test_subset_layout_matches_scalar_index(moduli, n):
    # the numpy layout against FiniteAbelianGroup.index/element, one element at
    # a time: negative coordinates and coordinates >= m wrap mod m
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(n + sum(moduli))
    hi = 3 * np.array(moduli)
    members = [tuple(rng.integers(-hi, hi + 1).tolist()) for _ in range(n)]
    mask = np.zeros(g.order, dtype=bool)
    for mem in members:
        mask[g.index(mem)] = True
    expected = [g.element(i) for i in np.flatnonzero(mask).tolist()]
    B = GroupSubset.from_members(g, members)
    assert np.array_equal(B.mask, mask)
    assert B.members() == expected
    assert all(type(x) is int for mem in B.members() for x in mem)
    assert B.to_json_dict() == {"moduli": list(moduli), "members": [list(e) for e in expected]}
    assert json.loads(json.dumps(B.to_json_dict())) == B.to_json_dict()


class TestFixedSubset:
    """A subset keeps a read-only copy of its mask, and its size and spectrum are
    computed once."""

    def test_mask_is_read_only(self):
        B = GroupSubset(FiniteAbelianGroup((2,) * 4), np.arange(16) % 3 == 0)
        with pytest.raises(ValueError):
            B.mask[0] = False
        with pytest.raises(ValueError):
            B.spectrum[0] = 0

    @pytest.mark.parametrize("moduli", [(2,) * 6, (6, 4)])
    def test_source_mutation_changes_nothing(self, moduli):
        g = FiniteAbelianGroup(moduli)
        src = np.random.default_rng(3).random(g.order) < 0.4
        kept = src.copy()
        B = GroupSubset(g, src)
        size = B.size
        spectrum = B.spectrum.copy() if g.is_elementary_2 else None
        src[:] = ~src
        assert np.array_equal(B.mask, kept) and B.size == size == int(kept.sum())
        if g.is_elementary_2:
            assert np.array_equal(B.spectrum, spectrum)

    @pytest.mark.parametrize("r", [1, 5, 12])
    def test_spectrum_is_the_wht(self, r):
        g = FiniteAbelianGroup((2,) * r)
        B = GroupSubset(g, np.random.default_rng(r).random(g.order) < 0.3)
        assert B.spectrum.dtype == np.int32
        assert np.array_equal(B.spectrum, wht_int(B.mask, g.moduli))
        with pytest.raises(GroupError):
            GroupSubset(Z8, np.ones(8, dtype=bool)).spectrum

    def test_b_transformed_once_for_many_certificates(self, monkeypatch):
        # the complement is built, then certified against five sets A with the
        # bias recomputed each time: B's mask goes through the butterflies once
        seen, real = [], groups._butterflies

        def counted(a):
            seen.append(a.copy())  # the butterflies overwrite their input
            return real(a)

        monkeypatch.setattr(groups, "_butterflies", counted)
        comp = build_bias_complement(select_parameters(Fraction(1, 3), 16, 2))
        B, rng = comp.subset, np.random.default_rng(8)
        for size in (1, 2, 5, 9, 40):
            mask = np.zeros(B.group.order, dtype=bool)
            mask[rng.choice(B.group.order, size, replace=False)] = True
            verify_coverage_bound(GroupSubset(B.group, mask), B, Fraction(1, 3))
        assert sum(np.array_equal(v, B.mask) for v in seen) == 1
        assert len(seen) == 1 + 2 * 5  # and two per sumset, for A and the product

    @pytest.mark.parametrize("r", [1, 4, 7])
    def test_2_group_sumset_is_the_count_support(self, r):
        g = FiniteAbelianGroup((2,) * r)
        rng = np.random.default_rng(r + 40)
        masks = [rng.random(g.order) < 0.2, rng.random(g.order) < 0.5,
                 np.zeros(g.order, dtype=bool), np.ones(g.order, dtype=bool)]
        for ma in masks:
            for mb in masks:
                A, B = GroupSubset(g, ma), GroupSubset(g, mb)
                S = sumset(A, B)
                want = sumset_counts(ma.reshape(g.moduli), mb.reshape(g.moduli)) > 0
                assert np.array_equal(S.mask, want.reshape(-1))
                assert set(S.members()) == sumset_oracle(A, B)


def test_batched_cyclic_uncovered_equals_per_set_counts():
    tpl = build_patch_template(Fraction(1, 2), Fraction(1, 4), wraps=(-1, 0, 1), min_m=64)
    m, rng = tpl.m, np.random.default_rng(21)
    sets = [np.arange(m), rng.choice(m, tpl.threshold_nz, replace=False), np.array([m - 1, 2 * m + 3]),
            np.array([], dtype=np.int64), np.flatnonzero(rng.random(m) < 0.05)]
    got = tpl.cyclic_uncovered(sets)
    assert got == [u for cells in sets for u in tpl.cyclic_uncovered([cells])]
    for cells, u in zip(sets, got):
        covered = {(int(a) + int(b)) % m for a in cells for b in tpl.prop_cells}
        assert u == m - len(covered)
    assert tpl.cyclic_uncovered([]) == []
