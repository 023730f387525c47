"""Finite field tests: irreducibility oracles, axioms, power sets, bias."""

from fractions import Fraction

import numpy as np
import pytest

from nullcover.bias_sets import ParameterError, select_parameters
from nullcover.gf import (
    FieldError,
    FieldSpec,
    _polymulmod,
    _polypowmod,
    all_coords,
    bulk_mul,
    bulk_pow,
    coordinate_subset,
    coords_to_codes,
    is_irreducible,
    kth_power_codes,
    make_field,
    packed_mul,
    packed_pow,
)
from nullcover.groups import linear_bias


def coeffs_of(spec, code):
    """The n base-p digits of a field code, c_0 first."""
    return [(code // spec.p**i) % spec.p for i in range(spec.n)]


def code_of(spec, coeffs):
    return sum(int(c) * spec.p**i for i, c in enumerate(coeffs))


def scalar_mul(spec, x, y):
    """Field product of two codes on the scalar polynomial path."""
    return code_of(spec, _polymulmod(coeffs_of(spec, x), coeffs_of(spec, y), list(spec.modulus), spec.p))


def scalar_pow(spec, x, e):
    return code_of(spec, _polypowmod(coeffs_of(spec, x), e, list(spec.modulus), spec.p))


def irreducible_scan_oracle(p, n):
    """Exhaustive trial-division irreducibility over all lower-degree monics."""
    def poly_from_code(code, deg):
        c = []
        for _ in range(deg):
            c.append(code % p)
            code //= p
        return c + [1]

    def polymul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out

    for code in range(p**n):
        f = poly_from_code(code, n)
        reducible = False
        for d1 in range(1, n // 2 + 1):
            d2 = n - d1
            for c1 in range(p**d1):
                g = poly_from_code(c1, d1)
                for c2 in range(p**d2):
                    h = poly_from_code(c2, d2)
                    if polymul(g, h) == f:
                        reducible = True
                        break
                if reducible:
                    break
            if reducible:
                break
        if not reducible:
            return tuple(f)
    return None


class TestMakeField:
    def test_prime_field_modulus_is_x(self):
        assert make_field(3, 1).modulus == (0, 1)
        assert make_field(2, 1).modulus == (0, 1)

    def test_gf16_modulus(self):
        # x^4 + x + 1, confirmed by the exhaustive scan oracle
        assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)
        assert irreducible_scan_oracle(2, 4) == (1, 1, 0, 0, 1)

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_lex_smallest_matches_oracle(self, p, n):
        assert make_field(p, n).modulus == irreducible_scan_oracle(p, n)

    def test_not_prime(self):
        with pytest.raises(FieldError):
            make_field(6, 2)

    def test_cap(self):
        with pytest.raises(FieldError):
            make_field(2, 30)

    def test_cached_modulus_still_checks_every_call(self):
        # the modulus search is cached per (p, n); the cap and primality checks are not
        assert make_field(2, 12).modulus == make_field(2, 12, cap=1 << 12).modulus
        with pytest.raises(FieldError):
            make_field(2, 12, cap=1 << 11)
        with pytest.raises(FieldError):
            make_field(4, 2)

    def test_serialization_roundtrip(self):
        spec = make_field(3, 3)
        assert FieldSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_rejects_reducible_modulus(self):
        with pytest.raises(FieldError):
            FieldSpec.from_json_dict({"p": 2, "n": 2, "modulus": [1, 0, 1]})  # (x+1)^2


class TestAxioms:
    @pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (5, 2), (7, 1)])
    def test_sampled_axioms(self, p, n):
        spec = make_field(p, n)
        rng = np.random.default_rng(42)
        q = spec.q
        N = 10_000
        a = all_coords(spec)[rng.integers(0, q, N)]
        b = all_coords(spec)[rng.integers(0, q, N)]
        c = all_coords(spec)[rng.integers(0, q, N)]
        # associativity of multiplication
        lhs = bulk_mul(spec, bulk_mul(spec, a, b), c)
        rhs = bulk_mul(spec, a, bulk_mul(spec, b, c))
        assert np.array_equal(lhs, rhs)
        # distributivity
        lhs = bulk_mul(spec, a, (b + c) % p)
        rhs = (bulk_mul(spec, a, b) + bulk_mul(spec, a, c)) % p
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (2, 10)])
    def test_every_nonzero_has_inverse(self, p, n):
        spec = make_field(p, n)
        coords = all_coords(spec)[1:]
        inv = bulk_pow(spec, coords, spec.q - 2)
        prod = bulk_mul(spec, coords, inv)
        assert np.array_equal(coords_to_codes(spec, prod), np.ones(spec.q - 1, dtype=np.int64))

    def test_scalar_ops_match_bulk(self):
        spec = make_field(3, 2)
        for x in range(9):
            for y in range(9):
                bz = bulk_mul(spec, np.array([coeffs_of(spec, x)]), np.array([coeffs_of(spec, y)]))[0]
                assert code_of(spec, bz) == scalar_mul(spec, x, y)

    def test_generator_has_full_order(self):
        # the multiplicative group is cyclic of order q - 1: every x^(q-1) is 1,
        # and some x has x^((q-1)/r) != 1 for every prime r | q - 1
        for p, n in [(2, 4), (3, 2), (7, 1), (2, 8)]:
            spec = make_field(p, n)
            q = spec.q
            nonzero = all_coords(spec)[1:]
            assert np.all(coords_to_codes(spec, bulk_pow(spec, nonzero, q - 1)) == 1)
            full = np.ones(q - 1, dtype=bool)
            for r in {2, 3, 5, 7, 17, 257}:
                if (q - 1) % r == 0:
                    full &= coords_to_codes(spec, bulk_pow(spec, nonzero, (q - 1) // r)) != 1
            g = int(np.flatnonzero(full)[0]) + 1
            assert scalar_pow(spec, g, q - 1) == 1
            assert all(scalar_pow(spec, g, (q - 1) // r) != 1 for r in range(2, q) if (q - 1) % r == 0)


class TestPowerSets:
    def test_first_powers_f7(self):
        spec = make_field(7, 1)
        assert kth_power_codes(spec, 1).tolist() == [1, 2, 3, 4, 5, 6]

    def test_f16_cubes_count(self):
        spec = make_field(2, 4)
        assert len(kth_power_codes(spec, 3)) == 5

    def test_f9_squares_oracle_and_bias(self):
        spec = make_field(3, 2)
        # exhaustive squaring oracle on the scalar polynomial path
        squares = sorted({scalar_mul(spec, c, c) for c in range(1, 9)})
        assert kth_power_codes(spec, 2).tolist() == squares
        assert len(squares) == 4
        bias = linear_bias(coordinate_subset(spec, squares))
        assert bias < 1 / 3  # paper bound 1/sqrt(9)

    def test_k_not_dividing(self):
        spec = make_field(2, 4)
        with pytest.raises(FieldError):
            kth_power_codes(spec, 4)

    def test_include_zero(self):
        spec = make_field(2, 4)
        codes = kth_power_codes(spec, 3, include_zero=True)
        assert len(codes) == 6 and codes[0] == 0

    @pytest.mark.parametrize(
        "p,n,k",
        [(2, 4, 3), (2, 4, 5), (2, 6, 7), (3, 2, 2), (3, 2, 4), (5, 2, 3), (7, 2, 6), (2, 12, 13),
         (2, 20, 3)],
    )
    def test_size_formula(self, p, n, k):
        spec = make_field(p, n)
        assert len(kth_power_codes(spec, k)) == (spec.q - 1) // k

    @pytest.mark.parametrize("p,n,k", [(2, 4, 3), (2, 8, 5), (3, 2, 2), (3, 4, 5), (5, 2, 4), (7, 2, 3)])
    def test_gauss_sum_bias(self, p, n, k):
        spec = make_field(p, n)
        codes = kth_power_codes(spec, k)
        bias = linear_bias(coordinate_subset(spec, codes))
        assert float(bias) < spec.q ** (-0.5)
        # include-zero variant: perturbed by exactly 1/q per coefficient
        bias0 = linear_bias(coordinate_subset(spec, kth_power_codes(spec, k, include_zero=True)))
        assert float(bias0) <= float(bias) + 1 / spec.q + 1e-12


def oracle_mul_codes(spec, a, b):
    """The (N, n) coefficient-array product of two code arrays, as codes."""
    weights = spec.p ** np.arange(spec.n, dtype=np.int64)
    coords_a = (np.asarray(a, dtype=np.int64)[:, None] // weights) % spec.p
    coords_b = (np.asarray(b, dtype=np.int64)[:, None] // weights) % spec.p
    return coords_to_codes(spec, bulk_mul(spec, coords_a, coords_b))


def oracle_kth_power_codes(spec, k):
    return np.unique(coords_to_codes(spec, bulk_pow(spec, all_coords(spec)[1:], k)))


def square_multiply_pow(spec, a, e):
    """Elementwise e-th powers of uint64 codes by square-and-multiply on
    `packed_mul`: the oracle of the Frobenius-table `packed_pow`."""
    base = np.asarray(a, dtype=np.uint64)
    result = np.ones(base.shape, dtype=np.uint64)
    while e:
        if e & 1:
            result = packed_mul(spec, result, base)
        e >>= 1
        if e:
            base = packed_mul(spec, base, base)
    return result


class TestPacked:
    """The packed uint64 GF(2^t) kernel against the coefficient-array oracle."""

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
    def test_full_product_table(self, t):
        spec = make_field(2, t)
        a, b = np.divmod(np.arange(spec.q * spec.q, dtype=np.int64), spec.q)
        got = packed_mul(spec, a.astype(np.uint64), b.astype(np.uint64))
        assert got.dtype == np.uint64
        assert np.array_equal(got.astype(np.int64), oracle_mul_codes(spec, a, b))

    @pytest.mark.parametrize("t", [8, 12, 16, 20, 24])
    def test_random_pairs(self, t):
        spec = make_field(2, t)
        rng = np.random.default_rng(1000 + t)
        a = rng.integers(0, spec.q, 10_000)
        b = rng.integers(0, spec.q, 10_000)
        got = packed_mul(spec, a.astype(np.uint64), b.astype(np.uint64))
        assert np.array_equal(got.astype(np.int64), oracle_mul_codes(spec, a, b))
        # the inverse by Fermat: a^(q-2) * a = 1 for a != 0
        nz = a[a != 0].astype(np.uint64)
        inv = packed_pow(spec, nz, spec.q - 2)
        assert np.all(packed_mul(spec, nz, inv) == 1)

    @pytest.mark.parametrize("t", range(1, 13))
    def test_kth_power_codes_every_small_k(self, t):
        spec = make_field(2, t)
        ks = [k for k in range(1, 51) if (spec.q - 1) % k == 0]
        for k in ks:
            assert np.array_equal(kth_power_codes(spec, k), oracle_kth_power_codes(spec, k)), k

    @pytest.mark.parametrize("t,k", [(16, 3), (16, 5), (16, 15), (16, 17), (12, 13)])
    def test_kth_power_codes_construction_fields(self, t, k):
        spec = make_field(2, t)
        got = kth_power_codes(spec, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle_kth_power_codes(spec, k))

    def test_frobenius_powers_equal_square_and_multiply(self):
        # every exponent bit pattern up to 2^10, and 2^24 elements' worth of
        # codes at the widest field, element for element
        for t in (1, 3, 8, 9, 13):
            spec = make_field(2, t)
            a = np.arange(spec.q, dtype=np.uint64)
            for e in list(range(0, 64)) + [255, 256, 1000, 1023, spec.q - 2]:
                assert np.array_equal(packed_pow(spec, a, e), square_multiply_pow(spec, a, e)), (t, e)
        top = make_field(2, 32, cap=1 << 32)
        a = np.random.default_rng(32).integers(0, 1 << 32, 4096).astype(np.uint64)
        for e in (3, 17, 257, 65537, (1 << 32) - 2):
            assert np.array_equal(packed_pow(top, a, e), square_multiply_pow(top, a, e)), e

    def test_kth_power_codes_every_selected_field(self):
        # every (t, k) that select_parameters picks with t <= 16: equal codes
        # to the square-and-multiply powers of every nonzero element
        pairs = set()
        for n in range(3, 40):
            for d in range(1, 17):
                for m0 in (1, 2, 5, 17, 100, 257, 1 << 12, 1 << 16):
                    try:
                        params = select_parameters(Fraction(1, n), m0, d, cap=1 << 16)
                    except ParameterError:  # q above 2^16
                        continue
                    pairs.add((params.d * params.s * (params.k - 1), params.k))
        assert (16, 17) in pairs and (16, 3) in pairs and (12, 13) in pairs
        for t, k in sorted(pairs):
            spec = make_field(2, t)
            powers = square_multiply_pow(spec, np.arange(1, spec.q, dtype=np.uint64), k)
            assert np.array_equal(kth_power_codes(spec, k), np.unique(powers.astype(np.int64))), (t, k)

    def test_rejects_wide_or_odd_fields(self):
        wide = make_field(2, 33, cap=1 << 33)
        with pytest.raises(FieldError):
            kth_power_codes(wide, 1)
        with pytest.raises(FieldError):
            packed_mul(wide, np.ones(1, np.uint64), np.ones(1, np.uint64))
        with pytest.raises(FieldError):
            packed_mul(make_field(3, 2), np.ones(1, np.uint64), np.ones(1, np.uint64))
        top = make_field(2, 32, cap=1 << 32)  # the widest field: 63-bit products
        a = np.array([1 << 31, (1 << 32) - 1, 0x9E3779B9], dtype=np.int64)
        got = packed_mul(top, a.astype(np.uint64), a[::-1].astype(np.uint64))
        assert np.array_equal(got.astype(np.int64), oracle_mul_codes(top, a, a[::-1]))


def layout_oracle(spec, codes):
    """Group index of each code: its n base-p digits reversed, by numpy."""
    shape = (spec.p,) * spec.n
    return np.ravel_multi_index(np.unravel_index(codes, shape)[::-1], shape)


class TestCoordinates:
    def test_zero_and_one(self):
        spec = make_field(2, 4)
        assert coordinate_subset(spec, [0]).members() == [(0, 0, 0, 0)]
        assert coordinate_subset(spec, [1]).members() == [(1, 0, 0, 0)]

    def test_f9_generator_coordinates(self):
        spec = make_field(3, 2)
        # modulus x^2 + 1: x (code 3) has coordinates (0, 1); x^2 = -1 (code 2),
        # so x has order 4, while x + 1 (code 4) has order 8 and generates
        assert spec.modulus == (1, 0, 1)
        assert coordinate_subset(spec, [3]).members() == [(0, 1)]
        assert [scalar_pow(spec, 3, e) for e in (2, 4)] == [2, 1]
        assert [scalar_pow(spec, 4, e) for e in (2, 4, 8)] == [6, 2, 1]

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (2, 12)])
    def test_additive_isomorphism_exhaustive(self, p, n):
        spec = make_field(p, n)
        coords = all_coords(spec)
        idx = np.arange(spec.q)
        jdx = (idx * 7 + 3) % spec.q
        # field addition is digitwise mod p; its image is the group sum
        sums = coords_to_codes(spec, (coords[idx] + coords[jdx]) % p)
        for i in range(0, spec.q, max(1, spec.q // 64)):
            (x,), (y,), (s,) = (coordinate_subset(spec, [int(c)]).members() for c in (idx[i], jdx[i], sums[i]))
            assert s == tuple((a + b) % p for a, b in zip(x, y))

    @pytest.mark.parametrize("t", range(1, 13))
    def test_layout_every_code_p2(self, t):
        spec = make_field(2, t)
        for code in range(spec.q):
            assert np.flatnonzero(coordinate_subset(spec, [code]).mask).tolist() == [
                int(layout_oracle(spec, code))
            ]

    @pytest.mark.parametrize("p,n,k", [(2, 16, 3), (2, 16, 17), (3, 6, 7), (5, 4, 13), (7, 3, 19)])
    def test_layout_power_sets(self, p, n, k):
        spec = make_field(p, n)
        codes = kth_power_codes(spec, k)
        expect = np.zeros(spec.q, dtype=bool)
        expect[layout_oracle(spec, codes)] = True
        assert np.array_equal(coordinate_subset(spec, codes).mask, expect)


def test_irreducibility_helper_agrees_with_oracle():
    for p, n in [(2, 3), (3, 2)]:
        for code in range(p**n):
            coeffs = []
            c = code
            for _ in range(n):
                coeffs.append(c % p)
                c //= p
            f = coeffs + [1]
            # oracle: check for roots and factorizations by brute force
            def polymul(a, b):
                out = [0] * (len(a) + len(b) - 1)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        out[i + j] = (out[i + j] + ai * bj) % p
                return out

            reducible = False
            for d1 in range(1, n // 2 + 1):
                for c1 in range(p ** d1):
                    g = []
                    cc = c1
                    for _ in range(d1):
                        g.append(cc % p)
                        cc //= p
                    g.append(1)
                    for c2 in range(p ** (n - d1)):
                        h = []
                        cc = c2
                        for _ in range(n - d1):
                            h.append(cc % p)
                            cc //= p
                        h.append(1)
                        if polymul(g, h) == f:
                            reducible = True
            assert is_irreducible(f, p) == (not reducible)
