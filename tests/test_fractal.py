"""Cantor generators, counting, gauge content DP, largeness, dimension."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from nullcover.fractal import (
    DyadicCubeSet,
    FractalError,
    GaugeFunction,
    IntervalUnion,
    LargenessProfile,
    covering_number,
    generate_cantor,
    hausdorff_content_dyadic,
    hausdorff_distance,
    log_dimension_estimate,
    packing_number_exhaustive,
    packing_number_greedy,
    uniform_large_subset,
    _directed_h_intervals,
)

MIDDLE_THIRDS = {"kind": "digits", "base": 3, "digits": [0, 2]}


class TestGenerateCantor:
    def test_full_binary(self):
        A = generate_cantor({"kind": "digits", "base": 2, "digits": [0, 1]}, depth=5)
        assert A.size == 32 and A.k == 5
        assert covering_number(A, Fraction(1, 2)) == 2

    def test_middle_thirds_depth2(self):
        A = generate_cantor(MIDDLE_THIRDS, depth=2)
        boxes = A.exact_boxes()
        assert len(boxes) == 4
        widths = {hi - lo for ((lo, hi),) in boxes}
        assert widths == {Fraction(1, 9)}
        assert covering_number(A, Fraction(1, 9)) == 4

    def test_sparse_rule(self):
        # N_k = 2^k at delta_k = 2^-2^k, depth 3
        sched = [(2**k, 2**k) for k in range(1, 4)]
        A = generate_cantor({"kind": "sparse", "schedule": sched, "d": 1}, depth=3)
        assert A.k == 8
        assert A.size == 8
        assert covering_number(A, Fraction(1, 2**8)) == 8

    def test_empty_digits_error(self):
        with pytest.raises(FractalError):
            generate_cantor({"kind": "digits", "base": 3, "digits": []}, depth=2)

    @pytest.mark.parametrize("base, digits, depth", [
        (3, [0, 5], 2), (3, [0, 3], 2), (3, [-1, 2], 2), (0, [0], 2), (1, [0], 2),
        (2, [[0], [0, 2]], 2), (3, [0, 2], -1),
    ])
    def test_digit_rule_error(self, base, digits, depth):
        with pytest.raises(FractalError, match="base >= 2"):
            generate_cantor({"kind": "digits", "base": base, "digits": digits}, depth=depth)

    def test_2d_digits(self):
        A = generate_cantor({"kind": "digits", "base": 2, "digits": [[0], [0, 1]]}, depth=3)
        assert A.d == 2
        assert A.size == 8  # 1 * 8 boxes... one x-choice, 8 y-choices
        assert covering_number(A, Fraction(1, 2)) == 2

    def test_serialization(self):
        A = generate_cantor(MIDDLE_THIRDS, depth=3)
        B = DyadicCubeSet.from_json_dict(A.to_json_dict())
        assert np.array_equal(A.cells, B.cells) and A.k == B.k


class TestCoveringNumber:
    def test_unit_interval(self):
        A = generate_cantor({"kind": "digits", "base": 2, "digits": [0, 1]}, depth=4)
        assert covering_number(A, Fraction(1, 2)) == 2
        assert covering_number(A, Fraction(1)) == 1

    def test_empty(self):
        A = DyadicCubeSet(d=1, k=3, cells=np.zeros((0, 1), dtype=np.int64))
        assert covering_number(A, Fraction(1, 4)) == 0

    def test_below_resolution_error(self):
        A = generate_cantor({"kind": "digits", "base": 2, "digits": [0]}, depth=2)
        with pytest.raises(FractalError):
            covering_number(A, Fraction(1, 64))

    def test_raster_vs_exact_on_dyadic_grid(self):
        A = generate_cantor(MIDDLE_THIRDS, depth=3)
        stripped = DyadicCubeSet(d=1, k=A.k, cells=A.cells)  # no generator metadata
        for g in (1, 2, 3):
            delta = Fraction(1, 1 << g)
            # raster path may over-count near box edges by at most the
            # boundary-cell slop; on moderately coarse dyadic grids both agree
            assert covering_number(stripped, delta) >= covering_number(A, delta)


class TestPacking:
    def test_single_point(self):
        assert packing_number_greedy([(0,)], Fraction(1, 4)) == 1

    def test_spec_example(self):
        pts = [(Fraction(0),), (Fraction(1, 4),), (Fraction(1, 2),), (Fraction(3, 4),), (Fraction(1),)]
        assert packing_number_greedy(pts, Fraction(1, 4)) == 2
        assert packing_number_exhaustive(pts, Fraction(1, 4)) == 2

    def test_separated_points(self):
        pts = [(Fraction(i, 1),) for i in range(7)]
        assert packing_number_greedy(pts, Fraction(1, 4)) == 7

    def test_greedy_at_most_exhaustive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = [(Fraction(int(x), 64),) for x in rng.integers(0, 64, size=10)]
            d = Fraction(1, 16)
            assert packing_number_greedy(pts, d) <= packing_number_exhaustive(pts, d)

    def test_packing_covering_chain(self):
        # 5^-d N(delta) <= N(2 delta) <= 3^d pack(delta), plus the maximality
        # cover property of the greedy centers
        rng = np.random.default_rng(11)
        for d in (1, 2):
            for _ in range(50):
                n = int(rng.integers(3, 25))
                pts = [tuple(Fraction(int(x), 256) for x in row) for row in rng.integers(0, 257, (n, d))]
                delta = Fraction(1, int(rng.choice([8, 16, 32])))
                cells1 = {tuple(int(c // (delta)) for c in p) for p in pts}
                cells2 = {tuple(int(c // (2 * delta)) for c in p) for p in pts}
                pack = packing_number_greedy(pts, delta)
                assert Fraction(len(cells1)) / 5**d <= len(cells2)
                assert len(cells2) <= 3**d * pack


class TestGaugeFunction:
    def test_power(self):
        phi = GaugeFunction.power(0.5)
        assert phi(0.25) == pytest.approx(0.5)
        assert phi(0) == 0

    def test_log_power(self):
        phi = GaugeFunction.log_power(1.0)
        assert phi(Fraction(1, 4)) == pytest.approx(1 / math.log(4))
        with pytest.raises(FractalError):
            phi(0.9)

    def test_order_relation(self):
        phi1 = GaugeFunction.power(0.5)
        phi2 = GaugeFunction.power(0.3)
        scales = [2.0**-k for k in range(4, 41, 4)]
        # phi1 has the larger exponent: phi1(x)/phi2(x) -> 0, so phi1 < phi2
        assert phi2.precedes(phi1, scales)
        assert not phi1.precedes(phi2, scales)

    def test_tabulated(self):
        phi = GaugeFunction(kind="tabulated", table=((Fraction(1, 8), 0.1), (Fraction(1, 2), 0.5)))
        assert phi(Fraction(1, 2)) == 0.5
        assert phi(Fraction(1, 4)) == 0.1
        assert phi(Fraction(1, 100)) == 0.1


def brute_force_content(A: DyadicCubeSet, phi, delta) -> float:
    """Enumerate all antichain covers of the occupied tree (tiny sets only)."""
    from fractions import Fraction as F

    j_top = 0
    while F(1, 1 << j_top) > delta:
        j_top += 1

    def best(cells, level):
        if level == A.k:
            return phi(F(1, 1 << A.k))
        take = phi(F(1, 1 << level))
        prefixes = cells >> (A.k - level - 1)
        uniq = np.unique(prefixes, axis=0)
        children = 0.0
        for q in uniq:
            children += best(cells[np.all(prefixes == q, axis=1)], level + 1)
        return min(take, children)

    prefixes = A.cells >> (A.k - j_top)
    uniq = np.unique(prefixes, axis=0)
    return sum(best(A.cells[np.all(prefixes == q, axis=1)], j_top) for q in uniq)


class TestContent:
    def test_full_cube_power_d(self):
        for d in (1, 2):
            A = generate_cantor({"kind": "digits", "base": 2, "digits": [[0, 1]] * d}, depth=3)
            phi = GaugeFunction.power(d)
            for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                assert hausdorff_content_dyadic(A, phi, delta) == pytest.approx(1.0)

    def test_single_cube_small_exponent(self):
        # one cell of side 2^-3, phi = x^s with s < d: optimum is phi at the cell
        A = DyadicCubeSet(d=1, k=3, cells=np.array([[5]]))
        phi = GaugeFunction.power(0.5)
        assert hausdorff_content_dyadic(A, phi, Fraction(1)) == pytest.approx(2.0**-1.5)

    def test_middle_thirds_matches_bruteforce(self):
        A = generate_cantor(MIDDLE_THIRDS, depth=3)
        phi = GaugeFunction.power(1.0)
        for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 8)):
            got = hausdorff_content_dyadic(A, phi, delta)
            assert got == pytest.approx(brute_force_content(A, phi, delta))

    def test_random_sets_match_bruteforce(self):
        rng = np.random.default_rng(7)
        for d in (1, 2):
            for _ in range(10):
                k = 4 if d == 1 else 3
                n = int(rng.integers(1, 10))
                cells = rng.integers(0, 1 << k, (n, d))
                A = DyadicCubeSet(d=d, k=k, cells=cells)
                phi = GaugeFunction.power(float(rng.uniform(0.3, d + 0.5)))
                for delta in (Fraction(1), Fraction(1, 2)):
                    got = hausdorff_content_dyadic(A, phi, delta)
                    assert got == pytest.approx(brute_force_content(A, phi, delta))

    def test_monotone_in_subset_and_delta(self):
        A = generate_cantor(MIDDLE_THIRDS, depth=4)
        half = DyadicCubeSet(d=1, k=A.k, cells=A.cells[: A.size // 2])
        phi = GaugeFunction.power(0.6)
        ca = hausdorff_content_dyadic(A, phi, Fraction(1, 2))
        ch = hausdorff_content_dyadic(half, phi, Fraction(1, 2))
        assert ch <= ca + 1e-12
        finer = hausdorff_content_dyadic(A, phi, Fraction(1, 8))
        assert finer >= ca - 1e-12


class TestHausdorffDistance:
    def test_identical(self):
        assert hausdorff_distance([(0,), (1,)], [(0,), (1,)]) == 0

    def test_two_points(self):
        assert hausdorff_distance([(0,)], [(1,)]) == 1

    def test_spec_example(self):
        assert hausdorff_distance([(0,), (1,)], [(Fraction(1, 2),)]) == Fraction(1, 2)

    def test_metric_axioms_on_corpus(self):
        rng = np.random.default_rng(5)
        corpus = []
        for _ in range(6):
            n = int(rng.integers(1, 6))
            corpus.append([tuple(Fraction(int(x), 16) for x in row) for row in rng.integers(0, 17, (n, 2))])
        for X, Y in combinations(corpus, 2):
            assert hausdorff_distance(X, Y) == hausdorff_distance(Y, X)
            assert hausdorff_distance(X, X) == 0
        for X, Y, Z in combinations(corpus, 3):
            assert hausdorff_distance(X, Z) <= hausdorff_distance(X, Y) + hausdorff_distance(Y, Z)

    def test_interval_unions(self):
        U = IntervalUnion([(Fraction(0), Fraction(1, 8))])
        V = IntervalUnion([(Fraction(0), Fraction(1, 32)), (Fraction(3, 32), Fraction(4, 32))])
        # directed U -> V attains at the gap midpoint 1/16
        assert hausdorff_distance(U, V) == Fraction(1, 32)

        # seeded unions, with overlapping, nested and one-point intervals,
        # against brute force: with integer endpoints the sup of dist(., V)
        # over U is attained on the half-integer grid
        def directed(A, B):
            xs = [Fraction(k, 2) for a, b in A for k in range(2 * a, 2 * b + 1)]
            return max(min(max(a - x, x - b, 0) for a, b in B) for x in xs)

        rng = np.random.default_rng(8)
        for _ in range(60):
            U, V = (
                IntervalUnion(zip(lo.tolist(), (lo + rng.integers(0, 12, n)).tolist()))
                for n in rng.integers(1, 8, 2)
                for lo in [rng.integers(0, 60, n)]
            )
            assert hausdorff_distance(U, V) == max(directed(U, V), directed(V, U))
        # an interval nested in V must not hide the gap (10, 20) behind it
        assert _directed_h_intervals([(12, 18)], [(0, 10), (1, 2), (20, 30)]) == 5

    def test_empty_error(self):
        with pytest.raises(FractalError):
            hausdorff_distance([], [(0,)])


class TestUniformLargeness:
    def test_full_cube_passes(self):
        A = generate_cantor({"kind": "digits", "base": 2, "digits": [0, 1]}, depth=8)
        phi = GaugeFunction.power(2.0)  # d + 1 with d = 1
        # unrestricted content optimum sits at the leaf level: 2^8 * 2^-16 = 2^-8;
        # delta_k must shrink faster than 2^(3d)=8 x per level against phi = x^2
        eta = 2.0**-9
        sched = [Fraction(1, 1 << g) for g in (4, 6, 8)]
        pruned, n_values, cert = uniform_large_subset(A, phi, eta, sched)
        assert cert.passed
        assert pruned.size == A.size  # nothing pruned

    def test_eta_too_large(self):
        A = generate_cantor({"kind": "digits", "base": 2, "digits": [0, 1]}, depth=6)
        phi = GaugeFunction.power(2.0)
        with pytest.raises(FractalError, match="content below eta"):
            uniform_large_subset(A, phi, 0.5, [Fraction(1, 16)])

    def test_middle_thirds_certificate(self):
        A = generate_cantor(MIDDLE_THIRDS, depth=8)  # k = 13 raster
        phi = GaugeFunction.power(0.7)
        eta = 0.3
        sched = [Fraction(1, 1 << g) for g in (1, 7, 13)]
        pruned, n_values, cert = uniform_large_subset(A, phi, eta, sched)
        assert cert.passed
        # independent recount for every recorded cube
        for lvl, counts in cert.per_cube_counts.items():
            for cube, cnt in counts:
                sel = np.all(pruned.cells >> (pruned.k - lvl) == np.array(cube), axis=1) if lvl else np.ones(pruned.size, bool)
                sub = pruned.cells[sel]
                dk = Fraction(cert.schedule[lvl][1]) if not isinstance(cert.schedule[lvl][1], Fraction) else cert.schedule[lvl][1]
                g = dk.denominator.bit_length() - 1
                recount = int(np.unique(sub >> (pruned.k - g), axis=0).shape[0])
                assert recount == cnt
                assert cnt >= n_values[lvl]

    def test_hypothesis_violation_reported(self):
        A = generate_cantor({"kind": "digits", "base": 2, "digits": [0, 1]}, depth=6)
        phi = GaugeFunction.power(0.5)
        # increasing 2^(3kd+1) phi(delta_k): same delta at every level
        with pytest.raises(FractalError, match="hypothesis"):
            uniform_large_subset(A, phi, 1e-6, [Fraction(1, 32), Fraction(1, 32)])


class TestLogDimension:
    def test_middle_thirds_infinite(self):
        A = generate_cantor(MIDDLE_THIRDS, depth=6)
        out = log_dimension_estimate(A)
        assert out["infinite"] is True

    def test_sparse_is_one(self):
        sched = [(2**k, 2**k) for k in range(1, 5)]
        A = generate_cantor({"kind": "sparse", "schedule": sched, "d": 1}, depth=4)
        out = log_dimension_estimate(A)
        assert out["infinite"] is False
        assert out["value"] == pytest.approx(1.0, abs=0.1)

    def test_single_point_zero(self):
        cells = np.zeros((1, 1), dtype=np.int64)
        A = DyadicCubeSet(d=1, k=6, cells=cells)
        out = log_dimension_estimate(A)
        assert out["value"] == 0.0 and not out["infinite"]

    def test_too_few_scales(self):
        with pytest.raises(FractalError):
            log_dimension_estimate(DyadicCubeSet(d=1, k=2, cells=np.array([[0], [3]])))


class TestLargenessProfile:
    def test_valid_profile(self):
        prof = LargenessProfile(
            name="log^2(1/delta)",
            n_of_delta=lambda d: math.log(1 / d) ** 2,
            schedule=[(4, Fraction(1, 16)), (16, Fraction(1, 256)), (64, Fraction(1, 65536))],
            constants={"eta": 0.5},
        )
        assert prof.admissible(10) == (Fraction(1, 256), 16.0)
        assert prof.admissible(1000) is None

    def test_schedule_must_decrease(self):
        with pytest.raises(FractalError):
            LargenessProfile(name="bad", n_of_delta=lambda d: 1,
                             schedule=[(4, Fraction(1, 16)), (8, Fraction(1, 16))])

    def test_counts_must_grow(self):
        with pytest.raises(FractalError):
            LargenessProfile(name="bad", n_of_delta=lambda d: 1,
                             schedule=[(8, Fraction(1, 16)), (4, Fraction(1, 64))])
