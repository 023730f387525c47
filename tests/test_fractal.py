"""Cantor generators, counting, gauge content DP, largeness, dimension."""

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from nullcover.elementary import merge_int, twice_excess
from nullcover.fractal import (
    DyadicCubeSet,
    FractalError,
    GaugeFunction,
    LargenessCertificate,
    covering_number,
    generate_cantor,
    hausdorff_content_dyadic,
    hausdorff_distance,
    log_dimension_estimate,
    packing_number_greedy,
    uniform_large_subset,
)

MIDDLE_THIRDS = {"kind": "digits", "base": 3, "digits": [0, 2]}


def packing_number_exhaustive(points, delta) -> int:
    """Maximum packing by brute force over all subsets (oracle for small instances)."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    assert len(pts) <= 20
    best = 0
    for mask in range(1 << len(pts)):
        sel = [p for i, p in enumerate(pts) if mask >> i & 1]
        if all(max(abs(a - b) for a, b in zip(p, q)) > 2 * delta for p, q in combinations(sel, 2)):
            best = max(best, len(sel))
    return best


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

    @pytest.mark.parametrize("d, k", [(1, 63), (2, 32), (3, 21)])
    def test_cell_key_width(self, d, k):
        # a cell is one int64 key of d * k <= 62 bits
        with pytest.raises(FractalError, match="exceeds 62"):
            DyadicCubeSet(d=d, k=k, cells=np.zeros((1, d), dtype=np.int64))
        with pytest.raises(FractalError, match="exceeds 62"):
            DyadicCubeSet.from_json_dict({"d": d, "k": k, "cells": [[(1 << k) - 1] * d]})
        A = DyadicCubeSet(d=d, k=62 // d, cells=[[(1 << (62 // d)) - 1] * d, [0] * d])
        assert A.cells.tolist() == [[0] * d, [(1 << (62 // d)) - 1] * d]


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


# ---------------------------------------------------------------------------
# exact oracles: the per-node recursion, the per-cube pruning loop and the
# Fraction digit chain that the packed-key code replaced


def recursive_content(A: DyadicCubeSet, phi, delta) -> float:
    """Per-node recursion over lexsorted children, one subtree at a time."""
    delta = Fraction(delta)
    if A.size == 0:
        return 0.0
    j_top = 0
    while Fraction(1, 1 << j_top) > delta:
        j_top += 1
    k = A.k
    phi_at = {j: phi(Fraction(1, 1 << j)) for j in range(j_top, k + 1)}

    def groups(rows, level):
        prefix = rows >> (k - level)
        order = np.lexsort(prefix.T[::-1])
        rows, prefix = rows[order], prefix[order]
        change = np.any(np.diff(prefix, axis=0) != 0, axis=1)
        bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [rows.shape[0]]))
        return [rows[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]

    def cost_node(rows, level):
        if level == k:
            return phi_at[k]
        total = 0.0
        for child in groups(rows, level + 1):
            total += cost_node(child, level + 1)
        return min(phi_at[level], total)

    if j_top == 0:
        return cost_node(A.cells, 0)
    return float(sum(cost_node(rows, j_top) for rows in groups(A.cells, j_top)))


def pruning_oracle(A: DyadicCubeSet, phi, eta, deltas):
    """Pruned cells and certificate JSON by per-cube scans and one recursive
    content per retained cube."""
    d, k = A.d, A.k
    levels = len(deltas)
    current = A.cells
    for lvl in range(1, levels):
        keep_rows = []
        prefixes = current >> (k - lvl)
        for q in np.unique(prefixes, axis=0):
            sel = np.all(prefixes == q, axis=1)
            sub = DyadicCubeSet(d=d, k=k, cells=current[sel])
            if recursive_content(sub, phi, Fraction(1, 1 << lvl)) > 2.0 ** (-3 * lvl * d) * eta:
                keep_rows.append(current[sel])
        current = np.concatenate(keep_rows, axis=0)
    pruned = np.unique(current, axis=0)
    n_values, per_cube, passed = [], {}, True
    for lvl in range(levels):
        dk = deltas[lvl]
        nk = eta / (2.0 ** (3 * lvl * d + 1) * phi(dk))
        n_values.append(nk)
        counts = []
        cubes = np.unique(pruned >> (k - lvl), axis=0) if lvl else [np.zeros(d, np.int64)]
        for q in cubes:
            sub = pruned[np.all(pruned >> (k - lvl) == q, axis=1)] if lvl else pruned
            g = dk.denominator.bit_length() - 1
            if dk == Fraction(1, 1 << g):
                cnt = int(np.unique(sub >> (k - g), axis=0).shape[0])
            else:
                cnt = covering_number(DyadicCubeSet(d=d, k=k, cells=sub), dk)
            counts.append((tuple(int(x) for x in q), cnt))
            passed = passed and cnt >= nk
        per_cube[lvl] = counts
    cert = LargenessCertificate(
        eta=eta, phi=phi.to_json_dict(),
        schedule=[(lvl, deltas[lvl], n_values[lvl]) for lvl in range(levels)],
        per_cube_counts=per_cube, pruned_levels=levels, passed=passed,
        notes="grid covering counts; N_k = eta/(2^(3kd+1) phi(delta_k)); "
        "content restricted to dyadic covers",
    )
    return pruned, cert.to_json_dict()


def fraction_chain_boxes(base, digits_per_axis, depth):
    """Level-depth boxes of a digit rule, refined one Fraction interval at a time."""
    axis_intervals = []
    for digits in digits_per_axis:
        ivs = [(Fraction(0), Fraction(1))]
        for _ in range(depth):
            ivs = [(lo + dig * (hi - lo) / base, lo + (dig + 1) * (hi - lo) / base)
                   for lo, hi in ivs for dig in digits]
        axis_intervals.append(ivs)
    boxes = [()]
    for ivs in axis_intervals:
        boxes = [b + (iv,) for b in boxes for iv in ivs]
    return boxes


def fraction_raster(boxes, d, k):
    """Level-k cells meeting some box with positive measure, box by box."""
    w = Fraction(1, 1 << k)
    out = set()
    for box in boxes:
        stack = [()]
        for lo, hi in box:
            r = range(max(math.floor(lo / w), 0), min(math.ceil(hi / w), 1 << k))
            stack = [s + (j,) for s in stack for j in r]
        out.update(stack)
    return np.array(sorted(out), dtype=np.int64).reshape(-1, d)


class TestExactOracles:
    GAUGES = [GaugeFunction.power(0.45), GaugeFunction.power(1.3), GaugeFunction.power(2.6),
              GaugeFunction.log_power(1.5),
              GaugeFunction(kind="tabulated", table=(("1/64", 0.01), ("1/8", 0.2), ("1/2", 0.5)))]

    @pytest.mark.parametrize("d, k", [(1, 9), (2, 5), (3, 3)])
    def test_content_equals_recursion(self, d, k):
        rng = np.random.default_rng(11 + d)
        for trial in range(24):
            n = int(rng.integers(1, 1 << (d * k - 1)))
            A = DyadicCubeSet(d=d, k=k, cells=rng.integers(0, 1 << k, (n, d)))
            phi = self.GAUGES[trial % len(self.GAUGES)]
            top = 1 if phi.kind == "log_power" else 0  # log-power gauges stop at 1/2
            for j in range(top, k + 1):
                delta = Fraction(1, 1 << j)
                assert hausdorff_content_dyadic(A, phi, delta) == recursive_content(A, phi, delta)
            delta = Fraction(2, 7)  # between dyadic levels
            assert hausdorff_content_dyadic(A, phi, delta) == recursive_content(A, phi, delta)

    @pytest.mark.parametrize("digits, exponents", [
        ([0, 1], [1, 7, 13]), ([0, 2], [1, 7, 13]), ([1, 2], [1, 7, 13]), ([0, 2], [None, 7, 13]),
    ])
    def test_pruning_equals_per_cube_loop(self, digits, exponents):
        # the largeness requests of the certify benchmark; None is delta = 1/3
        A = generate_cantor({"kind": "digits", "base": 3, "digits": digits}, depth=8)
        phi = GaugeFunction.power(0.7)
        sched = [Fraction(1, 3) if g is None else Fraction(1, 1 << g) for g in exponents]
        pruned, _, cert = uniform_large_subset(A, phi, 0.3, sched)
        cells, data = pruning_oracle(A, phi, 0.3, sched)
        assert np.array_equal(pruned.cells, cells)
        assert json.dumps(cert.to_json_dict()) == json.dumps(data)

    def test_pruning_equals_per_cube_loop_2d(self):
        # a dense quadrant and a few stray cells, which the pruning drops
        rng = np.random.default_rng(5)
        cells = np.concatenate([rng.integers(0, 32, (700, 2)), rng.integers(0, 64, (6, 2))])
        A = DyadicCubeSet(d=2, k=6, cells=cells)
        phi = GaugeFunction.power(1.5)
        sched = [Fraction(1, 2), Fraction(1, 64)]
        pruned, _, cert = uniform_large_subset(A, phi, 0.3, sched)
        cells, data = pruning_oracle(A, phi, 0.3, sched)
        assert 0 < pruned.size < A.size
        assert np.array_equal(pruned.cells, cells)
        assert json.dumps(cert.to_json_dict()) == json.dumps(data)

    @pytest.mark.parametrize("base, digits, depth", [
        (3, [[0, 2]], 5), (3, [[1, 2], [0, 1]], 3), (5, [[0, 2, 4]], 4), (5, [[1, 3], [0, 4]], 3),
        (4, [[0, 3]], 3),
    ])
    def test_generator_boxes_equal_fraction_chain(self, base, digits, depth):
        A = generate_cantor({"kind": "digits", "base": base, "digits": digits}, depth=depth)
        boxes = fraction_chain_boxes(base, digits, depth)
        assert A.generator["boxes"] == [[[str(lo), str(hi)] for lo, hi in box] for box in boxes]
        assert A.exact_boxes() == boxes
        assert np.array_equal(A.cells, fraction_raster(boxes, len(digits), A.k))



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

    @pytest.mark.parametrize("delta", [0, -1, Fraction(-1, 4)])
    def test_nonpositive_delta_error(self, delta):
        A = generate_cantor(MIDDLE_THIRDS, depth=3)
        with pytest.raises(FractalError, match="delta must be positive"):
            hausdorff_content_dyadic(A, GaugeFunction.power(0.5), delta)

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
        # the engine's directed excess, on merged int64 unions, in both
        # directions; the kernel returns twice the excess
        def excess(U, V):
            merged = [merge_int(*np.array(K, dtype=np.int64).reshape(-1, 2).T) for K in (U, V)]
            return Fraction(twice_excess(*merged), 2)

        # on the 1/32 frame: the excess of U over V attains at the gap
        # midpoint 1/16; V lies inside U
        U, V = [(0, 4)], [(0, 1), (3, 4)]
        assert excess(U, V) / 32 == Fraction(1, 32)
        assert excess(V, U) == 0

        # seeded unions, with overlapping and nested intervals, against brute
        # force: with integer endpoints the sup of dist(., V) over U is
        # attained on the half-integer grid
        def directed(A, B):
            xs = [Fraction(k, 2) for a, b in A for k in range(2 * a, 2 * b + 1)]
            return max(min(max(a - x, x - b, 0) for a, b in B) for x in xs)

        rng = np.random.default_rng(8)
        for _ in range(60):
            U, V = (
                list(zip(lo.tolist(), (lo + rng.integers(1, 12, n)).tolist()))
                for n in rng.integers(1, 8, 2)
                for lo in [rng.integers(0, 60, n)]
            )
            assert excess(U, V) == directed(U, V)
            assert excess(V, U) == directed(V, U)
        # an interval nested in V must not hide the gap (10, 20) behind it
        assert excess([(12, 18)], [(0, 10), (1, 2), (20, 30)]) == 5
        # a single-interval V has no gap: the far endpoint of U counts
        assert excess([(0, 3), (10, 12)], [(5, 6)]) == 6
        assert excess([(5, 6)], [(0, 3), (10, 12)]) == 3
        # U inside one gap of V, left of the gap midpoint 20
        assert excess([(14, 18)], [(0, 10), (30, 40)]) == 8
        assert excess([(0, 10), (30, 40)], [(14, 18)]) == 22
        # endpoints near the 2^60 frame bound: doubled, nothing wraps
        big = (1 << 60) - 1
        assert excess([(big - 1, big)], [(-big, 1 - big)]) == 2 * big - 1

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

    @pytest.mark.parametrize("eta", [0, 0.0, -1, float("nan"), float("inf")])
    def test_eta_must_be_finite_and_positive(self, eta):
        # eta <= 0 used to certify N_k <= 0, and NaN failed as "all cubes pruned"
        A = generate_cantor(MIDDLE_THIRDS, depth=8)
        sched = [Fraction(1, 1 << g) for g in (1, 7, 13)]
        with pytest.raises(FractalError, match="eta must be finite and positive"):
            uniform_large_subset(A, GaugeFunction.power(0.7), eta, sched)

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
