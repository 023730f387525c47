"""Random covering designs, lifts, pixel verification, the greedy piece cover."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from nullcover.covering import (
    CoverError,
    RetryBudgetError,
    SetFamily,
    ThresholdError,
    dyadic_cover_complement,
    family_hausdorff_cover_count,
    pixel_cover_mask,
    random_cover_complement,
    size_threshold,
    lift_cover_to_box,
)
from nullcover.elementary import (
    IntervalAccumulator,
    _insert_offset,
    covered_measure,
    first_gap,
    greedy_piece_cover,
    merge_int,
    merge_intervals,
    points_plus,
)
from nullcover import engine
from nullcover.bias_sets import build_bias_complement, select_parameters, verify_coverage_bound
from nullcover.cli import main
from nullcover.engine import AffineMap, FunctionFamily, middle_thirds_points, rrp_run
from nullcover.fractal import (
    DyadicCubeSet,
    GaugeFunction,
    generate_cantor,
    log_dimension_estimate,
    uniform_large_subset,
)
from nullcover.gf import kth_power_codes, make_field
from nullcover.groups import GroupSubset, sumset, sumset_counts


class TestIntervals:
    def test_merge(self):
        got = merge_intervals([(Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)), (Fraction(3), Fraction(4))])
        assert got == [(0, 2), (3, 4)]
        assert sum(b - a for a, b in got) == 3

    def test_accumulator_first_gap(self):
        acc = IntervalAccumulator()
        acc.add(Fraction(0), Fraction(1))
        acc.add(Fraction(2), Fraction(3))
        assert acc.first_gap(Fraction(0), Fraction(3)) == 1
        acc.add(Fraction(1), Fraction(2))
        assert acc.first_gap(Fraction(0), Fraction(3)) is None
        assert acc.measure() == 3
        # the int64 kernel drops empty intervals and answers on an empty union
        starts, ends = merge_int([3, 0, 5], [3, 2, 4])
        assert (starts.tolist(), ends.tolist()) == ([0], [2])
        empty = merge_int([], [])
        assert first_gap(*empty, 0, 3) == 0 and covered_measure(*empty, 0, 3) == 0

    def test_accumulator_random_against_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            acc = IntervalAccumulator()
            ivs = []
            for _ in range(30):
                a = Fraction(int(rng.integers(0, 100)))
                b = a + Fraction(int(rng.integers(1, 10)))
                acc.add(a, b)
                ivs.append((a, b))
            assert acc.intervals() == merge_intervals(ivs)
            # the int64 kernel on the same intervals, against the accumulator
            lo, hi = np.array(ivs, dtype=np.int64).T
            starts, ends = merge_int(lo, hi)
            assert list(zip(starts.tolist(), ends.tolist())) == acc.intervals()
            qa = rng.integers(-5, 110, 20)
            qb = qa + rng.integers(0, 30, 20)
            assert covered_measure(starts, ends, qa, qb).tolist() == [
                acc.covered_measure(int(a), int(b)) for a, b in zip(qa, qb)
            ]
            for a, b in zip(qa.tolist(), qb.tolist()):
                assert first_gap(starts, ends, a, b) == acc.first_gap(a, b)
            # points + intervals, merged
            pts = np.sort(rng.integers(0, 50, 4))
            ref = IntervalAccumulator()
            for p in pts.tolist():
                for a, b in ivs:
                    ref.add(p + a, p + b)
            starts, ends = points_plus(pts, lo, hi)
            assert list(zip(starts.tolist(), ends.tolist())) == ref.intervals()


class TestSizeThreshold:
    def test_trivial(self):
        assert size_threshold(0.7, 1, 1, 1) == 0

    def test_example_values(self):
        assert size_threshold(0.5, 1, 64, 1) == pytest.approx(4 * math.log(64))
        assert size_threshold(0.5, 4, 16, 2) == pytest.approx(4 * math.log(1024))


class TestRandomCover:
    def test_full_member_always_covers(self):
        fam = SetFamily(d=1, kind="grid", N=16, members=[np.arange(16).reshape(-1, 1)])
        B, cert = random_cover_complement(fam, Fraction(1, 2), seed=1)
        assert cert.draws == 1
        assert B.size == 8

    def test_spec_example_n64(self):
        rng = np.random.default_rng(0)
        member = rng.choice(64, size=20, replace=False).reshape(-1, 1)
        fam = SetFamily(d=1, kind="grid", N=64, members=[member])
        B, cert = random_cover_complement(fam, Fraction(1, 2), seed=7)
        assert B.size == 32
        # brute-force coverage oracle
        A = GroupSubset.from_members(B.group, [tuple(r) for r in member])
        assert sumset(A, B).size == 64
        assert cert.threshold == pytest.approx(4 * math.log(64))

    def test_threshold_error(self):
        member = np.arange(10).reshape(-1, 1)  # 10 <= 16.6
        fam = SetFamily(d=1, kind="grid", N=64, members=[member])
        with pytest.raises(ThresholdError):
            random_cover_complement(fam, Fraction(1, 2), seed=0)

    def test_mean_retries_small(self):
        rng = np.random.default_rng(12)
        member = rng.choice(64, size=20, replace=False).reshape(-1, 1)
        fam = SetFamily(d=1, kind="grid", N=64, members=[member])
        draws = []
        for seed in range(200):
            _, cert = random_cover_complement(fam, Fraction(1, 2), seed=seed)
            draws.append(cert.draws)
        assert sum(draws) / len(draws) < 2

    def test_non_covering_draw_rejected(self, monkeypatch):
        # first draw B = {0..31}: A + B = {0..50} misses 13 residues, so it must be redrawn
        from nullcover import covering

        real, calls = covering._uniform_subset, []

        def first_draw_short(rng, n, size):
            calls.append(size)
            return np.arange(size) if len(calls) == 1 else real(rng, n, size)

        monkeypatch.setattr(covering, "_uniform_subset", first_draw_short)
        member = np.arange(20).reshape(-1, 1)
        fam = SetFamily(d=1, kind="grid", N=64, members=[member])
        B, cert = random_cover_complement(fam, Fraction(1, 2), seed=0)
        assert cert.draws == 2
        assert {(a + b[0]) % 64 for a in range(20) for b in B.members()} == set(range(64))

    def test_d2(self):
        rng = np.random.default_rng(5)
        pts = np.stack([rng.integers(0, 8, 40), rng.integers(0, 8, 40)], axis=1)
        fam = SetFamily(d=2, kind="grid", N=8, members=[pts])
        B, cert = random_cover_complement(fam, Fraction(1, 2), seed=3)
        A = GroupSubset.from_members(B.group, [tuple(r) for r in pts])
        assert sumset(A, B).size == 64

    def test_expected_uncovered_below_one(self):
        # 10^4-draw simulation of the single-draw expectation bound
        from nullcover.covering import _uniform_subset

        rng = np.random.default_rng(6)
        member = rng.choice(64, size=20, replace=False)
        mask_a = np.zeros(64, dtype=bool)
        mask_a[member] = True
        fa = np.fft.rfft(mask_a.astype(float))
        draw_rng = np.random.default_rng(77)
        total_uncovered = 0
        for _ in range(10_000):
            flat = _uniform_subset(draw_rng, 64, 32)
            mb = np.zeros(64, dtype=bool)
            mb[flat] = True
            counts = np.rint(np.fft.irfft(fa * np.fft.rfft(mb.astype(float)), 64))
            total_uncovered += int((counts < 1).sum())
        assert total_uncovered / 10_000 < 1  # empirical E|Z_N \ (A+B)| < 1

    def test_retry_budget_error(self):
        member = np.arange(0, 64, 2).reshape(-1, 1)
        fam = SetFamily(d=1, kind="grid", N=64, members=[member])
        with pytest.raises(RetryBudgetError, match="0 attempts"):
            random_cover_complement(fam, Fraction(1, 2), seed=0, max_draws=0)

    def test_n2_grid_family_takes_the_wht_branch(self):
        # N = 2: the group is (Z_2)^6, so the batched check runs on the exact WHT path
        rng = np.random.default_rng(14)
        members = [np.array([[int(b) for b in f"{x:06b}"] for x in rng.choice(64, size=s, replace=False)])
                   for s in (30, 36, 40)]
        fam = SetFamily(d=6, kind="grid", N=2, members=members)
        B, cert = random_cover_complement(fam, Fraction(1, 2), seed=7)
        assert B.group.moduli == (2,) * 6 and B.size == 32
        for m in members:
            A = GroupSubset.from_members(B.group, [tuple(r) for r in m])
            assert sumset(A, B).size == 64


def scalar_fisher_yates(rng, n, size):
    """The partial Fisher-Yates loop with one scalar draw per swap, on a sparse
    copy of range(n): the reference the one-call draw must reproduce."""
    idx = {}
    for i in range(size):
        j = i + int(rng.integers(0, n - i))
        idx[i], idx[j] = idx.get(j, j), idx.get(i, i)
    return np.sort(np.array([idx.get(i, i) for i in range(size)], dtype=np.int64))


UNIFORM_SUBSET_CASES = [
    (1, 0), (1, 1), (2, 1), (2, 2), (3, 3), (7, 4), (64, 32), (64, 64), (100, 1),
    (255, 200), (256, 256), (1000, 999), (4096, 51), (4096, 4096), (65536, 1024),
    ((1 << 31) - 1, 50), (1 << 31, 50), ((1 << 32) - 1, 50), (1 << 32, 50),
    ((1 << 32) + 1, 50), ((1 << 32) + 5, 300), (1 << 33, 1), (1 << 33, 400),
    (10**12, 100), ((1 << 62) + 3, 20),
]


@pytest.mark.parametrize("n, size", UNIFORM_SUBSET_CASES)
def test_uniform_subset_one_call_matches_scalar_loop(n, size):
    # numpy answers rng.integers(0, highs) with the scalar draws' values in
    # order; that is its behaviour, not an API promise, so it is pinned here
    from nullcover.covering import _uniform_subset

    seed = n % 1000 + size
    rng_vec, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _uniform_subset(rng_vec, n, size)
    assert got.dtype == np.int64
    assert got.tolist() == scalar_fisher_yates(rng_ref, n, size).tolist()
    assert len(set(got.tolist())) == size and (size == 0 or 0 <= got[0] <= got[-1] < n)
    # both leave the generator in the same state, so a redraw continues the same stream
    assert rng_vec.bit_generator.state == rng_ref.bit_generator.state


class TestLift:
    def test_lift_roundtrip_dimensions(self):
        fam = SetFamily(d=1, kind="grid", N=16, members=[np.arange(16).reshape(-1, 1)])
        B, _ = random_cover_complement(fam, Fraction(1, 2), seed=1)
        box = lift_cover_to_box(B)
        assert box.size <= 2 * B.size


class TestPixelCoverMask:
    def test_single_point_single_cell(self):
        # member pixel j=0; B h-cells {0,1} (one delta cell): robust covers p=1 only
        cov = pixel_cover_mask([np.array([[0]])], np.array([[0], [1]]), 1, [0], [4])[0]
        assert cov.tolist() == [False, True, False, False]

    def test_run_of_cells(self):
        # B h-cells 0..3: eroded {0,1,2}: member {0}: covered p in {1,2,3}
        cov = pixel_cover_mask([np.array([[0]])], np.array([[0], [1], [2], [3]]), 1, [0], [5])[0]
        assert cov.tolist() == [False, True, True, True, False]

    def test_oracle_random_1d(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a_cells = np.unique(rng.integers(0, 12, 5)).reshape(-1, 1)
            b_cells = np.unique(rng.integers(-6, 10, 8)).reshape(-1, 1)
            cov = pixel_cover_mask([a_cells], b_cells, 1, [0], [16])[0]
            bset = set(b_cells.reshape(-1).tolist())
            for p in range(16):
                expect = any(
                    (p - j - 1) in bset and (p - j) in bset for j in a_cells.reshape(-1).tolist()
                )
                assert cov[p] == expect

    def test_oracle_random_2d(self):
        rng = np.random.default_rng(9)
        a_cells = np.unique(rng.integers(0, 6, (12, 2)), axis=0)
        b_cells = np.unique(rng.integers(-4, 6, (30, 2)), axis=0)
        cov = pixel_cover_mask([a_cells], b_cells, 2, [0, 0], [10, 10])[0]
        bset = set(map(tuple, b_cells.tolist()))
        for p1 in range(10):
            for p2 in range(10):
                expect = False
                for j1, j2 in a_cells.tolist():
                    t1, t2 = p1 - j1 - 1, p2 - j2 - 1
                    if (
                        (t1, t2) in bset and (t1 + 1, t2) in bset
                        and (t1, t2 + 1) in bset and (t1 + 1, t2 + 1) in bset
                    ):
                        expect = True
                        break
                assert cov[p1, p2] == expect

    def test_stacked_members_equal_single_calls(self):
        # the members share one eroded, transformed B; an empty member gives
        # an empty row, and each row equals the call on that member alone
        rng = np.random.default_rng(32)
        for case in range(40):
            d = 1 + case % 2
            W = 1 << int(rng.integers(2, 6 - d))
            members = [np.argwhere(rng.random((W,) * d) < rng.uniform(0.05, 0.6)) for _ in range(1 + case % 4)]
            if case % 5 == 0:
                members.append(np.zeros((0, d), dtype=np.int64))
            b = np.argwhere(rng.random((2 * W,) * d) < rng.uniform(0.3, 0.95)) - W
            lo, hi = np.zeros(d, dtype=np.int64), np.full(d, W)
            got = pixel_cover_mask(members, b, d, lo, hi)
            assert got.shape == (len(members),) + (W,) * d
            for m, row in zip(members, got):
                assert np.array_equal(row, pixel_cover_mask([m], b, d, lo, hi)[0]), case
                assert np.array_equal(row, padded_pixel_cover_mask(m, b, d, lo, hi)), case

    def test_padded_oracle_random(self):
        # the cyclic power-of-two grid against the zero-padded linear frame: d = 1
        # and 2, B reaching -W and W - 1, windows anywhere, some empty
        rng = np.random.default_rng(31)
        for case in range(300):
            d = 1 + case % 2
            W = 1 << int(rng.integers(1, 6 - d))
            a = np.argwhere(rng.random((W,) * d) < rng.uniform(0.05, 0.5))
            b = np.argwhere(rng.random((2 * W,) * d) < rng.uniform(0.3, 0.95)) - W
            if case % 3 == 0:  # both extreme cells present
                b = np.concatenate([b, np.full((1, d), -W), np.full((1, d), W - 1)])
            lo = rng.integers(-W - 2, W + 2, d)
            hi = lo + rng.integers(1, 3 * W, d)
            if case % 4 == 0:
                lo, hi = np.zeros(d, dtype=np.int64), np.full(d, W)
            if case % 10 == 9:
                hi[-1] = lo[-1]
            got = pixel_cover_mask([a], b, d, lo, hi)[0]
            want = padded_pixel_cover_mask(a, b, d, lo, hi)
            assert got.shape == want.shape and np.array_equal(got, want), case


def padded_pixel_cover_mask(member_hcells, b_hcells, d, window_lo, window_hi):
    """`pixel_cover_mask` on masks zero-padded to the linear-convolution shape,
    where cyclic sums never wrap: the reference for the cyclic grid."""
    from nullcover.covering import _erode_mask

    member_hcells = np.asarray(member_hcells, dtype=np.int64).reshape(-1, d)
    b_hcells = np.asarray(b_hcells, dtype=np.int64).reshape(-1, d)
    window_lo = np.asarray(window_lo, dtype=np.int64).reshape(d)
    window_hi = np.asarray(window_hi, dtype=np.int64).reshape(d)
    out = np.zeros(tuple(window_hi - window_lo), dtype=bool)
    if b_hcells.size == 0 or member_hcells.size == 0:
        return out
    a_lo = member_hcells.min(axis=0)
    b_lo = b_hcells.min(axis=0)
    a_idx, b_idx = member_hcells - a_lo, b_hcells - b_lo
    full = tuple(int(x) for x in a_idx.max(axis=0) + b_idx.max(axis=0) + 1)
    a_mask = np.zeros(full, dtype=bool)
    a_mask[tuple(a_idx.T)] = True
    b_mask = np.zeros(full, dtype=bool)
    b_mask[tuple(b_idx.T)] = True
    b_er = _erode_mask(b_mask)
    if not b_er.any():
        return out
    covered = sumset_counts(a_mask, b_er) >= 1  # index p relative to a_lo + b_lo, p = j + t
    base = a_lo + b_lo + 1
    src_lo = np.maximum(window_lo - base, 0)
    src_hi = np.minimum(window_hi - base, np.array(covered.shape))
    if np.any(src_hi <= src_lo):
        return out
    dst_lo = src_lo + base - window_lo
    dst_hi = src_hi + base - window_lo
    out[tuple(slice(int(l), int(h)) for l, h in zip(dst_lo, dst_hi))] = covered[
        tuple(slice(int(l), int(h)) for l, h in zip(src_lo, src_hi))
    ]
    return out


def dense_cube_member(rng, d, pe, density):
    n = 1 << pe
    if d == 1:
        pts = np.flatnonzero(rng.random(n) < density).reshape(-1, 1)
    else:
        mask = rng.random((n, n)) < density
        pts = np.argwhere(mask)
    return pts.astype(np.int64)


class TestDyadicCover:
    def test_d1_g8(self):
        rng = np.random.default_rng(21)
        fam = SetFamily(
            d=1, kind="cube", point_exponent=9,
            members=[dense_cube_member(rng, 1, 9, 0.85) for _ in range(3)],
        )
        res = dyadic_cover_complement(fam, g=8, eps=Fraction(9, 10), seed=5)
        assert res.certificate["coverage_complete"]
        assert Fraction(res.certificate["measure"]) <= Fraction(9, 10)
        # B inside [-1,1]
        assert res.cells.min() >= -256 and res.cells.max() < 256

    def test_d2_g6(self):
        rng = np.random.default_rng(22)
        fam = SetFamily(
            d=2, kind="cube", point_exponent=7,
            members=[dense_cube_member(rng, 2, 7, 0.8) for _ in range(2)],
        )
        res = dyadic_cover_complement(fam, g=6, eps=Fraction(9, 10), seed=5)
        assert res.certificate["coverage_complete"]
        assert Fraction(res.certificate["measure"]) <= Fraction(9, 10)

    @pytest.mark.parametrize("d, g, pe, point, match", [
        (3, 20, 22, [0, 0, 0], "exceeds 62"),  # one int64 key per h-cell: d * (g + 1) <= 62
        (1, 8, 9, [512], "outside"),
        (2, 6, 7, [3, -1], "outside"),
    ])
    def test_input_errors(self, d, g, pe, point, match):
        fam = SetFamily(d=d, kind="cube", point_exponent=pe, members=[[point]])
        with pytest.raises(CoverError, match=match):
            dyadic_cover_complement(fam, g=g, eps=Fraction(9, 10), seed=5)

    def test_threshold_error_lists_counts(self):
        rng = np.random.default_rng(23)
        fam = SetFamily(
            d=1, kind="cube", point_exponent=9,
            members=[dense_cube_member(rng, 1, 9, 0.1)],
        )
        with pytest.raises(ThresholdError, match="counts"):
            dyadic_cover_complement(fam, g=8, eps=Fraction(9, 10), seed=5)

    def test_monotone_member_growth_keeps_cover(self):
        rng = np.random.default_rng(24)
        base = dense_cube_member(rng, 1, 9, 0.85)
        fam = SetFamily(d=1, kind="cube", point_exponent=9, members=[base])
        res = dyadic_cover_complement(fam, g=8, eps=Fraction(9, 10), seed=6)
        bigger = np.unique(np.concatenate([base, dense_cube_member(rng, 1, 9, 0.3)]), axis=0)
        from nullcover.covering import _upscale_cells

        hb = _upscale_cells(res.cells, 1, 2)
        hc = np.unique(bigger >> 0, axis=0)
        cov = pixel_cover_mask([hc], hb, 1, [0], [512])[0]
        assert cov.all()


def _grid_family(seed, N, d, sizes):
    rng = np.random.default_rng(seed)
    members = [np.stack(np.unravel_index(rng.choice(N**d, size=s, replace=False), (N,) * d), axis=1)
               for s in sizes]
    return SetFamily(d=d, kind="grid", N=N, members=members)


def _cube_family(seed, d, pe, density, count):
    rng = np.random.default_rng(seed)
    return SetFamily(d=d, kind="cube", point_exponent=pe,
                     members=[np.argwhere(rng.random((1 << pe,) * d) < density) for _ in range(count)])


def _digest(out: dict) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


class TestPinnedOutputs:
    """sha256 of B's indices or cells and the certificate JSON on fixed seeded
    families, recorded before the draw and the pixel check were rewritten, so a
    later kernel change cannot drift silently."""

    @pytest.mark.parametrize("family, eps, seed, digest", [
        ((11, 4096, 1, [420, 450, 480]), "1/16", 5,
         "5ee0681c95d400529b45d5e64c16c39c23d5a054f8319a862bf4b6a232177cfe"),
        ((12, 64, 2, [420, 450, 480]), "1/16", 6,
         "c75235b7ac3eb7d8e410fe9de2be367ab402f3ed1caae75a05583c7de4f41faa"),
        ((13, 2, 6, [30, 36, 40]), "1/2", 7,  # (Z_2)^6: the WHT branch
         "c48cc92f99584e11762447a6ac7f124c28a55de5e3ac7c43d552ccaa521617ad"),
    ], ids=["d1", "d2", "z2"])
    def test_random_cover(self, family, eps, seed, digest):
        B, cert = random_cover_complement(_grid_family(*family), Fraction(eps), seed)
        out = {"b_indices": np.flatnonzero(B.mask).tolist(), "certificate": cert.to_json_dict()}
        assert _digest(out) == digest

    @pytest.mark.parametrize("family, g, seed, digest", [
        ((21, 1, 9, 0.85, 3), 8, 8, "e0146d4ac7768ec2894b78cee257cc17ac8869fe59e82e91c9a86002875c53fe"),
        ((22, 2, 7, 0.8, 2), 6, 9, "1d02fc95854ff1d19e016d24c80e5782c864140a55e3db593683f883198b97d8"),
    ], ids=["d1", "d2"])
    def test_dyadic_cover(self, family, g, seed, digest):
        res = dyadic_cover_complement(_cube_family(*family), g, Fraction(9, 10), seed)
        assert _digest({"cells": res.cells.tolist(), "certificate": res.certificate}) == digest


@pytest.fixture(scope="module")
def certify_complement():
    return build_bias_complement(select_parameters(Fraction(1, 3), 256, 2))


class TestPinnedCertificates:
    """sha256 of the other certify outputs, recorded before the packed sumset,
    the sort-based cells, the lazy digit boxes and the Frobenius powers; the
    coverage certificates before B's spectrum was kept on the subset."""

    @pytest.mark.parametrize("rule, depth, digest", [
        ({"kind": "digits", "base": 3, "digits": [0, 2]}, 5, "3476c9b757650b42a457d38c2a40e91cbf8336f06794d21e0d68159581a939a5"),
        ({"kind": "digits", "base": 5, "digits": [[1, 3], [0, 4]]}, 3, "0fc2d1afe6234cb6b34a1a7d749037dd13ceb8c161e2d0316d9aa0948f9c9e7b"),
    ], ids=["d1", "d2"])
    def test_generate_cantor_json(self, rule, depth, digest):
        assert _digest(generate_cantor(rule, depth).to_json_dict()) == digest

    def test_uniform_large_subset(self):
        A = generate_cantor({"kind": "digits", "base": 3, "digits": [0, 2]}, depth=8)
        pruned, n_values, cert = uniform_large_subset(
            A, GaugeFunction.power(0.7), 0.3, [Fraction(1, 1 << g) for g in (1, 7, 13)])
        out = {"pruned": pruned.to_json_dict(), "n_values": n_values, "certificate": cert.to_json_dict()}
        assert _digest(out) == "c6fa10536f7267122ad09480179838a2cbd0a83b253002d4235e5452f61d2064"

    def test_log_dimension_estimate(self):
        A = generate_cantor({"kind": "digits", "base": 5, "digits": [0, 2, 4]}, depth=5)
        assert _digest(log_dimension_estimate(A)) == "f510639883cd961ea14e39eab42142cf0f4f092c6513e5ce8e70a86faa753f5e"

    @pytest.mark.parametrize("t, k, digest", [
        (16, 17, "44758809d2f95f7048024e997fc93fb6a18d820259df382190eaa7426e581d69"),
        (12, 13, "6812c3be031f79de42cecf7a9d9e4aadafbeff05165192e8f363af9d425400c6"),
        (16, 3, "cbc08894a71b2135d7b5cdc08ab6378321ff1ee2807e4ae50c23d132dc602cba"),
    ])
    def test_kth_power_codes(self, t, k, digest):
        assert _digest({"codes": kth_power_codes(make_field(2, t), k).tolist()}) == digest

    def test_bias_set_certificate(self, certify_complement):
        comp = certify_complement
        assert _digest({"certificate": comp.certificate(), "codes": comp.codes.tolist()}) == "022d87bfca8b037ed5819ee8ead0225a5c0f05d47ba31931878fcd50a315db82"

    @pytest.mark.parametrize("size_a, digest", [
        (16, "51ab2be468f057187dacb0ae1693d13d7eb615274e42e909c8accbbf19321b9d"),
        (32, "6cb2f8fb19111449a4e8757eaf841b277280df895dcfdba31ccfeae3e5c49361"),
        (64, "ad9ef4e7c7f9ea6c5619bd6c537da18e6bd601af970ae9393277ba95f769ef6e"),
        (128, "e9251fba5e65cb5632080127e4869ea7ebf0ac31d519b65caf71ee8fbeb011f8"),
        (256, "71fb092ff4e8a3721d7e3a0a16fe294b3e63a783282144f3392ad9bc4bc2c861"),
    ])
    def test_coverage_certificate(self, certify_complement, size_a, digest):
        # the certify B* over (Z_2)^16 against a seeded A, bias recomputed
        B = certify_complement.subset
        mask = np.zeros(B.group.order, dtype=bool)
        mask[np.random.default_rng(size_a).choice(B.group.order, size_a, replace=False)] = True
        cert = verify_coverage_bound(GroupSubset(B.group, mask), B, Fraction(1, 3))
        assert _digest(cert.to_json_dict()) == digest

    def test_coverage_certificate_float_bias(self):
        # B* read in Z_16 x Z_16, where the bias is a float
        B = build_bias_complement(select_parameters(Fraction(1, 3), 16, 2), reinterpret=True).reinterpreted
        mask = np.zeros(B.group.order, dtype=bool)
        mask[np.random.default_rng(5).choice(B.group.order, 3, replace=False)] = True
        cert = verify_coverage_bound(GroupSubset(B.group, mask), B, Fraction(1, 3))
        assert _digest(cert.to_json_dict()) == "23226f6b21b727020045a15119b81e71dd1ac5de10792bb7e61c1b042ac743f5"

    def test_set_file_without_boxes_round_trips(self):
        # a digits generator read from a file without "boxes" gains none
        data = generate_cantor({"kind": "digits", "base": 3, "digits": [0, 2]}, depth=3).to_json_dict()
        del data["generator"]["boxes"]
        text = json.dumps(data, indent=2, sort_keys=True)
        A = DyadicCubeSet.from_json_dict(json.loads(text))
        assert A.exact_boxes() is None
        assert json.dumps(A.to_json_dict(), indent=2, sort_keys=True) == text


def roll_dilate(mask, radius):
    """The dilation by 2 radius shifted copies per axis, the zeroed wrap of
    each `np.roll` standing for the border: the oracle of `covering._dilate`."""
    out = mask.copy()
    for ax in range(mask.ndim):
        acc = out.copy()
        for r in range(1, radius + 1):
            for sgn in (-1, 1):
                sh = np.roll(out, sgn * r, axis=ax)
                idx = [slice(None)] * mask.ndim
                idx[ax] = slice(0, r) if sgn == 1 else slice(-r, None)
                sh[tuple(idx)] = False
                acc |= sh
        out = acc
    return out


class TestFamilyHausdorffCount:
    def test_dilate_equals_roll_oracle(self):
        from nullcover.covering import _dilate

        rng = np.random.default_rng(41)
        for case in range(120):
            d = 1 + case % 3
            shape = tuple(int(x) for x in rng.integers(1, 12 if d < 3 else 6, d))
            mask = rng.random(shape) < rng.uniform(0.0, 0.3)
            radius = int(rng.integers(0, max(shape) + 3))
            got = _dilate(mask, radius)
            assert got.dtype == bool and np.array_equal(got, roll_dilate(mask, radius)), case

    def test_count_equals_roll_oracle(self, monkeypatch):
        from nullcover import covering

        rng = np.random.default_rng(42)
        families = [_cube_family(int(rng.integers(1 << 20)), d, pe, density, 4)
                    for d, pe, density in [(1, 9, 0.02), (1, 8, 0.3), (2, 5, 0.05), (2, 6, 0.2)]]
        got = [family_hausdorff_cover_count(f, g) for f in families for g in (2, 4)]
        monkeypatch.setattr(covering, "_dilate", roll_dilate)
        assert got == [family_hausdorff_cover_count(f, g) for f in families for g in (2, 4)]

    def test_identical_members_count_one(self):
        pts = np.arange(0, 512, 2).reshape(-1, 1)
        fam = SetFamily(d=1, kind="cube", point_exponent=9, members=[pts, pts.copy(), pts.copy()])
        assert family_hausdorff_cover_count(fam, 8) == 1

    def test_far_members_counted(self):
        a = np.arange(0, 64).reshape(-1, 1)
        b = np.arange(448, 512).reshape(-1, 1)
        fam = SetFamily(d=1, kind="cube", point_exponent=9, members=[a, b])
        assert family_hausdorff_cover_count(fam, 8) == 2


def test_family_serialization_roundtrip():
    fam = SetFamily(
        d=2, kind="grid", N=8,
        members=[np.array([[0, 1], [3, 4]]), np.array([[7, 7]])],
    )
    rt = SetFamily.from_json_dict(fam.to_json_dict())
    assert rt.N == 8 and len(rt.members) == 2
    assert np.array_equal(rt.members[0], fam.members[0])
    # a key the family does not read, such as "anchors", is ignored
    old = SetFamily.from_json_dict({**fam.to_json_dict(), "anchors": [0, 0]})
    assert old.to_json_dict() == fam.to_json_dict()


def test_greedy_piece_cover_deterministic_shared_core():
    # the piece builder of the recursive-rectangles engine (`rrp_run`):
    # identical inputs give identical pieces, bit for bit

    rng = np.random.default_rng(17)
    pts = np.sort(rng.choice(4096, 60, replace=False))
    members = [(pts, [(512, 3584)]), (pts + 7, [(600, 1400), (2000, 2600)])]
    a = greedy_piece_cover(members, piece_w=32, allowed_lo=-4096, allowed_hi=8192, budget=4096)
    b = greedy_piece_cover(members, piece_w=32, allowed_lo=-4096, allowed_hi=8192, budget=4096)
    assert a == b
    # coverage oracle for the first member's target
    acc = IntervalAccumulator()
    for lo, hi in a:
        for p in pts.tolist():
            acc.add(p + lo, p + hi)
    assert acc.first_gap(512, 3584) is None


def greedy_piece_cover_oracle(members, piece_w, allowed_lo, allowed_hi, budget,
                              n_candidates=48, probe_stride=4):
    """`greedy_piece_cover` without its shortcuts: every member and target is
    walked, translates included, candidate offsets already taken are
    filtered out, and the budget re-merges every piece taken."""
    norm = [(np.asarray(p, dtype=np.int64), np.asarray(t, dtype=np.int64)) for p, t in members]
    chosen = set()
    for mi, (pts, targets) in enumerate(norm):
        if pts.size == 0:
            raise CoverError(f"member {mi} has no points")
        probes = pts[::probe_stride]
        offs = np.array(sorted(chosen), dtype=np.int64)
        union = points_plus(pts, offs, offs + piece_w)
        for lo, hi in targets.tolist():
            while True:
                u = first_gap(*union, lo, hi)
                if u is None:
                    break
                w0 = int(np.searchsorted(pts, u - (allowed_hi - piece_w), side="left"))
                w1 = int(np.searchsorted(pts, u - allowed_lo, side="right"))
                if w1 <= w0:
                    raise CoverError(f"cannot cover member {mi} at {u} within the allowed window")
                iu = int(np.searchsorted(pts, u, side="right"))
                cand = set(range(max(w0, iu - n_candidates // 2), min(w1, iu + 8)))
                if len(cand) < n_candidates:
                    stride = max(1, (w1 - w0) // (n_candidates - len(cand) + 1))
                    cand.update(range(w0, w1, stride))
                o = u - pts[sorted(cand)]
                o = o[(o >= allowed_lo) & (o + piece_w <= allowed_hi)]
                o = o[[x not in chosen for x in o.tolist()]]
                if o.size == 0:
                    raise CoverError(f"cannot cover member {mi} at {u} within the allowed window")
                q0 = np.maximum(probes + o[:, None], lo)
                q1 = np.minimum(probes + o[:, None] + piece_w, hi)
                fresh = np.where(q1 > q0, (q1 - q0) - covered_measure(*union, q0, q1), 0)
                gain = fresh.sum(axis=1)
                best = int(o[gain == gain.max()].min())
                chosen.add(best)
                union = merge_int(np.concatenate((union[0], pts + best)),
                                  np.concatenate((union[1], pts + best + piece_w)))
                taken = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
                t_lo, t_hi = merge_int(taken, taken + piece_w)
                if int((t_hi - t_lo).sum()) > budget:
                    raise CoverError(f"greedy piece cover exceeded the budget {budget}")
    return [(o, o + piece_w) for o in sorted(chosen)]


PIECE_KW = dict(piece_w=32, allowed_lo=-4096, allowed_hi=8192)


def _random_member(rng):
    pts = np.sort(rng.choice(4096, int(rng.integers(30, 70)), replace=False))
    cuts = np.sort(rng.choice(np.arange(512, 3584, 8), 2 * int(rng.integers(1, 4)), replace=False))
    return pts, [tuple(c) for c in cuts.reshape(-1, 2).tolist()]


def _shifted(member, c):
    pts, targets = member
    return pts + c, [(lo + c, hi + c) for lo, hi in targets]


def _merged_measure(pieces):
    lo, hi = merge_int(*np.array(pieces, dtype=np.int64).reshape(-1, 2).T)
    return int((hi - lo).sum())


def _cover_or_error(builder, members, budget):
    try:
        return builder(members, budget=budget, **PIECE_KW)
    except CoverError as exc:
        return f"CoverError: {exc}"


class TestGreedyPieceCover:
    @pytest.mark.parametrize("w", [1, 7, 32])
    def test_insert_offset_tracks_merged_measure(self, w):
        rng = np.random.default_rng(w)
        offs, measure = [], 0
        for b in rng.choice(400, 150, replace=False).tolist():
            measure += _insert_offset(offs, b, w)
            assert offs == sorted(offs)
            assert measure == _merged_measure([(o, o + w) for o in offs])

    @pytest.mark.parametrize("seed", range(6))
    def test_translated_copies_add_no_pieces(self, seed):
        rng = np.random.default_rng([seed, 7])
        base = [_random_member(rng) for _ in range(4)]
        # the second member asks for part of what the first one covered
        pts, targets = base[0]
        lo, hi = targets[0]
        base.insert(1, (pts, [(lo + 8, hi - 8)]))
        with_copies = []
        for i, member in enumerate(base):
            with_copies.append(member)
            # translates of this member and of one earlier member, each +-c
            for j in {i, int(rng.integers(0, i + 1))}:
                c = int(rng.integers(1, 300)) * int(rng.choice([-1, 1]))
                with_copies.append(_shifted(base[j], c))
        pieces = greedy_piece_cover(base, budget=1 << 20, **PIECE_KW)
        assert greedy_piece_cover(with_copies, budget=1 << 20, **PIECE_KW) == pieces
        assert greedy_piece_cover_oracle(with_copies, budget=1 << 20, **PIECE_KW) == pieces

    def test_matches_oracle_at_the_budget_edge(self):
        overlapping = 0
        for seed in range(16):
            rng = np.random.default_rng([seed, 8])
            members = [_random_member(rng) for _ in range(6)]
            members.append(_shifted(members[0], 5))
            pieces = greedy_piece_cover(members, budget=1 << 20, **PIECE_KW)
            assert pieces == greedy_piece_cover_oracle(members, budget=1 << 20, **PIECE_KW)
            measure = _merged_measure(pieces)
            overlapping += measure < 32 * len(pieces)
            # a budget equal to the final merged measure passes; one below
            # fails with the oracle's error
            assert greedy_piece_cover(members, budget=measure, **PIECE_KW) == pieces
            short = _cover_or_error(greedy_piece_cover, members, measure - 1)
            assert short == f"CoverError: greedy piece cover exceeded the budget {measure - 1}"
            assert short == _cover_or_error(greedy_piece_cover_oracle, members, measure - 1)
        assert overlapping >= 4  # overlapping pieces exercise every budget term

    def test_same_points_new_target_is_walked(self):
        rng = np.random.default_rng(9)
        pts, targets = _random_member(rng)
        members = [(pts, targets[:1]), _shifted((pts, [(3600, 3900)]), 40)]
        pieces = greedy_piece_cover(members, budget=1 << 20, **PIECE_KW)
        assert pieces == greedy_piece_cover_oracle(members, budget=1 << 20, **PIECE_KW)
        assert pieces != greedy_piece_cover(members[:1], budget=1 << 20, **PIECE_KW)

    def test_points_and_target_split_by_size(self):
        # relative to the first point, both members flatten to 0, 100, 200,
        # 600, 900: three points and one target, or one point and two targets
        a = (np.array([0, 100, 200]), [(600, 900)])
        b = (np.array([5000]), [(5100, 5200), (5600, 5900)])
        kw = dict(PIECE_KW, allowed_hi=1 << 14)
        pieces = greedy_piece_cover([a, b], budget=1 << 20, **kw)
        assert pieces == greedy_piece_cover_oracle([a, b], budget=1 << 20, **kw)
        assert pieces != greedy_piece_cover([a], budget=1 << 20, **kw)


def rrp_greedy_calls(monkeypatch, build) -> list:
    """The (members, keyword arguments) of every greedy call `build()` makes
    through `engine.greedy_piece_cover`; a build that raises keeps its calls."""
    calls, real = [], engine.greedy_piece_cover

    def capture(members, **kw):
        calls.append((members, kw))
        return real(members, **kw)

    monkeypatch.setattr(engine, "greedy_piece_cover", capture)
    try:
        build()
    except CoverError:
        pass
    return calls


def _rrp_build(maps, cantor_depth=7):
    """A depth-3 rrp build, on the CLI's schedules, of the middle-thirds points
    snapped to 2^-12, under the maps ((n, d), o): x n/d + o 2^-20."""
    family = FunctionFamily([AffineMap(Fraction(*s), Fraction(o, 1 << 20)) for s, o in maps], Fraction(2))
    return lambda: rrp_run(middle_thirds_points(cantor_depth, grid_exp=12), family, depth=3,
                           rho_schedule=[Fraction(1), Fraction(1, 1 << 10), Fraction(1, 1 << 11)],
                           piece_w_schedule=[12, 12, 12])


class TestGreedyOnRrpObligations:
    """The greedy against its oracle on the obligations `rrp_run` really makes."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda out: main(["rrp", "--out", str(out)]), id="cli-default"),
        # benchmark-shaped: 256 snapped middle-thirds points, 8 maps x/2 + s 2^-20
        pytest.param(lambda out: _rrp_build([((1, 2), s) for s in (3, 17, 40, 41, 99, 128, 200, 255)])(),
                     id="benchmark-shaped"),
    ])
    def test_matches_oracle_and_budget_edge(self, monkeypatch, tmp_path, build):
        calls = rrp_greedy_calls(monkeypatch, lambda: build(tmp_path / "rrp.json"))
        assert len(calls) == 3  # one per step
        assert len(calls[1][0]) == 256  # one obligation per anchor: one map scale
        for members, kw in calls:
            pieces = greedy_piece_cover(members, **kw)
            assert pieces == greedy_piece_cover_oracle(members, **kw)
            edge = dict(kw, budget=_merged_measure(pieces) - 1)
            errors = []
            for builder in (greedy_piece_cover, greedy_piece_cover_oracle):
                with pytest.raises(CoverError) as exc:
                    builder(members, **edge)
                errors.append(str(exc.value))
            assert errors == [f"greedy piece cover exceeded the budget {edge['budget']}"] * 2

    def test_negative_scale_windows_pinned(self, monkeypatch):
        # a negative scale maps each anchor's window of sorted points to
        # descending images; the obligations hold them ascending, and their
        # digest was recorded when each window was sorted on its own.  The
        # build runs out of budget at step 2, after its third greedy call.
        calls = rrp_greedy_calls(monkeypatch, _rrp_build([((-1, 2), (1 << 19) + i) for i in range(3)], 6))
        members = [[[p.tolist(), t.tolist()] for p, t in obl] for obl, _ in calls]
        assert [len(m) for m in members] == [1, 128, 128]
        assert all(pts == sorted(pts) for obl in members for pts, _ in obl)
        digest = hashlib.sha256(json.dumps(members).encode()).hexdigest()
        assert digest == "537c7432acb9b05bf375576570696b15f285034865f10e1f61350f26776043a6"
