"""Random covering designs, lifts, pixel verification, the greedy piece cover."""

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
    greedy_piece_cover,
    _insert_offset,
    pixel_cover_mask,
    random_cover_complement,
    size_threshold,
    lift_cover_to_box,
)
from nullcover.elementary import (
    IntervalAccumulator,
    covered_measure,
    first_gap,
    merge_int,
    merge_intervals,
    points_plus,
)
from nullcover.groups import GroupSubset, sumset


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


class TestLift:
    def test_lift_roundtrip_dimensions(self):
        fam = SetFamily(d=1, kind="grid", N=16, members=[np.arange(16).reshape(-1, 1)])
        B, _ = random_cover_complement(fam, Fraction(1, 2), seed=1)
        box = lift_cover_to_box(B)
        assert box.size <= 2 * B.size


class TestPixelCoverMask:
    def test_single_point_single_cell(self):
        # member pixel j=0; B h-cells {0,1} (one delta cell): robust covers p=1 only
        cov = pixel_cover_mask(np.array([[0]]), np.array([[0], [1]]), 1, [0], [4])
        assert cov.tolist() == [False, True, False, False]

    def test_run_of_cells(self):
        # B h-cells 0..3: eroded {0,1,2}: member {0}: covered p in {1,2,3}
        cov = pixel_cover_mask(np.array([[0]]), np.array([[0], [1], [2], [3]]), 1, [0], [5])
        assert cov.tolist() == [False, True, True, True, False]

    def test_oracle_random_1d(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a_cells = np.unique(rng.integers(0, 12, 5)).reshape(-1, 1)
            b_cells = np.unique(rng.integers(-6, 10, 8)).reshape(-1, 1)
            cov = pixel_cover_mask(a_cells, b_cells, 1, [0], [16])
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
        cov = pixel_cover_mask(a_cells, b_cells, 2, [0, 0], [10, 10])
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
        cov = pixel_cover_mask(hc, hb, 1, [0], [512])
        assert cov.all()


class TestFamilyHausdorffCount:
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
