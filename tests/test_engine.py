"""Construction engine: families, full runs, cascade, traces."""

import copy
import hashlib
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from nullcover.bias_sets import ParameterError
from nullcover.cli import main
from nullcover.elementary import first_gap, merge_intervals, points_plus
from nullcover.engine import (
    AffineMap,
    ConstructionTrace,
    EngineError,
    FunctionFamily,
    GridSet,
    family_covering_number,
    full_measure_run,
    make_frame_denominator,
    middle_thirds_points,
    rrp_run,
    verify_full_measure_trace,
    verify_rrp_trace,
)


# content_hash of the default `nullcover rrp` trace, which is also the
# criterion-6 instance (`_acceptance_rrp` in test_acceptance.py); a faster
# builder must give the same pieces
RRP_DEFAULT_HASH = "81a26b055725cd43fae47b3570dbb1c53e9cd4fe1db5ad251cee693b1a3db805"

# content_hash of the default `nullcover full-measure` trace (depth 3, eps 1/2,
# spacing 50) and of the depth-4 trace on the 2^-60 grid
FULL_MEASURE_DEFAULT_HASH = "d79e915fedf1f1955221636568230ffc9689c96df7b33781a5192f2d60324e1e"
FULL_MEASURE_DEPTH4_HASH = "e7f18a27eda69201d842d8f525bc2e609a80e3ffa8bcdb8ec04f96ff6b812d4f"


def criterion_family():
    return FunctionFamily(
        maps=[AffineMap(Fraction(1, 2), Fraction(i, 1 << 20)) for i in range(8)],
        bilipschitz_c=Fraction(2),
    )


def criterion_points():
    return middle_thirds_points(7, grid_exp=12)


def scalings(scales, c=Fraction(2)):
    """The family of the maps x -> s x."""
    return FunctionFamily(maps=[AffineMap(Fraction(s), Fraction(0)) for s in scales], bilipschitz_c=c)


class TestFunctionFamily:
    def test_bilipschitz_enforced(self):
        with pytest.raises(EngineError):
            scalings([Fraction(1, 4)])
        scalings([Fraction(1, 2), Fraction(3, 4)])
        for c in (Fraction(0), Fraction(-2)):  # no C <= 0, and no division by it
            with pytest.raises(EngineError):
                scalings([Fraction(1, 2)], c=c)

    def test_serialization(self):
        fam = criterion_family()
        rt = FunctionFamily.from_json_dict(fam.to_json_dict())
        assert rt.maps == fam.maps

    def test_covering_number_single(self):
        fam = scalings([Fraction(1, 2)])
        assert family_covering_number(fam, Fraction(1, 100)) == 1

    def test_covering_number_scalings(self):
        # r in {1/2, 1/2 + delta, ..., 1}: pairwise sup distance |r - r'|
        scales = [Fraction(1, 2) + Fraction(i, 40) for i in range(21)]
        fam = scalings(scales)
        n = family_covering_number(fam, Fraction(1, 40))
        # greedy net at delta = spacing: every other map suffices, within factor 2
        assert 7 <= n <= 21
        assert family_covering_number(fam, Fraction(1)) == 1

    def test_hausdorff_image_bound(self):
        # H(f1(A), f2(A)) <= sup |f1 - f2| on samples, exactly
        from nullcover.fractal import hausdorff_distance

        pts = criterion_points()[:40]
        f1, f2 = AffineMap(Fraction(1, 2), 0), AffineMap(Fraction(5, 8), Fraction(1, 64))
        h = hausdorff_distance([(f1(p),) for p in pts], [(f2(p),) for p in pts])
        sup = max(abs(f1(p) - f2(p)) for p in pts)
        assert h <= sup


class TestRRPRun:
    def test_acceptance_instance(self):
        t0 = time.time()
        trace = rrp_run(
            criterion_points(), criterion_family(), depth=3,
            rho_schedule=[Fraction(1), Fraction(1, 1 << 10), Fraction(1, 1 << 11)],
            piece_w_schedule=[12, 12, 12],
        )
        assert trace.passed
        vols = [s.volume for s in trace.steps]
        assert vols[0] <= Fraction(1, 10)
        assert vols[1] <= Fraction(1, 20)
        assert vols[2] <= Fraction(1, 40)  # 5^-1 * 2^-3
        for s in trace.steps:
            assert s.checks["check_a_nested"]
            assert s.checks["check_b_volume"]
            assert s.checks["check_b_neighborhood"]
            assert s.checks["check_c_coverage"]
        assert time.time() - t0 < 300
        assert trace.content_hash() == RRP_DEFAULT_HASH

    @pytest.mark.parametrize("argv, expected", [
        ((), RRP_DEFAULT_HASH),
        (("--depth", "2", "--maps", "3", "--cantor-depth", "6"),
         "be6c65d93654b7827fb5cc03ccb0c3bf400bb764a91ddaf7282a4c3eb3009004"),
    ])
    def test_cli_trace_hash_pinned(self, tmp_path, argv, expected):
        out = tmp_path / "trace.json"
        assert main(["rrp", *argv, "--out", str(out)]) == 0
        blob = json.dumps(json.loads(out.read_text()), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == expected

    def test_initial_rectangle(self):
        trace = rrp_run(criterion_points(), criterion_family(), depth=1,
                        piece_w_schedule=[12])
        r_lo, r_hi = Fraction(trace.meta["R"][0]), Fraction(trace.meta["R"][1])
        for a, b in criterion_family().to_json_dict()["maps"]:
            f0 = Fraction(a) * 0 + Fraction(b)
            assert f0 + r_lo <= 0 and f0 + r_hi >= 1

    def test_delta_tail(self):
        trace = rrp_run(criterion_points(), criterion_family(), depth=3,
                        rho_schedule=[Fraction(1), Fraction(1, 1 << 10), Fraction(1, 1 << 11)],
                        piece_w_schedule=[12, 12, 12])
        deltas = [Fraction(d) for d in trace.meta["delta_schedule"]]
        for j in range(len(deltas)):
            assert sum(deltas[j:], Fraction(0)) <= 2 * deltas[j]
            assert deltas[j] <= Fraction(1, 1 << j)

    def test_determinism_bitwise(self):
        kw = dict(
            rho_schedule=[Fraction(1), Fraction(1, 1 << 10)], piece_w_schedule=[12, 12]
        )
        t1 = rrp_run(criterion_points(), criterion_family(), depth=2, **kw)
        t2 = rrp_run(criterion_points(), criterion_family(), depth=2, **kw)
        assert t1.content_hash() == t2.content_hash()

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        with pytest.raises(EngineError, match="depth"):
            rrp_run(criterion_points(), criterion_family(), depth=depth)

    def test_verify_roundtrip_and_tamper(self):
        trace = rrp_run(criterion_points(), criterion_family(), depth=2,
                        rho_schedule=[Fraction(1), Fraction(1, 1 << 10)],
                        piece_w_schedule=[12, 12])
        data = json.loads(json.dumps(trace.to_json_dict()))
        assert verify_rrp_trace(data)["passed"]
        data["steps"][1]["k_intervals"] = data["steps"][1]["k_intervals"][:-5]
        assert not verify_rrp_trace(data)["passed"]

    def test_verify_rechecks_delta_and_frame(self):
        trace = rrp_run(criterion_points(), criterion_family(), depth=2,
                        rho_schedule=[Fraction(1), Fraction(1, 1 << 10)],
                        piece_w_schedule=[12, 12])
        data = json.loads(json.dumps(trace.to_json_dict()))
        assert trace.meta["delta_schedule"] == ["1/16", "1/2048"]
        # the recorded (b) volumes, against merging the inflated intervals
        prev = [tuple(Fraction(x) for x in trace.meta["R"])]
        for step in trace.steps:
            r = 2 * step.delta
            nbhd = merge_intervals([(lo - r, hi + r) for lo, hi in prev])
            assert Fraction(step.checks["neighborhood_volume_prev"]) == sum(b - a for a, b in nbhd)
            prev = step.k_intervals

        def tampered(step, delta):
            t = json.loads(json.dumps(data))
            t["steps"][step]["delta"] = delta
            res = verify_rrp_trace(t)
            assert not res["passed"]
            return res

        # each single delta mutation trips exactly the check it should
        assert tampered(1, "1")["steps"][1]["delta_ok"] is False  # above 2^-1
        res = tampered(1, "1/64")  # |K_1^(2 delta)| > 2^-1, tail still fine
        assert res["steps"][1]["neighborhood_ok"] is False and res["delta_tail_ok"]
        assert tampered(1, "1/4")["delta_tail_ok"] is False  # 1/16 + 1/4 > 2/16
        assert tampered(0, "1/2048")["steps"][0]["nested_ok"] is False
        # a frame that does not hold the points exactly is refused, not floored
        data["meta"]["frame_denominator"] += 1
        with pytest.raises(EngineError, match="not on the 1/1048577 frame"):
            verify_rrp_trace(data)

    def test_coverage_is_real(self):
        # independent oracle: pixel mask of f(A') + K_J covers f(a0) + R
        trace = rrp_run(criterion_points(), criterion_family(), depth=2,
                        rho_schedule=[Fraction(1), Fraction(1, 1 << 10)],
                        piece_w_schedule=[12, 12])
        step = trace.steps[-1]
        pts = criterion_points()
        grid = 1 << 14
        for a, b in [criterion_family().to_json_dict()["maps"][i] for i in (0, 7)]:
            f = AffineMap(Fraction(a), Fraction(b))
            mask = np.zeros(grid + 1, dtype=bool)
            for lo, hi in step.k_intervals:
                for p in pts:
                    s = int(np.ceil(float((f(p) + lo) * grid)))
                    e = int(np.floor(float((f(p) + hi) * grid)))
                    mask[max(s, 0) : min(e, grid) + 1] = True
            lo_t = int(np.ceil(float((f(pts[0]) + Fraction(trace.meta["R"][0])) * grid)))
            hi_t = int(np.floor(float((f(pts[0]) + Fraction(trace.meta["R"][1])) * grid)))
            assert mask[max(lo_t, 0) : min(hi_t, grid) + 1].all()


class TestMixedScales:
    """Families whose maps do not all share one scale: the build and verify
    keep one map per scale, and stand for the others by translation."""

    FAMILIES = {
        "1/2,3/4": ([("1/2", "0"), ("3/4", "0")],
                    "3192a9f4fca35ac24a5f08037af4a41fbbf20b7aeb0e0d9a1fa75790bdce1988"),
        "1/2,5/8": ([("1/2", "0"), ("5/8", "0")],
                    "67c166e9c5966cca949395697698fb5abbf35b1c9a812ad8ad7e176154bdad51"),
        "1/2,-1/2": ([("1/2", "0"), ("-1/2", "0")],
                     "8439e1dabddfe3ccc0c1dc57fdc31950c50a845290c7f0a51186b6cb721f1dc5"),
        "1/2,1": ([("1/2", "0"), ("1", "0")],
                  "eaf2bd9d18832c15e7513e66712a9d55f69de58fe808e98d542a6cebe6c34a2f"),
        # several offsets per scale, the scales interleaved in family order
        "interleaved": ([("1/2", "0"), ("3/4", "0"), ("1/2", "1/64"), ("3/4", "-1/32"), ("1/2", "3/128")],
                        "857fbbcfed3746d367f1d80cd7d74ef240f71f44ab473fcb229ad77705a780a2"),
        "interleaved-3/4-first": ([("3/4", "1/1024"), ("1/2", "0"), ("3/4", "0"), ("1/2", "5/4096")],
                                  "47d97a866b485f524492113d0a76512b5f5eee55077a15593bd35486b5f459bb"),
    }

    @staticmethod
    def trace(maps):
        fam = FunctionFamily(maps=[AffineMap(Fraction(a), Fraction(b)) for a, b in maps],
                             bilipschitz_c=Fraction(2))
        return rrp_run(middle_thirds_points(6, grid_exp=12), fam, depth=1,
                       rho_schedule=[Fraction(1)], piece_w_schedule=[12])

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_hash_pinned(self, name):
        # recorded when every map had its own obligations and (c) test
        maps, expected = self.FAMILIES[name]
        trace = self.trace(maps)
        assert trace.content_hash() == expected
        assert verify_rrp_trace(json.loads(json.dumps(trace.to_json_dict())))["passed"]

    @staticmethod
    def per_map_coverage(data):
        """(c) for each map on its own: f(a0) + R inside f(A') + K_1, the
        images taken in Fraction arithmetic."""
        meta = data["meta"]
        D = meta["frame_denominator"]
        points = [Fraction(p) for p in meta["points"]]
        a0, (r_lo, r_hi) = Fraction(meta["a0"]), map(Fraction, meta["R"])
        k = np.array([[int(Fraction(x) * D) for x in iv] for iv in data["steps"][0]["k_intervals"]])
        out = []
        for scale, offset in meta["family"]["maps"]:
            f = AffineMap(Fraction(scale), Fraction(offset))
            union = points_plus([int(f(p) * D) for p in points], k[:, 0], k[:, 1])
            out.append(first_gap(*union, int((f(a0) + r_lo) * D), int((f(a0) + r_hi) * D)) is None)
        return out

    @pytest.mark.parametrize("name", ["1/2,3/4", "1/2,-1/2", "interleaved", "interleaved-3/4-first"])
    def test_coverage_matches_per_map_check(self, name):
        data = json.loads(json.dumps(self.trace(self.FAMILIES[name][0]).to_json_dict()))
        ivs = data["steps"][0]["k_intervals"]
        verdicts = []
        for cut in [None, 0, 1, len(ivs) // 3, len(ivs) // 2, -2, -1]:  # K_1, or K_1 less one interval
            t = copy.deepcopy(data)
            if cut is not None:
                del t["steps"][0]["k_intervals"][cut]
            per_map = self.per_map_coverage(t)
            coverage_ok = verify_rrp_trace(t)["steps"][0]["coverage_ok"]
            assert coverage_ok == all(per_map), (cut, per_map)
            verdicts.append(tuple(per_map))
        assert all(verdicts[0])
        assert any(len(set(v)) == 2 for v in verdicts)  # some map covers, another does not


class TestFullMeasure:
    def test_criterion_instance(self):
        grid = GridSet(spacing_exponent=50, region=[(Fraction(0), Fraction(1, 2))])
        t0 = time.time()
        trace = full_measure_run(grid, Fraction(1, 2), depth=3)
        assert trace.passed
        for s in trace.steps[1:]:
            assert s.measure <= Fraction(1, 1 << s.j)
            assert s.checks["check_d_uncovered"]
            assert s.checks["check_b_nested_4q"]
        assert trace.steps[0].measure == 2  # seed convention
        assert time.time() - t0 < 300

    def test_uncovered_bounds_tighten(self):
        grid = GridSet(spacing_exponent=50, region=[(Fraction(0), Fraction(1, 2))])
        trace = full_measure_run(grid, Fraction(1, 2), depth=3)
        for s in trace.steps[1:]:
            bound = Fraction(s.checks["uncovered_bound"])
            assert bound == (1 - Fraction(1, 1 << s.j)) * Fraction(1, 2)
            assert Fraction(s.checks["uncovered_value"]) <= bound

    def test_depth4_takes_the_next_field_that_fits(self):
        # stage 4 needs 4455 A-cells at eps_j = 1/32, more than the m = 4096
        # of the min_m = 2 field, so it moves to k = 17, m = 2^16; its cells
        # at level 40 + 16 = 56 need a grid at least that fine
        grid = GridSet(spacing_exponent=60, region=[(Fraction(0), Fraction(1, 2))])
        trace = full_measure_run(grid, Fraction(1, 2), depth=4)
        assert trace.passed
        params = [s.template_cert["params"] for s in trace.steps[1:]]
        assert [p["m0"] for p in params] == [2, 2, 2, 4097]
        assert [p["m"] for p in params] == [65536, 4096, 4096, 65536]
        last = trace.steps[-1]
        assert last.cube_level == 56 and last.checks["threshold_nz"] <= 65536
        assert verify_full_measure_trace(trace.to_json_dict())["passed"]

    def test_largeness_error_names_requirement(self):
        coarse = GridSet(spacing_exponent=12, region=[(Fraction(0), Fraction(1, 2))])
        with pytest.raises(EngineError, match="N'"):
            full_measure_run(coarse, Fraction(1, 2), depth=2)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        grid = GridSet(spacing_exponent=50, region=[(Fraction(0), Fraction(1, 2))])
        with pytest.raises(EngineError, match="depth"):
            full_measure_run(grid, Fraction(1, 2), depth=depth)

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(3, 2), Fraction(0)])
    def test_eps_outside_unit_interval_rejected(self, eps):
        grid = GridSet(spacing_exponent=50, region=[(Fraction(0), Fraction(1, 2))])
        with pytest.raises(ParameterError, match=r"eps must lie in \(0, 1\), got"):
            full_measure_run(grid, eps, depth=1)

    def test_determinism(self):
        grid = GridSet(spacing_exponent=50, region=[(Fraction(0), Fraction(1, 2))])
        t1 = full_measure_run(grid, Fraction(1, 2), depth=2)
        t2 = full_measure_run(grid, Fraction(1, 2), depth=2)
        assert t1.content_hash() == t2.content_hash()

    @pytest.mark.parametrize("argv, expected", [
        ((), FULL_MEASURE_DEFAULT_HASH),
        (("--depth", "4", "--spacing-exp", "60"), FULL_MEASURE_DEPTH4_HASH),
    ])
    def test_cli_trace_hash_pinned(self, tmp_path, argv, expected):
        out = tmp_path / "trace.json"
        assert main(["full-measure", *argv, "--out", str(out)]) == 0
        blob = json.dumps(json.loads(out.read_text()), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == expected

    @pytest.mark.parametrize("spacing", [2, 4, 10])
    def test_grid_too_coarse_for_stage_one(self, spacing):
        # stage 1 needs N' = 769 occupied 2^-16 cells; {i 2^-s} in [0, 1/2)
        # occupies 2^(s-1) of them
        grid = GridSet(spacing_exponent=spacing, region=[(Fraction(0), Fraction(1, 2))])
        with pytest.raises(EngineError, match="N' = 769, have %d occupied" % (1 << (spacing - 1))):
            full_measure_run(grid, Fraction(1, 2), depth=1)

    @pytest.mark.parametrize("region", [
        [(Fraction(1, 7), Fraction(3, 10)), (Fraction(5, 11), Fraction(9, 10))],
        [(Fraction(-1, 3), Fraction(1, 5)), (Fraction(2, 9), Fraction(4, 3))],
        [(Fraction(0), Fraction(1, 2))],
    ])
    def test_grid_cells_match_points(self, region):
        # the cells of [0, 1) holding a point i 2^-s of the half-open region,
        # by enumerating the points, at levels above, at and below s
        for s in range(7):
            grid = GridSet(spacing_exponent=s, region=region)
            points = [Fraction(i, 1 << s) for i in range(1 << s)]
            inside = [p for p in points if any(a <= p < b for a, b in region)]
            for level in range(9):
                cells = grid.cells(level)
                assert cells.dtype == np.int64
                assert cells.tolist() == sorted({int(p * (1 << level)) for p in inside}), (s, level)


def test_frame_denominator():
    fam = criterion_family()
    pts = [Fraction(1, 3), Fraction(1, 4)]
    D = make_frame_denominator(pts, fam, g_max=12)
    for f in fam.maps:
        for p in pts:
            assert (f(p) * D).denominator == 1
    assert D % (1 << 12) == 0


def test_trace_json_shape():
    trace = rrp_run(criterion_points(), criterion_family(), depth=1, piece_w_schedule=[12])
    d = trace.to_json_dict()
    assert d["schema"] == "nullcover/1" and d["kind"] == "rrp"
    assert isinstance(d["steps"][0]["k_intervals"], list)
