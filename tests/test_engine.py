"""Construction engine: families, full runs, cascade, traces."""

import hashlib
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from nullcover.bias_sets import ParameterError
from nullcover.cli import main
from nullcover.elementary import merge_intervals
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

    def test_grid_counting(self):
        grid = GridSet(spacing_exponent=4, region=[(Fraction(0), Fraction(1, 2))])
        assert grid.count_in(Fraction(0), Fraction(1)) == 8
        assert grid.count_in(Fraction(0), Fraction(1, 4)) == 4


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
