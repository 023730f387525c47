"""CLI: subcommands, exit codes, reproducibility of artifacts."""

import copy
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from nullcover.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBiasSet:
    def test_example_pipeline(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, _, _ = run(capsys, "bias-set", "--eta", "1/3", "--m0", "10", "--d", "1", "--out", str(out))
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["params"]["k"] == 3
        assert cert["params"]["s"] == 2
        assert cert["params"]["m"] == 16
        assert cert["bias"] < 0.25
        assert cert["size_ok"] and cert["bias_ok"]

    def test_sweep_csv(self, capsys):
        code, outtext, _ = run(capsys, "bias-set", "--eta", "1/3", "--m0", "1", "4", "16",
                               "--format", "csv")
        assert code == 0
        lines = outtext.strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert "bias" in lines[0]

    def test_bad_rational(self, capsys):
        code, _, _ = run(capsys, "bias-set", "--eta", "nope", "--m0", "1")
        assert code == 2

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "bias-set", "--eta", "1/16", "--m0", "1", "--d", "2")
        assert code == 1


class TestCover:
    def _family_file(self, tmp_path, size=20, N=64, seed=0):
        rng = np.random.default_rng(seed)
        member = rng.choice(N, size=size, replace=False).reshape(-1, 1).tolist()
        fam = {"d": 1, "kind": "grid", "N": N, "members": [member]}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(fam))
        return path

    def test_cover_success(self, capsys, tmp_path):
        fam = self._family_file(tmp_path)
        out = tmp_path / "cover.json"
        code, _, _ = run(capsys, "cover", "--family", str(fam), "--eps", "1/2",
                         "--seed", "7", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["certificate"]["b_size"] == 32

    def test_undersized_member_exit_1(self, capsys, tmp_path):
        fam = self._family_file(tmp_path, size=10)
        code, _, err = run(capsys, "cover", "--family", str(fam), "--eps", "1/2", "--seed", "7")
        assert code == 1
        assert f"{4 * math.log(64):.3f}"[:5] in err  # threshold 16.63x named

    def test_seed_required(self, capsys, tmp_path):
        fam = self._family_file(tmp_path)
        code, _, _ = run(capsys, "cover", "--family", str(fam), "--eps", "1/2")
        assert code == 2

    def test_byte_identical_artifacts(self, capsys, tmp_path):
        fam = self._family_file(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "cover", "--family", str(fam), "--eps", "1/2", "--seed", "7", "--out", str(a))
        run(capsys, "cover", "--family", str(fam), "--eps", "1/2", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_out_file_mode_follows_umask(self, capsys, tmp_path):
        fam = self._family_file(tmp_path)
        out = tmp_path / "cover.json"
        old = os.umask(0o027)
        try:
            code, _, _ = run(capsys, "cover", "--family", str(fam), "--eps", "1/2",
                             "--seed", "7", "--out", str(out))
        finally:
            os.umask(old)
        assert code == 0
        assert out.stat().st_mode & 0o777 == 0o640

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "cover", "--family", "/nonexistent.json", "--eps", "1/2", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("family,message", [
        ({"d": 1, "kind": "grid", "N": 64, "members": [[[0.5], [3], [7]]]}, "must be integers"),
        ({"d": 1, "kind": "cube", "point_exponent": 8, "members": [[[1.5], [3], [7]]]}, "must be integers"),
        ({"d": 1, "kind": "cube", "point_exponent": 8, "members": [[[10**20], [3], [7]]]}, "fit in int64"),
        ({"d": 1, "kind": "cube", "point_exponent": 8, "members": [[[1e20], [3], [7]]]}, "fit in int64"),
        ({"d": 1, "kind": "cube", "point_exponent": 8, "members": [[[math.inf], [3], [7]]]}, "must be integers"),
        ({"d": 1, "kind": "cube", "point_exponent": 8, "members": [[[math.nan], [3], [7]]]}, "must be integers"),
        ({"d": 1, "kind": "cube", "point_exponent": 8, "members": [[[10**20], [math.inf], [7]]]},
         "must be integers"),
    ], ids=["grid", "cube", "int-beyond-int64", "float-beyond-int64", "Infinity", "NaN",
            "int-beyond-int64-and-Infinity"])
    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
    def test_non_integer_member_exit_2(self, capsys, tmp_path, family, message):
        # a fractional or non-finite coordinate is rejected, not truncated to
        # an integer; one outside int64 neither overflows nor is cast to -2^63
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(family))
        code, _, err = run(capsys, "cover", "--family", str(path), "--eps", "1/2", "--seed", "1")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and message in err


class TestDimension:
    def test_middle_thirds_infinite(self, capsys):
        code, outtext, _ = run(capsys, "dimension", "--base", "3", "--digits", "0,2", "--depth", "6")
        assert code == 0
        assert json.loads(outtext)["infinite"] is True

    def test_from_file(self, capsys, tmp_path):
        from nullcover.fractal import generate_cantor

        sched = [(2**k, 2**k) for k in range(1, 5)]
        cube = generate_cantor({"kind": "sparse", "schedule": sched, "d": 1}, depth=4)
        path = tmp_path / "set.json"
        path.write_text(json.dumps(cube.to_json_dict()))
        code, outtext, _ = run(capsys, "dimension", "--set", str(path))
        assert code == 0
        est = json.loads(outtext)
        assert abs(est["value"] - 1.0) < 0.1

    @pytest.mark.parametrize("d, k", [(1, 63), (2, 32)])
    def test_set_beyond_key_width_exit_2(self, capsys, tmp_path, d, k):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"d": d, "k": k, "cells": [[1] * d]}))
        code, _, err = run(capsys, "dimension", "--set", str(path))
        assert code == 2
        assert "Traceback" not in err and "exceeds 62" in err


@pytest.mark.parametrize("argv", [
    ("dimension", "--digits", "a,b"),
    ("cover", "--family", "{empty}", "--eps", "1/2", "--seed", "1"),
    ("dimension", "--set", "{empty}"),
    ("rrp", "--depth", "0"),
    ("bias-set", "--eta", "1/3", "--m0", "0"),
    ("bias-set", "--eta", "1/3", "--m0", "4", "--d", "0"),
    ("dimension", "--base", "1"),
    ("dimension", "--depth", "-1"),
    ("dimension", "--base", "3", "--digits", "0,5"),
    ("rrp", "--cantor-depth", "-1"),
    ("rrp", "--grid-exp", "-1"),
    ("full-measure", "--depth", "0"),
    ("full-measure", "--depth", "-1"),
    ("bias-set", "--eta", "0", "--m0", "4"),
    ("full-measure", "--eps", "0"),
    ("full-measure", "--spacing-exp", "-1"),
    ("full-measure", "--eps", "1", "--depth", "1"),
    ("full-measure", "--eps", "3/2"),
    ("bias-set", "--eta", "2", "--m0", "4"),
    ("bias-set", "--eta", "1/2", "--m0", "4"),
    # a directory where an input file belongs
    ("cover", "--family", "{dir}", "--eps", "1/2", "--seed", "1"),
    ("dimension", "--set", "{dir}"),
    ("verify", "{dir}"),
])
def test_usage_error_exit_2(capsys, tmp_path, argv):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, _, err = run(capsys, *(a.format(empty=empty, dir=tmp_path) for a in argv))
    assert code == 2
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]


class TestTraces:
    def test_rrp_and_verify_roundtrip(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, _, _ = run(capsys, "rrp", "--depth", "2", "--out", str(trace))
        assert code == 0
        code, outtext, _ = run(capsys, "verify", str(trace))
        assert code == 0
        # tamper: flip one interval corner
        data = json.loads(trace.read_text())
        data["steps"][1]["k_intervals"][0][0] = "-7/8"
        trace.write_text(json.dumps(data))
        code, _, _ = run(capsys, "verify", str(trace))
        assert code == 1

    def test_full_measure_and_verify(self, capsys, tmp_path):
        trace = tmp_path / "fm.json"
        code, _, _ = run(capsys, "full-measure", "--eps", "1/2", "--depth", "2", "--out", str(trace))
        assert code == 0
        code, outtext, _ = run(capsys, "verify", str(trace))
        assert code == 0
        data = json.loads(trace.read_text())
        data["steps"][2]["measure"] = "1/3"
        trace.write_text(json.dumps(data))
        code, _, _ = run(capsys, "verify", str(trace))
        assert code == 1

    def test_full_measure_depth4(self, capsys, tmp_path):
        trace = tmp_path / "fm.json"
        args = ("full-measure", "--depth", "4", "--spacing-exp", "60", "--out", str(trace))
        assert run(capsys, *args)[0] == 0
        assert run(capsys, "verify", str(trace))[0] == 0
        # the default 2^-50 grid is too coarse for the stage-4 cells
        code, _, err = run(capsys, "full-measure", "--depth", "4", "--out", str(trace))
        assert code == 1
        assert "grid spacing 2^-50 coarser than operative cells 2^-56" in err

    @pytest.mark.parametrize("depth", [0, -1])
    def test_full_measure_depth_below_one_fails_verify(self, capsys, tmp_path, depth):
        trace = tmp_path / "fm.json"
        assert run(capsys, "full-measure", "--depth", "1", "--out", str(trace))[0] == 0
        data = json.loads(trace.read_text())
        data["meta"]["depth"] = depth
        data["steps"] = data["steps"][:1]  # stage 0 only, as such a run would record
        trace.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(trace))
        assert code == 1
        assert err.startswith("verification error: ") and "Traceback" not in err

    @pytest.mark.parametrize("eps", ["1", "3/2"])
    def test_full_measure_eps_at_least_one_fails_verify(self, capsys, tmp_path, eps):
        trace = tmp_path / "fm.json"
        assert run(capsys, "full-measure", "--depth", "1", "--out", str(trace))[0] == 0
        data = json.loads(trace.read_text())
        data["meta"]["eps"] = eps
        trace.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(trace))
        assert code == 1
        assert err.startswith("verification error: eps must lie in (0, 1)")

    def test_unknown_kind(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 2

    @pytest.mark.parametrize("top", [[], 3], ids=["list", "number"])
    def test_non_object_trace_exit_2(self, capsys, tmp_path, top):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(top))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err == "error: unknown trace kind None\n"

    @pytest.mark.parametrize("argv", [
        ("rrp", "--cantor-depth", "4", "--grid-exp", "8", "--depth", "2", "--maps", "2"),
        ("full-measure", "--depth", "4"),
    ])
    def test_construction_failure_exit_1(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("certificate failure: ")


@pytest.fixture(scope="module")
def rrp_trace_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("rrp") / "trace.json"
    assert main(["rrp", "--depth", "2", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _corner(data):
    iv = data["steps"][1]["k_intervals"][0]
    iv[1] = str(Fraction(iv[1]) - Fraction(1, data["meta"]["frame_denominator"]))


def _volume(data):
    step = data["steps"][0]
    step["volume"] = str(Fraction(step["volume"]) + Fraction(1, data["meta"]["frame_denominator"]))


def _delta(data):
    data["steps"][1]["delta"] = "1"  # the record-2 bound is 2^-1


def _frame(data):
    data["meta"]["frame_denominator"] += 1


def _no_steps(data):  # fewer records than meta.depth is no vacuous pass
    data["steps"] = []


def _last_step_removed(data):
    data["steps"].pop()


def _image_off_frame(data):  # 2/3 of some frame point is off the 1/D frame
    data["meta"]["family"]["maps"][0][0] = "2/3"


def _exponent(data):  # refused before Fraction computes 10^(10^6)
    data["steps"][0]["volume"] = "1e1000000"


@pytest.mark.parametrize("mutate", [_corner, _volume, _delta, _frame, _no_steps, _last_step_removed,
                                    _image_off_frame, _exponent])
def test_rrp_single_tamper_fails_verify(capsys, tmp_path, rrp_trace_data, mutate):
    data = copy.deepcopy(rrp_trace_data)
    mutate(data)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1
    message = {_image_off_frame: "is not on the 1/1048576 frame", _exponent: "is not a rational"}
    assert message.get(mutate, "") in err


# every rrp trace field verify reads ("*" is any list entry), and the values
# a mutated one takes: wrong types, rationals that do not parse or have a zero
# denominator, ints far out of range, and lists of the wrong length
READ = ["meta", "meta.depth", "meta.family", "meta.family.maps", "meta.family.maps.*",
        "meta.family.maps.*.*", "meta.family.bilipschitz_c", "meta.points", "meta.points.*",
        "meta.a0", "meta.R", "meta.R.*", "meta.frame_denominator", "steps", "steps.*",
        "steps.*.j", "steps.*.delta", "steps.*.k_intervals", "steps.*.k_intervals.*",
        "steps.*.k_intervals.*.*", "steps.*.volume"]
JUNK = [None, True, -1, 0, 2**70, 1.5, math.inf, math.nan, "1/0", "x", "", "-1", "1/3",
        [], {}, [[]], ["1", "2", "3"], {"a": 1}, "deleted"]


def _mutate_field(data, field, junk, rng):
    """Replace one instance of `field`, picked by `rng`, with `junk`, or delete it."""
    *path, last = field.split(".")
    node = data
    for part in path:
        node = node[rng.randrange(len(node))] if part == "*" else node[part]
    key = rng.randrange(len(node)) if last == "*" else last
    if junk == "deleted":
        del node[key]
    else:
        node[key] = copy.deepcopy(junk)


def test_rrp_trace_mutations_never_escape_main(capsys, tmp_path, rrp_trace_data):
    # whatever one field holds, verify passes or fails with exit 1; no
    # exception escapes
    rng = random.Random(20)
    path = tmp_path / "mutated.json"
    codes = []
    for field in READ:
        for junk in JUNK:
            data = copy.deepcopy(rrp_trace_data)
            _mutate_field(data, field, junk, rng)
            path.write_text(json.dumps(data))
            codes.append(main(["verify", str(path)]))
            capsys.readouterr()
    assert set(codes) <= {0, 1} and codes.count(1) > 0.9 * len(codes)


@pytest.mark.parametrize("field", ["k_intervals", "volume", "delta", "frame_denominator", "j"])
def test_rrp_changed_field_fails_verify(capsys, tmp_path, rrp_trace_data, field):
    rng = random.Random(field)
    D = rrp_trace_data["meta"]["frame_denominator"]
    path = tmp_path / "changed.json"
    for _ in range(10):
        data = copy.deepcopy(rrp_trace_data)
        n = rng.randrange(len(data["steps"]))  # record n holds j = n + 1
        step, sign = data["steps"][n], rng.choice([-1, 1])
        if field == "k_intervals":  # one endpoint moves by 1/D: the measure moves by 1/D
            iv, end = rng.choice(step["k_intervals"]), rng.randrange(2)
            iv[end] = str(Fraction(iv[end]) + Fraction(sign, D))
        elif field == "volume":
            step["volume"] = str(Fraction(step["volume"]) + Fraction(sign * rng.randint(1, D), D))
        elif field == "delta":  # above the bound 2^-(j-1), or negative
            step["delta"] = str(sign * (Fraction(1, 1 << n) + Fraction(rng.randint(1, D), D)))
        elif field == "frame_denominator":  # no multiple of the least frame D
            data["meta"]["frame_denominator"] = D + sign * rng.randint(1, D - 1)
        else:
            step["j"] = rng.choice([n, n + 2, -1, 10**20])
        path.write_text(json.dumps(data))
        assert run(capsys, "verify", str(path))[0] == 1, (field, n)
