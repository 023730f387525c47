"""Module loading: lazy package exports, the modules each command imports,
and the engine attributes an outside tracer wraps."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nullcover
from nullcover import engine
from nullcover.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def loaded_modules(code: str) -> set[str]:
    """The nullcover and numpy modules a fresh interpreter holds after `code`."""
    out = run_fresh(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    names = json.loads(out.splitlines()[-1])
    return {n for n in names if n.split(".")[0] in ("nullcover", "numpy")}


def run_cli(*argv: str) -> str:
    return f"from nullcover.cli import main\nassert main({list(argv)!r}) == 0"


class TestImportGraph:
    def test_package_loads_no_submodule(self):
        assert loaded_modules("import nullcover") == {"nullcover"}

    def test_cli_loads_no_numpy(self):
        assert loaded_modules("import nullcover.cli") == {"nullcover", "nullcover.cli"}

    def test_rrp_verify(self, tmp_path):
        trace = tmp_path / "rrp.json"
        assert main(["rrp", "--depth", "2", "--out", str(trace)]) == 0
        mods = loaded_modules(run_cli("verify", str(trace), "--out", str(tmp_path / "v.json")))
        for name in ("bias_sets", "gf", "groups", "covering", "fractal"):
            assert f"nullcover.{name}" not in mods
        assert "numpy.ma" not in mods

    def test_rrp_build(self, tmp_path):
        mods = loaded_modules(run_cli("rrp", "--depth", "1", "--out", str(tmp_path / "rrp.json")))
        # the greedy piece cover is elementary's: no covering, and no groups
        assert not {"nullcover.covering", "nullcover.groups", "nullcover.bias_sets", "nullcover.gf",
                    "nullcover.fractal", "numpy.ma"} & mods

    def test_cascade_build_and_verify(self, tmp_path):
        trace = str(tmp_path / "fm.json")
        code = (run_cli("full-measure", "--depth", "2", "--out", trace) + "\n"
                + f"assert main(['verify', {trace!r}, '--out', {str(tmp_path / 'v.json')!r}]) == 0")
        mods = loaded_modules(code)
        assert {"nullcover.bias_sets", "nullcover.gf", "nullcover.groups"} <= mods
        # numpy's default np.unique imports numpy.ma; the cascade sorts its
        # cells without it
        assert not {"nullcover.covering", "nullcover.fractal", "numpy.ma"} & mods

    def test_dimension(self, tmp_path):
        mods = loaded_modules(run_cli("dimension", "--out", str(tmp_path / "dim.json")))
        assert "nullcover.fractal" in mods
        # unique cells are sorted and compared, never hashed by np.unique
        assert "numpy.ma" not in mods

    def test_cover_cube_family(self, tmp_path):
        rng = np.random.default_rng(5)
        members = [np.argwhere(rng.random(512) < 0.85).tolist() for _ in range(2)]
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"d": 1, "kind": "cube", "point_exponent": 9, "members": members}))
        mods = loaded_modules(run_cli("cover", "--family", str(family), "--g", "8", "--eps", "9/10", "--seed", "3",
                                      "--out", str(tmp_path / "cover.json")))
        assert "nullcover.covering" in mods
        # the signed-box lift is elementary's cell translate, not bias_sets'
        assert not {"nullcover.bias_sets", "nullcover.gf", "numpy.ma"} & mods


def readme_import_table() -> dict[str, set[str]]:
    """The README's subcommand -> modules table: row label -> module names."""
    lines = iter((ROOT / "README.md").read_text().splitlines())
    for line in lines:
        if line.strip() == "| subcommand | modules |":
            break
    else:
        raise AssertionError("README has no subcommand -> modules table")
    next(lines)  # the |---|---| rule
    table = {}
    for line in lines:
        if not line.strip().startswith("|"):
            break
        label, modules = (cell.strip() for cell in line.strip().strip("|").split("|"))
        table[label] = {m.strip().strip("`") for m in modules.split(",")}
    return table


def readme_row_commands(tmp_path) -> dict[str, list[str]]:
    """Per README row, the CLI runs it stands for, with their inputs written
    to tmp_path; the traces to verify are built in this process."""
    out = str(tmp_path / "out.json")
    grid, cube = tmp_path / "grid.json", tmp_path / "cube.json"
    grid.write_text(json.dumps({"d": 1, "kind": "grid", "N": 16, "members": [[[i] for i in range(13)]]}))
    rng = np.random.default_rng(5)
    members = [np.argwhere(rng.random(512) < 0.85).tolist() for _ in range(2)]
    cube.write_text(json.dumps({"d": 1, "kind": "cube", "point_exponent": 9, "members": members}))
    rrp, fm = str(tmp_path / "rrp.json"), str(tmp_path / "fm.json")
    assert main(["rrp", "--depth", "1", "--out", rrp]) == 0
    assert main(["full-measure", "--depth", "1", "--out", fm]) == 0
    return {
        "`bias-set`": [run_cli("bias-set", "--eta", "1/3", "--m0", "16", "--out", out)],
        "`cover` of a grid family": [run_cli("cover", "--family", str(grid), "--eps", "1/2", "--seed", "1",
                                             "--out", out)],
        "`cover` of a cube family": [run_cli("cover", "--family", str(cube), "--g", "8", "--eps", "9/10",
                                             "--seed", "3", "--out", out)],
        "`dimension`": [run_cli("dimension", "--out", out)],
        "`rrp`": [run_cli("rrp", "--depth", "1", "--out", out)],
        "`full-measure`, `verify` of a cascade": [run_cli("full-measure", "--depth", "1", "--out", out),
                                                   run_cli("verify", fm, "--out", out)],
        "`verify` of an rrp trace": [run_cli("verify", rrp, "--out", out)],
    }


def test_readme_import_table(tmp_path):
    # each row names exactly the modules, besides the package and `cli`, that
    # a fresh interpreter holds after the runs it stands for
    table, commands = readme_import_table(), readme_row_commands(tmp_path)
    assert set(table) == set(commands)
    for label, codes in commands.items():
        for code in codes:
            mods = {n.split(".", 1)[1] for n in loaded_modules(code) if n.startswith("nullcover.")}
            assert mods - {"cli"} == table[label], label


class TestLazyExports:
    def test_exports_are_the_submodule_objects(self):
        for name, module in nullcover._SOURCE.items():
            sub = importlib.import_module(f"nullcover.{module}")
            assert getattr(nullcover, name) is getattr(sub, name), name

    def test_dir_lists_all(self):
        assert set(nullcover.__all__) <= set(dir(nullcover))
        assert "__version__" in dir(nullcover)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nullcover.no_such_name
        with pytest.raises(ImportError):
            from nullcover import no_such_name  # noqa: F401

    def test_star_import(self):
        scope: dict = {}
        exec("from nullcover import *", scope)
        assert set(nullcover.__all__) <= set(scope)
        assert scope["rrp_run"] is engine.rrp_run

    def test_engine_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            engine.no_such_name


# the engine attributes benchmark/tracing.py replaces with wrappers; the
# engine must look each one up in its own module at call time
TRACED = ("greedy_piece_cover", "_directed_hausdorff_intervals", "build_patch_template",
          "merge_intervals", "_covered_union")


def test_tracer_sees_every_engine_call(monkeypatch, tmp_path):
    calls = dict.fromkeys(TRACED, 0)
    for name in TRACED:
        def counted(*args, _name=name, _fn=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    rrp, fm = str(tmp_path / "rrp.json"), str(tmp_path / "fm.json")
    assert main(["rrp", "--depth", "2", "--out", rrp]) == 0
    assert main(["verify", rrp, "--out", str(tmp_path / "v.json")]) == 0
    assert main(["full-measure", "--depth", "1", "--out", fm]) == 0
    assert all(calls.values()), calls


def test_tracer_installs_on_every_name():
    # benchmark/tracing.py looks each name up when it installs, so a name
    # missing from the package breaks `--trace 1` runs; install it in a fresh
    # interpreter and check that every wrapper took its place
    out = run_fresh("""
import importlib, sys
sys.path.insert(0, "benchmark")
import tracing
from nullcover import elementary, engine
add = elementary.IntervalAccumulator.add
template = engine.build_patch_template
tracing.install()
assert tracing.SPANS
for module, attr, name in tracing.SPANS:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert hasattr(owner, "__wrapped__"), name
assert engine.build_patch_template is not template
assert elementary.IntervalAccumulator.add is not add
print("installed")
""")
    assert out.split() == ["installed"]
