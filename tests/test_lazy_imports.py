"""Module loading: lazy package exports, the modules each command imports,
and the engine attributes an outside tracer wraps."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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

    def test_rrp_build(self, tmp_path):
        mods = loaded_modules(run_cli("rrp", "--depth", "1", "--out", str(tmp_path / "rrp.json")))
        assert "nullcover.covering" in mods
        assert not {"nullcover.bias_sets", "nullcover.gf", "nullcover.fractal"} & mods

    def test_cascade_build_and_verify(self, tmp_path):
        trace = str(tmp_path / "fm.json")
        code = (run_cli("full-measure", "--depth", "2", "--out", trace) + "\n"
                + f"assert main(['verify', {trace!r}, '--out', {str(tmp_path / 'v.json')!r}]) == 0")
        mods = loaded_modules(code)
        assert {"nullcover.bias_sets", "nullcover.gf", "nullcover.groups"} <= mods
        assert not {"nullcover.covering", "nullcover.fractal"} & mods


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
