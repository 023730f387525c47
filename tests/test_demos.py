"""Every demo script runs to completion against the source tree and prints
exactly the bytes it printed before: the demos are deterministic, so a change
meant to keep outputs (a faster kernel, a refactor) must keep their stdout."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
STDOUT_SHA256 = {
    "01_bias_complements.py": "07e58ac9aadad930cd0ac70764e11a9384509946147df08722b21f66e5e0c215",
    "02_random_covering.py": "08acd984507e3c690f155c48b4d4815b85297207e2f8f110981659314bda7736",
    "03_fractal_measures.py": "ee8fcdaaee4de50b9073bed1cab49ccdc182669759ad2d8f66dd29473fbeb258",
    "04_constructions.py": "c01f1d5b6c0d2ec65b8fce653cea9ade2298e2cd248eef7ce0f674d341be7324",
}


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:].decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name], proc.stdout.decode()
