#!/usr/bin/env python3
"""Benchmark for nullcover: three workloads, end to end and per module.

    python3 benchmark/run.py --workload {rrp,cascade,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src; no
install is needed.  Every operation's output is checked by the independent
checker in benchmark/checker after the timed loop, and the last line printed
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 times whole rounds of operations for S seconds and reports the
end-to-end metrics.  --trace 1 plays a fixed number of rounds, each twice in
a row, once plain and once with the cross-module calls wrapped (tracing.py),
the order alternating from round to round.  It reports the per-module self
times and counts of the traced plays, plus trace.overhead_s, the median over
rounds of the traced minus the plain build time.  Scratch files go to
.bench_work/ and are removed at exit, except the result line and the merged
span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from checker import checks  # noqa: E402

# rrp and cascade: set-ups timed before every round, outside the timed loop,
# so that they sample the whole run; the median is reported
SETUPS_PER_ROUND = 3
CERTIFY_SESSIONS = 3  # certify: worker processes per run, each with its own set-up
TRACE_ROUNDS = 3  # --trace 1: rounds, each played plain and traced
CHILD_TIMEOUT_S = 150


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Run:
    """State of one benchmark invocation: scratch directory, child
    environment, operation tally, outputs awaiting the checker, spans."""

    def __init__(self, workload: str, seed: int, traced: bool):
        self.workload, self.seed, self.traced = workload, seed, traced
        self.dir = WORK / f"{workload}-{seed}-{int(traced)}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.peak_kib = 0  # the largest peak resident memory any worker reported
        self.problems: list[str] = []
        self.pending: list = []  # (kind, instance or request, output) for the checker
        self.span_files: list[tuple[str, Path]] = []

    def worker_cmd(self, *args, trace_as: str | None = None) -> list[str]:
        """The worker.py command line; with trace_as it records spans under that name."""
        cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
        if trace_as:
            path = self.dir / f"spans-{len(self.span_files)}.json"
            self.span_files.append((trace_as, path))
            cmd += ["--trace", str(path)]
        return cmd

    def worker(self, *args, trace_as: str | None = None) -> tuple[int, float, str]:
        """Run worker.py in a fresh interpreter; (exit code, wall s, stderr)."""
        cmd = self.worker_cmd(*args, trace_as=trace_as)
        t = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.dir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t
        for line in proc.stderr.splitlines()[-1:]:
            if line.startswith("peak_rss_kib "):
                self.peak_kib = max(self.peak_kib, int(line.split()[1]))
        return proc.returncode, dt, proc.stderr

    def op(self, ok: bool, what: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what} {detail.strip()[-300:]}", file=sys.stderr)

    def merge_spans(self) -> tuple[dict, dict]:
        """Self time per span name and counts, summed over traced processes;
        writes the merged span file that outlives the run."""
        self_s = {f"{name}_s": 0.0 for _, _, name in tracing.SPANS}
        counts = {name: 0 for name in tracing.COUNTS}
        merged = []
        for op_name, path in self.span_files:
            with open(path) as fh:
                data = json.load(fh)
            merged.append({"op": op_name, **data})
            for name, v in tracing.self_times(data["spans"]).items():
                self_s[f"{name}_s"] += v
            for name, v in data["counts"].items():
                counts[name] += v
        with open(WORK / f"trace-{self.workload}-seed{self.seed}.json", "w") as fh:
            json.dump(merged, fh)
        return self_s, counts


def _write(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


# ---------------------------------------------------------------------------
# rrp and cascade: every operation in a fresh interpreter


class Construction(NamedTuple):
    build_cmd: str
    instance: Callable  # (seed, round) -> instance
    spec: Callable  # instance -> the build worker's JSON
    tampers: Callable  # (trace, seed, round) -> [(kind, tampered trace)]
    n_tampers: int
    # genuine verifies per round: an rrp verify is short (about 0.7 s) and
    # noisy, so each rrp trace is verified twice to give verify_s more samples
    n_verifies: int
    check: Callable  # (trace, instance) -> problems


CONSTRUCTIONS = {
    "rrp": Construction("rrp-build", wl.rrp_instance, wl.rrp_spec, wl.rrp_tampers, 3, 2,
                        checks.check_rrp),
    "cascade": Construction("cascade-build", wl.cascade_instance, wl.cascade_spec,
                            wl.cascade_tampers, 1, 1, checks.check_cascade),
}


def construction_round(run: Run, r: int, traced: bool, times: dict) -> None:
    """Build one seeded instance, verify it, verify each tampered copy."""
    c = CONSTRUCTIONS[run.workload]
    d = run.dir / f"round{r}-{'traced' if traced else 'plain'}"
    d.mkdir()
    inst = c.instance(run.seed, r)
    _write(d / "spec.json", c.spec(inst))
    trace = d / "trace.json"
    rc, dt, err = run.worker(c.build_cmd, d / "spec.json", trace, trace_as="build" if traced else None)
    if rc != 0:
        run.op(False, f"{run.workload} build round {r}", err)
        for _ in range(c.n_verifies + c.n_tampers):
            run.op(False, "skipped with its build")
        return
    run.op(True, "build")
    times["build"].append(dt)
    for _ in range(c.n_verifies):
        rc, dt, err = run.worker("verify", trace, d / "verify.json", trace_as="verify" if traced else None)
        ok = rc == 0 and json.loads((d / "verify.json").read_text())["passed"] is True
        run.op(ok, f"verify round {r}", err)
        if ok:
            times["verify"].append(dt)
    with open(trace) as fh:
        data = json.load(fh)
    run.pending.append((run.workload, inst, data))
    for kind, bad in c.tampers(data, run.seed, r):
        path = d / f"tamper-{kind}.json"
        _write(path, bad)
        rc, _, err = run.worker("verify", path, d / f"tamper-{kind}-out.json",
                                trace_as=f"tamper-{kind}" if traced else None)
        # rejected means exit 1 with a verdict; a traceback also exits 1
        run.op(rc == 1 and "Traceback" not in err, f"tamper {kind} round {r}: verify did not exit 1")
        run.pending.append(("tamper", inst, bad))


def traced_pairs(play: Callable) -> dict:
    """play(r, traced) -> build time or None, for TRACE_ROUNDS rounds, each
    played plain and traced in a row, the order alternating.  Rounds whose
    two builds both succeeded give the pairs of build times."""
    plain, traced = [], []
    for r in range(TRACE_ROUNDS):
        got = {t: play(r, t) for t in ((False, True) if r % 2 == 0 else (True, False))}
        if None not in got.values():
            plain.append(got[False])
            traced.append(got[True])
    return {"build_plain": plain, "build_traced": traced}


def set_up(run: Run, c: Construction) -> float:
    """A CLI user's set-up: the round-0 input generated and written, and a
    fresh interpreter's `import nullcover.cli`."""
    t = time.perf_counter()
    _write(run.dir / "setup.json", c.spec(c.instance(run.seed, 0)))
    rc, _, err = run.worker("import")
    if rc != 0:
        raise RuntimeError(f"cannot import nullcover.cli: {err}")
    return time.perf_counter() - t


def run_constructions(run: Run, seconds: float) -> dict:
    if run.traced:
        def play(r, traced):
            out = {"build": [], "verify": []}
            construction_round(run, r, traced, out)
            return out["build"][0] if out["build"] else None
        return traced_pairs(play)
    c = CONSTRUCTIONS[run.workload]
    times = {"build": [], "verify": []}
    setups = []
    elapsed = 0.0
    r = 0
    while r == 0 or elapsed < seconds:
        setups += [set_up(run, c) for _ in range(SETUPS_PER_ROUND)]
        t0 = time.perf_counter()
        construction_round(run, r, False, times)
        elapsed += time.perf_counter() - t0
        r += 1
    return end_to_end(run, setups, times["build"], times["verify"], elapsed)


# ---------------------------------------------------------------------------
# certify: one library process per session


class Server:
    """A `worker.py certify` process; the with-block waits for it to end."""

    def __init__(self, run: Run, trace_as: str | None):
        self.run = run
        self.proc = subprocess.Popen(run.worker_cmd("certify", trace_as=trace_as), env=run.env,
                                     cwd=run.dir, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Server":
        if not self._read().get("ready"):
            raise RuntimeError("certify worker did not start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            if self.proc.poll() is None and exc[0] is None:
                self.run.peak_kib = max(self.run.peak_kib, self.ask({"op": "exit"})["peak_rss_kib"])
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("certify worker stopped answering")
        return json.loads(line)

    def ask(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()


def serve_round(run: Run, server: Server, reqs: list[dict]) -> tuple[float, float]:
    """Serve one round; the library time of its constructions and of its
    coverage certificates."""
    built = covered = 0.0
    for req in reqs:
        reply = server.ask(req)
        run.op("error" not in reply, f"certify {req['op']}", reply.get("error", ""))
        if "error" not in reply:
            if req["op"] == "coverage":
                covered += reply["t"]
            else:
                built += reply["t"]
            run.pending.append(("certify", req, reply["out"]))
    return built, covered


def keep_prepared(run: Run, server: Server) -> None:
    """Hand the session's B* to the checker once per run."""
    if not any(kind == "prepared" for kind, _, _ in run.pending):
        run.pending.append(("prepared", None, server.ask({"op": "prepared"})["out"]))


def run_certify(run: Run, seconds: float) -> dict:
    checks.kth_powers(wl.CERTIFY_T, wl.CERTIFY_K)  # the checker's own B*, before any timing
    setups, builds, verifies = [], [], []
    if run.traced:
        def play(r, traced):
            with Server(run, "certify" if traced else None) as server:
                keep_prepared(run, server)
                return serve_round(run, server, wl.certify_round(run.seed, r))[0]
        return traced_pairs(play)
    serving = 0.0
    r = 0
    for _ in range(CERTIFY_SESSIONS):
        t = time.perf_counter()
        reqs = wl.certify_round(run.seed, r)
        with Server(run, None) as server:
            setups.append(time.perf_counter() - t)
            keep_prepared(run, server)
            t0 = time.perf_counter()
            while True:
                built, covered = serve_round(run, server, reqs)
                builds.append(built)
                verifies.append(covered)
                r += 1
                if time.perf_counter() - t0 >= seconds / CERTIFY_SESSIONS:
                    break
                reqs = wl.certify_round(run.seed, r)
            serving += time.perf_counter() - t0
    return end_to_end(run, setups, builds, verifies, serving)


# ---------------------------------------------------------------------------
# results


def end_to_end(run: Run, setups, builds, verifies, elapsed) -> dict:
    if not (builds and verifies):
        raise RuntimeError("no successful build or verify to time; see the failures above")
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "build_s": (statistics.median(builds), "s"),
        "build_p90_s": (percentile(builds, 0.9), "s"),
        "verify_s": (statistics.median(verifies), "s"),
        "ops_per_s": (run.attempted / elapsed, "ops/s"),
        "peak_rss_mib": (run.peak_kib / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(run: Run, timings: dict) -> dict:
    if not timings["build_plain"]:
        raise RuntimeError("no round built both plain and traced; see the failures above")
    self_s, counts = run.merge_spans()
    out = {k: {"value": v, "unit": "s"} for k, v in self_s.items()}
    out.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
    overhead = statistics.median(t - p for t, p in zip(timings["build_traced"], timings["build_plain"]))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def check_outputs(run: Run) -> None:
    """The independent checker over every output the run kept."""
    certify_checks = {
        "bias_set": checks.check_bias_set,
        "random_cover": checks.check_random_cover,
        "dyadic_cover": checks.check_dyadic_cover,
        "largeness": checks.check_largeness,
        "log_dimension": checks.check_log_dimension,
    }
    trace_check = CONSTRUCTIONS[run.workload].check if run.workload in CONSTRUCTIONS else None
    b_idx = bias = None
    for kind, given, out in run.pending:
        if kind == "prepared":
            found = checks.check_power_set(out["codes"], out["group_idx"], out["bias"],
                                           wl.CERTIFY_T, wl.CERTIFY_K)
            b_idx, bias = out["group_idx"], Fraction(out["bias"])
        elif kind == "tamper":
            found = [] if trace_check(out, given) else ["the checker accepts a tampered trace"]
        elif kind != "certify":
            found = trace_check(out, given)
        elif given["op"] == "coverage":
            found = checks.check_coverage(given["a"], out, b_idx, bias, wl.CERTIFY_ETA, wl.CERTIFY_T)
        else:
            found = certify_checks[given["op"]](given, out)
        run.problems += [f"{kind}: {p}" for p in found]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("rrp", "cascade", "certify"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nullcover" / "cli.py").is_file():
        print(f"error: no nullcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        if args.workload == "certify":
            timings = run_certify(run, args.seconds)
        else:
            timings = run_constructions(run, args.seconds)
        metrics = per_layer(run, timings) if args.trace else timings
        check_outputs(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for problem in run.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    result = json.dumps({"correct": not run.problems, "attempted": run.attempted,
                         "failed": run.failed, "metrics": metrics})
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(result + "\n")
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
