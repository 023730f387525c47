"""One benchmark operation in a fresh interpreter, or a certificate server.

    worker.py import
    worker.py rrp-build SPEC OUT [--trace FILE]
    worker.py cascade-build SPEC OUT [--trace FILE]
    worker.py verify TRACE OUT [--trace FILE]
    worker.py certify [--trace FILE]

`import` only imports nullcover.cli.  The build commands call the engine on
the instance in SPEC and write the trace as the command line writes it
(indented, sorted keys).  `verify` runs `nullcover verify TRACE --out OUT`
through nullcover.cli.main and exits with its code.  `certify` builds B* at
q = 2^16, prints {"ready": true} and then answers one JSON request per stdin
line with {"t": seconds, "out": ...}; "t" covers the library calls only.
With --trace the calls between modules are recorded (see tracing.py) and the
spans are written to FILE when the worker ends.

Every worker reports its peak resident memory in KiB: the one-shot commands
as a last stderr line `peak_rss_kib N`, the certificate server as its reply
to {"op": "exit"}.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from fractions import Fraction


def peak_rss_kib() -> int:
    """This process's peak resident memory since it exec'd (VmHWM).  ru_maxrss
    is no use here: it also counts the pages of the parent it was forked
    from, so it would report the memory of run.py, which forks the workers."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def rrp_trace(spec: dict):
    """The recursive-rectangles trace of the instance in a build spec."""
    from nullcover import engine

    family = engine.FunctionFamily(
        maps=[engine.AffineMap(Fraction(a), Fraction(b)) for a, b in spec["maps"]],
        bilipschitz_c=Fraction(2),
    )
    return engine.rrp_run(
        [Fraction(p) for p in spec["points"]], family, depth=spec["depth"],
        rho_schedule=[Fraction(x) for x in spec["rho"]], piece_w_schedule=spec["piece_w"],
    )


def cascade_trace(spec: dict):
    """The full-measure cascade trace of the instance in a build spec."""
    from nullcover import engine

    grid = engine.GridSet(
        spacing_exponent=spec["spacing_exponent"],
        region=[(Fraction(a), Fraction(b)) for a, b in spec["region"]],
    )
    return engine.full_measure_run(grid, Fraction(spec["eps"]), depth=spec["depth"])


def build(make_trace, spec_path: str, out: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    _write_json(out, make_trace(spec).to_json_dict())
    return 0


def verify(trace_path: str, out: str) -> int:
    import nullcover.cli

    return nullcover.cli.main(["verify", trace_path, "--out", out])


class CertifyServer:
    """The library user's script: one prepared complement, many requests."""

    def __init__(self):
        import nullcover.cli  # noqa: F401  (the set-up a CLI user pays too)
        from nullcover import bias_sets, covering, fractal, groups

        import workloads as wl

        self.bias_sets, self.covering, self.fractal, self.groups = bias_sets, covering, fractal, groups
        self.eta = wl.CERTIFY_ETA
        params = bias_sets.select_parameters(self.eta, wl.CERTIFY_M0, wl.CERTIFY_D)
        self.comp = bias_sets.build_bias_complement(params)

    def prepared(self, req):
        comp = self.comp
        return 0.0, {
            "codes": comp.codes.tolist(),
            "group_idx": [int(i) for i in comp.subset.mask.nonzero()[0]],
            "bias": str(comp.bias),
        }

    def coverage(self, req):
        import numpy as np

        group = self.comp.subset.group
        mask = np.zeros(group.order, dtype=bool)
        mask[req["a"]] = True
        A = self.groups.GroupSubset(group, mask)
        t = time.perf_counter()
        cert = self.bias_sets.verify_coverage_bound(A, self.comp.subset, self.eta, bias=self.comp.bias)
        t = time.perf_counter() - t
        return t, {
            "size_a": cert.size_a, "size_b": cert.size_b, "sumset_size": cert.sumset_size,
            "group_order": cert.group_order, "ratio": str(cert.ratio),
            "lemma_bound": str(cert.lemma_bound), "headline_bound": str(cert.headline_bound),
            "lemma_ok": cert.lemma_ok, "headline_ok": cert.headline_ok,
        }

    def bias_set(self, req):
        t = time.perf_counter()
        params = self.bias_sets.select_parameters(Fraction(req["eta"]), req["m0"], req["d"])
        comp = self.bias_sets.build_bias_complement(params)
        cert = comp.certificate()
        t = time.perf_counter() - t
        return t, {"certificate": cert, "codes": comp.codes.tolist(), "bias": str(comp.bias)}

    def _family(self, req, kind):
        extra = {"N": req["N"]} if kind == "grid" else {"point_exponent": req["point_exponent"]}
        return self.covering.SetFamily(d=req["d"], kind=kind, members=req["members"], **extra)

    def random_cover(self, req):
        family = self._family(req, "grid")
        t = time.perf_counter()
        B, cert = self.covering.random_cover_complement(family, Fraction(req["eps"]), seed=req["seed"])
        t = time.perf_counter() - t
        return t, {"b_indices": [int(i) for i in B.mask.nonzero()[0]], "draws": cert.draws}

    def dyadic_cover(self, req):
        family = self._family(req, "cube")
        t = time.perf_counter()
        res = self.covering.dyadic_cover_complement(family, g=req["g"], eps=Fraction(req["eps"]), seed=req["seed"])
        t = time.perf_counter() - t
        return t, {"cells": res.cells.tolist(), "measure": res.certificate["measure"]}

    def largeness(self, req):
        fractal = self.fractal
        t = time.perf_counter()
        A = fractal.generate_cantor({"kind": "digits", "base": req["base"], "digits": req["digits"]}, req["depth"])
        pruned, _, cert = fractal.uniform_large_subset(
            A, fractal.GaugeFunction.power(req["alpha"]), req["eta"],
            [Fraction(1, 1 << g) for g in req["schedule_exponents"]],
        )
        t = time.perf_counter() - t
        data = cert.to_json_dict()
        return t, {"k": A.k, "pruned": pruned.cells.reshape(-1).tolist(),
                   "per_cube_counts": data["per_cube_counts"], "passed": data["passed"]}

    def log_dimension(self, req):
        fractal = self.fractal
        t = time.perf_counter()
        A = fractal.generate_cantor({"kind": "digits", "base": req["base"], "digits": req["digits"]}, req["depth"])
        est = fractal.log_dimension_estimate(A)
        t = time.perf_counter() - t
        return t, {"scales": est["scales"], "counts": [int(c) for c in est["counts"]]}

    def serve(self) -> int:
        print(json.dumps({"ready": True}), flush=True)
        for line in sys.stdin:
            req = json.loads(line)
            if req["op"] == "exit":
                print(json.dumps({"peak_rss_kib": peak_rss_kib()}), flush=True)
                break
            try:
                t, out = getattr(self, req["op"])(req)
                reply = {"t": t, "out": out}
            except Exception:  # one failed request must not end the session
                reply = {"error": traceback.format_exc()}
            print(json.dumps(reply), flush=True)
        return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if "--trace" in argv:
        i = argv.index("--trace")
        trace_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
        import tracing

        recorder = tracing.install()
    cmd, rest = argv[0], argv[1:]
    try:
        if cmd == "import":
            import nullcover.cli  # noqa: F401

            return 0
        if cmd == "rrp-build":
            return build(rrp_trace, *rest)
        if cmd == "cascade-build":
            return build(cascade_trace, *rest)
        if cmd == "verify":
            return verify(*rest)
        if cmd == "certify":
            return CertifyServer().serve()
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return 2
    finally:
        if trace_out:
            recorder.dump(trace_out)
        if cmd != "certify":
            print(f"peak_rss_kib {peak_rss_kib()}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
