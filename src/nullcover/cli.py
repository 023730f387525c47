"""Command-line front end: construct, verify and sweep covering complements.

Subcommands
    bias-set      parameter selection + Gauss-sum complement certificate
    cover         randomized covering complement for a grid family
    dimension     logarithmic-dimension estimate for a dyadic cube set
    rrp           recursive-rectangles construction trace
    full-measure  full-measure cascade trace
    verify        re-validate a serialized trace from the stored sets

Exit status: 0 when every certificate passes, 1 on a certificate failure,
2 on usage errors.  Rational parameters are "p/q" strings and stay exact
until the floating kernels; randomized subcommands require --seed.  Output
files are written atomically and are byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction


def _positive_rational(text: str) -> Fraction:
    if "e" in text.lower():  # exponent notation: Fraction("1e-3000000") computes 10^3000000
        raise argparse.ArgumentTypeError(f"not a rational (write p/q, not an exponent): {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"not a positive rational: {text!r}")
    return value


def _rational_up_to(hi: Fraction, closed: bool):
    """argparse type: a rational in (0, hi], or in (0, hi) when not closed."""
    def parse(text: str) -> Fraction:
        value = _positive_rational(text)
        if value > hi or (value == hi and not closed):
            raise argparse.ArgumentTypeError(f"not in (0, {hi}{']' if closed else ')'}: {text!r}")
        return value
    return parse


def _int_at_least(lo: int):
    """argparse type: a decimal integer >= lo."""
    def parse(text: str) -> int:
        if not text.isdigit() or int(text) < lo:
            raise argparse.ArgumentTypeError(f"not an integer >= {lo}: {text!r}")
        return int(text)
    return parse


_positive_int = _int_at_least(1)
_nonneg_int = _int_at_least(0)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


class UsageError(Exception):
    pass


def _read_json(path: str):
    """The parsed JSON file; a file that does not parse is a usage error, an
    integer literal beyond Python's digit limit (4300 by default) included."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError is one
            raise UsageError(f"invalid JSON input: {exc}") from exc


def _load(path: str, cls):
    """cls.from_json_dict of a JSON file; a file that does not fit is a usage error."""
    data = _read_json(path)
    try:
        return cls.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a {cls.__name__} file: {exc!r}") from exc


def _write_atomic(path: str, payload: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".nullcover-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates 0600; give the usual mode
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(data: dict, out: str | None, fmt: str):
    if fmt == "json":
        payload = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        rows = data["rows"] if "rows" in data else [data]
        keys = sorted({k for r in rows for k in r if not isinstance(r[k], (dict, list))})
        lines = [",".join(keys)]
        for r in rows:
            lines.append(",".join(str(r.get(k, "")) for k in keys))
        payload = "\n".join(lines) + "\n"
    if out:
        _write_atomic(out, payload)
    else:
        sys.stdout.write(payload)


def _cmd_bias_set(args) -> int:
    from nullcover.bias_sets import ParameterError, build_bias_complement, select_parameters

    rows = []
    ok = True
    for m0 in args.m0:
        try:
            params = select_parameters(args.eta, m0, args.d, cap=args.cap)
            comp = build_bias_complement(params, include_zero=args.include_zero,
                                         reinterpret=args.reinterpret, cap=args.cap)
        except ParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        cert = comp.certificate()
        rows.append(cert)
        ok = ok and cert["size_ok"] and cert["bias_ok"]
    data = rows[0] if len(rows) == 1 else {"schema": "nullcover/1", "kind": "bias_set_sweep", "rows": rows}
    _emit(data, args.out, args.format)
    return 0 if ok else 1


def _cmd_cover(args) -> int:
    from nullcover.covering import (
        CoverError,
        SetFamily,
        dyadic_cover_complement,
        random_cover_complement,
    )

    family = _load(args.family, SetFamily)
    try:
        if family.kind == "grid":
            B, cert = random_cover_complement(family, args.eps, seed=args.seed)
            data = {
                "schema": "nullcover/1",
                "kind": "cover",
                "certificate": cert.to_json_dict(),
                "complement": B.to_json_dict(),
            }
        else:
            res = dyadic_cover_complement(family, g=args.g, eps=args.eps, seed=args.seed)
            data = {
                "schema": "nullcover/1",
                "kind": "cover_dyadic",
                "certificate": res.certificate,
                "cells": res.cells.tolist(),
            }
    except CoverError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    _emit(data, args.out, "json")
    return 0


def _cmd_dimension(args) -> int:
    from nullcover.fractal import DyadicCubeSet, FractalError, generate_cantor, log_dimension_estimate

    try:
        if args.set:
            cube = _load(args.set, DyadicCubeSet)
        else:
            if any(not 0 <= dig < args.base for dig in args.digits):
                raise UsageError(f"--digits must lie in [0, {args.base}): {args.digits}")
            cube = generate_cantor({"kind": "digits", "base": args.base, "digits": args.digits}, args.depth)
        est = log_dimension_estimate(cube, variant=args.variant)
    except FractalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    data = {"schema": "nullcover/1", "kind": "dimension", **est}
    _emit(data, args.out, args.format)
    return 0


def _cmd_rrp(args) -> int:
    from nullcover.engine import AffineMap, FunctionFamily, middle_thirds_points, rrp_run

    points = middle_thirds_points(args.cantor_depth, args.grid_exp)
    fam = FunctionFamily(
        maps=[AffineMap(Fraction(1, 2), Fraction(i, 1 << 20)) for i in range(args.maps)],
        bilipschitz_c=Fraction(2),
    )
    try:
        trace = rrp_run(points, fam, depth=args.depth)
    except ValueError as exc:  # EngineError, CoverError, ParameterError
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    _emit(trace.to_json_dict(), args.out, "json")
    return 0 if trace.passed else 1


def _cmd_full_measure(args) -> int:
    from nullcover.engine import EngineError, GridSet, full_measure_run

    try:
        grid = GridSet(spacing_exponent=args.spacing_exp, region=[(Fraction(0), Fraction(1, 2))])
    except EngineError as exc:  # a spacing exponent no verifier would read back
        raise UsageError(str(exc)) from exc
    try:
        trace = full_measure_run(grid, args.eps, depth=args.depth)
    except ValueError as exc:  # EngineError, CoverError, ParameterError
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    _emit(trace.to_json_dict(), args.out, "json")
    return 0 if trace.passed else 1


def _cmd_verify(args) -> int:
    from nullcover.engine import EngineError, verify_rrp_trace, verify_full_measure_trace

    data = _read_json(args.trace)
    kind = data.get("kind") if isinstance(data, dict) else None
    try:
        if kind == "rrp":
            result = verify_rrp_trace(data)
        elif kind == "full_measure":
            result = verify_full_measure_trace(data)
        else:
            print(f"error: unknown trace kind {kind!r}", file=sys.stderr)
            return 2
    except (EngineError, KeyError, ValueError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    _emit({"schema": "nullcover/1", "kind": f"verify_{kind}", **result}, args.out, "json")
    return 0 if result["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nullcover", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bias-set", help="Gauss-sum complement certificate")
    sp.add_argument("--eta", type=_rational_up_to(Fraction(1, 3), closed=True), required=True)
    sp.add_argument("--m0", type=_positive_int, nargs="+", required=True)
    sp.add_argument("--d", type=_positive_int, default=1)
    sp.add_argument("--cap", type=int, default=1 << 24)
    sp.add_argument("--include-zero", action="store_true")
    sp.add_argument("--reinterpret", action="store_true")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_bias_set)

    sp = sub.add_parser("cover", help="randomized covering complement")
    sp.add_argument("--family", required=True, help="SetFamily JSON file")
    sp.add_argument("--eps", type=_positive_rational, required=True)
    sp.add_argument("--seed", type=_nonneg_int, required=True)
    sp.add_argument("--g", type=_nonneg_int, default=6, help="dyadic scale exponent for cube families")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_cover)

    sp = sub.add_parser("dimension", help="logarithmic dimension estimate")
    sp.add_argument("--set", help="DyadicCubeSet JSON file")
    sp.add_argument("--base", type=_int_at_least(2), default=3)
    sp.add_argument("--digits", type=_int_list, default="0,2")
    sp.add_argument("--depth", type=_nonneg_int, default=6)
    sp.add_argument("--variant", choices=("H", "P"), default="H")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_dimension)

    sp = sub.add_parser("rrp", help="recursive-rectangles construction")
    sp.add_argument("--depth", type=_positive_int, default=3)
    sp.add_argument("--maps", type=_positive_int, default=8)
    sp.add_argument("--cantor-depth", type=_nonneg_int, default=7)
    sp.add_argument("--grid-exp", type=_nonneg_int, default=12)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_rrp)

    sp = sub.add_parser("full-measure", help="full-measure cascade")
    sp.add_argument("--eps", type=_rational_up_to(Fraction(1), closed=False), default=Fraction(1, 2))
    sp.add_argument("--depth", type=_positive_int, default=3)
    sp.add_argument("--spacing-exp", type=_nonneg_int, default=50)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_full_measure)

    sp = sub.add_parser("verify", help="re-validate a serialized trace")
    sp.add_argument("trace")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, UsageError) as exc:  # a missing, unreadable or directory input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
