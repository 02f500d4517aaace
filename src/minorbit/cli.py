"""Command line front end.

Subcommands: coh, tilting, hilbert, quiver, rep, kflop, mutate, accept.
Exit codes: 0 success, 1 check failure or a reader that closed stdout
early, 2 usage error.  Output formats: json (default), csv, pretty.  A
key=value config file can preseed the common flags; explicit flags win.
The only environment override is MINORBIT_OUTPUT_DIR, the directory for
--out files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction

# acceptance and quiveralg load numpy, so only the commands that run the
# quiver engine import them
from . import bwb, cohengine, kfunctor, mutation, repmoduli

USAGE_ERROR = 2
CHECK_FAILURE = 1


class BundleParseError(ValueError):
    def __init__(self, text: str, col: int, msg: str):
        super().__init__(f"col {col + 1}: {msg}\n  {text}\n  {' ' * col}^")
        self.col = col


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z]+)|(?P<int>\d+)|(?P<ch>[(),+\-]))")

_CONSTRUCTORS = {
    "O": (1, lambda n, args: bwb.line_bundle(n, args[0])),
    "omega": (2, lambda n, args: bwb.omega(n, args[0], args[1])),
    "wedgeT": (2, lambda n, args: bwb.wedge_tangent(n, args[0], args[1])),
    "hom": (3, lambda n, args: bwb.hom_bundle(args[0], args[1], args[2], n)),
}


def parse_bundle_spec(text: str, n: int) -> bwb.BundleExpr:
    """Parse `O(t)`, `omega(p,t)`, `wedgeT(p,t)`, `hom(a,b,c)` and +/-
    combinations thereof, reporting the column of any error."""
    pos = 0
    tokens = []
    stripped = text.rstrip()
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if not m or m.end() == m.start():
            raise BundleParseError(text, pos, "unexpected character")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else ("end", "", len(text))

    def take(kind, value=None):
        nonlocal idx
        tk, tv, tc = peek()
        if tk != kind or (value is not None and tv != value):
            want = value or kind
            raise BundleParseError(text, tc, f"expected {want}, found {tv or 'end of input'}")
        idx += 1
        return tv, tc

    def parse_term():
        name, col = take("name")
        if name not in _CONSTRUCTORS:
            raise BundleParseError(
                text, col, f"unknown bundle {name!r} (expected one of {sorted(_CONSTRUCTORS)})"
            )
        arity, build = _CONSTRUCTORS[name]
        take("ch", "(")
        args = []
        for i in range(arity):
            if i:
                take("ch", ",")
            tk, tv, tc = peek()
            if tk == "ch" and tv == "-":
                take("ch", "-")
                v, _ = take("int")
                args.append(-int(v))
            else:
                v, _ = take("int")
                args.append(int(v))
        take("ch", ")")
        try:
            return build(n, args)
        except ValueError as e:
            raise BundleParseError(text, col, str(e)) from None

    expr = parse_term()
    while idx < len(tokens):
        tk, tv, tc = peek()
        if tk != "ch" or tv not in "+-":
            raise BundleParseError(text, tc, "expected '+' or '-' between terms")
        take("ch")
        term = parse_term()
        expr = expr + term if tv == "+" else expr - term
    return expr


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    try:
        fh = open(path)
    except OSError as e:
        raise SystemExit(f"--config {path!r}: {e.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"config line {lineno}: expected key=value")
            k, v = (part.strip() for part in line.split("=", 1))
            if k not in _DEFAULTS:
                raise SystemExit(f"config line {lineno}: unknown key {k!r} "
                                 f"(expected one of {', '.join(_DEFAULTS)})")
            if k == "output" and v not in _OUTPUTS:
                raise SystemExit(f"config line {lineno}: output must be one of "
                                 f"{', '.join(_OUTPUTS)}, not {v!r}")
            try:
                out[k] = v if k == "output" else int(v)
            except ValueError:
                raise SystemExit(f"config line {lineno}: {k} must be an integer, "
                                 f"not {v!r}") from None
    return out


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    if args.output == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if csv_header:
            w.writerow(csv_header)
        w.writerows(csv_rows)
        text = buf.getvalue()
    elif args.output == "pretty":
        text = _pretty(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out_path:
        try:
            with open(args.out_path, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as e:
            raise SystemExit(f"--out {args.out!r}: {e.strerror}") from None
        print(args.out_path)
    else:
        print(text.rstrip("\n"))


def _pretty(payload, indent=0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        return "\n".join(
            f"{pad}{k}:" + ("\n" + _pretty(v, indent + 1) if isinstance(v, (dict, list)) and v
                            else f" {v}")
            for k, v in payload.items()
        )
    if isinstance(payload, list):
        # each item starts with "- "; a nested item's first line takes the
        # marker in place of its indent, as YAML writes it
        return "\n".join(
            f"{pad}- " + _pretty(v, indent + 1)[len(pad) + 2 :]
            if isinstance(v, (dict, list)) and v else f"{pad}- {v}"
            for v in payload
        )
    return f"{pad}{payload}"


def _parse_rationals(text: str) -> tuple:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise SystemExit(f"cannot parse rational vector {text!r}: {e}")


_MODULE_RE = re.compile(r"^(M|L)\((-?\d+)\)$")


def cmd_coh(args) -> int:
    expr = parse_bundle_spec(args.bundle, args.n)
    table = bwb.cohomology(expr)
    payload = {
        "n": args.n,
        "bundle": args.bundle,
        "cohomology": {str(d): v for d, v in table.items()},
        "euler_characteristic": bwb.euler_characteristic(expr),
        "claim": f"cohomology table of {args.bundle} on the projective space P^{args.n - 1}",
    }
    _emit(args, payload,
          csv_rows=sorted(table.items()), csv_header=["degree", "dim"])
    return 0


def _report(args, rep, claim=None) -> int:
    """Emit a check's report, with the claim it checks if given; exit 0
    if the check passed."""
    payload = rep.as_dict()
    if claim:
        payload["claim"] = claim
    _emit(args, payload)
    return 0 if rep.passed else CHECK_FAILURE


def cmd_tilting(args) -> int:
    name = "TkPlus" if args.family == "TPlus" else args.family
    fam = cohengine.TiltingFamily(name, args.n, args.k)
    return _report(args, cohengine.tilting_check(fam),
                   "all positive-degree self-extensions of the family vanish on the "
                   "cotangent-bundle total space")


def cmd_hilbert(args) -> int:
    m = _MODULE_RE.match(args.module.strip())
    if not m:
        raise SystemExit(f"cannot parse module {args.module!r}; expected M(a) or L(k)")
    if args.cap < 0:
        raise ValueError(f"cap={args.cap} out of range: must be at least 0")
    kind, v = m.group(1), int(m.group(2))
    label = mutation.M(v) if kind == "M" else mutation.L(v)
    dims = mutation.hilbert_of_label(label, args.n)
    payload = {
        "n": args.n,
        "module": args.module,
        "dims": {str(k): dims[k] for k in range(args.cap + 1)},
        "claim": "graded dimensions of the module of sections, degree 0 first",
    }
    _emit(args, payload,
          csv_rows=[(k, dims[k]) for k in range(args.cap + 1)], csv_header=["k", "dim"])
    return 0


def cmd_quiver(args) -> int:
    from . import quiveralg

    rep = quiveralg.compare_with_nccr(args.n, args.max_len)
    if args.compare:
        return _report(args, rep,
                       "path-algebra graded dimensions equal the graded Hom dimensions "
                       "of the line-bundle window on the cone")
    if rep.mismatches:
        print(f"error: {quiveralg.CertificationError(rep.mismatches[0])}", file=sys.stderr)
        return CHECK_FAILURE
    rows = []
    for c in rep.cells:
        paths = quiveralg.path_count(args.n, c.a, c.b, c.length)
        if paths:
            rows.append((c.a, c.b, c.length, paths, paths - c.dim, c.dim))
    payload = {
        "n": args.n,
        "max_len": args.max_len,
        "cells": [
            {"a": a, "b": b, "l": l, "paths": p, "relations_rank": r, "dim": d}
            for a, b, l, p, r, d in rows
        ],
        "claim": "graded dimensions of the quotient path algebra",
    }
    _emit(args, payload, csv_rows=rows,
          csv_header=["a", "b", "l", "paths", "relations_rank", "dim"])
    return 0


def cmd_rep(args) -> int:
    alpha = _parse_rationals(args.alpha)
    beta = _parse_rationals(args.beta)
    n = len(alpha)
    r = repmoduli.rep_from_triple(repmoduli.RepTriple(n, alpha, beta))
    chk = repmoduli.check_relations(r)
    pt = repmoduli.to_point(r)
    payload = {
        "n": n,
        "relations": chk.passed,
        "simple": repmoduli.is_simple(r),
        "generated_by_0": repmoduli.generated_by(r, 0),
        "generated_by_last": repmoduli.generated_by(r, n - 1),
        "line": [str(x) for x in pt.line],
        "X": [[str(x) for x in row] for row in pt.X],
        "claim": "the induced point: a square-zero matrix of rank <= 1 "
                 "supported on the given line",
    }
    _emit(args, payload)
    return 0


def cmd_kflop(args) -> int:
    if args.ptwist_ledger:
        return _report(args, kfunctor.ptwist_ledger_check(args.n))
    payload = {
        "n": args.n,
        "matrix": kfunctor.kn_matrix(args.n),
        "claim": "window-basis matrix of the flop equivalence in the K-lattice",
    }
    _emit(args, payload)
    return 0


def cmd_mutate(args) -> int:
    return _report(args, mutation.orbit_check(args.n),
                   "the mutation orbit closes after exactly 2n-2 steps with exact "
                   "splices throughout")


def cmd_accept(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    worst = 0
    for res in results:
        line = f"{'PASS' if res.passed else 'FAIL'} criterion {res.number}: {res.title}"
        print(line)
        if not res.passed:
            print(f"     {res.detail}")
            worst = CHECK_FAILURE
    return worst


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="minorbit",
        description="Exact computations for the square-zero rank-one matrix cone",
    )
    ap.add_argument("--config", help="key=value file preseeding common flags")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, need_n=True):
        if need_n:
            p.add_argument("--n", type=int, default=None, help="dimension parameter (>= 2)")
        p.add_argument("--output", choices=_OUTPUTS, default=None)
        p.add_argument("--out", help="write output to this file (under MINORBIT_OUTPUT_DIR)")

    p = sub.add_parser("coh", help="cohomology table of a bundle")
    common(p)
    p.add_argument("--bundle", required=True,
                   help='bundle spec: O(t), omega(p,t), wedgeT(p,t), hom(a,b,c), +/- combinations')
    p.set_defaults(func=cmd_coh)

    p = sub.add_parser("tilting", help="self-extension vanishing for a bundle family")
    common(p)
    p.add_argument("--family", required=True,
                   choices=["Tk", "TPlus", "TPrime", "Sk", "SkDual"])
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(func=cmd_tilting)

    p = sub.add_parser("hilbert", help="Hilbert function of a module")
    common(p)
    p.add_argument("--cap", type=int, default=None,
                   help="print degrees 0..cap (default 6); the series is exact in every degree")
    p.add_argument("--module", required=True, help="M(a) or L(k)")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("quiver", help="quiver algebra graded dimensions")
    common(p)
    p.add_argument("--max-len", dest="max_len", type=int, default=None,
                   help="path length cap (default 6)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--dims", action="store_true")
    g.add_argument("--compare", action="store_true")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("rep", help="analyze a rank-one quiver representation")
    common(p, need_n=False)
    p.add_argument("--alpha", required=True, help="comma-separated rationals")
    p.add_argument("--beta", required=True, help="comma-separated rationals")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("kflop", help="K-lattice flop matrices and ledgers")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--matrix", action="store_true")
    g.add_argument("--ptwist-ledger", dest="ptwist_ledger", action="store_true")
    p.set_defaults(func=cmd_kflop)

    p = sub.add_parser("mutate", help="mutation orbit trace")
    common(p)
    p.add_argument("--orbit", action="store_true",
                   help="no effect: the orbit trace is mutate's only report")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.set_defaults(func=cmd_accept)

    return ap


_DEFAULTS = {"n": 3, "cap": 6, "max_len": 6, "output": "json"}
_OUTPUTS = ("json", "csv", "pretty")


def _apply_config(args) -> None:
    """Fill each shared flag the subcommand defines and the command line
    left unset: from the config file, else from _DEFAULTS.  Resolve --out
    under MINORBIT_OUTPUT_DIR to args.out_path, the file _emit writes."""
    cfg = _load_config(args.config)
    for key, default in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, cfg.get(key, default))
    if getattr(args, "n", 2) < 2:
        raise SystemExit("--n must be at least 2")
    if getattr(args, "output", None) == "csv" and not _has_table(args):
        raise SystemExit(f"{args.command}: this report has no table for "
                         "--output csv; use json or pretty")
    out = getattr(args, "out", None)
    args.out_path = None
    if out:
        if os.path.isabs(out) or os.path.normpath(out).split(os.sep)[0] == os.pardir:
            raise SystemExit(f"--out {out!r} must be a relative path that stays "
                             "under MINORBIT_OUTPUT_DIR")
        args.out_path = os.path.join(os.environ.get("MINORBIT_OUTPUT_DIR", "."),
                                     os.path.normpath(out))
        folder = os.path.dirname(args.out_path)
        if not os.path.isdir(folder):
            raise SystemExit(f"--out {out!r}: no directory {folder!r}")


def _has_table(args) -> bool:
    """Whether the report of this command has a table for --output csv."""
    return args.command in ("coh", "hilbert") or (args.command == "quiver" and args.dims)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        _apply_config(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: send the rest of stdout, and the
        # interpreter's flush at exit, to devnull, which cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CHECK_FAILURE
    except (ValueError, SystemExit) as e:
        # constructors report the valid parameter range in the message,
        # a BundleParseError the column
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
