"""Reach of the quiveralg engine: seconds per level, widest cell, widest block.

    python3 bench/quiver_blocks.py --label change [--src DIR] [--out FILE] \\
        [--case N:L ...]

Imports minorbit from --src (default: ./src of this checkout), so the
same script measures another checkout by pointing --src at its src/
directory.  For each case N:L (default 4:7 and 5:5) it builds a fresh
QuiverDimEngine(N) level by level up to L, one run, and records per
level:

- seconds for `ensure(l)`;
- cell_W: the widest cell's spanning-set width, the sum of its source
  cells' dims over the arrows into it (what perfbench's quiveralg.max_W
  reads);
- block_W: the widest matrix the engine eliminates.  The engine
  eliminates one torus-weight block at a time, and block w's width is
  the sum of its source blocks of weight w - wt(arrow).  The engine's
  levels map each cell to its blocks, {w: (dim, maps)}; a checkout whose
  levels hold other records needs the script of its own tree.

The run fails if any cell is left uncertified.  Results are stored under
--label in --out (default BENCH_9.json in the current directory); other
labels in that file are kept, so a parent and a change measured on the
same machine end up side by side.  Timings are wall clock on a possibly
shared machine; run the two checkouts back to back.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from benchjson import record

DEFAULT_CASES = ("4:7", "5:5")


def widths(quiveralg, eng, l: int) -> tuple[int, int]:
    """(widest cell W, widest block W) of level l."""
    cell_w = block_w = 0
    for a, b in eng.levels[l]:
        # weight w -> the width of block w: its source blocks' dims
        per_weight: dict = {}
        for arrow, src in eng._arrows_into(b):
            aw = quiveralg._weight(eng.n, (arrow,))
            for sw, (sdim, _) in eng.levels[l - 1].get((a, src), {}).items():
                w = tuple(x + y for x, y in zip(sw, aw))
                per_weight[w] = per_weight.get(w, 0) + sdim
        cell_w = max(cell_w, sum(per_weight.values()))
        block_w = max(block_w, max(per_weight.values(), default=0))
    return cell_w, block_w


def run_case(quiveralg, n: int, max_len: int) -> dict:
    eng = quiveralg.QuiverDimEngine(n)
    levels = {}
    for l in range(1, max_len + 1):
        t0 = time.perf_counter()
        eng.ensure(l)
        seconds = time.perf_counter() - t0
        cell_w, block_w = widths(quiveralg, eng, l)
        levels[f"l{l}"] = {"s": round(seconds, 3), "cell_W": cell_w, "block_W": block_w}
        print(f"n={n} l={l}: {seconds:.3f} s, cell W {cell_w}, block W {block_w}",
              flush=True)
    if eng.uncertified:
        raise SystemExit(f"n={n}: uncertified cells {eng.uncertified}")
    total = round(sum(v["s"] for v in levels.values()), 3)
    return {"n": n, "max_len": max_len, "levels": levels, "total_s": total}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--out", default="BENCH_9.json")
    ap.add_argument("--case", action="append", metavar="N:L",
                    help=f"engine size and top level (default {' '.join(DEFAULT_CASES)})")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import numpy as np
    from minorbit import quiveralg

    cases = {}
    for case in args.case or DEFAULT_CASES:
        n, max_len = map(int, case.split(":"))
        cases[f"n{n}"] = run_case(quiveralg, n, max_len)
    record(args.out, "quiveralg", args.label, cases, numpy=np.__version__)


if __name__ == "__main__":
    main()
