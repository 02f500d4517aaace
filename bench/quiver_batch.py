"""Per-level time and memory of the quiveralg engine, and criterion 1's grid.

    python3 bench/quiver_batch.py --label change [--src DIR] [--out FILE] \\
        [--repeats K] [--case N:L ...]

Imports minorbit from --src (default: ./src of this checkout), so the
same script measures another checkout by pointing --src at its src/
directory.  For each case N:L (default 4:8, 5:6 and 6:5) it records per
level:

- s: the median over --repeats runs (default 3) of the seconds of
  `ensure(l)` on a fresh QuiverDimEngine(N) built level by level;
- peak_mb: in one more run under tracemalloc, the peak of traced memory
  during `ensure(l)` above the level's start (the level's transient
  plus what it keeps);
- kept_mb: in the same run, what the level keeps (traced memory after
  `ensure(l)` minus before).

It also records criterion1_s, the median over --repeats runs of
`acceptance.criterion_1()` from fresh engines.  The run fails if any
cell is left uncertified or criterion 1 fails.  Results are stored under
--label in --out (default BENCH_13.json in the current directory);
other labels in that file are kept, so a parent and a change measured
on the same machine end up side by side.  Timings are wall clock on a
possibly shared machine; run the two checkouts back to back.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median

from benchjson import record

DEFAULT_CASES = ("4:8", "5:6", "6:5")


def level_seconds(quiveralg, n: int, max_len: int) -> list[float]:
    eng = quiveralg.QuiverDimEngine(n)
    out = []
    for l in range(1, max_len + 1):
        t0 = time.perf_counter()
        eng.ensure(l)
        out.append(time.perf_counter() - t0)
    if eng.uncertified:
        raise SystemExit(f"n={n}: uncertified cells {eng.uncertified}")
    return out


def level_memory(quiveralg, n: int, max_len: int) -> list[tuple[float, float]]:
    """(peak_mb, kept_mb) per level, under tracemalloc."""
    eng = quiveralg.QuiverDimEngine(n)
    out = []
    tracemalloc.start()
    try:
        for l in range(1, max_len + 1):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            eng.ensure(l)
            now, peak = tracemalloc.get_traced_memory()
            out.append(((peak - start) / 2 ** 20, (now - start) / 2 ** 20))
    finally:
        tracemalloc.stop()
    return out


def run_case(quiveralg, n: int, max_len: int, repeats: int) -> dict:
    runs = [level_seconds(quiveralg, n, max_len) for _ in range(repeats)]
    memory = level_memory(quiveralg, n, max_len)
    levels = {}
    for l, (times, (peak, kept)) in enumerate(zip(zip(*runs), memory), start=1):
        s = median(times)
        levels[f"l{l}"] = {"s": round(s, 3), "peak_mb": round(peak, 3),
                           "kept_mb": round(kept, 3)}
        print(f"n={n} l={l}: {s:.3f} s, peak {peak:.3f} MB, kept {kept:.3f} MB",
              flush=True)
    total = round(sum(v["s"] for v in levels.values()), 3)
    return {"n": n, "max_len": max_len, "levels": levels, "total_s": total}


def criterion_1_seconds(acceptance, quiveralg, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        quiveralg._engines.clear()
        t0 = time.perf_counter()
        res = acceptance.criterion_1()
        times.append(time.perf_counter() - t0)
        if not res.passed:
            raise SystemExit(f"criterion 1 failed: {res.detail}")
    s = median(times)
    print(f"criterion 1: {s:.3f} s", flush=True)
    return round(s, 3)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--out", default="BENCH_13.json")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--case", action="append", metavar="N:L",
                    help=f"engine size and top level (default {' '.join(DEFAULT_CASES)})")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import numpy as np
    from minorbit import acceptance, quiveralg

    result = {}
    for case in args.case or DEFAULT_CASES:
        n, max_len = map(int, case.split(":"))
        result[f"n{n}"] = run_case(quiveralg, n, max_len, args.repeats)
    result["criterion1_s"] = criterion_1_seconds(acceptance, quiveralg, args.repeats)
    record(args.out, "quiveralg", args.label, result, numpy=np.__version__)


if __name__ == "__main__":
    main()
