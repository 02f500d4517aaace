"""Throughput of the linalg layer: ModPRref rows/s and n=4 engine levels.

    python3 bench/linalg_rows.py --label change [--src DIR] [--out FILE]

Imports minorbit from --src (default: ./src of this checkout), so the
same script measures another checkout by pointing --src at its src/
directory.  Two measurements:

- rows/s of ModPRref.add on fixed seeded integer matrices of widths
  300, 700 and 1280 (the widest n=4, l=6 cell), one row per column and
  rank 0.6 * width, so about 0.6 of the offered rows raise the rank
  (the quiver engine's useful-row ratio is 0.59); rows are offered in
  blocks of 8, the mean block height of the engine's `add` calls on the
  quiver workload (14935 rows in 1817 calls, from a traced run);
  median of REPEATS runs.  These widths predate the engine's
  torus-weight blocks, which eliminate no matrix wider than 180 columns
  (n=6, l=6), so they now measure the kernel far outside its use;
- seconds per level of a fresh QuiverDimEngine(4) built up to l=6
  (criterion 1's n=4 grid), one run.

Results are stored under --label in --out (default BENCH_2.json in the
current directory); other labels in that file are kept, so a parent
and a change measured on the same machine end up side by side.
Timings are wall clock on a possibly shared machine; run the two
checkouts back to back.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median

from benchjson import record

WIDTHS = (300, 700, 1280)
RANK_SHARE = 0.6
BLOCK_ROWS = 8
REPEATS = 3
ENGINE_N, ENGINE_L = 4, 6


def _matrix(np, width: int, seed: int):
    rng = np.random.default_rng(seed)
    rank = int(RANK_SHARE * width)
    left = rng.integers(-3, 4, size=(width, rank))
    right = rng.integers(-3, 4, size=(rank, width))
    return (left @ right).astype(np.float64), rank


def rows_per_s(np, linalg) -> dict:
    out = {}
    for width in WIDTHS:
        mat, rank = _matrix(np, width, seed=width)
        times = []
        for _ in range(REPEATS):
            acc = linalg.ModPRref(width)
            t0 = time.perf_counter()
            for start in range(0, mat.shape[0], BLOCK_ROWS):
                acc.add(mat[start : start + BLOCK_ROWS])
            times.append(time.perf_counter() - t0)
            if acc.rank != rank:
                raise SystemExit(f"width {width}: rank {acc.rank}, expected {rank}")
        out[str(width)] = {
            "rows": mat.shape[0],
            "rank": rank,
            "seconds": round(median(times), 4),
            "rows_per_s": round(mat.shape[0] / median(times), 1),
        }
    return out


def engine_levels(quiveralg) -> dict:
    eng = quiveralg.QuiverDimEngine(ENGINE_N)
    levels = {}
    for l in range(1, ENGINE_L + 1):
        t0 = time.perf_counter()
        eng.ensure(l)
        levels[f"l{l}"] = round(time.perf_counter() - t0, 3)
    if eng.uncertified:
        raise SystemExit(f"uncertified cells: {eng.uncertified}")
    return {"n": ENGINE_N, "level_s": levels, "total_s": round(sum(levels.values()), 3)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--out", default="BENCH_2.json")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import numpy as np
    from minorbit import linalg, quiveralg

    result = {
        "rows_per_s": rows_per_s(np, linalg),
        "engine": engine_levels(quiveralg),
    }
    record(args.out, "linalg", args.label, result, numpy=np.__version__)
    print(json.dumps({args.label: result}, indent=2))


if __name__ == "__main__":
    main()
