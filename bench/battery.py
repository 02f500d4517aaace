"""Criterion 9's battery in-process: seconds per n on two grids.

    python3 bench/battery.py --label change [--src DIR] [--out FILE]

Imports minorbit from --src (default: ./src of this checkout), so the
same script measures another checkout by pointing --src at its src/
directory.  It times `repmoduli.run_battery(n, samples, seed)` for
n = 2..6 on two grids:

- perfbench: 100 samples per n, seed n (the benchmark's battery
  workload at seed 0);
- criterion9: 1000 samples per n, seed 1000 + n (the grid `minorbit
  accept` runs).

Each grid runs REPEATS times after one untimed warm-up call per n, so
import and cache set-up stay outside the timings; the median per n and
the median grid total are recorded.  The run fails if
any battery fails.  Results are stored under --label in --out (default
BENCH_11.json in the current directory); other labels in that file are
kept, so a parent and a change measured on the same machine end up side
by side.  Timings are wall clock on a possibly shared machine; run the
two checkouts back to back.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from statistics import median

from benchjson import record

NS = range(2, 7)
GRIDS = {"perfbench": (100, 0), "criterion9": (1000, 1000)}
REPEATS = 3


def time_grid(repmoduli, samples: int, seed0: int) -> dict:
    per_n = {n: [] for n in NS}
    totals = []
    for _ in range(REPEATS):
        total = 0.0
        for n in NS:
            t0 = time.perf_counter()
            rep = repmoduli.run_battery(n, samples, seed0 + n)
            seconds = time.perf_counter() - t0
            if not rep.passed:
                raise SystemExit(f"battery n={n} failed: {rep.failures}")
            per_n[n].append(seconds)
            total += seconds
        totals.append(total)
    return {
        "samples": samples,
        "seeds": f"{seed0}+n",
        "s_per_n": {f"n{n}": round(median(v), 4) for n, v in per_n.items()},
        "total_s": round(median(totals), 4),
        "total_runs_s": [round(t, 4) for t in totals],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--out", default="BENCH_11.json")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from minorbit import repmoduli

    for n in NS:
        repmoduli.run_battery(n, 1, n)
    grids = {}
    for name, (samples, seed0) in GRIDS.items():
        grids[name] = time_grid(repmoduli, samples, seed0)
        print(f"{name}: {grids[name]['total_s']:.3f} s "
              f"(runs {grids[name]['total_runs_s']})", flush=True)
    record(args.out, "repmoduli", args.label, grids)


if __name__ == "__main__":
    main()
