"""minorbit benchmark: cold-process wall time to certified results.

    python3 perfbench/run.py --workload {quiver,symbolic,battery} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; minorbit is imported from ./src.  Every
repetition runs in a fresh interpreter, because the package caches
heavily (engines and lru_caches) and every `minorbit accept` or CLI call
pays that cold cost.  BLAS threads are capped at the number of usable
CPUs, and the cap is recorded.

--trace 0 runs several set-up-only processes, then repetitions until the
next one would end after --seconds (at least one), and reports the
end-to-end metrics:

- wall_ref_s: median of each repetition's wall_s scaled to a reference
  CPU speed by the same-core probe of `speed` (a shared host's cores
  drift by up to 1.5x over seconds to minutes, which raw medians over
  a run cannot average out);
- setup_s: median seconds from interpreter start to "imports and lazy
  set-up done", over every process of the run, each scaled to the
  reference speed like wall_ref_s (the probe runs during the imports);
- peak_rss_mb: median peak RSS of the repetitions.

Also printed: the medians of the raw wall_s (seconds from the first
call into minorbit to the last certified result, imports and probe time
excluded), of the raw set-up time setup_raw_s and of the probe speed
during the repetitions, and failed over attempted checks (fail_frac),
which the result's "attempted" and "failed" carry.  Each repetition's
result digest is compared with reference.json.  --trace 1 runs one
untraced and one traced repetition and reports the per-layer metrics of
`tracer`, with the tracing overhead as traced minus untraced wall_s.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is 0 when every check passed, 1 when
one failed or a digest differed, 2 when the benchmark could not start
(e.g. no ./src/minorbit); nothing is printed on stdout in that case.
Raw records, and the spans of a traced run, go to ./.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import per_layer_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"

SETUP_PROBES = 15
# a run (warm-up, probes and repetitions) stops starting children after this
RUN_LIMIT_S = 170.0
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class StartError(RuntimeError):
    """The benchmark cannot run here (no importable ./src/minorbit)."""


class Runner:
    """Starts the fresh child processes of one run, within its deadline."""

    def __init__(self, workload: str, size: str, seed: int):
        self.base = [workload, size, str(seed)]
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.blas_threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=self.blas_threads,
            OMP_NUM_THREADS=self.blas_threads,
            MKL_NUM_THREADS=self.blas_threads,
        )

    def child(self, *flags: str) -> dict | None:
        """One child process; None if it crashed or ran out of time."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        spawned = time.monotonic()
        cmd = [sys.executable, str(CHILD), *self.base, repr(spawned), *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"child timed out: {flags}", file=sys.stderr)
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"child failed with code {proc.returncode}: {flags}", file=sys.stderr)
            return None
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["elapsed_s"] = time.monotonic() - spawned
        return rec


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def bench(workload: str, seed: int, seconds: float, trace: bool,
          size: str = "full", reference: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the raw record."""
    want = (reference or load_reference())[size][workload]
    runner = Runner(workload, size, seed)
    warm = runner.child("--setup-only", "--env")
    if warm is None:
        raise StartError("set-up failed; is ./src/minorbit importable?")
    OUT.mkdir(exist_ok=True)

    probes: list[dict | None] = []
    if trace:
        spans = OUT / f"spans-{workload}-seed{seed}.json"
        reps = [runner.child(), runner.child("--trace", str(spans))]
    else:
        probes = [runner.child("--setup-only") for _ in range(SETUP_PROBES)]
        reps = []
        t0 = time.monotonic()
        while True:
            reps.append(runner.child())
            elapsed = time.monotonic() - t0
            done = [r["elapsed_s"] for r in reps if r]
            took = median(done) if done else elapsed
            if elapsed + took > seconds or time.monotonic() + took > runner.deadline:
                break
    children = reps + probes

    attempted = failed = 0
    for rec in children:
        if rec is None:  # a crash or a timeout
            attempted, failed = attempted + 1, failed + 1
        elif "digest" in rec:
            attempted += rec["attempted"] + 1
            failed += rec["failed"] + (rec["digest"] != want)
    ok = [r for r in reps if r]

    metrics = {}
    if trace and len(ok) == 2:
        units = dict(per_layer_names())
        layers = dict(ok[1]["layers"])
        layers["trace.overhead_s"] = ok[1]["wall_s"] - ok[0]["wall_s"]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    elif not trace:
        values = {
            "wall_ref_s": [r["wall_ref_s"] for r in ok],
            "setup_s": [r["setup_s"] for r in children if r],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        }
        metrics = {
            name: {"value": median(values[name]) if values[name] else 0.0, "unit": unit}
            for name, unit in END_TO_END
        }
    result = {"correct": failed == 0 and bool(ok), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "env": warm["env"], "children": children,
              "result": result}
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except StartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    reps = [r for r in record["children"] if r and "speed" in r]
    if reps:
        setups = [r["setup_raw_s"] for r in record["children"] if r]
        print(f"{args.workload} wall_s {median(r['wall_s'] for r in reps)} s")
        print(f"{args.workload} setup_raw_s {median(setups)} s")
        print(f"{args.workload} speed {median(r['speed'] for r in reps)} "
              f"(x reference, {len(reps)} repetitions)")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{args.workload} fail_frac {frac} ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
