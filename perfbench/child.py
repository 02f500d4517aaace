"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SIZE SEED SPAWNED [--setup-only]
        [--trace SPANS_FILE] [--env]

SPAWNED is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_raw_s covers
interpreter start-up, the imports and the tracer installation; setup_s
is setup_raw_s at the reference speed of `speed`, sampled during the
imports.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedProbe

SRC = Path(__file__).resolve().parent.parent / "src"


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    workload, size, seed, spawned = argv[:4]
    flags = argv[4:]
    with SpeedProbe() as setup_speed:
        workloads.setup(workload)
        import minorbit

        if not Path(minorbit.__file__).resolve().is_relative_to(SRC):
            print(f"minorbit imported from {minorbit.__file__}, not {SRC}", file=sys.stderr)
            return 2
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        setup = time.monotonic() - float(spawned) - sum(setup_speed.samples)
    out = {"setup_s": setup * setup_speed.speed(), "setup_raw_s": setup}
    if "--env" in flags:
        out["env"] = environment()
    if "--setup-only" not in flags:
        # the probe's handler would run inside spans, so a traced run has none
        speed = SpeedProbe(workloads.PROBE[workload]) if tracer is None else None
        with speed or contextlib.nullcontext():
            wall, attempted, failed, dig = workloads.run(workload, size, int(seed), time.perf_counter)
        if speed is not None:
            wall -= speed.handler_s
            out.update(wall_ref_s=wall * speed.speed(), speed=speed.speed(),
                       speed_samples=len(speed.samples))
        out.update(wall_s=wall, attempted=attempted, failed=failed, digest=dig)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            from tracer import layer_metrics

            out["layers"] = layer_metrics(tracer, wall)
            spans_file = flags[flags.index("--trace") + 1]
            with open(spans_file, "w") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
