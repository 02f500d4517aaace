"""The benchmark's workloads: calls into minorbit, their correctness
checks, and the digest of each workload's results.

Each workload is a pair of functions: one makes the timed calls, the
other checks their output and returns ``(attempted, failed, results)``,
where ``results`` is a JSON-serialisable record whose digest is compared
with the committed reference.json.  Only the battery depends on the
seed: the quiver and symbolic inputs are fixed by the claims they check.

Why these workloads:

- quiver: the certified quiver comparison (criterion 1's engine) at sizes
  that fit a repeated run; n=5 adds the 16-bit-prime path.  Almost all
  of its time is linalg and quiveralg.
- symbolic: criteria 2-8 and 10 in the order `accept` runs them, then a
  mutation orbit.  Almost all of its time is cohengine certificates;
  linalg and repmoduli are never called.
- battery: criterion 9's grid of seeded rank-one representations, pure
  Fraction arithmetic in repmoduli that bypasses linalg, quiveralg and
  cohengine: the "no change" control for kernel work.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import traceback

# modules each workload imports during set-up
IMPORTS = {
    "quiver": ("minorbit.quiveralg",),
    "symbolic": ("minorbit.acceptance", "minorbit.mutation"),
    "battery": ("minorbit.repmoduli",),
}

# the kind of speed probe (see `speed`) that does each workload's kind of
# work: quiver's time is almost all numpy row operations in linalg
PROBE = {"quiver": "numpy", "symbolic": "fraction", "battery": "fraction"}

SIZES = {
    "full": {
        "quiver": ((4, 5), (5, 4)),
        "orbit_n": 6,
        "battery_samples": 100,
    },
    # the benchmark's own tests run these
    "tiny": {
        "quiver": ((3, 4),),
        "orbit_n": 4,
        "battery_samples": 20,
    },
}

SYMBOLIC_CRITERIA = (2, 3, 4, 5, 6, 7, 8, 10)
BATTERY_NS = range(2, 7)


def setup(workload: str) -> None:
    for name in IMPORTS[workload]:
        importlib.import_module(name)


def run_quiver(size: dict, seed: int):
    from minorbit import quiveralg

    return [quiveralg.compare_with_nccr(n, max_len) for n, max_len in size["quiver"]]


def check_quiver(reports):
    """Every (n, a, b, l) -> dim entry must equal its exact corank
    target, and the engines must hold no uncertified cell."""
    from minorbit import quiveralg

    table, failed = [], 0
    for rep in reports:
        table += [[rep.n, c.a, c.b, c.length, c.dim] for c in rep.cells]
        failed += len(rep.mismatches)
    failed += sum(len(e.uncertified) for e in quiveralg._engines.values())
    return len(table), failed, sorted(table)


def run_symbolic(size: dict, seed: int):
    from minorbit import acceptance, mutation

    crit = [getattr(acceptance, f"criterion_{c}")() for c in SYMBOLIC_CRITERIA]
    return crit, mutation.orbit_check(size["orbit_n"], 6)


def check_symbolic(out):
    crit, orbit = out
    orbit_ok = orbit.passed and orbit.closed_after == 2 * orbit.n - 2
    failed = sum(not r.passed for r in crit) + (not orbit_ok)
    results = {
        "criteria": [[r.number, r.passed] for r in crit],
        "orbit": [orbit.n, orbit.passed, orbit.closed_after],
    }
    return len(crit) + 1, failed, results


def run_battery(size: dict, seed: int):
    from minorbit import repmoduli

    samples = size["battery_samples"]
    return [repmoduli.run_battery(n, samples, seed=seed + n) for n in BATTERY_NS]


def check_battery(reports):
    # a report keeps at most five failures, so this can undercount
    failed = sum(len(r.failures) or (not r.passed) for r in reports)
    attempted = sum(r.samples for r in reports)
    return attempted, failed, [[r.n, r.passed] for r in reports]


WORKLOADS = {
    "quiver": (run_quiver, check_quiver),
    "symbolic": (run_symbolic, check_symbolic),
    "battery": (run_battery, check_battery),
}


def digest(results) -> str:
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run(workload: str, size_name: str, seed: int, clock):
    """Run one workload; return (wall_s, attempted, failed, digest).

    wall_s runs from the first call into minorbit to the last result;
    the checks and the digest come after it.  A crash counts as one
    failed check and leaves no digest.
    """
    call, check = WORKLOADS[workload]
    t0 = clock()
    try:
        out = call(SIZES[size_name], seed)
    except Exception:
        traceback.print_exc()
        return clock() - t0, 1, 1, None
    wall = clock() - t0
    attempted, failed, results = check(out)
    return wall, attempted, failed, digest(results)
