"""Time and memory of the quiver engine, criterion 1, the symbolic criteria,
criterion 9's battery and the package's imports.

    python3 bench/measure.py --out FILE [--src LABEL=DIR ...] \\
        [--repeats K] [--case CASE ...]

Each --src tree (default: change=./src of this checkout) is imported
under its own package name, minorbit_LABEL, so two trees run side by
side in one process.  Every case runs once untimed per tree (the
warm-up), then --repeats times (default 10) per tree; with two trees
the runs alternate and their order flips on every repeat.  A case is

- N:L, N >= 2 and L >= 1: `ensure(l)` for l = 1..L on a fresh
  QuiverDimEngine(N), timed per level.  One more run per tree, under
  tracemalloc, records per level cell_W (the widest cell's
  spanning-set width, as perfbench's quiveralg.max_W reads it),
  peak_mb (peak traced memory during `ensure(l)` above the level's
  start), kept_mb (what it keeps), and rref_calls, stacked_rows and
  block_W (the number of calls of the tree's `quiveralg.rref_stack`,
  the sum of their stack heights, the row steps they may take, and the
  widest stack, which is the widest canonical weight block the engine
  eliminates, as a stack is zero-padded to its widest block), read by
  wrapping that function;
- quiver: `quiveralg.compare_with_nccr(n, l)` for (n, l) = (4, 5) and
  (5, 4), perfbench's quiver workload, each timed with its engine's
  construction (the relation checks of the constructor) included;
- criterion1: `acceptance.criterion_1()`;
- symbolic: criteria 2-8 and 10, then `mutation.orbit_check(6)`,
  each timed, as perfbench's symbolic workload runs them.  One more cold
  run per tree records, under the key bwb, the calls of the tree's
  `bwb.cohomology`, `BundleExpr.tensor` and `bwb.lr_product` (read by
  wrapping them; `bwb` calls `lr_product` once per miss of its LR
  cache) and the hits and misses of its per-weight cache
  `bwb._bwb_single`;
- hom10: `bwb.hom_bundle(a, b, 0, n)` for every 1 <= a, b <= n, timed
  per n = 2..10: the Littlewood-Richardson products of column shapes that
  the Hom bundles of criteria 2-4 read, past the criteria's grids;
- pieri5: `combinat.lr_product(w, f, max_rows=5)` for every GL_5 weight
  w with first part <= 4 (126) and every factor f of three families,
  timed per family: row (m), rect4 (m^4) and column (1^k), m <= 8,
  k <= 5.  These are the Pieri products of Sym^m and Lambda^k of V and
  V* that SL(V)-characters of the mutation splices read.  After the
  timing each product is checked by GL_5 dimension additivity;
- battery: `repmoduli.run_battery(n, samples, seed)` for n = 2..6 on
  two grids, perfbench (100 samples, seed n: the benchmark's battery
  workload at seed 0) and criterion9 (1000 samples, seed 1000 + n: the
  grid `minorbit accept` runs).  One more run per tree, each grid
  starting cold, records under the key repmoduli the hits and misses
  per grid of the tree's memo `repmoduli._quotient` (none for a tree
  whose `_quotient` keeps no memo);
- startup: the seconds a fresh interpreter takes to import the
  benchmark's symbolic set (`minorbit.acceptance, minorbit.mutation`)
  and its battery set (`minorbit.repmoduli`), from a copy of the tree:
  cold, compiling the copy from source and writing no bytecode (as a
  perfbench child, whose checkout has no __pycache__, runs under
  PYTHONDONTWRITEBYTECODE=1), then warm, reading the bytecode an
  untimed import wrote.  The standard library and numpy load from their
  installed bytecode in both.

Every lru_cache of the tree's modules and its engines are cleared
before each run of every case, so every run starts cold, as a perfbench
child does.

The default cases are 4:8, 5:6, 6:5, the reach points 6:7 and 7:6,
quiver, criterion1, symbolic, hom10, pieri5, battery and startup.  Each
tree's entry holds every timing's median over the repeats and the median
total; with two trees, each case also records the per-pair ratio of
totals (second tree / first tree), its median and quartiles, the number
of pairs the second tree won, and each timing's median per-pair ratio.
The run stops on an uncertified cell, a failed comparison or criterion,
a product of the wrong dimension, or a failed battery.  Results go under
runs.LABEL and pairs.SECOND/FIRST in --out; other entries in that file
are kept.  Timings are wall clock on a
possibly shared machine, which is why the two trees alternate.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import combinations_with_replacement
from pathlib import Path
from statistics import median, quantiles

import numpy as np

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_CASES = ("4:8", "5:6", "6:5", "6:7", "7:6", "quiver", "criterion1", "symbolic",
                 "hom10", "pieri5", "battery", "startup")
QUIVER = ((4, 5), (5, 4))
SYMBOLIC = (2, 3, 4, 5, 6, 7, 8, 10)
ORBIT_N = 6
HOM_NS = range(2, 11)
# every weight with at most 5 rows and first part at most 4
PIERI_WEIGHTS = [tuple(p for p in w if p)
                 for w in combinations_with_replacement(range(4, -1, -1), 5)]
PIERI = {"row": [(m,) for m in range(1, 9)], "rect4": [(m,) * 4 for m in range(1, 9)],
         "column": [(1,) * k for k in range(1, 6)]}
GRIDS = {"perfbench": (100, 0), "criterion9": (1000, 1000)}
BATTERY_NS = range(2, 7)
# the import sets of perfbench's symbolic and battery set-up
STARTUP = {"symbolic": ("minorbit.acceptance", "minorbit.mutation"),
           "battery": ("minorbit.repmoduli",)}
IMPORT_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import {modules}
seconds = time.perf_counter() - t0
print(json.dumps([seconds, sys.modules["minorbit"].__file__]))
"""


def load(label: str, src) -> object:
    """Import the minorbit package under `src` as minorbit_`label`."""
    name = f"minorbit_{label}"
    pkg = Path(src).resolve() / "minorbit"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    tree = importlib.util.module_from_spec(spec)
    sys.modules[name] = tree
    spec.loader.exec_module(tree)
    # acceptance imports quiveralg and repmoduli, so all three are attributes
    importlib.import_module(f"{name}.acceptance")
    return tree


def cell_width(eng, l: int) -> int:
    """The widest cell W of level l.  A cell's W sums its source cells'
    dims, as perfbench's quiveralg.max_W reads it."""
    return max((sum(eng._prev_dim(a, src, l - 1) for _, src in eng._arrows_into(b))
                for a, b in eng.levels[l]), default=0)


def certified(eng) -> None:
    if eng.uncertified:
        raise SystemExit(f"n={eng.n}: uncertified cells {eng.uncertified}")


def level_seconds(tree, n: int, max_len: int) -> dict[str, float]:
    cold(tree)
    eng = tree.quiveralg.QuiverDimEngine(n)
    out = {}
    for l in range(1, max_len + 1):
        t0 = time.perf_counter()
        eng.ensure(l)
        out[f"l{l}"] = time.perf_counter() - t0
    certified(eng)
    return out


def level_memory(tree, n: int, max_len: int) -> dict[str, dict]:
    """cell_W, block_W, peak_mb, kept_mb, rref_calls and stacked_rows per
    level, under tracemalloc."""
    cold(tree)
    quiveralg = tree.quiveralg
    eng = quiveralg.QuiverDimEngine(n)
    rref_stack = quiveralg.rref_stack
    # calls, stacked rows and the widest stack of the level being built
    stacks = [0, 0, 0]

    def counted(stack, stops):
        stacks[0] += 1
        stacks[1] += stack.shape[1]
        stacks[2] = max(stacks[2], stack.shape[2])
        return rref_stack(stack, stops)

    memory = []
    quiveralg.rref_stack = counted
    tracemalloc.start()
    try:
        for l in range(1, max_len + 1):
            stacks[:] = 0, 0, 0
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            eng.ensure(l)
            now, peak = tracemalloc.get_traced_memory()
            memory.append(((peak - start) / 2 ** 20, (now - start) / 2 ** 20, *stacks))
    finally:
        tracemalloc.stop()
        quiveralg.rref_stack = rref_stack
    certified(eng)
    out = {}
    for l, (peak, kept, calls, rows, block_w) in enumerate(memory, start=1):
        out[f"l{l}"] = {"cell_W": cell_width(eng, l), "block_W": block_w,
                        "peak_mb": round(peak, 3), "kept_mb": round(kept, 3),
                        "rref_calls": calls, "stacked_rows": rows}
    return out


def quiver_seconds(tree) -> dict[str, float]:
    cold(tree)
    out = {}
    for n, max_len in QUIVER:
        t0 = time.perf_counter()
        rep = tree.quiveralg.compare_with_nccr(n, max_len)
        out[f"{n}:{max_len}"] = time.perf_counter() - t0
        if not rep.passed:
            raise SystemExit(f"compare_with_nccr({n}, {max_len}) failed: {rep.mismatches}")
    return out


def criterion1_seconds(tree) -> dict[str, float]:
    cold(tree)
    t0 = time.perf_counter()
    res = tree.acceptance.criterion_1()
    seconds = time.perf_counter() - t0
    if not res.passed:
        raise SystemExit(f"criterion 1 failed: {res.detail}")
    return {"criterion1": seconds}


def cold(tree) -> None:
    """Clear every lru_cache of the tree's modules and its engines."""
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{tree.__name__}."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    tree.quiveralg._engines.clear()


def symbolic_seconds(tree) -> dict[str, float]:
    cold(tree)
    out = {}
    for c in SYMBOLIC:
        t0 = time.perf_counter()
        res = getattr(tree.acceptance, f"criterion_{c}")()
        out[f"c{c}"] = time.perf_counter() - t0
        if not res.passed:
            raise SystemExit(f"criterion {c} failed: {res.detail}")
    t0 = time.perf_counter()
    rep = tree.mutation.orbit_check(ORBIT_N)
    out[f"orbit{ORBIT_N}"] = time.perf_counter() - t0
    if not (rep.passed and rep.closed_after == 2 * ORBIT_N - 2):
        raise SystemExit(f"orbit_check({ORBIT_N}) failed")
    return out


def symbolic_counts(tree) -> dict[str, int]:
    """cohomology_calls, tensor_calls, lr_calls, single_hits and
    single_misses of one cold run of the symbolic case."""
    bwb = tree.bwb
    wrapped = {"cohomology_calls": (bwb, "cohomology"),
               "tensor_calls": (bwb.BundleExpr, "tensor"),
               "lr_calls": (bwb, "lr_product")}
    calls = dict.fromkeys(wrapped, 0)
    real = {key: getattr(owner, attr) for key, (owner, attr) in wrapped.items()}

    def counted(key):
        def call(*args, **kwargs):
            calls[key] += 1
            return real[key](*args, **kwargs)
        return call

    for key, (owner, attr) in wrapped.items():
        setattr(owner, attr, counted(key))
    try:
        symbolic_seconds(tree)
    finally:
        for key, (owner, attr) in wrapped.items():
            setattr(owner, attr, real[key])
    info = bwb._bwb_single.cache_info()
    return {**calls, "single_hits": info.hits, "single_misses": info.misses}


def hom_seconds(tree) -> dict[str, float]:
    cold(tree)
    out = {}
    for n in HOM_NS:
        t0 = time.perf_counter()
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                tree.bwb.hom_bundle(a, b, 0, n)
        out[f"n{n}"] = time.perf_counter() - t0
    return out


def pieri_seconds(tree) -> dict[str, float]:
    cold(tree)
    out, products = {}, []
    for family, factors in PIERI.items():
        t0 = time.perf_counter()
        products += [(w, f, tree.combinat.lr_product(w, f, max_rows=5))
                     for w in PIERI_WEIGHTS for f in factors]
        out[family] = time.perf_counter() - t0
    dim = tree.combinat.weyl_dim
    for w, f, prod in products:
        if dim(5, w) * dim(5, f) != sum(c * dim(5, nu) for nu, c in prod.items()):
            raise SystemExit(f"lr_product({w}, {f}, max_rows=5) has the wrong dimension")
    return out


def battery_seconds(tree) -> dict[str, float]:
    cold(tree)
    out = {}
    for grid, (samples, seed0) in GRIDS.items():
        for n in BATTERY_NS:
            t0 = time.perf_counter()
            rep = tree.repmoduli.run_battery(n, samples, seed0 + n)
            out[f"{grid}.n{n}"] = time.perf_counter() - t0
            if not rep.passed:
                raise SystemExit(f"battery {grid} n={n} failed: {rep.failures}")
    return out


def battery_counts(tree) -> dict[str, dict[str, int]]:
    """quotient_hits and quotient_misses per grid of the battery case,
    each grid run cold; empty when the tree's `_quotient` keeps no memo."""
    quotient = tree.repmoduli._quotient
    if not hasattr(quotient, "cache_info"):
        return {}
    out = {}
    for grid, (samples, seed0) in GRIDS.items():
        cold(tree)
        for n in BATTERY_NS:
            tree.repmoduli.run_battery(n, samples, seed0 + n)
        info = quotient.cache_info()
        out[grid] = {"quotient_hits": info.hits, "quotient_misses": info.misses}
    return out


def import_seconds(path: Path, modules, cached: bool) -> float:
    """Seconds a fresh interpreter takes to import `modules` from the
    minorbit package under `path`; it writes bytecode only if `cached`."""
    env = {"PYTHONPATH": str(path), "PYTHONHASHSEED": "0"}
    if not cached:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    code = IMPORT_CHILD.format(modules=", ".join(modules))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    if proc.returncode:
        raise SystemExit(f"import {', '.join(modules)} failed: {proc.stderr.strip()}")
    seconds, file = json.loads(proc.stdout)
    if not Path(file).is_relative_to(path):
        raise SystemExit(f"minorbit imported from {file}, not {path}")
    return seconds


def startup_seconds(tree) -> dict[str, float]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        pkg = Path(tmp) / "minorbit"
        shutil.copytree(Path(tree.__file__).parent, pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for name, modules in STARTUP.items():
            out[f"{name}.cold"] = import_seconds(Path(tmp), modules, cached=False)
        if (pkg / "__pycache__").exists():
            raise SystemExit("a cold import wrote bytecode")
        for name, modules in STARTUP.items():
            import_seconds(Path(tmp), modules, cached=True)  # writes the bytecode
            out[f"{name}.warm"] = import_seconds(Path(tmp), modules, cached=True)
        if not (pkg / "__pycache__").exists():
            raise SystemExit("a warm import wrote no bytecode")
    return out


def timer(case: str):
    """The function timing one run of `case` on a tree."""
    if case == "quiver":
        return quiver_seconds
    if case == "criterion1":
        return criterion1_seconds
    if case == "symbolic":
        return symbolic_seconds
    if case == "hom10":
        return hom_seconds
    if case == "pieri5":
        return pieri_seconds
    if case == "battery":
        return battery_seconds
    if case == "startup":
        return startup_seconds
    n, max_len = map(int, case.split(":"))
    return lambda tree: level_seconds(tree, n, max_len)


def alternate(trees: dict, run, repeats: int) -> dict[str, list]:
    """One untimed warm-up per tree, then `repeats` runs of each tree,
    the order of the trees flipped on every repeat."""
    for tree in trees.values():
        run(tree)
    runs = {label: [] for label in trees}
    order = list(trees)
    for _ in range(repeats):
        for label in order:
            runs[label].append(run(trees[label]))
        order.reverse()
    return runs


def summary(runs: list[dict]) -> dict:
    totals = [sum(r.values()) for r in runs]
    return {"s": {k: round(median(r[k] for r in runs), 4) for k in runs[0]},
            "total_s": round(median(totals), 4),
            "total_runs_s": [round(t, 4) for t in totals]}


def compare(first: list[dict], second: list[dict]) -> dict:
    """Per-pair ratio of totals, second / first, and each timing's median
    per-pair ratio."""
    ratios = [sum(b.values()) / sum(a.values()) for a, b in zip(first, second)]
    q1, _, q3 = quantiles(ratios, n=4, method="inclusive")
    return {"ratios": [round(r, 4) for r in ratios],
            "median": round(median(ratios), 4),
            "q1": round(q1, 4), "q3": round(q3, 4),
            "second_won": sum(r < 1 for r in ratios), "pairs": len(ratios),
            "timings": {k: round(median(b[k] / a[k] for a, b in zip(first, second)), 4)
                        for k in first[0]}}


def cpu_model() -> str:
    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    return next((line.split(":", 1)[1].strip() for line in lines
                 if line.startswith("model name")), platform.processor())


def source(text: str) -> tuple[str, str]:
    """LABEL=DIR, LABEL an identifier and DIR holding minorbit/."""
    label, sep, src = text.partition("=")
    if not (sep and label.isidentifier() and (Path(src) / "minorbit").is_dir()):
        raise ValueError(text)
    return label, src


def case_name(text: str) -> str:
    timer(text)  # raises ValueError unless text is N:L or a named case
    if ":" in text:
        n, max_len = map(int, text.split(":"))
        if n < 2 or max_len < 1:
            raise argparse.ArgumentTypeError(
                f"case {text}: N:L needs N >= 2 and L >= 1")
    return text


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", type=source, metavar="LABEL=DIR",
                    help="a tree to measure; at most two (default change=./src)")
    ap.add_argument("--out", required=True, help="the JSON file to record in")
    ap.add_argument("--repeats", type=int, default=10, help="timed runs per tree")
    ap.add_argument("--case", action="append", type=case_name, metavar="CASE",
                    help=f"N:L, quiver, criterion1, symbolic, hom10, pieri5, battery or "
                         f"startup (default {' '.join(DEFAULT_CASES)})")
    args = ap.parse_args(argv)
    pairs = args.src or [("change", DEFAULT_SRC)]
    sources = dict(pairs)
    if len(sources) < len(pairs) or len(sources) > 2:
        ap.error("--src takes at most two trees with distinct labels")
    if args.repeats < 2:
        ap.error("--repeats must be at least 2")

    trees = {label: load(label, src) for label, src in sources.items()}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = {"python": platform.python_version(), "numpy": np.__version__,
                      "nproc": os.cpu_count(), "cpu": cpu_model()}
    for case in args.case or DEFAULT_CASES:
        runs = alternate(trees, timer(case), args.repeats)
        for label, tree in trees.items():
            entry = summary(runs[label])
            if ":" in case:
                entry["levels"] = level_memory(tree, *map(int, case.split(":")))
            if case == "symbolic":
                entry["bwb"] = symbolic_counts(tree)
            if case == "battery":
                entry["repmoduli"] = battery_counts(tree)
            doc.setdefault("runs", {}).setdefault(label, {})[case] = entry
            print(f"{label} {case}: {entry['total_s']:.3f} s", flush=True)
        if len(trees) == 2:
            first, second = trees
            pair = compare(runs[first], runs[second])
            doc.setdefault("pairs", {}).setdefault(f"{second}/{first}", {})[case] = pair
            print(f"{second}/{first} {case}: median {pair['median']:.3f} "
                  f"[{pair['q1']:.3f}, {pair['q3']:.3f}], {second} won "
                  f"{pair['second_won']}/{pair['pairs']}", flush=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
