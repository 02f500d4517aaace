"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps, at run time, every public module-level function
of the minorbit layers plus a few public methods, and rebinds every alias
of each wrapped function in every loaded minorbit module (``quiveralg``
holds its own ``sym_pair_corank``, ``mutation`` its own ``hilbert_M``,
``bwb`` its own ``lr_product`` ...).  A layer that is not wrapped would
silently add its time to its caller's self time.

Each call records a span ``[name, start, end, parent, attrs, outer]`` in
memory (``outer`` is false for a call nested in a call of the same name);
`layer_metrics` turns the spans into the per-layer metrics.  A span's
self time is its duration minus the durations of its child spans, and a
layer's self time is the sum over its spans.  A ``<function>_s`` metric
is the inclusive time of the outermost calls of that function.

Which end-to-end metric each layer should move, and on which workload:

- linalg (mod-p row echelon): wall_ref_s and peak_rss_mb on quiver;
  nothing on symbolic or battery.
- quiveralg (degree-by-degree engine): wall_ref_s on quiver.
- cohengine (coranks, certificates, Hilbert data): wall_ref_s and
  peak_rss_mb on symbolic; a small share of wall_ref_s on quiver.
- bwb, combinat, kfunctor: wall_ref_s on symbolic (small share; regression
  guards).
- mutation, acceptance: wall_ref_s on symbolic.
- repmoduli: wall_ref_s on battery.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "linalg", "quiveralg", "cohengine", "bwb", "combinat",
    "kfunctor", "mutation", "repmoduli", "acceptance",
)

# public methods worth a span: (module, class, method)
METHODS = (
    ("linalg", "ModPRref", "add"),
    ("linalg", "ModPRref", "projection"),
    ("cohengine", "TraceMultMatrix", "full_column_rank_certificate"),
    ("bwb", "BundleExpr", "tensor"),
)


class Tracer:
    """Records spans for calls into the wrapped entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, before=None, after=None):
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            outer = depth.get(name, 0) == 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, outer]
            stack.append(len(spans))
            spans.append(span)
            depth[name] = depth.get(name, 0) + 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                depth[name] -= 1
                stack.pop()
            if after:
                span[4] = after(args, kwargs, result, pre)
            return result

        # lru_cache wrappers stay inspectable through the span wrapper
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and the listed methods."""
        mods = {layer: importlib.import_module(f"minorbit.{layer}") for layer in LAYERS}
        hooks = _hooks(mods)

        replaced: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                before, after = hooks.get(name, (None, None))
                replaced[id(obj)] = self._wrap(obj, name, before, after)
        # rebind every alias of every wrapped function, in every module
        # (each original stays alive inside its wrapper, so ids are unique)
        for mod in [m for k, m in sys.modules.items() if k.startswith("minorbit")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            before, after = hooks.get(name, (None, None))
            setattr(cls, meth, self._wrap(vars(cls)[meth], name, before, after))

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the child spans' durations."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def root_time(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)


def _hooks(mods):
    """Per-entry-point attribute recorders: name -> (before, after)."""
    quiveralg = mods["quiveralg"]

    def add_before(args, kwargs):
        return args[0].rank

    def add_after(args, kwargs, result, rank0):
        rref = args[0]
        return {"rows": len(args[1]), "gained": rref.rank - rank0,
                "width": rref.width}

    def dim_before(args, kwargs):
        q, a, b, length = args
        eng = quiveralg._engines.get(q.n)
        return eng is None or len(eng.levels) <= length

    def dim_after(args, kwargs, result, builds):
        return {"n": args[0].n, "l": args[3], "builds": builds}

    return {
        "linalg.ModPRref.add": (add_before, add_after),
        "cohengine.TraceMultMatrix.full_column_rank_certificate": (
            None, lambda a, k, r, p: {"ok": bool(r)}),
        "quiveralg.graded_dim": (dim_before, dim_after),
        "mutation.orbit_check": (None, lambda a, k, r, p: {"n": a[0]}),
        "repmoduli.run_battery": (
            None, lambda a, k, r, p: {"n": a[0], "samples": a[1]}),
    }


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run emits, with its unit."""
    names = [
        ("linalg.add_calls", "count"), ("linalg.rows_offered", "count"),
        ("linalg.rank_gained", "count"), ("linalg.useful_row_ratio", "ratio"),
        ("linalg.add_s", "s"), ("linalg.rows_per_s", "1/s"),
        ("linalg.max_width", "count"), ("linalg.rank_exact_calls", "count"),
        ("linalg.rank_exact_s", "s"),
    ]
    names += [(f"quiveralg.level_s.n4.l{l}", "s") for l in range(1, 6)]
    names += [(f"quiveralg.level_s.n5.l{l}", "s") for l in range(1, 5)]
    names += [
        ("quiveralg.cells_certified", "count"), ("quiveralg.max_W", "count"),
        ("quiveralg.uncertified", "count"), ("quiveralg.direct_fallbacks", "count"),
        ("cohengine.corank_calls", "count"), ("cohengine.corank_s", "s"),
        ("cohengine.corank_hit_ratio", "ratio"),
        ("cohengine.certificate_calls", "count"), ("cohengine.certificate_s", "s"),
        ("cohengine.certificate_ok_ratio", "ratio"),
        ("cohengine.hilbert_M_s", "s"), ("cohengine.tilting_check_s", "s"),
        ("bwb.cohomology_calls", "count"), ("bwb.cohomology_s", "s"),
        ("bwb.single_hit_ratio", "ratio"),
        ("combinat.lr_product_calls", "count"), ("combinat.lr_hit_ratio", "ratio"),
        ("kfunctor.ext_profile_calls", "count"),
    ]
    names += [(f"mutation.orbit_check_s.n{n}", "s") for n in range(3, 7)]
    names += [(f"repmoduli.battery_s.n{n}", "s") for n in range(2, 7)]
    names += [
        ("repmoduli.check_relations_calls", "count"),
        ("repmoduli.check_relations_s", "s"), ("repmoduli.samples_per_s", "1/s"),
    ]
    names += [(f"acceptance.criterion_s.c{c}", "s") for c in (2, 3, 4, 5, 6, 7, 8, 10)]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [
        ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"), ("trace.spans", "count"),
    ]
    return names


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _hit_ratio(fn) -> float:
    info = fn.cache_info()
    return _ratio(info.hits, info.hits + info.misses)


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (overhead is filled
    in by the caller, who holds the untraced wall time)."""
    from minorbit import bwb, cohengine, combinat, quiveralg

    spans = tracer.spans
    own = tracer.self_times()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    m: dict[str, float] = {name: 0 for name, _ in per_layer_names()}
    cert_ok = samples = 0
    for i, (name, t0, t1, parent, attrs, outer) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if outer:
            total[name] = total.get(name, 0.0) + (t1 - t0)
        m[name.split(".")[0] + ".self_s"] += own[i]
        if attrs is None:
            continue
        if name == "linalg.ModPRref.add":
            m["linalg.rows_offered"] += attrs["rows"]
            m["linalg.rank_gained"] += attrs["gained"]
            m["linalg.max_width"] = max(m["linalg.max_width"], attrs["width"])
        elif name == "quiveralg.graded_dim" and attrs["builds"]:
            key = f"quiveralg.level_s.n{attrs['n']}.l{attrs['l']}"
            if key in m:
                m[key] += t1 - t0
        elif name == "cohengine.TraceMultMatrix.full_column_rank_certificate":
            cert_ok += attrs["ok"]
        elif name == "mutation.orbit_check":
            key = f"mutation.orbit_check_s.n{attrs['n']}"
            if key in m:
                m[key] += t1 - t0
        elif name == "repmoduli.run_battery":
            key = f"repmoduli.battery_s.n{attrs['n']}"
            if key in m:
                m[key] += t1 - t0
            samples += attrs["samples"]

    m["linalg.add_calls"] = calls.get("linalg.ModPRref.add", 0)
    m["linalg.add_s"] = total.get("linalg.ModPRref.add", 0.0)
    m["linalg.useful_row_ratio"] = _ratio(m["linalg.rank_gained"], m["linalg.rows_offered"])
    m["linalg.rows_per_s"] = _ratio(m["linalg.rows_offered"], m["linalg.add_s"])
    m["linalg.rank_exact_calls"] = calls.get("linalg.rank_exact", 0)
    m["linalg.rank_exact_s"] = total.get("linalg.rank_exact", 0.0)

    m["quiveralg.cells_certified"] = calls.get("quiveralg.graded_dim", 0)
    m["quiveralg.direct_fallbacks"] = calls.get("quiveralg.graded_dim_direct", 0)
    for eng in quiveralg._engines.values():
        m["quiveralg.uncertified"] += len(eng.uncertified)
        for l in range(1, len(eng.levels)):
            for (a, b) in eng.levels[l]:
                width = sum(
                    eng._prev_dim(a, src, l - 1) for _, src in eng._arrows_into(b)
                )
                m["quiveralg.max_W"] = max(m["quiveralg.max_W"], width)

    cert = "cohengine.TraceMultMatrix.full_column_rank_certificate"
    m["cohengine.corank_calls"] = calls.get("cohengine.sym_pair_corank", 0)
    m["cohengine.corank_s"] = total.get("cohengine.sym_pair_corank", 0.0)
    # read through the span wrapper, which keeps cache_info
    m["cohengine.corank_hit_ratio"] = _hit_ratio(cohengine.sym_pair_corank)
    m["cohengine.certificate_calls"] = calls.get(cert, 0)
    m["cohengine.certificate_s"] = total.get(cert, 0.0)
    m["cohengine.certificate_ok_ratio"] = _ratio(cert_ok, calls.get(cert, 0))
    m["cohengine.hilbert_M_s"] = total.get("cohengine.hilbert_M", 0.0)
    m["cohengine.tilting_check_s"] = total.get("cohengine.tilting_check", 0.0)

    m["bwb.cohomology_calls"] = calls.get("bwb.cohomology", 0)
    m["bwb.cohomology_s"] = total.get("bwb.cohomology", 0.0)
    m["bwb.single_hit_ratio"] = _hit_ratio(bwb._bwb_single)
    m["combinat.lr_product_calls"] = calls.get("combinat.lr_product", 0)
    m["combinat.lr_hit_ratio"] = _hit_ratio(combinat._lr_cached)
    m["kfunctor.ext_profile_calls"] = calls.get("kfunctor.ext_profile", 0)

    m["repmoduli.check_relations_calls"] = calls.get("repmoduli.check_relations", 0)
    m["repmoduli.check_relations_s"] = total.get("repmoduli.check_relations", 0.0)
    m["repmoduli.samples_per_s"] = _ratio(samples, total.get("repmoduli.run_battery", 0.0))
    for c in (2, 3, 4, 5, 6, 7, 8, 10):
        m[f"acceptance.criterion_s.c{c}"] = total.get(f"acceptance.criterion_{c}", 0.0)

    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - tracer.root_time()
    m["trace.spans"] = len(spans)
    return m
