"""bench/measure.py runs on the current engine and alternates two trees.

It reads the engine's data model directly, so a change to that model
must update it; these runs catch one that does not."""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from minorbit import quiveralg

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def measure(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import measure

    return measure


@pytest.fixture
def trees(measure):
    """This checkout's src loaded twice, as minorbit_a and minorbit_b."""
    yield {label: measure.load(label, ROOT / "src") for label in ("a", "b")}
    for name in [m for m in sys.modules if m.startswith(("minorbit_a", "minorbit_b"))]:
        del sys.modules[name]


def test_level_widths(measure, trees):
    eng = quiveralg.QuiverDimEngine(3)
    eng.ensure(3)
    levels = measure.level_memory(trees["a"], 3, 3)
    widths = [(levels[f"l{l}"]["cell_W"], levels[f"l{l}"]["block_W"]) for l in range(1, 4)]
    # the widths an enumeration of each level's canonical target weights read
    assert widths == [(3, 1), (18, 6), (42, 7)]
    for l, (cell_w, block_w) in enumerate(widths, start=1):
        # the cell width as perfbench's tracer reads it
        assert cell_w == measure.cell_width(eng, l) == max(
            sum(eng._prev_dim(a, src, l - 1) for _, src in eng._arrows_into(b))
            for a, b in eng.levels[l])
        # no block is wider than the widest stack eliminated
        assert 0 < block_w <= cell_w
        assert all(sum(m.shape[1] for m in maps.values()) <= block_w
                   for blocks in eng.levels[l].values()
                   for _, maps in blocks.values())


def test_level_seconds_and_memory(measure, trees):
    seconds = measure.level_seconds(trees["a"], 3, 3)
    assert list(seconds) == ["l1", "l2", "l3"]
    assert all(s >= 0 for s in seconds.values())
    memory = measure.level_memory(trees["a"], 3, 3)
    assert list(memory) == ["l1", "l2", "l3"]
    assert all(m["peak_mb"] >= m["kept_mb"] > 0 for m in memory.values())


def test_level_stack_counts(measure, trees, monkeypatch):
    # rref_calls and stacked_rows per level, against a count of this
    # checkout's engine's `rref_stack` calls; the measured tree's own
    # function is put back afterwards
    q = trees["a"].quiveralg
    kernel = q.rref_stack
    levels = measure.level_memory(trees["a"], 4, 4)
    assert q.rref_stack is kernel
    counts = []

    def counted(stack, stops):
        counts[-1][0] += 1
        counts[-1][1] += stack.shape[1]
        return kernel(stack, stops)

    monkeypatch.setattr(quiveralg, "rref_stack", counted)
    eng = quiveralg.QuiverDimEngine(4)
    for l in range(1, 5):
        counts.append([0, 0])
        eng.ensure(l)
    assert [[levels[f"l{l}"]["rref_calls"], levels[f"l{l}"]["stacked_rows"]]
            for l in range(1, 5)] == counts
    assert all(calls > 0 for calls, _ in counts) and sum(rows for _, rows in counts) > 0


def test_two_trees_alternate(measure, trees, monkeypatch):
    a, b = trees["a"], trees["b"]
    assert a.quiveralg is not b.quiveralg and quiveralg not in (a.quiveralg, b.quiveralg)
    a.quiveralg._engine(3)
    assert 3 in a.quiveralg._engines and b.quiveralg._engines == {}
    monkeypatch.setattr(measure, "GRIDS", {"tiny": (3, 0)})
    for case in ("3:3", "battery"):
        calls = []
        timer = measure.timer(case)

        def logged(tree):
            calls.append(tree.__name__.removeprefix("minorbit_"))
            return timer(tree)

        runs = measure.alternate(trees, logged, 4)
        # one warm-up each, then the order flips on every repeat
        assert calls == ["a", "b", "a", "b", "b", "a", "a", "b", "b", "a"]
        assert len(runs["a"]) == len(runs["b"]) == 4
        assert list(measure.summary(runs["a"])["s"]) == list(runs["a"][0])
        pair = measure.compare(runs["a"], runs["b"])
        assert pair["pairs"] == 4 and 0 <= pair["second_won"] <= 4
        assert pair["q1"] <= pair["median"] <= pair["q3"]


def test_uncertified_cell_stops_the_run(measure, trees, monkeypatch):
    qa = trees["b"].quiveralg
    true_target = qa._cell_target
    monkeypatch.setattr(qa, "_cell_target", lambda n, a, b, length: (
        true_target(n, a, b, length) - ((a, b, length) == (1, 1, 2))))
    with pytest.raises(SystemExit, match=r"uncertified cells \[\(1, 1, 2,"):
        measure.alternate(trees, measure.timer("3:3"), 2)
    # the other tree's engine keeps its own target
    measure.level_seconds(trees["a"], 3, 3)


def test_quiver_case_times_each_comparison_with_its_engine(measure, trees, monkeypatch):
    # the engine's construction is timed with its comparison: no run
    # finds an engine built, and each starts on empty weight caches
    monkeypatch.setattr(measure, "QUIVER", ((3, 3), (2, 4)))
    seen = []
    for tree in trees.values():
        q = tree.quiveralg

        def compare(n, max_len, q=q, real=q.compare_with_nccr):
            seen.append((n in q._engines, q._canonical.cache_info().currsize))
            return real(n, max_len)

        monkeypatch.setattr(q, "compare_with_nccr", compare)
    runs = measure.alternate(trees, measure.timer("quiver"), 2)
    assert list(runs["a"][0]) == ["3:3", "2:4"] and len(seen) == 12
    assert not any(built for built, _ in seen)
    assert [cached for _, cached in seen[::2]] == [0] * 6
    # a comparison that fails stops the run
    true_target = trees["b"].quiveralg._cell_target
    monkeypatch.setattr(trees["b"].quiveralg, "_cell_target", lambda n, a, b, length: (
        true_target(n, a, b, length) - ((a, b, length) == (1, 1, 2))))
    with pytest.raises(SystemExit, match=r"compare_with_nccr\(3, 3\) failed"):
        measure.alternate(trees, measure.timer("quiver"), 2)


def _cache_sizes(tree):
    return {f"{name}.{attr}": value.cache_info().currsize
            for name, module in sys.modules.items() if name.startswith(f"{tree.__name__}.")
            for attr, value in vars(module).items() if hasattr(value, "cache_info")}


def test_engine_cases_start_cold(measure, trees, monkeypatch):
    # the weight orbit caches are module-level, so a timed run that did
    # not clear them would reuse its warm-up's; the first clock read of
    # each run must find the running tree's caches empty (an N:L run
    # builds its engine first, which reads the orbit size of weight 0)
    for tree in trees.values():
        monkeypatch.setattr(tree.acceptance, "criterion_1", lambda q=tree.quiveralg: (
            SimpleNamespace(passed=q.compare_with_nccr(3, 3).passed)))
    running, starts = [], []

    def clock():
        if len(starts) < len(running):
            q = trees[running[-1]].quiveralg
            starts.append((q._canonical.cache_info().currsize,
                           q._orbit_size.cache_info().currsize))
        return time.perf_counter()

    monkeypatch.setattr(measure, "time", SimpleNamespace(perf_counter=clock))
    for case in ("3:3", "criterion1"):
        timer = measure.timer(case)

        def logged(tree):
            running.append(tree.__name__.removeprefix("minorbit_"))
            return timer(tree)

        measure.alternate(trees, logged, 2)
    assert len(starts) == len(running) == 12
    assert all(canonical == 0 and orbits <= 1 for canonical, orbits in starts), starts


def test_symbolic_case_starts_cold(measure, trees, monkeypatch):
    monkeypatch.setattr(measure, "SYMBOLIC", (2, 3, 10))
    monkeypatch.setattr(measure, "ORBIT_N", 3)
    runs = measure.alternate(trees, measure.timer("symbolic"), 2)
    assert list(runs["a"][0]) == ["c2", "c3", "c10", "orbit3"]
    a = trees["a"]
    sizes = _cache_sizes(a)
    assert sizes["minorbit_a.bwb._bwb_single"] > 0 and a.quiveralg._engines
    measure.cold(a)
    assert not any(_cache_sizes(a).values()) and not a.quiveralg._engines
    # the other tree keeps its own caches
    assert _cache_sizes(trees["b"])["minorbit_b.bwb._bwb_single"] > 0
    # the counts of one cold run: each miss is one weight the run computed,
    # and each LR call one rest pair it multiplied
    counts = measure.symbolic_counts(a)
    assert set(counts) == {"cohomology_calls", "tensor_calls", "lr_calls", "single_hits",
                           "single_misses"}
    assert counts["cohomology_calls"] > 0 and counts["single_hits"] > 0
    assert counts["single_misses"] == _cache_sizes(a)["minorbit_a.bwb._bwb_single"] > 0
    assert counts["tensor_calls"] > 0
    assert counts["lr_calls"] == _cache_sizes(a)["minorbit_a.bwb._tensor_weights"] > 0
    assert a.bwb.cohomology.__name__ == "cohomology"
    assert a.bwb.BundleExpr.tensor.__name__ == "tensor"
    assert a.bwb.lr_product.__name__ == "lr_product"


def test_cold_clears_the_tilting_memo(measure, trees):
    a = trees["a"]
    assert a.acceptance.criterion_4().passed
    memos = {attr: value for attr, value in vars(a.cohengine).items()
             if hasattr(value, "cache_info")}
    assert memos["_pair_bundle"].cache_info().currsize
    assert memos["_first_higher"].cache_info().currsize
    measure.cold(a)
    assert not any(m.cache_info().currsize for m in memos.values())


def test_battery_case_starts_cold(measure, trees, monkeypatch):
    # the relation tables are a cache keyed on n, so `cold` empties them
    # and repeated runs compile one table per n
    monkeypatch.setattr(measure, "GRIDS", {"tiny": (3, 0)})
    a = trees["a"]
    tables = a.repmoduli._relation_table
    measure.battery_seconds(a)
    assert tables.cache_info().currsize == len(measure.BATTERY_NS)
    measure.cold(a)
    assert not tables.cache_info().currsize
    for _ in range(3):
        measure.battery_seconds(a)
    assert tables.cache_info().currsize == len(measure.BATTERY_NS)
    # the other tree keeps its own tables
    assert trees["b"].repmoduli._relation_table is not tables


def test_failed_symbolic_criterion_stops_the_run(measure, trees, monkeypatch):
    monkeypatch.setattr(measure, "SYMBOLIC", (2,))
    monkeypatch.setattr(trees["b"].bwb, "bott_closed_form", lambda n, p, t: {})
    with pytest.raises(SystemExit, match="criterion 2 failed"):
        measure.alternate(trees, measure.timer("symbolic"), 2)


def test_engine_cases_outside_the_range_are_usage_errors(measure, capsys, tmp_path):
    # 4:0 used to run and then divide by a zero total, and 3:-1 and 1:3
    # recorded empty or meaningless timings
    out = tmp_path / "bench.json"
    for case in ("4:0", "3:-1", "1:3", "0:2"):
        with pytest.raises(SystemExit) as stop:
            measure.main(["--out", str(out), "--case", case])
        assert stop.value.code == 2, case
        assert "N >= 2 and L >= 1" in capsys.readouterr().err, case
    assert not out.exists()
    assert measure.case_name("2:1") == "2:1"


def test_startup_case_imports_each_tree_in_fresh_interpreters(measure, trees, monkeypatch):
    monkeypatch.setattr(measure, "STARTUP", {"tiny": ("minorbit.combinat",)})
    copies = []
    real = measure.import_seconds
    monkeypatch.setattr(measure, "import_seconds", lambda path, modules, cached: (
        copies.append(path) or real(path, modules, cached)))
    runs = {label: measure.timer("startup")(tree) for label, tree in trees.items()}
    assert all(list(r) == ["tiny.cold", "tiny.warm"] and min(r.values()) > 0
               for r in runs.values())
    # one cold, one untimed and one timed warm import per run, each run
    # in its own copy of the tree, removed afterwards
    assert len(copies) == 6 and len(set(copies)) == 2
    assert not any(path.exists() for path in copies)
    pair = measure.compare([runs["a"]] * 2, [runs["b"]] * 2)
    assert pair["timings"] == {k: round(runs["b"][k] / runs["a"][k], 4) for k in runs["a"]}
    # a failed import stops the run
    monkeypatch.setattr(measure, "STARTUP", {"tiny": ("minorbit.nosuchmodule",)})
    with pytest.raises(SystemExit, match="import minorbit.nosuchmodule failed"):
        measure.startup_seconds(trees["a"])
