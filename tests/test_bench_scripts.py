"""The committed measuring scripts in bench/ run on the current engine.

They read the engine's data model directly, so a change to it must
update them; these runs catch one that does not.  bench/linalg_rows.py
is left out: its widest case takes too long for this suite."""

from pathlib import Path

import pytest

from minorbit import quiveralg

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import quiver_batch
    import quiver_blocks

    return quiver_batch, quiver_blocks


def test_quiver_blocks_widths(bench):
    _, quiver_blocks = bench
    eng = quiveralg.QuiverDimEngine(3)
    eng.ensure(3)
    for l in range(1, 4):
        cell_w, block_w = quiver_blocks.widths(quiveralg, eng, l)
        # the cell width as perfbench's tracer reads it
        assert cell_w == max(
            sum(eng._prev_dim(a, src, l - 1) for _, src in eng._arrows_into(b))
            for a, b in eng.levels[l])
        # no block is wider than the widest one measured
        assert 0 < block_w <= cell_w
        assert all(sum(m.shape[1] for m in maps.values()) <= block_w
                   for blocks in eng.levels[l].values()
                   for _, maps in blocks.values())
    result = quiver_blocks.run_case(quiveralg, 3, 3)
    assert list(result["levels"]) == ["l1", "l2", "l3"]


def test_quiver_batch_time_and_memory(bench):
    quiver_batch, _ = bench
    seconds = quiver_batch.level_seconds(quiveralg, 3, 3)
    assert len(seconds) == 3 and all(s >= 0 for s in seconds)
    memory = quiver_batch.level_memory(quiveralg, 3, 3)
    assert len(memory) == 3
    assert all(peak >= kept > 0 for peak, kept in memory)
