"""The benchmark's own tests, at tiny sizes (compare_with_nccr(3, 4),
orbit_check(4), a 20-sample battery).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from speed import PROBES, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def runs():
    return {
        (w, trace): run.bench(w, 1, 1, trace, size="tiny")[0]
        for w in WORKLOADS
        for trace in (False, True)
    }


def test_every_metric_is_emitted_with_its_unit(runs):
    for (w, trace), res in runs.items():
        want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        assert res["correct"], (w, trace)
        assert res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want, (w, trace)


def test_end_to_end_metrics_are_positive(runs):
    for w in WORKLOADS:
        assert all(m["value"] > 0 for m in runs[(w, False)]["metrics"].values()), w


def test_aliases_are_traced(runs):
    quiver = {k: v["value"] for k, v in runs[("quiver", True)]["metrics"].items()}
    symbolic = {k: v["value"] for k, v in runs[("symbolic", True)]["metrics"].items()}
    # quiver reaches sym_pair_corank only through quiveralg's own alias
    assert quiver["cohengine.corank_calls"] > 0
    assert 0 < quiver["cohengine.corank_hit_ratio"] < 1  # cache_info still readable
    # mutation holds its own hilbert_M
    assert symbolic["cohengine.hilbert_M_s"] > 0
    assert symbolic["combinat.lr_product_calls"] > 0  # bwb's alias


def test_self_times_account_for_traced_wall(runs):
    for w in WORKLOADS:
        m = {k: v["value"] for k, v in runs[(w, True)]["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"]), w


@pytest.mark.parametrize("kind", sorted(PROBES))
def test_speed_probe_samples_the_section(kind):
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(kind) as speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    # one sample before, one after, and one per alarm in between
    assert len(speed.samples) >= 4
    assert 0 < speed.handler_s < 0.3
    assert speed.speed() > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_digest_gate_fails_on_corrupted_reference():
    ref = run.load_reference()
    ref["tiny"]["quiver"] = "0" * 64
    res, _ = run.bench("quiver", 1, 1, False, size="tiny", reference=ref)
    assert not res["correct"]
    assert res["failed"] >= 1


@pytest.mark.parametrize("seed", [11, 12])
def test_battery_seeds_pass(seed):
    res, _ = run.bench("battery", seed, 1, False, size="tiny")
    assert res["correct"]


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
