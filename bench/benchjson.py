"""The BENCH_*.json layout the bench scripts share: one file per layer,
one entry per label, and the machine the last run was made on."""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def record(path: str, layer: str, label: str, result: dict, **versions: str) -> None:
    """Store `result` under `label` in the JSON file at `path`.

    Other labels in that file are kept, so a parent and a change measured
    on the same machine end up side by side.  `versions` (for example
    numpy's) go into the machine entry after Python's.
    """
    out = Path(path)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["layer"] = layer
    doc["machine"] = {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }
    doc.setdefault("runs", {})[label] = result
    out.write_text(json.dumps(doc, indent=2) + "\n")
