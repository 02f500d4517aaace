"""Same-core CPU speed probe, to scale a timed section to a reference speed.

On a shared host a core's speed drifts with the load that other tenants
put on the same physical core: a fixed piece of pure Python can take
1.5x longer for seconds to minutes at a time, so medians over a run of
a minute or less still differ by 20-30% from run to run.  A probe on
another core does not see it (each core drifts on its own); one on the
same core, interleaved with the timed code, does.

`SpeedProbe` runs a probe, a fixed ~0.3 ms piece of work like the timed
section's, from a SIGALRM handler every `PERIOD_S` of the section, plus
once just before it and once just after.  Since the handler fires at
even intervals of wall time, the mean of `reference / probe time` over
the samples is the section's mean speed relative to the reference, and

    wall_ref_s = (wall - time spent in the handler) * mean(reference / probe)

is the section's wall time at the reference speed.  The probe must do
the section's kind of work, because contention slows interpreter-bound
code and numpy kernels by different factors:

- "fraction": Fraction arithmetic and small-object churn, like the
  interpreter-bound set-up, cohengine and repmoduli;
- "numpy": small mod-p row operations on float64 arrays, like the inner
  loop of linalg.ModPRref.

Each probe's reference is a fixed constant (its typical time inside the
handler on an uncontended 2.1 GHz Xeon core, Python 3.11, numpy 2.4), so
wall_ref_s is comparable across runs and commits on one machine.  The
handler costs about 1% of the section and its time is taken out; a long
C call only defers the next sample.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

PERIOD_S = 0.05


def fraction_probe():
    def probe() -> None:
        f, acc = Fraction(1, 3), []
        for i in range(1, 40):
            f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
            acc.append((f.numerator % 97, i))
            if i % 8 == 0:
                f = Fraction(1, 3)

    return probe


def numpy_probe():
    # numpy is imported here, not at the top, so that a workload without
    # numpy does not pay for its import in setup_s
    import numpy as np

    p = 32003
    buf = np.arange(48 * 400, dtype=np.float64).reshape(48, 400) * 7919 % p
    row = buf[7].copy()
    pivots = list(range(0, 384, 8))

    def probe() -> None:
        reduced = (row - row[pivots] @ buf) % p
        (buf - np.outer(buf[:, 5], reduced)) % p

    return probe


# kind -> (probe factory, reference seconds)
PROBES = {"fraction": (fraction_probe, 0.00025), "numpy": (numpy_probe, 0.0004)}


class SpeedProbe:
    """Context manager sampling the core's speed during a timed section."""

    def __init__(self, kind: str = "fraction"):
        make, self.reference_s = PROBES[kind]
        self._probe = make()
        self.samples: list[float] = []
        self.handler_s = 0.0  # probe time inside the section
        self._previous = None

    def _timed_probe(self) -> float:
        t = perf_counter()
        self._probe()
        return perf_counter() - t

    def _on_alarm(self, signum, frame):
        t = self._timed_probe()
        self.samples.append(t)
        self.handler_s += t

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(self._timed_probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self._timed_probe())

    def speed(self) -> float:
        """Mean speed over the section, relative to the reference."""
        return fmean(self.reference_s / t for t in self.samples)
