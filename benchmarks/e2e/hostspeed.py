"""Host-speed probe: a fixed piece of work timed beside the program's.

The benchmark runs on small shared hosts whose speed drifts with other
tenants' load: on the 2-vCPU VM the benchmark was written on, a fixed
interpreter loop ran 1.5x slower for minutes at a time, with steal time
reading zero.  Every time the benchmark measures moves with it, so runs
minutes apart disagree by more than any useful regression bound, however
long each run is.

The benchmark therefore times this probe next to each operation (one
probe before every selection, a few after every serving window and every
set-up) and reports each time scaled to the probe's reference duration:
``time * REFERENCE_MS / probe``.  The probe is part of the benchmark, not
of the program, so a change to the program moves the scaled time exactly
as it moves the raw one, while a host phase that slows the probe and the
program alike cancels.  Raw times are printed and recorded beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median probe duration on the reference host, a 2-vCPU Intel Xeon VM
#: (Python 3.11, numpy 2.4), over its fast phases.
REFERENCE_MS = 9.0

#: Probes per set-up or serving window; their median is used.
PROBES = 5


def probe_ms() -> float:
    """Milliseconds for one fixed piece of work: an interpreter loop (the
    program's Python-level dispatch) plus a numpy elementwise kernel."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    values = np.arange(20_000, dtype=float)
    for _ in range(50):
        values = np.sqrt(values * values + 1.0)
    return (time.perf_counter() - t0) * 1e3


def probe_median_ms(count: int = PROBES) -> float:
    return statistics.median(probe_ms() for _ in range(count))


def at_reference(value: float, probe: float) -> float:
    """``value`` (any time unit) scaled to the reference host speed."""
    return value * REFERENCE_MS / probe
