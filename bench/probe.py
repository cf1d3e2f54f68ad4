"""Speed probe: a fixed slice of interpreter work used to scale timings.

The benchmark shares a small machine with other tenants; while a neighbour
runs, the same Python code takes up to twice as long, in phases lasting from
under a second to minutes.  So the speed of the CPU is sampled where the
work runs: by a probe before and after every operation and, from a timer
signal, every SAMPLE_PERIOD_S during it.  An operation's time, less the
probes that ran inside it, is scaled by PROBE_MS over the mean probe time:
the figure is what the operation would take at the probe's nominal speed.
The probe does no work of the library, so a change to the library cannot
move it; like the library, it calls small functions, builds and drops small
tuples and frozensets, hashes and looks up dict keys.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Duration of one probe on an uncontended vCPU of the machine the baseline
# was taken on (2-vCPU x86-64 container, CPython 3.11), between the least
# and the 5th percentile of 1842 probes taken over 20 s.
PROBE_MS = 0.36
SAMPLE_PERIOD_S = 0.02

_TABLE = {(i, i & 7, i >> 3): i for i in range(256)}
_KEYS = tuple(_TABLE)


def _step(key):
    return frozenset(key), (key, key[0])


def probe() -> float:
    """Milliseconds taken by the fixed probe workload, now."""
    t0 = perf_counter()
    acc = 0
    for _ in range(3):
        for key in _KEYS:
            members, pair = _step(key)
            acc ^= _TABLE[key] ^ len(members) ^ (hash(pair) & 1)
    return (perf_counter() - t0) * 1e3


class Sampler:
    """Collects (end time, probe ms) samples from SIGALRM while active."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        ms = probe()
        self.samples.append((perf_counter(), ms))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def between(self, t0, t1):
        """Probe times (ms) of the samples taken between t0 and t1."""
        return [ms for t, ms in self.samples if t0 <= t <= t1]


def scale(probes_ms, busy_ms=0.0, span_ms=None) -> float:
    """Factor taking a time measured while `probes_ms` were sampled to the
    nominal speed; `busy_ms` of probing inside a `span_ms` interval is
    removed from the time first."""
    kept = 1.0 if not span_ms else max(0.0, 1.0 - busy_ms / span_ms)
    return kept * PROBE_MS * len(probes_ms) / sum(probes_ms)
