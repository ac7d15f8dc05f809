"""Machine-speed probe, and request times scaled to a reference speed.

The benchmark shares a few cores of a host with other jobs, and the speed
of the same Python and numpy code drifts by 20-30 % over seconds as they
come and go; the slowdown shows in CPU time as much as in wall time, so
neither can be read as the program's cost alone. Between two operations
the workload loop runs a fixed probe, at most once every ``PERIOD_S``,
outside every timed region. The probe does the two kinds of work hsqcnet
spends its time on: interpreted work like the forward pass and the tape
(small numpy products and element-wise functions mixed with Python float
and dict work) and compiled work on larger arrays like the exact matcher
(sub-matrix copies, products and sorts of a 120 x 120 matrix). Slowdowns
on a shared host hit the two kinds differently, and a probe of one kind
alone tracked the other kind's workloads worse. The probe calls no
hsqcnet code, so a change to hsqcnet never changes the probe.

A time is scaled by ``REFERENCE_S / p``, where ``p`` is the mean time of
the probes that started while the operation ran or within ``WINDOW_S`` of
it. An operation's time adds up the machine's slowness over its whole
interval, stalls included, and so does a mean over probes spread across
that interval; a median would skip the stalls. The scaled time reads as
the time the operation would take with the machine at the speed at which
the probe takes ``REFERENCE_S``, a typical figure on the 2-core Intel Xeon
host the benchmark was written on. The raw times and every probe are kept
in the details file. Traced runs leave the probe off, so that it shows in
no span and in neither half of the tracing-overhead comparison.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

PERIOD_S = 0.25  # at most one probe per this much wall time
WINDOW_S = 1.0  # probes this close to an operation scale its time
REFERENCE_S = 5e-3  # probe time that defines the reference speed

_SMALL = np.random.default_rng(0).random((24, 24))
_VECTOR = np.random.default_rng(1).random(64)
_LARGE = np.random.default_rng(2).random((120, 120))
_ROWS = np.arange(1, 120, 2)
_COLS = np.arange(0, 120, 3)


def kernel() -> float:
    """The probe's fixed work, about 5 ms on the reference host: half
    interpreted, half compiled."""
    acc = 0.0
    table: dict[tuple[int, int], float] = {}
    for i in range(200):
        product = _SMALL @ _SMALL
        activated = np.tanh(_VECTOR * 0.5) + _VECTOR
        acc += float(product[0, 0]) + float(activated.sum())
        values = [float(a) for a in activated[:8]]
        for j, value in enumerate(values):
            table[(i, j)] = value * 2.0
        acc += sum(values) + len(table)
    for i in range(40):
        sub = _LARGE[np.ix_(_ROWS, _COLS)]
        acc += float(np.sort(_LARGE, axis=1)[0, i]) + float((sub @ sub.T)[0, 0])
    return acc


class SpeedProbe:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._last = -PERIOD_S

    def maybe_probe(self) -> float:
        """Run the probe unless it is off or ran less than ``PERIOD_S``
        ago; returns the wall time spent here."""
        begin = time.perf_counter()
        if not self.enabled or begin - self._last < PERIOD_S:
            return 0.0
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.seconds.append(end - start)
        self._last = end
        return end - begin

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` taken from ``start`` on, at the reference speed;
        unscaled when no probe ran."""
        if not self.seconds:
            return seconds
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return seconds * REFERENCE_S / statistics.fmean(near)

    def summary(self) -> dict:
        return {
            "reference_s": REFERENCE_S, "window_s": WINDOW_S, "period_s": PERIOD_S,
            "probes": len(self.seconds),
            "mean_s": statistics.fmean(self.seconds) if self.seconds else None,
            "series": [[s, d] for s, d in zip(self.starts, self.seconds)],
        }
