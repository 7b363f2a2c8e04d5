"""Host-speed normalisation of the gated timings.

A small shared virtual machine changes speed by up to a factor of two
within seconds, for every kind of work alike, so a raw timing reads the
host as much as the program.  A ``Sampler`` thread runs a fixed
pure-Python reference task (no ``repro`` code) every ``INTERVAL_S``
seconds and times it in CPU time of its own thread, so waiting for the
GIL does not count.  A timing taken at time ``t`` is then scaled by
``REFERENCE_S / reference(t)``: it reads as on a host where the
reference task takes ``REFERENCE_S``.  The program's own work never
enters the reference, so a slower program still reads slower.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

#: Seconds between reference samples.
INTERVAL_S = 0.05
#: Samples on each side that smooth one sample's reading (a median of 5).
SMOOTH = 2
#: The reference task's nominal CPU time: timings are scaled to a host
#: on which the task takes this long.
REFERENCE_S = 1e-3

_WORDS = tuple(f"w{i % 97}x{i % 13}" for i in range(1600))


def reference() -> int:
    """Fixed interpreter work of the kinds the program does: hashing,
    dict and list traffic, string building, sorting and small tuples."""
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    rows = [(counts[word], word, len(word)) for word in _WORDS]
    rows.sort()
    text = ",".join(f"{n}:{w}" for n, w, _ in rows[:800])
    return len(text) + sum(n * k for n, _, k in rows)


class Sampler:
    """Times ``reference`` every ``INTERVAL_S`` s in a daemon thread."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def start(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _sample(self) -> None:
        started = time.thread_time()
        reference()
        cost = time.thread_time() - started
        self.times.append(time.perf_counter())
        self.costs.append(cost)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def scales(self) -> list[float]:
        """``REFERENCE_S`` over each sample's smoothed reference cost."""
        smoothed = []
        for k in range(len(self.costs)):
            window = self.costs[max(0, k - SMOOTH):k + SMOOTH + 1]
            smoothed.append(REFERENCE_S / statistics.median(window))
        return smoothed

    def scaler(self):
        """A function from a ``perf_counter`` time to the scale nearest it."""
        times, scales = self.times, self.scales()

        def scale_at(t: float) -> float:
            k = bisect.bisect_left(times, t)
            if k == len(times) or (k > 0 and t - times[k - 1] < times[k] - t):
                k -= 1
            return scales[k]

        return scale_at

    def mean_scale(self, start: float, end: float) -> float:
        """The mean scale over ``[start, end]`` (samples are evenly spaced)."""
        scale_at = self.scaler()
        inside = [scale_at(t) for t in self.times if start <= t <= end]
        return statistics.fmean(inside) if inside else scale_at((start + end) / 2)
