"""A fixed reference loop that tracks how fast the machine runs right now.

On a shared machine the same code runs up to 30% slower for minutes at a
time, so raw wall times of one commit spread more between runs than the
bounds in BENCHMARK.json allow. The pipeline runs this loop before and
after each timed phase, and inside it for one unit after every
INTERVAL_S of work (after a training step or an eval request). It divides
the phase's wall time, less the loop's own time, by the loop's slowdown
over the phase: a timing then reads in seconds at the reference speed.
The loop calls nothing in snoic, so a change to the program still moves
the metrics while a change in the machine's speed mostly cancels out.

The loop mixes the kinds of work snoic does: tokenising strings in
Python, small matmuls, exp and a layer-norm-like reduction.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Duration of one unit at the reference speed. It only fixes the scale
# of the adjusted timings: about the median of a unit on the 2-vCPU
# machine the figures in README.md come from.
UNIT_S = 0.006

PHASE_UNITS = 3  # units run before and after each timed phase
INTERVAL_S = 0.05  # work between two samples inside a phase
WARMUP_UNITS = 10

_WORDS = "please book me a table for two tomorrow evening near the old station".split()


@dataclass
class Phase:
    raw_s: float  # wall time, less any probe time inside the phase
    slowdown: float  # how many times slower than the reference speed

    @property
    def s(self) -> float:
        """Seconds at the reference speed."""
        return self.raw_s / self.slowdown


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((1024, 64))
        self._w = rng.standard_normal((64, 64)) / 8
        self._vocab = {w: i for i, w in enumerate(_WORDS)}
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent in the loop so far
        for _ in range(WARMUP_UNITS):  # the first units run slow
            self._unit()
        self._last = perf_counter()

    def _unit(self) -> float:
        ids = [self._vocab.get(w, 0) for _ in range(600) for w in " ".join(_WORDS).lower().split()]
        h = self._x
        for _ in range(2):  # bulk arithmetic, as in a batch of 128 at T32
            h = np.exp(-np.abs(h @ self._w))
            h = (h - h.mean(axis=1, keepdims=True)) / (h.std(axis=1, keepdims=True) + 1e-5)
        s = self._x[:32]
        for _ in range(120):  # many small calls, where per-call overhead dominates
            s = np.tanh(s @ self._w) + s.mean(axis=1, keepdims=True)
        return float(h[0, 0] + s[0, 0]) + len(ids)

    def sample(self, units: int = 1) -> None:
        """Run `units` units and record their mean duration."""
        t0 = perf_counter()
        for _ in range(units):
            self._unit()
        self._last = perf_counter()
        dt = self._last - t0
        self.spent += dt
        self.samples.append(dt / units)

    def tick(self) -> None:
        """Sample one unit if INTERVAL_S has passed since the last sample."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def ticking(self, fn):
        """fn, followed by a tick on every call."""
        def probed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.tick()

        return probed

    @contextmanager
    def timed(self):
        """Time the block as a Phase. Its slowdown is the mean of the
        samples taken just before, inside and just after it; time spent in
        samples inside the block is not counted."""
        self.sample(PHASE_UNITS)
        first, spent = len(self.samples) - 1, self.spent
        phase = Phase(0.0, 1.0)
        t0 = perf_counter()
        yield phase
        phase.raw_s = perf_counter() - t0 - (self.spent - spent)
        self.sample(PHASE_UNITS)
        window = self.samples[first:]
        phase.slowdown = sum(window) / len(window) / UNIT_S
