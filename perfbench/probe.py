"""Machine-speed probe: a fixed piece of numpy and Python work.

The benchmark's host is shared, and its speed changes from one second to
the next: one probe takes 3 ms for a while and then 5 ms, and the same op
has taken 30 ms and then 20 ms a minute later.  The probe measures that
speed.  It imports nothing from hamstat, so a change to the program cannot
change it, and it mixes the kinds of work the program does: 4 x 4 complex
products in a Python loop (the Lax flow and the Wilson iteration), batched
small-matrix einsums and FFTs over loop samples (the loop factorizations),
complex exponentials over a grid (the mode sums), a least-squares solve
(the Birkhoff block-Toeplitz system) and float formatting (the mesh
writers).

:func:`speed` runs the probe a few times and returns the median CPU time
of one probe divided by :data:`NOMINAL_S`; ``speed() > 1`` means the
machine runs slower than the reference machine at that moment.
:class:`Clock` probes between ops and inside long ones, and turns an op's
CPU time into time at reference speed.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

# CPU seconds of one probe on the reference machine (2-core Xeon sandbox,
# Python 3.11, numpy 2.4, one BLAS thread), where it took 3-5 ms
NOMINAL_S = 4.0e-3

_rng = np.random.default_rng(20260917)
_MATS = _rng.normal(size=(16, 4, 4)) + 1j * _rng.normal(size=(16, 4, 4))
_BATCH = _rng.normal(size=(128, 4, 4)) + 1j * _rng.normal(size=(128, 4, 4))
_VEC = _rng.normal(size=(128, 4)) + 1j * _rng.normal(size=(128, 4))
_GRID = _rng.uniform(size=(64, 64)) + 1j * _rng.uniform(size=(64, 64))
_FREQS = _rng.normal(size=4) + 1j * _rng.normal(size=4)
_LSQ = _rng.normal(size=(64, 32)) + 1j * _rng.normal(size=(64, 32))
_RHS = _rng.normal(size=64) + 1j * _rng.normal(size=64)
_FLOATS = _rng.uniform(-1.0, 1.0, size=(300, 3))


def probe() -> float:
    """One probe; returns a number so the work cannot be skipped."""
    acc = np.eye(4, dtype=complex)
    s = 0.0
    for i in range(120):                                 # RK / Wilson style
        acc = acc @ _MATS[i % 16]
        acc = acc / np.abs(acc).max()
        s += acc[0, 0].real * 0.5
    for _ in range(6):                                   # loop samples
        prod = np.einsum("mij,mjk->mik", _BATCH, _BATCH)
        vec = np.einsum("mij,mj->mi", prod, _VEC)
        s += float(np.abs(np.fft.ifft(np.fft.fft(vec, axis=0), axis=0)).sum())
    out = np.zeros(_GRID.shape, dtype=complex)           # mode sums
    for f in _FREQS:
        out += np.exp(2j * np.pi * (np.conj(f) * _GRID).real)
    s += float(np.abs(out).sum())
    sol = np.linalg.lstsq(_LSQ, _RHS, rcond=None)[0]     # Toeplitz solve
    s += float(np.abs(sol).sum())
    text = "".join("v %.9f %.9f %.9f\n" % tuple(row) for row in _FLOATS)
    return s + len(text)


def speed(reps: int) -> float:
    """Median CPU time of one probe over ``reps`` probes, as a multiple of
    :data:`NOMINAL_S`."""
    return statistics.median(probe_times(reps)) / NOMINAL_S


def probe_times(reps: int) -> list[float]:
    """CPU seconds of each of ``reps`` probes."""
    out = []
    for _ in range(reps):
        t0 = time.process_time()
        probe()
        out.append(time.process_time() - t0)
    return out


class Clock:
    """Op time in reference seconds, with probe bursts between ops and
    inside long ops.

    It stands in for the tracer of ``workloads``: ``run(item, clock)``
    calls ``span`` around each call into a layer.  When a top-level span
    ends and at least ``min_segment`` CPU seconds of op time have passed
    since the last burst, the clock stops, a burst runs, and the clock goes
    on.  So an op is cut into segments, and each segment is bracketed by
    two bursts.  A segment's time at reference speed is its CPU time
    divided by the mean speed of those two bursts; an op's is the sum over
    its segments.  A burst takes about ``share`` of the segment before it,
    1 to ``max_probes`` probes.
    """

    enabled = False              # no spans are recorded

    def __init__(self, share: float, max_probes: int, min_segment: float):
        self.share = share
        self.max_probes = max_probes
        self.min_segment = min_segment
        self.depth = 0
        self.speeds = [speed(1)]
        self._segments: list[tuple[float, float]] = []    # (cpu, wall)
        self._c0 = self._w0 = 0.0

    def start(self):
        self._segments = []
        self._c0, self._w0 = time.process_time(), time.perf_counter()

    def stop(self) -> tuple[float, float, float]:
        """Ends the op with a burst; returns its CPU seconds, wall seconds
        and seconds at reference speed."""
        self._cut()
        first = len(self.speeds) - len(self._segments) - 1
        ref = sum(c / (0.5 * (self.speeds[first + k]
                              + self.speeds[first + k + 1]))
                  for k, (c, _) in enumerate(self._segments))
        return (sum(c for c, _ in self._segments),
                sum(w for _, w in self._segments), ref)

    def _cut(self):
        cpu = time.process_time() - self._c0
        wall = time.perf_counter() - self._w0
        self._segments.append((cpu, wall))
        reps = round(self.share * cpu / NOMINAL_S)
        self.speeds.append(speed(min(self.max_probes, max(1, reps))))
        self._c0, self._w0 = time.process_time(), time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        self.depth += 1
        try:
            yield None
        finally:
            self.depth -= 1
        if (self.depth == 0
                and time.process_time() - self._c0 >= self.min_segment):
            self._cut()

    def wrap(self, name: str, fn, count=None):
        return fn
