"""Reference kernel and drift-normalized timing.

The 2-vCPU machine this benchmark was written on, shared with other work,
changes speed by up to 1.8x, and CPU time drifts with wall time. Every
timing is therefore taken next to a fixed reference kernel: the kernel runs
between ops, and each op's wall time is rescaled to the speed at which the
kernel takes ``KERNEL_NOMINAL_MS``. The kernel mixes
interpreted float code with small and 1025-point numpy calls, the same mix
as the solver, and never calls the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_NOMINAL_MS = 1.0
KERNEL_EVERY_S = 0.02  # op time between kernel runs
EDGE_RUNS = 3  # kernel runs before the first op and after the last
MAX_BATCH = 50  # kernel runs after one op, at most
LEAST_RUNS = 5  # kernel runs in kernel_mean_ms, at least
_XS = np.linspace(0.0, 1.0, 257)
_XL = np.linspace(0.0, 1.0, 1025)


def ref_kernel() -> float:
    """Fixed work of about 1 ms; returns a checksum so nothing is skipped."""
    acc = 0.0
    for j in range(40):
        a, b = 0.0, 3.0
        c = 1.0 + j * 0.01
        for _ in range(30):
            m = 0.5 * (a + b)
            if c / (1.0 + m) - 0.5 > 0.0:
                a = m
            else:
                b = m
        acc += float(np.cumsum(np.log1p(_XS * c))[-1]) + a
        acc += float(np.searchsorted(_XS, 0.3 + 0.001 * j))
    for j in range(20):
        y = np.exp(-_XL * (1.0 + j * 0.01))
        acc += float(np.cumsum(y * 0.5)[-1])
        acc += float(np.unique(np.concatenate([_XL, _XL[:5]]))[3])
    return acc


def kernel_mean_ms(seconds: float) -> float:
    """Mean kernel time in milliseconds over at least LEAST_RUNS runs and
    ``seconds`` of kernel time; the first run, which pays first-call costs,
    is left out."""
    ref_kernel()
    runs = []
    while len(runs) < LEAST_RUNS or sum(runs) < seconds:
        t0 = time.perf_counter()
        ref_kernel()
        runs.append(time.perf_counter() - t0)
    return 1e3 * sum(runs) / len(runs)


class DriftClock:
    """Times ops and runs the reference kernel between them.

    After an op, the kernel runs once per KERNEL_EVERY_S seconds of op time
    since the last batch, so kernel samples cover a fixed share of the run
    whatever the op length. One batch of EDGE_RUNS runs comes before the
    first op and one more from ``finish``. An op is normalized by the mean
    kernel time of the batches just before and just after it.
    """

    def __init__(self):
        self.batches: list[list[float]] = []
        self._ops: list[tuple[float, int]] = []  # (raw seconds, batch index before)
        self._since = 0.0
        self._sample(EDGE_RUNS)

    def _sample(self, runs: int) -> None:
        batch = []
        for _ in range(runs):
            t0 = time.perf_counter()
            ref_kernel()
            batch.append(1e3 * (time.perf_counter() - t0))
        self.batches.append(batch)

    def record(self, raw_s: float) -> None:
        """Log one op's wall time; run the kernel when due."""
        self._ops.append((raw_s, len(self.batches) - 1))
        self._since += raw_s
        due = int(self._since / KERNEL_EVERY_S)
        if due:
            self._sample(min(due, MAX_BATCH))
            self._since -= due * KERNEL_EVERY_S

    def finish(self) -> None:
        """Take the closing batch."""
        self._sample(EDGE_RUNS)

    @property
    def raw_s(self) -> list[float]:
        return [raw for raw, _ in self._ops]

    def factor(self, idx: int) -> float:
        """Nominal over local kernel time around batch ``idx``."""
        around = self.batches[idx] + self.batches[idx + 1]
        return KERNEL_NOMINAL_MS * len(around) / sum(around)

    @property
    def norm_s(self) -> list[float]:
        return [raw * self.factor(idx) for raw, idx in self._ops]

    @property
    def samples_ms(self) -> list[float]:
        return [k for batch in self.batches for k in batch]

    @property
    def kernel_ms(self) -> float:
        return statistics.median(self.samples_ms)


def p95(values) -> float:
    return statistics.quantiles(values, n=20)[18]
