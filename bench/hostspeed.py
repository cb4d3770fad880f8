"""Host speed, measured with a fixed calibration kernel between pieces of work.

The shared 2-core host this benchmark was built on runs the same code at
speeds that differ by up to 1.75x, in phases of seconds to many minutes; a
0.2 s evaluation took anywhere from 0.20 to 0.43 s, and the import-bound
set-up slowed by the same factor as the solvers. The kernel below does what
the solvers do most (small complex eigendecompositions, solves and scalar
reductions driven from Python) on fixed operands, so its time tracks the
host's current speed and nothing in irsmimo. A time t measured while the
kernel takes c seconds is reported as t * REFERENCE_S / c: the time the
same work would take on a host that runs the kernel in REFERENCE_S.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

REFERENCE_S = 0.0023  # kernel time on the 2-core build host in its fast phase

_OPERANDS = []


def _operands():
    if not _OPERANDS:
        import numpy as np

        rng = np.random.default_rng(20201218)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        _OPERANDS.extend([np, x @ x.conj().T, b])
    return _OPERANDS


def kernel_s(reps: int = 30) -> float:
    """Seconds for `reps` rounds of eigh, projections, a scalar power curve
    and a shifted solve on fixed 8x8 complex operands."""
    np, a, b = _operands()
    shifted = a + np.eye(8)
    t0 = time.perf_counter()
    for _ in range(reps):
        w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
        row_power = np.sum(np.abs(v.conj().T @ b) ** 2, axis=1)
        for mu in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            float(np.sum(row_power / (w + mu) ** 2))
        np.linalg.solve(shifted, b)
    return time.perf_counter() - t0


def sample_s(repeats: int = 3) -> float:
    """The host's current speed: fastest of a few kernel runs (about 12 ms)."""
    return min(kernel_s() for _ in range(repeats))


def scaled(seconds: float, calibration_s: float) -> float:
    """A measured time restated at the reference host speed."""
    return seconds * REFERENCE_S / calibration_s


@contextmanager
def iteration_calibration(sink: list):
    """Take a host-speed sample after every offline BCD iteration.

    `irs_opt.offline_optimize_channels` calls `frozen_sum_rate` once, last,
    in each iteration; the sample follows that call and `sink` receives
    (sample start, sample end, kernel seconds), so the time between one
    sample's end and the next one's start is one iteration's work.
    """
    irs_opt = importlib.import_module("irsmimo.irs_opt")
    original = irs_opt.frozen_sum_rate

    @functools.wraps(original)
    def sampled(*args, **kwargs):
        result = original(*args, **kwargs)
        start = time.perf_counter()
        kernel = sample_s()
        sink.append((start, time.perf_counter(), kernel))
        return result

    irs_opt.frozen_sum_rate = sampled
    try:
        yield sink
    finally:
        irs_opt.frozen_sum_rate = original
