"""Machine-speed calibration for the end-to-end timings.

The machines this runs on are shared, and their speed drifts by tens of
percent within a minute. After every query, and before every set-up sample,
the harness times a fixed kernel of interpreter and small numpy work that
does not touch tablebounds. A measurement is then scaled by REF_S over the
median of the calibrations taken around it: it reads as it would on a
machine where the kernel takes REF_S. A change to tablebounds moves the
measurement and not the kernel, so it still shows in full.
"""

import statistics
from time import perf_counter

import numpy as np

LOOPS = 40  # about 0.35 ms here
REF_S = 4e-4
WINDOW = 5  # calibrations whose median scales one measurement
_INPUT = np.arange(64)


def calibrate():
    """Seconds the calibration kernel takes now. It interleaves small numpy
    calls with a pure-Python list loop, as the library's formulas and its DFS
    do; on the box it was tuned on it tracked the speed of each workload
    better than either half alone."""
    t0 = perf_counter()
    x = 0
    row = [0] * 64
    for i in range(LOOPS):
        x += int(np.minimum(_INPUT, i).sum())
        for j in range(60):
            row[j] += i
            if row[j] > x:
                x = row[j]
    return perf_counter() - t0


def adjust(seconds, calibrations):
    return seconds * REF_S / statistics.median(calibrations)


def adjust_series(values, calibrations):
    """Adjust each value by the WINDOW calibrations centred on it."""
    k = WINDOW // 2
    return [adjust(v, calibrations[max(0, i - k):i + k + 1]) for i, v in enumerate(values)]
