"""Machine-speed references for rescaling wall times.

The speed of the virtual machines this benchmark runs on drifts by 15-40%
over seconds to minutes (see README.md, "Steadiness").  A fixed reference
that imports nothing from apportion is timed next to the operations, and
every timed interval is multiplied by the reference's nominal time over its
median time around the interval.  Work done in this process is referred to
``kernel`` (small complex matrix products, inverses and reductions in
numpy); work done in child processes to ``child_kernel`` (a fresh
interpreter that imports numpy).  A change to apportion moves the
operations and not the reference, so it shows in full; drift moves both.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

#: nominal times of ``kernel()`` and ``child_kernel()``: fixed, within 10% of
#: their medians on the machine where the baseline was taken
KERNEL_S = 1.5e-3
CHILD_KERNEL_S = 0.2
#: samples on each side of an interval that its scale is taken over
WINDOW = 3

_rng = np.random.default_rng(20250828)
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) + 4 * np.eye(4)


def kernel() -> float:
    """Seconds taken by one run of the fixed reference kernel: small complex
    inverses, products and reductions, each a numpy call of a few microseconds.
    """
    start = perf_counter()
    for _ in range(60):
        x = np.linalg.inv(_SMALL) @ _SMALL
        float(np.abs(x).max())
        complex(x.mean())
    return perf_counter() - start


def child_kernel() -> float:
    """Seconds taken to start a fresh interpreter that imports numpy."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - start


class SpeedTrack:
    """Reference samples taken along a run, and the scale factor they imply.

    ``child`` selects the reference for work done in child processes.
    """

    def __init__(self, child: bool = False):
        if child:
            self.measure, self.nominal, self.repeats = child_kernel, CHILD_KERNEL_S, 1
        else:
            self.measure, self.nominal, self.repeats = kernel, KERNEL_S, 3
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the reference now (median of its repeats); returns the sample index.

        In-process, one untimed run of the kernel goes first.  It absorbs what
        the operation before it left behind, which slows the first run by
        3-10% depending on that operation (see README.md, "Steadiness").
        """
        if self.measure is kernel:
            kernel()
        self.samples.append(statistics.median(self.measure() for _ in range(self.repeats)))
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Nominal time over the median reference time of the samples near ``index``."""
        lo = max(0, index - WINDOW)
        near = self.samples[lo:index + WINDOW + 1]
        return self.nominal / statistics.median(near)

    def level(self) -> float:
        """Median reference time over the run, as a multiple of the nominal time."""
        return statistics.median(self.samples) / self.nominal
