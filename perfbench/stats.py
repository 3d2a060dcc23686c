"""Summary statistics, host facts and host speed for the benchmark.

Three rules live here so every workload applies them the same way:

* **The percentile rule.**  A timing is reported as a median plus the
  highest percentile that still has at least :data:`MIN_BEYOND` samples
  beyond it.  :func:`percentile` computes the value and
  :func:`samples_beyond` / :func:`percentile_supported` say whether the
  sample is large enough for it to mean anything.
* **Relative spread.**  :func:`spread` is the distance between the first
  and third quartile as a share of the median, the statistic the
  benchmark's bounds are stated against.
* **Host speed.**  :class:`HostSpeed` times a fixed reference probe between
  a run's timed calls, and each timing is reported at the probe's nominal
  speed, using the probes taken around it, because this host's throughput
  swings by up to 1.7x over minutes and moves from call to call.
  :class:`StartupSpeed` does the same for set-up, with a fresh interpreter
  as its probe.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

__all__ = [
    "MIN_BEYOND",
    "HostSpeed",
    "StartupSpeed",
    "host_facts",
    "median",
    "percentile",
    "percentile_supported",
    "samples_beyond",
    "spread",
    "summarize",
]

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linear interpolation.

    Uses the same ``exclusive`` interpolation as
    ``statistics.quantiles(values, n=100)``, so the value can be checked
    against the standard library; a single sample is its own percentile.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if len(data) == 1:
        return data[0]
    pos = (len(data) + 1) * q / 100.0  # 1-based rank, exclusive method
    if pos <= 1.0:
        return data[0]
    if pos >= len(data):
        return data[-1]
    lo = int(math.floor(pos))
    frac = pos - lo
    return data[lo - 1] + (data[lo] - data[lo - 1]) * frac


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    pos = (n + 1) * q / 100.0  # the percentile sits at or above rank floor(pos)
    return max(0, min(n, n - int(math.floor(pos))))


def percentile_supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples are enough to report the ``q``-th percentile."""
    return samples_beyond(n, q) >= min_beyond


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else float("inf")


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and relative spread of one metric across runs."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": float(statistics.median(values)),
        "q1": float(q1),
        "q3": float(q3),
        "spread": spread(values),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_facts() -> dict:
    """What a reader needs to compare numbers across hosts."""
    import numpy as np

    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "loadavg_at_start": load,
    }


class HostSpeed:
    """How fast this host runs right now, from a fixed reference probe.

    The host's throughput drifts by tens of percent over minutes (on a
    2-CPU Xeon VM the same cell took 116 to 208 ms with CPU time equal to
    wall time, and the probe itself read 0.69x to 1.29x its nominal time),
    far more than any run can average out.  A workload calls :meth:`probe` between
    its timed calls; each timing is then rescaled to a host running the
    probe in :data:`NOMINAL_S` by dividing it by :meth:`local_slowdown` of
    the probe taken just before it.  Rescaling by the probes around each
    call rather than by the run's median (:attr:`slowdown`) halved the
    run-to-run spread of the grid step percentiles on that host (0.15-0.17
    down to 0.06-0.10 over ten seeds), because the speed moves within a
    run.  The probe is the benchmark's own code (Python dict churn and small
    single-threaded numpy operations, the mix the tracker hot paths run),
    so no change to the program can move it.
    """

    #: probe seconds on the reference host (2-CPU Xeon, Python 3.11, numpy 2.4)
    NOMINAL_S = 0.0021

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._xy = rng.random((2, 2000))
        self.samples: list[float] = []

    def probe(self) -> None:
        """Time the reference work; keep the fastest of a few back-to-back
        rounds, so a core that just woke from idle does not read as slow."""
        import numpy as np

        x, y = self._xy
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            acc: dict[int, int] = {}
            for i in range(1500):
                acc[i & 255] = acc.get(i & 255, 0) + i
            for _ in range(8):
                d = np.hypot(x - 0.5, y - 0.5)
                order = np.argsort(d, kind="stable")
                np.cumsum(d[order][:500])
                np.flatnonzero(d < 0.3)
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)

    @property
    def slowdown(self) -> float:
        """Median probe time over the nominal one (> 1: slower than nominal)."""
        return median(self.samples) / self.NOMINAL_S

    def local_slowdown(self, index: int, half_width: int = 2) -> float:
        """The slowdown around probe ``index``: the median of the probes
        from ``index - half_width`` to ``index + half_width``."""
        window = self.samples[max(0, index - half_width):index + half_width + 1]
        return median(window) / self.NOMINAL_S


class StartupSpeed:
    """How fast this host starts a Python process right now.

    Set-up is fresh interpreters importing the program (grids) or spawned
    workers doing so (service): loading files and libraries, on more than
    one CPU.  :class:`HostSpeed`'s single-threaded probe does not follow
    that: on a 2-CPU Xeon VM, dividing ten back-to-back grid set-ups by it
    widened their spread from 0.12 to 0.24, and over ten runs scaled
    ``setup_s`` spread 0.16-0.40.  This probe is a fresh interpreter that
    imports numpy (fastest of two), the benchmark's own work, so no change
    to the program can move it.  A workload probes before its first set-up
    and after each one; :meth:`rescale` divides each set-up by the mean of
    the probes on either side and reports it at :data:`NOMINAL_S`.
    """

    #: probe seconds on the reference host (2-CPU Xeon, Python 3.11, numpy 2.4)
    NOMINAL_S = 0.15

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                           stdout=subprocess.DEVNULL, timeout=60)
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)

    def rescale(self, setups: Sequence[float]) -> list[float]:
        """``setups[i]`` ran between probes ``i`` and ``i + 1``."""
        if len(self.samples) != len(setups) + 1:
            raise ValueError(f"{len(setups)} set-ups need {len(setups) + 1} probes, "
                             f"got {len(self.samples)}")
        return [
            t * self.NOMINAL_S / ((before + after) / 2)
            for t, before, after in zip(setups, self.samples, self.samples[1:])
        ]
