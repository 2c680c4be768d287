"""Host speed over a run, measured by a fixed kernel run between operations.

The benchmark was built on a 2-core virtual machine whose cores run the same
single-threaded work, in CPU time, up to 1.6 to 2 times slower at some times
than at others: sometimes in flickers shorter than a second, sometimes in
spells that last minutes, whatever the program does. Averaging over a run
removes the flickers but not a spell that outlasts the run. So between
operations a run times a fixed kernel of interpreted Python and JSON parsing,
code that never changes with opg, with the garbage collector off so that the
size of opg's heap does not reach into it. Of the kernels tried on that
machine (also numpy on small vectors and random reads from 8 and 32 MB
arrays), this one followed the pipeline's own CPU time most closely from run
to run. Samples are taken every ``SAMPLE_EVERY_S`` of CPU time, so their mean
is the run's average kernel time. Every reported time is a CPU time
multiplied by ``REFERENCE_S`` over that mean: CPU seconds at the speed at
which the kernel takes ``REFERENCE_S`` seconds. A change to opg changes the
operations' times and not the kernel's, so it shows in full. The report keeps
raw CPU and wall times beside the scaled figures.
"""

from __future__ import annotations

import gc
import json
import statistics

from workloads import CLOCK

# CPU seconds of one kernel call at the reference speed: a round figure near the
# lowest mean kernel time of a benchmark run on the build machine (Xeon at
# 2.1 GHz, KVM guest), so that scaled times read as CPU seconds there.
REFERENCE_S = 0.004

# A kernel sample is taken between operations once this much CPU time has passed since the last.
SAMPLE_EVERY_S = 0.1


class Speedometer:
    def __init__(self) -> None:
        self._doc = json.dumps(
            [{"grader": f"g{i}", "ranking": [f"item{j}" for j in range(i % 7, i % 7 + 7)], "w": i * 0.5} for i in range(300)]
        )
        self.kernel_s: list[float] = []
        self._last = CLOCK()

    def _kernel(self) -> None:
        counts: dict[int, int] = {}
        for i in range(20000):
            key = i % 97
            counts[key] = counts.get(key, 0) + (i * i) % 7
        for _ in range(5):
            json.loads(self._doc)

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = CLOCK()
            self._kernel()
            self._last = CLOCK()
        finally:
            if collecting:
                gc.enable()
        self.kernel_s.append(self._last - start)

    def tick(self) -> None:
        """Take a sample when ``SAMPLE_EVERY_S`` of CPU time has passed since the last one."""
        if not self.kernel_s or CLOCK() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor from this run's CPU seconds to reference seconds; needs at least one sample."""
        return REFERENCE_S / statistics.fmean(self.kernel_s)

    def summary(self) -> dict[str, float]:
        ks = sorted(self.kernel_s)
        return {
            "samples": len(ks),
            "kernel_mean_s": statistics.fmean(ks),
            "kernel_min_s": ks[0],
            "kernel_median_s": statistics.median(ks),
            "kernel_max_s": ks[-1],
            "reference_s": REFERENCE_S,
            "scale": self.scale(),
        }
