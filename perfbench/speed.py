"""Host-speed probe: a fixed reference workload timed beside the program.

On a shared host the CPU's speed drifts by tens of percent within
seconds and over minutes, and every wall-clock figure of a run drifts
with it: in five 4-shard serving runs one after another the saturated
throughput fell from 2770 to 1690 requests/s while the program stayed
the same. :class:`SpeedProbe` keeps a helper process (plain Python; it
never imports the program) that times the same fixed work whenever the
workload pauses between its own measurements, so each run records how
fast the host was while it ran. The program is idle while the helper
works, so it cannot slow the probe down.

The reference work parses and walks a fixed piece of Python source:
interpreter-bound, like most of the program's time. Timed next to
0.75-second slices of the program on a 2-vCPU host, it tracked the
program better than a NumPy gather-and-product reference (correlation
0.72-0.77 against 0.3-0.6 for serving latency, saturated serving rate
and training steps), and dividing by it narrowed the spread of 15- to
25-second blocks of those slices from 0.10-0.13 to 0.01-0.06.

:meth:`SpeedProbe.factor` turns the samples into a host-speed factor:
:data:`NOMINAL_S` over the mean reference time. ``run.py`` multiplies
every end-to-end time by it (and divides throughput by it), which
reports the figures a host of nominal speed would have measured.

Run as a script, this module is the helper: it reads one line per
sample from standard input and answers with the seconds the reference
work took.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

# Size of the reference work: ~0.1 s per sample on a 2-vCPU host.
TEXT_FUNCTIONS = 1000
# Reference seconds of a host of nominal speed: about the mean on the
# 2-vCPU host the bounds were set on. It only fixes the scale.
NOMINAL_S = 0.07


def _reference():
    import ast

    text = "\n".join(f"def f{i}(a, b):\n    return [a * k + b for k in "
                     f"range({i % 7})]" for i in range(TEXT_FUNCTIONS))

    def work() -> float:
        began = perf_counter()
        counts: dict[str, int] = {}
        for node in ast.walk(ast.parse(text)):
            name = type(node).__name__
            counts[name] = counts.get(name, 0) + 1
        return perf_counter() - began

    return work


def serve() -> None:
    work = _reference()
    work()  # first-touch allocations
    for _ in sys.stdin:
        print(f"{work():.9f}", flush=True)


class SpeedProbe:
    """The helper process; :meth:`sample` times reference runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            self.samples.append(float(self._proc.stdout.readline()))

    def factor(self) -> float:
        """Nominal over measured reference time: below 1 on a slow host.

        The measured time is the samples' geometric mean: the host
        switches between fast and slow stretches, and the mean follows
        the mix of them that the run saw, where the median jumps from
        one to the other; a single stalled sample moves it little.
        """
        return NOMINAL_S / math.exp(statistics.fmean(map(math.log,
                                                         self.samples)))

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> SpeedProbe:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
