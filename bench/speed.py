"""The host's speed, from a fixed piece of pure-Python work timed between jobs.

The machines the benchmark runs on are shared, and their speed on the same
work drifts by up to 1.7x over minutes.  A run therefore times
``reference_work`` before every job and set-up and once a second while a
job runs.  It reports its times rescaled, by the mean CPU time of these
samples, to the speed at which the reference work takes ``REF_CPU_S``.
A change to the program moves the job times and not the reference, so it
moves the rescaled times by the same share as the raw ones.

The reference work is the kind of work the program does: words as tuples
of letter names, leftmost rewriting against a dict of rules, and a dict of
about a thousand normal forms.
"""

from __future__ import annotations

import itertools
import statistics
from time import perf_counter, process_time

# Mean CPU time of one reference_work() on the 2-core machine that the
# README's timings come from (Python 3.11.7).
REF_CPU_S = 0.027

_LETTERS = ("x0", "x1", "x2")
# A complete system: x1 x0 -> x0 x1, x2 x0 -> x0 x2, x2 x1 -> x1 x2, x0 x0 x0 -> x0.
_RULES = {
    ("x1", "x0"): ("x0", "x1"),
    ("x2", "x0"): ("x0", "x2"),
    ("x2", "x1"): ("x1", "x2"),
    ("x0", "x0", "x0"): ("x0",),
}
_MAX_LEN = 6


def _normal_form(word: tuple[str, ...]) -> tuple[str, ...]:
    while True:
        for start in range(len(word)):
            for lhs, rhs in _RULES.items():
                if word[start:start + len(lhs)] == lhs:
                    word = word[:start] + rhs + word[start + len(lhs):]
                    break
            else:
                continue
            break
        else:
            return word


def reference_work() -> int:
    """Normal forms of all words up to length 6 over three letters; returns
    the number of distinct normal forms, which is always the same."""
    forms: dict[tuple[str, ...], tuple[str, ...]] = {}
    for length in range(1, _MAX_LEN + 1):
        for word in itertools.product(_LETTERS, repeat=length):
            forms[word] = _normal_form(word)
    return len(set(forms.values()))


class Speedometer:
    """Wall and CPU times of the reference_work() samples of a run."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def sample(self) -> None:
        wall, cpu = perf_counter(), process_time()
        reference_work()
        self.cpus.append(process_time() - cpu)
        self.walls.append(perf_counter() - wall)

    # CPU time, not wall time: a sample's wall time also holds waits for
    # the host that the jobs, which run for seconds, meet far less (the
    # samples' wall time exceeded their CPU time by 5-27%, the jobs' by
    # 0-10%).  The mean, not the median: a sample takes 17-35 ms of CPU
    # from one moment to the next on a shared host, and a run's time is
    # the sum over all such moments.
    def factor(self) -> float:
        """Multiplier that rescales the run's times to the reference speed."""
        return REF_CPU_S / statistics.fmean(self.cpus)
