"""Host-speed calibration: a fixed pure-Python task timed between runs.

A shared host's speed drifts by tens of percent over seconds to minutes.
The benchmark times this task, which shares no code with the program, every
INTERVAL_S while it measures, and scales each run's time by ``NOMINAL_S /
median(task time)`` over the NEIGHBOURS task samples nearest to that run:
seconds on a host where the task takes ``NOMINAL_S``.  A change to the
program moves the scaled times as much as the raw ones; a drift of the host
moves the task too and cancels.  The raw figures stay in the record.

The task runs in a helper process of its own, started once and idle between
samples, so its time depends on the host and not on the heap or caches the
program left behind; the benchmark waits for each sample, so the two never
compete for a core.  The task is watched-literal unit propagation over a
fixed random 3-CNF under fixed decision sequences, the same kind of
interpreter work (list indexing, small-int compares, appends) as the
solver's propagation.

Run as a script, this file is the helper: it answers each line on standard
input with the task's time and result, and exits at end of input.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import subprocess
import sys
import time

# median task time on a 2-vCPU Xeon VM (Python 3.11) in a quiet phase
NOMINAL_S = 0.02
INTERVAL_S = 0.5
MAX_BURST = 6
NEIGHBOURS = 15
WARMUP = 3


class Task:
    def __init__(self, nvars: int = 600, nclauses: int = 2400,
                 decisions: int = 300, sweeps: int = 15):
        rng = random.Random("perfbench-calibration")
        self.nvars = nvars
        self.clauses = [[rng.choice((1, -1)) * v
                         for v in rng.sample(range(1, nvars + 1), 3)]
                        for _ in range(nclauses)]
        self.plans = [[rng.choice((1, -1)) * rng.randrange(1, nvars + 1)
                       for _ in range(decisions)] for _ in range(sweeps)]

    def run(self) -> int:
        """Propagate every plan from scratch; the number of implied literals."""
        nvars, total = self.nvars, 0
        for plan in self.plans:
            value = [0] * (nvars + 1)
            watches = [[] for _ in range(2 * nvars + 2)]
            clauses = [c[:] for c in self.clauses]
            for c in clauses:
                watches[-c[0]].append(c)
                watches[-c[1]].append(c)
            trail = []
            for d in plan:
                if value[abs(d)]:
                    continue
                value[abs(d)] = 1 if d > 0 else -1
                trail.append(d)
                q = len(trail) - 1
                while q < len(trail):
                    lit = trail[q]
                    q += 1
                    ws = watches[-lit]
                    i = 0
                    while i < len(ws):
                        c = ws[i]
                        if c[0] == -lit:
                            c[0], c[1] = c[1], c[0]
                        first = c[0]
                        v = value[abs(first)] * (1 if first > 0 else -1)
                        if v == 1:
                            i += 1
                            continue
                        other = c[2]
                        if value[abs(other)] * (1 if other > 0 else -1) != -1:
                            c[1], c[2] = c[2], c[1]
                            watches[-c[1]].append(c)
                            ws[i] = ws[-1]
                            ws.pop()
                            continue
                        if v == 0:
                            value[abs(first)] = 1 if first > 0 else -1
                            trail.append(first)
                            total += 1
                        i += 1
        return total


def serve():
    """Helper loop: per request, one untimed pass that refills the caches,
    then one timed pass."""
    gc.disable()
    task = Task()
    for _ in range(WARMUP):
        task.run()
    for _ in sys.stdin:
        task.run()
        t0 = time.perf_counter()
        done = task.run()
        print(time.perf_counter() - t0, done, flush=True)


class Calibration:
    """Handle on the helper process.  Use it as a context manager, so that
    the helper is stopped and waited for on every path."""

    def __init__(self):
        self.times: list[float] = []
        self.stamps: list[float] = []
        self._result = None
        self._last = float("-inf")
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def sample(self) -> float:
        """Time the task once in the helper and keep the time."""
        self._proc.stdin.write("\n")
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        elapsed, done = line.split()
        if self._result is None:
            self._result = done
        elif done != self._result:
            raise RuntimeError("calibration task is not deterministic")
        self._last = time.perf_counter()
        self.times.append(float(elapsed))
        self.stamps.append(self._last)
        return float(elapsed)

    def tick(self):
        """Sample once per INTERVAL_S passed since the last sample, at most
        MAX_BURST times, so runs longer than the interval keep the rate."""
        due = (time.perf_counter() - self._last) / INTERVAL_S
        for _ in range(min(int(due), MAX_BURST)):
            self.sample()

    def scale(self) -> float:
        """Factor from this run's seconds to nominal-host seconds."""
        return NOMINAL_S / statistics.median(self.times)

    def scale_at(self, t: float) -> float:
        """The factor at perf_counter time ``t``, from the NEIGHBOURS
        samples nearest to it, so a slow spell within the run is scaled by
        the speed it had."""
        k = min(NEIGHBOURS, len(self.times))
        i = bisect.bisect(self.stamps, t)
        lo = max(0, min(i - k // 2, len(self.times) - k))
        return NOMINAL_S / statistics.median(self.times[lo:lo + k])


if __name__ == "__main__":
    serve()
