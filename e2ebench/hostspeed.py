"""Host-speed correction for the end-to-end timings.

The small shared hosts this benchmark runs on drift in speed by 15-35 %
over seconds to tens of seconds (a fixed Python loop measured in
4-second windows ranged from 23 to 31 ms), more than the bounds the
timings are held to.  So while a workload runs, one child process per
CPU times a small fixed probe of interpreter work ten times a second,
at the highest CPU priority it is allowed, and each measured interval
is corrected by the probes around it:

    raw seconds * REFERENCE_PROBE_S / median(probes within 1 s of the interval)

that is, seconds on a host where the probe takes ``REFERENCE_PROBE_S``.
Over ten spatial runs, seeds 0-9, the quartile spread of the median
join time was 5.8 % raw and 4.3 % corrected; at a noisier time the raw
medians of another ten spanned 0.43-0.63 s.  The probe runs no code of
the program under test, so a change to the program moves corrected and
raw times alike; raw medians are kept in each run's notes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple


# The probe's duration on the 2-vCPU host the bounds were tuned on.
REFERENCE_PROBE_S = 0.002

# The probe process's cadence, and how far around an interval its probes count.
PROBE_PERIOD_S = 0.1
PROBE_WINDOW_S = 1.0


def probe() -> float:
    """Seconds that a fixed piece of interpreter work takes.

    Of the probes tried against
    the spatial join over 90 s (interpreter loop, small sorts, a 32 MB
    array pass, tuple allocation), the interpreter loop tracked it best:
    per 15-second window the join took 0.52-0.64 s while join time over
    loop time stayed within 136-140.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(25_000):
        acc += i * i
    return time.perf_counter() - t0


class ProbeProcess:
    """Runs :func:`probe` every ``PROBE_PERIOD_S`` in one child per CPU.

    Each child is pinned to its CPU, because a slowdown can hit one CPU
    and a load that uses both feels it while an unpinned probe moves to
    the other.  Each line of a child's file holds a probe's midpoint on
    the system-wide monotonic clock, which ``time.perf_counter`` reads on
    Linux, and its duration.
    """

    def __init__(self, path: Path) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        self.paths = {cpu: path.with_name(f"{path.stem}-cpu{cpu}{path.suffix}") for cpu in cpus}
        self.procs: List[subprocess.Popen] = []

    def __enter__(self) -> "ProbeProcess":
        for cpu, path in self.paths.items():
            path.write_text("")
            self.procs.append(subprocess.Popen([sys.executable, __file__, str(path), str(cpu)]))
        try:
            for proc, path in zip(self.procs, self.paths.values()):
                while not path.read_text():
                    if proc.poll() is not None:
                        raise RuntimeError(f"probe process exited with {proc.returncode}")
                    time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()

    def samples(self) -> List[Tuple[float, float]]:
        rows = [
            line.split()
            for path in self.paths.values()
            for line in path.read_text().splitlines()
        ]
        return [(float(row[0]), float(row[1])) for row in rows if len(row) == 2]


def window_factor(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """Correction for an interval, from the probes within ``PROBE_WINDOW_S`` of it."""
    near = [secs for mid, secs in samples
            if start - PROBE_WINDOW_S <= mid <= end + PROBE_WINDOW_S]
    if not near:
        raise ValueError("no probe ran near the interval")
    return REFERENCE_PROBE_S / statistics.median(near)


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[2])})
    # Outrank the load on the CPU, so that a probe measures the host's
    # speed rather than its queue; without the privilege, run as is.
    try:
        os.nice(-20)
    except PermissionError:
        pass
    with open(sys.argv[1], "a") as out:
        while True:
            t0 = time.perf_counter()
            secs = probe()
            out.write(f"{t0 + secs / 2} {secs}\n")
            out.flush()
            time.sleep(PROBE_PERIOD_S)
