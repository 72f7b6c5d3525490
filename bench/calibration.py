"""How fast the CPU runs this process at the moment, and the factor that
brings a time measured then to the reference speed.

On a shared host the CPU runs a process up to twice as slow or fast for
fractions of a second to minutes at a time, and wall times follow.  The
benchmark times a fixed loop of plain interpreter work just before each
op, and scales each op's latency by the median of the loop times nearest
to it.  The loop is the benchmark's own code, so a change to the
program moves the scaled times as much as the wall times.
"""

import statistics
import time

LOOPS = 4000
REFERENCE_MS = 1.3  # the loop's median time on the 2-vCPU Intel Xeon host the benchmark was tuned on
WINDOW = 3  # a time is scaled by the loops timed before it and the WINDOW measurements on each side


def calibrate() -> float:
    """Seconds the loop takes.  It allocates only ints and strings, which
    the garbage collector does not track, so the program's heap cannot
    change its time."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += (i * 7) % 13
        acc ^= len(str(i))
    return time.perf_counter() - start


def scale(loop_s: list[float]) -> float:
    """Factor for a time measured while the loop took the median of LOOP_S seconds."""
    return REFERENCE_MS / (statistics.median(loop_s) * 1000.0)


def local_scales(loop_s: list[float]) -> list[float]:
    """Factor for each of a run of measurements, LOOP_S[j] being the loop
    timed just before measurement j."""
    return [scale(loop_s[max(0, j - WINDOW) : j + WINDOW + 1]) for j in range(len(loop_s))]
