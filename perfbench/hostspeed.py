"""Host speed: a fixed pure-Python loop, timed, to scale host times to a reference speed.

On a shared host the same work can take from 1x to 1.8x as long from one
second to the next, and a slow spell can last a whole run. CPU time grows
with wall time in those spells, so they are not descheduling that CPU time
could leave out. Timing a fixed loop just before and just after a measured
piece of work tells how fast the host ran then; ``scaled`` turns the work's
host seconds into seconds on a host that runs the loop in ``REFERENCE_S``.
"""

import time

#: Iterations of the loop: 1.3 to 2 ms on the 2-core host the benchmark was tuned on.
LOOPS = 20000
#: Loop time of the reference host speed that scaled seconds are given at.
REFERENCE_S = 1.5e-3


def loop_seconds():
    """Host seconds the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """``seconds`` of work at the reference speed, from the loop times around the work."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
