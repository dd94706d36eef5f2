"""Speed samples: how fast the machine runs this process at a given moment.

A speed sample times a fixed job of interpreter loops and small-array numpy
calls.  The job runs no code of the program, so its time reads only the
speed the machine gave the process while it ran.  SPEED_REF_S is its median
on the machine the benchmark's bounds were set on (a 2-vCPU VM, where it
read 2.4 ms to 4.8 ms); a sample's time divided by it is the slowdown.
"""

import time

SPEED_LOOP = 30_000
SPEED_NUMPY_CALLS = 300
SPEED_REF_S = 0.003


def speed_sample() -> float:
    """Seconds for one run of the fixed job."""
    import numpy  # here, so that importing this module leaves the BLAS pins to the caller

    t0 = time.perf_counter()
    acc = 0
    for i in range(SPEED_LOOP):
        acc += i * i
    x = numpy.linspace(-2.0, 2.0, 64)
    for _ in range(SPEED_NUMPY_CALLS):
        x = numpy.exp(-0.5 * x * x)
    return time.perf_counter() - t0
