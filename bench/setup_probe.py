"""Set-up probe, run in a fresh interpreter by run.py.

Prints two numbers.  The first is the seconds from before ``import
replica_markov.cli`` until the workload's first-round configs are generated
and validated, i.e. until the first operation could start.  ``pf`` configs
have no schema validator in the program, so for them set-up is import plus
generation.  The second is the slowdown this process measured right after
(median of SAMPLES speed samples over SPEED_REF_S, see speed.py), taken in
the probe itself because the machine's speed differs between its vCPUs.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import replica_markov.cli  # noqa: E402,F401
from replica_markov.config import validate_config  # noqa: E402
from workloads import round_plan  # noqa: E402

for inv in round_plan(sys.argv[1], int(sys.argv[2]), 0):
    if inv.config is not None and "version" in inv.config:
        validate_config(inv.config)
seconds = time.perf_counter() - start

import statistics  # noqa: E402

from speed import SPEED_REF_S, speed_sample  # noqa: E402

SAMPLES = 9
print(seconds, statistics.median(speed_sample() for _ in range(SAMPLES)) / SPEED_REF_S)
