"""Record the first rounds' outputs of every workload into reference.json.

The gate compares any invocation whose inputs match a recorded one (same
argv, same config) with the recorded CSV, column by column within
gate.TOLERANCE.  Record only from a commit whose outputs are trusted: the
recording is the yardstick later commits are held to.

It records rounds 0 .. RECORDED_ROUNDS-1 of seeds 0 .. RECORDED_SEEDS-1
(gate.py); every invocation of those rounds must then match its recording.

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from gate import RECORDED_ROUNDS, RECORDED_SEEDS, reference_key
from workloads import WORKLOADS, round_plan


def main() -> int:
    run.pin_blas()
    cli = run.import_program()
    recorded = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        for workload in WORKLOADS:
            for seed in range(RECORDED_SEEDS):
                for rnd in range(RECORDED_ROUNDS):
                    plan = round_plan(workload, seed, rnd)
                    result = run.run_round(cli, plan, Path(work), {}, traced=False)
                    failed = [r for r in result.reasons if r]
                    if failed:
                        sys.stderr.write(f"{workload} seed {seed} round {rnd}: {failed[0]}\n")
                        return 1
                    for inv, text in zip(plan, result.outputs):
                        recorded[reference_key(inv.argv, inv.config)] = text
    (run.BENCH / "reference.json").write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
