"""Write bench/references.json: one checked call of every workload at seed 0.

    python3 bench/record_references.py

The references pin the outputs of the commit that recorded them; the
correctness gate in worker.py compares every benchmark call against them.
Re-recording is a change of the benchmark, never part of a change that
claims a speed-up.
"""

import json
import os
import subprocess
import sys

import run


def main():
    run.check_checkout()
    env = run.child_env()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    refs = {}
    for workload in run.WORKLOADS:
        out = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "worker.py"),
                              "--workload", workload, "--seed", "0",
                              "--seconds", "0", "--record"],
                             env=env, capture_output=True, text=True, check=True,
                             timeout=run.TIMEOUT_S).stdout
        refs[workload] = json.loads(out.strip().splitlines()[-1])
    with open(os.path.join(run.BENCH_DIR, "references.json"), "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
