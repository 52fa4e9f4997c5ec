"""hardyspec benchmark: the diagnose, hardy and spectrum pipelines run
through `hardyspec.cli.run` from the fixed configs in bench/configs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a checkout; the package is imported from its `src`.
This process is the generator: it starts every measured process itself,
with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1,
and waits for each to end.  The seed becomes the CLI `--seed` (the Lanczos
start vector).  All outputs go under .benchwork/ in the checkout.

--trace 0 prints the end-to-end metrics, medians over the calls made in
--seconds after one warm-up call: `wall_rel` (a call's wall time over the
mean time of the host meter's probe during it, see hostmeter.py), `wall_s`
and `cpu_s` (a call's wall and CPU time, normalized the same way), the
process's `peak_rss_mb`, and `setup_s` (normalized time from process start
until hardyspec is imported and the config is loaded, median over
SETUP_REPEATS fresh processes).  --trace 1 prints the per-layer self times
and counts (see tracer.py), `trace.overhead_s` and `host_probe_s`.  Earlier
lines give the machine facts, the raw medians and any gate mismatches; the
last line is the result object.

--self-check runs every workload traced twice at one seed, requiring
identical per-layer counts, and untraced at a second seed, requiring the
correctness gate to pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostmeter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("diagnose-interval", "diagnose-torus", "hardy-disc",
             "spectrum-disc-write")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TIMEOUT_S = 170
WORK_DIR = ".benchwork"
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import hostmeter
with hostmeter.HostMeter() as meter:
    import hardyspec.cli
    hardyspec.cli._load_config(sys.argv[1])
    ready = time.monotonic()
print(ready, meter.mean())
"""


def child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.path.abspath("src")
    env["TMPDIR"] = os.path.abspath(WORK_DIR)
    return env


def _run(argv, env, deadline):
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{argv[1]} exited with status {proc.returncode}")
    return proc.stdout


def setup_seconds(config, env, deadline):
    """Median time from process start until hardyspec is imported and the
    config loaded, normalized by the host meter like every other time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        out = _run([sys.executable, "-c", SETUP_CODE, config, BENCH_DIR], env,
                   deadline)
        ready, probe = map(float, out.split()[-2:])
        samples.append(hostmeter.normalized(ready - start, probe))
    return statistics.median(samples)


def run_worker(workload, seed, seconds, trace, env, deadline):
    out = _run([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)], env, deadline)
    return json.loads(out.strip().splitlines()[-1])


def check_checkout():
    if not os.path.isfile(os.path.join("src", "hardyspec", "cli.py")):
        raise SystemExit("no src/hardyspec here: run from the root of a "
                         "hardyspec checkout")


def bench(args):
    deadline = time.monotonic() + TIMEOUT_S
    env = child_env()
    os.makedirs(WORK_DIR, exist_ok=True)
    res = run_worker(args.workload, args.seed, args.seconds, args.trace, env,
                     deadline)
    metrics = res["metrics"]
    if not args.trace:
        config = os.path.join(BENCH_DIR, "configs", f"{args.workload}.ini")
        metrics["setup_s"] = {"value": setup_seconds(config, env, deadline),
                              "unit": "s"}
    print(json.dumps({"machine": res["machine"]}))
    print(json.dumps({"context": res["context"]}))
    for bad in res["mismatches"]:
        print(json.dumps({"mismatch": bad}))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def self_check():
    env = child_env()
    os.makedirs(WORK_DIR, exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        deadline = time.monotonic() + 3 * TIMEOUT_S
        traced = [run_worker(workload, 1, 1, 1, env, deadline) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r in traced]
        other = run_worker(workload, 2, 1, 0, env, deadline)
        same = counts[0] == counts[1]
        passed = all(r["failed"] == 0 for r in traced + [other])
        print(json.dumps({"workload": workload, "counts_identical": same,
                          "gate_passed": passed, "counts": counts[0]}))
        ok = ok and same and passed
    print("self-check", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="hardyspec benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    check_checkout()
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
