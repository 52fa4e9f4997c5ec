"""One measured benchmark process: runs a workload through `hardyspec.cli.run`
and prints its measurements as one JSON line.

Started by run.py with the BLAS thread variables pinned to 1 and with
PYTHONPATH pointing at the checkout's `src`.  Every call is checked against
references.json; a mismatch counts the call as failed and is reported, never
dropped.

Every cli.run call runs under the host meter (hostmeter.py).  `wall_rel` is
the call's wall time over the mean probe time during it, a ratio with the
host's speed taken out; every time in seconds is normalized the same way
and expressed at the meter's nominal full speed.  The raw medians are
printed as context.

Untraced (--trace 0): one warm-up call, then measured calls until --seconds
have passed; each metric is the median over the measured calls.

Traced (--trace 1): after the warm-up, pairs of one untraced and one traced
call until --seconds have passed; the per-layer self times are medians over
the traced calls, the counts must agree across them, and `trace.overhead_s`
is the traced median wall time minus the untraced one.
"""

import argparse
import configparser
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import hostmeter
import tracer as tr
from run import BENCH_DIR, THREAD_VARS, WORK_DIR

REFERENCES = os.path.join(BENCH_DIR, "references.json")
OUTPUT_FILES = ("mesh.txt", "pencil_K.txt", "pencil_M.txt")
REL_TOL = 1e-8


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def observe(doc, out_dir):
    """What the gate compares: `exact` values, `close` values (1e-8
    relative) and sha256 digests of the exported files."""
    res = doc["result"]
    exact = {"status": doc["status"]}
    close = {}
    if doc["command"] == "diagnose":
        seq = res["sequence"]
        exact.update(verdict=res["verdict"], reason=res["reason"],
                     bound_ok=res["bound_ok"],
                     pointwise_verdict=res["pointwise"]["verdict"],
                     pointwise_samples=res["pointwise"]["detail"]["samples"],
                     form_verdict=res["form"]["verdict"],
                     form_dofs=res["form"]["detail"]["dofs"],
                     sequence_k=[e["k"] for e in seq["entries"]],
                     sequence_dofs=[e["dof"] for e in seq["entries"]])
        close.update(form_minima=res["form"]["detail"]["minima"],
                     pointwise_worst_margin=[res["pointwise"]["worst_margin"]],
                     mu=[e["mu"] for e in seq["entries"]],
                     fitted_exponent=[res["fitted_exponent"]])
    elif doc["command"] == "hardy":
        exact.update(verdict=res["verdict"],
                     level_dofs=[r["dof"] for r in res["levels"]])
        close.update(minima=[r["minimum"] for r in res["levels"]],
                     lam=[res["lambda"]])
    elif doc["command"] == "spectrum":
        exact.update(dof=res["dof"], converged=res["converged"],
                     solver=res["solver"])
        close.update(eigenvalues=res["eigenvalues"])
    files = {name: _sha256(os.path.join(out_dir, name))
             for name in OUTPUT_FILES if os.path.exists(os.path.join(out_dir, name))}
    return {"exact": exact, "close": close, "files": files}


def mismatches(obs, ref):
    out = []
    for key, want in ref["exact"].items():
        if obs["exact"].get(key) != want:
            out.append(f"{key}: {obs['exact'].get(key)!r} != {want!r}")
    for key, want in ref["close"].items():
        got = obs["close"].get(key)
        if got is None or len(got) != len(want) or any(
                not abs(g - w) <= REL_TOL * abs(w) for g, w in zip(got, want)):
            out.append(f"{key}: {got!r} not within {REL_TOL} of {want!r}")
    if obs["files"] != ref["files"]:
        out.append(f"files: {obs['files']!r} != {ref['files']!r}")
    return out


# ---------------------------------------------------------------------------
# the measured calls
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.config = os.path.join(BENCH_DIR, "configs", f"{name}.ini")
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(self.config)
        self.command = parser["run"]["command"]
        self.out_dir = os.path.join(WORK_DIR, name)
        self.meter = hostmeter.HostMeter()
        self.samples = []            # every probe time of the run
        self.attempted = 0
        self.failed = []

    def call(self, cli, reference):
        """One checked cli.run call under the host meter; returns
        (wall seconds, cpu seconds, mean probe seconds, observation).  A call
        that raises is counted as failed and its observation is None."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        with self.meter:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                _, doc = cli.run(self.command, self.config, out_dir=self.out_dir,
                                 seed=self.seed)
            except Exception as exc:     # a failing call is reported, not fatal
                doc = exc
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.samples += self.meter.samples
        self.attempted += 1
        if isinstance(doc, Exception):
            self.failed.append([f"{type(doc).__name__}: {doc}"])
            return wall, cpu, self.meter.mean(), None
        obs = observe(doc, self.out_dir)
        if reference is not None:
            bad = mismatches(obs, reference)
            if bad:
                self.failed.append(bad)
        return wall, cpu, self.meter.mean(), obs


def machine_facts():
    def blas(config):
        try:
            deps = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except (KeyError, TypeError):
            return "unknown"

    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config),
            "scipy_blas": blas(scipy.show_config),
            "env": {k: os.environ.get(k) for k in THREAD_VARS}}


def measure(cli, work, reference, seconds):
    work.call(cli, reference)                      # warm-up
    calls = []
    start = time.perf_counter()
    while True:
        calls.append(work.call(cli, reference)[:3])
        if time.perf_counter() - start >= seconds:
            break
    norm = hostmeter.normalized
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(norm(w, p) for w, _, p in calls), "s"),
        "wall_rel": (statistics.median(w / p for w, _, p in calls), "probes"),
        "cpu_s": (statistics.median(norm(c, p) for _, c, p in calls), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    context = {"calls_measured": len(calls),
               "raw_wall_s": statistics.median(w for w, _, _ in calls),
               "raw_cpu_s": statistics.median(c for _, c, _ in calls)}
    return metrics, context


def measure_traced(cli, work, reference, seconds):
    work.call(cli, reference)                      # warm-up
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(work.call(cli, reference)[:3])
        t = tr.Tracer()
        inst = tr.install(t)
        try:
            wall, _, probe, _ = work.call(cli, reference)
        finally:
            inst.undo()
        traced.append((wall, probe, t.metrics()))
        if time.perf_counter() - start >= seconds:
            break
    norm = hostmeter.normalized
    counts = [{k: m[k] for k in tr.COUNTS} for _, _, m in traced]
    if any(c != counts[0] for c in counts):
        work.failed.append([f"per-layer counts differ between traced calls: {counts}"])
    metrics = {name: (statistics.median(norm(m[name], p) for _, p, m in traced), "s")
               for name in tr.SELF_TIMES}
    metrics.update({name: (counts[0][name], "count") for name in tr.COUNTS})
    metrics["trace.overhead_s"] = (
        statistics.median(norm(w, p) for w, p, _ in traced)
        - statistics.median(norm(w, p) for w, _, p in plain), "s")
    metrics["host_probe_s"] = (statistics.median(work.samples), "s")
    return metrics, {"calls_measured": len(traced)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="print one call's observation instead of measuring")
    args = ap.parse_args(argv)

    from hardyspec import cli
    src = os.path.abspath("src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"hardyspec was imported from {cli.__file__}, not {src}")

    work = Workload(args.workload, args.seed)
    if args.record:
        obs = work.call(cli, None)[3]
        if obs is None:
            raise SystemExit(f"cannot record {args.workload}: {work.failed}")
        print(json.dumps(obs, sort_keys=True))
        return 0
    with open(REFERENCES) as handle:
        reference = json.load(handle)[args.workload]
    measure_fn = measure_traced if args.trace else measure
    metrics, context = measure_fn(cli, work, reference, args.seconds)
    shutil.rmtree(work.out_dir, ignore_errors=True)
    context["host_probe_s"] = statistics.median(work.samples)
    print(json.dumps({
        "attempted": work.attempted, "failed": len(work.failed),
        "mismatches": work.failed[:3], "context": context,
        "machine": machine_facts(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
