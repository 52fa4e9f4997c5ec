"""The benchmark's correctness gate (bench/worker.py `observe`) reads fixed
keys of the cli.run reports; this guards that every key it compares is
still present, and that two of the bench's own configs still pass it."""

import configparser
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hardyspec.cli import run

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
BENCH_MODULES = ("run", "hostmeter", "tracer")

CASES = {
    "diagnose-interval": ("diagnose", """
[domain]
variant = interval

[form]
a = d^0.5
q = -0.03*d^-1.5
beta = 0.5
gamma = 0.5

[numerics]
k_min = 2
k_max = 6
strip_elements = 48
samples = 500
"""),
    "hardy-disc": ("hardy", """
[domain]
variant = interval

[form]
beta = 0.0
alpha = 0.0
lambda = 0.0

[numerics]
n = 64
grading = 0.3
levels = 2
"""),
    "spectrum-disc-write": ("spectrum", """
[domain]
variant = interval

[form]
a = 1
q = 0

[numerics]
n = 50
count = 2

[output]
write_mesh = true
write_pencil = true
"""),
}


@pytest.fixture
def worker(monkeypatch):
    """bench/worker.py, imported with the bench directory on sys.path for
    this test only."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("bench_worker",
                                                  BENCH_DIR / "worker.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in BENCH_MODULES:
            if name not in before:
                sys.modules.pop(name, None)


def test_bench_gate_keys_present(worker, tmp_path):
    references = json.loads((BENCH_DIR / "references.json").read_text())
    for workload, (command, text) in CASES.items():
        cfg = tmp_path / f"{workload}.ini"
        cfg.write_text(text)
        out = tmp_path / workload
        _, doc = run(command, str(cfg), out_dir=str(out), seed=1)
        obs = worker.observe(doc, str(out))
        reference = references[workload]
        for part in ("exact", "close"):
            assert set(obs[part]) == set(reference[part]), workload
            assert None not in obs[part].values(), workload
        assert set(obs["files"]) == set(reference["files"]), workload


@pytest.mark.parametrize("workload", ["diagnose-interval", "spectrum-disc-write"])
def test_bench_config_passes_the_gate(worker, tmp_path, workload):
    # the real config, checked as a bench call is: a changed pencil byte
    # moves the export digests, a changed assembly the minima
    config = BENCH_DIR / "configs" / f"{workload}.ini"
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(config)
    _, doc = run(parser["run"]["command"], str(config), out_dir=str(tmp_path), seed=1)
    reference = json.loads((BENCH_DIR / "references.json").read_text())[workload]
    assert worker.mismatches(worker.observe(doc, str(tmp_path)), reference) == []
