"""The benchmark's tracer (bench/tracer.py) wraps hardyspec entry points by
name; this guards the names it relies on."""

import importlib.util
from pathlib import Path

import hardyspec.hardy
from hardyspec import Interval

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_refinement_and_ladder_levels():
    tr = _load_tracer()
    tracer = tr.Tracer()
    installation = tr.install(tracer)
    try:
        hardyspec.hardy.verify_hardy(Interval(0, 1), beta=0.0, n=64,
                                     grading=0.5, levels=2)
    finally:
        installation.undo()
    assert tracer.self_s.get("meshing.refine", 0.0) > 0
    assert tracer.counts["hardy.levels"] == 2
