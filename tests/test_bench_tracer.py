"""The benchmark's tracer (bench/tracer.py) wraps hardyspec entry points by
name; this guards the names it relies on."""

import importlib.util
from pathlib import Path

import numpy as np

import hardyspec.cli
import hardyspec.hardy
import hardyspec.spectral
from hardyspec import ConvexPolygon, FormSpec, Interval

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


def test_tracer_sees_the_export_layer(tmp_path):
    # the text formatters keep their names and modules, and _atomic_write
    # keeps taking str, so that report.bytes counts the bytes on disk
    config = tmp_path / "s.ini"
    config.write_text("[domain]\nvariant = disc\n\n[form]\na = 1\nq = 0\n\n"
                      "[numerics]\nh = 0.25\ncount = 1\n\n"
                      "[output]\nwrite_mesh = true\nwrite_pencil = true\n")
    out = tmp_path / "out"
    tr = _load_tracer()
    tracer = tr.Tracer()
    installation = tr.install(tracer)
    try:
        hardyspec.cli.run("spectrum", str(config), out_dir=str(out),
                          formats=("json", "csv"))
    finally:
        installation.undo()
    assert tracer.self_s.get("forms.format", 0.0) > 0
    assert tracer.self_s.get("meshing.format", 0.0) > 0
    written = sorted(out.iterdir())
    assert [path.name for path in written] == [
        "mesh.txt", "pencil_K.txt", "pencil_M.txt", "spectrum_report.json",
        "spectrum_table.csv"]
    assert tracer.counts["report.bytes"] == sum(path.stat().st_size for path in written)


def test_tracer_sees_a_1d_strip_build():
    # strip_mesh calls mesh_1d_with_level by name, which clamps the grading
    # itself, so diagnose-interval's strips still count as meshing.build
    problem = hardyspec.spectral.ProblemSpec(
        Interval(0, 1), FormSpec(a="d^0.5", q="-0.03*d^-1.5"), ks=(2, 3))
    tr = _load_tracer()
    tracer = tr.Tracer()
    installation = tr.install(tracer)
    try:
        strip = hardyspec.spectral.strip_mesh(problem, 3)
    finally:
        installation.undo()
    assert tracer.self_s.get("meshing.build", 0.0) > 0
    assert tracer.self_s.get("meshing.restrict", 0.0) > 0
    # the whole-interval mesh: two graded strips of 96 and one core element
    assert tracer.counts["meshing.elements"] == 2 * 96 + 1 + len(strip.elements)


def test_tracer_counts_inherited_distances():
    # the tracer wraps distance_many on each geometry class that defines it;
    # Interval and ConvexPolygon inherit theirs, and their points still count
    tr = _load_tracer()
    tracer = tr.Tracer()
    installation = tr.install(tracer)
    try:
        Interval(0, 1).distance_many(np.linspace(0, 1, 7))
        ConvexPolygon([(0, 0), (1, 0), (0, 1)]).distance_many(np.full((5, 2), 0.2))
    finally:
        installation.undo()
    assert tracer.counts["geometry.points"] == 12
