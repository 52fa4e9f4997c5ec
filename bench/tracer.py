"""Per-layer spans and counters for one hardyspec call, recorded from outside
the package.

`install` wraps each layer's public entry points wherever a caller binds
them: a function imported by name (``from .eigensolve import
smallest_eigenpairs``) is replaced in every hardyspec module that holds it,
methods are replaced on the classes that define them, and the scipy calls
the eigensolver makes (``splu``, ``eigsh``, the shift-invert operator's
triangular solves, ARPACK's reverse-communication steps) are replaced in
the scipy modules that bind them.  The returned Installation's `undo` puts
every original back.

A span's self time is its duration minus the time covered by its child
spans; the root span, `cli.run` itself ("cli.other"), collects what no
layer claims.
"""

import importlib
import sys
import time

import numpy as np

# span name -> (module, attribute) of the public entry points it
# covers; functions are rebound in every hardyspec module that holds them
FUNCTION_SPANS = {
    "cli.other": [("hardyspec.cli", "run")],
    "spectral.sample": [("hardyspec.spectral", "check_pointwise_criterion")],
    "eigensolve.solve": [("hardyspec.eigensolve", "smallest_eigenpairs")],
    "meshing.build": [("hardyspec.meshing", "build_mesh_1d"),
                      ("hardyspec.meshing", "build_trimesh"),
                      ("hardyspec.meshing", "mesh_1d_with_level")],
    "meshing.refine": [("hardyspec.meshing", "refine_mesh_1d"),
                       ("hardyspec.meshing", "refine_trimesh")],
    "meshing.restrict": [("hardyspec.meshing", "restrict_to_strip")],
    "meshing.format": [("hardyspec.meshing", "format_mesh_text")],
    "forms.assemble": [("hardyspec.forms", "assemble_pencil")],
    "forms.format": [("hardyspec.forms", "format_matrix_text")],
    "hardy.ladder": [("hardyspec.hardy", "verify_hardy")],
    "report.write": [("hardyspec.report", "_atomic_write")],
}
ARPACK = "scipy.sparse.linalg._eigen.arpack.arpack"

SELF_TIMES = ("spectral.sample_s", "eigensolve.solve_s", "eigensolve.factor_s",
              "eigensolve.lu_solve_s", "meshing.build_s", "meshing.refine_s",
              "meshing.restrict_s", "meshing.format_s", "forms.assemble_s",
              "forms.format_s", "geometry.distance_s", "coefficients.eval_s",
              "hardy.ladder_s", "report.write_s", "cli.other_s")
COUNTS = ("spectral.samples", "eigensolve.calls", "eigensolve.factorizations",
          "eigensolve.lu_solves", "eigensolve.lanczos_iters",
          "eigensolve.eigsh_calls", "eigensolve.eigsh_failed",
          "meshing.elements", "forms.pencils", "forms.dof", "forms.nnz",
          "geometry.points", "coefficients.evals", "hardy.levels",
          "report.bytes")


class Tracer:
    """Span stack with per-name self-time totals and named counters."""

    def __init__(self):
        self.self_s = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []          # [name, start, child time]

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def count(self, name, n=1):
        self.counts[name] += int(n)

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result, args)
            return result
        return traced

    def metrics(self):
        out = {f"{name}_s": self.self_s.get(name, 0.0)
               for name in (m[:-2] for m in SELF_TIMES)}
        out.update(self.counts)
        return out


def _elements(mesh):
    return len(mesh.elements) if hasattr(mesh, "elements") else len(mesh.triangles)


def _result_hooks(tracer):
    count = tracer.count

    def mesh_out(result, args):
        count("meshing.elements", _elements(result))

    def pencil_out(pencil, args):
        count("forms.pencils")
        count("forms.dof", pencil.dof)
        count("forms.nnz", pencil.K.nnz)

    return {
        "spectral.sample": lambda rep, args: count("spectral.samples",
                                                   rep.detail["samples"]),
        "eigensolve.solve": lambda rep, args: count("eigensolve.calls"),
        "meshing.build": mesh_out,
        "meshing.refine": mesh_out,
        "meshing.restrict": mesh_out,
        "forms.assemble": pencil_out,
        "hardy.ladder": lambda cert, args: count("hardy.levels", len(cert.levels)),
        "report.write": lambda result, args: count(
            "report.bytes", len(args[1].encode())),
    }


class _TimedLU:
    """A SuperLU factor whose solves are spans; other attributes pass through."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("eigensolve.lu_solves")
        self._tracer.enter("eigensolve.lu_solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.exit()

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Installation:
    """The replacements made by `install`, so they can be undone."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def undo(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install(tracer):
    """Wrap every traced entry point; returns the Installation to undo."""
    inst = Installation()
    hooks = _result_hooks(tracer)
    wrappers = {}
    for name, targets in FUNCTION_SPANS.items():
        for module, attr in targets:
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, hooks.get(name)))
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "hardyspec" or key.startswith("hardyspec."))]
    bound = set()
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                inst.replace(module, attr, wrappers[id(value)][1])
                bound.add(id(value))
    missing = [fn.__name__ for key, (fn, _) in wrappers.items() if key not in bound]
    if missing:
        raise RuntimeError(f"entry points not bound anywhere: {missing}")

    geometry = importlib.import_module("hardyspec.geometry")

    def points_in(result, args):
        tracer.count("geometry.points", np.shape(args[1])[0])

    for cls in list(vars(geometry).values()):
        if isinstance(cls, type) and "distance_many" in vars(cls):
            inst.replace(cls, "distance_many",
                         tracer.wrap("geometry.distance", vars(cls)["distance_many"],
                                     points_in))
    coefficient = importlib.import_module("hardyspec.coefficients").Coefficient
    inst.replace(coefficient, "evaluate",
                 tracer.wrap("coefficients.eval", coefficient.evaluate,
                             lambda result, args: tracer.count("coefficients.evals")))

    spla = importlib.import_module("scipy.sparse.linalg")
    arpack = importlib.import_module(ARPACK)
    splu = spla.splu

    def timed_splu(*args, **kwargs):
        tracer.count("eigensolve.factorizations")
        tracer.enter("eigensolve.factor")
        try:
            lu = splu(*args, **kwargs)
        finally:
            tracer.exit()
        return _TimedLU(lu, tracer)

    inst.replace(spla, "splu", timed_splu)
    inst.replace(arpack, "splu", timed_splu)

    eigsh = spla.eigsh

    def counted_eigsh(*args, **kwargs):
        tracer.count("eigensolve.eigsh_calls")
        try:
            return eigsh(*args, **kwargs)
        except Exception:
            tracer.count("eigensolve.eigsh_failed")
            raise

    inst.replace(spla, "eigsh", counted_eigsh)

    params = arpack._SymmetricArpackParams
    iterate = params.iterate

    def counted_iterate(self):
        tracer.count("eigensolve.lanczos_iters")
        return iterate(self)

    inst.replace(params, "iterate", counted_iterate)
    return inst
