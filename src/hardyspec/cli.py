"""Configuration-driven command line: parse a sectioned key-value config,
dispatch to the geometry / hardy / spectral pipelines, and emit reports.

Exit status: 0 for PASS/CERTIFIED/DISCRETE or plain computational success,
1 for FAIL/INCONCLUSIVE verdicts, 2 for a refusal, the typed HardySpecError
of the config or of the code that owns the refused parameter.
"""

import argparse
import configparser
import os
import sys
from dataclasses import replace

import numpy as np

from . import geometry, report
from .coefficients import check_names, parse_coefficient
from .eigensolve import check_count, smallest_eigenpairs
from .errors import ConfigError, HardySpecError
from .forms import FormSpec, assemble_pencil, format_matrix_text
from .hardy import check_ladder, lambda_bound, ladder_mesh, verify_hardy
from .meshing import build_mesh_1d, build_trimesh, format_mesh_text, require_ladder_budget
from .spectral import (FORM_LEVELS, ProblemSpec, check_diagnostic,
                       check_form_nonnegativity, check_pointwise_criterion,
                       discreteness_diagnostic, persson_sequence, strip_mesh)

COMMANDS = ("distance", "hardy", "spectrum", "persson", "criteria", "diagnose")
SECTIONS = ("run", "domain", "form", "numerics", "output", "point")
FORMATS = ("json", "csv")


def _load_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    return parser


class _Section:
    """Typed getters with field-qualified diagnostics; `read` holds their keys."""

    def __init__(self, parser, name):
        self.name = name
        self.data = dict(parser[name]) if parser.has_section(name) else {}
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return self.data.get(key, default)

    def require(self, key):
        if key not in self.data:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        return self.get(key)

    def _parsed(self, key, default, parse, kind):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return parse(raw)
        except (ValueError, KeyError):
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not {kind}") from None

    def get_float(self, key, default=None):
        return self._parsed(key, default, float, "a number")

    def get_int(self, key, default=None):
        return self._parsed(key, default, int, "an integer")

    def get_bool(self, key, default=False):
        """configparser's words, in any case: 1/yes/true/on, 0/no/false/off."""
        states = configparser.ConfigParser.BOOLEAN_STATES
        return self._parsed(key, default, lambda raw: states[raw.lower()],
                            "a boolean (1/yes/true/on or 0/no/false/off)")


def _refuse_unread(parser, sections, command):
    """The one rule for config keys, run once a command has read all of its
    keys and before it does any work: a section cli does not know, or a key
    that no getter read, is refused.  [DEFAULT] keys are exempt, because
    configparser copies them into every section."""
    unread = [f"[{name}]" for name in parser.sections() if name not in SECTIONS]
    unread += [f"[{sec.name}] {key}" for sec in sections
               for key in sorted(sec.data.keys() - sec.read - parser.defaults().keys())]
    if unread:
        raise ConfigError(f"the {command} command does not read {', '.join(unread)}")


def _split_formats(text):
    return tuple(f.strip() for f in text.split(","))


def _build_domain(sec):
    variant = sec.require("variant")
    if variant == "interval":
        return geometry.Interval(sec.get_float("a", 0.0), sec.get_float("b", 1.0))
    if variant == "disc":
        return geometry.Disc((sec.get_float("center_x", 0.0),
                              sec.get_float("center_y", 0.0)),
                             sec.get_float("radius", 1.0))
    if variant == "annulus":
        return geometry.Annulus((sec.get_float("center_x", 0.0),
                                 sec.get_float("center_y", 0.0)),
                                sec.get_float("r_in", 0.5),
                                sec.get_float("r_out", 1.0))
    if variant == "torus":
        return geometry.Torus(sec.get_float("c", 3.0), sec.get_float("r_tube", 1.0))
    if variant == "convex_polygon":
        verts = []
        for chunk in sec.require("vertices").split(";"):
            try:
                x, y = map(float, chunk.split(","))
            except ValueError:
                raise ConfigError(f"[domain] bad vertex {chunk!r}") from None
            verts.append((x, y))
        return geometry.ConvexPolygon(verts)
    raise ConfigError(f"[domain] unknown variant {variant!r}")


def _build_form(sec, sigma=None):
    try:
        a = parse_coefficient(sec.get("a", "1"))
        q = parse_coefficient(sec.get("q", "0"))
    except HardySpecError as exc:
        raise ConfigError(f"[form] expression error: {exc}") from exc
    return FormSpec(a=a, q=q, sigma=sigma)


def _problem_spec(command, domain, form, form_sec, num_sec, seed):
    """Read the keys a strip command uses: `persson` none of the criteria's,
    `criteria` no `k_max`, as it works on the strip at k0 alone."""
    k_min = num_sec.get_int("k_min", 2)
    k_max = k_min if command == "criteria" else num_sec.get_int("k_max", 16)
    ks = range(k_min, k_max + 1)        # ProblemSpec counts it before building it
    criteria = {} if command == "persson" else dict(
        gamma=form_sec.get_float("gamma", 0.5), k0=num_sec.get_int("k0"),
        samples=num_sec.get_int("samples", 10000),
        lam=form_sec.get_float("lambda", 0.0), alpha=form_sec.get_float("alpha", 0.0))
    problem = ProblemSpec(
        domain=domain, ks=ks, form=replace(form, beta=form_sec.get_float("beta")),
        strip_elements=num_sec.get_int("strip_elements"),
        grading=num_sec.get_float("grading"),
        seed=seed, tol=num_sec.get_float("tol"), **criteria)
    if command == "diagnose":
        check_diagnostic(problem.ks)
    return problem


def run(command, config_path, out_dir=".", seed=None, dry_run=False,
        formats=None):
    """Execute one pipeline; returns (status, result dict)."""
    parser = _load_config(config_path)
    sections = [_Section(parser, name) for name in SECTIONS]
    run_sec, domain_sec, form_sec, num_sec, out_sec, point_sec = sections
    declared = run_sec.get("command")
    if declared is not None and declared != command:
        raise ConfigError(f"[run] command = {declared!r} does not match "
                          f"the requested subcommand {command!r}")

    # the config's seed and formats are read and checked even when overridden
    config_seed = num_sec.get_int("seed", 0)
    seed = config_seed if seed is None else seed
    for value in (config_seed, seed):
        if not 0 <= value < 2**32:
            raise ConfigError(f"seed {value} lies outside [0, 2**32 - 1]")
    config_formats = _split_formats(out_sec.get("formats", "json"))
    formats = config_formats if formats is None else tuple(formats)
    unknown = [f for f in config_formats + formats if f not in FORMATS]
    if unknown:
        raise ConfigError(f"unknown output format {unknown[0]!r}; "
                          f"choose from {', '.join(FORMATS)}")

    domain = _build_domain(domain_sec)
    section = domain.section
    resolved = {"command": command, "seed": seed,
                "config_path": os.fspath(config_path),
                "sections": {name: dict(parser[name]) for name in parser.sections()}}

    csv_payload = None  # (filename, header, rows)
    if command == "distance":
        point_sec.require("x")
        coords = [point_sec.get_float(axis, 0.0) for axis in "xyz"[:domain.dim]]
        _refuse_unread(parser, sections, command)
        p = np.array(coords, dtype=float)
        ev = domain.distance_calculus(p)
        result = {"point": p.tolist(), **report.jsonable(ev)}

    elif command == "hardy":
        beta = form_sec.get_float("beta", 0.0)
        alpha = form_sec.get_float("alpha", 0.0)
        method = form_sec.get("lambda_method")
        delta = form_sec.get_float("delta") if method == "tubular" else None
        lam = form_sec.get_float("lambda", 0.0) if method is None else None
        ladder = dict(n=num_sec.get_int("n", 256) if section.dim == 1 else None,
                      h=None if section.dim == 1 else num_sec.get_float("h"),
                      grading=num_sec.get_float("grading", 0.15),
                      levels=num_sec.get_int("levels", 3))
        tol = num_sec.get_float("tol")
        _refuse_unread(parser, sections, command)
        if method is not None:
            lam = lambda_bound(domain, method, alpha=alpha, beta=beta, delta=delta).lam
        check_ladder(beta, lam, ladder["levels"])
        if dry_run:
            mesh = ladder_mesh(domain, **ladder)
            result = {"dry_run": True, "beta": beta, "alpha": alpha, "lambda": lam,
                      "nodes": mesh.n_nodes, "elements": len(mesh.elements)}
        else:
            result = verify_hardy(domain, beta, alpha, lam, seed=seed, tol=tol, **ladder)
            csv_payload = ("hardy_table.csv",
                           ("beta", "alpha", "lambda", "level", "dof",
                            "minimum", "margin"), result.csv_rows())

    elif command == "spectrum":
        sigma = None
        if section.dim == 1:
            ends = ("left", "right")
            tags = tuple(form_sec.get(f"bc_{end}", "dirichlet") for end in ends)
            # only a Robin end reads its sigma
            sigmas = [form_sec.get_float(f"sigma_{end}") if tag == "robin" else None
                      for end, tag in zip(ends, tags)]
            if sigmas != [None, None]:
                sigma = tuple(s or 0.0 for s in sigmas)
            size = num_sec.get_int("n", 256)
        else:
            size = num_sec.get_float("h")
        form = _build_form(form_sec, sigma)
        count = num_sec.get_int("count", 5)
        grading = num_sec.get_float("grading", 1.0)
        tol = num_sec.get_float("tol")
        write_mesh = out_sec.get_bool("write_mesh")
        write_pencil = out_sec.get_bool("write_pencil")
        check_names(section, form.a, form.q)
        if isinstance(domain, geometry.Torus):
            # azimuthal mode m adds the potential a m^2 / r^2
            mode = num_sec.get_int("mode", 0)
            if mode < 0:
                raise ConfigError(f"[numerics] mode = {mode} must be nonnegative")
            if mode**2 > sys.float_info.max:    # exact: an int compares with a float
                raise ConfigError("[numerics] mode is too large: its square "
                                  "overflows float64")
            if mode:
                form = replace(form, q=form.q + form.a
                               * parse_coefficient(f"{mode**2}/r^2"))
        _refuse_unread(parser, sections, command)
        if section.dim == 1:
            mesh = build_mesh_1d(section, size, grading, tags=tags)
        else:
            mesh = build_trimesh(section, size, grading)
        check_count(count, int(np.count_nonzero(~mesh.clamped)))
        pencil = assemble_pencil(mesh, form, 1.0)
        if dry_run:
            result = {"dry_run": True, "nodes": mesh.n_nodes,
                      "elements": len(mesh.elements)}
        else:
            result = smallest_eigenpairs(pencil, count, tol=tol, seed=seed)
            csv_payload = ("spectrum_table.csv", ("index", "value", "residual"),
                           [(i, float(v), float(r)) for i, (v, r) in
                            enumerate(zip(result.eigenvalues, result.residuals))])
            if write_mesh:
                report._atomic_write(os.path.join(out_dir, "mesh.txt"),
                                     format_mesh_text(mesh))
            for name, mat in (("K", pencil.K), ("M", pencil.M)) if write_pencil else ():
                mat = mat.copy()
                mat.eliminate_zeros()       # the files list entries: K's exact zeros go
                report._atomic_write(os.path.join(out_dir, f"pencil_{name}.txt"),
                                     format_matrix_text(mat))

    elif command in ("persson", "criteria", "diagnose"):
        form = _build_form(form_sec)
        problem = _problem_spec(command, domain, form, form_sec, num_sec, seed)
        _refuse_unread(parser, sections, command)
        if dry_run:
            # the first strip's pencil is assembled as in the run; the criteria
            # also count the form check's ladder on the k0 strip, and run stage 1
            criteria = command != "persson"
            ks = problem.ks[:1] + problem.ks[-1:] + ((problem.k0,) if criteria else ())
            strips = {k: strip_mesh(problem, k) for k in dict.fromkeys(ks)}
            assemble_pencil(strips[ks[0]], problem.form, 1.0)
            result = {"dry_run": True,
                      "strip_nodes": {str(k): s.n_nodes for k, s in strips.items()},
                      "ks": list(problem.ks)}
            if criteria:
                k0 = strips[problem.k0]
                require_ladder_budget(len(k0.elements), k0.dim, FORM_LEVELS + 1)
                result["samples"] = check_pointwise_criterion(problem).detail["samples"]
        elif command == "criteria":
            pw = check_pointwise_criterion(problem)
            fm = check_form_nonnegativity(problem)
            both = "PASS" if (pw.verdict == "PASS" and fm.verdict == "PASS") else "FAIL"
            result = {"pointwise": pw, "form": fm, "verdict": both}
        else:
            if command == "persson":
                result = seq = persson_sequence(problem)
            else:
                result = discreteness_diagnostic(problem)
                seq = result.sequence
            if seq is not None:
                csv_payload = ("persson_table.csv",
                               ("k", "delta", "dof", "mu", "bound"), seq.csv_rows())
    else:
        raise ConfigError(f"unknown command {command!r}")

    verdict = (result.get("verdict") if isinstance(result, dict)
               else getattr(result, "verdict", None))
    status = 0 if verdict in (None, "PASS", "CERTIFIED", "DISCRETE") else 1
    os.makedirs(out_dir, exist_ok=True)
    doc = report.make_report(command, resolved, result, status)
    if "json" in formats:
        report.write_json(os.path.join(out_dir, f"{command}_report.json"), doc)
    if "csv" in formats and csv_payload is not None:
        name, header, rows = csv_payload
        report.write_csv(os.path.join(out_dir, name), header, rows)
    return status, doc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hardyspec",
        description="numerical laboratory for degenerate elliptic forms: "
                    "boundary-distance Hardy inequalities and spectral "
                    "discreteness diagnostics")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="solver seed")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the config and mesh feasibility only")
    parser.add_argument("--format", default=None,
                        help=f"comma-separated output formats ({','.join(FORMATS)})")
    args = parser.parse_args(argv)

    formats = None if args.format is None else _split_formats(args.format)
    try:
        status, _ = run(args.command, args.config, out_dir=args.out,
                        seed=args.seed, dry_run=args.dry_run, formats=formats)
    except HardySpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
