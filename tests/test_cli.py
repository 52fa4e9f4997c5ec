import configparser
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hardyspec
from hardyspec import cli, meshing, report
from hardyspec.cli import main, run
from hardyspec.errors import ConfigError
from hardyspec.report import jsonable


# coefficient texts that recursed past Python's limit, each a RecursionError
# traceback with exit 1: q in 250 parentheses, 1,200 unary minuses, and a
# sum of 3,000 terms that parsed and then overflowed the name check
DEEP = ("(" * 250 + "q" + ")" * 250, "-" * 1200 + "q", "+".join(["d"] * 3000))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


HARDY_INI = """
[run]
command = hardy

[domain]
variant = interval
a = 0.0
b = 1.0

[form]
beta = 0.0
alpha = 0.0
lambda = 3.0

[numerics]
n = 128
grading = 0.3
levels = 2
seed = 0

[output]
formats = json,csv
"""

CRITERIA_FAIL_INI = """
[domain]
variant = interval
a = 0.0
b = 1.0

[form]
a = 1
q = -0.2*d^-2
beta = 0.0
gamma = 0.5

[numerics]
samples = 2000
"""

DISTANCE_INI = """
[domain]
variant = torus
c = 3.0
r_tube = 1.0

[point]
x = 3.5
y = 0.0
z = 0.0
"""

OUTSIDE_INI = """
[domain]
variant = disc
radius = 1.0

[point]
x = 2.0
y = 0.0
"""

PERSSON_INI = """
[domain]
variant = interval

[form]
a = 1
q = 0
beta = 0.0

[numerics]
k_min = 2
k_max = 4
strip_elements = 48
"""

SPECTRUM_INI = """
[domain]
variant = interval

[form]
a = 1
q = 0

[numerics]
n = 200
count = 3

[output]
write_mesh = true
write_pencil = true
"""


def test_status_zero_on_certified(tmp_path):
    cfg = write(tmp_path, "h.ini", HARDY_INI)
    status, doc = run("hardy", cfg, out_dir=str(tmp_path / "out"),
                      formats=("json", "csv"))
    assert status == 0
    assert doc["result"]["verdict"] == "CERTIFIED"
    assert (tmp_path / "out" / "hardy_report.json").exists()
    assert (tmp_path / "out" / "hardy_table.csv").exists()


def test_hardy_without_a_lambda_method_certifies_as_lambda_zero(tmp_path):
    docs = []
    for line in ("lambda = 0.0\n", "lambda_method = none\n"):
        cfg = write(tmp_path, "h.ini", HARDY_INI.replace("lambda = 3.0\n", line))
        status, doc = run("hardy", cfg, out_dir=str(tmp_path / "out"))
        assert status == 0 and doc["result"]["verdict"] == "CERTIFIED"
        docs.append(doc["result"])
    assert docs[0] == docs[1] and docs[1]["lambda"] == 0.0


def test_status_one_on_fail(tmp_path):
    cfg = write(tmp_path, "c.ini", CRITERIA_FAIL_INI)
    status, doc = run("criteria", cfg, out_dir=str(tmp_path / "out"))
    assert status == 1
    assert doc["result"]["pointwise"]["verdict"] == "FAIL"


def test_status_two_on_error(tmp_path):
    cfg = write(tmp_path, "d.ini", OUTSIDE_INI)
    code = main(["distance", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2


def test_distance_report(tmp_path):
    cfg = write(tmp_path, "d.ini", DISTANCE_INI)
    status, doc = run("distance", cfg, out_dir=str(tmp_path / "out"))
    assert status == 0
    assert doc["result"]["d"] == pytest.approx(0.5)
    assert doc["result"]["neg_laplacian_d"] == pytest.approx((7 - 3) / (3.5 * 0.5))


def test_reports_reparse_and_reproduce(tmp_path, monkeypatch):
    cfg = write(tmp_path, "p.ini", PERSSON_INI)
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    s1, _ = run("persson", cfg, out_dir=out1, formats=("json", "csv"))
    s2, _ = run("persson", cfg, out_dir=out2, formats=("json", "csv"))
    assert s1 == s2 == 0
    d1 = json.load(open(os.path.join(out1, "persson_report.json")))
    d2 = json.load(open(os.path.join(out2, "persson_report.json")))
    assert d1["schema"] == "hardyspec-report/1"
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2
    csv1 = open(os.path.join(out1, "persson_table.csv")).read()
    csv2 = open(os.path.join(out2, "persson_table.csv")).read()
    assert csv1 == csv2
    assert csv1.splitlines()[0] == "k,delta,dof,mu,bound"
    # the same relative config path run from two checkouts
    reports = []
    for name in ("checkout_a", "checkout_b"):
        (tmp_path / name).mkdir()
        write(tmp_path / name, "p.ini", PERSSON_INI)
        monkeypatch.chdir(tmp_path / name)
        run("persson", "p.ini", out_dir="out")
        text = (tmp_path / name / "out" / "persson_report.json").read_text()
        reports.append([line for line in text.splitlines()
                        if '"generated_at"' not in line])
    assert reports[0] == reports[1]


def test_dry_run(tmp_path):
    cfg = write(tmp_path, "p.ini", PERSSON_INI)
    status, doc = run("persson", cfg, out_dir=str(tmp_path / "out"), dry_run=True)
    assert status == 0
    assert doc["result"]["dry_run"] is True
    assert "strip_nodes" in doc["result"]


def test_spectrum_with_exports(tmp_path):
    cfg = write(tmp_path, "s.ini", SPECTRUM_INI)
    out = str(tmp_path / "out")
    status, doc = run("spectrum", cfg, out_dir=out, formats=("json", "csv"))
    assert status == 0
    assert len(doc["result"]["eigenvalues"]) == 3
    assert (tmp_path / "out" / "spectrum_table.csv").exists()
    assert (tmp_path / "out" / "mesh.txt").exists()
    assert (tmp_path / "out" / "pencil_K.txt").exists()
    header = open(os.path.join(out, "spectrum_table.csv")).readline().strip()
    assert header == "index,value,residual"


def test_export_flags_take_configparser_booleans(tmp_path, capsys):
    exports = ("mesh.txt", "pencil_K.txt", "pencil_M.txt")
    flags = "write_mesh = true\nwrite_pencil = true\n"
    for i, (mesh_word, pencil_word, wanted) in enumerate(
            [("True", "yes", exports), ("ON", "1", exports),
             ("off", "No", ()), ("0", "FALSE", ())]):
        cfg = write(tmp_path, f"s{i}.ini", SPECTRUM_INI.replace(
            flags, f"write_mesh = {mesh_word}\nwrite_pencil = {pencil_word}\n"))
        out = tmp_path / f"out{i}"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert tuple(name for name in exports if (out / name).exists()) == wanted
    # any other word is refused before the solve, in a run and a dry run
    for word in ("maybe", "2", "t"):
        cfg = write(tmp_path, f"bad_{word}.ini",
                    SPECTRUM_INI.replace("write_pencil = true", f"write_pencil = {word}"))
        for extra in ([], ["--dry-run"]):
            out = tmp_path / f"out_{word}"
            assert main(["spectrum", "--config", cfg, "--out", str(out), *extra]) == 2
            assert f"write_pencil = {word!r} is not a boolean" in capsys.readouterr().err
            assert not out.exists()


def test_unknown_output_format_exit_two(tmp_path, capsys):
    flag = write(tmp_path, "s.ini", SPECTRUM_INI)
    key = write(tmp_path, "k.ini", SPECTRUM_INI + "formats = json,jsno\n")
    for cfg, extra in ((flag, ["--format", "jsno"]), (flag, ["--format", "json,"]),
                       (key, [])):
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out), *extra]) == 2
        assert "unknown output format" in capsys.readouterr().err
        # refused before any work: nothing is written
        assert not out.exists()
    # a [DEFAULT] key reaches every section, [output] too, and is no output key
    cfg = write(tmp_path, "d.ini", "[DEFAULT]\nseed = 3\n" + SPECTRUM_INI)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out"), "--dry-run"]) == 0


def test_diagnose_end_to_end(tmp_path):
    ini = """
[domain]
variant = interval

[form]
a = d^0.5
q = -0.03*d^-1.5
beta = 0.5
gamma = 0.5

[numerics]
k_min = 2
k_max = 8
strip_elements = 48
samples = 2000
"""
    cfg = write(tmp_path, "diag.ini", ini)
    status, doc = run("diagnose", cfg, out_dir=str(tmp_path / "out"),
                      formats=("json", "csv"))
    assert status == 0
    assert doc["result"]["verdict"] == "DISCRETE"
    assert (tmp_path / "out" / "persson_table.csv").exists()


def test_beta_defaults_to_power_of_d(tmp_path):
    ini = """
[domain]
variant = interval

[form]
a = {a}
q = -0.03*d^-1.5
{beta}
gamma = 0.5

[numerics]
k_min = 2
k_max = 8
strip_elements = 48
samples = 2000
"""
    results = []
    # d^0.5 however it is written
    for i, (a, beta) in enumerate((("d^0.5", "beta = 0.5"), ("d^0.5", ""),
                                   ("1*d^0.5", ""), ("d^0.25*d^0.25", ""))):
        cfg = write(tmp_path, f"b{i}.ini", ini.format(a=a, beta=beta))
        status, doc = run("diagnose", cfg, out_dir=str(tmp_path / f"o{i}"))
        assert status == 0
        results.append(doc["result"])
    assert results[1:3] == results[:1] * 2
    for result in results[1:]:
        assert result["verdict"] == "DISCRETE"
        assert result["sequence"]["beta"] == 0.5
        assert result["exponent_required"] == pytest.approx(1.4)
    # d^0.25*d^0.25 rounds apart from d^0.5 in the last bits
    mus = [[e["mu"] for e in r["sequence"]["entries"]] for r in results[2:]]
    assert mus[1] == pytest.approx(mus[0], rel=1e-9)


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        run("hardy", str(tmp_path / "missing.ini"))
    bad = write(tmp_path, "bad.ini", "[domain]\nvariant = dodecahedron\n")
    with pytest.raises(ConfigError):
        run("distance", bad)
    mismatch = write(tmp_path, "mm.ini",
                     "[run]\ncommand = hardy\n\n[domain]\nvariant = interval\n")
    with pytest.raises(ConfigError):
        run("persson", mismatch)
    badexpr = write(tmp_path, "be.ini",
                    "[domain]\nvariant = interval\n\n[form]\nq = d^^2\n\n"
                    "[numerics]\nk_min = 2\nk_max = 8\n")
    with pytest.raises(ConfigError):
        run("persson", badexpr)


def test_bad_form_parameters_exit_two(tmp_path, capsys):
    diagnose = ("[domain]\nvariant = interval\n\n[form]\na = 1\nq = 0\n{extra}\n"
                "[numerics]\nk_min = 2\nk_max = 8\n")
    torus = ("[domain]\nvariant = torus\n\n[form]\na = 1\nq = -0.05*d^-2*(1+x^2)\n\n"
             "[numerics]\nh = 0.25\ncount = 1\n")
    # the interval bench config with a strip {d < 1e-9} no sample reaches
    thin = ("[domain]\nvariant = interval\na = 0.0\nb = 1.0\n\n[form]\na = d^0.5\n"
            "q = -0.03*d^-1.5\nbeta = 0.5\ngamma = 0.5\n\n[numerics]\n"
            "k_min = 1000000000\nk_max = 1000000004\nstrip_elements = 96\n"
            "samples = 10000\n")
    # the same config with only the criteria's strip at k0 that thin
    far_k0 = thin.replace("k_min = 1000000000\nk_max = 1000000004",
                          "k_min = 2\nk_max = 16\nk0 = 1000000000")
    disc = "[domain]\nvariant = disc\n\n[form]\na = 1\nq = 0\n\n[numerics]\n"
    torus_diagnose = ("[domain]\nvariant = torus\n\n[form]\na = 1\nq = -0.05*d^-2\n"
                      "gamma = 0.5\n\n[numerics]\nk_min = 2\nk_max = 6\n")
    hardy = ("[domain]\nvariant = interval\n\n[form]\nbeta = 0.0\n{extra}\n"
             "[numerics]\nn = 32\n")
    plain = diagnose.format(extra="")
    interval = ("[domain]\nvariant = interval\n\n[form]\na = {a}\nq = {q}\n\n"
                "[numerics]\nn = 16\n")
    # strip keys that 2D strips, on the uniform template, never read: the
    # CLI reads them on every section, and ProblemSpec alone refuses them
    only_1d = [("diagnose", torus_diagnose + "grading = 0.3\n"),
               ("persson", disc + "k_min = 2\nk_max = 4\nstrip_elements = 48\n")]
    # refused alike in a run and under --dry-run
    checked = [*only_1d,
               # coefficient expressions too deep for the recursive walks
               *(("spectrum", interval.format(a=1, q=text)) for text in DEEP),
               *(("spectrum", interval.format(a=text, q=0)) for text in DEEP),
               # a torus mode whose square overflows float64, and so its text
               ("spectrum", "[domain]\nvariant = torus\n\n[numerics]\nh = 0.25\n"
                            f"mode = {10**2150}\n"),
               # a point that is not finite
               ("distance", "[domain]\nvariant = interval\n\n[point]\nx = nan\n"),
               ("distance", "[domain]\nvariant = torus\n\n[point]\nx = nan\ny = 0\n"
                            "z = 0\n"),
               # a [domain] without its variant, and a config with no section header
               ("distance", "[domain]\na = 0\n\n[point]\nx = 0.5\n"),
               ("distance", "variant = interval\n"),
               # weighted and tubular bounds outside their ranges
               ("hardy", hardy.format(extra="lambda_method = fmt_weighted\nalpha = -3")),
               ("hardy", hardy.format(extra="lambda_method = tubular")),
               ("hardy", hardy.format(extra="lambda_method = tubular\nalpha = -2\n"
                                            "delta = 0.25")),
               ("spectrum", disc + "h = 0.25\ncount = 0\n"),
               ("spectrum", disc + "h = 0.25\ncount = 100000\n"),
               ("spectrum", "[domain]\nvariant = interval\n\n[numerics]\nn = 1\n"),
               ("spectrum", "[domain]\nvariant = torus\n\n[numerics]\nh = 0.25\n"
                            "mode = -1\n"),
               # an azimuthal mode off a torus
               ("spectrum", disc + "h = 0.25\ncount = 1\nmode = 3\n"),
               ("diagnose", plain + "mode = 0\n"),
               # an azimuthal mode on a torus outside spectrum
               ("diagnose", torus_diagnose + "mode = 2\n"),
               ("hardy", "[domain]\nvariant = torus\n\n[form]\nbeta = 0.0\n\n"
                         "[numerics]\nh = 0.25\nlevels = 1\nmode = 2\n"),
               ("diagnose", plain + "strip_elements = 0\n"),
               ("hardy", hardy.format(extra="lambda = -1")),
               ("hardy", hardy.format(extra="") + "levels = 0\n"),
               # an odd graded ladder mesh, and a zero edge length
               ("hardy", hardy.format(extra="").replace("n = 32", "n = 3")),
               ("hardy", hardy.format(extra="").replace("interval", "disc") + "h = 0\n"),
               # a k0 strip no sample reaches: the dry run draws stage 1's set
               ("diagnose", far_k0),
               ("criteria", far_k0.replace("k_max = 16\n", "")),
               # too few exhaustion indices for the diagnostic's fit
               ("diagnose", plain.replace("k_max = 8", "k_max = 4")),
               # a name the section does not bind
               ("diagnose", plain.replace("q = 0", "q = y")),
               ("diagnose", disc.replace("q = 0", "q = abc") + "k_min = 2\nk_max = 8\n"),
               ("spectrum", disc.replace("q = 0", "q = abc") + "h = 0.25\n"),
               # a strip wider than sup d = 0.3
               ("diagnose", disc.replace("disc\n", "disc\nradius = 0.3\n")
                + "k_min = 2\nk_max = 8\n"),
               ("persson", disc.replace("disc\n", "disc\nradius = 0.3\n")
                + "k_min = 2\nk_max = 8\n"),
               # an [output] key nothing reads, and an export flag off spectrum
               ("spectrum", disc + "h = 0.25\ncount = 1\n\n[output]\nwrite_pencl = true\n"),
               ("diagnose", plain + "\n[output]\nwrite_pencil = true\n"),
               # a seed numpy refuses, from the config
               ("diagnose", plain + "seed = -1\n"),
               ("spectrum", disc + "h = 0.25\ncount = 1\nseed = 4294967296\n"),
               # a grading outside (0, 1], for the ladder and for the strips
               ("hardy", hardy.format(extra="") + "grading = 0\n"),
               ("hardy", hardy.format(extra="") + "grading = -1\n"),
               ("diagnose", plain + "grading = -1\n"),
               ("diagnose", plain + "grading = 0\n"),
               ("diagnose", plain + "grading = nan\n"),
               # a domain parameter that is not finite
               ("diagnose", plain.replace("interval\n", "interval\nb = inf\n")),
               # a strip wider than sup d = 1/2, refused by the interval's strip mesh
               ("diagnose", plain.replace("k_min = 2", "k_min = 1")),
               ("persson", plain.replace("k_min = 2", "k_min = 1")),
               # a disc whose volume overflows or vanishes: the hardy-disc bench
               # config raised OverflowError and ZeroDivisionError in the catalogue
               *(("hardy", f"[domain]\nvariant = disc\nradius = {radius}\n\n[form]\n"
                           "beta = 0.0\nalpha = 0.0\nlambda_method = hhl_volume\n\n"
                           "[numerics]\nh = 0.0625\ngrading = 0.5\nlevels = 2\n")
                 for radius in ("1e300", "1e-300")),
               # -laplacian(d) < 0 at the inner equator, 5e-7 short of c = 2R
               ("hardy", "[domain]\nvariant = torus\nc = 1.9999995\nr_tube = 1\n\n"
                         "[form]\nbeta = 0.0\nalpha = 0.0\nlambda_method = fmt_weighted\n\n"
                         "[numerics]\nh = 0.25\nlevels = 1\n")]
    # a constant zero divisor, by "/" or by a negative power
    zero = [("diagnose", plain.replace("q = 0", "q = -0.1/(1-1)*d^-2")),
            ("diagnose", plain.replace("q = 0", "q = -(0^-1)*d^-2")),
            ("spectrum", disc.replace("q = 0", "q = 1/0") + "h = 0.25\n"),
            ("spectrum", disc.replace("q = 0", "q = 0^-1") + "h = 0.25\n"),
            # a zero divisor that a function returns as a numpy scalar
            ("diagnose", plain.replace("q = 0", "q = -0.1/max(0, 0)*d^-2")),
            ("spectrum", disc.replace("q = 0", "q = 1/abs(0)") + "h = 0.25\n"),
            ("spectrum", disc.replace("q = 0", "q = 1/pos(0)") + "h = 0.25\n")]
    cases = [("diagnose", diagnose.format(extra="gamma = 1.5")),
             ("diagnose", diagnose.format(extra="beta = 1.0")),
             ("diagnose", diagnose.format(extra="beta = 0.5")),
             ("diagnose", plain.replace("k_max = 8", "k_max = 1")),
             ("diagnose", plain + "samples = 0\n"),
             ("diagnose", plain + "k0 = 0\n"),
             ("diagnose", thin),
             *zero,
             ("spectrum", torus),
             ("spectrum", disc + "h = -0.1\n"),
             ("spectrum", disc + "h = 0\n"),
             *checked]
    for i, (command, text) in enumerate(cases):
        cfg = write(tmp_path, f"bad{i}.ini", text)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if (command, text) in zero:
            assert "divides by a constant zero" in err
        if (command, text) in only_1d:
            assert "applies only on an interval: 2D strips use the uniform template" in err
        if (command, text) in checked:
            code = main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                         "--dry-run"])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")
    # a seed numpy refuses, from the flag
    cfg = write(tmp_path, "seed.ini", plain)
    for seed in ("-1", "4294967296"):
        for extra in ([], ["--dry-run"]):
            assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out"),
                         f"--seed={seed}", *extra]) == 2
            assert f"seed {seed} lies outside" in capsys.readouterr().err


def test_spectrum_of_a_diffusion_near_overflow(tmp_path, capfd):
    # a = 1e300 put the projected matrix near float64's underflow, where
    # LAPACK printed a DLASCL complaint and the solve exited 2; K is now
    # scaled by a power of two and the values back
    disc = "[domain]\nvariant = disc\n\n[form]\na = {a}\nq = 0\n\n[numerics]\nh = 0.1\n"
    values = {}
    for a in ("1", "1e300"):
        cfg = write(tmp_path, f"a{a}.ini", disc.format(a=a))
        status, doc = run("spectrum", cfg, out_dir=str(tmp_path / a))
        assert status == 0
        values[a] = np.array(doc["result"]["eigenvalues"])
    assert len(values["1"]) == 5
    np.testing.assert_allclose(values["1e300"], 1e300 * values["1"], rtol=1e-8)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out + err


def test_spectrum_far_below_the_mass_scale_exits_two(tmp_path, capsys):
    # with a = 1e-30 the bottom, 5.8e-30, lies far below the default floor's
    # reach: the pairs found are rounding noise of the shift (-1.04e-17),
    # whose residuals are small in absolute terms but whose backward errors
    # are not, so no spectrum is reported
    disc = "[domain]\nvariant = disc\n\n[form]\na = 1e-30\nq = 0\n\n[numerics]\nh = 0.1\n"
    cfg = write(tmp_path, "tiny.ini", disc)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "fail the backward-error test" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spectrum_clamps_the_grading_as_hardy_does(tmp_path):
    # 128 geometric layers a side at 0.5 fall below float64's spacing at
    # x = 1; the builder clamps the grading for spectrum as for a ladder
    text = ("[domain]\nvariant = interval\n\n[form]\n{form}\n"
            "[numerics]\nn = 256\ngrading = 0.5\n{numerics}")
    for command, form, numerics in (("spectrum", "a = d^0.5\n", "count = 1\n"),
                                    ("hardy", "beta = 0.5\n", "levels = 1\n")):
        cfg = write(tmp_path, f"{command}.ini", text.format(form=form, numerics=numerics))
        status, doc = run(command, cfg, out_dir=str(tmp_path / command))
        assert status == 0
    assert doc["result"]["verdict"] == "CERTIFIED"


def test_bad_grading_refused_before_sampling(tmp_path, capsys, monkeypatch):
    calls = []
    pointwise = cli.check_pointwise_criterion
    monkeypatch.setattr(cli, "check_pointwise_criterion",
                        lambda problem: calls.append(problem) or pointwise(problem))
    cfg = write(tmp_path, "g.ini", "[domain]\nvariant = interval\n\n[form]\na = 1\n"
                "q = -0.1*d^-2\n\n[numerics]\nk_min = 2\nk_max = 8\ngrading = -1\n")
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "grading must lie in (0, 1]" in capsys.readouterr().err
    assert calls == []


DIAGNOSE_INI = ("[domain]\nvariant = interval\n\n[form]\na = 1\nq = {q}\ngamma = 0.5\n"
                "{extra}\n[numerics]\nk_min = 2\nk_max = 6\n")


@pytest.mark.parametrize("q, extra, reason", [
    # q_- = 30 is within (1 - gamma)(1/(4 d^2) + 60), but above (1 - gamma) 4 pi^2,
    # the form's bottom on the strip {d < 1/2}: two clamped halves of length 1/2
    ("-30", "lambda = 60\nalpha = 0\n", "form nonnegativity failed at stage 2"),
    # a large constant potential flattens the strip minima's growth in k
    ("1000", "", "fitted exponent 0.235 below 1.900")])
def test_diagnose_inconclusive_past_stage_one(tmp_path, q, extra, reason):
    cfg = write(tmp_path, "d.ini", DIAGNOSE_INI.format(q=q, extra=extra))
    status, doc = run("diagnose", cfg, out_dir=str(tmp_path / "out"))
    assert status == 1
    assert doc["result"]["verdict"] == "INCONCLUSIVE"
    assert doc["result"]["reason"] == reason


def test_unconverged_pair_exits_two(tmp_path, capsys, monkeypatch):
    # a Lanczos vector that fails the backward-error test ends the run, with
    # no report
    lanczos = hardyspec.eigensolve._lanczos

    def perturbed(*args):
        lam, x, solves = lanczos(*args)
        wave = np.cos(np.arange(x.size)).reshape(x.shape)
        return lam, x + 1e-3 * np.linalg.norm(x) / np.linalg.norm(wave) * wave, solves

    monkeypatch.setattr(hardyspec.eigensolve, "_lanczos", perturbed)
    cfg = write(tmp_path, "h.ini", HARDY_INI)
    assert main(["hardy", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "fail the backward-error test" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_hardy_dry_run(tmp_path):
    cfg = write(tmp_path, "h.ini", HARDY_INI)
    status, doc = run("hardy", cfg, out_dir=str(tmp_path / "out"), dry_run=True)
    assert status == 0
    assert doc["result"] == {"dry_run": True, "beta": 0.0, "alpha": 0.0, "lambda": 3.0,
                             "nodes": 129, "elements": 128}


def test_annulus_and_polygon_domains(tmp_path, capsys):
    annulus = ("[domain]\nvariant = annulus\nr_in = 0.5\nr_out = 1.0\n\n"
               "[point]\nx = 0.7\ny = 0.0\n")
    polygon = ("[domain]\nvariant = convex_polygon\nvertices = {vertices}\n\n"
               "[point]\nx = 0.25\ny = 0.5\n")
    for text, d in ((annulus, 0.2), (polygon.format(vertices="0,0;1,0;1,1;0,1"), 0.25)):
        status, doc = run("distance", write(tmp_path, "ok.ini", text),
                          out_dir=str(tmp_path / "out"))
        assert status == 0 and doc["result"]["d"] == pytest.approx(d, rel=1e-12)
    # a vertex that is not a pair, and a clockwise polygon
    for vertices, refused in (("0,0;1,0,2;1,1", "bad vertex '1,0,2'"),
                              ("0,0;0,1;1,1;1,0", "counterclockwise")):
        cfg = write(tmp_path, "bad.ini", polygon.format(vertices=vertices))
        assert main(["distance", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert refused in capsys.readouterr().err


def test_oblong_polygon_diagnose_dry_run(tmp_path):
    # the dry run builds the k = 16 strip, 132,930 triangles of a ring
    # template whose full depth would hold 1.7e6: the work budget counts
    # only the rings the strip needs
    cfg = write(tmp_path, "rect.ini", "[domain]\nvariant = convex_polygon\n"
                "vertices = 0,0;4,0;4,1;0,1\n\n[form]\na = 1\nq = 0\n")
    status, doc = run("diagnose", cfg, out_dir=str(tmp_path / "out"), dry_run=True)
    assert status == 0 and doc["result"]["dry_run"] is True


HARDY_DISC_INI = """
[domain]
variant = disc

[form]
beta = 0.0
lambda_method = hhl_volume

[numerics]
h = 0.0625
grading = 0.5
levels = {levels}
"""


def test_hardy_ladder_growth_refused_by_the_dry_run(tmp_path, capsys):
    # each level has 16 times the triangles of the one before: from 8,877,
    # 3 levels would build 2,272,512 and 6 about 9.3e9; dry runs only, as
    # a run before the budget would build them
    cfg = write(tmp_path, "ok.ini", HARDY_DISC_INI.format(levels=2))
    status, doc = run("hardy", cfg, out_dir=str(tmp_path / "out"), dry_run=True)
    assert status == 0 and doc["result"]["elements"] == 8877
    for levels in (3, 6, 2**62):
        cfg = write(tmp_path, f"l{levels}.ini", HARDY_DISC_INI.format(levels=levels))
        code = main(["hardy", "--config", cfg, "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 2
        assert f"{levels} levels of 2 refinements from 8877 elements exceed the budget" \
            in capsys.readouterr().err


def test_form_check_ladder_counted_by_the_dry_run(tmp_path, capsys, monkeypatch):
    # the k0 = 2 strip has 32 elements, and the form check refines it twice
    cfg = write(tmp_path, "d.ini", "[domain]\nvariant = interval\n\n[form]\na = 1\n"
                "q = 0\n\n[numerics]\nk_min = 2\nsamples = 200\n"
                "strip_elements = 16\n")
    for command in ("criteria", "diagnose"):
        monkeypatch.setattr(meshing, "MAX_ELEMENTS", 128)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--dry-run"]) == 0
        monkeypatch.setattr(meshing, "MAX_ELEMENTS", 127)
        for flags in ([], ["--dry-run"]):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                         *flags]) == 2
            assert "3 levels of 1 refinements from 32 elements" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, words", [
    ("samples", "2000000", "samples must lie in [1, 100000], got 2000000"),
    ("k_max", "2000000", "1999999 strips of 193 elements exceed the budget"),
    ("k_max", str(2**64), f"{2**64 - 1} strips of 193 elements exceed the budget")])
def test_diagnose_work_refused_by_the_dry_run(tmp_path, capsys, key, value, words):
    # counted in O(1): the dry run neither draws the samples nor builds the
    # range of indices
    text = "[domain]\nvariant = interval\n\n[form]\na = 1\nq = 0\n\n[numerics]\n"
    cfg = write(tmp_path, "d.ini", text + f"{key} = {value}\n")
    code = main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out"), "--dry-run"])
    assert code == 2 and words in capsys.readouterr().err


@pytest.mark.parametrize("command, variant, numerics", [
    ("spectrum", "disc", "h = 0.1\n"), ("persson", "interval", "k_max = 4\n"),
    ("criteria", "interval", "samples = 200\n"), ("diagnose", "interval", "samples = 200\n")])
def test_dry_run_assembles_as_the_run(tmp_path, capsys, command, variant, numerics):
    # only assembly evaluates a, so the dry run assembles the run's first pencil
    text = f"[domain]\nvariant = {variant}\n\n[form]\na = -1\nq = 0\n\n[numerics]\n"
    _refused_with(tmp_path, capsys, command, text + numerics,
                  "error: diffusion coefficient is not positive at a quadrature point")


def test_jsonable_numpy_scalars():
    doc = jsonable({"x": np.float64(0.5), "n": np.int64(3), "ok": np.bool_(True)})
    assert doc == {"x": 0.5, "n": 3, "ok": True}
    assert [type(v) for v in doc.values()] == [float, int, bool]


def test_atomic_write_onto_a_directory_leaves_no_temp_file(tmp_path):
    target = tmp_path / "spectrum_report.json"
    target.mkdir()
    with pytest.raises(OSError):
        report._atomic_write(str(target), "{}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum_report.json"]
    assert target.is_dir() and not any(target.iterdir())


def test_unknown_identifier_exit_two(tmp_path, capsys):
    form = "[domain]\nvariant = interval\n\n[form]\na = 1\nq = -0.1*foo\n\n[numerics]\n"
    for command, numerics in (("spectrum", "n = 64\ncount = 1\n"),
                              ("diagnose", "k_min = 2\nk_max = 8\nsamples = 200\n")):
        cfg = write(tmp_path, f"{command}.ini", form + numerics)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'foo'" in err


def test_spectrum_robin_end(tmp_path):
    ini = """
[domain]
variant = interval

[form]
a = 1
q = 0
bc_right = robin
sigma_right = 2.0

[numerics]
n = 400
count = 1
"""
    cfg = write(tmp_path, "r.ini", ini)
    status, doc = run("spectrum", cfg, out_dir=str(tmp_path / "out"))
    assert status == 0
    # transcendental oracle: tan(s) = -s/sigma on (pi/2, pi)
    import numpy as np
    from scipy.optimize import brentq
    s = brentq(lambda t: np.tan(t) + t / 2.0, np.pi / 2 + 1e-9, np.pi - 1e-9)
    assert doc["result"]["eigenvalues"][0] == pytest.approx(s**2, rel=1e-3)


def _refused_with(tmp_path, capsys, command, text, *words):
    """Exit 2 naming each of `words`, in a run and under --dry-run alike."""
    cfg = write(tmp_path, "ends.ini", text)
    for flags in ([], ["--dry-run"]):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert all(w in err for w in words), err


ENDS_INI = "[domain]\nvariant = {variant}\n\n[form]\na = 1\nq = 0\n{ends}\n[numerics]\n"


def test_robin_ends_refused_off_spectrum(tmp_path, capsys):
    interval = ENDS_INI.format(variant="interval", ends="bc_left = robin\nsigma_left = 5.0")
    for command, numerics in (("persson", "k_min = 2\nk_max = 4\n"),
                              ("diagnose", "k_min = 2\nk_max = 8\n"),
                              ("criteria", "samples = 200\n"),
                              ("hardy", "n = 32\nlevels = 1\n")):
        _refused_with(tmp_path, capsys, command, interval + numerics,
                      f"the {command} command does not read", "[form] bc_left",
                      "[form] sigma_left")


def test_robin_ends_refused_off_interval(tmp_path, capsys):
    for variant, ends, key in (("disc", "bc_left = robin", "bc_left"),
                               ("torus", "bc_right = robin\nsigma_right = 1.0", "bc_right")):
        _refused_with(tmp_path, capsys, "spectrum",
                      ENDS_INI.format(variant=variant, ends=ends) + "h = 0.25\ncount = 1\n",
                      f"the spectrum command does not read [form] {key}")


def test_sigma_refused_on_a_clamped_end(tmp_path, capsys):
    # a sigma on an end that is not Robin would be read by nothing
    for ends in ("sigma_left = 5.0", "bc_left = dirichlet\nsigma_left = 5.0",
                 "bc_right = robin\nsigma_right = 2.0\nsigma_left = 0.0"):
        _refused_with(tmp_path, capsys, "spectrum",
                      ENDS_INI.format(variant="interval", ends=ends) + "n = 64\ncount = 1\n",
                      "the spectrum command does not read [form] sigma_left")


RULE_SPECTRUM = ("[domain]\nvariant = interval\n\n[form]\na = 1\nq = 0\n\n"
                 "[numerics]\nn = 16\ncount = 1\n\n[output]\nformats = json\n")
RULE_HARDY_DISC = ("[domain]\nvariant = disc\n\n[form]\nbeta = 0.0\n"
                   "lambda_method = hhl_volume\n\n[numerics]\nh = 0.5\nlevels = 1\n")
RULE_HARDY_INTERVAL = ("[domain]\nvariant = interval\n\n[form]\nbeta = 0.0\n"
                       "lambda = 1.0\n\n[numerics]\nn = 32\nlevels = 1\n")


@pytest.mark.parametrize("command, text, flags, refused", [
    # a misspelt key in each section, and a misspelt section
    ("spectrum", RULE_SPECTRUM.replace("interval\n", "interval\nradus = 2.0\n"), [],
     "the spectrum command does not read [domain] radus"),
    ("spectrum", RULE_SPECTRUM.replace("q = 0\n", "q = 0\ngama = 0.9\n"), [],
     "the spectrum command does not read [form] gama"),
    ("spectrum", RULE_SPECTRUM.replace("count = 1\n", "cout = 2\n"), [],
     "the spectrum command does not read [numerics] cout"),
    # nothing in spectrum uses beta
    ("spectrum", RULE_SPECTRUM.replace("q = 0\n", "q = 0\nbeta = 0.3\n"), [],
     "the spectrum command does not read [form] beta"),
    ("spectrum", RULE_SPECTRUM + "write_pencl = true\n", [],
     "the spectrum command does not read [output] write_pencl"),
    ("distance", "[domain]\nvariant = disc\n\n[point]\nx = 0.5\nyy = 0.0\n", [],
     "the distance command does not read [point] yy"),
    ("spectrum", RULE_SPECTRUM + "\n[numercs]\ncount = 2\n", [],
     "the spectrum command does not read [numercs]"),
    # configparser copies [DEFAULT] keys into every section: they are exempt
    ("spectrum", "[DEFAULT]\nowner = lab\n" + RULE_SPECTRUM, [], None),
    # the config's formats are checked, and its seed read, under an override
    ("spectrum", RULE_SPECTRUM.replace("= json", "= jsno"), ["--format", "json"],
     "unknown output format 'jsno'"),
    ("spectrum", RULE_SPECTRUM.replace("count = 1\n", "count = 1\nseed = 1\n"),
     ["--seed", "3"], None),
    # keys read only where their value is used
    ("hardy", RULE_HARDY_DISC + "n = 32\n", [],
     "the hardy command does not read [numerics] n"),
    ("hardy", RULE_HARDY_INTERVAL + "h = 0.1\n", [],
     "the hardy command does not read [numerics] h"),
    ("hardy", RULE_HARDY_DISC.replace("hhl_volume\n", "hhl_volume\ndelta = 0.1\n"), [],
     "the hardy command does not read [form] delta"),
    ("hardy", RULE_HARDY_INTERVAL.replace("1.0\n", "5.0\nlambda_method = none\n"), [],
     "the hardy command does not read [form] lambda"),
    # persson_sequence reads no criterion key, and criteria works at k0 alone
    ("persson", PERSSON_INI.replace("beta = 0.0\n", "beta = 0.0\ngamma = 0.9\n"), [],
     "the persson command does not read [form] gamma"),
    ("persson", PERSSON_INI.replace("beta = 0.0\n", "beta = 0.0\nlambda = 100\n"), [],
     "the persson command does not read [form] lambda"),
    ("persson", PERSSON_INI.replace("beta = 0.0\n", "beta = 0.0\nalpha = 1\n"), [],
     "the persson command does not read [form] alpha"),
    ("persson", PERSSON_INI + "samples = 5\n", [],
     "the persson command does not read [numerics] samples"),
    ("persson", PERSSON_INI + "k0 = 3\n", [],
     "the persson command does not read [numerics] k0"),
    ("criteria", CRITERIA_FAIL_INI + "k_max = 8\n", [],
     "the criteria command does not read [numerics] k_max")])
def test_a_key_nothing_reads_exits_two(tmp_path, capsys, command, text, flags, refused):
    cfg = write(tmp_path, "rule.ini", text)
    for extra in ([], ["--dry-run"]):
        out = tmp_path / f"out{len(extra)}"
        code = main([command, "--config", cfg, "--out", str(out), *flags, *extra])
        err = capsys.readouterr().err
        if refused is None:
            assert code == 0, err
        else:
            assert code == 2 and refused in err
            # refused before any work: nothing is written
            assert not out.exists()


def test_spectrum_torus_modes(tmp_path):
    base = """
[domain]
variant = torus
c = 3.0
r_tube = 1.0

[form]
a = 1
q = 0

[numerics]
h = 0.25
count = 1
mode = {mode}
"""
    vals = {}
    for mode in (0, 1, 2):
        cfg = write(tmp_path, f"t{mode}.ini", base.format(mode=mode))
        status, doc = run("spectrum", cfg, out_dir=str(tmp_path / f"o{mode}"))
        assert status == 0
        vals[mode] = doc["result"]["eigenvalues"][0]
    # the azimuthal barrier raises the ground energy
    assert vals[2] > vals[1] > vals[0]
    # the reduced potential q + a m^2/r^2, printed from its expression tree
    assert doc["result"]["mesh_info"]["q"] == "(0.0 + (1.0 * (4.0 / r^2.0)))"


COLD_START = """
import sys
from hardyspec.cli import run
# each config is loaded by _load_config, its domain built and meshed
for command, path in zip(("diagnose", "spectrum", "spectrum"), sys.argv[1:4]):
    run(command, path, out_dir=sys.argv[4], dry_run=True)
assert "scipy.optimize" not in sys.modules, "scipy.optimize loaded at start-up"
from hardyspec.geometry import ConvexPolygon
square = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
assert square.chebyshev_center().tolist() == [0.5, 0.5]
assert square.interior_diameter() == 1.0
assert "scipy.optimize" in sys.modules
"""


def test_cold_start_skips_scipy_optimize(tmp_path):
    # a fresh interpreter: the test modules import scipy.optimize themselves
    configs = [("interval", "k_min = 2\nk_max = 8\n"),
               ("disc", "h = 0.25\ncount = 1\n"),
               ("torus", "h = 0.25\ncount = 1\nmode = 2\n")]
    paths = [write(tmp_path, f"{variant}.ini",
                   f"[domain]\nvariant = {variant}\n\n[form]\na = 1\nq = 0\n\n"
                   f"[numerics]\n{numerics}")
             for variant, numerics in configs]
    src = os.path.dirname(os.path.dirname(os.path.abspath(hardyspec.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD_START, *paths,
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_main_entry(tmp_path):
    cfg = write(tmp_path, "h.ini", HARDY_INI)
    code = main(["hardy", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--format", "json"])
    assert code == 0


# README's key table, per command a coarse base config and the keys it reads
# there; every key is drawn from the typed edge values EDGE and its own
# EDGE_EXTRA.  2**62 elements and h = 1e-300 are refused by the work budget
# before anything is allocated, as numpy refused them before the budget.
# No value here would, if its refusal failed, build a mesh numpy allows.
EDGE = ("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "", "abc", "2.5")
EDGE_EXTRA = {"n": (str(2**62),), "strip_elements": (str(2**62),),
              "a": ("d^^2", "y", "1/0", *DEEP), "q": ("d^^2", "y", "-0.5*d^-2", *DEEP),
              "bc_left": ("robin", "Robin", "neumann"),
              "lambda_method": ("none", "tubular"),
              "variant": ("disc", "dodecahedron")}
FORM_KEYS = [("form", k) for k in ("a", "q", "beta", "gamma", "lambda", "alpha")]
STRIP_KEYS = [("numerics", k) for k in ("k_min", "tol", "strip_elements", "grading")]
PROBE_BASES = {
    "distance": ("distance", "[domain]\nvariant = interval\n\n[point]\nx = 0.3\n",
                 [("domain", "variant"), ("domain", "a"), ("domain", "b"), ("point", "x")]),
    "hardy-interval": (
        "hardy", "[domain]\nvariant = interval\n\n[form]\nbeta = 0.0\nlambda = 1.0\n\n"
        "[numerics]\nn = 32\nlevels = 1\n",
        [("form", k) for k in ("beta", "alpha", "lambda", "lambda_method")]
        + [("numerics", k) for k in ("n", "grading", "levels", "tol")]),
    "hardy-disc": (
        "hardy", "[domain]\nvariant = disc\n\n[form]\nbeta = 0.0\n"
        "lambda_method = hhl_volume\n\n[numerics]\nh = 0.25\nlevels = 1\n",
        [("domain", "radius"), ("form", "beta"), ("form", "alpha"), ("form", "delta")]
        + [("numerics", k) for k in ("h", "grading", "levels")]),
    "spectrum-interval": (
        "spectrum", "[domain]\nvariant = interval\n\n[form]\na = 1\nq = 0\n\n"
        "[numerics]\nn = 16\ncount = 1\n",
        [("form", k) for k in ("a", "q", "bc_left", "sigma_left")]
        + [("numerics", k) for k in ("n", "grading", "count", "tol")]),
    "spectrum-disc": (
        "spectrum", "[domain]\nvariant = disc\n\n[form]\na = 1\nq = 0\n\n"
        "[numerics]\nh = 0.25\ncount = 1\n",
        [("domain", "radius"), ("form", "a"), ("form", "q"), ("output", "write_mesh")]
        + [("numerics", k) for k in ("h", "grading", "count")]),
    "persson": (
        "persson", "[domain]\nvariant = interval\n\n[form]\na = 1\nq = 0\n\n"
        "[numerics]\nk_min = 2\nk_max = 4\nstrip_elements = 16\n",
        FORM_KEYS[:3] + STRIP_KEYS + [("numerics", "k_max")]),
    "persson-annulus": (
        "persson", "[domain]\nvariant = annulus\nr_in = 0.5\nr_out = 1.0\n\n"
        "[form]\na = 1\nq = 0\n\n[numerics]\nk_min = 5\nk_max = 8\n",
        [("domain", "r_in"), ("domain", "r_out"), ("form", "a"), ("form", "q")]
        + [("numerics", k) for k in ("k_min", "k_max", "tol")]),
    "criteria": (
        "criteria", "[domain]\nvariant = interval\n\n[form]\na = 1\nq = -0.1*d^-2\n\n"
        "[numerics]\nk_min = 2\nsamples = 200\n",
        FORM_KEYS + STRIP_KEYS + [("numerics", "k0"), ("numerics", "samples")]),
    "diagnose": (
        "diagnose", "[domain]\nvariant = interval\n\n[form]\na = 1\nq = 0\n\n"
        "[numerics]\nk_min = 2\nk_max = 6\nsamples = 200\nstrip_elements = 16\n",
        FORM_KEYS + STRIP_KEYS + [("numerics", k) for k in ("k_max", "k0", "samples")]),
}


@st.composite
def _edge_cases(draw, max_keys):
    """A base config's name and up to `max_keys` of its keys set to edge
    values, or a key that nothing reads."""
    base = draw(st.sampled_from(sorted(PROBE_BASES)))
    keys = PROBE_BASES[base][2] + [("numerics", "bogus")]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=max_keys,
                           unique=True))
    return base, tuple((section, key, draw(st.sampled_from(EDGE + EDGE_EXTRA.get(key, ()))))
                       for section, key in chosen)


def _run_edge_case(case, tmp, *flags):
    """Exit status of cli.main on the case, and its report's result."""
    base, edits = case
    command, text, _ = PROBE_BASES[base]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    for section, key, value in edits:
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    cfg, out = os.path.join(tmp, "edge.ini"), os.path.join(tmp, "out")
    with open(cfg, "w") as handle:
        parser.write(handle)
    code = main([command, "--config", cfg, "--out", out, *flags])
    path = os.path.join(out, f"{command}_report.json")
    if not os.path.exists(path):
        return code, None
    with open(path) as handle:
        return code, json.load(handle)["result"]


# about 1 s for 200 dry runs
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=_edge_cases(2))
@example(case=("hardy-disc", (("numerics", "h", "1e-300"),)))
@example(case=("hardy-disc", (("numerics", "grading", "1e-300"),)))
@example(case=("spectrum-disc", (("numerics", "h", "1e-300"),)))
@example(case=("spectrum-interval", (("numerics", "n", str(2**62)),)))
@example(case=("diagnose", (("numerics", "strip_elements", str(2**62)),)))
def test_every_edge_config_dry_runs_to_zero_or_two(case):
    # cli.main raises nothing: each config is refused (2) or would run (0)
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = _run_edge_case(case, tmp, "--dry-run")
    assert code in (0, 2)


# about 0.1 s for 40 coarse runs of one key: most are refused at once
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(case=_edge_cases(1))
@example(case=("criteria", (("form", "q", "-0.5*d^-2"),)))
@example(case=("diagnose", (("form", "q", "-0.5*d^-2"),)))
@example(case=("spectrum-interval", (("numerics", "n", str(2**62)),)))
@example(case=("diagnose", (("numerics", "strip_elements", str(2**62)),)))
def test_every_edge_config_runs_to_a_verdict_or_a_refusal(case):
    # exit 1 only with the FAIL or INCONCLUSIVE report that explains it
    with tempfile.TemporaryDirectory() as tmp:
        code, result = _run_edge_case(case, tmp)
    assert code in (0, 1, 2)
    if code == 1:
        assert result["verdict"] in ("FAIL", "INCONCLUSIVE")
