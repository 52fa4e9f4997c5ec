import json
import os

import pytest

from hardyspec.cli import main, run
from hardyspec.errors import ConfigError


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
gamma = 0.5

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
a = d^0.5
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
    for i, beta in enumerate(("beta = 0.5", "")):
        cfg = write(tmp_path, f"b{i}.ini", ini.format(beta=beta))
        status, doc = run("diagnose", cfg, out_dir=str(tmp_path / f"o{i}"))
        assert status == 0
        results.append(doc["result"])
    assert results[0] == results[1]
    assert results[1]["verdict"] == "DISCRETE"
    assert results[1]["sequence"]["beta"] == 0.5
    assert results[1]["exponent_required"] == pytest.approx(1.4)


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
    disc = "[domain]\nvariant = disc\n\n[form]\na = 1\nq = 0\n\n[numerics]\n"
    hardy = ("[domain]\nvariant = interval\n\n[form]\nbeta = 0.0\n{extra}\n"
             "[numerics]\nn = 32\n")
    plain = diagnose.format(extra="")
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
             ("spectrum", disc + "h = 0.25\ncount = 0\n"),
             ("spectrum", disc + "h = 0.25\ncount = 100000\n"),
             ("hardy", hardy.format(extra="lambda = -1")),
             ("hardy", hardy.format(extra="") + "levels = 0\n")]
    for i, (command, text) in enumerate(cases):
        cfg = write(tmp_path, f"bad{i}.ini", text)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if (command, text) in zero:
            assert "divides by a constant zero" in err
        if i >= len(cases) - 4:     # counts and ladder parameters
            code = main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                         "--dry-run"])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")


def test_unknown_identifier_exit_two(tmp_path, capsys):
    text = ("[domain]\nvariant = interval\n\n[form]\na = 1\nq = -0.1*foo\n\n"
            "[numerics]\nn = 64\ncount = 1\nk_min = 2\nk_max = 8\nsamples = 200\n")
    cfg = write(tmp_path, "foo.ini", text)
    for command in ("spectrum", "diagnose"):
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
sigma_left = 0.0

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


def test_cli_main_entry(tmp_path):
    cfg = write(tmp_path, "h.ini", HARDY_INI)
    code = main(["hardy", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--format", "json"])
    assert code == 0
