"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one PASS line when it holds.  The whole module is desk-scale."""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import hardyspec as hs

IV = hs.Interval(0, 1)


def _report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


def test_criterion_1_constants_table():
    c = hs.hardy_constants(0.0, 0.0)
    assert abs(c.kappa - 0.25) <= 1e-12
    assert abs(c.fmt - 3.0) <= 1e-12
    assert abs(c.tubular - 6.0) <= 1e-12
    cm1 = hs.hardy_constants(-1.0, 0.0)
    assert abs(cm1.fmt - 0.5) <= 1e-12
    low_branch = 2.0 ** (-1 - 0.0) * (-1 + 2 - 0.0) ** 2
    assert abs(low_branch - cm1.fmt) <= 1e-12
    _report("1 (constants table)",
            f"kappa(0)={c.kappa}, fmt(0,0)={c.fmt}, fmt(-1,0)={cm1.fmt}, "
            f"tubular(0,0)={c.tubular}")


def test_criterion_2_lambda_catalogue():
    disc = hs.Disc((0, 0), 1.0)
    values = {
        "brezis_marcus": hs.lambda_bound(IV, "brezis_marcus").lam,
        "fmt_dint": hs.lambda_bound(IV, "fmt_dint").lam,
        "avkhadiev_wirths": hs.lambda_bound(IV, "avkhadiev_wirths").lam,
        "hhl_volume": hs.lambda_bound(disc, "hhl_volume").lam,
        "evans_lewis_volume": hs.lambda_bound(disc, "evans_lewis_volume").lam,
    }
    expected = {"brezis_marcus": 0.25, "fmt_dint": 3.0,
                "avkhadiev_wirths": 3.76, "hhl_volume": 0.5,
                "evans_lewis_volume": 3.0}
    for key, want in expected.items():
        assert abs(values[key] - want) <= 1e-12, key
    weighted = hs.lambda_bound(IV, "fmt_weighted", alpha=0.0, beta=0.0).lam
    assert abs(weighted - values["fmt_dint"]) <= 1e-12
    _report("2 (lambda catalogue)", str(values))


def test_criterion_3_classical_hardy_certification():
    cert0 = hs.verify_hardy(IV, beta=0.0, alpha=0.0, lam=0.0,
                            n=256, grading=0.15, levels=3)
    minima = [lv["minimum"] for lv in cert0.levels]
    dofs = [lv["dof"] for lv in cert0.levels]
    assert dofs == [255, 1023, 4095]
    assert all(m >= 0.25 - 1e-4 for m in minima)
    assert minima[0] > minima[1] > minima[2] > 0.25
    assert cert0.verdict == "CERTIFIED"

    cert3 = hs.verify_hardy(IV, beta=0.0, alpha=0.0, lam=3.0,
                            n=256, grading=0.15, levels=3)
    margins3 = [lv["margin"] for lv in cert3.levels]
    assert all(m >= -1e-4 for m in margins3)
    assert cert3.verdict == "CERTIFIED"
    _report("3 (classical Hardy certification)",
            f"minima={[f'{m:.6f}' for m in minima]}, "
            f"margins(lam=3)={[f'{m:.2e}' for m in margins3]}")


def test_criterion_4_weighted_hardy():
    cert = hs.verify_hardy(IV, beta=0.5, alpha=0.0, lam=0.0,
                           n=256, grading=0.15, levels=3)
    minima = [lv["minimum"] for lv in cert.levels]
    assert all(m >= 0.0625 - 1e-4 for m in minima)
    assert cert.verdict == "CERTIFIED"
    _report("4 (weighted Hardy, beta=0.5)",
            f"minima={[f'{m:.6f}' for m in minima]} all >= 0.0625 - 1e-4")


def test_criterion_5_torus_geometry():
    fat = hs.superharmonicity_scan(hs.Torus(3.0, 1.0))
    assert fat.verdict == "PASS"
    assert abs(fat.min_value - 0.5) <= 1e-3
    thin = hs.superharmonicity_scan(hs.Torus(1.8, 1.0))
    assert thin.verdict == "FAIL"

    torus = hs.Torus(3.0, 1.0)
    rng = np.random.RandomState(42)
    checked = 0
    worst = 0.0
    while checked < 1000:
        r = rng.uniform(2.0, 4.0, 4000)
        z = rng.uniform(-1.0, 1.0, 4000)
        th = rng.uniform(0, 2 * np.pi, 4000)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th), z])
        d = torus.distance_many(pts)
        for p in pts[(d > 0.05) & (d < 0.7)][: 1000 - checked]:
            cf = torus.distance_calculus(p)
            fd = torus.distance_calculus(p, h=1e-4, method="finite_difference")
            worst = max(worst, abs(cf.neg_laplacian_d - fd.neg_laplacian_d))
            checked += 1
    assert worst <= 1e-5
    _report("5 (torus geometry)",
            f"min -lap d = {fat.min_value} (c=3,R=1 PASS), thin torus FAIL, "
            f"closed-form vs FD worst {worst:.2e} at 1e3 points")


def test_criterion_6_persson_exhaustion():
    prob = hs.ProblemSpec(domain=IV, form=hs.FormSpec(a=1.0, q=0.0, beta=0.0),
                          gamma=0.5, ks=(2, 4, 8))
    seq = hs.persson_sequence(prob)
    rels = []
    for e in seq.entries:
        rel = abs(e["mu"] / (np.pi**2 * e["k"] ** 2) - 1)
        rels.append(rel)
        assert rel <= 1e-3
    prob_w = hs.ProblemSpec(domain=IV,
                            form=hs.FormSpec(a="d^0.5", q=0.0, beta=0.5),
                            gamma=0.9, ks=tuple(range(2, 17)))
    seq_w = hs.persson_sequence(prob_w)
    mus = seq_w.mus()
    ks = np.array([e["k"] for e in seq_w.entries], dtype=float)
    assert np.all(mus >= 0.0625 * ks**1.5)
    assert np.all(np.diff(mus) >= -1e-8)
    assert seq_w.fitted_exponent >= 1.4
    _report("6 (Persson exhaustion)",
            f"pi^2k^2 rel errs {[f'{r:.1e}' for r in rels]}; weighted exponent "
            f"{seq_w.fitted_exponent:.4f} >= 1.4, strip bound holds")


def test_criterion_7_dichotomy():
    sub = hs.check_form_nonnegativity(
        hs.ProblemSpec(domain=IV, form=hs.FormSpec(a=1.0, q="-0.125*d^-2", beta=0.0),
                       gamma=0.5, ks=(2,)))
    assert sub.verdict == "PASS"
    assert all(m >= -1e-4 for m in sub.detail["minima"])

    sup = hs.check_form_nonnegativity(
        hs.ProblemSpec(domain=IV, form=hs.FormSpec(a=1.0, q="-0.3*d^-2", beta=0.0),
                       gamma=0.5, ks=(2,)))
    assert sup.verdict == "FAIL"
    minima = sup.detail["minima"]
    assert minima[-1] < 10 * minima[0] < 0  # factor > 10 downward
    _report("7 (sub/supercritical dichotomy)",
            f"subcritical minima {[f'{m:.2e}' for m in sub.detail['minima']]}; "
            f"supercritical blow-down x{minima[-1] / minima[0]:.1f}")


def test_criterion_8_diagnose_end_to_end():
    discrete = hs.discreteness_diagnostic(hs.ProblemSpec(
        domain=IV, form=hs.FormSpec(a="d^0.5", q="-0.03*d^-1.5", beta=0.5),
        gamma=0.5, ks=tuple(range(2, 17))))
    assert discrete.verdict == "DISCRETE"

    inconclusive = hs.discreteness_diagnostic(hs.ProblemSpec(
        domain=IV, form=hs.FormSpec(a="d^0.5", q="-0.2*d^-1.5", beta=0.5),
        gamma=0.5, ks=tuple(range(2, 17))))
    assert inconclusive.verdict == "INCONCLUSIVE"
    assert inconclusive.pointwise.verdict == "FAIL"
    assert inconclusive.form is None
    _report("8 (discreteness diagnostic)",
            f"q=-0.03 d^-1.5 -> DISCRETE (exp {discrete.fitted_exponent:.3f}); "
            f"q=-0.2 d^-1.5 -> INCONCLUSIVE at stage 1")


def _first_bessel_zero_squared():
    """Radial shooting oracle for the smallest clamped mode of the unit disc:
    u'' + u'/r + lam u = 0, u(0) = 1, regular at the origin, u(1) = 0."""
    def boundary_value(lam):
        eps = 1e-8
        u0 = 1.0 - lam * eps**2 / 4
        du0 = -lam * eps / 2
        sol = solve_ivp(lambda r, y: [y[1], -y[1] / r - lam * y[0]],
                        (eps, 1.0), [u0, du0], rtol=1e-12, atol=1e-14)
        return sol.y[0, -1]
    return brentq(boundary_value, 5.0, 6.5, xtol=1e-12)


def test_criterion_9_solver_sanity():
    mesh = hs.build_mesh_1d(IV, 2000)
    pencil = hs.assemble_pencil(mesh, hs.FormSpec(a=1.0, q=0.0), 1.0)
    rep = hs.smallest_eigenpairs(pencil, 5)
    exact = np.array([(k * np.pi) ** 2 for k in range(1, 6)])
    rel_1d = np.max(np.abs(rep.eigenvalues / exact - 1))
    assert rel_1d <= 1e-4

    reference = _first_bessel_zero_squared()
    assert abs(reference - 5.7832) < 1e-3  # sanity of the oracle itself
    disc_mesh = hs.build_trimesh(hs.Disc((0, 0), 1.0), 0.02, 1.0)
    disc_pencil = hs.assemble_pencil(disc_mesh, hs.FormSpec(a=1.0, q=0.0), 1.0)
    disc_rep = hs.smallest_eigenpairs(disc_pencil, 1)
    rel_2d = abs(disc_rep.eigenvalues[0] / reference - 1)
    assert rel_2d <= 0.01
    _report("9 (solver sanity)",
            f"1D five modes rel {rel_1d:.2e}; disc mode {disc_rep.eigenvalues[0]:.5f} "
            f"vs shooting {reference:.5f} (rel {rel_2d:.2e})")


def test_criterion_10_ims_identity():
    mesh = hs.build_mesh_1d(IV, 64)
    part = hs.ims_partition(mesh, 0.1, 0.4)
    rng = np.random.RandomState(2024)
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(mesh.n_nodes)
        worst = max(worst, hs.ims_identity_residual(mesh, part, u, 1.0))
    assert worst <= 1e-10
    _report("10 (localization identity)", f"worst residual {worst:.2e} <= 1e-10")
