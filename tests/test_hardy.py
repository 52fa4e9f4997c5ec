import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyspec import (Annulus, ConvexPolygon, Disc, Interval, Torus, build_trimesh,
                       counting_function, hardy_constants, kappa, lambda_bound,
                       verify_hardy)
from hardyspec.eigensolve import ladder
from hardyspec import hardy, meshing
from hardyspec.errors import ExponentOutOfRange, MeshGenerationFailure, MethodNotApplicable
from hardyspec.hardy import (CERT_TOL, REFINE_FACTOR, fmt_constant, hardy_pencil,
                             ladder_mesh, tubular_constant)
from hardyspec.meshing import nested
from hardyspec.report import jsonable

IV = Interval(0, 1)
UNIT_DISC = Disc((0, 0), 1.0)


def test_constants_table():
    assert kappa(0.0) == 0.25
    c = hardy_constants(0.0, 0.0)
    assert abs(c.kappa - 0.25) < 1e-12
    assert abs(c.fmt - 3.0) < 1e-12
    assert abs(c.tubular - 6.0) < 1e-12
    cm1 = hardy_constants(-1.0, 0.0)
    assert abs(cm1.fmt - 0.5) < 1e-12


def test_branch_agreement_at_minus_one():
    rng = np.random.RandomState(0)
    for beta in rng.uniform(-10, 1 - 1e-9, 100):
        low = 2.0 ** (-1 - beta) * (-1 + 2 - beta) ** 2
        high = 2.0 ** (-1 - beta) * (1 - beta) * (2 * (-1) + 3 - beta)
        assert abs(low - high) <= 1e-12 * max(1.0, abs(low))
        assert abs(fmt_constant(-1.0, beta) - low) <= 1e-12 * max(1.0, abs(low))


def test_kappa_positive_and_decreasing():
    grid = np.linspace(-5, 0.999, 300)
    values = [(1 - b) ** 2 / 4 for b in grid]
    assert all(v > 0 for v in values)
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
    assert kappa(0.5) == 0.0625


def test_out_of_range_constants_absent():
    c = hardy_constants(-1.9, 0.0)   # alpha > beta-2 holds, tubular needs > -1.5
    assert c.fmt is not None
    assert c.tubular is None
    c2 = hardy_constants(-2.5, 0.0)
    assert c2.fmt is None


def test_beta_out_of_range():
    with pytest.raises(ExponentOutOfRange):
        hardy_constants(0.0, 1.0)
    with pytest.raises(ExponentOutOfRange):
        kappa(1.5)


def test_tubular_positivity():
    rng = np.random.RandomState(1)
    for _ in range(100):
        beta = rng.uniform(-4, 0.999)
        alpha = rng.uniform((beta - 3) / 2 + 1e-6, 3)
        assert tubular_constant(alpha, beta) > 0


def test_catalogue_interval():
    assert abs(lambda_bound(IV, "brezis_marcus").lam - 0.25) < 1e-12
    assert abs(lambda_bound(IV, "fmt_dint").lam - 3.0) < 1e-12
    assert abs(lambda_bound(IV, "avkhadiev_wirths").lam - 3.76) < 1e-12


def test_catalogue_disc():
    assert abs(lambda_bound(UNIT_DISC, "hhl_volume").lam - 0.5) < 1e-12
    assert abs(lambda_bound(UNIT_DISC, "evans_lewis_volume").lam - 3.0) < 1e-12


def test_weighted_matches_catalogue():
    weighted = lambda_bound(IV, "fmt_weighted", alpha=0.0, beta=0.0)
    plain = lambda_bound(IV, "fmt_dint")
    assert abs(weighted.lam - plain.lam) < 1e-12


def test_convexity_gate():
    annulus = Annulus((0, 0), 0.5, 1.0)
    with pytest.raises(MethodNotApplicable):
        lambda_bound(annulus, "fmt_dint")
    with pytest.raises(MethodNotApplicable):
        lambda_bound(Torus(3, 1), "brezis_marcus")


def test_superharmonic_gate():
    # the fat torus has -laplacian(d) >= 0, the thin one does not, nor does
    # a torus 5e-7 short of c = 2R
    spec = lambda_bound(Torus(3, 1), "fmt_weighted", alpha=0.0, beta=0.0)
    assert spec.lam > 0
    assert spec.notes["superharmonic"] == "infimum 0.5 >= 0"
    for torus in (Torus(1.8, 1), Torus(2 - 5e-7, 1)):
        with pytest.raises(MethodNotApplicable):
            lambda_bound(torus, "fmt_weighted", alpha=0.0, beta=0.0)


def test_tubular_bound():
    spec = lambda_bound(IV, "tubular", alpha=0.0, beta=0.0, delta=0.25)
    assert abs(spec.lam - 6.0 * 0.25) < 1e-12
    with pytest.raises(MethodNotApplicable):
        lambda_bound(IV, "tubular", alpha=0.0, beta=0.0, delta=0.9)
    # non-convex domains: the infimum passes the fat torus and refuses the
    # thin torus and the annulus, whose -laplacian(d) < 0 near the inner
    # boundary
    spec = lambda_bound(Torus(3, 1), "tubular", alpha=0.0, beta=0.0, delta=0.25)
    assert abs(spec.lam - 1.5) < 1e-12
    assert spec.notes["superharmonic"] == "infimum 0.5 >= 0"
    for domain in (Torus(1.8, 1), Annulus((0, 0), 0.5, 1.0)):
        with pytest.raises(MethodNotApplicable):
            lambda_bound(domain, "tubular", alpha=0.0, beta=0.0, delta=0.25)


def test_weighted_and_tubular_bounds_out_of_range_refused():
    with pytest.raises(MethodNotApplicable, match="needs the weight exponent alpha"):
        lambda_bound(UNIT_DISC, "fmt_weighted")
    with pytest.raises(MethodNotApplicable, match="fmt_weighted needs alpha > beta - 2"):
        lambda_bound(UNIT_DISC, "fmt_weighted", alpha=-3.0)
    with pytest.raises(MethodNotApplicable, match="tubular needs 2 alpha - beta"):
        lambda_bound(UNIT_DISC, "tubular", alpha=-2.0, delta=0.25)
    with pytest.raises(MethodNotApplicable, match="tubular needs the strip width"):
        lambda_bound(UNIT_DISC, "tubular", alpha=0.0)


def test_no_method_is_lambda_zero():
    for domain in (IV, UNIT_DISC, Annulus((0, 0), 0.5, 1.0)):
        spec = lambda_bound(domain, "none", beta=0.5)
        assert (spec.lam, spec.alpha, spec.beta, spec.method) == (0.0, 0.0, 0.5, "none")
        assert spec.kappa == kappa(0.5)
    assert lambda_bound(IV, "none", alpha=2.0).alpha == 2.0


def test_ladder_mesh_default_edge_length():
    # a 2D ladder without h starts at D_int/16, 1/8 on the unit disc
    default = ladder_mesh(UNIT_DISC, None, None, 1.0, 1)
    explicit = build_trimesh(UNIT_DISC, 0.125, 1.0)
    assert np.array_equal(default.points, explicit.points)
    assert np.array_equal(default.elements, explicit.elements)


def test_unknown_method():
    with pytest.raises(MethodNotApplicable):
        lambda_bound(IV, "made_up")


def _assert_nested_ladder(levels, dim, refine_factor):
    """Each level refines the last: 2^(dim refine_factor) times the
    elements, more dof, and a minimum that never increases."""
    for coarse, fine in zip(levels, levels[1:]):
        assert fine["size"] == 2 ** (dim * refine_factor) * coarse["size"]
        assert fine["dof"] > coarse["dof"]
        assert fine["minimum"] <= coarse["minimum"]


def certify(domain, beta, alpha=0.0, lam=0.0, n=256, h=None, grading=0.15,
            levels=3):
    """verify_hardy; for a CERTIFIED ladder also the inertia count behind
    each level: its pencil has no eigenvalue below kappa - CERT_TOL, the
    first shift of the level's solve."""
    cert = verify_hardy(domain, beta, alpha, lam, n=n, h=h, grading=grading,
                        levels=levels)
    if cert.verdict == "CERTIFIED":
        mesh = ladder_mesh(domain, n, h, grading, levels)
        for (fine, _), row in zip(nested(mesh, levels, REFINE_FACTOR), cert.levels):
            pencil = hardy_pencil(fine, beta, alpha, lam)
            assert pencil.dof == row["dof"]
            assert counting_function(pencil, kappa(beta) - CERT_TOL) == 0
    return cert


def test_certify_classical_hardy():
    cert = certify(IV, beta=0.0, alpha=0.0, lam=0.0, n=256,
                   grading=0.15, levels=3)
    assert cert.verdict == "CERTIFIED"
    minima = [lv["minimum"] for lv in cert.levels]
    assert all(m >= 0.25 - 1e-4 for m in minima)
    assert minima[0] > minima[1] > minima[2]
    _assert_nested_ladder(cert.levels, dim=1, refine_factor=2)


def test_certify_with_remainder():
    cert = certify(IV, beta=0.0, alpha=0.0, lam=3.0, n=256,
                   grading=0.15, levels=3)
    assert cert.verdict == "CERTIFIED"
    assert all(lv["margin"] >= -1e-4 for lv in cert.levels)


def test_certify_weighted():
    cert = certify(IV, beta=0.5, alpha=0.0, lam=0.0, n=256,
                   grading=0.15, levels=3)
    assert cert.verdict == "CERTIFIED"
    assert all(lv["minimum"] >= 0.0625 - 1e-4 for lv in cert.levels)


def test_monotone_in_lambda():
    minima = []
    for lam in (0.0, 1.0, 3.0):
        cert = certify(IV, beta=0.0, alpha=0.0, lam=lam, n=128,
                       grading=0.3, levels=1)
        minima.append(cert.levels[-1]["minimum"])
    assert minima[0] >= minima[1] >= minima[2]


def test_certificate_serialization():
    cert = certify(IV, beta=0.0, alpha=0.0, lam=0.0, n=64,
                   grading=0.5, levels=1)
    doc = jsonable(cert)
    assert doc["verdict"] == "CERTIFIED"
    assert "lambda" in doc and "lam" not in doc
    assert "upper bounds" in doc["semantics"] or "bound" in doc["semantics"]
    rows = cert.csv_rows()
    assert len(rows) == 1 and len(rows[0]) == 7


def test_ladder_over_the_budget_refused_before_any_level(monkeypatch):
    # a 2D ladder's finest level holds 16^(levels - 1) times the first
    # mesh's triangles; nothing is assembled before the refusal
    first = len(ladder_mesh(UNIT_DISC, None, 0.25, 1.0, 1).elements)
    monkeypatch.setattr(meshing, "MAX_ELEMENTS", 16 * first - 1)
    monkeypatch.setattr(hardy, "hardy_pencil", lambda *args: pytest.fail("assembled"))
    with pytest.raises(MeshGenerationFailure, match="budget"):
        verify_hardy(UNIT_DISC, 0.0, h=0.25, grading=1.0, levels=2)
    # in 1D the count comes from n, before the grading floor's room for
    # 2 (levels - 1) bisections would overflow
    with pytest.raises(MeshGenerationFailure, match="budget"):
        verify_hardy(IV, 0.0, n=32, levels=2**62)


def test_torus_certification():
    cert = certify(Torus(3, 1), beta=0.0, alpha=0.0, lam=0.0,
                   h=0.25, grading=0.2, levels=2)
    assert cert.verdict == "CERTIFIED"
    assert all(lv["minimum"] >= 0.25 - 1e-4 for lv in cert.levels)
    _assert_nested_ladder(cert.levels, dim=2, refine_factor=2)


def test_inconclusive_ladder_matches_the_default_floor():
    # lambda = 20 pulls each level's bottom below its first shift,
    # kappa - CERT_TOL, which is stepped down past it as from -0.01
    cert = verify_hardy(UNIT_DISC, 0.0, lam=20.0, h=0.125, grading=0.5, levels=2)
    assert cert.verdict == "INCONCLUSIVE"
    mesh = ladder_mesh(UNIT_DISC, 256, 0.125, 0.5, 2)
    rows = ladder(mesh, 2, REFINE_FACTOR, lambda fine: hardy_pencil(fine, 0.0, 0.0, 20.0))
    assert [mu for _, _, mu in rows] == pytest.approx([-4.3514, -4.3946], abs=1e-4)
    for level, (size, dof, mu) in zip(cert.levels, rows):
        assert level["size"] == size and level["dof"] == dof
        assert abs(level["minimum"] - mu) <= 1e-10


def test_disc_ladder_is_scale_free():
    # with lambda = 0 the quotient is scale-free, so a disc ladder at h
    # proportional to the radius reads the unit disc's minima; refinement
    # snaps only boundary-facet midpoints, whatever the size of d there
    unit = verify_hardy(UNIT_DISC, 0.0, h=0.125, grading=0.5, levels=2)
    for radius in (1e-6, 1e-11, 1e-13, 1e-20):
        cert = verify_hardy(Disc((0, 0), radius), 0.0, h=0.125 * radius, grading=0.5,
                            levels=2)
        assert cert.verdict == "CERTIFIED"
        assert ([lv["minimum"] for lv in cert.levels]
                == pytest.approx([lv["minimum"] for lv in unit.levels], rel=1e-12, abs=0))


# The paper's inequality as an oracle.  Where -laplacian(d) >= 0 (intervals,
# convex polygons, discs, and a torus with c > 2R), the field
# d^(beta-1) grad d gives  integral d^beta |grad u|^2 >= kappa(beta)
# integral d^(beta-2) u^2,  and a conforming minimum bounds the infimum from
# above: no level may fall below kappa(beta), with no slack.

@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(beta=st.floats(-0.5, 0.9), n=st.sampled_from((32, 64)))
def test_hardy_inequality_oracle_interval(beta, n):
    cert = certify(IV, beta, n=n, levels=2)
    assert all(lv["minimum"] >= kappa(beta) for lv in cert.levels)


@pytest.mark.parametrize("beta", (0.0, 0.5))
@pytest.mark.parametrize("domain", (UNIT_DISC,
                                    ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
                                    Torus(3.0, 1.0)), ids=("disc", "square", "torus"))
def test_hardy_inequality_oracle_2d(domain, beta):
    cert = certify(domain, beta, h=0.25, grading=0.5, levels=2)
    assert all(lv["minimum"] >= kappa(beta) for lv in cert.levels)
