import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from hardyspec import (ConvexPolygon, Disc, FormSpec, Interval, Mesh1D, Torus,
                       axisymmetric_reduce, build_mesh_1d, build_trimesh,
                       assemble_pencil, ims_identity_residual, ims_partition,
                       parse_coefficient, refine_mesh_1d, smallest_eigenpairs)
from hardyspec import forms
from hardyspec.coefficients import constant, power_of_d
from hardyspec.errors import (DegenerateBand, NonpositiveDiffusion,
                              SingularQuadrature)
from hardyspec.forms import format_matrix_text
from hardyspec.hardy import hardy_pencil

IV = Interval(0, 1)


def test_hand_assembled_two_elements():
    # single interior hat with h = 1/2: stiffness 2/h = 4, mass 2h/3 = 1/3
    mesh = build_mesh_1d(IV, 2)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    assert_allclose(pencil.K.toarray(), [[4.0]], rtol=1e-14)
    assert_allclose(pencil.M.toarray(), [[1 / 3]], rtol=1e-14)
    rep = smallest_eigenpairs(pencil, 1)
    assert rep.eigenvalues[0] == pytest.approx(12.0, rel=1e-12)


def test_mass_weighted_potential():
    mesh = build_mesh_1d(IV, 2)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=5.0), 1.0)
    assert_allclose(pencil.K.toarray(), [[17 / 3]], rtol=1e-14)


def test_laplacian_spectrum_fine_mesh():
    mesh = build_mesh_1d(IV, 2000)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    rep = smallest_eigenpairs(pencil, 1)
    assert rep.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-3)


def test_exact_symmetry():
    mesh = build_mesh_1d(IV, 48, 0.5)
    pencil = assemble_pencil(mesh, FormSpec(a="d^0.5", q="-0.1*d^-1"), "d^-1.5")
    assert (pencil.K != pencil.K.T).nnz == 0
    assert (pencil.M != pencil.M.T).nnz == 0
    mesh2 = build_trimesh(ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.1, 1.0)
    pencil2 = assemble_pencil(mesh2, FormSpec(a=1.0, q="d"), 1.0)
    assert (pencil2.K != pencil2.K.T).nnz == 0


def test_mass_positive_definite():
    mesh = build_mesh_1d(IV, 64, 0.5)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), "d^-2")
    scipy.linalg.cholesky(pencil.M.toarray())  # raises if not SPD


def test_splitting_consistency():
    # assembling q equals assembling pos(q) minus the neg(q) mass form
    mesh = build_mesh_1d(IV, 64, 0.8)
    q = parse_coefficient("-0.3*d^-1 + 2")
    full = assemble_pencil(mesh, FormSpec(a=1.0, q=q), 1.0)
    plus = assemble_pencil(mesh, FormSpec(a=1.0, q=q.positive_part()), 1.0)
    minus = assemble_pencil(mesh, FormSpec(a=0.5, q=q.negative_part()), 1.0)
    base = assemble_pencil(mesh, FormSpec(a=0.5, q=0.0), 1.0)
    neg_mass = (minus.K - base.K).toarray()
    recombined = plus.K.toarray() - neg_mass
    scale = max(1.0, np.abs(full.K.data).max())
    assert np.max(np.abs(recombined - full.K.toarray())) < 1e-12 * scale


def test_quadrature_order_stability():
    # doubling the Gauss order barely moves the Hardy pencil bottom
    from hardyspec.meshing import feasible_grading, grading_floor
    g = feasible_grading(0.15, 512, 0.5, grading_floor(IV, headroom=1))
    mesh = build_mesh_1d(IV, 1024, g)
    form = FormSpec(a=power_of_d(0.0), q=0.0, beta=0.0)
    p1 = assemble_pencil(mesh, form, power_of_d(-2.0), quad_points=6)
    p2 = assemble_pencil(mesh, form, power_of_d(-2.0), quad_points=12)
    v1 = smallest_eigenpairs(p1, 1).eigenvalues[0]
    v2 = smallest_eigenpairs(p2, 1).eigenvalues[0]
    assert abs(v2 / v1 - 1) < 1e-6


def test_pencil_meta_records_the_rule_used():
    disc = build_trimesh(Disc((0, 0), 1.0), 0.25, 0.5)
    meta = assemble_pencil(disc, FormSpec(a=1.0, q=0.0), 1.0).meta
    assert meta["quad_points"] == 7 and "quad_subdiv" not in meta
    meta = assemble_pencil(build_mesh_1d(IV, 8), FormSpec(a=1.0, q=0.0), 1.0,
                           quad_points=3, quad_subdiv=2).meta
    assert (meta["quad_points"], meta["quad_subdiv"]) == (3, 2)


def test_monotone_under_nested_refinement():
    mesh = build_mesh_1d(IV, 64, 0.8)
    values = []
    for _ in range(3):
        pencil = hardy_pencil(mesh, 0.0, 0.0, 0.0)
        values.append(smallest_eigenpairs(pencil, 1).eigenvalues[0])
        mesh = refine_mesh_1d(mesh)
    assert values[1] <= values[0] + 1e-8
    assert values[2] <= values[1] + 1e-8


def test_nonpositive_diffusion_rejected():
    mesh = build_mesh_1d(IV, 8)
    with pytest.raises(NonpositiveDiffusion):
        assemble_pencil(mesh, FormSpec(a="d - 1", q=0.0), 1.0)


def test_singular_quadrature_guard():
    # a node placed outside the domain puts quadrature points at d <= 0
    nodes = np.array([-0.1, 0.5, 1.0])
    mesh = Mesh1D(nodes, np.array([[0, 1], [1, 2]]), {0: "dirichlet", 2: "dirichlet"}, IV)
    with pytest.raises(SingularQuadrature):
        assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)


def test_quadrature_points_interior():
    # d^(beta-2) is evaluated only at d > 0 even on boundary elements
    mesh = build_mesh_1d(IV, 64, 0.5)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), "d^-2")
    assert np.all(np.isfinite(pencil.M.data))


def test_robin_point_mass():
    mesh = build_mesh_1d(IV, 400, tags=("dirichlet", "robin"))
    sigma = 2.0
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0, sigma=(0.0, sigma)), 1.0)
    rep = smallest_eigenpairs(pencil, 1)
    # shooting oracle: tan(s) = -s / sigma on (pi/2, pi)
    from scipy.optimize import brentq
    s = brentq(lambda t: np.tan(t) + t / sigma, np.pi / 2 + 1e-9, np.pi - 1e-9)
    assert rep.eigenvalues[0] == pytest.approx(s**2, rel=1e-4)


def test_robin_edges_2d():
    mesh = build_trimesh(ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.125, 1.0)
    mesh.boundary_edges = [(i, j, "robin") for i, j, _ in mesh.boundary_edges]
    mesh.node_tags = {}
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0, sigma=1.0), 1.0)
    rep = smallest_eigenpairs(pencil, 1)
    # the constant trial bounds the quotient by perimeter / area = 4
    assert 0 < rep.eigenvalues[0] <= 4.0


def _matrix_text_oracle(mat):
    """Oracle: the entry-by-entry formatting of numpy scalars that
    format_matrix_text replaced."""
    coo = sp.coo_matrix(mat)
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    lines.extend(f"{coo.row[k]} {coo.col[k]} {coo.data[k]!r}" for k in order)
    return "\n".join(lines) + "\n"


def _sorted_entries(mat):
    """Rows, columns and value bit patterns, sorted by row then column."""
    coo = sp.coo_matrix(mat)
    order = np.lexsort((coo.col, coo.row))
    return coo.row[order], coo.col[order], coo.data[order].view(np.int64)


@pytest.fixture(scope="module")
def export_matrices():
    """K and M of a graded 1D pencil, a disc pencil and a torus cross-section
    pencil with its measure weight, and a hand-built matrix of awkward values
    (signed zero, a subnormal, exponent forms, an inexact sum, negatives)."""
    graded = assemble_pencil(build_mesh_1d(IV, 64, 0.5),
                             FormSpec(a="d^0.5", q="-0.03*d^-1.5"), 1.0)
    disc = assemble_pencil(build_trimesh(Disc((0, 0), 1.0), 0.1, 0.5),
                           FormSpec(a=1.0, q=0.0), 1.0)
    cross, weight, potential = axisymmetric_reduce(Torus(3.0, 1.0), 1)
    torus = assemble_pencil(build_trimesh(cross, 0.25, 1.0),
                            FormSpec(a=1.0, q=potential), 1.0, measure_weight=weight)
    values = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, -3.25, -1e-300, 0.0]
    hand = sp.coo_matrix((values, ([2, 0, 3, 1, 0, 2, 3, 1], [1, 4, 0, 1, 2, 3, 4, 0])),
                         shape=(4, 5))
    return [mat for p in (graded, disc, torus) for mat in (p.K, p.M)] + [hand]


def test_matrix_text_matches_oracle(export_matrices, monkeypatch):
    # also in blocks of 5 entries, so that block ends fall inside every matrix
    for block in (forms._TEXT_BLOCK, 5):
        monkeypatch.setattr(forms, "_TEXT_BLOCK", block)
        for mat in export_matrices + [sp.coo_matrix((3, 2))]:
            assert format_matrix_text(mat) == _matrix_text_oracle(mat)


def test_pencil_export_format(export_matrices):
    # the text reads back, np.float64(...) stripped, to the same matrix
    # bit for bit, in row-then-column order
    for mat in export_matrices:
        head, *body = format_matrix_text(mat).rstrip("\n").split("\n")
        n, m, nnz = map(int, head.split())
        assert (n, m) == mat.shape and nnz == len(body) == mat.nnz
        rows, cols, vals = zip(*(ln.split(" ") for ln in body))
        vals = [float(re.fullmatch(r"np\.float64\((.*)\)", v).group(1)) for v in vals]
        back = (np.array(rows, dtype=int), np.array(cols, dtype=int),
                np.array(vals).view(np.int64))
        for got, want in zip(back, _sorted_entries(mat)):
            assert np.array_equal(got, want)


# -- IMS partition -----------------------------------------------------------

def test_partition_endpoints_and_midpoint():
    mesh = build_mesh_1d(IV, 64)
    part = ims_partition(mesh, 0.1, 0.4)
    v1, v2 = part.values_at(np.array([0.1, 0.25, 0.4]))
    assert v1[0] == 1.0 and v2[0] == 0.0
    assert v1[1] == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
    assert v2[1] == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
    assert v1[2] == pytest.approx(0.0, abs=1e-15)


def test_partition_of_unity_exact():
    mesh = build_mesh_1d(IV, 64)
    part = ims_partition(mesh, 0.1, 0.4)
    assert np.max(np.abs(part.phi1**2 + part.phi2**2 - 1)) < 1e-12
    d = np.linspace(0, 0.5, 333)
    v1, v2 = part.values_at(d)
    assert np.max(np.abs(v1**2 + v2**2 - 1)) < 1e-12


def test_degenerate_band():
    mesh = build_mesh_1d(IV, 16)
    with pytest.raises(DegenerateBand):
        ims_partition(mesh, 0.2, 0.25)


def test_identity_residual_zero_function():
    mesh = build_mesh_1d(IV, 64)
    part = ims_partition(mesh, 0.1, 0.4)
    assert ims_identity_residual(mesh, part, np.zeros(mesh.n_nodes), 1.0) == 0.0


def test_identity_residual_collapsed_partition():
    # a transition band beyond every sampled distance keeps phi1 = 1
    mesh = build_mesh_1d(IV, 256)
    part = ims_partition(mesh, 0.45, 0.499)
    u = np.sin(np.pi * mesh.nodes)
    assert ims_identity_residual(mesh, part, u, 1.0) < 1e-12


def test_identity_residual_random_vectors():
    mesh = build_mesh_1d(IV, 64)
    part = ims_partition(mesh, 0.1, 0.4)
    rng = np.random.RandomState(7)
    for _ in range(20):
        u = rng.standard_normal(mesh.n_nodes)
        assert ims_identity_residual(mesh, part, u, 1.0) <= 1e-10


def test_identity_residual_variable_coefficient():
    mesh = build_mesh_1d(IV, 64)
    part = ims_partition(mesh, 0.1, 0.4)
    rng = np.random.RandomState(9)
    u = rng.standard_normal(mesh.n_nodes)
    a = parse_coefficient("1 + d^2")
    assert ims_identity_residual(mesh, part, u, a) <= 1e-10


def test_identity_residual_2d():
    mesh = build_trimesh(ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.05, 1.0)
    part = ims_partition(mesh, 0.1, 0.4)
    rng = np.random.RandomState(3)
    u = rng.standard_normal(mesh.n_nodes)
    assert ims_identity_residual(mesh, part, u, 1.0) <= 1e-10


def test_measure_weight():
    # folding a weight w(x) = x into a 1D form shifts the bottom eigenvalue
    # toward the weighted oracle computed densely
    iv = Interval(1, 2)
    mesh = build_mesh_1d(iv, 200)
    w = parse_coefficient("x")
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0, measure_weight=w)
    rep = smallest_eigenpairs(pencil, 1)
    # dense oracle from the same discretization assembled manually
    import scipy.sparse as sp
    nodes = mesh.nodes
    n = len(nodes)
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for e0, e1 in mesh.elements:
        h = nodes[e1] - nodes[e0]
        xg, wg = np.polynomial.legendre.leggauss(6)
        xq = nodes[e0] + (xg + 1) / 2 * h
        wq = wg / 2 * h
        phi = np.array([(nodes[e1] - xq) / h, (xq - nodes[e0]) / h])
        dphi = np.array([-1 / h, 1 / h])
        for i_loc, gi in enumerate((e0, e1)):
            for j_loc, gj in enumerate((e0, e1)):
                K[gi, gj] += np.sum(wq * xq) * dphi[i_loc] * dphi[j_loc]
                M[gi, gj] += np.sum(wq * xq * phi[i_loc] * phi[j_loc])
    free = np.arange(1, n - 1)
    vals = scipy.linalg.eigh(K[np.ix_(free, free)], M[np.ix_(free, free)],
                             eigvals_only=True, subset_by_index=[0, 0])
    assert rep.eigenvalues[0] == pytest.approx(vals[0], rel=1e-10)
