import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from hardyspec import (Annulus, ConvexPolygon, Disc, FormSpec, Interval, Mesh,
                       Torus, build_mesh_1d, build_trimesh,
                       assemble_pencil, ims_identity_residual, ims_partition,
                       parse_coefficient, refine_mesh_1d, smallest_eigenpairs)
from hardyspec import forms
from hardyspec.coefficients import constant, power_of_d
from hardyspec.errors import (DegenerateBand, NonpositiveDiffusion, NonpositiveWeight,
                              SingularQuadrature)
from hardyspec.forms import format_matrix_text
from hardyspec.hardy import hardy_pencil
from hardyspec.spectral import ProblemSpec, strip_mesh

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


def test_quadrature_order_stability(monkeypatch):
    # doubling the Gauss order barely moves the Hardy pencil bottom
    mesh = build_mesh_1d(IV, 1024, 0.15, bisections=1)
    form = FormSpec(a=power_of_d(0.0), q=0.0, beta=0.0)
    p1 = assemble_pencil(mesh, form, power_of_d(-2.0))
    monkeypatch.setattr(forms, "QUAD_POINTS", 12)
    p2 = assemble_pencil(mesh, form, power_of_d(-2.0))
    assert (p1.meta["quad_points"], p2.meta["quad_points"]) == (6, 12)
    v1 = smallest_eigenpairs(p1, 1).eigenvalues[0]
    v2 = smallest_eigenpairs(p2, 1).eigenvalues[0]
    assert abs(v2 / v1 - 1) < 1e-6


def test_pencil_meta_records_the_rule_used(monkeypatch):
    disc = build_trimesh(Disc((0, 0), 1.0), 0.25, 0.5)
    meta = assemble_pencil(disc, FormSpec(a=1.0, q=0.0), 1.0).meta
    assert meta["quad_points"] == 7 and "quad_subdiv" not in meta
    monkeypatch.setattr(forms, "QUAD_POINTS", 3)
    monkeypatch.setattr(forms, "QUAD_SUBDIV", 2)
    meta = assemble_pencil(build_mesh_1d(IV, 8), FormSpec(a=1.0, q=0.0), 1.0).meta
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


DIFFUSION_REFUSED = "diffusion coefficient is not positive at a quadrature point"
SINGULAR_REFUSED = "a quadrature point touched the boundary (d <= 0)"
WEIGHT_REFUSED = "denominator weight is not positive at a quadrature point"


def _uniform_1d(n, right=1.0):
    """n equal elements of [0, 1] in order, the last node moved to `right`."""
    nodes = np.linspace(0.0, 1.0, n + 1)[:, None]
    nodes[-1] = right
    return Mesh(nodes, np.column_stack([np.arange(n), np.arange(1, n + 1)]),
                np.array([[0], [n]]), np.zeros(2, dtype=bool), IV)


def test_nonpositive_diffusion_rejected(monkeypatch):
    mesh = build_mesh_1d(IV, 8)
    with pytest.raises(NonpositiveDiffusion):
        assemble_pencil(mesh, FormSpec(a="d - 1", q=0.0), 1.0)
    # a < 0 on the last 2 of 40 elements only, in the last of 6 blocks
    monkeypatch.setattr(forms, "BLOCK", 7)
    with pytest.raises(NonpositiveDiffusion, match=f"^{re.escape(DIFFUSION_REFUSED)}$"):
        assemble_pencil(_uniform_1d(40), FormSpec(a="0.95 - x", q=0.0), 1.0)


def test_nonpositive_weight_rejected(monkeypatch):
    monkeypatch.setattr(forms, "BLOCK", 7)
    with pytest.raises(NonpositiveWeight, match=f"^{re.escape(WEIGHT_REFUSED)}$"):
        assemble_pencil(_uniform_1d(40), FormSpec(a=1.0, q=0.0), "0.95 - x")


def test_singular_quadrature_guard(monkeypatch):
    # a node placed outside the domain puts quadrature points at d <= 0
    nodes = np.array([[-0.1], [0.5], [1.0]])
    mesh = Mesh(nodes, np.array([[0, 1], [1, 2]]), np.array([[0], [2]]),
                np.zeros(2, dtype=bool), IV)
    with pytest.raises(SingularQuadrature):
        assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    # the last node outside, in the last of 6 blocks
    monkeypatch.setattr(forms, "BLOCK", 7)
    beyond = _uniform_1d(40, right=1.05)
    with pytest.raises(SingularQuadrature, match=f"^{re.escape(SINGULAR_REFUSED)}$"):
        assemble_pencil(beyond, FormSpec(a=1.0, q=0.0), 1.0)
    # each block is checked before the next is computed, so a fault in an
    # earlier block is reported first, here a < 0 on the first 2 elements;
    # a whole-mesh pass checked d first and reported SingularQuadrature
    with pytest.raises(NonpositiveDiffusion, match=f"^{re.escape(DIFFUSION_REFUSED)}$"):
        assemble_pencil(beyond, FormSpec(a="x - 0.05", q=0.0), 1.0)


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
    mesh = _all_robin(build_trimesh(ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
                                    0.125, 1.0))
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0, sigma=1.0), 1.0)
    rep = smallest_eigenpairs(pencil, 1)
    # the constant trial bounds the quotient by perimeter / area = 4
    assert 0 < rep.eigenvalues[0] <= 4.0


def _all_robin(mesh):
    """The mesh with every facet Robin and no node clamped."""
    return replace(mesh, robin=np.ones(len(mesh.facets), dtype=bool),
                   clamped=np.zeros(mesh.n_nodes, dtype=bool))


def test_heap_trim_leaves_pencil_unchanged(monkeypatch):
    # the trim after assembly only hands freed memory back, and only when
    # the triplets (6 pairs of 24 bytes a triangle) pass TRIM_ABOVE: a disc
    # pencil above it trims once, a pencil of diagnose-torus's k = 2 strip
    # does not; without a C library malloc_trim both are byte for byte the
    # same
    problem = ProblemSpec(Torus(3.0, 1.0), FormSpec(a=1.0, q="-0.05*d^-2"),
                          ks=(2, 3, 4, 5, 6))
    disc = build_trimesh(Disc((0, 0), 1.0), 0.04, 0.5)
    strip = strip_mesh(problem, 2)
    assert 6 * len(disc.elements) * 24 > forms.TRIM_ABOVE
    assert 6 * len(strip.elements) * 24 < forms.TRIM_ABOVE
    assert np.count_nonzero(~strip.clamped) == 707
    calls, trim = [], forms._MALLOC_TRIM

    def counted(pad):       # the C library's trim, where there is one, counted
        calls.append(pad)
        return trim(pad) if trim is not None else 0

    for mesh, form, trims in ((disc, FormSpec(a=power_of_d(0.5), q=0.0), 1),
                              (strip, problem.form, 0)):
        monkeypatch.setattr(forms, "_MALLOC_TRIM", counted)
        with_trim = assemble_pencil(mesh, form, 1.0)
        assert calls == [0] * trims
        calls.clear()
        monkeypatch.setattr(forms, "_MALLOC_TRIM", None)
        without = assemble_pencil(mesh, form, 1.0)
        assert _same_bytes(with_trim.K, without.K) and _same_bytes(with_trim.M, without.M)


def test_assembly_working_set_bounded(monkeypatch):
    # tracemalloc sees numpy's buffers.  A disc pencil in 14 blocks of 1,024
    # triangles peaks at its triplets (6 pairs of 24 bytes a triangle) and
    # their sparse sum, 2.2 times the triplets, plus one block's quadrature
    # arrays, under 1 KiB a triangle; a whole-mesh pass held 4 times the
    # triplets in quadrature arrays
    monkeypatch.setattr(forms, "BLOCK", 1024)
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.05, 0.5)
    assert len(mesh.elements) > 13 * forms.BLOCK
    triplets = 6 * len(mesh.elements) * 24
    tracemalloc.start()
    try:
        assemble_pencil(mesh, FormSpec(a=power_of_d(0.5), q="-0.1*d^-1.5"), "d^-1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * triplets + 1024 * forms.BLOCK


def test_gauss_panels_built_once_read_only():
    pts, wts = forms.gauss_panels(6, 4)
    again = forms.gauss_panels(6, 4)
    assert again[0] is pts and again[1] is wts
    fresh = forms.gauss_panels.__wrapped__(6, 4)
    assert pts.tobytes() == fresh[0].tobytes() and wts.tobytes() == fresh[1].tobytes()
    for arr in (pts, wts):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _element_rule_oracle(mesh, quad_points, quad_subdiv):
    """Oracle: the element-major rule that _element_rule replaced, points
    (m, nq, dim), weights (m, nq) and basis (m or 1, nq, nloc)."""
    if mesh.dim == 1:
        t, w = forms.gauss_panels(quad_points, quad_subdiv)
        x0 = mesh.points[mesh.elements[:, 0], 0][:, None]
        h = mesh.element_sizes()[:, None]
        pts = x0 + t[None, :] * h
        phi_r = (pts - x0) / h
        basis = np.stack([1.0 - phi_r, phi_r], axis=2)
        grads = np.stack([-1.0 / h, 1.0 / h], axis=1)
        return mesh.elements, pts[:, :, None], w[None, :] * h, basis, grads
    bary, w = forms.TRI_BARY, forms.TRI_W
    v = mesh.points[mesh.elements]
    area = mesh.areas()
    pts = (bary[:, 0, None] * v[:, None, 0] + bary[:, 1, None] * v[:, None, 1]
           + bary[:, 2, None] * v[:, None, 2])
    x, y = v[:, :, 0], v[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    grads = np.stack([b, c], axis=2) / (2 * area[:, None, None])
    return mesh.elements, pts, w[None, :] * area[:, None], bary[None], grads


def _scatter_blocks_oracle(conn, blocks, n):
    """Oracle: the scatter of (m, nloc, nloc) element blocks that the pair
    loop of _assemble replaced."""
    nloc = conn.shape[1]
    rows, cols, vals = [], [], []
    for i in range(nloc):
        for j in range(i, nloc):
            gi = conn[:, i]
            gj = conn[:, j]
            rows.append(np.minimum(gi, gj))
            cols.append(np.maximum(gi, gj))
            vals.append(blocks[:, i, j])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    # mirrored by a sparse add, which drops exact zeros
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return upper + sp.triu(upper, k=1).T.tocsr()


def _robin_oracle(mesh, form, n):
    """Oracle: the n x n Robin matrix, point terms in 1D, exact P1 edge
    masses on triangles; empty when the form has none."""
    rows, cols, vals = [], [], []
    if form.sigma is not None and mesh.dim == 1:
        a, b = mesh.domain.a, mesh.domain.b
        for (i,), robin in zip(mesh.facets.tolist(), mesh.robin):
            if robin:
                x = mesh.points[i, 0]
                side = 0 if abs(x - a) <= abs(x - b) else 1
                sigma = form.sigma if np.isscalar(form.sigma) else form.sigma[side]
                rows.append(i)
                cols.append(i)
                vals.append(float(sigma))
    elif form.sigma is not None:
        for (i, j), robin in zip(mesh.facets.tolist(), mesh.robin):
            if robin:
                length = float(np.linalg.norm(mesh.points[j] - mesh.points[i]))
                block = float(form.sigma) * length / 6.0 * np.array([[2.0, 1.0],
                                                                     [1.0, 2.0]])
                for a_loc, gi in enumerate((i, j)):
                    for b_loc, gj in enumerate((i, j)):
                        rows.append(gi)
                        cols.append(gj)
                        vals.append(block[a_loc, b_loc])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _assemble_oracle(mesh, form, denominator, quad_points, quad_subdiv, mw, free):
    """Oracle: the element-block assembly on all nodes that _assemble
    replaced, without its sign checks, plus the Robin terms, then
    restricted to the free nodes by fancy indexing."""
    conn, pts, wts, basis, grads = _element_rule_oracle(mesh, quad_points, quad_subdiv)
    shape = wts.shape
    d = mesh.domain.distance_many(pts.reshape(-1, mesh.dim)).reshape(shape)
    env = forms.environment(pts, d)
    a = forms._eval_on(form.a, env, shape)
    q = forms._eval_on(form.q, env, shape)
    den = forms._eval_on(denominator, env, shape)
    wa, wq, wden = wts * a, wts * q, wts * den
    if mw is not None:
        scale = forms._eval_on(mw, env, shape)
        wa, wq, wden = wa * scale, wq * scale, wden * scale
    wa = wa.sum(axis=1)

    m, nloc = grads.shape[:2]
    blocks_k = np.empty((m, nloc, nloc))
    blocks_m = np.empty((m, nloc, nloc))
    for i in range(nloc):
        for j in range(i, nloc):
            gij = (grads[:, i, :] * grads[:, j, :]).sum(axis=1)
            pot = (wq * basis[:, :, i] * basis[:, :, j]).sum(axis=1)
            mass = (wden * basis[:, :, i] * basis[:, :, j]).sum(axis=1)
            blocks_k[:, i, j] = wa * gij + pot
            blocks_k[:, j, i] = blocks_k[:, i, j]
            blocks_m[:, i, j] = mass
            blocks_m[:, j, i] = mass

    n = mesh.n_nodes
    K = _scatter_blocks_oracle(conn, blocks_k, n)
    M = _scatter_blocks_oracle(conn, blocks_m, n)
    K = K + _robin_oracle(mesh, form, n)
    return K[free][:, free].tocsr(), M[free][:, free].tocsr()


def _same_bytes(got, want):
    """Equal indptr, indices and data, byte for byte and dtype for dtype,
    and the same sortedness flag."""
    return got.has_sorted_indices == want.has_sorted_indices and all(
        getattr(got, attr).dtype == getattr(want, attr).dtype
        and getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        for attr in ("indptr", "indices", "data"))


@pytest.fixture
def oracle_checked(monkeypatch):
    """Every _assemble call also runs the oracle and requires the free-node
    K and M equal to it byte for byte; yields the list of meshes assembled."""
    meshes = []
    assemble = forms._assemble

    def checked(mesh, *args):
        K, M = assemble(mesh, *args)
        K0, M0 = _assemble_oracle(mesh, *args)
        assert _same_bytes(K, K0) and _same_bytes(M, M0)
        meshes.append(mesh)
        return K, M

    monkeypatch.setattr(forms, "_assemble", checked)
    return meshes


def test_assembly_matches_oracle_bitwise(oracle_checked, monkeypatch):
    _assemble_oracle_cases(monkeypatch)
    assert len(oracle_checked) == 12


@pytest.mark.parametrize("block", [7, 64])
def test_assembly_in_small_blocks_matches_oracle_bitwise(oracle_checked, monkeypatch,
                                                         block):
    # every mesh then spans several blocks, most with a ragged last one;
    # 448 = 7 * 64 elements end on a whole block
    monkeypatch.setattr(forms, "BLOCK", block)
    _assemble_oracle_cases(monkeypatch)
    exact = build_mesh_1d(IV, 448, 0.5)
    assert len(exact.elements) % block == 0
    assemble_pencil(exact, FormSpec(a="d^0.5", q="-0.03*d^-1.5"), "d^-1")
    assert len(oracle_checked) == 13


def _assemble_oracle_cases(monkeypatch):
    """Assemble the oracle-checked pencils: 2D domains with and without a
    measure weight or Robin edges, 1D with Robin ends and another rule."""
    disc = build_trimesh(Disc((0, 0), 1.0), 0.2, 0.5)
    hardy_pencil(disc, 0.0, 0.0, 0.0)
    hardy_pencil(disc, 0.5, -0.5, 0.3)
    # the torus cross-section: measure weight r, azimuthal mode 2
    torus = build_trimesh(Torus(3.0, 1.0).section, 0.25, 0.5)
    assemble_pencil(torus, FormSpec(a=1.0, q="4/r^2"), 1.0)
    hardy_pencil(torus, 0.5, 0.0, 0.0)
    hardy_pencil(build_trimesh(Annulus((0.5, -0.5), 0.5, 1.5), 0.2, 0.5), 0.0, 0.0, 0.0)
    polygon = build_trimesh(ConvexPolygon([(0, 0), (2, 0), (2.5, 1), (0.5, 1.5)]),
                            0.15, 0.7)
    assemble_pencil(polygon, FormSpec(a="1 + x^2*y", q="x - 3*y*d^-1"), "2 + y - x*d")
    square = _all_robin(build_trimesh(ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
                                      0.125, 1.0))
    assemble_pencil(square, FormSpec(a="1 + x", q="y", sigma=1.5), 1.0)
    graded = build_mesh_1d(IV, 64, 0.5, tags=("robin", "robin"))
    with monkeypatch.context() as rule:
        rule.setattr(forms, "QUAD_POINTS", 5)
        rule.setattr(forms, "QUAD_SUBDIV", 3)
        assemble_pencil(graded, FormSpec(a="d^0.5", q="-0.03*d^-1.5",
                                         sigma=(0.5, 2.0)), "d^-1")
    hardy_pencil(build_mesh_1d(IV, 48, 0.3), 0.5, 0.0, 0.1)
    # four triangles about the centre of a square, every node free
    few = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.4, 0.6]]),
               np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]),
               np.array([(0, 1), (1, 2), (2, 3), (3, 0)]), np.ones(4, dtype=bool),
               ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
               clamped=np.zeros(5, dtype=bool))
    assemble_pencil(few, FormSpec(a="1 + d", q="x*y", sigma=0.5), "1 + d")
    # Robin on the left end, clamped on the right
    left = build_mesh_1d(IV, 40, 0.6, tags=("robin", "dirichlet"))
    assemble_pencil(left, FormSpec(a="1 + x", q="d^-1", sigma=(0.7, 3.0)), "d^-0.5")
    # the two-component k = 5 strip of the bench interval config, clamped at
    # both ends and at both interfaces
    problem = ProblemSpec(IV, FormSpec(a="d^0.5", q="-0.03*d^-1.5", beta=0.5), 0.5,
                          ks=range(2, 17))
    strip = strip_mesh(problem, 5)
    clamped = np.sort(strip.points[strip.clamped, 0])
    assert_allclose(clamped, [0.0, 0.2, 0.8, 1.0], rtol=0, atol=1e-15)
    assemble_pencil(strip, problem.form, 1.0)


def test_explicit_zeros_dropped(oracle_checked):
    # the P1 Laplacian on the structured square cancels on each cell's
    # diagonal: those stiffness entries are exact zeros and are not stored.
    # Node 9i + j of the 8 x 8 grid sits at (i/8, j/8), and each cell is cut
    # along its diagonal from the lower left corner
    g = np.linspace(0.0, 1.0, 9)
    c = (9 * np.arange(8)[:, None] + np.arange(8)).ravel()
    rim = ([9 * i for i in range(8)] + [72 + j for j in range(8)]
           + [9 * i + 8 for i in range(8, 0, -1)] + list(range(8, 0, -1)))
    square = Mesh(np.column_stack([np.repeat(g, 9), np.tile(g, 9)]),
                  np.column_stack([c, c + 9, c + 10, c, c + 10, c + 1]).reshape(-1, 3),
                  np.column_stack([rim, np.roll(rim, -1)]), np.zeros(len(rim), dtype=bool),
                  ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
                  clamped=np.isin(np.arange(81), rim))
    assert np.all(square.areas() == 1 / 128)
    pencil = assemble_pencil(square, FormSpec(a=1.0, q=0.0), 1.0)
    assert len(oracle_checked) == 1
    assert (pencil.K.nnz, pencil.M.nnz) == (217, 289)
    assert np.all(pencil.K.data != 0) and np.all(pencil.M.data != 0)


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
    torus = assemble_pencil(build_trimesh(Torus(3.0, 1.0).section, 0.25, 1.0),
                            FormSpec(a=1.0, q="1/r^2"), 1.0)
    values = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, -3.25, -1e-300, 0.0]
    hand = sp.coo_matrix((values, ([2, 0, 3, 1, 0, 2, 3, 1], [1, 4, 0, 1, 2, 3, 4, 0])),
                         shape=(4, 5))
    return [mat for p in (graded, disc, torus) for mat in (p.K, p.M)] + [hand]


def test_matrix_text_matches_oracle(export_matrices, monkeypatch):
    # a COO input's duplicate (1, 1) entries keep one line each, unsummed
    duplicate = sp.coo_matrix(([1.0, 2.0, 3.0], ([1, 0, 1], [1, 2, 1])), shape=(2, 3))
    # the text of a 10^6-wide matrix costs its 3 entries, not its width
    wide = sp.coo_matrix(([1.5, -2.0, 0.25], ([0, 999_999, 500_000],
                                              [999_999, 0, 500_000])),
                         shape=(10**6, 10**6))
    # also in blocks of 5 entries, so that block ends fall inside every matrix
    for block in (forms._TEXT_BLOCK, 5):
        monkeypatch.setattr(forms, "_TEXT_BLOCK", block)
        for mat in export_matrices + [sp.coo_matrix((3, 2)), duplicate]:
            assert format_matrix_text(mat) == _matrix_text_oracle(mat)
        start = time.perf_counter()
        text = format_matrix_text(wide)
        assert time.perf_counter() - start < 1.0
        assert text == _matrix_text_oracle(wide)


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
    u = np.sin(np.pi * mesh.points[:, 0])
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


def _identity_residual_oracle(mesh, partition, u, a, quad_points=4):
    """Oracle: ims_identity_residual on the element-major rule it replaced."""
    a = forms.as_coefficient(a)
    conn, pts, _, basis, grads = _element_rule_oracle(mesh, quad_points, 1)
    flat = pts.reshape(-1, mesh.dim)
    d = np.maximum(mesh.domain.distance_many(flat), 0.0).reshape(pts.shape[:2])
    grad_d = mesh.domain.calculus_many(flat)[0].reshape(pts.shape)
    u_loc = u[conn]
    u_q = (basis * u_loc[:, None, :]).sum(axis=2)
    grad_u = np.einsum("mk,mkj->mj", u_loc, grads)[:, None, :]
    a_q = forms._eval_on(a, forms.environment(pts, d), d.shape)
    phi1, phi2 = partition.values_at(d)
    g1, g2 = partition.gradients_at(d, grad_d)
    worst = 0.0
    for phi, g in ((phi1, g1), (phi2, g2)):
        full = phi[..., None] * grad_u + u_q[..., None] * g
        lhs = a_q * (full**2).sum(axis=-1)
        rhs = (a_q * phi**2 * (grad_u**2).sum(axis=-1)
               + a_q * (g**2).sum(axis=-1) * u_q**2
               + a_q * (2 * phi * u_q) * (g * grad_u).sum(axis=-1))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_identity_residual_matches_oracle(monkeypatch):
    _identity_residual_cases(monkeypatch)


@pytest.mark.parametrize("block", [7, 64])
def test_identity_residual_in_small_blocks_matches_oracle(monkeypatch, block):
    monkeypatch.setattr(forms, "BLOCK", block)
    _identity_residual_cases(monkeypatch)


def _identity_residual_cases(monkeypatch):
    """The identity residual equals the oracle's on a graded interval, a
    square and a disc, at 3 and 4 Gauss points."""
    rng = np.random.RandomState(11)
    a = parse_coefficient("1 + d^2")
    meshes = [build_mesh_1d(IV, 128, 0.9),
              build_trimesh(ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.05, 1.0),
              build_trimesh(Disc((0, 0), 1.0), 0.06, 0.5)]
    for mesh in meshes:
        part = ims_partition(mesh, 0.1, 0.4)
        u = rng.standard_normal(mesh.n_nodes)
        for quad_points in (3, 4):
            monkeypatch.setattr(forms, "IMS_QUAD_POINTS", quad_points)
            got = ims_identity_residual(mesh, part, u, a)
            assert got == _identity_residual_oracle(mesh, part, u, a, quad_points)
            assert 0 < got <= 1e-10


def test_measure_weight():
    # a domain whose measure weight is w(x) = x folds it into a 1D form,
    # which shifts the bottom eigenvalue toward the weighted oracle
    # computed densely
    class WeightedInterval(Interval):
        measure_weight = "x"

    mesh = build_mesh_1d(WeightedInterval(1, 2), 200)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    rep = smallest_eigenpairs(pencil, 1)
    # dense oracle from the same discretization assembled manually
    import scipy.sparse as sp
    nodes = mesh.points[:, 0]
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
