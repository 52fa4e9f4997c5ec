import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import scipy.linalg
import mpmath
from scipy.sparse.csgraph import reverse_cuthill_mckee

from hypothesis import assume, given, settings, strategies as st

from hardyspec import (Disc, FormSpec, Interval, Pencil, Torus,
                       assemble_pencil, build_mesh_1d, build_trimesh,
                       counting_function, restrict_to_strip, smallest_eigenpairs)
from hardyspec import eigensolve
from hardyspec.coefficients import constant
from hardyspec.eigensolve import _factor, ladder
from hardyspec.errors import FactorizationFailure, NoConvergence
from hardyspec.hardy import (CERT_TOL, REFINE_FACTOR, hardy_pencil, kappa, ladder_mesh,
                             verify_hardy)
from hardyspec.meshing import nested
from hardyspec.spectral import ProblemSpec, check_form_nonnegativity, strip_mesh

IV = Interval(0, 1)


def _sturm_count(kd, ko, md, mo, sigma):
    """Oracle: eigenvalues of the tridiagonal pencil strictly below sigma,
    via the signs of the LDL^T pivots of K - sigma M (Sturm sequence)."""
    n = len(kd)
    count = 0
    tiny = np.finfo(float).tiny
    d = kd[0] - sigma * md[0]
    if d == 0.0:
        d = tiny
    if d < 0:
        count += 1
    for i in range(1, n):
        e = ko[i - 1] - sigma * mo[i - 1]
        correction = e * e / d if np.isfinite(d) and d != 0.0 else 0.0
        d = kd[i] - sigma * md[i] - correction
        if d == 0.0:
            d = tiny
        if d < 0:
            count += 1
    return count


def _diag_spread(pencil):
    """max |K_ii| / M_ii: the scale of the top of the pencil spectrum."""
    return float(np.max(np.abs(pencil.K.diagonal()) / pencil.M.diagonal()))


def _disc_pencil(h):
    mesh = build_trimesh(Disc((0, 0), 1.0), h, 1.0)
    return assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)


def _pencil(K, M):
    K = sp.csr_matrix(K)
    M = sp.csr_matrix(M)
    return Pencil(K, M, np.arange(K.shape[0]), {"dim": 1})


def test_identity_pencil():
    # a 200-fold eigenvalue is more than Lanczos can return in one window
    for n in (40, 200):
        p = _pencil(sp.identity(n), sp.identity(n))
        rep = smallest_eigenpairs(p, 3)
        assert_allclose(rep.eigenvalues, 1.0)
        assert counting_function(p, rep.sigma) == 0


def test_diagonal_pencil():
    p = _pencil(sp.diags([1.0, 2.0, 3.0]), sp.identity(3))
    rep = smallest_eigenpairs(p, 2)
    assert_allclose(rep.eigenvalues, [1.0, 2.0])


def test_whole_spectrum_is_one_full_solve():
    for pencil in (_pencil(sp.diags([1.0, 2.0, 3.0]), sp.identity(3)), _disc_pencil(0.3)):
        n = pencil.dof
        vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
        rep = smallest_eigenpairs(pencil, n)
        assert_allclose(rep.eigenvalues, vals, rtol=1e-8)
        assert counting_function(pencil, rep.sigma) == 0
        G = rep.eigenvectors.T @ (pencil.M @ rep.eigenvectors)
        assert np.max(np.abs(G - np.eye(n))) < 1e-8
        rep = smallest_eigenpairs(pencil, n - 1)
        assert rep.solver == "shift-invert-lanczos"
        assert_allclose(rep.eigenvalues, vals[:-1], rtol=1e-8)
        assert counting_function(pencil, rep.sigma) == 0
    # a graded strip, where a dense eigh is the inaccurate side: every pair
    # passes a test, nothing lies below the shift, vectors are M-orthonormal
    pencil = _two_strip_pencil(4)
    n = pencil.dof
    rep = smallest_eigenpairs(pencil, n)
    assert np.all((rep.residuals <= rep.tol) | (rep.backward_errors <= rep.tol))
    assert np.all(np.diff(rep.eigenvalues) >= 0)
    assert counting_function(pencil, rep.sigma) == 0
    G = rep.eigenvectors.T @ (pencil.M @ rep.eigenvectors)
    assert np.max(np.abs(G - np.eye(n))) < 1e-8


def test_graded_bottom_is_bracketed_by_sturm_counts():
    # the grading spreads this 31-dof pencil's scale over 2e8; each returned
    # eigenvalue must sit between the Sturm counts just below and above it
    mesh = build_mesh_1d(IV, 32, 0.6)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    assert pencil.dof == 31
    K, M = pencil.K, pencil.M
    rep = smallest_eigenpairs(pencil, 2)
    for j, lam in enumerate(rep.eigenvalues):
        for sigma, expected in ((lam * (1 - 1e-10), j), (lam * (1 + 1e-10), j + 1)):
            assert _sturm_count(K.diagonal(), K.diagonal(1), M.diagonal(),
                                M.diagonal(1), sigma) == expected
    assert np.all(rep.residuals <= rep.tol)


def test_laplacian_five_modes():
    mesh = build_mesh_1d(IV, 2000)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    rep = smallest_eigenpairs(pencil, 5)
    exact = np.array([(k * np.pi) ** 2 for k in range(1, 6)])
    assert np.max(np.abs(rep.eigenvalues / exact - 1)) < 1e-4


def test_residual_contract():
    mesh = build_mesh_1d(IV, 500)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    tol = 1e-7
    rep = smallest_eigenpairs(pencil, 3, tol=tol)
    for j in range(3):
        x = rep.eigenvectors[:, j]
        r = pencil.K @ x - rep.eigenvalues[j] * (pencil.M @ x)
        assert np.linalg.norm(r) <= tol * np.linalg.norm(pencil.M @ x)


def test_m_orthonormality():
    mesh = build_mesh_1d(IV, 800)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    rep = smallest_eigenpairs(pencil, 4)
    G = rep.eigenvectors.T @ (pencil.M @ rep.eigenvectors)
    assert np.max(np.abs(G - np.eye(4))) < 1e-8


def test_variational_upper_bound():
    mesh = build_mesh_1d(IV, 300)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    rep = smallest_eigenpairs(pencil, 1, tol=1e-9)
    rng = np.random.RandomState(1)
    for _ in range(20):
        v = rng.standard_normal(pencil.dof)
        assert pencil.rayleigh(v) >= rep.eigenvalues[0] - 1e-9


def test_determinism_bitwise():
    mesh = build_mesh_1d(IV, 300, 0.9)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q="-0.1*d^-1"), 1.0)
    rep1 = smallest_eigenpairs(pencil, 3, seed=123)
    rep2 = smallest_eigenpairs(pencil, 3, seed=123)
    assert rep1.eigenvalues.tobytes() == rep2.eigenvalues.tobytes()


def test_shift_safety():
    pencils = []
    for n, q in ((700, None), (300, "-0.1*d^-2")):
        mesh = build_mesh_1d(IV, n, 1.0 if q is None else 0.9)
        pencils.append(assemble_pencil(mesh, FormSpec(a=1.0, q=q or "0"), 1.0))
    pencils.append(_disc_pencil(0.3))     # 64 dof
    for pencil in pencils:
        rep = smallest_eigenpairs(pencil, 2)
        assert rep.eigenvalues[0] > rep.sigma


def test_count_validation():
    p = _pencil(sp.identity(5), sp.identity(5))
    with pytest.raises(ValueError):
        smallest_eigenpairs(p, 0)
    with pytest.raises(ValueError):
        smallest_eigenpairs(p, 9)


def test_counting_function():
    p = _pencil(sp.diags([1.0, 2.0, 3.0]), sp.identity(3))
    assert counting_function(p, 2.5) == 2
    assert counting_function(p, 0.0) == 0
    assert counting_function(p, 3.0) == 2  # strictly below the threshold
    assert counting_function(p, 1e6) == 3  # every eigenvalue, none computed


def test_shift_on_the_shared_pattern_is_the_sparse_difference():
    # K - sigma M formed from the data on the pattern K and M share is
    # bitwise the sparse difference, and so are its factor's pivots and
    # inertia.  A Robin pencil shares the pattern too (its facets are
    # element edges); with a = 1, q = 0 K drops two exact zeros, so the
    # patterns differ, and an exact 0 in the difference, which the sparse
    # difference drops, also takes the sparse difference
    def same(a, b):
        return all(np.array_equal(getattr(a, x), getattr(b, x))
                   for x in ("indptr", "indices")) \
            and a.data.tobytes() == b.data.tobytes()

    mesh = build_trimesh(Disc((0, 0), 1.0), 0.25, 0.5)
    shared = assemble_pencil(mesh, FormSpec(a="1+d", q=0.0), 1.0)
    split = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    robin = assemble_pencil(replace(mesh, robin=np.ones(len(mesh.facets), dtype=bool),
                                    clamped=np.zeros(mesh.n_nodes, dtype=bool)),
                            FormSpec(a=1.0, q=1.0, sigma=1.0), 1.0)
    assert shared.K.nnz == shared.M.nnz and split.K.nnz == split.M.nnz - 2
    for pencil in (shared, robin, split):
        K, M = pencil.K, pencil.M
        for sigma in (-0.01, 5.0, 40.0):
            sparse = (K - sigma * M).tocsr()
            assert same(eigensolve._shifted(K, M, sigma), sparse)
            lu = spla.splu(sparse.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           panel_size=eigensolve.PANEL_SIZE,
                           options={"SymmetricMode": True})
            ours, below, _ = _factor(K, M, sigma)
            assert ours.U.diagonal().tobytes() == lu.U.diagonal().tobytes()
            assert below == np.count_nonzero(lu.U.diagonal() < 0)
    M = shared.M
    K = 3.0 * M
    K.data[0] += 1.0
    diff = eigensolve._shifted(K, M, 3.0)
    assert diff.nnz == 1 and same(diff, (K - 3.0 * M).tocsr())


def test_pencil_far_above_its_mass_solved_scaled():
    # ||K||_1 about 2^1000 ||M||_1: K is scaled by a power of two, and the
    # values, the shift and a stalled run's partial values come back in the
    # pencil's own units
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.25, 1.0)
    one = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    big = assemble_pencil(mesh, FormSpec(a=1e300, q=0.0), 1.0)
    a, b = smallest_eigenpairs(one, 3, seed=1), smallest_eigenpairs(big, 3, seed=1)
    assert_allclose(b.eigenvalues, 1e300 * a.eigenvalues, rtol=1e-12)
    assert b.sigma == -0.01 and (b.backward_errors < 1e-8).all()
    with pytest.raises(NoConvergence) as caught:
        smallest_eigenpairs(big, 1, seed=1, maxiter=4)
    assert_allclose(caught.value.partial.eigenvalues, 1e300 * a.eigenvalues[0], rtol=1e-3)


@st.composite
def _power_pencils(draw):
    """Small 1D or disc pencils of a |grad u|^2 + c d^p |u|^2."""
    c = draw(st.floats(-0.3, 1.0).map(lambda x: round(x, 3)))
    p = draw(st.floats(-1.5, 1.0).map(lambda x: round(x, 2)))
    form = FormSpec(a=1.0, q=f"{c}*d^{p}")
    if draw(st.booleans()):
        mesh = build_mesh_1d(IV, 2 * draw(st.integers(2, 20)),
                             draw(st.sampled_from((0.6, 0.8, 1.0))))
    else:
        mesh = build_trimesh(Disc((0, 0), 1.0), draw(st.sampled_from((0.3, 0.4, 0.5))),
                             draw(st.sampled_from((0.5, 1.0))))
    return assemble_pencil(mesh, form, 1.0)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(pencil=_power_pencils(), t=st.floats(-0.2, 1.2))
def test_counting_matches_dense_eigh(pencil, t):
    assert (pencil.K != pencil.K.T).nnz == 0
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
    sigma = vals[0] + t * (vals[-1] - vals[0])
    # a shift within rounding of an eigenvalue has no well-defined count
    assume(np.min(np.abs(vals - sigma)) > 1e-9 * np.max(np.abs(vals)))
    assert counting_function(pencil, sigma) == np.sum(vals < sigma)


@st.composite
def _sparse_power_pencils(draw):
    """1D or disc pencils of |grad u|^2 + c d^p |u|^2 with 121 to 568 dof."""
    c = draw(st.floats(-50.0, 1.0).map(lambda x: round(x, 3)))
    p = draw(st.floats(-1.5, 1.0).map(lambda x: round(x, 2)))
    form = FormSpec(a=1.0, q=f"{c}*d^{p}")
    if draw(st.booleans()):
        mesh = build_mesh_1d(IV, 2 * draw(st.integers(61, 100)),
                             round(draw(st.floats(0.9, 1.0)), 3))
    else:
        mesh = build_trimesh(Disc((0, 0), 1.0),
                             draw(st.sampled_from((0.1, 0.125, 0.15))), 1.0)
    return assemble_pencil(mesh, form, 1.0)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(pencil=st.one_of(_power_pencils(), _sparse_power_pencils()))
def test_sparse_path_matches_dense_bottom(pencil):
    # past this spread the dense reference itself loses the bottom
    assume(_diag_spread(pencil) <= 1e10)
    bottom = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(),
                               eigvals_only=True, subset_by_index=[0, 0])[0]
    rep = smallest_eigenpairs(pencil, 1)
    assert rep.solver == "shift-invert-lanczos"
    assert abs(rep.eigenvalues[0] - bottom) <= 1e-8 * max(1.0, abs(bottom))
    assert counting_function(pencil, rep.sigma) == 0


def test_negative_robin_sparse_path():
    # a negative Robin end puts the bottom below 0, where the search starts
    mesh = build_mesh_1d(IV, 400, tags=("robin", "dirichlet"))
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0, sigma=(-3.0, 0.0)), 1.0)
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
    assert vals[0] < 0
    rep = smallest_eigenpairs(pencil, 3)
    assert rep.solver == "shift-invert-lanczos"
    assert_allclose(rep.eigenvalues, vals[:3], rtol=1e-8)
    assert counting_function(pencil, rep.sigma) == 0


def test_slicing_spans_deep_spectra():
    # the symmetric strip doubles every eigenvalue, and the supercritical
    # potential spreads the spectrum over many decades; inertia slicing must
    # return genuine pairs rather than skipping to the positive cluster
    prob = ProblemSpec(domain=IV, form=FormSpec(a=1.0, q="-0.3*d^-2", beta=0.0),
                       gamma=0.5, ks=(2,))
    sub = strip_mesh(prob, 2)
    pencil = assemble_pencil(sub, FormSpec(a=0.5, q="-0.3*d^-2"), 1.0)
    rep = smallest_eigenpairs(pencil, 4)
    v = rep.eigenvalues
    assert np.all(np.diff(v) >= 0)
    assert v[3] < 0
    assert v[0] == pytest.approx(v[1], rel=1e-5)      # twin components
    assert v[2] == pytest.approx(v[3], rel=1e-5)
    assert v[1] / v[2] > 100                          # decades apart
    G = rep.eigenvectors.T @ (pencil.M @ rep.eigenvectors)
    assert np.max(np.abs(G - np.eye(4))) < 1e-8


def test_inertia_matches_sturm_on_graded_strips(monkeypatch):
    # the strips of the 1D discreteness diagnosis: graded to the float64
    # floor, so the pencil scale spreads over more than 1e12; their bottoms
    # lie above 0, so each solve needs the one factor at its first shift
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _factor(*args)

    monkeypatch.setattr(eigensolve, "_factor", counted)
    prob = ProblemSpec(domain=IV, form=FormSpec(a="d^0.5", q="-0.03*d^-1.5", beta=0.5),
                       gamma=0.5, ks=tuple(range(2, 17)))
    for k in prob.ks:
        sub = strip_mesh(prob, k)
        pencil = assemble_pencil(sub, prob.form, 1.0)
        K, M = pencil.K, pencil.M
        assert _diag_spread(pencil) > 1e12
        calls.clear()
        mu = smallest_eigenpairs(pencil, 1, tol=prob.tol).eigenvalues[0]
        assert len(calls) == 1, calls
        counts = []
        for sigma in (mu * (1 - 1e-6), mu * (1 + 1e-6)):
            oracle = _sturm_count(K.diagonal(), K.diagonal(1), M.diagonal(),
                                  M.diagonal(1), sigma)
            assert _factor(K, M, sigma)[1] == oracle
            counts.append(oracle)
        assert counts[0] == 0 < counts[1]


def test_inertia_matches_dense_count_on_disc():
    pencil = _disc_pencil(0.3)
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
    for sigma in (-5.0, 0.0, 10.0, 16.0, 17.0, 40.0, 1e3, 2 * vals[-1]):
        assert _factor(pencil.K, pencil.M, sigma)[1] == np.sum(vals < sigma)


def _exact_sturm_counts(K, M, sigmas, prec=200):
    """Oracle: for each sigma, the eigenvalues of the tridiagonal pencil
    below sigma, from the LDL^T pivots of K - sigma M in mpmath at `prec`
    bits.  The float entries and shifts are exact there, and so is every
    entry of K - sigma M."""
    with mpmath.workprec(prec):
        kd, ko, md, mo = ([mpmath.mpf(x) for x in v.tolist()] for v in
                          (K.diagonal(), K.diagonal(1), M.diagonal(), M.diagonal(1)))
        counts = []
        for sigma in sigmas:
            s = mpmath.mpf(sigma)
            d = kd[0] - s * md[0]
            below = int(d < 0)
            for i in range(1, len(kd)):
                e = ko[i - 1] - s * mo[i - 1]
                d = kd[i] - s * md[i] - e * e / d
                below += d < 0
            counts.append(below)
    return counts


def _exact_ldlt_count(K, M, sigma, prec=200):
    """Oracle: the eigenvalues of a small pencil below sigma, from the
    pivots of a dense LDL^T of K - sigma M (no pivoting) in mpmath at
    `prec` bits.  Rows run in reverse Cuthill-McKee order, and only the
    nonzeros of each pivot row are eliminated, so the work stays in the
    profile; any symmetric order gives the same inertia."""
    order = reverse_cuthill_mckee(K.tocsr(), symmetric_mode=True)
    Kd, Md = (X.toarray()[np.ix_(order, order)] for X in (K, M))
    n = len(order)
    with mpmath.workprec(prec):
        s = mpmath.mpf(sigma)
        A = [[mpmath.mpf(k) - s * mpmath.mpf(m) for k, m in zip(kr, mr)]
             for kr, mr in zip(Kd.tolist(), Md.tolist())]
        below = 0
        for k in range(n):
            below += A[k][k] < 0
            row = [j for j in range(k + 1, n) if A[k][j] != 0]
            for i in row:
                l = A[i][k] / A[k][k]
                for j in row:
                    A[i][j] -= l * A[k][j]
    return below


@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5, 0.9])
def test_inertia_matches_exact_counts_on_the_hardy_ladder(beta):
    # the verify_hardy interval ladder (255, 1,023 and 4,095 dof): the
    # float count equals a 200-bit Sturm count at the certificate's shift,
    # 1e-12 relative on either side of lambda_1, and between lambda_1 and
    # lambda_2
    for fine, _ in nested(ladder_mesh(IV, 256, None, 0.15, 3), 3, REFINE_FACTOR):
        pencil = hardy_pencil(fine, beta, 0.0, 0.0)
        K, M = pencil.K, pencil.M
        assert sp.triu(K, 2).nnz == sp.triu(M, 2).nnz == 0       # tridiagonal
        lam = smallest_eigenpairs(pencil, 2).eigenvalues
        cuts = [kappa(beta) - CERT_TOL, lam[0] * (1 - 1e-12), lam[0] * (1 + 1e-12),
                0.5 * (lam[0] + lam[1])]
        exact = _exact_sturm_counts(K, M, cuts)
        assert exact == [0, 0, 1, 1]
        assert [counting_function(pencil, c) for c in cuts] == exact


def test_inertia_matches_exact_counts_at_a_double_eigenvalue():
    # the disc's second eigenvalue is double (129 dof): the count between
    # lambda_1 and it, and 1e-6 relative (the scale of spectrum slicing's
    # cuts) below and above it, equals a 200-bit LDL^T count
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.2, 1.0)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    assert pencil.dof == 129
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
    assert vals[2] - vals[1] < 1e-12 * vals[1]
    for cut, below in ((0.5 * (vals[0] + vals[1]), 1), (vals[1] * (1 - 1e-6), 1),
                       (vals[2] * (1 + 1e-6), 3)):
        assert _exact_ldlt_count(pencil.K, pencil.M, cut) == below
        assert counting_function(pencil, cut) == below
    # a weight even in x but not in y parts the two copies by 1.7e-3
    # relative; the cut between them counts one
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), "1 + 0.01*x^2")
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
    assert vals[2] - vals[1] > 1e-3 * vals[1]
    cut = 0.5 * (vals[1] + vals[2])
    assert _exact_ldlt_count(pencil.K, pencil.M, cut) == 2
    assert counting_function(pencil, cut) == 2
    # a torus section (measure weight r, 253 dof): between lambda_1 and
    # lambda_2, and 1e-6 relative on either side of each
    mesh = build_trimesh(Torus(3.0, 1.0).section, 0.15, 1.0)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
    assert pencil.dof == 253 and pencil.meta["measure_weight"] == "r"
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
    cuts = [0.5 * (vals[0] + vals[1]), vals[0] * (1 - 1e-6), vals[0] * (1 + 1e-6),
            vals[1] * (1 - 1e-6), vals[1] * (1 + 1e-6)]
    exact = [_exact_ldlt_count(pencil.K, pencil.M, cut) for cut in cuts]
    assert exact == [1, 0, 1, 1, 2]
    assert [counting_function(pencil, cut) for cut in cuts] == exact


def _pencils_factor_sees():
    """One pencil of each kind `_factor` is handed: a 1D pencil with Robin
    ends, a disc, a torus section (measure weight r) and a Persson strip."""
    yield assemble_pencil(build_mesh_1d(IV, 64, 0.5, tags=("robin", "robin")),
                          FormSpec(a="d^0.5", q="-0.03*d^-1.5", sigma=(0.5, 2.0)),
                          "d^-1")
    yield hardy_pencil(build_trimesh(Disc((0, 0), 1.0), 0.2, 0.5), 0.5, 0.0, 0.0)
    yield assemble_pencil(build_trimesh(Torus(3.0, 1.0).section, 0.25, 0.5),
                          FormSpec(a=1.0, q="4/r^2"), 1.0)
    problem = ProblemSpec(Disc((0, 0), 1.0), FormSpec(a=1.0, q="-0.05*d^-2"), 0.5,
                          ks=(4,))
    yield assemble_pencil(strip_mesh(problem, 4), problem.form, 1.0)


@pytest.mark.parametrize("sigma", [-0.01, 0.3, 40.0])
def test_shifted_pencils_are_exactly_symmetric(sigma):
    # _factor hands the CSR arrays of K - sigma M to SuperLU as CSC arrays,
    # which is right only when the matrix equals its transpose bitwise; a
    # pencil passed as CSC is read the same way and factors to the same bits
    for pencil in _pencils_factor_sees():
        A = pencil.K - sigma * pencil.M
        assert (A != A.T).nnz == 0
        lu, below, _ = _factor(pencil.K, pencil.M, sigma)
        lu_csc, below_csc, _ = _factor(pencil.K.tocsc(), pencil.M.tocsc(), sigma)
        assert below_csc == below
        assert np.array_equal(lu_csc.U.diagonal(), lu.U.diagonal())
        # so the transposed solve, which Lanczos uses for one vector, solves
        # the same system, as backward-accurately as the plain one; at 40 the
        # 421-dof factor grows its pivots, and both solutions part by 1.2e-12
        b = np.random.default_rng(pencil.dof).standard_normal(pencil.dof)
        norm1 = eigensolve._norm1(A)
        def backward(x):
            return np.linalg.norm(A @ x - b) / (norm1 * np.linalg.norm(x) + np.linalg.norm(b))
        assert backward(lu.solve(b, trans="T")) <= 2 * backward(lu.solve(b)) + 1e-16


def test_slicing_matches_dense():
    # counts 2, 4 and 7 cut through double eigenvalues of the disc; half and
    # all but one of its 568 need more than 400 solves for a first test
    pencil = _disc_pencil(0.1)
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
    for count in [*range(1, 8), pencil.dof // 2, pencil.dof - 1]:
        rep = smallest_eigenpairs(pencil, count)
        assert rep.solver == "shift-invert-lanczos"
        assert_allclose(rep.eigenvalues, vals[:count], rtol=1e-8)
        assert _factor(pencil.K, pencil.M, rep.sigma)[1] == 0


def test_floor_above_spectrum_is_stepped_down():
    # the bottom is 5.80260 - 30, so the first shift, just below 0, lies
    # above the spectrum
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.1, 1.0)
    pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=-30.0), 1.0)
    assert pencil.dof == 568
    rep = smallest_eigenpairs(pencil, 1)
    assert rep.eigenvalues[0] == pytest.approx(5.80260 - 30.0, abs=1e-5)
    assert rep.eigenvalues[0] > rep.sigma
    assert counting_function(pencil, rep.sigma) == 0
    # a caller's floor above the bottom is stepped down the same way
    high = smallest_eigenpairs(pencil, 1, floor=rep.eigenvalues[0] + 1.0)
    assert abs(high.eigenvalues[0] - rep.eigenvalues[0]) <= 1e-10
    assert high.eigenvalues[0] > high.sigma
    assert counting_function(pencil, high.sigma) == 0


def test_floors_are_tried_highest_first(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _factor(*args)

    monkeypatch.setattr(eigensolve, "_factor", counted)
    pencil = _disc_pencil(0.1)
    low = smallest_eigenpairs(pencil, 1, floor=5.0)
    assert calls == [5.0]
    # a floor that holds is the shift, whatever lies below it
    calls.clear()
    high = smallest_eigenpairs(pencil, 1, floor=(-300.0, 5.7))
    assert calls == [5.7] and high.sigma == 5.7
    assert high.eigenvalues[0] == pytest.approx(low.eigenvalues[0], rel=1e-12)
    # one that inertia refutes costs its one factorization; the next holds
    calls.clear()
    refuted = smallest_eigenpairs(pencil, 1, floor=[5.0, 6.0])
    assert calls == [6.0, 5.0] and refuted.sigma == 5.0
    assert refuted.eigenvalues[0] == low.eigenvalues[0]


def test_projected_eigenproblem_failure_raises(monkeypatch):
    # LAPACK's failure ends the solve with a typed error
    def failing(*args, **kw):
        raise scipy.linalg.LinAlgError("sbevx did not converge")

    monkeypatch.setattr(eigensolve.scipy.linalg, "eig_banded", failing)
    with pytest.raises(NoConvergence, match="sbevx did not converge"):
        smallest_eigenpairs(_disc_pencil(0.1), 1)


def test_a_pair_that_fails_both_tests_raises(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _factor(*args)

    monkeypatch.setattr(eigensolve, "_factor", counted)
    pencil = _disc_pencil(0.1)
    # a converged pair costs the one factor at its shift
    rep = smallest_eigenpairs(pencil, 1)
    assert len(calls) == 1 and rep.converged
    # so does one whose residual, absolute in lambda, exceeds tol while its
    # backward error does not
    calls.clear()
    scaled = Pencil(1e6 * pencil.K, pencil.M, pencil.free_nodes, pencil.meta)
    rep = smallest_eigenpairs(scaled, 1)
    assert rep.residuals[0] > rep.tol >= rep.backward_errors[0]
    assert len(calls) == 1 and rep.converged
    # a perturbed Lanczos vector fails both: no pair passes, so none is kept
    lanczos = eigensolve._lanczos

    def perturbed(*args):
        lam, x, solves = lanczos(*args)
        noise = np.random.RandomState(18).standard_normal(x.shape)
        return lam, x + 1e-3 * np.linalg.norm(x) / np.linalg.norm(noise) * noise, solves

    monkeypatch.setattr(eigensolve, "_lanczos", perturbed)
    with pytest.raises(NoConvergence) as caught:
        smallest_eigenpairs(pencil, 1)
    assert len(caught.value.partial.eigenvalues) == 0
    assert caught.value.partial.eigenvectors.shape == (pencil.dof, 0)
    # and no certificate is built on such a pair
    with pytest.raises(NoConvergence):
        verify_hardy(IV, 0.0, n=64, levels=2)


def _graded_hardy_pencil():
    return hardy_pencil(build_mesh_1d(IV, 64, 0.8), 0.5, 0.0, 0.0)


def _two_strip_pencil(k=5):
    # d < 1/k on the interval: two components, one at each end
    prob = ProblemSpec(domain=IV, form=FormSpec(a="d^0.5", q="-0.03*d^-1.5", beta=0.5),
                       gamma=0.5, ks=(k,))
    return assemble_pencil(strip_mesh(prob, k), prob.form, 1.0)


def test_start_vector_is_the_seeded_draw(monkeypatch):
    # one generator, reseeded for each solve: after solves with other seeds
    # and sizes, a solve still starts from RandomState(seed)'s own draw
    starts = []
    slice_ = eigensolve._slice

    def recorded(K, M, count, start, *args):
        starts.append(start.copy())
        return slice_(K, M, count, start, *args)

    monkeypatch.setattr(eigensolve, "_slice", recorded)
    small, large = _graded_hardy_pencil(), _two_strip_pencil()
    assert small.dof != large.dof
    for pencil, seed in ((large, 7), (small, 3), (large, 1), (small, 1), (large, 0)):
        smallest_eigenpairs(pencil, 1, seed=seed)
        want = np.random.RandomState(seed).standard_normal(pencil.dof)
        assert starts[-1].tobytes() == want.tobytes()
    assert len(starts) == 5


@pytest.mark.parametrize("make", [lambda: _disc_pencil(0.1), _graded_hardy_pencil,
                                  _two_strip_pencil], ids=["disc", "hardy_1d", "strip_k5"])
def test_lanczos_matches_a_tight_eigsh(make):
    pencil = make()
    K, M = pencil.K, pencil.M
    rep = smallest_eigenpairs(pencil, 1)
    lu, sigma = eigensolve._shift(K, M, -0.01, np.inf, 0)
    assert sigma == rep.sigma
    start = np.random.RandomState(0).standard_normal(pencil.dof)
    lam = eigensolve._lanczos(M, lu, sigma, start, rep.tol, 400)[0]
    tight = spla.eigsh(K, 1, M, sigma=sigma, which="LA", tol=1e-15,
                       return_eigenvectors=False)[0]
    assert lam == pytest.approx(tight, rel=1e-12)
    assert rep.eigenvalues[0] == pytest.approx(tight, rel=1e-12)
    x = rep.eigenvectors[:, 0]
    assert abs(x @ (M @ x) - 1.0) <= 1e-12
    # the shift-invert correction of the Ritz vector: without it the 1D
    # backward errors read 1e-14, with it below 3e-16
    assert rep.backward_errors[0] <= 1e-15


def test_lanczos_from_a_far_floor_fills_several_blocks():
    # 36 solves from a floor 300 below the bottom: the basis outgrows the 26
    # rows it starts with and is doubled
    pencil = _disc_pencil(0.1)
    rep = smallest_eigenpairs(pencil, 1, floor=-300.0)
    assert rep.converged and rep.sigma == -300.0 and rep.iterations > 27
    tight = spla.eigsh(pencil.K, 1, pencil.M, sigma=rep.sigma, which="LA", tol=1e-15,
                       return_eigenvectors=False)[0]
    assert rep.eigenvalues[0] == pytest.approx(tight, rel=1e-12)
    x = rep.eigenvectors[:, 0]
    assert abs(x @ (pencil.M @ x) - 1.0) <= 1e-12


def test_iterations_count_lu_solves(monkeypatch):
    solves = []

    class Counted:
        def __init__(self, lu):
            self.lu, self.U = lu, lu.U

        def solve(self, b, trans="N"):
            solves.append(1 if b.ndim == 1 else b.shape[1])     # right-hand sides
            return self.lu.solve(b, trans=trans)

    def counted(*args):
        lu, below, sigma = _factor(*args)
        return Counted(lu), below, sigma

    monkeypatch.setattr(eigensolve, "_factor", counted)
    pencil = _disc_pencil(0.1)
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True,
                             subset_by_index=[0, 2])
    # lambda_2 / lambda_1 = 2.5: from a floor half a unit below the bottom the
    # basis converges by the first test, at 12 vectors and 13 solves
    rep = smallest_eigenpairs(pencil, 1, floor=vals[0] - 0.5)
    assert rep.converged and rep.eigenvalues[0] == pytest.approx(vals[0], rel=1e-12)
    assert rep.iterations == sum(solves) <= 13
    # a block of width 2 counts both right-hand sides of each solve
    solves.clear()
    rep = smallest_eigenpairs(pencil, 3)
    assert rep.converged and rep.iterations == sum(solves) > 13


def test_lanczos_past_maxiter_carries_the_ritz_pair():
    pencil = _disc_pencil(0.1)
    exact = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True,
                              subset_by_index=[0, 0])[0]
    with pytest.raises(NoConvergence) as caught:
        smallest_eigenpairs(pencil, 1, maxiter=5)
    partial = caught.value.partial
    assert partial.eigenvectors.shape == (pencil.dof, 1)
    # a Ritz value of the shifted inverse bounds the bottom from above
    lam = partial.eigenvalues[0]
    assert exact * (1 - 1e-12) <= lam <= exact * 1.01
    x = partial.eigenvectors[:, 0]
    assert pencil.rayleigh(x) == pytest.approx(exact, rel=1e-2)


def test_lanczos_on_small_pencils_breaks_down_cleanly():
    # at most 12 dof: the basis spans an invariant subspace (one vector for
    # the identity) or the whole space before the first convergence test
    small = [_pencil(sp.identity(5), sp.identity(5)),
             _pencil(sp.diags([3.0, 1.0, 2.0, 5.0]), sp.identity(4)),
             assemble_pencil(build_mesh_1d(IV, 13), FormSpec(a=1.0, q="-0.1*d^-1"), 1.0)]
    for pencil in small:
        exact = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(),
                                  eigvals_only=True)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = smallest_eigenpairs(pencil, 1)
        assert rep.converged and rep.eigenvalues[0] == pytest.approx(exact, rel=1e-12)
        assert rep.iterations <= pencil.dof + 1
    assert rep.iterations == 13


def test_lanczos_restarts_after_an_exact_breakdown():
    # unit start vectors of a diagonal pencil span an invariant subspace, so
    # the first step leaves both new vectors exactly zero; random vectors
    # take their place until the three wanted pairs are found
    K, M = sp.diags(np.arange(1.0, 7.0)).tocsr(), sp.identity(6, format="csr")
    lu, _, sigma = _factor(K, M, 0.5)
    lam, X, solves = eigensolve._lanczos(M, lu, sigma, np.eye(6)[:, [3, 5]], 1e-12, 100,
                                         k=3)
    assert_allclose(lam, [1.0, 2.0, 3.0], rtol=1e-12)
    assert_allclose(np.abs(X), np.eye(6)[:3], atol=1e-10)


def test_norm1_is_bitwise_spla_norm():
    pencils = [_disc_pencil(0.1), _graded_hardy_pencil(), _two_strip_pencil()]
    for pencil in pencils:
        for A in (pencil.K, pencil.M, 1e6 * pencil.K, -pencil.K):
            assert eigensolve._norm1(A) == spla.norm(A, 1)


def test_form_check_ladder_matches_a_tight_solve():
    # the form check of the 1D discreteness diagnosis: a 10-vector Lanczos
    # basis left its top level (766 dof) 5.6e-9 high at seed 1, 3.9e-9 at
    # seed 2; 12 vectors keep it within 1e-14
    for seed in range(4):
        prob = ProblemSpec(domain=IV, form=FormSpec(a="d^0.5", q="-0.03*d^-1.5",
                                                    beta=0.5),
                           gamma=0.5, ks=tuple(range(2, 17)), seed=seed)
        detail = check_form_nonnegativity(prob).detail
        form = FormSpec(a=constant(1.0 - prob.gamma) * prob.form.a,
                        q=-prob.form.q.negative_part(), beta=0.5)
        tight = ladder(strip_mesh(prob, prob.k0), 3, 1,
                       lambda mesh: assemble_pencil(mesh, form, 1.0), tol=1e-15)
        assert detail["dofs"] == [dof for dof, _ in tight] == [190, 382, 766]
        assert_allclose(detail["minima"], [mu for _, mu in tight], rtol=0, atol=1e-12)


def test_singular_shift():
    K = sp.diags([1.0, 2.0, 3.0]).tocsc()
    M = sp.identity(3, format="csc")
    lu, below, sigma = _factor(K, M, 2.0)     # exactly singular at 2
    assert sigma < 2.0 and below == 1
    # a pencil singular at every shift is refused rather than counted
    Z = sp.diags([1.0, 0.0]).tocsc()
    with pytest.raises(FactorizationFailure):
        _factor(Z, Z, 0.5)


def test_cluster_wider_than_the_block(monkeypatch):
    # three identical components make each of their eigenvalues an exact
    # triple, and a fourth of one dof puts a simple value, 20, between the
    # first two triples.  A block of two holds two copies of the triple;
    # inertia counts three below the cut above them, and the window is
    # solved again on a block widened to three.  (At tol 1e-10 the first
    # window runs long enough for rounding to bring in the third copy.)
    one = assemble_pencil(build_mesh_1d(IV, 24), FormSpec(a=1.0, q=0.0), 1.0)
    pencil = _pencil(sp.block_diag([one.K] * 3 + [sp.identity(1) * 20.0]),
                     sp.block_diag([one.M] * 3 + [sp.identity(1)]))
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
    assert vals[2] - vals[0] <= 1e-12 * vals[0]
    assert vals[2] < vals[3] < vals[4] and vals[3] == pytest.approx(20.0, rel=1e-12)
    widths = []
    lanczos = eigensolve._lanczos

    def recorded(M, lu, sigma, V, *args):
        widths.append(V.reshape(len(V), -1).shape[1])
        return lanczos(M, lu, sigma, V, *args)

    monkeypatch.setattr(eigensolve, "_lanczos", recorded)
    rep = smallest_eigenpairs(pencil, 4, tol=1e-8)
    assert widths == [2, 3]
    assert rep.converged and np.max(np.abs(rep.eigenvalues - vals[:4])) <= 1e-8
    assert counting_function(pencil, rep.eigenvalues[-1] * (1 + 1e-6)) == 4


def test_no_convergence_carries_partial_eigenvalues():
    # 24 right-hand sides (the first test at 20 vectors, then one block)
    # converge 3 of the 5 wanted values on this pencil: the bottom and the
    # double eigenvalue above it
    pencil = _disc_pencil(0.1)
    assert pencil.dof == 568
    with pytest.raises(NoConvergence) as caught:
        smallest_eigenpairs(pencil, 5, maxiter=24)
    partial = caught.value.partial.eigenvalues
    assert 0 < len(partial) < 5
    vals = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True,
                             subset_by_index=[0, 9])
    for lam in partial:
        assert np.min(np.abs(vals - lam)) <= 1e-8 * lam


@st.composite
def _ladder_meshes(draw):
    """Small boundary strips of a graded interval, or small discs; the
    three-level ladders built on them end at 158 to 3921 dof."""
    if draw(st.booleans()):
        mesh = build_mesh_1d(IV, 2 * draw(st.integers(40, 60)),
                             draw(st.sampled_from((0.8, 0.9, 1.0))))
        return restrict_to_strip(mesh, draw(st.sampled_from((0.25, 0.5))))
    return build_trimesh(Disc((0, 0), 1.0), draw(st.sampled_from((0.3, 0.4, 0.5))),
                         draw(st.sampled_from((0.5, 1.0))))


def _warm_and_cold(mesh, form):
    """Minima of a three-level ladder on mesh, warm and cold started."""
    pencils = []

    def pencil(fine):
        pencils.append(assemble_pencil(fine, form, 1.0))
        return pencils[-1]
    warm = [mu for _, mu in ladder(mesh, 3, 1, pencil)]
    cold = [smallest_eigenpairs(pc, 1).eigenvalues[0] for pc in pencils]
    return warm, cold


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(mesh=_ladder_meshes(), c=st.floats(-5.0, 1.0).map(lambda x: round(x, 3)),
       p=st.floats(-1.5, 1.0).map(lambda x: round(x, 2)),
       b=st.floats(-50.0, 0.0).map(lambda x: round(x, 1)))
def test_warm_ladder_matches_cold_and_decreases(mesh, c, p, b):
    warm, cold = _warm_and_cold(mesh, FormSpec(a=1.0, q=f"{c}*d^{p}+{b}*x^6"))
    for w, mu in zip(warm, cold):
        assert abs(w - mu) <= 1e-8 * max(1.0, abs(mu))
    for coarse, fine in zip(warm, warm[1:]):
        assert fine <= coarse + 1e-8 * max(1.0, abs(coarse))


def test_warm_ladder_finds_a_minimum_that_changes_component():
    # both ends of the interval form the strip, two blocks of the pencil; the
    # right end's potential -430 x^6 holds the minimum of the first level
    # (38 dof), the left end's supercritical -d^-2 (1-x)^6 / 2 that of the
    # last one (158 dof), where the prolonged eigenvector is nearly zero
    strip = restrict_to_strip(build_mesh_1d(IV, 80, 1.0), 0.25)
    form = FormSpec(a=1.0, q="-0.5*d^-2*(1-x)^6-430*x^6")
    warm, cold = _warm_and_cold(strip, form)
    assert cold[0] < -30 and cold[2] < -140
    assert_allclose(warm, cold, rtol=1e-10)
    # a start exactly zero on the left end: only the random part reaches it
    fine = list(nested(strip, 3, 1))[-1][0]
    pencil = assemble_pencil(fine, form, 1.0)
    assert pencil.dof == 158
    v = (fine.points[pencil.free_nodes, 0] > 0.5).astype(float)
    mu = smallest_eigenpairs(pencil, 1, v0=v).eigenvalues[0]
    assert mu == pytest.approx(-148.895, abs=1e-3)
    assert mu == pytest.approx(cold[2], rel=1e-10)
