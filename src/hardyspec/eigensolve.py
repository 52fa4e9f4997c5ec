"""Smallest eigenpairs of sparse symmetric pencils K x = lambda M x.

One certified path serves every count up to dof.  K - sigma M is factored
with diagonal pivots only, so its negative pivots count the eigenvalues
below sigma (Sylvester's law of inertia), the counting function N(lambda).
The first shift, a floor the caller names, is stepped down past any
eigenvalue below it and bisected up to just below the spectrum, so a wrong
floor costs factorizations, never a wrong value.  One block shift-invert
Lanczos loop runs on that factor for every count (Ericsson & Ruhe 1980);
for more than one eigenpair an inertia count above the returned values
shows that none was skipped, or the spectrum is sliced again above the
confirmed clusters (Grimes, Lewis & Simon 1994).
"""

import threading
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationFailure, InvalidParameter, NoConvergence
from .meshing import nested

EPS23 = (0.5 * np.finfo(float).eps) ** (2 / 3)    # ARPACK's eps23, from dlamch('E')
PANEL_SIZE = 1          # SuperLU's panel width, the fastest measured (see _factor)
BLOCK = 2               # Lanczos block width for more than one eigenpair (see _slice)
# A pencil whose ||K||_1 exceeds ||M||_1 by more than SCALE_ABOVE binades is
# solved with K scaled to SCALE_TO binades above (see smallest_eigenpairs)
SCALE_ABOVE, SCALE_TO = 60, 36

# One generator for every start vector, reseeded under the lock before each
# draw, so no call sees another's state; RandomState(seed) would first seed a
# throwaway generator from OS entropy, 0.15 ms a solve.
_START = np.random.RandomState(0)
_START_LOCK = threading.Lock()


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray
    residuals: np.ndarray          # ||K x - lam M x|| / ||M x||
    backward_errors: np.ndarray    # ||K x - lam M x|| / ((||K||+|lam| ||M||) ||x||)
    # (dof, count), M-orthonormal; left out of reports
    eigenvectors: np.ndarray = field(metadata={"key": None})
    dof: int
    tol: float
    sigma: float                   # shift used (below the returned spectrum)
    seed: int
    iterations: int                # right-hand sides Lanczos solved
    # both constant: one path, and a pair that fails both tests raises
    solver: str = "shift-invert-lanczos"
    converged: bool = True
    mesh_info: dict = field(default_factory=dict)


def _shifted(K, M, sigma):
    """K - sigma M in CSR form.  When K and M share one pattern it is
    K.data - sigma M.data on that pattern, bitwise the sparse difference
    unless an entry is exactly 0, which the sparse difference drops; so
    two patterns, or a 0 in the difference, take the sparse difference."""
    if np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices):
        data = K.data - sigma * M.data
        if data.all():
            return sp.csr_matrix((data, K.indices, K.indptr), shape=K.shape)
    return (K - sigma * M).tocsr()


def _factor(K, M, sigma):
    """Factor K - sigma M with diagonal pivots only; returns the factor,
    the number of pencil eigenvalues below sigma, and sigma.

    With a symmetric ordering and no off-diagonal pivoting the factor is
    P (K - sigma M) P^T = L U with U = D L^T, so the signs of diag(U) are
    the inertia of K - sigma M.  A shift on an eigenvalue can make the
    factor exactly singular; sigma is then nudged down a few times.

    SuperLU is handed the transpose of K - sigma M in CSR form, which is
    a CSC matrix on the same arrays, with no CSR -> CSC sort.  That is
    K - sigma M itself because it is exactly symmetric, entry for entry,
    as forms assembles K and M; an unsymmetric matrix would be factored
    as its transpose.  SuperLU runs with panel size 1 (PANEL_SIZE): the
    70,479-dof hardy-disc level factored in 327 ms against 435 ms at its
    default (medians of 7), with the same nnz(L+U) and solve time, and no
    width from 2 to 12 was faster.  The panel size moves the pivots by
    ulps only.
    """
    for attempt in range(4):
        try:
            lu = spla.splu(_shifted(K, M, sigma).T, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, panel_size=PANEL_SIZE,
                           options={"SymmetricMode": True})
            break
        except RuntimeError as exc:
            if attempt == 3:
                raise FactorizationFailure(
                    f"K - sigma M stays singular down to sigma={sigma:g}") from exc
            sigma = sigma - 1e-8 * (1.0 + abs(sigma)) * (attempt + 1)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailure(
            f"K - sigma M needed off-diagonal pivots at sigma={sigma:g}, "
            "so its inertia is unknown")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0)), sigma


def _shift(K, M, floor, hi, found):
    """A factor at a shift with exactly `found` eigenvalues below it, within
    the scale of hi of the next eigenvalue (hi, possibly infinite, bounds it
    from above), and the shift.  Tries `floor`, one shift or several, the
    highest first; below the lowest it steps down to -(1 + |lo|)^2 while
    inertia finds more eigenvalues below it (seven steps reach -7e22 from
    -0.01), then bisects on counts, geometrically while the bracket spans
    decades.  A shift that is refuted bounds the bracket from above, so the
    next floor down, if it holds, costs that one factorization only.  One
    factor is alive at a time.
    """
    floors = sorted(map(float, np.atleast_1d(floor)), reverse=True)
    for attempt in range(len(floors) + 7):
        lo = floors[attempt] if attempt < len(floors) else -(1.0 + abs(lo)) ** 2
        lu, below, lo = _factor(K, M, lo)
        if below == found:
            break
        lu, hi = None, min(hi, lo)
    else:
        raise NoConvergence(f"no shift below the spectrum down to {lo:g}")
    while hi - lo > 1.0 + abs(hi):
        lu = None       # rebuilt at the final shift: one factor alive at a time
        gap, scale = hi - lo, 1.0 + abs(hi)
        mid = hi - np.sqrt(gap * scale) if gap > 100.0 * scale else 0.5 * (lo + hi)
        below, mid = _factor(K, M, mid)[1:]
        if below == found:
            lo = mid
        else:
            hi = mid
    if lu is None:
        lu, _, lo = _factor(K, M, lo)
    return lu, lo


def _lanczos(M, lu, sigma, V, tol, maxiter, k=1):
    """The k eigenpairs just above a certified shift: values (ascending),
    vectors (one a row) and the right-hand sides solved.

    Block Lanczos on OP = (K - sigma M)^-1 M, symmetric in the M inner
    product; its largest eigenvalues theta = 1/(lambda - sigma) are wanted
    (Ericsson & Ruhe 1980).  `lu` factors K - sigma M.  The b columns of V
    (one for a vector) start a block, which holds up to b copies of a
    repeated eigenvalue (Golub & Underwood 1977).  ARPACK's rules, no restarts:
    - one solve forces V into OP's range; a step is one solve of b columns,
      by SuperLU's transposed kernel for one column and its plain kernel
      for more: K - sigma M equals its transpose bitwise, so both solve
      the same system, and the transposed one is the faster for one
      vector, the slower for two or more (see the README);
    - each new vector is M-orthogonalized against the whole basis, repeated
      while a pass leaves less than 0.717 of the norm (DGKS): column by
      column the QR of the block, so T, OP in the basis, has bandwidth b.
      One left in the span couples with 0; a random vector takes its place;
    - the Ritz pairs are tested from 12 basis vectors for k = 1, scipy's
      ARPACK default max(2k + 1, 20) for more (n if fewer) or a breakdown,
      then after every block: ||E s_last|| <= tol max(theta, eps^(2/3)), E
      coupling the last block to the next; each Ritz vector gets the
      shift-invert correction.
    The basis is one array with room for twice the first test's vectors,
    doubled when full.  Past `maxiter` right-hand sides (None: 400, or twice
    the first test's vectors if more) it raises NoConvergence, whose
    `partial` holds the pairs that passed the test, or the lowest Ritz pair.
    """
    n = M.shape[0]

    def solve(rhs):     # OP's solve of a vector or of columns, as columns
        if rhs.ndim == 1:
            return lu.solve(rhs, trans="T")[:, None]
        return lu.solve(rhs)

    W = solve(M @ V)
    b = solves = W.shape[1]
    first = min(n, 12 if k == 1 else max(2 * k + 1, 20))
    maxiter = max(400, 2 * first) if maxiter is None else maxiter
    Q, size = np.empty((min(n, 2 * (first + b)), n)), 0    # the basis, a vector a row
    ahead = []                  # M q of each vector OP has not met
    band = []                   # band[m] = T[m:m + b + 1, m], T's lower band

    def orthogonalize(w):   # in place: M w, w's coefficients and norm (0: in the span)
        mw, coef = M @ w, 0.0
        before = norm = np.sqrt(abs(w @ mw))
        for _ in range(3 if size else 0):
            h = Q[:size] @ mw
            w -= h @ Q[:size]
            mw, coef = M @ w, coef + h
            norm = np.sqrt(abs(w @ mw))
            if norm > 0.717 * before:
                return mw, coef, norm
            before = norm
        return mw, coef, 0.0 if size else norm

    def append(w):     # w normalized, or a random vector if w is in the span
        nonlocal size, Q
        mw, coef, norm = orthogonalize(w)
        if size == n:
            return coef, 0.0
        x, mx, nx = w, mw, norm
        if norm == 0.0:     # seeded by a pair, not an integer as start vectors are
            x = _start_vector((size, n), n)
            mx, _, nx = orthogonalize(x)
        if size == len(Q):
            Q = np.vstack([Q, np.empty((min(n, 2 * size) - size, n))])
        Q[size] = x / nx
        ahead.append(mx / nx)
        size += 1
        return coef, norm

    for w in W.T:
        append(w)
    while True:
        rhs = ahead[0] if len(ahead) == 1 else np.array(ahead).T
        W, met, solves = solve(rhs), len(band), solves + len(ahead)
        ahead.clear()
        for w in W.T:
            coef, norm = append(w)
            col = np.zeros(b + 1)
            col[:len(coef) - len(band)], col[b] = coef[len(band):], norm
            band.append(col)
        N = len(band)
        if not (N >= first or solves >= maxiter or any(c[b] == 0 for c in band[met:])):
            continue
        j = min(k, N)
        try:
            theta, S = (x[..., ::-1] for x in scipy.linalg.eig_banded(    # largest first
                np.array(band).T, lower=True, select="i", select_range=(N - j, N - 1)))
        except scipy.linalg.LinAlgError as exc:
            raise NoConvergence(f"the projected eigenproblem failed after {solves} "
                                f"solves: {exc}") from exc
        if not theta[0] > 0:    # OP is positive definite, so T has lost its scale
            raise NoConvergence(f"the projected eigenproblem lost its scale after "
                                f"{solves} solves: largest Ritz value {theta[0]:g}")
        E = np.zeros((b, b))
        for c in range(b):
            E[:c + 1, c] = band[N - b + c][b - c:]
        R = E @ S[-b:]          # the Ritz residuals on the basis vectors from N on
        lam = sigma + 1.0 / theta
        ok = np.linalg.norm(R, axis=0) <= tol * np.maximum(theta, EPS23)
        done = j == k and ok.all()
        if not (done or solves >= maxiter):
            continue
        X = (R[:size - N] / theta).T @ Q[N:size] + S.T @ Q[:N]      # the Ritz vectors
        if done:
            return lam, X, solves
        keep = ok if ok.any() else slice(0, 1)
        partial = SimpleNamespace(eigenvalues=lam[keep], eigenvectors=X[keep].T)
        raise NoConvergence(f"Lanczos stalled after {solves} solves", partial)


def _slice(K, M, count, v0, tol, maxiter, floor, seed):
    """The count smallest eigenpairs, the shift below them and the
    right-hand sides Lanczos solved.

    Each window is solved by `_lanczos` at a certified shift, the first
    started at `floor`.  One eigenpair is certified by the empty count
    below it and solved from v0 alone.  For more, the block is v0 and
    BLOCK - 1 columns more of the seeded draw, and the inertia count just
    above the wanted values must equal the values accepted and returned.
    Else Lanczos skipped some (a cluster wider than the block): the
    clusters that inertia confirms are kept and the next window opens
    above them; one cluster with nothing below it is kept whole; otherwise
    the block is widened to the count inertia finds.  Cuts lie 1e-6
    relative above a cluster, never inside one: inside a cluster that only
    rounding parts (about 1e-14 relative) the float count is not exact.
    """
    n = K.shape[0]
    lu, sigma = _shift(K, M, floor, np.inf, 0)
    if count == 1:
        lam, x, solves = _lanczos(M, lu, sigma, v0, tol, maxiter)
        return lam, x.T, sigma, solves
    sigma0, width, solves = sigma, BLOCK, 0
    vals, vecs = np.empty(0), np.empty((0, n))
    for _ in range(2 * count + 5):
        if lu is None:      # the same window, solved again with a wider block
            lu = _factor(K, M, sigma)[0]
        need = count - len(vals)
        start = np.vstack([v0, _start_vector(seed, width * n)[n:].reshape(-1, n)])
        got, gvecs, spent = _lanczos(M, lu, sigma, start.T, tol, maxiter, need)
        lu, solves = None, solves + spent       # one factor alive at a time
        # well above the Lanczos error, which grows with the distance to sigma
        pad = 1e-6 * (1.0 + np.abs(got) + (got - sigma))
        below, top = _factor(K, M, got[need - 1] + pad[need - 1])[1:]
        inside = int(np.count_nonzero(got <= top))
        if below < len(vals) + inside:
            raise NoConvergence("inertia counts fewer eigenvalues than Lanczos returned")
        if below == len(vals) + inside:
            m = inside
        else:
            # bisect the cuts just above each returned cluster for the last
            # one whose count confirms every value below it; the first cut
            # that fails bounds the next eigenvalue from above
            ends = [j for j in range(need - 1) if got[j] + pad[j] < got[j + 1]]
            first, last, m, bound = 0, len(ends), 0, (top, below)
            while first < last:
                mid = (first + last) // 2
                j = ends[mid]
                below_j, cut_j = _factor(K, M, got[j] + pad[j])[1:]
                if below_j == len(vals) + j + 1:
                    m, cut, first = j + 1, cut_j, mid + 1
                else:
                    bound, last = (cut_j, below_j), mid
            # one cluster wider than the block: certified by the count below it
            if m == 0 and not ends and _factor(K, M, got[0] - pad[0])[1] == len(vals):
                m = need
            elif m == 0:
                width = max(width + 1, bound[1] - len(vals))
                continue
        vals, vecs = np.concatenate([vals, got[:m]]), np.vstack([vecs, gvecs[:m]])
        if len(vals) >= count:
            return vals[:count], vecs[:count].T, sigma0, solves
        lu, sigma = _shift(K, M, cut, bound[0], len(vals))
        width = BLOCK
    raise NoConvergence(f"spectrum slicing did not certify {count} eigenvalues")


def _norm1(A):
    """||A||_1, the largest column sum of |A|, for a CSR matrix: bitwise
    spla.norm(A, 1), which sums each column in the same row-major order,
    without building |A| as a sparse matrix."""
    return np.bincount(A.indices, np.abs(A.data), A.shape[1]).max()


def check_count(count, dof):
    """Refuse a count of eigenpairs that a dof-unknown pencil cannot give."""
    if not 1 <= count <= dof:
        raise InvalidParameter(f"count = {count} must lie in [1, {dof}], the pencil's dof")


def _start_vector(seed, n):
    """np.random.RandomState(seed).standard_normal(n), bitwise."""
    with _START_LOCK:
        _START.seed(seed)
        return _START.standard_normal(n)


# an overflow leaves an inf or NaN, which the convergence tests refuse
@np.errstate(over="ignore", invalid="ignore")
def smallest_eigenpairs(pencil, count=1, tol=None, seed=0, maxiter=None, v0=None,
                        floor=-0.01):
    """The `count` algebraically smallest eigenpairs of K x = lambda M x,
    ascending, for every count from 1 to dof.

    Deterministic for a fixed seed, which fixes the Lanczos start.  A given
    `v0` leads the start vector, with a seeded random part of 1e-3 of its
    norm: a prolonged eigenvector is zero on every mesh component it did
    not reach, where Lanczos would then never look.  `floor` is the first
    shift tried, best a value known to lie just below the bottom, or several
    shifts, tried highest first (see `_shift`).  Vectors
    come back M-orthonormal.  A pair converges when its backward error
    ||K x - lam M x|| / ((||K||_1 + |lam| ||M||_1) ||x||) is within tol, in
    (0, 1); one that fails it raises NoConvergence, whose `partial` holds
    the pairs that pass.  The residual ||K x - lam M x|| / ||M x|| is
    reported, not tested: it is absolute in lam, so on a spectrum far below
    the scale of ||M|| it passes values that are rounding noise of the
    shift.  `maxiter` bounds the LU solves of each Lanczos run (see
    `_lanczos`).

    The shifts and tests hold absolute constants (the floor's default, the
    bisection's scale 1 + |hi|, ARPACK's eps^(2/3)), which do not fit a
    spectrum near float64's overflow: with a = 1e300 the projected matrix
    underflows.  So when ||K||_1 exceeds ||M||_1 by more than SCALE_ABOVE
    binades (frexp exponents), K and the floor are scaled by the power of
    two that brings the gap to SCALE_TO, and the values, residuals and
    shift back by its inverse; both steps are exact while no entry leaves
    float64's normal range.  The bottoms of the pencils the tests and the
    benchmark solve lie 0 to 47 binades below ||K||_1 / ||M||_1 (47 on
    graded strips, where the gap reaches 58), so at SCALE_TO a bottom lies
    where the constants fit.
    """
    n = pencil.dof
    check_count(count, n)
    K, M = pencil.K, pencil.M
    if np.any(M.diagonal() <= 0):
        raise FactorizationFailure("denominator matrix has a nonpositive diagonal")
    if tol is None:
        tol = 1e-10 if pencil.meta.get("dim", 1) == 1 else 1e-8
    if not 0 < tol < 1:
        raise InvalidParameter(f"tol must lie in (0, 1), got {tol}")
    normK, normM = _norm1(K), _norm1(M)
    gap = int(np.frexp(normK)[1] - np.frexp(normM)[1])     # binades
    scale = gap - SCALE_TO if gap > SCALE_ABOVE else 0
    if scale:
        K = K.copy()
        K.data, normK = np.ldexp(K.data, -scale), np.ldexp(normK, -scale)
        floor = np.ldexp(np.asarray(floor, dtype=float), -scale)
    start = _start_vector(seed, n)
    if v0 is not None:
        start = v0 / np.linalg.norm(v0) + 1e-3 * start / np.linalg.norm(start)
    try:
        vals, vecs, sigma, solver_calls = _slice(K, M, count, start, tol, maxiter,
                                                 floor, seed)
    except NoConvergence as exc:
        if exc.partial is not None:
            exc.partial.eigenvalues = np.ldexp(exc.partial.eigenvalues, scale)
        raise

    # normalize in the M inner product; one product each with M and K
    # serves every pair
    Mx = M @ vecs
    norms = np.sqrt(abs(np.einsum("ij,ij->j", vecs, Mx)))
    vecs /= norms
    Mx /= norms
    r = np.linalg.norm(K @ vecs - vals * Mx, axis=0)
    residuals = r / np.maximum(np.linalg.norm(Mx, axis=0), 1e-300)
    backward = r / np.maximum((normK + np.abs(vals) * normM)
                              * np.linalg.norm(vecs, axis=0), 1e-300)
    vals, residuals, sigma = (np.ldexp(x, scale) for x in (vals, residuals, sigma))
    ok = backward <= tol
    if not ok.all():
        partial = SimpleNamespace(eigenvalues=vals[ok], eigenvectors=vecs[:, ok])
        raise NoConvergence(f"{np.count_nonzero(~ok)} of {count} eigenpairs fail "
                            "the backward-error test", partial)
    return SpectralReport(vals, residuals, backward, vecs, n, tol, float(sigma), seed,
                          solver_calls, mesh_info=dict(pencil.meta))


def counting_function(pencil, lam):
    """N(lam): the number of pencil eigenvalues strictly below lam, from the
    inertia of one diagonal-pivot factorization of K - lam M."""
    return _factor(pencil.K, pencil.M, lam)[1]


def ladder(mesh, levels, steps, make_pencil, tol=None, seed=0, floor=-0.01):
    """(dof, smallest eigenvalue) of `make_pencil` on each of the `levels`
    meshes of `meshing.nested(mesh, levels, steps)`.

    Every level's first shift is `floor` (see `smallest_eigenpairs`), not
    the coarse minimum: refinement lowers the bottom, and several fine
    eigenvalues may lie below the coarse one.  The seed starts Lanczos on
    the first level only; each later level starts from the eigenvector of
    the one before, prolonged by P1 interpolation through the parents of
    each refinement step: on nested meshes the coarse minimizer itself,
    whose Rayleigh quotient is the coarse minimum up to quadrature and
    boundary snapping.  Between levels only that eigenvector is kept.
    """
    rows, u = [], None
    for fine, parents in nested(mesh, levels, steps):
        pencil = make_pencil(fine)
        v0 = None
        if u is not None:
            for p in parents:
                u = 0.5 * (u[p[:, 0]] + u[p[:, 1]])
            v0 = u[pencil.free_nodes]
        rep = smallest_eigenpairs(pencil, 1, tol=tol, seed=seed, v0=v0, floor=floor)
        rows.append((pencil.dof, float(rep.eigenvalues[0])))
        u = np.zeros(fine.n_nodes)     # zero at the clamped nodes
        u[pencil.free_nodes] = rep.eigenvectors[:, 0]
        del pencil, rep
    return rows
