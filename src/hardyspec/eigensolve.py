"""Smallest eigenpairs of sparse symmetric pencils K x = lambda M x.

One certified path serves every count below dof.  K - sigma M is factored
with diagonal pivots only, so its negative pivots count the eigenvalues
below sigma (Sylvester's law of inertia); that count is also the exact
counting function N(lambda).  The first shift is a floor the caller names:
by default just below 0, where the bottom of a nonnegative form lies above
it; a Hardy ladder level starts at kappa - CERT_TOL and a Persson strip at
the minimum of the strip before.  While inertia finds eigenvalues below a
shift it is stepped down, and then bisected up to just below the spectrum,
so a wrong floor costs factorizations, never a wrong value.  Shift-invert
Lanczos runs on that same factor (Ericsson & Ruhe 1980): for one
eigenpair a short loop of its own here, with ARPACK's start vector and
convergence test but no restarts and none of ARPACK's reverse-communication
overhead; for more, ARPACK, and an inertia count above the returned values
shows that none was skipped, or the spectrum is sliced again above the
confirmed clusters (Grimes, Lewis & Simon 1994).
"""

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .errors import FactorizationFailure, NoConvergence
from .meshing import nested

EPS23 = (0.5 * np.finfo(float).eps) ** (2 / 3)    # ARPACK's eps23, from dlamch('E')
PANEL_SIZE = 1          # SuperLU's panel width, the fastest measured (see _factor)

# One generator for every start vector.  np.random.RandomState(seed) first
# seeds a throwaway generator from OS entropy, about 0.15 ms a solve;
# reseeding this one gives bitwise the same draws in microseconds.  It is
# reseeded before every draw, so no call sees another call's state, and the
# lock keeps each reseed together with its draw.
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
    solver: str                    # "shift-invert-lanczos"; "dense" if count == dof
    iterations: int                # LU solves made by Lanczos (0 if dense)
    converged: bool = True
    mesh_info: dict = field(default_factory=dict)


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
            lu = spla.splu((K - sigma * M).tocsr().T, permc_spec="MMD_AT_PLUS_A",
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


def _shift(K, M, lo, hi, found):
    """A factor at a shift with exactly `found` eigenvalues below it, within
    the scale of hi of the next eigenvalue (hi, possibly infinite, bounds it
    from above), and the shift.

    Starts at lo, stepped down to -(1 + |lo|)^2 while inertia finds more
    eigenvalues below it (eight tries reach -7e22 from -0.01), then
    bisects on inertia counts, geometrically while the bracket spans
    decades.  One factor is alive at a time.
    """
    for _ in range(8):
        lu, below, lo = _factor(K, M, lo)
        if below == found:
            break
        lu, hi = None, min(hi, lo)
        lo = -(1.0 + abs(lo)) ** 2
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


def _lanczos(M, lu, sigma, v0, tol, maxiter):
    """The eigenpair just above a certified shift, and the LU solves spent.

    Lanczos on OP = (K - sigma M)^-1 M in the M inner product, in which OP
    is symmetric; its largest eigenvalue theta = 1/(lambda - sigma) is the
    wanted one (Ericsson & Ruhe 1980).  `lu` factors K - sigma M.  The
    rules are ARPACK's, without its restarts:
    - one solve forces v0 into the range of OP, as `dgetv0` does;
    - each new vector is orthogonalized against the whole basis by
      classical Gram-Schmidt, repeated while a pass leaves less than 0.717
      of the norm (DGKS); after three such passes it lies in the span of
      the basis (beta = 0), which makes the Ritz pair exact;
    - the Ritz pair is tested once the basis holds 12 vectors (n if
      fewer), then after every step: beta |s_m| <= tol max(theta, eps^(2/3));
    - the Ritz vector gets ARPACK's shift-invert correction, the residual
      times s_m / theta, an inverse-iteration step for free.
    The basis is kept in blocks of 13 vectors, so growing it copies
    nothing.  Past `maxiter` solves the Ritz pair is raised in an
    ArpackNoConvergence, as eigsh raises its own.
    """
    n = M.shape[0]
    blocks = []         # the basis, one vector a row, 13 rows a block
    alpha, beta = [], []
    w = lu.solve(M @ v0)
    mw = M @ w
    norm = np.sqrt(abs(w @ mw))
    for m in range(n):
        if m % 13 == 0:
            blocks.append(np.empty((min(n - m, 13), n)))
        blocks[-1][m % 13] = w / norm
        basis = blocks[:-1] + [blocks[-1][:m % 13 + 1]]
        w = lu.solve(mw / norm)
        mw = M @ w
        before, a = np.sqrt(abs(w @ mw)), 0.0
        for _ in range(3):
            h = [b @ mw for b in basis]
            for b, c in zip(basis, h):
                w -= c @ b
            mw = M @ w
            a += h[-1][-1]
            norm = np.sqrt(abs(w @ mw))
            if norm > 0.717 * before:
                break
            before = norm
        else:
            w, norm = np.zeros(n), 0.0
        alpha.append(a)
        solves = m + 2
        if norm == 0.0 or m + 1 >= min(n, 12) or solves >= maxiter:
            theta, s = scipy.linalg.eigh_tridiagonal(alpha, beta, select="i",
                                                     select_range=(m, m))
            theta, s = theta[0], s[:, 0]
            x = (s[-1] / theta) * w
            for b, c in zip(basis, np.split(s, range(13, m + 1, 13))):
                x += c @ b
            lam = sigma + 1.0 / theta
            if norm == 0.0 or m + 1 == n or norm * abs(s[-1]) <= tol * max(theta, EPS23):
                return lam, x, solves
            if solves >= maxiter:
                raise spla.ArpackNoConvergence(f"Lanczos stalled after {solves} solves",
                                               np.array([lam]), x[:, None])
        beta.append(norm)


def _slice(K, M, count, v0, tol, maxiter, floor):
    """The count smallest eigenpairs, the shift below them and the number
    of LU solves Lanczos made.

    Each window is solved by shift-invert Lanczos on the factor at a
    certified shift, the first started at `floor`: a floor with nothing
    below it needs no step, and the closer it lies to the bottom, the fewer
    solves Lanczos needs.  One eigenpair is certified by the empty count
    below that shift and solved by `_lanczos` on its factor.  For more,
    ARPACK runs each window, and the inertia count just above the wanted
    values must equal the eigenvalues accepted plus those returned.  A
    larger count means Lanczos skipped some (a missed twin, values lost far
    from the shift): the clusters that inertia confirms are kept and the
    next window opens at a certified shift above them.  One cluster with
    nothing below it is kept whole; otherwise the window is solved again
    for as many eigenvalues as inertia finds in it.
    """
    n = K.shape[0]
    lu, sigma = _shift(K, M, floor, np.inf, 0)
    if count == 1:
        lam, x, solves = _lanczos(M, lu, sigma, v0, tol, maxiter)
        return np.array([lam]), x[:, None], sigma, solves
    sigma0 = sigma
    vals, vecs = np.empty(0), np.empty((n, 0))
    k = count
    solves = [0]
    for _ in range(2 * count + 5):
        if lu is None:      # the same window, solved again for more values
            lu = _factor(K, M, sigma)[0]

        def matvec(b, solve=lu.solve):
            solves[0] += 1
            return solve(b)

        op = spla.LinearOperator(K.shape, matvec=matvec, dtype=float)
        got, gvecs = spla.eigsh(K, k=min(k, n - 1), M=M, sigma=sigma, which="LA",
                                OPinv=op, v0=v0, tol=tol, maxiter=maxiter)
        order = np.argsort(got)
        got, gvecs = got[order], gvecs[:, order]
        lu = op = matvec = None     # one factor alive at a time
        need = count - len(vals)
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
            # one cluster wider than Lanczos returns: certified by the count below it
            if m == 0 and not ends and _factor(K, M, got[0] - pad[0])[1] == len(vals):
                m = need
            elif m == 0:
                k = max(need, bound[1] - len(vals))
                continue
        vals = np.concatenate([vals, got[:m]])
        vecs = np.hstack([vecs, gvecs[:, :m]])
        if len(vals) >= count:
            return vals[:count], vecs[:, :count], sigma0, solves[0]
        lu, sigma = _shift(K, M, cut, bound[0], len(vals))
        k = count - len(vals)
    raise NoConvergence(f"spectrum slicing did not certify {count} eigenvalues")


def _norm1(A):
    """||A||_1, the largest column sum of |A|, for a CSR matrix: bitwise
    spla.norm(A, 1), which sums each column in the same row-major order,
    without building |A| as a sparse matrix."""
    return np.bincount(A.indices, np.abs(A.data), A.shape[1]).max()


def _residual(K, M, lam, x):
    """K x - lam M x and its norm relative to ||M x||."""
    r = K @ x - lam * (M @ x)
    return r, np.linalg.norm(r) / max(np.linalg.norm(M @ x), 1e-300)


def _polish(K, M, lam, x):
    """One inverse-iteration step at a slightly detuned shift; keeps the
    update only when it reduces the residual."""
    lu = _factor(K, M, lam - 1e-8 * (1.0 + abs(lam)))[0]
    y = lu.solve(M @ x)
    ny = np.sqrt(abs(y @ (M @ y)))
    if not np.isfinite(ny) or ny == 0:
        return lam, x
    y = y / ny
    lam_y = float(y @ (K @ y)) / float(y @ (M @ y))
    if _residual(K, M, lam_y, y)[1] < _residual(K, M, lam, x)[1]:
        return lam_y, y
    return lam, x


def check_count(count, dof):
    """Refuse a count of eigenpairs that a dof-unknown pencil cannot give."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > dof:
        raise ValueError(f"requested {count} eigenpairs from a {dof}-dof pencil")


def _start_vector(seed, n):
    """np.random.RandomState(seed).standard_normal(n), bitwise."""
    with _START_LOCK:
        _START.seed(seed)
        return _START.standard_normal(n)


def smallest_eigenpairs(pencil, count=1, tol=None, seed=0, maxiter=400, v0=None,
                        floor=-0.01):
    """The `count` algebraically smallest eigenpairs of K x = lambda M x.

    Deterministic for a fixed seed (the seed fixes the Lanczos start
    vector).  A given `v0` leads the start vector, with a seeded random
    part of 1e-3 of its norm: a prolonged eigenvector is zero on every mesh
    component it did not reach, and Lanczos would never find an eigenvalue
    there.  `floor` is the first shift tried, best a value the caller
    knows to lie just below the bottom; when inertia finds eigenvalues
    below it, it is stepped down as from the default just below 0.
    Eigenvectors come back M-orthonormal.  A pair converges when its
    residual or its backward error is within tol; one that fails both gets
    one inverse-iteration polish.  `maxiter` bounds the LU solves of the
    one-eigenpair Lanczos loop, and ARPACK's restarts for more eigenpairs.
    """
    n = pencil.dof
    check_count(count, n)
    K, M = pencil.K, pencil.M
    if np.any(M.diagonal() <= 0):
        raise FactorizationFailure("denominator matrix has a nonpositive diagonal")
    if tol is None:
        tol = 1e-10 if pencil.meta.get("dim", 1) == 1 else 1e-8
    if count == n:
        # ARPACK needs count < dof: the whole spectrum is one full solve
        sigma = _shift(K, M, floor, np.inf, 0)[1]
        vals, vecs = scipy.linalg.eigh(K.toarray(), M.toarray())
        solver, solver_calls = "dense", 0
    else:
        solver = "shift-invert-lanczos"
        start = _start_vector(seed, n)
        if v0 is not None:
            start = v0 / np.linalg.norm(v0) + 1e-3 * start / np.linalg.norm(start)
        try:
            vals, vecs, sigma, solver_calls = _slice(K, M, count, start, tol, maxiter,
                                                     floor)
        except spla.ArpackNoConvergence as exc:
            raise NoConvergence(
                f"Lanczos stalled at maxiter={maxiter}", partial=exc) from exc

    # normalize in the M inner product
    for j in range(vecs.shape[1]):
        vecs[:, j] /= np.sqrt(abs(vecs[:, j] @ (M @ vecs[:, j])))

    residuals = np.empty(count)
    backward = np.empty(count)
    normK, normM = _norm1(K), _norm1(M)

    def errors(lam, x):
        r, res = _residual(K, M, lam, x)
        return res, np.linalg.norm(r) / max((normK + abs(lam) * normM)
                                            * np.linalg.norm(x), 1e-300)

    for j in range(count):
        residuals[j], backward[j] = errors(vals[j], vecs[:, j])
        if residuals[j] > tol and backward[j] > tol:
            vals[j], vecs[:, j] = _polish(K, M, vals[j], vecs[:, j])
            residuals[j], backward[j] = errors(vals[j], vecs[:, j])

    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    residuals, backward = residuals[order], backward[order]
    converged = bool(np.all((residuals <= tol) | (backward <= tol)))
    return SpectralReport(vals, residuals, backward, vecs, n, tol,
                          float(sigma), seed, solver, solver_calls,
                          converged, dict(pencil.meta))


def counting_function(pencil, lam):
    """N(lam): the number of pencil eigenvalues strictly below lam, from the
    inertia of one diagonal-pivot factorization of K - lam M."""
    return _factor(pencil.K, pencil.M, lam)[1]


def ladder(mesh, levels, steps, make_pencil, tol=None, seed=0, floor=-0.01):
    """(dof, smallest eigenvalue) of `make_pencil` on each of the `levels`
    meshes of `meshing.nested(mesh, levels, steps)`.

    Every level's first shift is `floor` (see `smallest_eigenpairs`).  The
    coarse minimum is no floor for the next level: refinement lowers the
    bottom, and several fine eigenvalues may lie below the coarse one.

    The seed starts Lanczos on the first level only; each later level starts
    from the eigenvector of the one before, prolonged by P1 interpolation
    through the parents of each refinement step.  On nested meshes that is
    the coarse minimizer itself, so its Rayleigh quotient is the coarse
    minimum up to quadrature and boundary snapping.  Levels are solved one
    at a time; between levels only that eigenvector, on all nodes, is kept.
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
