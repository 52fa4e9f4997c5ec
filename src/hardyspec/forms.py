"""Assembly of quadratic-form pencils over P1 elements, plus the smooth
partition of unity used for localization checks.

The numerator form is  integral of a |grad u|^2 + q |u|^2  (plus point or
edge boundary terms weighted by sigma); the denominator is a weighted mass
form.  Quadrature points are strictly interior to every element, so weights
that blow up like a power of the boundary distance are only ever evaluated
at d > 0.
"""

import ctypes
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .coefficients import Coefficient, as_coefficient, environment
from .errors import (AssemblyError, DegenerateBand, InvalidParameter,
                     MeshGenerationFailure, NonpositiveDiffusion, NonpositiveWeight,
                     SingularQuadrature)
from .meshing import triangle_areas


@dataclass
class FormSpec:
    """Coefficients of the energy form."""

    a: Coefficient
    q: Coefficient
    sigma: object = None       # None, float, or (sigma_left, sigma_right) in 1D
    beta: float = None         # recorded exponent when a = d^beta

    def __post_init__(self):
        self.a = as_coefficient(self.a)
        self.q = as_coefficient(self.q)
        if self.beta is not None and self.beta >= 1:
            raise InvalidParameter("the power form requires beta < 1")
        values = self.sigma if isinstance(self.sigma, (tuple, list)) else [self.sigma, 0.0]
        if self.sigma is not None and not (len(values) == 2 and all(
                isinstance(s, numbers.Real) and np.isfinite(s) for s in values)):
            raise InvalidParameter("sigma must be one finite real number or a pair "
                                   f"of them, got {self.sigma!r}")


@dataclass
class Pencil:
    """Sparse symmetric pair (K, M) on the free (non-clamped) nodes, CSR
    matrices on one pattern, so K - sigma M is arithmetic on their data.
    K and M may share the pattern's arrays, which are read-only, so an
    in-place pattern change raises rather than corrupting the other."""

    K: sp.csr_matrix
    M: sp.csr_matrix
    free_nodes: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        K, M = self.K, self.M
        if not (getattr(K, "format", "") == getattr(M, "format", "") == "csr"
                and K.shape == M.shape and np.array_equal(K.indptr, M.indptr)
                and np.array_equal(K.indices, M.indices)):
            raise InvalidParameter("K and M must be CSR matrices on one pattern")
        for pattern in (K.indptr, K.indices, M.indptr, M.indices):
            pattern.flags.writeable = False

    @property
    def dof(self):
        return self.K.shape[0]

    def rayleigh(self, v):
        v = np.asarray(v, dtype=float)
        return float(v @ (self.K @ v)) / float(v @ (self.M @ v))


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

# Gauss panels per 1D element: pencils and the localization identity check
QUAD_POINTS, QUAD_SUBDIV, IMS_QUAD_POINTS = 6, 4, 4


@lru_cache
def gauss_panels(npts, nsub):
    """Composite Gauss-Legendre rule on [0, 1]: nsub equal panels of npts.

    Composite panels keep the rule accurate on strongly graded meshes where
    a single element spans a wide multiplicative range of d.  Computed once
    per (npts, nsub); the arrays are read-only, since every caller shares
    them.
    """
    x, w = np.polynomial.legendre.leggauss(npts)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    pts = np.concatenate([(k + x) / nsub for k in range(nsub)])
    wts = np.tile(w / nsub, nsub)
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


# 7-point degree-5 rule on the reference triangle, all points interior
_TRI_A = 0.470142064105115
_TRI_B = 0.101286507323456
TRI_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_TRI_A, _TRI_A, 1 - 2 * _TRI_A],
    [_TRI_A, 1 - 2 * _TRI_A, _TRI_A],
    [1 - 2 * _TRI_A, _TRI_A, _TRI_A],
    [_TRI_B, _TRI_B, 1 - 2 * _TRI_B],
    [_TRI_B, 1 - 2 * _TRI_B, _TRI_B],
    [1 - 2 * _TRI_B, _TRI_B, _TRI_B],
])
TRI_W = np.array([0.225,
                  0.132394152788506, 0.132394152788506, 0.132394152788506,
                  0.125939180544827, 0.125939180544827, 0.125939180544827])


def _eval_on(coef, env, shape):
    vals = coef.evaluate(env)
    return np.broadcast_to(vals, shape)


def _c_malloc_trim():
    """The C library's malloc_trim (glibc), or None where it has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _c_malloc_trim()
# Triplet storage (pairs x elements x 24 bytes: two int32 keys and K + iM)
# above which an assembly hands its freed memory back (see assemble_pencil).
# The power of two below the smallest assembly whose trim was measured to
# hold a process peak down: 1.2 MiB of triplets, whose untrimmed heap kept
# the peak of the ladder that followed 4 MB higher.
TRIM_ABOVE = 1024 * 1024
# Elements per assembly block.  The quadrature points, distances,
# coefficient values and pair integrals exist for one block at a time, so
# an assembly's working set is its triplet storage plus a few MB at any
# mesh size.  8192 was the fastest measured: torus sections of 3,528 to
# 54,351 triangles and an 84,638-triangle disc assembled in 107 ms, against
# 118-122 ms at 2048, 4096 and 16384 and 158 ms in one block.
BLOCK = 8192


def assemble_pencil(mesh, form, denominator):
    """Assemble the (K, M) pencil of the form against a weighted mass.

    K carries the diffusion, potential and boundary sigma terms; M carries
    the denominator weight.  Rows/columns of the mesh's clamped nodes are
    eliminated.  The mesh domain's measure_weight, when it has one,
    multiplies every volume integrand (the cylindrical radius on a torus
    cross-section).
    """
    denominator = as_coefficient(denominator)
    mw = mesh.domain.measure_weight
    mw = as_coefficient(mw) if mw is not None else None

    free = np.flatnonzero(~mesh.clamped)
    K, M = _assemble(mesh, form, denominator, mw, free)
    if not (np.isfinite(K.data).all() and np.isfinite(M.data).all()):
        raise AssemblyError("the pencil has entries that overflow float64")
    nloc = mesh.dim + 1
    triplet_bytes = nloc * (nloc + 1) // 2 * len(mesh.elements) * 24
    if _MALLOC_TRIM is not None and triplet_bytes > TRIM_ABOVE:
        # Hand the freed triplets and sparse build back to the OS before
        # the solver factors.  Once glibc has freed a large block it serves
        # blocks of that size from its heap, whose freed pages stay
        # resident, so without the trim a large assembly stayed resident
        # under the factor and raised the process peak.  Below TRIM_ABOVE
        # the freed blocks are reused by the next assembly, and a trim only
        # hands back pages that the next solve faults straight back in.
        _MALLOC_TRIM(0)
    if len(free) == 0:
        raise AssemblyError("no free degrees of freedom after clamping")
    meta = {
        "dim": mesh.dim,
        "n_nodes": mesh.n_nodes,
        "dof": len(free),
        # the rule used: Gauss panels in 1D, the fixed 7-point rule on triangles
        **({"quad_points": QUAD_POINTS, "quad_subdiv": QUAD_SUBDIV}
           if mesh.dim == 1 else {"quad_points": len(TRI_W)}),
        "a": form.a.text,
        "q": form.q.text,
        "denominator": denominator.text,
        "measure_weight": mw.text if mw is not None else None,
    }
    return Pencil(K, M, free, meta)


def _element_rule(mesh, elements, quad_points, quad_subdiv):
    """Quadrature and P1 data of the mesh's elements `elements` (rows of
    its connectivity): points, weights, basis values at the points,
    constant basis gradients (m, nloc, dim) and the quadrature axis the
    integrals sum over.  Every value is the element's own, so a block of
    elements gets the bits the whole mesh would.

    1D: quad_subdiv Gauss panels of quad_points, element-major: points
    (m, nq, 1), weights (m, nq), basis (m, nq, 2) as rounded (graded
    elements span a few ulps of x), axis 1.  Triangles: the 7-point rule,
    quadrature-major: points (7, m, 2), weights (7, m), reference basis
    (7, 1, 3), axis 0.  numpy sums the 7 rows in order, bitwise as each
    row of an (m, 7) array; 8 or more contiguous terms it sums pairwise.
    """
    if mesh.dim == 1:
        t, w = gauss_panels(quad_points, quad_subdiv)
        x0 = mesh.points[elements[:, 0]]
        h = (mesh.points[elements[:, 1], 0] - mesh.points[elements[:, 0], 0])[:, None]
        pts = x0 + t[None, :] * h
        phi_r = (pts - x0) / h
        basis = np.stack([1.0 - phi_r, phi_r], axis=2)
        grads = np.stack([-1.0 / h, 1.0 / h], axis=1)          # (m, 2, 1)
        return pts[:, :, None], w[None, :] * h, basis, grads, 1
    bary, w = TRI_BARY[:, :, None, None], TRI_W
    v = mesh.points[elements.T]                                 # (3, m, 2)
    area = triangle_areas(v)
    if np.any(area <= 0):
        raise MeshGenerationFailure("mesh has an inverted triangle")
    # the explicit three-term sum is bitwise the einsum over k, and faster
    pts = bary[:, 0] * v[0] + bary[:, 1] * v[1] + bary[:, 2] * v[2]  # (7, m, 2)
    # grad lambda_i = (b_i, c_i) / (2 area)
    x, y = v[:, :, 0], v[:, :, 1]
    b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]], axis=1)
    c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]], axis=1)
    grads = np.stack([b, c], axis=2) / (2 * area[:, None, None])
    return pts, w[:, None] * area, TRI_BARY[:, None], grads, 0


@np.errstate(over="ignore", invalid="ignore")    # assemble_pencil refuses an inf
def _assemble(mesh, form, denominator, mw, free):
    """K and M on the nodes `free`, exactly symmetric, on one CSR pattern.

    The triplets are summed by one scipy COO -> CSR of the complex values
    K + iM.  Its per-row sort compares column indices only, so it orders
    the triplets as it would K's or M's values alone, and a complex sum
    adds the real and the imaginary parts each on its own: both parts are
    bitwise the separate real sums.  M is positive on every element pair,
    so the sum keeps every pair, and K keeps its exact zeros on M's
    pattern.  The Robin terms of the upper triangle, summed on their own
    (a node lies on at most two facets, and two terms sum alike in either
    order), are added to K's part in one addition per entry, as a sparse
    sum K + R would add them.
    """
    n = mesh.n_nodes
    upper = _upper_triplets(mesh, form, denominator, mw).tocsr()
    if form.sigma is not None and mesh.robin.any():
        rows, cols, vals = _robin(mesh, form.sigma)
        up = rows <= cols
        upper = upper + sp.csr_matrix((vals[up], (rows[up], cols[up])), shape=(n, n))
    gather, indptr, indices, shape = _mirror_free(upper.indptr, upper.indices, n, free)
    return tuple(sp.csr_matrix((part[gather], indices, indptr), shape=shape)
                 for part in (upper.data.real, upper.data.imag))


def _upper_triplets(mesh, form, denominator, mw):
    """Every element's upper-triangle pairs (i, j), rows <= cols, as an
    n x n COO matrix of the values K + iM, pair by pair and element by
    element within a pair.  The keys are int32 while the nodes fit, so that
    scipy's COO -> CSR neither scans nor converts them.

    The weights are computed for BLOCK elements at a time, and each pair's
    values written into its slice of triplets allocated once; every value
    is its element's own, so the triplets are bitwise those of one
    whole-mesh pass.  A block is checked before the next is computed, so of
    two faults in two blocks the one in the earlier block is reported.
    """
    n, elements = mesh.n_nodes, mesh.elements
    m, nloc = elements.shape
    pairs = [(i, j) for i in range(nloc) for j in range(i, nloc)]
    vals = np.empty((len(pairs), 0), dtype=complex)
    for start in range(0, m, BLOCK):
        block = slice(start, start + BLOCK)
        wa, wq, wden, basis, grads, axis = _weights(mesh, elements[block], form,
                                                    denominator, mw)
        if start == 0:      # once the first block's points and coefficients are freed
            vals = np.empty((len(pairs), m), dtype=complex)
        # gradient dot products sum over rows, faster
        g = np.ascontiguousarray(grads.transpose(2, 1, 0))      # (dim, nloc, m)
        for p, (i, j) in enumerate(pairs):
            if i == j:                  # the first pair of row i
                wq_i, wden_i = wq * basis[..., i], wden * basis[..., i]
            gij = (g[:, i] * g[:, j]).sum(axis=0)
            vals.real[p, block] = wa * gij + (wq_i * basis[..., j]).sum(axis=axis)
            vals.imag[p, block] = (wden_i * basis[..., j]).sum(axis=axis)
    conn = elements.astype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    rows, cols = np.empty((2, len(pairs), m), dtype=conn.dtype)
    for p, (i, j) in enumerate(pairs):
        np.minimum(conn[:, i], conn[:, j], out=rows[p])
        np.maximum(conn[:, i], conn[:, j], out=cols[p])
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def _weights(mesh, elements, form, denominator, mw):
    """The weighted quadrature of the elements `elements` under the pencil
    rule: the diffusion weight summed over each element, the potential and
    denominator weights at the points, and the basis values, gradients and
    axis of `_element_rule`.  The points, distances and coefficient values
    are freed on return, before the pair integrals: a 1D element holds 24
    points.  Refuses d <= 0 and a nonpositive diffusion or weight."""
    pts, wts, basis, grads, axis = _element_rule(mesh, elements, QUAD_POINTS, QUAD_SUBDIV)
    shape = wts.shape
    d = mesh.domain.distance_many(pts.reshape(-1, mesh.dim)).reshape(shape)
    if np.any(d <= 0):
        raise SingularQuadrature("a quadrature point touched the boundary (d <= 0)")
    env = environment(pts, d)
    a = _eval_on(form.a, env, shape)
    if np.any(a <= 0):
        raise NonpositiveDiffusion("diffusion coefficient is not positive "
                                   "at a quadrature point")
    q = _eval_on(form.q, env, shape)
    den = _eval_on(denominator, env, shape)
    if np.any(den <= 0):
        raise NonpositiveWeight("denominator weight is not positive "
                                "at a quadrature point")
    wa, wq, wden = wts * a, wts * q, wts * den
    if mw is not None:
        scale = _eval_on(mw, env, shape)
        if np.any(scale <= 0):
            raise NonpositiveWeight("measure weight is not positive at a quadrature point")
        wa, wq, wden = wa * scale, wq * scale, wden * scale
    return wa.sum(axis=axis), wq, wden, basis, grads, axis


def _mirror_free(indptr, indices, n, free):
    """Pattern of the symmetric matrix on the nodes `free` whose upper
    triangle, diagonal included, is the canonical CSR pattern (indptr,
    indices) on n nodes: the source position in that pattern of each entry,
    and the matrix's indptr, sorted indices and shape.

    Row r holds column r of the strict upper triangle (its mirrored
    entries, copied, never added, left of the diagonal) followed by row r
    of the upper triangle.  The free nodes keep their order, so the upper
    part keeps its CSR order; the mirrored part is the upper's strict part
    in CSC order, from one counting sort (CSR -> CSC) that carries the
    source positions.
    """
    nf = len(free)
    idx = np.int32 if max(2 * len(indices), n) <= np.iinfo(np.int32).max else np.int64
    new = np.full(n, -1, dtype=idx)                 # -1 for a clamped node
    new[free] = np.arange(nf)
    r, c = np.repeat(new, np.diff(indptr)), new[indices]
    keep = (r | c) >= 0                             # both ends free
    src = np.flatnonzero(keep)
    r, c = r[keep], c[keep]
    n_upper = np.bincount(r, minlength=nf)          # upper entries per row
    strict = r < c
    ptr = np.zeros(nf + 1, dtype=idx)               # rows of the strict part
    np.cumsum(n_upper - np.bincount(r[~strict], minlength=nf), out=ptr[1:])
    mirror = sp.csr_matrix((src[strict], c[strict], ptr), shape=(nf, nf)).tocsc()
    n_mirror = np.diff(mirror.indptr)               # mirrored entries per row
    out_ptr = np.zeros(nf + 1, dtype=idx)
    np.cumsum(n_upper + n_mirror, out=out_ptr[1:])
    size = out_ptr[-1]
    at = np.arange(len(src)) + np.repeat(np.cumsum(n_mirror), n_upper)
    gather = np.empty(size, dtype=np.intp)
    out_idx = np.empty(size, dtype=idx)
    gather[at], out_idx[at] = src, c
    left = np.ones(size, dtype=bool)                # the mirrored slots
    left[at] = False
    gather[left], out_idx[left] = mirror.data, mirror.indices
    return gather, out_ptr, out_idx, (nf, nf)


def _robin(mesh, sigma):
    """Rows, columns and values of the Robin facet terms, facet by facet:
    the exact P1 facet mass sigma |f| / ((k+1)(k+2)) (1 + delta_ij) of a
    facet f with k + 1 nodes, that is sigma at an interval end and
    sigma (|e|/6) [[2, 1], [1, 2]] on an edge.  A (left, right) sigma on
    an interval gives each end the value of the nearer endpoint."""
    facets = mesh.facets[mesh.robin]
    nodes = facets.shape[1]                         # k + 1
    if nodes == 1:
        size = np.ones(len(facets))
    else:
        # row by row: a row-wise norm is not bitwise the scalar one
        p = mesh.points
        size = np.array([np.linalg.norm(p[j] - p[i]) for i, j in facets.tolist()])
    if np.ndim(sigma):
        if mesh.dim != 1:
            raise InvalidParameter("a (left, right) sigma needs an interval mesh")
        x, a, b = mesh.points[facets[:, 0], 0], mesh.domain.a, mesh.domain.b
        sigma = np.where(np.abs(x - a) <= np.abs(x - b), float(sigma[0]), float(sigma[1]))
    else:
        sigma = float(sigma)
    vals = (sigma * size / (nodes * (nodes + 1)))[:, None, None] * (1.0 + np.eye(nodes))
    return (np.repeat(facets, nodes, axis=1).ravel(), np.tile(facets, nodes).ravel(),
            vals.ravel())


_TEXT_BLOCK = 1 << 14          # entries per joined block of pencil text


def _word_table(words):
    """One row of ASCII bytes per word, zero-padded to the longest word."""
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    table = np.zeros((len(words), lengths.max(initial=0)), dtype=np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.frombuffer(
        "".join(words).encode("ascii"), dtype=np.uint8)
    return table


def format_matrix_text(mat):
    """Coordinate text format: a `rows cols nnz` header, then one
    `row col np.float64(value)` line per entry, sorted by row, col.

    Python formats each distinct word once, not each entry: the `"<i> "`
    of every row or column index that occurs, and the value text of every
    distinct value.  np.unique runs on the values' bit patterns, so -0.0
    and 0.0 keep their own text.  The words are zero-padded rows of a
    uint8 table; each block of entries gathers one table row per column,
    joins the columns side by side and drops the pads, which no text
    holds.  A COO input's duplicate entries keep one line each.  The
    value keeps numpy's scalar form np.float64(x) until the pencil digests
    in bench/references.json are re-recorded (ROADMAP item 22).
    """
    coo = sp.coo_matrix(mat)
    order = np.lexsort((coo.col, coo.row))
    bits, which = np.unique(coo.data[order].view(np.int64), return_inverse=True)
    indices, slots = np.unique(np.concatenate((coo.row[order], coo.col[order])),
                               return_inverse=True)
    values = _word_table([f"np.float64({x!r})\n" for x in bits.view(np.float64).tolist()])
    index = _word_table([f"{i} " for i in indices.tolist()])
    columns = ((index, slots[:coo.nnz]), (index, slots[coo.nnz:]), (values, which))
    # Gathered block by block, so that the padded lines exist for one
    # block at a time, not for the whole matrix.
    parts = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n".encode("ascii")]
    for start in range(0, coo.nnz, _TEXT_BLOCK):
        block = slice(start, start + _TEXT_BLOCK)
        lines = np.concatenate([table.take(pick[block], axis=0)
                                for table, pick in columns], axis=1)
        parts.append(lines[lines != 0].tobytes())
    return b"".join(parts).decode("ascii")


# ---------------------------------------------------------------------------
# IMS partition of unity
# ---------------------------------------------------------------------------

@dataclass
class IMSPartition:
    """Pair of profiles phi1, phi2 with phi1^2 + phi2^2 = 1 pointwise;
    phi1 = 1 in the boundary strip d <= delta_in, 0 beyond delta_out."""

    delta_in: float
    delta_out: float
    phi1: np.ndarray
    phi2: np.ndarray

    def theta(self, d):
        t = np.clip((np.asarray(d, dtype=float) - self.delta_in)
                    / (self.delta_out - self.delta_in), 0.0, 1.0)
        s = 3 * t**2 - 2 * t**3
        return (np.pi / 2) * s, t

    def values_at(self, d):
        th, _ = self.theta(d)
        return np.cos(th), np.sin(th)

    def gradients_at(self, d, grad_d):
        th, t = self.theta(d)
        ds = 6 * t * (1 - t)
        dtheta = (np.pi / 2) * ds / (self.delta_out - self.delta_in)
        g1 = (-np.sin(th) * dtheta)[..., None] * grad_d
        g2 = (np.cos(th) * dtheta)[..., None] * grad_d
        return g1, g2


def ims_partition(mesh, delta_in, delta_out):
    """Build the transition pair on the mesh nodes."""
    sup_d = mesh.domain.interior_diameter() / 2.0
    if not 0 < delta_in < delta_out < sup_d + mesh.domain.length_tol():
        raise InvalidParameter("need 0 < delta_in < delta_out < sup d")
    sizes = mesh.element_sizes()
    bary_d = np.maximum(mesh.domain.distance_many(mesh.barycenters()), 0.0)
    in_band = (bary_d >= delta_in) & (bary_d <= delta_out)
    local = sizes[in_band].max() if in_band.any() else sizes.min()
    if delta_out - delta_in < 4 * local:
        raise DegenerateBand(
            f"transition band {delta_out - delta_in:.3g} thinner than 4 local "
            f"element sizes ({local:.3g})")

    part = IMSPartition(delta_in, delta_out, None, None)
    part.phi1, part.phi2 = part.values_at(mesh.node_d)
    return part


def ims_identity_residual(mesh, partition, u, a):
    """Max pointwise defect of the localization identity

        a |grad(phi_j u)|^2 = phi_j^2 a |grad u|^2 + a |grad phi_j|^2 u^2
                              + a grad(phi_j^2) . (u grad u)

    summed over j = 1, 2, with gradients taken exactly elementwise, over
    BLOCK elements at a time.
    """
    a = as_coefficient(a)
    u = np.asarray(u, dtype=float)

    worst = 0.0
    for start in range(0, len(mesh.elements), BLOCK):
        conn = mesh.elements[start:start + BLOCK]
        pts, _, basis, grads, axis = _element_rule(mesh, conn, IMS_QUAD_POINTS, 1)
        flat = pts.reshape(-1, mesh.dim)
        d = np.maximum(mesh.domain.distance_many(flat), 0.0).reshape(pts.shape[:2])
        grad_d = mesh.domain.calculus_many(flat)[0].reshape(pts.shape)
        u_loc = u[conn]
        u_q = (basis * np.expand_dims(u_loc, axis)).sum(axis=2)
        grad_u = np.expand_dims(np.einsum("mk,mkj->mj", u_loc, grads), axis)  # per element
        a_q = _eval_on(a, environment(pts, d), d.shape)

        phi1, phi2 = partition.values_at(d)
        g1, g2 = partition.gradients_at(d, grad_d)
        for phi, g in ((phi1, g1), (phi2, g2)):
            full = phi[..., None] * grad_u + u_q[..., None] * g
            lhs = a_q * (full**2).sum(axis=-1)
            rhs = (a_q * phi**2 * (grad_u**2).sum(axis=-1)
                   + a_q * (g**2).sum(axis=-1) * u_q**2
                   + a_q * (2 * phi * u_q) * (g * grad_u).sum(axis=-1))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
