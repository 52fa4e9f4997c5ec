"""Assembly of quadratic-form pencils over P1 elements, plus the smooth
partition of unity used for localization checks.

The numerator form is  integral of a |grad u|^2 + q |u|^2  (plus point or
edge boundary terms weighted by sigma); the denominator is a weighted mass
form.  Quadrature points are strictly interior to every element, so weights
that blow up like a power of the boundary distance are only ever evaluated
at d > 0.
"""

import ctypes
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .coefficients import Coefficient, as_coefficient, environment
from .errors import (DegenerateBand, NonpositiveDiffusion, NonpositiveWeight,
                     SingularQuadrature)
from .meshing import ROBIN, triangle_areas


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
            raise ValueError("the power form requires beta < 1")


@dataclass
class Pencil:
    """Sparse symmetric pair (K, M) on the free (non-clamped) nodes."""

    K: sp.csr_matrix
    M: sp.csr_matrix
    free_nodes: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def dof(self):
        return self.K.shape[0]

    def rayleigh(self, v):
        v = np.asarray(v, dtype=float)
        return float(v @ (self.K @ v)) / float(v @ (self.M @ v))


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

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


def assemble_pencil(mesh, form, denominator, quad_points=6, quad_subdiv=4):
    """Assemble the (K, M) pencil of the form against a weighted mass.

    K carries the diffusion, potential and boundary sigma terms; M carries
    the denominator weight.  Rows/columns of clamped (dirichlet) nodes are
    eliminated.  The mesh domain's measure_weight, when it has one,
    multiplies every volume integrand (the cylindrical radius on a torus
    cross-section).
    """
    denominator = as_coefficient(denominator)
    mw = mesh.domain.measure_weight
    mw = as_coefficient(mw) if mw is not None else None

    is_free = np.ones(mesh.n_nodes, dtype=bool)
    is_free[mesh.dirichlet_nodes()] = False
    free = np.flatnonzero(is_free)
    K, M = _assemble(mesh, form, denominator, quad_points, quad_subdiv, mw, free)
    if _MALLOC_TRIM is not None:
        # Hand the freed quadrature arrays back to the OS before the solver
        # factors.  Once glibc has freed a large block it serves blocks of
        # that size from its heap, whose freed pages stay resident, so how
        # much of the assembly stayed resident under the factor depended on
        # the heap's layout, and the process peak varied from run to run.
        _MALLOC_TRIM(0)
    if len(free) == 0:
        raise ValueError("no free degrees of freedom after clamping")
    meta = {
        "dim": mesh.dim,
        "n_nodes": mesh.n_nodes,
        "dof": len(free),
        # the rule used: Gauss panels in 1D, the fixed 7-point rule on triangles
        **({"quad_points": quad_points, "quad_subdiv": quad_subdiv}
           if mesh.dim == 1 else {"quad_points": len(TRI_W)}),
        "a": form.a.text,
        "q": form.q.text,
        "denominator": denominator.text,
        "measure_weight": mw.text if mw is not None else None,
    }
    return Pencil(K, M, free, meta)


def _element_rule(mesh, quad_points, quad_subdiv):
    """Per-element quadrature and P1 data: connectivity (m, nloc), points,
    weights, basis values at the points, constant basis gradients
    (m, nloc, dim) and the quadrature axis the integrals sum over.

    1D: quad_subdiv Gauss panels of quad_points, element-major: points
    (m, nq, 1), weights (m, nq), basis (m, nq, 2) as rounded (graded
    elements span a few ulps of x), axis 1.  Triangles: the 7-point rule,
    quadrature-major: points (7, m, 2), weights (7, m), reference basis
    (7, 1, 3), axis 0.  numpy sums the 7 rows in order, bitwise as each
    row of an (m, 7) array; 8 or more contiguous terms it sums pairwise.
    """
    if mesh.dim == 1:
        t, w = gauss_panels(quad_points, quad_subdiv)
        x0 = mesh.nodes[mesh.elements[:, 0]][:, None]
        h = mesh.element_sizes()[:, None]
        pts = x0 + t[None, :] * h
        phi_r = (pts - x0) / h
        basis = np.stack([1.0 - phi_r, phi_r], axis=2)
        grads = np.stack([-1.0 / h, 1.0 / h], axis=1)          # (m, 2, 1)
        return mesh.elements, pts[:, :, None], w[None, :] * h, basis, grads, 1
    bary, w = TRI_BARY[:, :, None, None], TRI_W
    v = mesh.points[mesh.elements.T]                            # (3, m, 2)
    area = triangle_areas(v)
    if np.any(area <= 0):
        raise ValueError("mesh has an inverted triangle")
    # the explicit three-term sum is bitwise the einsum over k, and faster
    pts = bary[:, 0] * v[0] + bary[:, 1] * v[1] + bary[:, 2] * v[2]  # (7, m, 2)
    # grad lambda_i = (b_i, c_i) / (2 area)
    x, y = v[:, :, 0], v[:, :, 1]
    b = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]], axis=1)
    c = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]], axis=1)
    grads = np.stack([b, c], axis=2) / (2 * area[:, None, None])
    return mesh.elements, pts, w[:, None] * area, TRI_BARY[:, None], grads, 0


def _assemble(mesh, form, denominator, quad_points, quad_subdiv, mw, free):
    """K and M on the nodes `free`, exactly symmetric.

    Each matrix's triplets are summed by scipy's COO -> CSR, whose per-row
    sort sets the order of the additions and so the bits.  K and M share
    the keys, and the sum keeps zeros, so both sums have one pattern and
    the free-node pattern is worked out once.  M is summed only after K is
    built, for peak memory.  Robin terms are added when the form has some.
    """
    n = mesh.n_nodes
    rows, cols, k_vals, m_vals = _upper_triplets(mesh, form, denominator,
                                                 quad_points, quad_subdiv, mw)
    upper = sp.coo_matrix((k_vals, (rows, cols)), shape=(n, n)).tocsr()
    where = _mirror_free(upper.indptr, upper.indices, n, free)
    K = _gathered(upper.data, *where)
    del upper
    M = _gathered(sp.coo_matrix((m_vals, (rows, cols)), shape=(n, n)).tocsr().data,
                  *where)
    robin = (_robin_1d if mesh.dim == 1 else _robin_2d)(mesh, form)
    if robin:
        rows, cols, vals = map(np.asarray, robin)
        new = _renumbering(n, free)
        both = (new[rows] >= 0) & (new[cols] >= 0)     # clamped rows go
        K = K + sp.csr_matrix((vals[both], (new[rows[both]], new[cols[both]])),
                              shape=K.shape)
    return K, M


def _upper_triplets(mesh, form, denominator, quad_points, quad_subdiv, mw):
    """Rows, columns and K and M values of every element's upper-triangle
    pairs (i, j), rows <= cols.  The points, distances and coefficient
    values are dropped before the pair loop, the other quadrature arrays on
    return, before the sparse build."""
    conn, pts, wts, basis, grads, axis = _element_rule(mesh, quad_points, quad_subdiv)
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
    wa = wa.sum(axis=axis)                             # (m,)
    del pts, wts, d, env, a, q, den                    # for peak memory

    # One i's weighted basis products live at a time, for peak memory;
    # gradient dot products sum over rows, faster.
    g = np.ascontiguousarray(grads.transpose(2, 1, 0))      # (dim, nloc, m)
    rows, cols, k_vals, m_vals = [], [], [], []
    for i in range(conn.shape[1]):
        wq_i, wden_i = wq * basis[..., i], wden * basis[..., i]
        for j in range(i, conn.shape[1]):
            gij = (g[:, i] * g[:, j]).sum(axis=0)
            k_vals.append(wa * gij + (wq_i * basis[..., j]).sum(axis=axis))
            m_vals.append((wden_i * basis[..., j]).sum(axis=axis))
            rows.append(np.minimum(conn[:, i], conn[:, j]))
            cols.append(np.maximum(conn[:, i], conn[:, j]))
        del wq_i, wden_i
    return tuple(map(np.concatenate, (rows, cols, k_vals, m_vals)))


def _renumbering(n, free, dtype=np.intp):
    """Each node's number among the free nodes, -1 for a clamped node."""
    new = np.full(n, -1, dtype=dtype)
    new[free] = np.arange(len(free))
    return new


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
    new = _renumbering(n, free, idx)
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


def _gathered(data, gather, indptr, indices, shape):
    """The CSR matrix of data[gather] on the pattern (indptr, indices),
    exact zeros dropped."""
    vals = data[gather]
    nonzero = vals != 0
    if not nonzero.all():
        kept = np.zeros(len(vals) + 1, dtype=indptr.dtype)
        np.cumsum(nonzero, out=kept[1:])
        indptr, indices, vals = kept[indptr], indices[nonzero], vals[nonzero]
    return sp.csr_matrix((vals, indices, indptr), shape=shape)


def _robin_1d(mesh, form):
    """Rows, columns and values of the Robin point terms; empty when the
    form has none."""
    robin = [i for i, t in mesh.node_tags.items() if t == ROBIN]
    if not robin or form.sigma is None:
        return ()
    a, b = mesh.domain.a, mesh.domain.b
    entries = {}
    for i in robin:
        if isinstance(form.sigma, (int, float)):
            val = float(form.sigma)
        else:
            side = 0 if abs(mesh.nodes[i] - a) <= abs(mesh.nodes[i] - b) else 1
            val = float(form.sigma[side])
        entries[(i, i)] = val
    rows, cols = zip(*entries)
    return rows, cols, list(entries.values())


def _robin_2d(mesh, form):
    """Rows, columns and values of the Robin edge terms; empty when the
    form has none."""
    robin_edges = [(i, j) for i, j, tag in mesh.boundary_edges if tag == ROBIN]
    if not robin_edges or form.sigma is None:
        return ()
    rows, cols, vals = [], [], []
    for i, j in robin_edges:
        length = float(np.linalg.norm(mesh.points[j] - mesh.points[i]))
        sig = float(form.sigma)
        # exact P1 edge mass: (|e|/6) [[2, 1], [1, 2]]
        block = sig * length / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        glob = (i, j)
        for a_loc in range(2):
            for b_loc in range(2):
                rows.append(glob[a_loc])
                cols.append(glob[b_loc])
                vals.append(block[a_loc, b_loc])
    return rows, cols, vals


_TEXT_BLOCK = 1 << 14          # entries per joined block of pencil text


def format_matrix_text(mat):
    """Coordinate text format: a `rows cols nnz` header, then one
    `row col np.float64(value)` line per entry, sorted by row, col."""
    coo = sp.coo_matrix(mat)
    order = np.lexsort((coo.col, coo.row))
    rows, cols = coo.row[order], coo.col[order]
    # Each distinct value is printed once; np.unique runs on the bit
    # patterns, so -0.0 and 0.0 keep their own text.  The value keeps
    # numpy's scalar form np.float64(x) until the pencil digests in
    # bench/references.json are re-recorded (ROADMAP item 1).
    bits, which = np.unique(coo.data[order].view(np.int64), return_inverse=True)
    values = [f"np.float64({x!r})\n" for x in bits.view(np.float64).tolist()]
    # Joined block by block, so that the lists holding one Python object
    # per entry exist for one block at a time, not for the whole matrix.
    parts = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n"]
    for start in range(0, coo.nnz, _TEXT_BLOCK):
        block = slice(start, start + _TEXT_BLOCK)
        parts.append("".join([f"{i} {j} {values[k]}" for i, j, k in
                              zip(rows[block].tolist(), cols[block].tolist(),
                                  which[block].tolist())]))
    return "".join(parts)


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
    grad_phi1: np.ndarray
    grad_phi2: np.ndarray

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
    if not 0 < delta_in < delta_out < sup_d + 1e-12:
        raise ValueError("need 0 < delta_in < delta_out < sup d")
    sizes = mesh.element_sizes()
    bary_d = np.maximum(mesh.domain.distance_many(mesh.barycenters()), 0.0)
    in_band = (bary_d >= delta_in) & (bary_d <= delta_out)
    local = sizes[in_band].max() if in_band.any() else sizes.min()
    if delta_out - delta_in < 4 * local:
        raise DegenerateBand(
            f"transition band {delta_out - delta_in:.3g} thinner than 4 local "
            f"element sizes ({local:.3g})")

    d = mesh.node_d
    grad_d = mesh.domain.calculus_many(mesh.points)[0]
    part = IMSPartition(delta_in, delta_out, None, None, None, None)
    part.phi1, part.phi2 = part.values_at(d)
    part.grad_phi1, part.grad_phi2 = part.gradients_at(d, grad_d)
    return part


def ims_identity_residual(mesh, partition, u, a, quad_points=4):
    """Max pointwise defect of the localization identity

        a |grad(phi_j u)|^2 = phi_j^2 a |grad u|^2 + a |grad phi_j|^2 u^2
                              + a grad(phi_j^2) . (u grad u)

    summed over j = 1, 2, with gradients taken exactly elementwise.
    """
    a = as_coefficient(a)
    u = np.asarray(u, dtype=float)

    conn, pts, _, basis, grads, axis = _element_rule(mesh, quad_points, 1)
    flat = pts.reshape(-1, mesh.dim)
    d = np.maximum(mesh.domain.distance_many(flat), 0.0).reshape(pts.shape[:2])
    grad_d = mesh.domain.calculus_many(flat)[0].reshape(pts.shape)
    u_loc = u[conn]
    u_q = (basis * np.expand_dims(u_loc, axis)).sum(axis=2)
    grad_u = np.expand_dims(np.einsum("mk,mkj->mj", u_loc, grads), axis)  # per element
    a_q = _eval_on(a, environment(pts, d), d.shape)

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
