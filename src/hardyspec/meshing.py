"""Graded interval meshes, boundary-fitted triangulations, tubular strips.

Meshes carry their generating domain so that the exact boundary distance
(not any polygonal proxy) is available at nodes and quadrature points.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGrading, MeshGenerationFailure, StripTooThin
from .geometry import Annulus, ConvexPolygon, Disc, Interval

DIRICHLET = "dirichlet"
ROBIN = "robin"


@dataclass
class StripSpec:
    """Tubular band {x : delta_out < d(x) < delta_in}; touches the boundary
    when delta_out = 0.  The inner interface (d = delta_in) is clamped."""

    delta_out: float
    delta_in: float

    def __post_init__(self):
        if not 0 <= self.delta_out < self.delta_in:
            raise ValueError("need 0 <= delta_out < delta_in")


class _Mesh:
    """The interface both mesh types share: nodes as `points` (n, dim) with
    their boundary distances `node_d`, `elements` (m, dim + 1) of node
    indices, `node_tags` and the generating `domain`.  A mesh made by
    refinement also has `parents` (n, 2): for each node, the two nodes of
    the mesh it was refined from whose mean is its P1 value, (i, i) for a
    kept node i; other meshes have None."""

    def __post_init__(self):
        if self.node_d is None:
            self.node_d = np.maximum(self.domain.distance_many(self.points), 0.0)

    @property
    def n_nodes(self):
        return len(self.points)

    def barycenters(self):
        return self.points[self.elements].mean(axis=1)

    def dirichlet_nodes(self):
        return sorted(i for i, t in self.node_tags.items() if t == DIRICHLET)


@dataclass
class Mesh1D(_Mesh):
    nodes: np.ndarray                 # sorted coordinates
    elements: np.ndarray              # (m, 2) node index pairs
    node_tags: dict                   # node index -> DIRICHLET | ROBIN
    domain: Interval
    node_d: np.ndarray = field(default=None)
    parents: np.ndarray = field(default=None)

    dim = 1

    @property
    def points(self):
        return self.nodes[:, None]

    def element_sizes(self):
        return self.nodes[self.elements[:, 1]] - self.nodes[self.elements[:, 0]]

    def total_measure(self):
        return float(self.element_sizes().sum())


def triangle_areas(v):
    """Signed areas of triangles whose vertices are gathered vertex-major,
    v of shape (3, m, 2)."""
    v1, v2 = v[1] - v[0], v[2] - v[0]
    return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])


@dataclass
class TriMesh(_Mesh):
    points: np.ndarray                # (n, 2)
    elements: np.ndarray              # (m, 3), counterclockwise
    boundary_edges: list              # (i, j, tag) tuples
    node_tags: dict                   # node index -> tag (dirichlet clamps)
    domain: object
    node_d: np.ndarray = field(default=None)
    parents: np.ndarray = field(default=None)

    dim = 2

    def areas(self):
        return triangle_areas(self.points[self.elements.T])

    def element_sizes(self):
        """Leg of the right isosceles triangle of the same area."""
        return np.sqrt(2 * self.areas())

    def total_measure(self):
        return float(self.areas().sum())


# ---------------------------------------------------------------------------
# 1D meshes
# ---------------------------------------------------------------------------

def _first_side_size(half, m, grading):
    """The first and smallest of `_geometric_side_sizes`: the size of the
    element next to the endpoint."""
    if grading == 1.0:
        return half / m
    r = 1.0 / grading
    # h1 * (r^m - 1) / (r - 1) = half
    log_rm = m * np.log(r)
    if log_rm > 700:
        raise InvalidGrading(
            f"grading {grading} with {m} layers per side underflows float64")
    h1 = half * (r - 1.0) / (r**m - 1.0)
    if h1 < 1e-280:
        raise InvalidGrading(
            f"grading {grading} with {m} layers per side underflows float64")
    return h1


def _geometric_side_sizes(half, m, grading):
    """Element sizes covering [0, half], geometric with the given ratio,
    smallest first (adjacent to the endpoint)."""
    h1 = _first_side_size(half, m, grading)
    if grading == 1.0:
        return np.full(m, h1)
    return h1 * (1.0 / grading)**np.arange(m)


def grading_floor(interval, headroom=1.0):
    """Smallest element size distinguishable in float64 next to the interval
    endpoints, with room for `headroom` further bisections."""
    scale = max(1.0, abs(interval.a), abs(interval.b))
    return 4096.0 * np.finfo(float).eps * scale * 2.0 ** headroom


def feasible_grading(requested, layers, span, floor, one_sided=False):
    """Steepest grading >= requested whose smallest element stays above the
    float64 floor; geometric meshes cannot grade below machine spacing."""
    if requested is None:
        requested = 1.0
    if requested >= 1.0 or layers <= 1:
        return requested

    def smallest(g):
        # a one-sided mesh's nodes are span * g^j, so its sizes grow by 1/g
        # from the second on and the smallest is one of the first two (the
        # first only for g <= 1/2); a two-sided side's smallest is its first
        if one_sided:
            t0, t1 = span * g ** (layers - 1), span * g ** (layers - 2)
            return min(t0, t1 - t0)
        try:
            return _first_side_size(span, layers, g)
        except InvalidGrading:
            return 0.0

    if smallest(requested) >= floor:
        return requested
    lo, hi = requested, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if smallest(mid) >= floor:
            hi = mid
        else:
            lo = mid
    return hi


def build_mesh_1d(interval, n, grading=1.0, tags=(DIRICHLET, DIRICHLET)):
    """Symmetric mesh with n elements on the interval.

    grading < 1 shrinks element sizes geometrically by that factor toward
    each endpoint, n/2 layers per side; grading = 1 is uniform.
    """
    if not isinstance(interval, Interval):
        raise TypeError("build_mesh_1d needs an Interval domain")
    if n < 2:
        raise ValueError("need at least 2 elements")
    if not 0 < grading <= 1:
        raise InvalidGrading(f"grading must lie in (0, 1], got {grading}")
    a, b = interval.a, interval.b
    if grading == 1.0:
        nodes = np.linspace(a, b, n + 1)
    else:
        if n % 2:
            raise InvalidGrading("graded meshes need an even element count")
        sizes = _geometric_side_sizes((b - a) / 2.0, n // 2, grading)
        left = a + np.concatenate([[0.0], np.cumsum(sizes)])
        left[-1] = 0.5 * (a + b)
        right = (a + b) - left[-2::-1]
        nodes = np.concatenate([left, right])
        nodes[-1] = b
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    if np.any(np.diff(nodes) <= 0):
        raise InvalidGrading("grading produced a degenerate element")
    return Mesh1D(nodes, elements, {0: tags[0], n: tags[1]}, interval)


def _one_sided_graded(delta, layers, grading):
    """Nodes on [0, delta] clustered geometrically at 0 (ratio 1/grading)."""
    if grading == 1.0:
        return np.linspace(0.0, delta, layers + 1)
    t = delta * grading ** np.arange(layers - 1, -1, -1)
    if t[0] < 1e-280:
        raise InvalidGrading("one-sided grading underflows float64")
    return np.concatenate([[0.0], t])


def mesh_1d_with_level(interval, level, n_strip, grading=1.0):
    """Mesh of the full interval with nodes exactly at distance `level`
    from each endpoint; the two boundary strips are graded toward the
    endpoints.  Used to realize exhaustion strips conformingly."""
    a, b = interval.a, interval.b
    half = (b - a) / 2.0
    if not 0 < level <= half:
        raise ValueError("level must lie in (0, (b-a)/2]")
    left = a + _one_sided_graded(level, n_strip, grading)
    right = (b - _one_sided_graded(level, n_strip, grading))[::-1]
    if level == half:
        nodes = np.concatenate([left, right[1:]])
    else:
        inner = b - a - 2 * level
        n_mid = max(2, int(np.ceil(inner / max(level / n_strip * 4, 1e-12))))
        n_mid = min(n_mid, 4 * n_strip)
        mid = np.linspace(a + level, b - level, n_mid + 1)[1:-1]
        nodes = np.concatenate([left, mid, right])
    n = len(nodes) - 1
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    if np.any(np.diff(nodes) <= 0):
        raise MeshGenerationFailure("level mesh produced a degenerate element")
    return Mesh1D(nodes, elements, {0: DIRICHLET, n: DIRICHLET}, interval)


def refine_mesh_1d(mesh):
    """Split every element at its midpoint (nested refinement)."""
    old = mesh.nodes
    left, right = old[mesh.elements[:, 0]], old[mesh.elements[:, 1]]
    mids = 0.5 * (left + right)
    nodes = np.unique(np.concatenate([old, mids]))
    a, m, b = (np.searchsorted(nodes, x) for x in (left, mids, right))
    elements = np.column_stack([a, m, m, b]).reshape(-1, 2)
    index = np.searchsorted(nodes, old)
    tags = {int(index[i]): t for i, t in mesh.node_tags.items()}
    parents = np.empty((len(nodes), 2), dtype=int)
    parents[index] = np.arange(len(old))[:, None]
    parents[m] = mesh.elements
    return Mesh1D(nodes, elements, tags, mesh.domain, parents=parents)


# ---------------------------------------------------------------------------
# 2D meshes
# ---------------------------------------------------------------------------

def _is_axis_rectangle(domain):
    if not isinstance(domain, ConvexPolygon) or len(domain.vertices) != 4:
        return False
    e = np.roll(domain.vertices, -1, axis=0) - domain.vertices
    return all(abs(vx) < 1e-14 or abs(vy) < 1e-14 for vx, vy in e)


def _structured_rectangle(domain, h):
    v = domain.vertices
    xs, ys = np.unique(v[:, 0]), np.unique(v[:, 1])
    x0, x1 = xs[0], xs[-1]
    y0, y1 = ys[0], ys[-1]
    nx = max(1, int(np.ceil((x1 - x0) / h - 1e-9)))
    ny = max(1, int(np.ceil((y1 - y0) / h - 1e-9)))
    gx = np.linspace(x0, x1, nx + 1)
    gy = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    points = np.column_stack([xx.ravel(), yy.ravel()])
    idx = lambda i, j: i * (ny + 1) + j
    # two triangles per cell (i, j), j running fastest
    i, j = np.arange(nx)[:, None], np.arange(ny)
    tris = np.stack([idx(i, j), idx(i + 1, j), idx(i + 1, j + 1),
                     idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)], axis=-1)
    # bottom and top edges in turn along x, then right and left along y
    i = i[:, 0]
    ends = np.concatenate([
        np.stack([idx(i, 0), idx(i + 1, 0), idx(i + 1, ny), idx(i, ny)], axis=1).ravel(),
        np.stack([idx(nx, j), idx(nx, j + 1), idx(0, j + 1), idx(0, j)], axis=1).ravel()])
    edges = [(a, b, DIRICHLET) for a, b in ends.reshape(-1, 2).tolist()]
    tags = {i: DIRICHLET for e in edges for i in e[:2]}
    return TriMesh(points, tris.reshape(-1, 3), edges, tags, domain)


def _boundary_polyline(domain, spacing):
    """Closed loop of boundary nodes with roughly the requested spacing."""
    if isinstance(domain, Disc):
        m = max(8, int(np.ceil(2 * np.pi * domain.radius / spacing)))
        th = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
        return domain.center + domain.radius * np.column_stack([np.cos(th), np.sin(th)])
    if isinstance(domain, ConvexPolygon):
        pts = []
        v = domain.vertices
        for i in range(len(v)):
            p0, p1 = v[i], v[(i + 1) % len(v)]
            k = max(1, int(np.ceil(np.linalg.norm(p1 - p0) / spacing)))
            for t in np.arange(k) / k:
                pts.append(p0 + t * (p1 - p0))
        return np.asarray(pts)
    raise MeshGenerationFailure(f"no boundary template for {type(domain).__name__}")


def _layer_depths(depth, h, grading):
    """Distance-from-boundary levels: sizes doubling up to h, stopping once
    the remaining core is at most 1.3 h deep, about one element.  Graded
    meshes start at half of grading*h so that skewed corner cells keep their
    diameter under sqrt(2) * grading * h (radial + tangential legs total
    1.25 grading h)."""
    levels = [0.0]
    size = grading * h * (0.5 if grading < 1 else 1.0)
    while depth - levels[-1] > 1.3 * h:
        levels.append(levels[-1] + size)
        size = min(2 * size, h)
    return np.asarray(levels)


def _cell_triangles(n_loops, m, split):
    """Two triangles per cell between consecutive loops of m nodes (loop k
    holds nodes k*m .. k*m + m - 1), loop by loop, then around each loop.
    The corners 0..3 of cell (k, i) are (k, i), (k, i+1), (k+1, i) and
    (k+1, i+1), and `split` lists the six corners of its two triangles."""
    i = np.arange(m)
    j = np.roll(i, -1)
    base = m * np.arange(n_loops - 1)[:, None, None]
    corners = base + np.stack([i, j, i + m, j + m], axis=-1)
    return corners[..., split].reshape(-1, 3)


def _ring_mesh(domain, h, grading, reach=None):
    """Rings of scaled boundary polylines collapsing onto an interior center.

    With a reach, the rings stop at the first one whose nodes all have
    d >= reach, and there is no center.  On a convex domain d is concave
    and largest at the center, so every triangle deeper than that ring has
    its barycenter at d >= reach: a strip {d < reach} cut from the whole
    mesh keeps none of them."""
    spacing = h * (0.75 * grading if grading < 1 else 1.0)
    loop = _boundary_polyline(domain, spacing)
    m = len(loop)
    if isinstance(domain, Disc):
        center = domain.center
    else:
        center = domain.chebyshev_center()
    # levels measured along rays from the center: the radial leg of a cell
    # at the boundary is then exactly the first level everywhere
    depth = float(np.linalg.norm(loop - center, axis=1).max())
    levels = _layer_depths(depth, h, grading)
    rings, ring_d = [], []
    for s in 1.0 - levels / depth:
        rings.append(center + s * (loop - center))
        ring_d.append(np.maximum(domain.distance_many(rings[-1]), 0.0))
        if reach is not None and ring_d[-1].min() >= reach:
            break
    tris = _cell_triangles(len(rings), m, [0, 1, 3, 0, 3, 2])
    if len(rings) == len(levels):
        # no cut: the innermost ring fans onto the center
        i = np.arange((len(rings) - 1) * m, len(rings) * m)
        fan = np.column_stack([i, np.roll(i, -1), np.full(m, len(rings) * m)])
        tris = np.vstack([tris, fan])
        rings.append(center[None, :])
        ring_d.append(np.maximum(domain.distance_many(rings[-1]), 0.0))
    edges = [(i, (i + 1) % m, DIRICHLET) for i in range(m)]
    tags = {i: DIRICHLET for i in range(m)}
    mesh = TriMesh(np.vstack(rings), tris, edges, tags, domain,
                   np.concatenate(ring_d))
    if np.any(mesh.areas() <= 0):
        raise MeshGenerationFailure("ring template produced an inverted triangle")
    return mesh


def _annulus_mesh(domain, h, grading):
    spacing = h * (0.75 * grading if grading < 1 else 1.0)
    m = max(8, int(np.ceil(2 * np.pi * domain.r_out / spacing)))
    width = domain.r_out - domain.r_in
    n_rad = max(2, int(np.ceil(width / h)))
    if grading == 1.0:
        radii = np.linspace(domain.r_in, domain.r_out, n_rad + 1)
    else:
        lo = _layer_depths(width / 2, h, grading)
        radii = np.unique(np.concatenate([
            domain.r_in + lo, [domain.r_in + width / 2], domain.r_out - lo]))
    th = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    ring = np.column_stack([np.cos(th), np.sin(th)])
    points = np.vstack([domain.center + r * ring for r in radii])
    tris = _cell_triangles(len(radii), m, [0, 2, 3, 0, 3, 1])
    inner = [(ring_i, (ring_i + 1) % m, DIRICHLET) for ring_i in range(m)]
    outer_base = (len(radii) - 1) * m
    outer = [(outer_base + i, outer_base + (i + 1) % m, DIRICHLET) for i in range(m)]
    edges = inner + outer
    tags = {i: DIRICHLET for e in edges for i in e[:2]}
    mesh = TriMesh(points, tris, edges, tags, domain)
    if np.any(mesh.areas() <= 0):
        raise MeshGenerationFailure("annulus template produced an inverted triangle")
    return mesh


def build_trimesh(domain, h, grading=1.0, reach=None):
    """Conforming triangulation with target interior edge length h.

    With grading < 1 the elements touching the boundary have diameter at
    most about grading*h (fine tangential spacing plus a thin first layer).
    All boundary edges are clamped (tagged dirichlet) by default.

    A reach > 0 asks only for the band {d < reach}: the ring template of a
    disc or convex polygon then stops one ring beyond it (see `_ring_mesh`),
    so `restrict_to_strip` cuts from it the same strip, bitwise, as from
    the whole mesh.  An annulus and an axis-aligned rectangle are still
    meshed whole.
    """
    if domain.dim != 2:
        raise TypeError("build_trimesh needs a 2D domain")
    if not 0 < grading <= 1:
        raise InvalidGrading(f"grading must lie in (0, 1], got {grading}")
    if not h > 0:
        raise MeshGenerationFailure(f"h must be positive, got {h}")
    if h > domain.interior_diameter() / 4 + 1e-12:
        raise MeshGenerationFailure(
            f"h={h} too coarse: need h <= D_int/4 = {domain.interior_diameter() / 4}")
    if isinstance(domain, Annulus):
        return _annulus_mesh(domain, h, grading)
    if _is_axis_rectangle(domain) and grading == 1.0:
        return _structured_rectangle(domain, h)
    if isinstance(domain, (Disc, ConvexPolygon)):
        return _ring_mesh(domain, h, grading, reach)
    raise MeshGenerationFailure(f"unsupported 2D domain {type(domain).__name__}")


def refine_trimesh(mesh):
    """Split every triangle into four; curved-boundary midpoints are snapped
    back onto the exact boundary circle.

    New nodes follow the old ones, numbered by the first occurrence of their
    edge in the order ab, bc, ca per triangle, then along the boundary."""
    n, tri = mesh.n_nodes, mesh.elements
    bnd = np.array([(i, j) for i, j, _ in mesh.boundary_edges], dtype=int).reshape(-1, 2)
    ends = np.vstack([tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), bnd])
    codes = ends.min(axis=1) * n + ends.max(axis=1)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)       # unique edges by first occurrence
    mid = n + np.argsort(order)[inverse]
    e0, e1 = ends[first[order]].T
    mids = 0.5 * (mesh.points[e0] + mesh.points[e1])

    dom = mesh.domain
    on = np.flatnonzero((mesh.node_d[e0] < 1e-12) & (mesh.node_d[e1] < 1e-12))
    if isinstance(dom, (Disc, Annulus)) and len(on):
        # row by row: a row-wise norm is not bitwise the scalar one
        v = mids[on] - dom.center
        norm = np.array([np.linalg.norm(row) for row in v])
        if isinstance(dom, Disc):
            radius = dom.radius
        else:
            r_i = np.linalg.norm(mesh.points[e0[on]] - dom.center, axis=1)
            radius = np.where(np.abs(r_i - dom.r_in) < np.abs(r_i - dom.r_out),
                              dom.r_in, dom.r_out)
        mids[on] = dom.center + v * (radius / norm)[:, None]

    ab, bc, ca = mid[:3 * len(tri)].reshape(-1, 3).T
    a, b, c = tri.T
    tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    edges = []
    tags = {}
    for (i, j, tag), m in zip(mesh.boundary_edges, mid[3 * len(tri):].tolist()):
        edges.extend([(i, m, tag), (m, j, tag)])
        tags[i] = tag
        tags[j] = tag
        tags[m] = tag
    for i, t in mesh.node_tags.items():
        tags.setdefault(i, t)
    parents = np.vstack([np.repeat(np.arange(n), 2).reshape(-1, 2),
                         np.column_stack([e0, e1])])
    return TriMesh(np.vstack([mesh.points, mids]), tris, edges, tags, mesh.domain,
                   parents=parents)


def nested(mesh, levels, steps=1):
    """The mesh and its nested refinements: `levels` (mesh, parents) pairs,
    each mesh `steps` uniform refinements finer than the one before, and
    parents the list of those steps' `parents` arrays (empty at the first
    level), which `eigensolve.ladder` prolongs through.  Built lazily, so a
    ladder holds one level at a time."""
    for level in range(levels):
        parents = []
        if level:
            for _ in range(steps):
                mesh = refine_mesh_1d(mesh) if mesh.dim == 1 else refine_trimesh(mesh)
                parents.append(mesh.parents)
        yield mesh, parents


# ---------------------------------------------------------------------------
# strips
# ---------------------------------------------------------------------------

def restrict_to_strip(mesh, strip):
    """Submesh of elements whose barycenter lies in the strip; nodes cut at
    the inner interface are clamped, boundary nodes keep their tags."""
    sup_d = mesh.domain.interior_diameter() / 2.0
    if strip.delta_in > sup_d + 1e-12:
        raise ValueError(f"delta_in={strip.delta_in} exceeds sup d = {sup_d}")

    elems = mesh.elements
    bary_d = np.maximum(mesh.domain.distance_many(mesh.barycenters()), 0.0)
    keep = (bary_d > strip.delta_out) & (bary_d < strip.delta_in)
    kept = np.where(keep)[0]
    if len(kept) < 4:
        raise StripTooThin(
            f"strip ({strip.delta_out}, {strip.delta_in}) contains only "
            f"{len(kept)} elements; need at least 4 layers")
    # resolvability: each quarter of the band must hold an element
    edges_q = np.linspace(strip.delta_out, strip.delta_in, 5)
    band = np.clip(np.searchsorted(edges_q, bary_d[kept], side="right") - 1, 0, 3)
    if len(np.unique(band)) < 4:
        raise StripTooThin(
            f"strip ({strip.delta_out}, {strip.delta_in}) is not resolved by "
            "4 element layers")

    kept_elems = elems[kept]
    used = np.unique(kept_elems)
    # new number of each old node, -1 for the nodes the strip drops
    index = np.full(mesh.n_nodes, -1)
    index[used] = np.arange(len(used))
    new_elems = index[kept_elems]

    node_d = mesh.node_d[used]
    tags = {int(index[old]): t for old, t in mesh.node_tags.items() if index[old] >= 0}
    interface = np.isin(used, elems[~keep]) | (node_d >= strip.delta_in - 1e-12)
    tags.update(dict.fromkeys(np.flatnonzero(interface).tolist(), DIRICHLET))

    if isinstance(mesh, Mesh1D):
        return Mesh1D(mesh.nodes[used], new_elems, tags, mesh.domain, node_d)
    edges = [(int(index[i]), int(index[j]), t) for i, j, t in mesh.boundary_edges
             if index[i] >= 0 and index[j] >= 0]
    return TriMesh(mesh.points[used], new_elems, edges, tags, mesh.domain, node_d)


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

def format_mesh_text(mesh):
    """Plain-text mesh format: a header line `dim n_nodes n_elements
    n_boundary`, then node coordinate lines, element index lines, and tagged
    boundary lines (node index + tag in 1D, edge indices + tag in 2D)."""
    # Arrays are read as column lists (zip(*a.T.tolist())), so that no
    # small list is made per row: that keeps the peak memory of a run down.
    if mesh.dim == 1:
        bnd = sorted(mesh.node_tags.items())
        lines = [f"1 {mesh.n_nodes} {len(mesh.elements)} {len(bnd)}"]
        lines += map(repr, mesh.nodes.tolist())
        lines += [f"{i} {j}" for i, j in zip(*mesh.elements.T.tolist())]
        lines += [f"{i} {tag}" for i, tag in bnd]
    else:
        lines = [f"2 {mesh.n_nodes} {len(mesh.elements)} {len(mesh.boundary_edges)}"]
        lines += [f"{x!r} {y!r}" for x, y in zip(*mesh.points.T.tolist())]
        lines += [f"{a} {b} {c}" for a, b, c in zip(*mesh.elements.T.tolist())]
        lines += [f"{i} {j} {tag}" for i, j, tag in mesh.boundary_edges]
    return "\n".join(lines) + "\n"
