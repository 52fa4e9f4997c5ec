"""Graded interval meshes, boundary-fitted triangulations, tubular strips.

Meshes carry their generating domain so that the exact boundary distance
(not any polygonal proxy) is available at nodes and quadrature points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrading, InvalidParameter, MeshGenerationFailure, StripTooThin
from .geometry import Annulus, ConvexPolygon, Disc, Interval

DIRICHLET = "dirichlet"
ROBIN = "robin"
# the work budget: each builder refuses more elements, counted before it
# allocates anything (the README's numerical notes say why 10^6)
MAX_ELEMENTS = 10**6


def triangle_areas(v):
    """Signed areas of triangles whose vertices are gathered vertex-major,
    v of shape (3, m, 2)."""
    v1, v2 = v[1] - v[0], v[2] - v[0]
    return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])


@dataclass
class Mesh:
    """A simplicial mesh of an interval or a 2D section, with its boundary
    data as arrays.

    `points` (n, dim) are the nodes, `elements` (m, dim + 1) their
    intervals or counterclockwise triangles.  `facets` (f, dim) are the
    boundary facets, the end nodes of an interval or the edges of a
    triangulation, all on the boundary of `domain` (`refine_trimesh` snaps
    every facet midpoint of a disc or annulus mesh onto its circle), and
    `robin` (f,) marks those carrying the Robin term; the others are
    clamped.  `clamped` (n,) marks the nodes the form domain
    pins to zero: by default the nodes of the non-Robin facets; a strip
    also clamps its inner interface.  `node_d` are the nodes' boundary
    distances in the generating `domain`.  A mesh made by refinement has
    `parents` (n, 2): for each node, the two nodes of the mesh it was
    refined from whose mean is its P1 value, (i, i) for a kept node i;
    other meshes have None."""

    points: np.ndarray
    elements: np.ndarray
    facets: np.ndarray
    robin: np.ndarray
    domain: object
    clamped: np.ndarray = None
    node_d: np.ndarray = None
    parents: np.ndarray = None

    def __post_init__(self):
        if self.clamped is None:
            self.clamped = np.zeros(len(self.points), dtype=bool)
            self.clamped[self.facets[~self.robin]] = True
        if self.node_d is None:
            self.node_d = np.maximum(self.domain.distance_many(self.points), 0.0)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def n_nodes(self):
        return len(self.points)

    def barycenters(self):
        return self.points[self.elements].mean(axis=1)

    def areas(self):
        return triangle_areas(self.points[self.elements.T])

    def element_sizes(self):
        """Interval lengths; on triangles, the leg of the right isosceles
        triangle of the same area."""
        if self.dim == 1:
            x = self.points[:, 0]
            return x[self.elements[:, 1]] - x[self.elements[:, 0]]
        return np.sqrt(2 * self.areas())

    def total_measure(self):
        return float((self.element_sizes() if self.dim == 1 else self.areas()).sum())


# ---------------------------------------------------------------------------
# 1D meshes
# ---------------------------------------------------------------------------

def _first_side_size(half, m, grading):
    """The first and smallest of `_geometric_side_sizes`: the size of the
    element next to the endpoint."""
    if grading == 1.0:
        return half / m
    r = 1.0 / grading
    # h1 * (r^m - 1) / (r - 1) = half, once r^m is known not to overflow
    if m * np.log(r) > 700 or (h1 := half * (r - 1.0) / (r**m - 1.0)) < 1e-280:
        raise InvalidGrading(
            f"grading {grading} with {m} layers per side underflows float64")
    return h1


def _geometric_side_sizes(half, m, grading):
    """Element sizes covering [0, half], geometric with the given ratio,
    smallest first (adjacent to the endpoint)."""
    return _first_side_size(half, m, grading) * (1.0 / grading)**np.arange(m)


def grading_floor(interval, headroom=1.0):
    """Smallest element size distinguishable in float64 next to the interval
    endpoints, with room for `headroom` further bisections."""
    scale = max(1.0, abs(interval.a), abs(interval.b))
    return 4096.0 * np.finfo(float).eps * scale * 2.0 ** headroom


def feasible_grading(requested, layers, span, floor, one_sided=False):
    """Steepest grading >= requested whose smallest element stays above the
    float64 floor; geometric meshes cannot grade below machine spacing.
    A requested grading outside (0, 1], NaN included, raises InvalidGrading."""
    if not 0 < requested <= 1:
        raise InvalidGrading(f"grading must lie in (0, 1], got {requested}")
    if requested == 1.0 or layers <= 1:
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


def build_mesh_1d(interval, n, grading=1.0, tags=(DIRICHLET, DIRICHLET),
                  bisections=0):
    """Symmetric mesh with n elements on the interval, its ends tagged
    dirichlet or robin.

    grading < 1 grows element sizes geometrically from each endpoint: the
    i-th from the end is h1 (1/grading)^i, i = 0, ..., n/2 - 1, with h1
    such that they fill half the interval; grading = 1 is uniform.  It is
    clamped to the float64 floor with room for `bisections` nested
    bisections.
    """
    if not isinstance(interval, Interval):
        raise InvalidParameter("build_mesh_1d needs an Interval domain")
    if n < 2:
        raise InvalidParameter("need at least 2 elements")
    if n > MAX_ELEMENTS:
        raise MeshGenerationFailure(f"{n} elements exceed the budget of {MAX_ELEMENTS}")
    if len(tags) != 2 or any(tag not in (DIRICHLET, ROBIN) for tag in tags):
        raise InvalidParameter(f"need two end tags, each dirichlet or robin, got {tags}")
    a, b = interval.a, interval.b
    grading = feasible_grading(grading, n // 2, (b - a) / 2.0,
                               grading_floor(interval, bisections))
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
    if np.any(np.diff(nodes) <= 0):
        raise InvalidGrading("grading produced a degenerate element")
    return _interval_mesh(nodes, interval, np.array(tags) == ROBIN)


def _one_sided_graded(delta, layers, grading):
    """Nodes on [0, delta] clustered geometrically at 0 (ratio 1/grading)."""
    if grading == 1.0:
        return np.linspace(0.0, delta, layers + 1)
    return np.concatenate([[0.0], delta * grading ** np.arange(layers - 1, -1, -1)])


def mesh_1d_with_level(interval, level, n_strip, grading=1.0, bisections=0):
    """Mesh of the interval with nodes exactly at distance `level` from each
    endpoint: two clamped boundary strips of n_strip elements, and one core
    element, which `restrict_to_strip` drops.  grading < 1 places a strip's
    nodes at distance 0 and level grading^j from its end, j = 0, ...,
    n_strip - 1; grading = 1 is uniform.  A level outside (0, sup d]
    raises StripTooThin."""
    a, b = interval.a, interval.b
    half = (b - a) / 2.0
    if not 0 < level <= half:
        raise StripTooThin(f"strip width {level} lies outside (0, sup d = {half}]")
    if n_strip > (MAX_ELEMENTS - 1) // 2:
        raise MeshGenerationFailure(f"2 x {n_strip} + 1 elements exceed the budget "
                                    f"of {MAX_ELEMENTS}")
    grading = feasible_grading(grading, n_strip, level,
                               grading_floor(interval, bisections), one_sided=True)
    left = a + _one_sided_graded(level, n_strip, grading)
    right = (b - _one_sided_graded(level, n_strip, grading))[::-1]
    nodes = np.concatenate([left, right[1:] if level == half else right])
    if np.any(np.diff(nodes) <= 0):
        raise MeshGenerationFailure("level mesh produced a degenerate element")
    return _interval_mesh(nodes, interval, np.zeros(2, dtype=bool))


def _interval_mesh(nodes, interval, robin):
    """The mesh of consecutive nodes, its two ends the facets."""
    n = len(nodes) - 1
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(nodes[:, None], elements, np.array([[0], [n]]), robin, interval)


def refine_mesh_1d(mesh):
    """Split every element at its midpoint (nested refinement)."""
    old = mesh.points[:, 0]
    left, right = old[mesh.elements[:, 0]], old[mesh.elements[:, 1]]
    mids = 0.5 * (left + right)
    nodes = np.unique(np.concatenate([old, mids]))
    a, m, b = (np.searchsorted(nodes, x) for x in (left, mids, right))
    elements = np.column_stack([a, m, m, b]).reshape(-1, 2)
    index = np.searchsorted(nodes, old)
    clamped = np.zeros(len(nodes), dtype=bool)
    clamped[index] = mesh.clamped
    parents = np.empty((len(nodes), 2), dtype=int)
    parents[index] = np.arange(len(old))[:, None]
    parents[m] = mesh.elements
    return Mesh(nodes[:, None], elements, index[mesh.facets], mesh.robin,
                mesh.domain, clamped, parents=parents)


# ---------------------------------------------------------------------------
# 2D meshes
# ---------------------------------------------------------------------------

def _boundary_polyline(domain, spacing):
    """Closed loop of boundary nodes with roughly the requested spacing; the
    outer circle of an annulus."""
    if isinstance(domain, ConvexPolygon):
        pts = []
        v = domain.vertices
        for i in range(len(v)):
            p0, p1 = v[i], v[(i + 1) % len(v)]
            k = max(1, int(np.ceil(np.linalg.norm(p1 - p0) / spacing)))
            for t in np.arange(k) / k:
                pts.append(p0 + t * (p1 - p0))
        return np.asarray(pts)
    radius = domain.r_out if isinstance(domain, Annulus) else domain.radius
    m = max(8, int(np.ceil(2 * np.pi * radius / spacing)))
    th = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    return domain.center + radius * np.column_stack([np.cos(th), np.sin(th)])


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


def _cell_triangles(n_loops, m):
    """Two triangles per cell between consecutive loops of m nodes (loop k
    holds nodes k*m .. k*m + m - 1), loop by loop, then around each loop.
    Cell (k, i) has corners (k, i), (k, i+1), (k+1, i) and (k+1, i+1), and
    is cut along its diagonal from (k, i) to (k+1, i+1)."""
    i = np.arange(m)
    j = np.roll(i, -1)
    base = m * np.arange(n_loops - 1)[:, None, None]
    corners = base + np.stack([i, j, i + m, j + m], axis=-1)
    return corners[..., [0, 1, 3, 0, 3, 2]].reshape(-1, 3)


def _require_ring_budget(domain, center, h, spacing, grading, reach):
    """Refuse more than MAX_ELEMENTS triangles, counted in O(1) before
    anything is built: 2 (perimeter / spacing) (depth / h + log2(2 / grading))
    per band, one band or one from each circle of an annulus.  With a reach
    a band ends h past the level t at which its rings' least d reaches it:
    d = t in from a circle, t r / R on a polygon scaled about its Chebyshev
    center (r the Chebyshev radius, R the farthest vertex).  An underflow of
    h * spacing to 0 refuses, as does a count that overflows."""
    bands, slope = 1, 1.0
    if isinstance(domain, ConvexPolygon):
        v = domain.vertices
        perimeter = float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())
        depth = float(np.linalg.norm(v - center, axis=1).max())
        slope = depth / domain.chebyshev_radius()
    elif isinstance(domain, Annulus):
        bands, depth = 2, (domain.r_out - domain.r_in) / 2
        perimeter = 2 * np.pi * domain.r_out
    else:
        perimeter, depth = 2 * np.pi * domain.radius, domain.radius
    if reach is not None:
        depth = min(depth, float(reach) * slope + h)
    depth += h * math.log2(2 / float(grading))
    if 2 * bands * perimeter * depth > MAX_ELEMENTS * h * spacing:
        raise MeshGenerationFailure(f"h = {h} with boundary spacing {spacing} "
                                    f"exceeds the budget of {MAX_ELEMENTS} elements")


def _ring_mesh(domain, h, grading, reach=None):
    """Rings of scaled boundary polylines.  On a disc or convex polygon they
    collapse onto an interior center; on an annulus the outer circle's loop
    is scaled down to the inner circle, the last ring, whose edges are
    clamped too.

    With a reach, the rings stop at the first one whose nodes all have
    d >= reach, and there is no center.  On a convex domain d is concave
    and largest at the center, so every triangle deeper than that ring has
    its barycenter at d >= reach: a strip {d < reach} cut from the whole
    mesh keeps none of them.  An annulus grows a second band the same way
    outward from its inner circle; the rings between the bands are never
    built."""
    spacing = h * (0.75 * grading if grading < 1 else 1.0)
    polygon = isinstance(domain, ConvexPolygon)
    center = domain.chebyshev_center() if polygon else domain.center
    _require_ring_budget(domain, center, float(h), float(spacing), grading, reach)
    loop = _boundary_polyline(domain, spacing)
    m = len(loop)
    # levels measured along rays from the center: the radial leg of a cell
    # at the boundary is then exactly the first level everywhere
    depth = float(np.linalg.norm(loop - center, axis=1).max())
    if isinstance(domain, Annulus):
        # graded from each circle toward the middle ring
        half = (domain.r_out - domain.r_in) / 2
        lo = _layer_depths(half, h, grading)
        levels = np.concatenate([lo, [half], 2 * half - lo[::-1]])
    else:
        levels = _layer_depths(depth, h, grading)
    scales = 1.0 - levels / depth

    def band(ring_scales):
        rings, ring_d = [], []
        for s in ring_scales:
            rings.append(center + s * (loop - center))
            ring_d.append(np.maximum(domain.distance_many(rings[-1]), 0.0))
            if reach is not None and ring_d[-1].min() >= reach:
                break
        return rings, ring_d

    rings, ring_d = band(scales)
    outer = len(rings)
    if isinstance(domain, Annulus):
        inner, inner_d = band(scales[outer:][::-1])
        rings += inner[::-1]
        ring_d += inner_d[::-1]
    tris = _cell_triangles(len(rings), m)
    i = np.arange(m)
    facets = np.column_stack([i, np.roll(i, -1)])
    if isinstance(domain, Annulus):
        if len(rings) < len(scales):
            # no cells across the gap between the two bands
            tris = np.delete(tris, np.s_[2 * m * (outer - 1):2 * m * outer], axis=0)
        facets = np.vstack([facets, (len(rings) - 1) * m + facets])
    elif len(rings) == len(scales):
        # no cut: the innermost ring fans onto the center
        i = np.arange((len(rings) - 1) * m, len(rings) * m)
        fan = np.column_stack([i, np.roll(i, -1), np.full(m, len(rings) * m)])
        tris = np.vstack([tris, fan])
        rings.append(center[None, :])
        ring_d.append(np.maximum(domain.distance_many(rings[-1]), 0.0))
    mesh = Mesh(np.vstack(rings), tris, facets, np.zeros(len(facets), dtype=bool),
                domain, node_d=np.concatenate(ring_d))
    if np.any(mesh.areas() <= 0):
        raise MeshGenerationFailure("ring template produced an inverted triangle")
    return mesh


def build_trimesh(domain, h=None, grading=1.0, reach=None):
    """Conforming triangulation with target interior edge length h (by
    default D_int/16), from the ring template (`_ring_mesh`) on a disc,
    torus section, convex polygon or annulus.

    With grading < 1 the elements touching the boundary have diameter at
    most about grading*h (fine tangential spacing plus a thin first layer).
    All boundary edges are clamped (tagged dirichlet) by default.

    A reach > 0 asks only for the band {d < reach}: the rings then stop one
    ring beyond it, from each circle of an annulus, so `restrict_to_strip`
    cuts from the mesh the same strip, bitwise, as from the whole mesh.
    """
    if domain.dim != 2:
        raise InvalidParameter("build_trimesh needs a 2D domain")
    if h is None:
        h = domain.interior_diameter() / 16
    if not 0 < grading <= 1:
        raise InvalidGrading(f"grading must lie in (0, 1], got {grading}")
    if not h > 0:
        raise MeshGenerationFailure(f"h must be positive, got {h}")
    if h > domain.interior_diameter() / 4 + domain.length_tol():
        raise MeshGenerationFailure(
            f"h={h} too coarse: need h <= D_int/4 = {domain.interior_diameter() / 4}")
    if isinstance(domain, (Disc, ConvexPolygon, Annulus)):
        return _ring_mesh(domain, h, grading, reach)
    raise MeshGenerationFailure(f"unsupported 2D domain {type(domain).__name__}")


def refine_trimesh(mesh):
    """Split every triangle into four; the midpoints of the boundary facets
    are snapped back onto the exact boundary circle.

    New nodes follow the old ones, numbered by the first occurrence of their
    edge in the order ab, bc, ca per triangle, then along the boundary.
    Each facet splits in two at its midpoint, which is clamped when the
    facet is not Robin; clamped nodes stay clamped."""
    n, tri = mesh.n_nodes, mesh.elements
    ends = np.vstack([tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), mesh.facets])
    codes = ends.min(axis=1) * n + ends.max(axis=1)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)       # unique edges by first occurrence
    mid = n + np.argsort(order)[inverse]
    e0, e1 = ends[first[order]].T
    mids = 0.5 * (mesh.points[e0] + mesh.points[e1])

    dom = mesh.domain
    f_mid = mid[3 * len(tri):]
    on = f_mid - n
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
    facets = np.column_stack([mesh.facets[:, 0], f_mid, f_mid, mesh.facets[:, 1]])
    clamped = np.concatenate([mesh.clamped, np.zeros(len(mids), dtype=bool)])
    clamped[f_mid[~mesh.robin]] = True
    parents = np.vstack([np.repeat(np.arange(n), 2).reshape(-1, 2),
                         np.column_stack([e0, e1])])
    return Mesh(np.vstack([mesh.points, mids]), tris, facets.reshape(-1, 2),
                np.repeat(mesh.robin, 2), mesh.domain, clamped, parents=parents)


def require_ladder_budget(elements, dim, levels, steps=1):
    """Refuse a `nested` ladder whose finest level, elements (2^dim)^(steps
    (levels - 1)), holds more than MAX_ELEMENTS; in O(1), as a shift capped
    at MAX_ELEMENTS' bit length, past which any count exceeds it."""
    shift = dim * steps * max(levels - 1, 0)
    if elements << min(shift, MAX_ELEMENTS.bit_length()) > MAX_ELEMENTS:
        raise MeshGenerationFailure(
            f"{levels} levels of {steps} refinements from {elements} elements "
            f"exceed the budget of {MAX_ELEMENTS} elements")


def nested(mesh, levels, steps=1):
    """The mesh and its nested refinements: `levels` (mesh, parents) pairs,
    each mesh `steps` uniform refinements finer than the one before, and
    parents the list of those steps' `parents` arrays (empty at the first
    level), which `eigensolve.ladder` prolongs through.  Built lazily, so a
    ladder holds one level at a time, once its finest fits the budget."""
    require_ladder_budget(len(mesh.elements), mesh.dim, levels, steps)
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

def restrict_to_strip(mesh, delta):
    """Submesh of elements whose barycenter lies in the boundary strip
    {0 < d < delta}; nodes cut at the inner interface d = delta are clamped,
    the facets with both ends kept stay, and other nodes keep their
    clamping."""
    sup_d = mesh.domain.interior_diameter() / 2.0
    tol = mesh.domain.length_tol()
    if not 0 < delta <= sup_d + tol:
        raise StripTooThin(f"strip width {delta} lies outside (0, sup d = {sup_d}]")

    elems = mesh.elements
    bary_d = np.maximum(mesh.domain.distance_many(mesh.barycenters()), 0.0)
    keep = (bary_d > 0) & (bary_d < delta)
    kept = np.where(keep)[0]
    if len(kept) < 4:
        raise StripTooThin(f"strip {{0 < d < {delta}}} contains only "
                           f"{len(kept)} elements; need at least 4 layers")
    # resolvability: each quarter of the band must hold an element
    edges_q = np.linspace(0.0, delta, 5)
    band = np.clip(np.searchsorted(edges_q, bary_d[kept], side="right") - 1, 0, 3)
    if not np.bincount(band, minlength=4).all():
        raise StripTooThin(f"strip {{0 < d < {delta}}} is not resolved by "
                           "4 element layers")

    # node masks: of the kept elements' nodes, and of the dropped ones'
    kept_elems = elems[kept]
    on_kept = np.zeros(mesh.n_nodes, dtype=bool)
    on_kept[kept_elems] = True
    on_dropped = np.zeros(mesh.n_nodes, dtype=bool)
    on_dropped[elems[~keep]] = True
    used = np.flatnonzero(on_kept)
    # new number of each old node, -1 for the nodes the strip drops
    index = np.full(mesh.n_nodes, -1)
    index[used] = np.arange(len(used))
    new_elems = index[kept_elems]

    node_d = mesh.node_d[used]
    interface = on_dropped[used] | (node_d >= delta - tol)
    facets = index[mesh.facets]
    kept_f = (facets >= 0).all(axis=1)
    return Mesh(mesh.points[used], new_elems, facets[kept_f], mesh.robin[kept_f],
                mesh.domain, mesh.clamped[used] | interface, node_d)


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

def format_mesh_text(mesh):
    """Plain-text mesh format: a header line `dim n_nodes n_elements
    n_facets`, then node coordinate lines, element index lines, and one
    line per boundary facet, its node indices and its tag (robin or
    dirichlet).  A strip's clamped interface is not listed."""
    # Arrays are read as column lists (zip(*a.T.tolist())), so that no
    # small list is made per row: that keeps the peak memory of a run down.
    lines = [f"{mesh.dim} {mesh.n_nodes} {len(mesh.elements)} {len(mesh.facets)}"]
    if mesh.dim == 1:
        lines += map(repr, mesh.points[:, 0].tolist())
        lines += [f"{i} {j}" for i, j in zip(*mesh.elements.T.tolist())]
    else:
        lines += [f"{x!r} {y!r}" for x, y in zip(*mesh.points.T.tolist())]
        lines += [f"{a} {b} {c}" for a, b, c in zip(*mesh.elements.T.tolist())]
    tags = np.where(mesh.robin, ROBIN, DIRICHLET)[:, None]
    lines += map(" ".join, np.hstack([mesh.facets.astype(str), tags]).tolist())
    return "\n".join(lines) + "\n"
