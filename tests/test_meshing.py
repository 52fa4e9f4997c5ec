import numpy as np
import pytest
from numpy.testing import assert_allclose

from hardyspec import (Annulus, ConvexPolygon, Disc, Interval, StripSpec,
                       Torus, TorusSection, build_mesh_1d, build_trimesh,
                       mesh_1d_with_level, refine_mesh_1d, refine_trimesh,
                       restrict_to_strip)
from hardyspec.errors import InvalidGrading, MeshGenerationFailure, StripTooThin
from hardyspec.eigensolve import smallest_eigenpairs
from hardyspec.forms import FormSpec, assemble_pencil
from hardyspec.hardy import hardy_pencil
from hardyspec.meshing import (DIRICHLET, TriMesh, _annulus_mesh, _boundary_polyline,
                               _geometric_side_sizes, _layer_depths, _ring_mesh,
                               _structured_rectangle, feasible_grading,
                               format_mesh_text, grading_floor, nested)
from hardyspec.spectral import ProblemSpec, strip_mesh

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_uniform_1d_nodes():
    mesh = build_mesh_1d(Interval(0, 1), 4, 1.0)
    assert_allclose(mesh.nodes, [0, 0.25, 0.5, 0.75, 1])


def test_graded_1d_nodes():
    mesh = build_mesh_1d(Interval(0, 1), 4, 0.5)
    assert_allclose(mesh.nodes, [0, 1 / 6, 0.5, 5 / 6, 1], atol=1e-15)


def test_two_elements_any_grading():
    for g in (0.2, 0.7, 1.0):
        mesh = build_mesh_1d(Interval(0, 1), 2, g)
        assert_allclose(mesh.nodes, [0, 0.5, 1])


def test_invalid_grading():
    with pytest.raises(InvalidGrading):
        build_mesh_1d(Interval(0, 1), 4, 0.0)
    with pytest.raises(InvalidGrading):
        build_mesh_1d(Interval(0, 1), 4, 1.5)
    with pytest.raises(InvalidGrading):
        build_mesh_1d(Interval(0, 1), 5, 0.5)  # odd count cannot be symmetric
    with pytest.raises(InvalidGrading):
        # 2048 geometric layers per side underflow float64 near x = 1
        build_mesh_1d(Interval(0, 1), 4096, 0.15)


def test_graded_size_ratio_exact():
    n, g = 16, 0.6
    mesh = build_mesh_1d(Interval(0, 1), n, g)
    sizes = mesh.element_sizes()
    ratio = sizes.max() / sizes.min()
    assert ratio == pytest.approx(g ** (1 - n // 2), rel=1e-12)


def _feasible_grading_array(requested, layers, span, floor, one_sided=False):
    """feasible_grading as it was: every bisection step builds the whole
    size array and takes its minimum."""
    if requested >= 1.0 or layers <= 1:
        return requested

    def smallest(g):
        if one_sided:
            t = span * g ** np.arange(layers - 1, -1, -1)
            sizes = np.diff(np.concatenate([[0.0], t]))
        else:
            try:
                sizes = _geometric_side_sizes(span, layers, g)
            except InvalidGrading:
                return 0.0
        return float(sizes.min())

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


def test_feasible_grading_matches_array_oracle():
    # bitwise on the strips of the diagnose-interval benchmark
    floor = grading_floor(Interval(0, 1), headroom=6)
    for k in range(2, 17):
        assert feasible_grading(0.15, 96, 1 / k, floor, one_sided=True) \
            == _feasible_grading_array(0.15, 96, 1 / k, floor, one_sided=True)
    # elsewhere the two-sided grading is bitwise too; the one-sided one may
    # move by one ulp, as numpy's array power and scalar pow round apart
    rng = np.random.default_rng(18)
    for _ in range(300):
        args = (float(rng.uniform(0.01, 0.99)), int(rng.integers(2, 400)),
                float(rng.uniform(1e-3, 10.0)), float(10 ** rng.uniform(-14, -6)))
        assert feasible_grading(*args) == _feasible_grading_array(*args)
        want = _feasible_grading_array(*args, one_sided=True)
        assert abs(feasible_grading(*args, one_sided=True) - want) <= np.spacing(want)


def test_element_measures_sum():
    mesh = build_mesh_1d(Interval(-1, 2), 32, 0.3)
    assert mesh.total_measure() == pytest.approx(3.0, rel=1e-12)


def test_structured_square():
    mesh = build_trimesh(ConvexPolygon(UNIT_SQUARE), 0.25, 1.0)
    assert len(mesh.elements) == 32
    assert_allclose(mesh.areas(), 1 / 32)
    assert mesh.total_measure() == pytest.approx(1.0, rel=1e-12)


def test_disc_triangle_count_band():
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.2, 1.0)
    target = np.pi / (0.5 * 0.2**2)
    assert 0.5 * target <= len(mesh.elements) <= 2 * target


def test_graded_boundary_diameter():
    mesh = build_trimesh(ConvexPolygon(UNIT_SQUARE), 0.25, 0.25)
    touching = [t for t in mesh.elements if np.any(mesh.node_d[t] < 1e-12)]
    for t in touching:
        p = mesh.points[t]
        diam = max(np.linalg.norm(p[0] - p[1]), np.linalg.norm(p[1] - p[2]),
                   np.linalg.norm(p[2] - p[0]))
        assert diam <= 0.0625 * np.sqrt(2) + 1e-12


def test_mesh_too_coarse():
    with pytest.raises(MeshGenerationFailure):
        build_trimesh(Disc((0, 0), 1.0), 0.9, 1.0)


def test_areas_positive_and_boundary_distance():
    for dom, h in ((Disc((0.5, 0.5), 1.0), 0.1),
                   (Annulus((0, 0), 0.5, 1.0), 0.08),
                   (ConvexPolygon([(0, 0), (2, 0), (3, 1), (1, 2)]), 0.2)):
        mesh = build_trimesh(dom, h, 1.0)
        assert np.all(mesh.areas() > 0)
        # bitwise the areas from edge vectors gathered column by column
        p, t = mesh.points, mesh.elements
        v1, v2 = p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]]
        oracle = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
        assert mesh.areas().tobytes() == oracle.tobytes()
        boundary_nodes = sorted({i for i, j, _ in mesh.boundary_edges}
                                | {j for _, j, _ in mesh.boundary_edges})
        assert np.all(mesh.node_d[boundary_nodes] < 1e-12)


def test_area_sum_within_tolerance():
    # straight boundaries are exact, curved ones carry the polygonal defect
    square = build_trimesh(ConvexPolygon(UNIT_SQUARE), 0.1, 1.0)
    assert abs(square.total_measure() - 1.0) < 1e-6
    disc = build_trimesh(Disc((0, 0), 1.0), 0.05, 1.0)
    assert abs(disc.total_measure() / np.pi - 1) < 1e-3
    ann = build_trimesh(Annulus((0, 0), 0.5, 1.0), 0.05, 1.0)
    assert abs(ann.total_measure() / (np.pi * 0.75) - 1) < 1e-3


def test_restrict_two_components():
    mesh = build_mesh_1d(Interval(0, 1), 64, 0.85)
    sub = restrict_to_strip(mesh, StripSpec(0.0, 0.25))
    bary = sub.barycenters()
    d = np.minimum(bary, 1 - bary)
    assert np.all(d < 0.25)
    # two disjoint pieces on either side of the removed core
    assert max(sub.nodes) > 0.75 and min(sub.nodes) < 0.25
    # clamped: endpoints plus both interface nodes
    clamped_x = sorted(sub.nodes[i] for i in sub.dirichlet_nodes())
    assert clamped_x[0] == 0.0 and clamped_x[-1] == 1.0
    interface = [x for x in clamped_x if 0 < x < 1]
    assert len(interface) == 2
    assert interface[0] == pytest.approx(0.25, abs=0.08)
    assert interface[1] == pytest.approx(0.75, abs=0.08)


def test_restrict_whole_mesh():
    mesh = build_mesh_1d(Interval(0, 1), 64, 0.85)
    sub = restrict_to_strip(mesh, StripSpec(0.0, 0.5))
    assert len(sub.elements) == 64
    # the midpoint sits on the inner interface and is clamped
    mid = int(np.argmin(np.abs(sub.nodes - 0.5)))
    assert sub.node_tags.get(mid) == DIRICHLET


def test_strip_too_thin():
    mesh = build_mesh_1d(Interval(0, 1), 16, 1.0)
    with pytest.raises(StripTooThin):
        restrict_to_strip(mesh, StripSpec(0.0, 0.01))


def test_strip_nesting():
    mesh = build_mesh_1d(Interval(0, 1), 128, 0.85)
    inner = restrict_to_strip(mesh, StripSpec(0.0, 0.125))
    outer = restrict_to_strip(mesh, StripSpec(0.0, 0.25))
    inner_elems = {(round(mesh_x, 14), round(mesh_y, 14))
                   for mesh_x, mesh_y in inner.nodes[inner.elements]}
    outer_elems = {(round(mesh_x, 14), round(mesh_y, 14))
                   for mesh_x, mesh_y in outer.nodes[outer.elements]}
    assert inner_elems <= outer_elems


def test_restrict_trimesh():
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.05, 1.0)
    sub = restrict_to_strip(mesh, StripSpec(0.0, 0.3))
    d = np.maximum(mesh.domain.distance_many(sub.barycenters()), 0)
    assert np.all(d < 0.3)
    assert np.all(sub.areas() > 0)
    inner = [i for i, t in sub.node_tags.items()
             if t == DIRICHLET and sub.node_d[i] > 0.2]
    assert inner  # the cut interface is clamped


def _ring_mesh_loop(domain, h, grading):
    """Oracle: the ring template, one triangle at a time."""
    spacing = h * (0.75 * grading if grading < 1 else 1.0)
    loop = _boundary_polyline(domain, spacing)
    m = len(loop)
    center = domain.center if isinstance(domain, Disc) else domain.chebyshev_center()
    depth = float(np.linalg.norm(loop - center, axis=1).max())
    levels = _layer_depths(depth, h, grading)
    rings = [center + s * (loop - center) for s in 1.0 - levels / depth]
    points = np.vstack(rings + [center[None, :]])
    center_idx = len(rings) * m
    tris = []
    for k in range(len(rings) - 1):
        base0, base1 = k * m, (k + 1) * m
        for i in range(m):
            j = (i + 1) % m
            tris.append((base0 + i, base0 + j, base1 + j))
            tris.append((base0 + i, base1 + j, base1 + i))
    base = (len(rings) - 1) * m
    for i in range(m):
        tris.append((base + i, base + (i + 1) % m, center_idx))
    edges = [(i, (i + 1) % m, DIRICHLET) for i in range(m)]
    tags = {i: DIRICHLET for i in range(m)}
    return TriMesh(points, np.asarray(tris, dtype=int), edges, tags, domain)


def _annulus_mesh_loop(domain, h, grading):
    """Oracle: the annulus template, one triangle at a time."""
    spacing = h * (0.75 * grading if grading < 1 else 1.0)
    m = max(8, int(np.ceil(2 * np.pi * domain.r_out / spacing)))
    width = domain.r_out - domain.r_in
    if grading == 1.0:
        radii = np.linspace(domain.r_in, domain.r_out,
                            max(2, int(np.ceil(width / h))) + 1)
    else:
        lo = _layer_depths(width / 2, h, grading)
        radii = np.unique(np.concatenate([
            domain.r_in + lo, [domain.r_in + width / 2], domain.r_out - lo]))
    th = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    ring = np.column_stack([np.cos(th), np.sin(th)])
    points = np.vstack([domain.center + r * ring for r in radii])
    tris = []
    for k in range(len(radii) - 1):
        base0, base1 = k * m, (k + 1) * m
        for i in range(m):
            j = (i + 1) % m
            tris.append((base0 + i, base1 + i, base1 + j))
            tris.append((base0 + i, base1 + j, base0 + j))
    outer_base = (len(radii) - 1) * m
    edges = [(i, (i + 1) % m, DIRICHLET) for i in range(m)] \
        + [(outer_base + i, outer_base + (i + 1) % m, DIRICHLET) for i in range(m)]
    tags = {i: DIRICHLET for e in edges for i in e[:2]}
    return TriMesh(points, np.asarray(tris, dtype=int), edges, tags, domain)


def _structured_rectangle_loop(domain, h):
    """Oracle: the structured rectangle, one triangle and edge at a time."""
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
    tris = []
    for i in range(nx):
        for j in range(ny):
            tris.append((idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)))
            tris.append((idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)))
    edges = []
    for i in range(nx):
        edges.append((idx(i, 0), idx(i + 1, 0), DIRICHLET))
        edges.append((idx(i + 1, ny), idx(i, ny), DIRICHLET))
    for j in range(ny):
        edges.append((idx(nx, j), idx(nx, j + 1), DIRICHLET))
        edges.append((idx(0, j + 1), idx(0, j), DIRICHLET))
    tags = {i: DIRICHLET for e in edges for i in e[:2]}
    return TriMesh(points, np.asarray(tris, dtype=int), edges, tags, domain)


def _assert_same_trimesh(new, old):
    assert np.array_equal(new.points, old.points)
    assert new.elements.dtype == old.elements.dtype
    assert np.array_equal(new.elements, old.elements)
    assert np.array_equal(new.node_d, old.node_d)
    assert new.boundary_edges == old.boundary_edges
    assert list(new.node_tags.items()) == list(old.node_tags.items())


def test_templates_match_loop_oracles():
    cases = [(Disc((0.3, -0.2), 0.7), _ring_mesh, _ring_mesh_loop),
             (ConvexPolygon([(0, 0), (2, 0), (2.5, 1), (0.5, 1.5)]), _ring_mesh,
              _ring_mesh_loop),
             (Annulus((0.5, -0.5), 0.5, 1.5), _annulus_mesh, _annulus_mesh_loop)]
    for domain, template, oracle in cases:
        for h, grading in ((0.1, 1.0), (0.05, 0.5), (0.15, 0.3)):
            _assert_same_trimesh(template(domain, h, grading),
                                 oracle(domain, h, grading))
    # rectangles of one cell, one row and a wide grid, off the origin
    for corners, h in (([(0, 0), (1, 0), (1, 1), (0, 1)], 0.125),
                       ([(0, 0), (1, 0), (1, 1), (0, 1)], 1.0),
                       ([(-1, 0.5), (2, 0.5), (2, 0.75), (-1, 0.75)], 0.3),
                       ([(0.1, -0.3), (1.4, -0.3), (1.4, 0.8), (0.1, 0.8)], 0.07)):
        domain = ConvexPolygon(corners)
        _assert_same_trimesh(_structured_rectangle(domain, h),
                             _structured_rectangle_loop(domain, h))


STRIP_DOMAINS = (Disc((0, 0), 1.0), Disc((0.3, -0.2), 0.7), Torus(3.0, 1.0),
                 ConvexPolygon([(0, 0), (2, 0), (2.5, 1), (0.5, 1.5)]))


@pytest.mark.parametrize("domain", STRIP_DOMAINS,
                         ids=("disc", "off_centre_disc", "torus", "skewed_quad"))
def test_truncated_strip_matches_whole_mesh(domain):
    # the ring template stops one ring beyond 1/k; cutting the strip from
    # the whole section must give the same mesh, bitwise
    section = domain.section
    for k in range(2, 13):
        problem = ProblemSpec(domain, FormSpec(a=1.0, q=0.0), 0.5, ks=(k,))
        h = max(1 / (8 * k), section.interior_diameter() / 256)
        try:
            oracle = restrict_to_strip(build_trimesh(section, h, 1.0),
                                       StripSpec(0.0, 1 / k))
        except (StripTooThin, ValueError) as exc:
            with pytest.raises(type(exc)):
                strip_mesh(problem, k)
            continue
        _assert_same_trimesh(strip_mesh(problem, k), oracle)


def test_mesh_with_level_has_exact_node():
    mesh = mesh_1d_with_level(Interval(0, 1), 0.25, 32, 0.5)
    assert 0.25 in mesh.nodes
    assert 0.75 in mesh.nodes
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0


def test_refine_1d_nested():
    mesh = build_mesh_1d(Interval(0, 1), 8, 0.5)
    fine = refine_mesh_1d(mesh)
    assert len(fine.elements) == 16
    assert set(np.round(mesh.nodes, 15)) <= set(np.round(fine.nodes, 15))
    assert fine.node_tags[0] == DIRICHLET


def test_refine_trimesh_quadruples():
    mesh = build_trimesh(ConvexPolygon(UNIT_SQUARE), 0.25, 1.0)
    fine = refine_trimesh(mesh)
    assert len(fine.elements) == 4 * len(mesh.elements)
    assert fine.total_measure() == pytest.approx(1.0, rel=1e-12)
    assert np.all(fine.areas() > 0)


def test_refine_trimesh_snaps_curved_boundary():
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.2, 1.0)
    fine = refine_trimesh(mesh)
    boundary_nodes = sorted({i for i, j, _ in fine.boundary_edges}
                            | {j for _, j, _ in fine.boundary_edges})
    assert np.all(fine.node_d[boundary_nodes] < 1e-12)


def _refine_trimesh_dict(mesh):
    """Oracle: refinement one triangle at a time, new nodes keyed by their
    float coordinates in a dict."""
    points = list(map(tuple, mesh.points))
    index = {p: i for i, p in enumerate(points)}
    pts = [np.asarray(p) for p in points]

    def midpoint(i, j, snap):
        p = 0.5 * (mesh.points[i] + mesh.points[j])
        if snap is not None:
            center, radius = snap
            v = p - center
            p = center + v * (radius / np.linalg.norm(v))
        key = tuple(p)
        if key not in index:
            index[key] = len(pts)
            pts.append(p)
        return index[key]

    def snap_target(i, j):
        dom = mesh.domain
        if isinstance(dom, Disc):
            if mesh.node_d[i] < 1e-12 and mesh.node_d[j] < 1e-12:
                return dom.center, dom.radius
        if isinstance(dom, Annulus):
            if mesh.node_d[i] < 1e-12 and mesh.node_d[j] < 1e-12:
                r_i = np.linalg.norm(mesh.points[i] - dom.center)
                ring = dom.r_in if abs(r_i - dom.r_in) < abs(r_i - dom.r_out) else dom.r_out
                return dom.center, ring
        return None

    tris = []
    for a, b, c in mesh.elements:
        ab = midpoint(a, b, snap_target(a, b))
        bc = midpoint(b, c, snap_target(b, c))
        ca = midpoint(c, a, snap_target(c, a))
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    edges = []
    tags = {}
    for i, j, tag in mesh.boundary_edges:
        mid = midpoint(i, j, snap_target(i, j))
        edges.extend([(i, mid, tag), (mid, j, tag)])
        tags[i] = tag
        tags[j] = tag
        tags[mid] = tag
    for i, t in mesh.node_tags.items():
        tags.setdefault(i, t)
    return TriMesh(np.asarray(pts), np.asarray(tris, dtype=int), edges, tags, mesh.domain)


def test_refine_trimesh_matches_dict_oracle():
    # the last triangle of the fan is missing, so boundary edge (3, 0)
    # borders no element and its midpoint is numbered after all others
    square = ConvexPolygon(UNIT_SQUARE)
    fan = TriMesh(np.vstack([UNIT_SQUARE, [(0.5, 0.5)]]).astype(float),
                  np.array([(0, 1, 4), (1, 2, 4), (2, 3, 4)]),
                  [(i, (i + 1) % 4, DIRICHLET) for i in range(4)],
                  dict.fromkeys(range(4), DIRICHLET), square)
    meshes = [fan,
              build_trimesh(Disc((0, 0), 1.0), 0.25, 1.0),
              build_trimesh(Disc((0.3, -0.2), 0.7), 0.15, 0.5),
              build_trimesh(Annulus((0, 0), 0.5, 1.0), 0.12, 0.5),
              build_trimesh(square, 0.25, 1.0),
              build_trimesh(ConvexPolygon([(0, 0), (2, 0), (0.5, 1.5)]), 0.2, 0.5),
              restrict_to_strip(build_trimesh(Disc((3, 0), 1.0), 0.1, 1.0),
                                StripSpec(0.0, 0.3))]
    for mesh in meshes:
        new = old = mesh
        for _ in range(2):
            new, old = refine_trimesh(new), _refine_trimesh_dict(old)
            assert np.array_equal(new.points, old.points)
            assert new.elements.dtype == old.elements.dtype
            assert np.array_equal(new.elements, old.elements)
            assert new.boundary_edges == old.boundary_edges
            assert list(new.node_tags.items()) == list(old.node_tags.items())
            assert np.array_equal(new.node_d, old.node_d)


def _lift(u, parents):
    for p in parents:
        u = 0.5 * (u[p[:, 0]] + u[p[:, 1]])
    return u


def test_parents_lift_linear_functions():
    torus_disc = Torus(3.0, 1.0).section
    meshes = [build_mesh_1d(Interval(0, 1), 32, 0.5),
              build_trimesh(Disc((0.3, -0.2), 0.7), 0.15, 0.5),
              restrict_to_strip(build_trimesh(torus_disc, 0.1, 1.0),
                                StripSpec(0.0, 0.3))]
    for coarse in meshes:
        f = lambda pts: 0.3 + pts @ np.array([1.7, -0.9][:coarse.dim])
        fine, parents = list(nested(coarse, 2, 2))[1]
        _, (mid, [p1]), (_, [p2]) = nested(coarse, 3, 1)
        assert np.array_equal(parents[0], p1) and np.array_equal(parents[1], p2)
        kept = p1[:, 0] == p1[:, 1]
        assert sorted(p1[kept, 0]) == list(range(coarse.n_nodes))
        lifted = _lift(f(coarse.points), parents)
        # midpoints snapped onto the circle, and the midpoints next to them,
        # leave the coarse function's plane
        snapped = lambda mesh, n: ((np.arange(mesh.n_nodes) >= n)
                                   & (mesh.node_d < 1e-12) & (mesh.dim == 2))
        skip = (_lift(snapped(mid, coarse.n_nodes), [p2]) > 0) | snapped(fine, mid.n_nodes)
        assert_allclose(lifted[~skip], f(fine.points)[~skip], rtol=0, atol=1e-14)


def _prolonged_quotient(mesh, make_pencil):
    """(coarse minimum, Rayleigh quotient of its prolonged eigenvector on
    the level two refinements finer, that level's minimum)."""
    (coarse, _), (fine, parents) = nested(mesh, 2, 2)
    pc, pf = make_pencil(coarse), make_pencil(fine)
    rep = smallest_eigenpairs(pc, 1)
    u = np.zeros(coarse.n_nodes)
    u[pc.free_nodes] = rep.eigenvectors[:, 0]
    quotient = pf.rayleigh(_lift(u, parents)[pf.free_nodes])
    return rep.eigenvalues[0], quotient, smallest_eigenpairs(pf, 1).eigenvalues[0]


def test_prolonged_eigenvector_keeps_its_quotient():
    # polygon, polynomial coefficients: the prolonged vector is the coarse
    # function and every integral is exact, so its quotient is the minimum
    square = ConvexPolygon(UNIT_SQUARE)
    form = FormSpec(a="1+x^2", q="x*y")
    mu, quotient, _ = _prolonged_quotient(
        build_trimesh(square, 0.125, 0.5),
        lambda mesh: assemble_pencil(mesh, form, "2+y"))
    assert quotient == pytest.approx(mu, rel=1e-10)
    # the Hardy disc moves its boundary midpoints and integrates d^-2 by
    # quadrature: the quotient stays near the coarse minimum, above the fine one
    mu, quotient, fine_mu = _prolonged_quotient(
        build_trimesh(Disc((0, 0), 1.0), 0.125, 0.5),
        lambda mesh: hardy_pencil(mesh, 0.0, 0.0, 1.0))
    assert fine_mu < quotient
    assert quotient == pytest.approx(mu, rel=2e-2)


def test_axisymmetric_reduce():
    torus = Torus(3.0, 1.0)
    disc = torus.section
    assert isinstance(disc, TorusSection) and isinstance(disc, Disc)
    assert_allclose(disc.center, [3.0, 0.0])
    assert disc.radius == 1.0
    assert disc.measure_weight == "r" and torus.measure_weight is None
    # other domains are their own section, without a measure weight
    plain = Disc((3.0, 0.0), 1.0)
    assert plain.section is plain and plain.measure_weight is None
    # -laplacian(d) of the section is the torus's own at (r, 0, z)
    rz = np.array([[2.5, 0.3], [3.6, -0.4], [2.1, 0.0]])
    assert np.array_equal(disc.calculus_many(rz)[1],
                          torus.calculus_many(np.insert(rz, 1, 0.0, axis=1))[1])
    assert np.array_equal(disc.calculus_many(rz)[0],
                          plain.calculus_many(rz)[0])


def test_axisymmetric_distance_consistency():
    torus = Torus(3.0, 1.0)
    disc = torus.section
    assert disc.distance([3.5, 0.0]) == pytest.approx(torus.distance([3.5, 0, 0]))
    rng = np.random.RandomState(0)
    pts = rng.uniform([2.2, -0.7], [3.8, 0.7], size=(50, 2))
    inside = disc.distance_many(pts) > 0
    for r, z in pts[inside]:
        p3 = [r * np.cos(0.7), r * np.sin(0.7), z]
        assert disc.distance([r, z]) == pytest.approx(torus.distance(p3), abs=1e-12)


def test_axisymmetric_reduction_self_consistent():
    # the weighted cross-section problem converges at the P1 rate, so the
    # reduction is internally consistent across nested resolutions
    from hardyspec import FormSpec, assemble_pencil, smallest_eigenpairs
    mesh = build_trimesh(Torus(3.0, 1.0).section, 0.25, 1.0)
    vals = []
    for level in range(3):
        if level:
            mesh = refine_trimesh(mesh)
        pencil = assemble_pencil(mesh, FormSpec(a=1.0, q=0.0), 1.0)
        vals.append(smallest_eigenpairs(pencil, 1).eigenvalues[0])
    rate = np.log2((vals[0] - vals[1]) / (vals[1] - vals[2]))
    assert 1.8 <= rate <= 2.2


def _mesh_text_oracle(mesh):
    """Oracle: the row-by-row formatting of numpy values that
    format_mesh_text replaced."""
    lines = []
    if mesh.dim == 1:
        bnd = sorted(mesh.node_tags.items())
        lines.append(f"1 {mesh.n_nodes} {len(mesh.elements)} {len(bnd)}")
        lines.extend(repr(float(x)) for x in mesh.nodes)
        lines.extend(f"{i} {j}" for i, j in mesh.elements)
        lines.extend(f"{i} {tag}" for i, tag in bnd)
    else:
        lines.append(f"2 {mesh.n_nodes} {len(mesh.elements)} {len(mesh.boundary_edges)}")
        lines.extend(f"{repr(float(x))} {repr(float(y))}" for x, y in mesh.points)
        lines.extend(f"{a} {b} {c}" for a, b, c in mesh.elements)
        lines.extend(f"{i} {j} {tag}" for i, j, tag in mesh.boundary_edges)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def export_meshes():
    return [build_mesh_1d(Interval(0, 1), 4, 1.0),
            build_mesh_1d(Interval(0, 1), 64, 0.5),
            build_trimesh(ConvexPolygon(UNIT_SQUARE), 0.25, 1.0),
            build_trimesh(Disc((0, 0), 1.0), 0.1, 0.5)]


def test_mesh_text_matches_oracle(export_meshes):
    for mesh in export_meshes:
        assert format_mesh_text(mesh) == _mesh_text_oracle(mesh)


def test_mesh_text_format(export_meshes):
    # the text reads back to the same points (bit for bit), elements and
    # tagged boundary
    for mesh in export_meshes:
        head, *body = format_mesh_text(mesh).rstrip("\n").split("\n")
        dim, n_nodes, n_el, n_bnd = map(int, head.split())
        assert (dim, n_nodes) == (mesh.dim, mesh.n_nodes)
        assert len(body) == n_nodes + n_el + n_bnd
        rows = [ln.split(" ") for ln in body]
        points = np.array(rows[:n_nodes], dtype=float)
        assert np.array_equal(points.view(np.int64),
                              np.ascontiguousarray(mesh.points).view(np.int64))
        assert np.array_equal(np.array(rows[n_nodes:n_nodes + n_el], dtype=int),
                              mesh.elements)
        boundary = [(*map(int, r[:-1]), r[-1]) for r in rows[n_nodes + n_el:]]
        assert boundary == (sorted(mesh.node_tags.items()) if dim == 1
                            else mesh.boundary_edges)
