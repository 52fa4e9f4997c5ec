import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from hardyspec import (Annulus, ConvexPolygon, Disc, Interval, Mesh,
                       Torus, TorusSection, build_mesh_1d, build_trimesh,
                       mesh_1d_with_level, refine_mesh_1d, refine_trimesh,
                       restrict_to_strip)
from hardyspec import meshing
from hardyspec.errors import (InvalidGrading, InvalidParameter, MeshGenerationFailure,
                              StripTooThin)
from hardyspec.eigensolve import smallest_eigenpairs
from hardyspec.forms import FormSpec, assemble_pencil
from hardyspec.hardy import hardy_pencil
from hardyspec.meshing import (_boundary_polyline,
                               _geometric_side_sizes, _layer_depths, _ring_mesh,
                               feasible_grading, format_mesh_text, grading_floor,
                               nested, require_ladder_budget)
from hardyspec.spectral import ProblemSpec, strip_mesh

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_uniform_1d_nodes():
    mesh = build_mesh_1d(Interval(0, 1), 4, 1.0)
    assert_allclose(mesh.points[:, 0], [0, 0.25, 0.5, 0.75, 1])


def test_graded_1d_nodes():
    mesh = build_mesh_1d(Interval(0, 1), 4, 0.5)
    assert_allclose(mesh.points[:, 0], [0, 1 / 6, 0.5, 5 / 6, 1], atol=1e-15)


def test_two_elements_any_grading():
    for g in (0.2, 0.7, 1.0):
        mesh = build_mesh_1d(Interval(0, 1), 2, g)
        assert_allclose(mesh.points[:, 0], [0, 0.5, 1])


def test_invalid_grading():
    with pytest.raises(InvalidGrading):
        build_mesh_1d(Interval(0, 1), 4, 0.0)
    with pytest.raises(InvalidGrading):
        build_mesh_1d(Interval(0, 1), 4, 1.5)
    with pytest.raises(InvalidGrading):
        build_mesh_1d(Interval(0, 1), 5, 0.5)  # odd count cannot be symmetric
    with pytest.raises(InvalidGrading):
        build_mesh_1d(Interval(0, 1), 4, float("nan"))


def test_underflowing_grading_is_clamped():
    # 2048 geometric layers per side at 0.15 underflow float64 near x = 1:
    # the builder takes the steepest grading that keeps the floor
    iv = Interval(0, 1)
    floor = grading_floor(iv, 0)
    g = feasible_grading(0.15, 2048, 0.5, floor)
    assert 0.15 < g < 1
    mesh = build_mesh_1d(iv, 4096, 0.15)
    assert mesh.points.tobytes() == build_mesh_1d(iv, 4096, g).points.tobytes()
    sizes = mesh.element_sizes()
    assert sizes[1] / sizes[0] == pytest.approx(1 / g, rel=1e-9)
    # up to the rounding of the node coordinates, a few ulps of the scale
    slack = 8 * np.spacing(1.0)
    assert sizes.min() >= floor - slack
    # each bisection of room doubles the floor
    fine = build_mesh_1d(iv, 4096, 0.15, bisections=4)
    assert fine.element_sizes().min() >= 16 * floor - slack


@st.composite
def _graded_inputs(draw):
    """An interval, a requested grading and a bisection count whose uniform
    mesh, two-sided (n elements) or one-sided (n_strip elements on each
    boundary strip of width `level`), clears the grading floor."""
    a = draw(st.floats(-1e3, 1e3))
    iv = Interval(a, a + draw(st.floats(1e-3, 1e3)))
    bisections = draw(st.integers(0, 8))
    floor = grading_floor(iv, bisections)
    half = (iv.b - iv.a) / 2
    n = 2 * draw(st.integers(1, 2048))
    n_strip = draw(st.integers(1, 512))
    level = draw(st.sampled_from([1.0, 0.5, 0.1, 0.01])) * half
    assume((iv.b - iv.a) / n >= floor and level / n_strip >= floor)
    grading = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0, exclude_min=True)))
    return iv, grading, bisections, floor, n, n_strip, level


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(inputs=_graded_inputs())
def test_1d_builders_keep_the_grading_floor(inputs):
    iv, grading, bisections, floor, n, n_strip, level = inputs
    slack = 8 * np.spacing(max(1.0, abs(iv.a), abs(iv.b)))
    mesh = build_mesh_1d(iv, n, grading, bisections=bisections)
    assert mesh.element_sizes().min() >= floor - slack
    mesh = mesh_1d_with_level(iv, level, n_strip, grading, bisections=bisections)
    assert mesh.element_sizes().min() >= floor - slack


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


def test_uniform_side_sizes():
    # the geometric law at ratio 1 is the uniform one, bitwise, through the
    # first size's own uniform branch: feasible_grading's bisection reaches
    # 1.0 from one ulp below, where the general formula divides 0 by 0
    assert 0.5 * (np.nextafter(1.0, 0.0) + 1.0) == 1.0
    for half, m in ((0.5, 8), (1.0 / 3.0, 7), (2.5, 48)):
        assert np.array_equal(_geometric_side_sizes(half, m, 1.0), np.full(m, half / m))


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


@pytest.mark.parametrize("build", [
    # sizes whose arrays numpy itself refuses to allocate
    lambda: build_trimesh(Disc((0, 0), 1.0), 1e-300),
    lambda: build_trimesh(Disc((0, 0), 1.0), 0.0625, 1e-300),
    lambda: build_mesh_1d(Interval(0, 1), 2**62),
    lambda: mesh_1d_with_level(Interval(0, 1), 0.25, 2**62),
    # a width 1e-4 rectangle: its rings run the length of the long side,
    # 3e9 triangles, though its area over h^2 is only 1.6e5
    lambda: build_trimesh(ConvexPolygon([(0, 0), (1, 0), (1, 1e-4), (0, 1e-4)]), 2.5e-5),
    lambda: build_trimesh(Annulus((0, 0), 0.5, 1.0), 1e-4)])
def test_work_budget_refuses_before_building(build):
    with pytest.raises(MeshGenerationFailure, match="budget"):
        build()


def test_work_budget_counts_the_ring_template(monkeypatch):
    # the 2D count is within a factor 2 of the triangles built, on the
    # bench's hardy-disc mesh, an oblong polygon and a thin annulus, and on
    # strips, whose rings stop just past the reach
    oblong = ConvexPolygon([(0, 0), (4, 0), (4, 1), (0, 1)])
    for domain, h, grading, reach in ((Disc((0, 0), 1.0), 0.0625, 0.5, None),
                                      (oblong, 0.02, 1.0, None),
                                      (Annulus((0, 0), 0.9, 1.0), 0.005, 1.0, None),
                                      (oblong, 0.03125, 1.0, 0.25),
                                      (oblong, 0.03125, 0.3, 0.125),
                                      (Annulus((0, 0), 0.5, 1.0), 0.015625, 1.0, 0.125)):
        monkeypatch.undo()
        built = len(build_trimesh(domain, h, grading, reach).elements)
        monkeypatch.setattr(meshing, "MAX_ELEMENTS", 2 * built)
        build_trimesh(domain, h, grading, reach)
        monkeypatch.setattr(meshing, "MAX_ELEMENTS", built // 2)
        with pytest.raises(MeshGenerationFailure, match="budget"):
            build_trimesh(domain, h, grading, reach)
    # the 1D counts are exact
    monkeypatch.setattr(meshing, "MAX_ELEMENTS", 64)
    build_mesh_1d(Interval(0, 1), 64)
    assert len(mesh_1d_with_level(Interval(0, 1), 0.25, 31).elements) == 63
    with pytest.raises(MeshGenerationFailure, match="budget"):
        build_mesh_1d(Interval(0, 1), 66)
    with pytest.raises(MeshGenerationFailure, match="budget"):
        mesh_1d_with_level(Interval(0, 1), 0.25, 32)


def test_ladder_budget_counts_the_finest_level():
    # 10^6 = 15625 * 4^3 = 15625 * 2^6: the count is exact at the budget
    for elements, dim, levels, steps in ((15625, 2, 4, 1), (15625, 1, 7, 1),
                                         (15625, 2, 2, 3), (10**6, 2, 1, 5)):
        require_ladder_budget(elements, dim, levels, steps)
        with pytest.raises(MeshGenerationFailure, match="budget"):
            require_ladder_budget(elements + 1, dim, levels, steps)
    # a shift past the budget's bit length is not taken, so any level
    # count is refused in O(1)
    for levels in (21, 2**62, 10**30):
        with pytest.raises(MeshGenerationFailure, match="budget"):
            require_ladder_budget(1, 1, levels)


def test_nested_refuses_before_its_first_refinement(monkeypatch):
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.25)
    finest = len(mesh.elements) * 4**2
    assert len(list(nested(mesh, 3))[-1][0].elements) == finest
    refined = []
    monkeypatch.setattr(meshing, "refine_trimesh", lambda m: refined.append(m))
    monkeypatch.setattr(meshing, "MAX_ELEMENTS", finest - 1)
    with pytest.raises(MeshGenerationFailure, match="3 levels of 1 refinements"):
        next(nested(mesh, 3))
    assert refined == []


def test_unknown_end_tag_refused():
    # any tag but dirichlet or robin used to clamp its end silently
    for tags in (("Robin", "dirichlet"), ("neumann", "robin"), ("robin",)):
        with pytest.raises(InvalidParameter, match="two end tags"):
            build_mesh_1d(Interval(0, 1), 8, tags=tags)


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
        assert np.all(mesh.node_d[mesh.facets] < 1e-12)


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
    sub = restrict_to_strip(mesh, 0.25)
    bary = sub.barycenters()
    d = np.minimum(bary, 1 - bary)
    assert np.all(d < 0.25)
    # two disjoint pieces on either side of the removed core
    assert max(sub.points[:, 0]) > 0.75 and min(sub.points[:, 0]) < 0.25
    # clamped: endpoints plus both interface nodes
    clamped_x = sorted(sub.points[sub.clamped, 0])
    assert clamped_x[0] == 0.0 and clamped_x[-1] == 1.0
    interface = [x for x in clamped_x if 0 < x < 1]
    assert len(interface) == 2
    assert interface[0] == pytest.approx(0.25, abs=0.08)
    assert interface[1] == pytest.approx(0.75, abs=0.08)


def test_restrict_whole_mesh():
    mesh = build_mesh_1d(Interval(0, 1), 64, 0.85)
    sub = restrict_to_strip(mesh, 0.5)
    assert len(sub.elements) == 64
    # the midpoint sits on the inner interface and is clamped
    mid = int(np.argmin(np.abs(sub.points[:, 0] - 0.5)))
    assert sub.clamped[mid]


def test_strip_too_thin():
    mesh = build_mesh_1d(Interval(0, 1), 16, 1.0)
    with pytest.raises(StripTooThin):
        restrict_to_strip(mesh, 0.01)
    # a width outside (0, sup d] is refused
    for delta in (0.0, -0.25, 0.5 + 1e-9):
        with pytest.raises(StripTooThin):
            restrict_to_strip(mesh, delta)
        # the interval strip's own mesh refuses such a level first
        with pytest.raises(StripTooThin):
            mesh_1d_with_level(Interval(0, 1), delta, 16)


def test_strip_nesting():
    mesh = build_mesh_1d(Interval(0, 1), 128, 0.85)
    inner = restrict_to_strip(mesh, 0.125)
    outer = restrict_to_strip(mesh, 0.25)
    inner_elems = {(round(mesh_x, 14), round(mesh_y, 14))
                   for mesh_x, mesh_y in inner.points[inner.elements, 0]}
    outer_elems = {(round(mesh_x, 14), round(mesh_y, 14))
                   for mesh_x, mesh_y in outer.points[outer.elements, 0]}
    assert inner_elems <= outer_elems


def test_restrict_trimesh():
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.05, 1.0)
    sub = restrict_to_strip(mesh, 0.3)
    d = np.maximum(mesh.domain.distance_many(sub.barycenters()), 0)
    assert np.all(d < 0.3)
    assert np.all(sub.areas() > 0)
    assert np.any(sub.clamped & (sub.node_d > 0.2))  # the cut interface is clamped


def _restrict_oracle(mesh, delta):
    """Oracle: the strip of `restrict_to_strip` cut with sorts, np.unique
    for the kept nodes and np.isin for the interface."""
    elems = mesh.elements
    bary_d = np.maximum(mesh.domain.distance_many(mesh.barycenters()), 0.0)
    keep = (bary_d > 0) & (bary_d < delta)
    kept_elems = elems[keep]
    used = np.unique(kept_elems)
    index = np.full(mesh.n_nodes, -1)
    index[used] = np.arange(len(used))
    node_d = mesh.node_d[used]
    interface = np.isin(used, elems[~keep]) | (node_d >= delta - mesh.domain.length_tol())
    facets = index[mesh.facets]
    kept_f = (facets >= 0).all(axis=1)
    return Mesh(mesh.points[used], index[kept_elems], facets[kept_f], mesh.robin[kept_f],
                mesh.domain, mesh.clamped[used] | interface, node_d)


def test_restrict_matches_sort_oracle():
    disc_strip = restrict_to_strip(build_trimesh(Disc((0, 0), 1.0), 0.05, 1.0), 0.3)
    torus = Torus(3.0, 1.0).section
    cases = [
        (mesh_1d_with_level(Interval(0, 1), 0.25, 96, 0.15, bisections=6), 0.25),
        (build_mesh_1d(Interval(0, 1), 64, 0.8, tags=("robin", "dirichlet")), 0.25),
        (build_trimesh(Disc((0.3, -0.2), 0.7), 0.05, 0.5), 0.2),
        # a band from each circle
        (build_trimesh(Annulus((0.2, 0.1), 0.5, 1.5), 0.05, 1.0), 0.25),
        (build_trimesh(ConvexPolygon([(0, 0), (4, 0), (4, 1), (0, 1)]), 0.05, 1.0), 0.2),
        (build_trimesh(torus, 1 / 24, 1.0, reach=1 / 3), 1 / 3),
        # the cut interface of the coarser strip stays clamped
        (refine_trimesh(disc_strip), 0.15),
    ]
    for mesh, delta in cases:
        sub, oracle = restrict_to_strip(mesh, delta), _restrict_oracle(mesh, delta)
        assert 0 < len(sub.elements) < len(mesh.elements)
        assert sub.clamped.any() and not sub.clamped.all()
        _assert_same_mesh(sub, oracle)


def _ring_mesh_loop(domain, h, grading):
    """Oracle: the ring template, one triangle at a time."""
    spacing = h * (0.75 * grading if grading < 1 else 1.0)
    loop = _boundary_polyline(domain, spacing)
    m = len(loop)
    center = domain.chebyshev_center() if isinstance(domain, ConvexPolygon) else domain.center
    depth = float(np.linalg.norm(loop - center, axis=1).max())
    if isinstance(domain, Annulus):
        half = (domain.r_out - domain.r_in) / 2
        lo = list(_layer_depths(half, h, grading))
        levels = np.array(lo + [half] + [2 * half - t for t in reversed(lo)])
    else:
        levels = _layer_depths(depth, h, grading)
    rings = [center + s * (loop - center) for s in 1.0 - levels / depth]
    tris = []
    for k in range(len(rings) - 1):
        base0, base1 = k * m, (k + 1) * m
        for i in range(m):
            j = (i + 1) % m
            tris.append((base0 + i, base0 + j, base1 + j))
            tris.append((base0 + i, base1 + j, base1 + i))
    facets = [(i, (i + 1) % m) for i in range(m)]
    base = (len(rings) - 1) * m
    if isinstance(domain, Annulus):
        # the inner circle is the last ring
        facets += [(base + i, base + (i + 1) % m) for i in range(m)]
    else:
        # the last ring fans onto the center
        for i in range(m):
            tris.append((base + i, base + (i + 1) % m, len(rings) * m))
        rings.append(center[None, :])
    points = np.vstack(rings)
    clamped = np.zeros(len(points), dtype=bool)
    for i, j in facets:
        clamped[i] = clamped[j] = True
    return Mesh(points, np.asarray(tris, dtype=int), np.asarray(facets, dtype=int),
                np.zeros(len(facets), dtype=bool), domain, clamped)


def _assert_same_mesh(new, old):
    for field in ("points", "elements", "facets", "robin", "clamped", "node_d"):
        assert getattr(new, field).dtype == getattr(old, field).dtype, field
        assert np.array_equal(getattr(new, field), getattr(old, field)), field


def test_templates_match_loop_oracles():
    for domain in (Disc((0.3, -0.2), 0.7),
                   ConvexPolygon([(0, 0), (2, 0), (2.5, 1), (0.5, 1.5)]),
                   Annulus((0.5, -0.5), 0.5, 1.5)):
        for h, grading in ((0.1, 1.0), (0.05, 0.5), (0.15, 0.3)):
            _assert_same_mesh(_ring_mesh(domain, h, grading),
                                 _ring_mesh_loop(domain, h, grading))


STRIP_DOMAINS = (Disc((0, 0), 1.0), Disc((0.3, -0.2), 0.7), Torus(3.0, 1.0),
                 ConvexPolygon([(0, 0), (2, 0), (2.5, 1), (0.5, 1.5)]),
                 Annulus((0.2, 0.1), 0.5, 1.5), ConvexPolygon(UNIT_SQUARE),
                 ConvexPolygon([(0, 0), (3, 0), (3, 1), (0, 1)]))


@pytest.mark.parametrize("domain", STRIP_DOMAINS,
                         ids=("disc", "off_centre_disc", "torus", "skewed_quad",
                              "annulus", "unit_square", "rectangle_3x1"))
def test_truncated_strip_matches_whole_mesh(domain):
    # the ring template stops one ring beyond 1/k, from each circle of an
    # annulus; cutting the strip from the whole section must give the same
    # mesh, bitwise
    section = domain.section
    for k in range(2, 13):
        problem = ProblemSpec(domain, FormSpec(a=1.0, q=0.0), 0.5, ks=(k,))
        h = max(1 / (8 * k), section.interior_diameter() / 256)
        try:
            oracle = restrict_to_strip(build_trimesh(section, h, 1.0), 1 / k)
        except (StripTooThin, ValueError) as exc:
            with pytest.raises(type(exc)):
                strip_mesh(problem, k)
            continue
        _assert_same_mesh(strip_mesh(problem, k), oracle)


def test_annulus_reach_builds_two_bands():
    # with a reach, an annulus grows one band from each circle; the rings
    # between the bands are never built and their distances never evaluated
    annulus = Annulus((0.2, 0.1), 0.5, 1.5)
    measured = []
    distance_many = annulus.distance_many
    annulus.distance_many = lambda pts: measured.append(len(pts)) or distance_many(pts)
    h, reach = 1 / 96, 1 / 12
    mesh = build_trimesh(annulus, h, 1.0, reach=reach)
    assert sum(measured) == mesh.n_nodes
    assert mesh.node_d.max() <= reach + h + 1e-12
    assert mesh.n_nodes < build_trimesh(annulus, h, 1.0).n_nodes
    rho = np.linalg.norm(mesh.points - annulus.center, axis=1)
    on = np.unique(mesh.facets)
    assert np.sum(rho[on] < 1.0) == np.sum(rho[on] > 1.0) == len(on) // 2


def test_mesh_with_level_has_exact_node():
    mesh = mesh_1d_with_level(Interval(0, 1), 0.25, 32, 0.5)
    x = mesh.points[:, 0]
    assert 0.25 in x
    assert 0.75 in x
    assert x[0] == 0.0 and x[-1] == 1.0


def test_refine_1d_nested():
    mesh = build_mesh_1d(Interval(0, 1), 8, 0.5)
    fine = refine_mesh_1d(mesh)
    assert len(fine.elements) == 16
    assert set(np.round(mesh.points[:, 0], 15)) <= set(np.round(fine.points[:, 0], 15))
    assert fine.clamped[0]


def test_refine_trimesh_quadruples():
    mesh = build_trimesh(ConvexPolygon(UNIT_SQUARE), 0.25, 1.0)
    fine = refine_trimesh(mesh)
    assert len(fine.elements) == 4 * len(mesh.elements)
    assert fine.total_measure() == pytest.approx(1.0, rel=1e-12)
    assert np.all(fine.areas() > 0)


def test_refine_trimesh_snaps_curved_boundary():
    mesh = build_trimesh(Disc((0, 0), 1.0), 0.2, 1.0)
    fine = refine_trimesh(mesh)
    assert np.all(fine.node_d[fine.facets] < 1e-12)


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
    facets, robin = [], []
    for (i, j), is_robin in zip(mesh.facets.tolist(), mesh.robin.tolist()):
        mid = midpoint(i, j, snap_target(i, j))
        facets.extend([(i, mid), (mid, j)])
        robin.extend([is_robin, is_robin])
    # old nodes keep their clamping; a clamped facet's midpoint is clamped
    clamped = mesh.clamped.tolist() + [False] * (len(pts) - mesh.n_nodes)
    for (i, mid), is_robin in zip(facets[::2], robin[::2]):
        if not is_robin:
            clamped[mid] = True
    return Mesh(np.asarray(pts), np.asarray(tris, dtype=int), np.asarray(facets, dtype=int),
                np.asarray(robin), mesh.domain, np.asarray(clamped))


def test_refine_trimesh_matches_dict_oracle():
    # the last triangle of the fan is missing, so boundary edge (3, 0)
    # borders no element and its midpoint is numbered after all others
    square = ConvexPolygon(UNIT_SQUARE)
    fan = Mesh(np.vstack([UNIT_SQUARE, [(0.5, 0.5)]]).astype(float),
               np.array([(0, 1, 4), (1, 2, 4), (2, 3, 4)]),
               np.array([(i, (i + 1) % 4) for i in range(4)]), np.zeros(4, dtype=bool),
               square)
    meshes = [fan,
              build_trimesh(Disc((0, 0), 1.0), 0.25, 1.0),
              build_trimesh(Disc((0.3, -0.2), 0.7), 0.15, 0.5),
              build_trimesh(Annulus((0, 0), 0.5, 1.0), 0.12, 0.5),
              build_trimesh(square, 0.25, 1.0),
              build_trimesh(ConvexPolygon([(0, 0), (2, 0), (0.5, 1.5)]), 0.2, 0.5),
              restrict_to_strip(build_trimesh(Disc((3, 0), 1.0), 0.1, 1.0), 0.3),
              # two bands, with boundary edges on both circles
              strip_mesh(ProblemSpec(Annulus((0.1, 0), 0.25, 0.5), FormSpec(a=1.0, q=0.0),
                                     0.5, ks=(10,)), 10)]
    for mesh in meshes:
        new = old = mesh
        for _ in range(2):
            new, old = refine_trimesh(new), _refine_trimesh_dict(old)
            _assert_same_mesh(new, old)


def test_refine_mixed_boundary_keeps_clamping():
    # half the square's edges Robin, half clamped: a node clamped before
    # refinement stays clamped (the junctions included), a clamped facet's
    # midpoint is clamped and a Robin facet's is free
    mesh = build_trimesh(ConvexPolygon(UNIT_SQUARE), 0.25, 1.0)
    mesh = replace(mesh, robin=np.arange(len(mesh.facets)) % 2 == 0, clamped=None)
    assert mesh.robin.sum() == len(mesh.facets) // 2 and mesh.clamped.any()
    for _ in range(2):
        fine = refine_trimesh(mesh)
        assert np.array_equal(fine.clamped[:mesh.n_nodes], mesh.clamped)
        mids = fine.facets[::2, 1]
        assert np.array_equal(fine.clamped[mids], ~mesh.robin)
        new = np.ones(fine.n_nodes, dtype=bool)
        new[:mesh.n_nodes] = False
        new[mids] = False
        assert not fine.clamped[new].any()
        _assert_same_mesh(fine, _refine_trimesh_dict(mesh))
        mesh = fine


def _lift(u, parents):
    for p in parents:
        u = 0.5 * (u[p[:, 0]] + u[p[:, 1]])
    return u


def test_parents_lift_linear_functions():
    torus_disc = Torus(3.0, 1.0).section
    meshes = [build_mesh_1d(Interval(0, 1), 32, 0.5),
              build_trimesh(Disc((0.3, -0.2), 0.7), 0.15, 0.5),
              restrict_to_strip(build_trimesh(torus_disc, 0.1, 1.0), 0.3)]
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
    tags = ["robin" if r else "dirichlet" for r in mesh.robin]
    lines.append(f"{mesh.dim} {mesh.n_nodes} {len(mesh.elements)} {len(mesh.facets)}")
    if mesh.dim == 1:
        lines.extend(repr(float(x)) for (x,) in mesh.points)
        lines.extend(f"{i} {j}" for i, j in mesh.elements)
        lines.extend(f"{i} {tag}" for (i,), tag in zip(mesh.facets, tags))
    else:
        lines.extend(f"{repr(float(x))} {repr(float(y))}" for x, y in mesh.points)
        lines.extend(f"{a} {b} {c}" for a, b, c in mesh.elements)
        lines.extend(f"{i} {j} {tag}" for (i, j), tag in zip(mesh.facets, tags))
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


def test_mesh_text_digests_pinned(export_meshes):
    # sha256 of the text, recorded from the format before meshes kept their
    # boundary as facet arrays; a 1D strip is left out, as its text no
    # longer lists the clamped interface nodes
    robin_end = build_mesh_1d(Interval(0, 1), 64, 0.8, tags=("robin", "dirichlet"))
    annulus_strip = restrict_to_strip(build_trimesh(Annulus((0.2, 0.1), 0.5, 1.5),
                                                    0.1, 1.0), 0.25)
    meshes = export_meshes + [robin_end,
                              refine_trimesh(refine_trimesh(annulus_strip))]
    digests = [hashlib.sha256(format_mesh_text(m).encode()).hexdigest() for m in meshes]
    assert digests == [
        "bd3a462eddbba1ded206d5429bc282604cd737a1d18afc433e423f0a29ab9f26",
        "67e5a2e90b6df7d2e641d71a895951602a173f1306ab11aac4527ad679cd1400",
        "b5839774068b81c05ec5865324911fc0358254d5872a34d98a785ea8bd37b7c3",
        "e5485a9021c5d2120f24adc0d147daae37bf98021330a41a415ff7d77a932642",
        "90a04810e8796ff5cc2f378dcbed7ef1269743482319a2844e21933f104ff3cc",
        "cbd034fb4607b477baf4d903c2af8755b127e1fcb8b10288614f50759ab97b15",
    ]


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
        assert boundary == [(*f, "robin" if r else "dirichlet")
                            for f, r in zip(mesh.facets.tolist(), mesh.robin)]
