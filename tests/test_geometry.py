import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hardyspec import (Annulus, ConvexPolygon, Disc, Interval, Torus,
                       superharmonicity_scan)
from hardyspec.errors import InvalidParameter, PointOutsideDomain
from hardyspec.geometry import RIDGE_TOL
from hardyspec.report import jsonable

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_interval_distance():
    iv = Interval(0, 1)
    assert iv.distance(0.3) == 0.3
    assert iv.distance(0.9) == pytest.approx(0.1)
    assert iv.distance(0.0) == 0.0


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.5, 2.0), (1000.0, 1001.0)])
def test_interval_calculus_is_bitwise_the_two_ends(a, b):
    # d, grad d and the ridge mask are the min(x - a, b - x) formulas they
    # replaced, signed zeros included, at both ends, the midpoint and their
    # float neighbours
    marks = [a, b, 0.5 * (a + b)]
    x = np.concatenate([marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf),
                        np.random.default_rng(1).uniform(a, b, 200)])
    left, right = x - a, b - x
    iv = Interval(a, b)
    grad, neg_lap, ridge = iv.calculus_many(x)
    assert np.array_equal(iv.distance_many(x).view(np.int64),
                          np.minimum(left, right).view(np.int64))
    assert np.array_equal(grad.view(np.int64),
                          np.where(left <= right, 1.0, -1.0)[:, None].view(np.int64))
    assert np.array_equal(neg_lap.view(np.int64), np.zeros(len(x)).view(np.int64))
    assert np.array_equal(ridge, np.abs(left - right) < RIDGE_TOL)
    assert not np.signbit(iv.distance(b)) and not np.signbit(iv.distance(a))


def _segment_distance(p, a, b):
    """Distance from p to the segment [a, b] in mpmath, from float inputs."""
    p, a, b = ([mpmath.mpf(float(c)) for c in q] for q in (p, a, b))
    e = [b[0] - a[0], b[1] - a[1]]
    r = [p[0] - a[0], p[1] - a[1]]
    t = min(max((r[0] * e[0] + r[1] * e[1]) / (e[0]**2 + e[1]**2), 0), 1)
    return mpmath.sqrt((r[0] - t * e[0])**2 + (r[1] - t * e[1])**2)


@pytest.mark.parametrize("vertices", [
    [(0, 0), (1, 0), (0.3, 0.8)], [(0, 0), (2, 0), (3, 1), (1, 2)],
    [(0, 0), (1.5, -0.2), (2.4, 0.7), (2.1, 1.9), (0.6, 2.2), (-0.4, 1.1)],
    [(1000, 1000), (1002, 1000), (1003, 1001), (1001, 1002)]])
def test_polygon_distance_against_mpmath_segments(vertices):
    # inside, the least facet distance is the least segment distance: within
    # one ulp of the diameter of a 40-digit reference, offset polygon included
    poly = ConvexPolygon(vertices)
    v = poly.vertices
    rng = np.random.default_rng(7)
    weights = rng.dirichlet(np.ones(len(v)), 60)
    edge = rng.integers(len(v), size=40)
    near = (v[edge] + rng.uniform(0, 1, 40)[:, None] * (np.roll(v, -1, axis=0)[edge] - v[edge])
            + 1e-9 * poly._normals[edge])
    pts = np.vstack([weights @ v, near])
    d = poly.distance_many(pts)
    with mpmath.workdps(40):
        ref = [min(_segment_distance(p, v[i], v[(i + 1) % len(v)]) for i in range(len(v)))
               for p in pts]
        err = max(abs(mpmath.mpf(float(di)) - r) for di, r in zip(d, ref))
    assert err <= np.spacing(poly.diameter())


def test_disc_distance():
    disc = Disc((0, 0), 1.0)
    assert disc.distance([0.5, 0.0]) == 0.5


def test_radial_distances_match_norm_oracle():
    # bitwise the row-wise np.linalg.norm that the radius used to be
    rng = np.random.default_rng(5)
    center = np.array([0.5, -0.25])
    pts = np.concatenate([rng.uniform(-3.0, 4.0, (2000, 2)),
                          rng.normal(center, 1e-9, (200, 2)),
                          [center, [2.5, -0.25], [0.5, 1e-300]]])
    rho = np.linalg.norm(pts - center, axis=1)
    got = Disc(center, 2.0).distance_many(pts)
    assert np.array_equal(got.view(np.int64), (2.0 - rho).view(np.int64))
    got = Annulus(center, 0.5, 2.0).distance_many(pts)
    want = np.minimum(rho - 0.5, 2.0 - rho)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_point_outside_raises():
    with pytest.raises(PointOutsideDomain):
        Interval(0, 1).distance(1.5)
    with pytest.raises(PointOutsideDomain):
        Disc((0, 0), 1.0).distance([2.0, 0.0])


@pytest.mark.parametrize("domain, point", [
    (Interval(0, 1), [np.nan]), (Interval(0, 1), [np.inf]),
    (Disc((0, 0), 1.0), [0.1, np.nan]), (Torus(3.0, 1.0), [3.0, np.nan, 0.0]),
    (Torus(3.0, 1.0), [-np.inf, 0.0, 0.0])])
def test_non_finite_point_refused(domain, point):
    # a NaN coordinate read d = NaN, which the report wrote as invalid JSON
    for query in (domain.distance, domain.distance_calculus):
        with pytest.raises(InvalidParameter, match="point must be finite"):
            query(point)


def test_outside_tolerance_scales_with_the_domain():
    # an absolute 1e-12 let a point five radii outside a tiny disc read d = 0
    with pytest.raises(PointOutsideDomain):
        Disc((0, 0), 1e-13).distance((6e-13, 0))
    # and refused rounded boundary points of a large one as outside
    big = Disc((0, 0), 1e6)
    th = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
    for p in 1e6 * np.column_stack([np.cos(th), np.sin(th)]):
        assert 0.0 <= big.distance(p) < 1e-9
    with pytest.raises(PointOutsideDomain):
        big.distance((1e6 + 1e-3, 0))


def test_torus_distance_against_boundary_sampling():
    # brute-force minimum over a dense boundary sample
    torus = Torus(3.0, 1.0)
    p = np.array([3.5, 0.0, 0.0])
    assert torus.distance(p) == pytest.approx(0.5, abs=1e-12)

    th = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
    ph = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    r = 3.0 + np.cos(pp)
    bx = r * np.cos(tt)
    by = r * np.sin(tt)
    bz = np.sin(pp)
    dmin = np.sqrt((bx - p[0]) ** 2 + (by - p[1]) ** 2 + (bz - p[2]) ** 2).min()
    assert abs(dmin - 0.5) < 1e-4


def test_interval_calculus():
    ev = Interval(0, 1).distance_calculus(0.3)
    assert ev.grad_d == 1.0
    assert ev.neg_laplacian_d == 0.0
    assert ev.provenance == "closed_form"
    assert not ev.near_ridge


def test_disc_calculus():
    ev = Disc((0, 0), 1.0).distance_calculus([0.5, 0.0])
    assert ev.neg_laplacian_d == pytest.approx(2.0)
    assert_allclose(ev.grad_d, [-1.0, 0.0], atol=1e-15)


def test_torus_neg_laplacian_closed_form():
    torus = Torus(3.0, 1.0)
    ev = torus.distance_calculus([3.5, 0.0, 0.0])
    assert ev.neg_laplacian_d == pytest.approx((2 * 3.5 - 3) / (3.5 * 0.5))
    fd = torus.distance_calculus([3.5, 0.0, 0.0], h=1e-4,
                                 method="finite_difference")
    assert abs(ev.neg_laplacian_d - fd.neg_laplacian_d) < 1e-6
    assert fd.provenance == "finite_difference"


def test_finite_difference_default_step():
    # the default step is 1e-4 D_int: 2e-4 on the unit disc, 1e-4 on [0, 1]
    for dom, p, h in ((Disc((0, 0), 1.0), [0.5, 0.2], 2e-4), (Interval(0, 1), 0.3, 1e-4)):
        fd = dom.distance_calculus(p, method="finite_difference")
        step = dom.distance_calculus(p, h=h, method="finite_difference")
        assert np.array_equal(fd.grad_d, step.grad_d)
        assert fd.neg_laplacian_d == step.neg_laplacian_d
        exact = dom.distance_calculus(p)
        assert_allclose(fd.grad_d, exact.grad_d, atol=1e-8)
        assert fd.neg_laplacian_d == pytest.approx(exact.neg_laplacian_d, abs=1e-5)


def _off_ridge_samples(dom, rng, n):
    """n random interior points with d > 0.05 and at least 0.01 away from
    the medial axis, where the fixed-step differences stay smooth."""
    if isinstance(dom, Interval):
        x = rng.uniform(0.05, 0.95, 4 * n)
        return x[np.abs(x - 0.5) > 0.01][:n, None]
    lo, hi = {Disc: (-2.0, 2.0), Annulus: (-1.5, 1.5), ConvexPolygon: (0.0, 1.0),
              Torus: (-4.0, 4.0)}[type(dom)]
    pts = rng.uniform(lo, hi, (40 * n, dom.dim))
    d = dom.distance_many(pts)
    if isinstance(dom, Disc):
        gap = np.linalg.norm(pts - dom.center, axis=1)
    elif isinstance(dom, Annulus):
        gap = np.abs(np.linalg.norm(pts - dom.center, axis=1) - 1.0)
    elif isinstance(dom, ConvexPolygon):
        seg = np.sort(dom._facet_distances(pts), axis=0)
        gap = seg[1] - seg[0]
    else:
        gap = dom.R - d
    # the 1/rho blowup at the disc centre and the torus core circle is
    # beyond fixed-step second differences, so those keep a wider berth
    far = 0.3 if isinstance(dom, (Disc, Torus)) else 0.01
    return pts[(d > 0.05) & (gap > far)][:n]


def test_vectorized_calculus_vs_fd_and_pointwise():
    # the vectorized calculus against central differences of the exact
    # distance off the medial axis, and row for row against the one-point
    # distance_calculus, ridge branches included
    doms = [Interval(0, 1), Disc((0.0, 0.0), 2.0), Annulus((0, 0), 0.5, 1.5),
            ConvexPolygon(UNIT_SQUARE), Torus(3.0, 1.0)]
    ridge_pts = [[[0.5]], [[0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]],
                 [[0.3, 0.3], [0.5, 0.5], [0.2, 0.8]],
                 [[3.0, 0.0, 0.0], [0.0, -3.0, 0.0]]]
    rng = np.random.RandomState(42)
    h = 1e-4
    for dom, ridge in zip(doms, ridge_pts):
        pts = _off_ridge_samples(dom, rng, 400)
        assert len(pts) == 400
        grad, neg_lap, on_ridge = dom.calculus_many(pts)
        assert not on_ridge.any()
        d0 = dom.distance_many(pts)
        fd_grad = np.empty_like(pts)
        fd_lap = np.zeros(len(pts))
        for i in range(dom.dim):
            e = np.zeros(dom.dim)
            e[i] = h
            dp, dm = dom.distance_many(pts + e), dom.distance_many(pts - e)
            fd_grad[:, i] = (dp - dm) / (2 * h)
            fd_lap += (dp - 2 * d0 + dm) / h**2
        assert_allclose(grad, fd_grad, atol=1e-6)
        assert_allclose(neg_lap, -fd_lap, atol=1e-5)

        pts = np.vstack([pts, np.asarray(ridge, dtype=float)])
        grad, neg_lap, on_ridge = dom.calculus_many(pts)
        assert on_ridge[-len(ridge):].all()
        for k, p in enumerate(pts):
            ev = dom.distance_calculus(p)
            if dom.dim == 1:
                assert isinstance(ev.grad_d, float) and ev.grad_d == grad[k, 0]
            else:
                assert np.array_equal(ev.grad_d, grad[k])
            assert ev.neg_laplacian_d == neg_lap[k]
            assert ev.near_ridge == on_ridge[k]


def test_eikonal_unit_gradient():
    domains = [Disc((0.5, -1.0), 2.0), Annulus((0, 0), 0.5, 1.5),
               ConvexPolygon(UNIT_SQUARE), Torus(3.0, 1.0)]
    rng = np.random.RandomState(3)
    for dom in domains:
        found = 0
        while found < 50:
            if dom.dim == 2:
                p = rng.uniform(-3, 3, 2)
            else:
                p = rng.uniform(-4.5, 4.5, 3)
            d = float(dom.distance_many(p[None])[0])
            if d <= 1e-3:
                continue
            ev = dom.distance_calculus(p)
            if ev.near_ridge:
                continue
            assert abs(np.linalg.norm(ev.grad_d) - 1.0) < 1e-8
            found += 1


def test_one_lipschitz_sampled():
    rng = np.random.RandomState(11)
    dom = ConvexPolygon([(0, 0), (2, 0), (3, 1), (1, 2)])
    pts = rng.uniform(-1, 4, size=(400, 2))
    d = dom.distance_many(pts)
    inside = d > 0
    p = pts[inside]
    dp = d[inside]
    for i in range(len(p)):
        for j in range(i + 1, min(i + 10, len(p))):
            assert abs(dp[i] - dp[j]) <= np.linalg.norm(p[i] - p[j]) + 1e-12


def test_polygon_distance_vs_brute_force():
    poly = ConvexPolygon([(0, 0), (2, 0), (3, 1), (1, 2)])
    rng = np.random.RandomState(5)
    pts = rng.uniform(0.2, 1.8, size=(20, 2))
    pts = pts[poly.distance_many(pts) > 0.05]
    v = poly.vertices
    for p in pts:
        best = np.inf
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            ts = np.linspace(0, 1, 100001)
            seg = a[None, :] + ts[:, None] * (b - a)[None, :]
            best = min(best, np.sqrt(((seg - p) ** 2).sum(axis=1)).min())
        assert abs(poly.distance(p) - best) < 1e-9


def test_interior_diameter():
    assert Interval(0, 1).interior_diameter() == 1.0
    assert Disc((0, 0), 1.0).interior_diameter() == 2.0
    assert Torus(3, 1).interior_diameter() == 2.0
    assert Annulus((0, 0), 0.25, 1.0).interior_diameter() == 0.75
    assert ConvexPolygon(UNIT_SQUARE).interior_diameter() == pytest.approx(1.0, abs=1e-9)


def test_volume():
    assert Disc((0, 0), 1.0).volume() == pytest.approx(np.pi)
    assert Torus(3, 1).volume() == pytest.approx(2 * np.pi**2 * 3)
    assert ConvexPolygon(UNIT_SQUARE).volume() == pytest.approx(1.0)
    assert Annulus((0, 0), 0.5, 1.0).volume() == pytest.approx(np.pi * 0.75)


def test_ridge_flags():
    ev = Interval(0, 1).distance_calculus(0.5)
    assert ev.near_ridge
    ev = Disc((0, 0), 1.0).distance_calculus([0.0, 0.0])
    assert ev.near_ridge
    ev = Annulus((0, 0), 0.5, 1.5).distance_calculus([1.0, 0.0])
    assert ev.near_ridge
    # square diagonal is the medial axis
    ev = ConvexPolygon(UNIT_SQUARE).distance_calculus([0.3, 0.3])
    assert ev.near_ridge


def test_scan_torus_pass():
    report = superharmonicity_scan(Torus(3.0, 1.0))
    assert report.verdict == "PASS"
    assert abs(report.min_value - 0.5) < 1e-3
    # minimum attained at the inner equator (r = c - R, z = 0)
    assert report.argmin[0] == pytest.approx(2.0, abs=0.05)


def test_scan_torus_fail():
    report = superharmonicity_scan(Torus(1.8, 1.0))
    assert report.verdict == "FAIL"
    assert report.min_value < -0.1


def _torus_infimum(c, R):
    return (c - 2 * R) / ((c - R) * R)


# the verdict is exact at c = 2R and at the floats on either side of it
@pytest.mark.parametrize("ratio", [2.1, 2.5, 3.5, 5.0, 2.0, np.nextafter(2.0, 3.0)])
def test_scan_threshold_pass(ratio):
    report = superharmonicity_scan(Torus(ratio, 1.0))
    assert report.verdict == "PASS"
    assert report.min_value == _torus_infimum(ratio, 1.0) >= 0.0
    if ratio == 2.0:
        assert report.min_value == 0.0


@pytest.mark.parametrize("ratio", [1.1, 1.4, 1.7, 1.9, np.nextafter(2.0, 0.0), 2 - 5e-7])
def test_scan_threshold_fail(ratio):
    report = superharmonicity_scan(Torus(ratio, 1.0))
    assert report.verdict == "FAIL"
    assert report.min_value == _torus_infimum(ratio, 1.0) < 0.0


def test_scan_disc_and_polygon():
    assert superharmonicity_scan(Disc((0, 0), 1.0)).verdict == "PASS"
    assert superharmonicity_scan(ConvexPolygon(UNIT_SQUARE)).verdict == "PASS"


def test_scan_tubular_region():
    # the infimum lies on the boundary, so every band reaches it: along the
    # inner equator, points at d -> 0 approach it from above
    torus = Torus(3.0, 1.0)
    report = superharmonicity_scan(torus)
    for t in (1e-2, 1e-4, 1e-8):
        value = torus.distance_calculus([2.0 + t, 0.0, 0.0]).neg_laplacian_d
        assert report.min_value <= value <= report.min_value + 2 * t


ORACLE_DOMAINS = [Interval(-0.5, 2.0), ConvexPolygon([(0, 0), (2, 0), (1.5, 1), (0.2, 0.8)]),
                  Disc((0.1, 0.2), 1.3), Annulus((0.2, 0.1), 0.4, 1.1),
                  Torus(3.0, 1.0), Torus(1.8, 1.0), Torus(2.0, 1.0)]


def _grid(domain, n):
    """n points per axis over the domain's box."""
    axes = [np.linspace(a, b, n) for a, b in zip(*domain.box())]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


@pytest.mark.parametrize("domain", ORACLE_DOMAINS, ids=repr)
def test_infimum_grid_oracle(domain):
    # a grid over the section, whole and in a band: no closed-form value
    # off the medial axis lies below the infimum by more than 4 ulps
    section = domain.section
    pts = _grid(section, 301)
    d = section.distance_many(pts)
    min_value, argmin = section.neg_laplacian_infimum()
    floor = min_value - 4 * np.spacing(abs(min_value))
    for keep in (d >= 0, (d > 0) & (d < 0.1 * section.interior_diameter())):
        _, neg_lap, ridge = section.calculus_many(pts[keep])
        values = neg_lap[~ridge]
        assert values.min() >= floor
        assert values.min() <= min_value + 0.1 * (abs(min_value) + 1)
    assert section.distance_many(argmin[None, :])[0] == pytest.approx(0, abs=1e-15)


def test_infimum_grid_oracle_meets_disc_infimum_exactly():
    # d and -laplacian(d) read one radius per point, so d >= 0 means
    # rho <= R and 1/rho >= 1/R in floats: a fine grid on an off-centre
    # disc reaches 1/R and reads nothing below it
    disc = Disc((0.1, 0.2), 1.3)
    pts = _grid(disc, 401)
    _, neg_lap, ridge = disc.calculus_many(pts[disc.distance_many(pts) >= 0])
    assert neg_lap[~ridge].min() == 1 / 1.3


def test_torus_calculus_is_its_sections():
    # seeded 3D points, a few on the core circle: d, -laplacian(d) and the
    # ridge mask are the section's at (r, z), bitwise, and the gradient is
    # the section's carried back by the cylindrical chain rule
    torus = Torus(3.0, 1.0)
    rng = np.random.default_rng(25)
    theta = rng.uniform(0, 2 * np.pi, 20)
    core = np.column_stack([3 * np.cos(theta), 3 * np.sin(theta), np.zeros(20)])
    pts = np.vstack([rng.uniform(*torus.box(), size=(500, 3)), core])
    rz = np.column_stack([np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2]])
    assert np.array_equal(torus.to_section(pts), rz)
    section = torus.section
    assert np.array_equal(torus.distance_many(pts), section.distance_many(rz))
    grad, neg_lap, ridge = torus.calculus_many(pts)
    rz_grad, rz_neg_lap, rz_ridge = section.calculus_many(rz)
    assert np.array_equal(neg_lap, rz_neg_lap)
    assert np.array_equal(ridge, rz_ridge) and ridge[-20:].all()
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    chain = np.column_stack([rz_grad[:, 0] * np.cos(phi), rz_grad[:, 0] * np.sin(phi),
                             rz_grad[:, 1]])
    assert_allclose(grad, chain, rtol=0, atol=1e-15)


def test_scan_report_serialization():
    report = superharmonicity_scan(Disc((0, 0), 1.0))
    doc = jsonable(report)
    assert set(doc) == {"min_value", "argmin", "verdict"}


def _regular(n, scale=1.0, offset=0.0, turn=0.0):
    angles = 2 * np.pi * (np.arange(n) + turn) / n
    return scale * (offset + np.column_stack([np.cos(angles), np.sin(angles)]))


def test_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (1, 0)])
    with pytest.raises(InvalidParameter, match="degenerate edge"):
        # a repeated vertex: an edge of length 0
        ConvexPolygon([(0, 0), (1, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="counterclockwise"):
        # clockwise square
        ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    chevron = np.array([(0, 0), (2, 0), (1, 0.4), (1, 2)])
    # non-convex at any size; a pentagram in star order has positive area
    for vertices in (chevron, 1e-7 * chevron, _regular(5)[[0, 2, 4, 1, 3]]):
        with pytest.raises(ValueError, match="convex"):
            ConvexPolygon(vertices)


@pytest.mark.parametrize("lift", [0.0, 1e-14, -1e-14])
def test_polygon_collinear_vertex_refused(lift):
    # a vertex on (or within 1e-12 diameters of) the line of its neighbours
    # would give two facets one line, and the band along it a false ridge
    with pytest.raises(ValueError, match="no three on a line"):
        ConvexPolygon([(0, 0), (0.5, lift), (1, 0), (1, 1), (0, 1)])
    # a visible corner is kept, and a point by the bottom edge is off the ridge
    poly = ConvexPolygon([(0, 0), (0.5, -1e-3), (1, 0), (1, 1), (0, 1)])
    assert not poly.distance_calculus([0.2, 0.1]).near_ridge
    assert not ConvexPolygon(UNIT_SQUARE).distance_calculus([0.2, 0.1]).near_ridge


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(turns=st.lists(st.floats(-0.25, 0.25), min_size=3, max_size=8),
       exponent=st.integers(-150, 150), offset=st.sampled_from((0.0, -3.5, 1000.0)),
       data=st.data())
def test_polygon_accepted_only_in_counterclockwise_order(turns, exponent, offset, data):
    # vertices on a circle, each within a quarter step of a regular n-gon's:
    # accepted counterclockwise from any start, at any scale and offset;
    # refused clockwise and in any order that is not a rotation
    n = len(turns)
    v = _regular(n, 10.0**exponent, offset, np.array(turns))
    ConvexPolygon(v)
    with pytest.raises(ValueError, match="counterclockwise"):
        ConvexPolygon(v[::-1])
    order = np.array(data.draw(st.permutations(range(n))))
    if np.array_equal(np.roll(order, -order.tolist().index(0)), np.arange(n)):
        ConvexPolygon(v[order])
    else:
        with pytest.raises(ValueError):
            ConvexPolygon(v[order])


def test_domain_invariants():
    with pytest.raises(ValueError):
        Interval(1, 0)
    with pytest.raises(ValueError):
        Annulus((0, 0), 1.0, 0.5)
    with pytest.raises(ValueError):
        Torus(1.0, 2.0)


@pytest.mark.parametrize("build", [
    lambda: Interval(0, np.inf), lambda: Interval(np.nan, 1),
    lambda: Disc((0, 0), np.nan), lambda: Disc((np.nan, 0), 1),
    lambda: Disc((0, 0), np.inf), lambda: Annulus((0, np.inf), 0.5, 1.0),
    lambda: Annulus((0, 0), 0.5, np.inf),
    lambda: ConvexPolygon([(0, 0), (1, 0), (np.nan, 1)]),
    lambda: Torus(np.inf, 1), lambda: Torus(3, np.nan)])
def test_non_finite_parameters_refused(build):
    # nan passes every order comparison and inf passes a < b
    with pytest.raises(ValueError, match="must be finite"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Interval(-1e308, 1e308), lambda: Interval(0, 1e-170),
    lambda: Disc((0, 0), 1e300), lambda: Disc((0, 0), 1e-300),
    lambda: Annulus((0, 0), 1e-300, 2e-300), lambda: Annulus((0, 0), 1.0, 1e160),
    lambda: ConvexPolygon([(0, 0), (1e154, 0), (0, 1e154)]),
    # a subnormal area, whose reciprocal overflows
    lambda: ConvexPolygon([(0, 0), (1e-160, 0), (0, 1e-160)]),
    # sized before any orientation or convexity product is taken
    lambda: ConvexPolygon([(0, 0), (1e-170, 0), (0, 1e-170)]),
    lambda: ConvexPolygon([(0, 0), (1e160, 0), (0, 1e160)]),
    lambda: Torus(3e200, 1e200), lambda: Torus(3e-170, 1e-170)])
def test_unrepresentable_size_refused(build):
    # finite parameters whose volume or squared diameter, which the Hardy
    # catalogue divides by, overflows or falls below float64's normal range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows or vanishes"):
            build()


def test_finite_difference_needs_clearance():
    from hardyspec.errors import TooCloseToBoundary
    with pytest.raises(TooCloseToBoundary):
        Disc((0, 0), 1.0).distance_calculus([0.999, 0.0], h=0.01,
                                            method="finite_difference")
    # an unknown method, "auto" among them, is refused, not run as differences
    with pytest.raises(ValueError):
        Disc((0, 0), 1.0).distance_calculus([0.5, 0.0], method="auto")
