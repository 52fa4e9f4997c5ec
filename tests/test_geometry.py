import numpy as np
import pytest
from numpy.testing import assert_allclose

from hardyspec import (Annulus, ConvexPolygon, Disc, Interval, Torus,
                       superharmonicity_scan)
from hardyspec.errors import EmptyRegion, PointOutsideDomain
from hardyspec.report import jsonable

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_interval_distance():
    iv = Interval(0, 1)
    assert iv.distance(0.3) == 0.3
    assert iv.distance(0.9) == pytest.approx(0.1)
    assert iv.distance(0.0) == 0.0


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
        seg = np.sort(dom._edge_distances(pts)[0], axis=1)
        gap = seg[:, 1] - seg[:, 0]
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
    report = superharmonicity_scan(Torus(3.0, 1.0), resolution=200)
    assert report.verdict == "PASS"
    assert abs(report.min_value - 0.5) < 1e-3
    # minimum attained at the inner equator (r = c - R, z = 0)
    assert report.argmin[0] == pytest.approx(2.0, abs=0.05)


def test_scan_torus_fail():
    report = superharmonicity_scan(Torus(1.8, 1.0), resolution=200)
    assert report.verdict == "FAIL"
    assert report.min_value < -0.1


@pytest.mark.parametrize("ratio", [2.1, 2.5, 3.5, 5.0])
def test_scan_threshold_pass(ratio):
    assert superharmonicity_scan(Torus(ratio, 1.0), resolution=120).verdict == "PASS"


@pytest.mark.parametrize("ratio", [1.1, 1.4, 1.7, 1.9])
def test_scan_threshold_fail(ratio):
    assert superharmonicity_scan(Torus(ratio, 1.0), resolution=120).verdict == "FAIL"


def test_scan_disc_and_polygon():
    assert superharmonicity_scan(Disc((0, 0), 1.0), resolution=100).verdict == "PASS"
    assert superharmonicity_scan(ConvexPolygon(UNIT_SQUARE), resolution=64).verdict == "PASS"


def test_scan_tubular_region():
    report = superharmonicity_scan(Torus(3.0, 1.0), region=("tubular", 0.2),
                                   resolution=200)
    assert report.verdict == "PASS"
    with pytest.raises(EmptyRegion):
        superharmonicity_scan(Torus(3.0, 1.0), region=("tubular", 1e-9),
                              resolution=16)


def test_scan_resolution_guard():
    with pytest.raises(ValueError):
        superharmonicity_scan(Disc((0, 0), 1.0), resolution=4)


def test_scan_report_serialization():
    report = superharmonicity_scan(Disc((0, 0), 1.0), resolution=50)
    doc = jsonable(report)
    assert set(doc) >= {"min_value", "argmin", "verdict", "resolution"}


def test_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        # clockwise square
        ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    with pytest.raises(ValueError):
        # non-convex chevron
        ConvexPolygon([(0, 0), (2, 0), (1, 0.4), (1, 2)])


def test_domain_invariants():
    with pytest.raises(ValueError):
        Interval(1, 0)
    with pytest.raises(ValueError):
        Annulus((0, 0), 1.0, 0.5)
    with pytest.raises(ValueError):
        Torus(1.0, 2.0)


def test_finite_difference_needs_clearance():
    from hardyspec.errors import TooCloseToBoundary
    with pytest.raises(TooCloseToBoundary):
        Disc((0, 0), 1.0).distance_calculus([0.999, 0.0], h=0.01,
                                            method="finite_difference")
