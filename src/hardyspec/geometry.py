"""Distance-to-boundary calculus for the supported domain families.

Every domain knows its exact Euclidean distance to the boundary, the
gradient and (negative) Laplacian of that distance where they exist in
closed form, and the geometric functionals (interior diameter, volume)
that the Hardy-constant catalogue consumes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .errors import EmptyRegion, PointOutsideDomain, TooCloseToBoundary

RIDGE_TOL = 1e-9       # two boundary features closer than this => medial axis
GEOM_TOL = 1e-6        # verdict tolerance for superharmonicity scans
FD_STEP_FACTOR = 1e-4  # default finite-difference step, relative to D_int


@dataclass
class DistanceEval:
    """Distance, unit gradient and -laplacian of d at a single point."""

    d: float
    grad_d: object          # float in 1D, ndarray in 2D/3D
    neg_laplacian_d: float
    provenance: str         # "closed_form" or "finite_difference"
    near_ridge: bool = False


@dataclass
class SuperharmonicityReport:
    min_value: float
    argmin: tuple
    verdict: str            # "PASS" or "FAIL"
    resolution: int
    region: str
    tol: float
    n_points: int


def _as_point(p, dim):
    q = np.atleast_1d(np.asarray(p, dtype=float))
    if q.shape != (dim,):
        raise ValueError(f"expected a point with {dim} coordinates, got shape {q.shape}")
    return q


class Domain:
    """Base class; concrete variants implement the closed-form calculus."""

    dim = None
    is_convex = False

    # -- membership and distance --------------------------------------------

    def distance(self, p, tol=1e-12):
        """Exact distance from an inside point to the boundary."""
        p = _as_point(p, self.dim)
        d = float(self.distance_many(p[None, :])[0])
        if d < -tol:
            raise PointOutsideDomain(f"point {p.tolist()} lies outside the domain (d={d:.3e})")
        return max(d, 0.0)

    def distance_many(self, pts):
        """Vectorized signed distance (positive inside); no membership check."""
        raise NotImplementedError

    def box(self):
        """Corners (lo, hi) of the axis-aligned bounding box."""
        raise NotImplementedError

    # -- calculus ------------------------------------------------------------

    def calculus_many(self, pts):
        """Closed-form gradient (N, dim) and -laplacian (N,) of d, and the
        medial-axis mask (N,) of points whose nearest boundary point is not
        unique.  On that axis a deterministic branch is taken; at the disc
        centre and the torus core circle, 1/rho is evaluated at
        rho = RIDGE_TOL.  No membership check."""
        raise NotImplementedError

    def distance_calculus(self, p, h=None, method="auto", tol=1e-12):
        """Gradient and -laplacian of d at one point.

        method: "auto" and "closed_form" take the closed form;
        "finite_difference" forces second-order central differences with
        step h (default 1e-4 * D_int).
        """
        p = _as_point(p, self.dim)
        d = self.distance(p, tol=tol)
        grads, neg_laps, ridges = self.calculus_many(p[None, :])
        ridge = bool(ridges[0])
        if method in ("auto", "closed_form"):
            grad, neg_lap, provenance = grads[0], float(neg_laps[0]), "closed_form"
        else:
            if h is None:
                h = FD_STEP_FACTOR * self.interior_diameter()
            if d <= 2 * h:
                raise TooCloseToBoundary(
                    f"d(p)={d:.3e} <= 2h={2 * h:.3e}; finite differences need clearance")
            grad = np.empty(self.dim)
            lap = 0.0
            for i in range(self.dim):
                e = np.zeros(self.dim)
                e[i] = h
                dp = float(self.distance_many((p + e)[None, :])[0])
                dm = float(self.distance_many((p - e)[None, :])[0])
                grad[i] = (dp - dm) / (2 * h)
                lap += (dp - 2 * d + dm) / h**2
            neg_lap, provenance = -lap, "finite_difference"
        if self.dim == 1:
            grad = float(grad[0])
        return DistanceEval(d, grad, neg_lap, provenance, ridge)

    # -- functionals ----------------------------------------------------------

    def interior_diameter(self):
        raise NotImplementedError

    def volume(self):
        raise NotImplementedError

    def diameter(self):
        """Usual diameter, defined for the variants the catalogue accepts."""
        raise NotImplementedError


class Interval(Domain):
    dim = 1
    is_convex = True

    def __init__(self, a, b):
        if not a < b:
            raise ValueError(f"need a < b, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)

    def __repr__(self):
        return f"Interval({self.a}, {self.b})"

    def distance_many(self, pts):
        x = np.asarray(pts, dtype=float).reshape(-1)
        return np.minimum(x - self.a, self.b - x)

    def box(self):
        return np.array([self.a]), np.array([self.b])

    def calculus_many(self, pts):
        x = np.asarray(pts, dtype=float).reshape(-1)
        left = x - self.a
        right = self.b - x
        grad = np.where(left <= right, 1.0, -1.0)[:, None]
        return grad, np.zeros(len(x)), np.abs(left - right) < RIDGE_TOL

    def interior_diameter(self):
        return self.b - self.a

    def volume(self):
        return self.b - self.a

    def diameter(self):
        return self.b - self.a


def _radius(pts, center):
    """Distance of 2D points from center: bitwise the row-wise
    np.linalg.norm, and about twice as fast."""
    x, y = (np.asarray(pts, dtype=float).reshape(-1, 2) - center).T
    return np.sqrt(x * x + y * y)


class Disc(Domain):
    dim = 2
    is_convex = True

    def __init__(self, center, radius):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = np.asarray(center, dtype=float).reshape(2)
        self.radius = float(radius)

    def __repr__(self):
        return f"Disc(center={self.center.tolist()}, radius={self.radius})"

    def distance_many(self, pts):
        return self.radius - _radius(pts, self.center)

    def box(self):
        return self.center - self.radius, self.center + self.radius

    def calculus_many(self, pts):
        v = np.asarray(pts, dtype=float).reshape(-1, 2) - self.center
        rho = np.hypot(v[:, 0], v[:, 1])
        # center of the disc: every boundary point is nearest
        ridge = rho < RIDGE_TOL
        rho = np.maximum(rho, RIDGE_TOL)
        grad = np.where(ridge[:, None], [1.0, 0.0], -v / rho[:, None])
        return grad, 1.0 / rho, ridge

    def interior_diameter(self):
        return 2 * self.radius

    def volume(self):
        return np.pi * self.radius**2

    def diameter(self):
        return 2 * self.radius


class Annulus(Domain):
    dim = 2
    is_convex = False

    def __init__(self, center, r_in, r_out):
        if not 0 < r_in < r_out:
            raise ValueError("need 0 < r_in < r_out")
        self.center = np.asarray(center, dtype=float).reshape(2)
        self.r_in = float(r_in)
        self.r_out = float(r_out)

    def __repr__(self):
        return f"Annulus(center={self.center.tolist()}, r_in={self.r_in}, r_out={self.r_out})"

    def distance_many(self, pts):
        rho = _radius(pts, self.center)
        return np.minimum(rho - self.r_in, self.r_out - rho)

    def box(self):
        return self.center - self.r_out, self.center + self.r_out

    def calculus_many(self, pts):
        v = np.asarray(pts, dtype=float).reshape(-1, 2) - self.center
        rho = np.hypot(v[:, 0], v[:, 1])
        inner = rho - self.r_in
        outer = self.r_out - rho
        sign = np.where(inner <= outer, 1.0, -1.0)
        return (sign[:, None] * v / rho[:, None], -sign / rho,
                np.abs(inner - outer) < RIDGE_TOL)

    def interior_diameter(self):
        return self.r_out - self.r_in

    def volume(self):
        return np.pi * (self.r_out**2 - self.r_in**2)

    def diameter(self):
        return 2 * self.r_out


class ConvexPolygon(Domain):
    dim = 2
    is_convex = True

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float).reshape(-1, 2)
        if v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices")
        edges = np.roll(v, -1, axis=0) - v
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] \
            - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        if np.any(cross < -1e-12):
            raise ValueError("vertices must be counterclockwise and convex")
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if area2 <= 0:
            raise ValueError("vertices must be counterclockwise (positive area)")
        self.vertices = v
        self._edges = edges
        lengths = np.linalg.norm(edges, axis=1)
        if np.any(lengths <= 0):
            raise ValueError("degenerate edge")
        self._edge_len = lengths
        # inward unit normals (ccw order => inward is left of the edge)
        self._normals = np.column_stack([-edges[:, 1], edges[:, 0]]) / lengths[:, None]

    def __repr__(self):
        return f"ConvexPolygon({self.vertices.tolist()})"

    def _edge_distances(self, pts):
        """Distance from each point to each (full) edge segment, (N, E)."""
        p = np.asarray(pts, dtype=float).reshape(-1, 2)
        rel = p[:, None, :] - self.vertices[None, :, :]
        t = np.einsum("nej,ej->ne", rel, self._edges) / self._edge_len[None, :]**2
        t = np.clip(t, 0.0, 1.0)
        proj = self.vertices[None, :, :] + t[:, :, None] * self._edges[None, :, :]
        return np.linalg.norm(p[:, None, :] - proj, axis=2), proj

    def distance_many(self, pts):
        p = np.asarray(pts, dtype=float).reshape(-1, 2)
        seg_d, _ = self._edge_distances(p)
        d = seg_d.min(axis=1)
        # signed: negative outside any edge half-plane
        halfplane = np.einsum("nej,ej->ne", p[:, None, :] - self.vertices[None, :, :],
                              self._normals)
        outside = halfplane.min(axis=1) < 0
        return np.where(outside, halfplane.min(axis=1), d)

    def box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def calculus_many(self, pts):
        p = np.asarray(pts, dtype=float).reshape(-1, 2)
        seg_d, proj = self._edge_distances(p)
        nearest = np.argmin(seg_d, axis=1)
        two = np.sort(seg_d, axis=1)[:, :2]
        v = p - proj[np.arange(len(p)), nearest]
        r = np.hypot(v[:, 0], v[:, 1])[:, None]
        grad = np.where(r > RIDGE_TOL, v / np.maximum(r, RIDGE_TOL),
                        self._normals[nearest])
        # d is a min of affine functions: Laplacian vanishes off the ridge
        return grad, np.zeros(len(p)), (two[:, 1] - two[:, 0]) < RIDGE_TOL

    @cached_property
    def _chebyshev(self):
        """Center and radius of the largest inscribed disc, by linear
        programming: maximize t  s.t.  n_i . p - t >= n_i . v_i."""
        n = self._normals
        b = np.einsum("ej,ej->e", n, self.vertices)
        a_ub = np.column_stack([-n, np.ones(len(n))])
        res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=-b,
                      bounds=[(None, None), (None, None), (0, None)], method="highs")
        if not res.success:
            raise RuntimeError(f"Chebyshev LP failed: {res.message}")
        return np.array(res.x[:2]), float(res.x[2])

    def chebyshev_radius(self):
        return self._chebyshev[1]

    def chebyshev_center(self):
        return self._chebyshev[0].copy()

    def interior_diameter(self):
        return 2 * self.chebyshev_radius()

    def volume(self):
        v = self.vertices
        return 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1)
                                  - np.roll(v[:, 0], -1) * v[:, 1]))

    def diameter(self):
        v = self.vertices
        diff = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())


class Torus(Domain):
    """Solid torus: the disc of radius R centered at distance c from the
    z-axis, revolved about that axis.  Embedded when 0 < R < c."""

    dim = 3
    is_convex = False

    def __init__(self, c, R):
        if not 0 < R < c:
            raise ValueError("need 0 < R < c for an embedded torus")
        self.c = float(c)
        self.R = float(R)

    def __repr__(self):
        return f"Torus(c={self.c}, R={self.R})"

    def cross_section(self, pts):
        """Cylindrical (r, z) coordinates of 3D points, shape (N, 2)."""
        p = np.asarray(pts, dtype=float).reshape(-1, 3)
        r = np.hypot(p[:, 0], p[:, 1])
        return np.column_stack([r, p[:, 2]])

    def _rho(self, pts):
        rz = self.cross_section(pts)
        return np.hypot(rz[:, 0] - self.c, rz[:, 1])

    def distance_many(self, pts):
        return self.R - self._rho(pts)

    def box(self):
        s = self.c + self.R
        return np.array([-s, -s, -self.R]), np.array([s, s, self.R])

    def calculus_many(self, pts):
        p = np.asarray(pts, dtype=float).reshape(-1, 3)
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        r = np.hypot(x, y)
        rho = np.hypot(r - self.c, z)
        # core circle: nearest boundary point is non-unique
        ridge = rho < RIDGE_TOL
        rho = np.maximum(rho, RIDGE_TOL)
        radial = -(r - self.c)
        grad = np.where(ridge[:, None],
                        np.column_stack([x / r, y / r, np.zeros(len(p))]),
                        np.column_stack([radial * x / (r * rho), radial * y / (r * rho),
                                         -z / rho]))
        return grad, (2 * r - self.c) / (r * rho), ridge

    def interior_diameter(self):
        return 2 * self.R

    def volume(self):
        # Pappus: area of the revolved disc times the travel of its centroid
        return 2 * np.pi**2 * self.c * self.R**2

    def diameter(self):
        return 2 * (self.c + self.R)


def _scan_grid(domain, resolution):
    """Uniform grid with resolution + 1 points per axis over the box."""
    lo, hi = domain.box()
    axes = [np.linspace(a, b, resolution + 1) for a, b in zip(lo, hi)]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _region_mask(region, d):
    if region == "full":
        return np.ones_like(d, dtype=bool)
    kind, delta = region
    if kind != "tubular":
        raise ValueError(f"unknown region {region!r}")
    return (d > 0) & (d < delta)


def superharmonicity_scan(domain, region="full", resolution=200, tol=GEOM_TOL):
    """Scan -laplacian(d) over a uniform grid and certify its sign.

    A full scan covers the closed domain (the closed forms extend
    continuously to the boundary); a ("tubular", delta) scan keeps the
    interior band 0 < d < delta.  Points on the medial axis, where the
    Laplacian has a singular measure part, are excluded.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    if isinstance(domain, Torus):
        # scanned on the box of its (r, z) cross-section, lifted to (r, 0, z)
        pts = _scan_grid(Disc((domain.c, 0.0), domain.R), resolution)
        lifted = np.insert(pts, 1, 0.0, axis=1)
    else:
        pts = lifted = _scan_grid(domain, resolution)
    d = domain.distance_many(lifted)
    keep = (d >= -1e-12) & _region_mask(region, d)
    _, neg_lap, ridge = domain.calculus_many(lifted[keep])
    values = neg_lap[~ridge]
    if values.size == 0:
        raise EmptyRegion("no grid point falls in the requested region")

    i = int(np.argmin(values))
    min_value = float(values[i])
    argmin = tuple(np.asarray(pts[keep][~ridge][i], dtype=float).tolist())
    verdict = "PASS" if min_value >= -tol else "FAIL"
    region_name = "full" if region == "full" else f"tubular({region[1]})"
    return SuperharmonicityReport(min_value, argmin, verdict, resolution,
                                  region_name, tol, int(values.size))
