"""Distance-to-boundary calculus for the supported domain families.

Every domain knows its exact Euclidean distance to the boundary, the
gradient and (negative) Laplacian of that distance where they exist in
closed form, and the geometric functionals (interior diameter, volume)
that the Hardy-constant catalogue consumes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (InvalidParameter, MeshGenerationFailure, PointOutsideDomain,
                     TooCloseToBoundary)

RIDGE_TOL = 1e-9       # two boundary features closer than this => medial axis
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


def _as_point(p, dim):
    q = np.atleast_1d(np.asarray(p, dtype=float))
    if q.shape != (dim,):
        raise InvalidParameter(f"a point needs {dim} coordinates, got shape {q.shape}")
    _require_finite(point=q)
    return q


def _require_finite(**params):
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise InvalidParameter(f"{name} must be finite, got {value}")


class Domain:
    """Base class; concrete variants implement the closed-form calculus."""

    dim = None
    is_convex = False
    # a coefficient text that weighs every volume integral of the domain's
    # pencils (the cylindrical radius on a torus cross-section); None is 1
    measure_weight = None

    @property
    def section(self):
        """The domain whose pencils stand for this one's: itself, except
        for a torus, whose problems reduce to its (r, z) cross-section."""
        return self

    def to_section(self, pts):
        """Coordinates of points on the section: themselves, except on a
        torus."""
        return pts

    def _require_representable(self, *lengths):
        """Refuse parameters whose derived quantities overflow or vanish in
        float64: the volume, and the square of each of `lengths`, which the
        Hardy catalogue divides by, must be finite and normal, so that their
        reciprocals are finite too."""
        for name, power in (("volume", 1),) + tuple((n, 2) for n in lengths):
            try:
                with np.errstate(over="ignore", under="ignore"):
                    value = float(getattr(self, name)()) ** power
            except OverflowError:
                value = np.inf
            if not np.finfo(float).tiny <= value < np.inf:
                label = name.replace("_", " ") + (" squared" if power == 2 else "")
                raise InvalidParameter(
                    f"the {label}, {value:g}, overflows or vanishes in float64")

    # -- membership and distance --------------------------------------------

    def length_tol(self):
        """Within this, lengths on the domain compare equal: 1e-12 of its box's
        largest coordinate magnitude, the scale of the rounding in d."""
        return 1e-12 * float(np.abs(self.box()).max())

    def distance(self, p):
        """Exact distance from an inside point to the boundary."""
        p = _as_point(p, self.dim)
        d = float(self.distance_many(p[None, :])[0])
        if d < -self.length_tol():
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

    def distance_calculus(self, p, h=None, method="closed_form"):
        """Gradient and -laplacian of d at one point.

        method: "closed_form", or "finite_difference" for second-order
        central differences with step h (default 1e-4 * D_int).
        """
        if method not in ("closed_form", "finite_difference"):
            raise InvalidParameter(f"unknown method {method!r}")
        p = _as_point(p, self.dim)
        d = self.distance(p)
        grads, neg_laps, ridges = self.calculus_many(p[None, :])
        ridge = bool(ridges[0])
        if method == "closed_form":
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

    def neg_laplacian_infimum(self):
        """Closed-form infimum of -laplacian(d) over the closed domain off
        the medial axis, and a boundary point where it is attained.  Every
        family attains it on the boundary, so each band {0 < d < delta} has
        the same infimum as the whole domain."""
        raise NotImplementedError

    # -- functionals ----------------------------------------------------------

    def interior_diameter(self):
        raise NotImplementedError

    def volume(self):
        raise NotImplementedError

    def diameter(self):
        """Usual diameter, defined for the variants the catalogue accepts."""
        raise NotImplementedError


class _HalfSpaces(Domain):
    """A convex domain cut out by half-spaces n_i . (x - p_i) >= 0: unit
    inward normals n_i (rows of `_normals`), one point p_i per facet (rows of
    `_points`).  Inside, the ball of radius min_i n_i . (x - p_i) lies in every
    half-space and meets the boundary on the nearest facet, so d is the least
    facet distance; outside, that least distance is negative."""

    is_convex = True

    def _facet_distances(self, pts):
        """n_i . (x - p_i) for every facet and point, (F, N), worked in place
        and facet-major, so that the least over facets runs along rows.  The
        sum starts from +0.0: a point on a facet reads +0.0 there, not -0.0."""
        p = np.asarray(pts, dtype=float).reshape(-1, self.dim)
        dist = 0.0
        for j in range(self.dim):
            term = p[:, j] - self._points[:, j, None]
            term *= self._normals[:, j, None]
            dist = np.add(term, dist, out=term)
        return dist

    def distance_many(self, pts):
        return self._facet_distances(pts).min(axis=0)

    def box(self):
        return self._points.min(axis=0), self._points.max(axis=0)

    def calculus_many(self, pts):
        """The nearest facet's normal is the gradient, the first on a tie;
        d is a min of affine functions, so its Laplacian vanishes off the
        ridge, where a second facet lies within RIDGE_TOL of the nearest."""
        dist = self._facet_distances(pts)
        d = dist.min(axis=0)
        return (self._normals[np.argmin(dist, axis=0)], np.zeros(len(d)),
                np.count_nonzero(dist - d < RIDGE_TOL, axis=0) > 1)


class Interval(_HalfSpaces):
    dim = 1

    def __init__(self, a, b):
        _require_finite(a=a, b=b)
        if not a < b:
            raise InvalidParameter(f"need a < b, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self._require_representable("diameter")
        self._normals = np.array([[1.0], [-1.0]])
        self._points = np.array([[self.a], [self.b]])

    def __repr__(self):
        return f"Interval({self.a}, {self.b})"

    def neg_laplacian_infimum(self):
        return 0.0, np.array([self.a])

    def interior_diameter(self):
        return self.b - self.a

    def volume(self):
        return self.b - self.a

    def diameter(self):
        return self.b - self.a


def _radius(pts, center):
    """Offsets v of 2D points from center (one, or one per point) and their
    lengths rho: bitwise the row-wise np.linalg.norm, and about twice as
    fast."""
    v = np.asarray(pts, dtype=float).reshape(-1, 2) - center
    return v, np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])


class Disc(Domain):
    dim = 2
    is_convex = True

    def __init__(self, center, radius):
        _require_finite(center=center, radius=radius)
        if radius <= 0:
            raise InvalidParameter("radius must be positive")
        self.center = np.asarray(center, dtype=float).reshape(2)
        self.radius = float(radius)
        self._require_representable("diameter")

    def __repr__(self):
        return f"Disc(center={self.center.tolist()}, radius={self.radius})"

    def distance_many(self, pts):
        return self.radius - _radius(pts, self.center)[1]

    def box(self):
        return self.center - self.radius, self.center + self.radius

    def calculus_many(self, pts):
        v, rho = _radius(pts, self.center)
        # center of the disc: every boundary point is nearest
        ridge = rho < RIDGE_TOL
        rho = np.maximum(rho, RIDGE_TOL)
        grad = np.where(ridge[:, None], [1.0, 0.0], -v / rho[:, None])
        return grad, self._neg_laplacian(pts, rho), ridge

    def _neg_laplacian(self, pts, rho):
        """-laplacian(d) at points pts at distance rho from the centre."""
        return 1.0 / rho

    def neg_laplacian_infimum(self):
        return 1.0 / self.radius, self.center + [self.radius, 0.0]

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
        _require_finite(center=center, r_in=r_in, r_out=r_out)
        if not 0 < r_in < r_out:
            raise InvalidParameter("need 0 < r_in < r_out")
        self.center = np.asarray(center, dtype=float).reshape(2)
        self.r_in = float(r_in)
        self.r_out = float(r_out)
        self._require_representable("diameter", "interior_diameter")

    def __repr__(self):
        return f"Annulus(center={self.center.tolist()}, r_in={self.r_in}, r_out={self.r_out})"

    def distance_many(self, pts):
        rho = _radius(pts, self.center)[1]
        return np.minimum(rho - self.r_in, self.r_out - rho)

    def box(self):
        return self.center - self.r_out, self.center + self.r_out

    def calculus_many(self, pts):
        v, rho = _radius(pts, self.center)
        inner = rho - self.r_in
        outer = self.r_out - rho
        sign = np.where(inner <= outer, 1.0, -1.0)
        return (sign[:, None] * v / rho[:, None], -sign / rho,
                np.abs(inner - outer) < RIDGE_TOL)

    def neg_laplacian_infimum(self):
        return -1.0 / self.r_in, self.center + [self.r_in, 0.0]

    def interior_diameter(self):
        return self.r_out - self.r_in

    def volume(self):
        return np.pi * (self.r_out**2 - self.r_in**2)

    def diameter(self):
        return 2 * self.r_out


class ConvexPolygon(_HalfSpaces):
    dim = 2

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float).reshape(-1, 2)
        _require_finite(vertices=v)
        if v.shape[0] < 3:
            raise InvalidParameter("polygon needs at least 3 vertices")
        self.vertices = self._points = v
        # not the interior diameter: its linear program loads scipy.optimize
        self._require_representable("diameter")
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(edges, axis=1)
        if np.any(lengths <= 0):
            raise InvalidParameter("degenerate edge")
        # inward unit normals (ccw order => inward is left of the edge)
        self._normals = np.column_stack([-edges[:, 1], edges[:, 0]]) / lengths[:, None]
        # each edge's two ends read about 0; every other vertex must lie inside
        # its inward half-plane by more than 1e-12 times the diameter, so that
        # no two facets share a line (a false ridge along it) and the order is
        # counterclockwise and convex
        if np.any(np.sort(self._facet_distances(v), axis=1)[:, 2] <= 1e-12 * self.diameter()):
            raise InvalidParameter(
                "vertices must be counterclockwise and convex, no three on a line")

    def __repr__(self):
        return f"ConvexPolygon({self.vertices.tolist()})"

    def neg_laplacian_infimum(self):
        # the midpoint of an edge; a vertex lies on the medial axis
        v = self.vertices
        return 0.0, v[0] + (v[1] - v[0]) / 2

    @cached_property
    def _chebyshev(self):
        """Center and radius of the largest inscribed disc, by linear
        programming: maximize t  s.t.  n_i . p - t >= n_i . v_i.
        scipy.optimize is imported here so that no other domain's run pays
        for loading it."""
        from scipy.optimize import linprog

        n = self._normals
        b = np.einsum("ej,ej->e", n, self._points)
        a_ub = np.column_stack([-n, np.ones(len(n))])
        res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=-b,
                      bounds=[(None, None), (None, None), (0, None)], method="highs")
        if not res.success:
            raise MeshGenerationFailure(f"Chebyshev LP failed: {res.message}")
        return np.array(res.x[:2]), float(res.x[2])

    def chebyshev_radius(self):
        return self._chebyshev[1]

    def chebyshev_center(self):
        return self._chebyshev[0].copy()

    def interior_diameter(self):
        return 2 * self.chebyshev_radius()

    def volume(self):
        # abs: a clockwise order is refused by the convexity test, after this
        v = self.vertices
        return 0.5 * abs(float(np.sum(v[:, 0] * np.roll(v[:, 1], -1)
                                      - np.roll(v[:, 0], -1) * v[:, 1])))

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
        _require_finite(c=c, R=R)
        if not 0 < R < c:
            raise InvalidParameter("need 0 < R < c for an embedded torus")
        self.c = float(c)
        self.R = float(R)
        self._require_representable("diameter", "interior_diameter")

    def __repr__(self):
        return f"Torus(c={self.c}, R={self.R})"

    @cached_property
    def section(self):
        return TorusSection((self.c, 0.0), self.R)

    def to_section(self, pts):
        """Cylindrical (r, z) coordinates of 3D points, shape (N, 2)."""
        p = np.asarray(pts, dtype=float).reshape(-1, 3)
        return np.column_stack([np.hypot(p[:, 0], p[:, 1]), p[:, 2]])

    def distance_many(self, pts):
        return self.section.distance_many(self.to_section(pts))

    def box(self):
        s = self.c + self.R
        return np.array([-s, -s, -self.R]), np.array([s, s, self.R])

    def calculus_many(self, pts):
        """The section's calculus at (r, z); the gradient is carried back by
        d/dx = (x / r) d/dr and d/dy = (y / r) d/dr.  On the core circle the
        section's ridge branch d/dr = 1 is taken."""
        p = np.asarray(pts, dtype=float).reshape(-1, 3)
        rz = self.to_section(p)
        grad, neg_lap, ridge = self.section.calculus_many(rz)
        xy = grad[:, :1] * p[:, :2] / rz[:, :1]
        return np.column_stack([xy, grad[:, 1]]), neg_lap, ridge

    def interior_diameter(self):
        return 2 * self.R

    def volume(self):
        # Pappus: area of the revolved disc times the travel of its centroid
        return 2 * np.pi**2 * self.c * self.R**2

    def diameter(self):
        return 2 * (self.c + self.R)


class TorusSection(Disc):
    """The (r, z) cross-section of a solid torus, on which its axisymmetric
    problems are posed.  Every volume integral carries the measure weight r,
    and -laplacian(d) is the torus's own, (2r - c) / (r rho): for azimuthal
    mode m, the 3D energy of u = v(r, z) e^{i m theta} is, up to the angular
    factor, the integral of (a |grad v|^2 + (a m^2/r^2 + q) |v|^2) r dr dz,
    and the 3D boundary distance is the disc's own."""

    measure_weight = "r"

    def _neg_laplacian(self, pts, rho):
        r = np.asarray(pts, dtype=float).reshape(-1, 2)[:, 0]
        return (2 * r - self.center[0]) / (r * rho)

    def neg_laplacian_infimum(self):
        # at the inner equator (c - R, 0) both (2r - c)/r and 1/rho are
        # smallest when c >= 2R; when c < 2R the value is negative only
        # where r < c/2, lowest at z = 0 for fixed r, and decreasing in rho
        # along z = 0.  The sign is that of the float c - 2R, which is exact.
        c, R = self.center[0], self.radius
        return (c - 2 * R) / ((c - R) * R), np.array([c - R, 0.0])


def superharmonicity_scan(domain):
    """The infimum of -laplacian(d) over the domain's section, off the
    medial axis, in closed form; PASS if and only if it is >= 0.  The
    infimum lies on the boundary, so the verdict holds for the whole
    section and for every band {0 < d < delta} alike."""
    min_value, argmin = domain.section.neg_laplacian_infimum()
    return SuperharmonicityReport(float(min_value), tuple(argmin.tolist()),
                                  "PASS" if min_value >= 0 else "FAIL")
