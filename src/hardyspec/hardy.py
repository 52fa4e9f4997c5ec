"""Explicit Hardy constants, geometric lower bounds for the remainder term,
and numerical certification of the weighted inequality

    integral d^beta |grad u|^2
        >= kappa(beta) integral |u|^2 / d^(2-beta)
         + lambda integral d^alpha |u|^2

on concrete domains.  Certification is one-sided by construction: conforming
elements make every discrete minimum an upper bound for the continuum
infimum, so CERTIFIED means the inequality holds on all tested subspaces.
"""

from dataclasses import dataclass, field

import numpy as np

from .coefficients import constant, power_of_d
from .eigensolve import ladder
from .errors import ExponentOutOfRange, InvalidParameter, MethodNotApplicable
from .forms import FormSpec, assemble_pencil
from .geometry import superharmonicity_scan
from .meshing import build_mesh_1d, build_trimesh, require_ladder_budget

CERT_TOL = 1e-4          # absolute slack on the certified margin
REFINE_FACTOR = 2        # nested bisections between ladder levels
LAMBDA0 = 0.94           # pinned lower bound for the Avkhadiev-Wirths constant

# the unweighted catalogue (alpha = beta = 0, convex domains): lambda(domain)
_UNWEIGHTED = {
    "brezis_marcus": lambda dom: 1.0 / (4.0 * dom.diameter() ** 2),
    "fmt_dint": lambda dom: 3.0 / dom.interior_diameter() ** 2,
    "avkhadiev_wirths": lambda dom: 4.0 * LAMBDA0 / dom.interior_diameter() ** 2,
    "hhl_volume": lambda dom: volume_constant(dom.dim) / (4.0 * dom.volume() ** (2 / dom.dim)),
    "evans_lewis_volume": lambda dom: (3.0 * volume_constant(dom.dim)
                                       / (2.0 * dom.volume() ** (2 / dom.dim))),
}
CATALOGUE_METHODS = ("none", *_UNWEIGHTED, "fmt_weighted", "tubular")


def kappa(beta):
    """The weighted Hardy constant (1 - beta)^2 / 4, positive for beta < 1."""
    if beta >= 1:
        raise ExponentOutOfRange(f"kappa requires beta < 1, got {beta}")
    return (1.0 - beta) ** 2 / 4.0


@dataclass
class HardyConstants:
    kappa: float
    fmt: float          # None when alpha <= beta - 2
    tubular: float      # None when alpha <= (beta - 3) / 2


def fmt_constant(alpha, beta):
    """Two-branch constant of the interior-diameter Hardy remainder:
    2^(alpha-beta) (alpha+2-beta)^2 below alpha = -1 and
    2^(alpha-beta) (1-beta) (2 alpha+3-beta) from -1 on; the branches agree
    at alpha = -1."""
    if beta >= 1:
        raise ExponentOutOfRange(f"requires beta < 1, got {beta}")
    if alpha <= beta - 2:
        return None
    if alpha < -1:
        return 2.0 ** (alpha - beta) * (alpha + 2 - beta) ** 2
    return 2.0 ** (alpha - beta) * (1 - beta) * (2 * alpha + 3 - beta)


def tubular_constant(alpha, beta):
    """Remainder constant for tubular neighborhoods:
    2^(alpha-beta+1) (2 alpha-beta+3) / (1-beta)^(alpha-beta+2)."""
    if beta >= 1:
        raise ExponentOutOfRange(f"requires beta < 1, got {beta}")
    if alpha <= (beta - 3) / 2:
        return None
    return 2.0 ** (alpha - beta + 1) * (2 * alpha - beta + 3) \
        / (1 - beta) ** (alpha - beta + 2)


def hardy_constants(alpha, beta):
    """kappa(beta) plus the two remainder constants; out-of-range entries
    come back absent (None) rather than raising."""
    return HardyConstants(kappa(beta), fmt_constant(alpha, beta),
                          tubular_constant(alpha, beta))


# ---------------------------------------------------------------------------
# the lambda(Omega) catalogue
# ---------------------------------------------------------------------------

def sphere_measure(n):
    return {1: 2.0, 2: 2 * np.pi, 3: 4 * np.pi}[n]


def volume_constant(n):
    """K(n) = n^(1-2/n) |S^(n-1)|^(2/n)."""
    return n ** (1 - 2 / n) * sphere_measure(n) ** (2 / n)


@dataclass
class HardyBoundSpec:
    beta: float
    alpha: float
    kappa: float
    method: str
    lam: float = field(metadata={"key": "lambda"})
    notes: dict = field(default_factory=dict)


def _require_superharmonic(domain, method):
    """Require -lap(d) >= 0 from the domain's closed-form infimum.  That
    infimum lies on the boundary, so it is also the infimum over every band
    {0 < d < delta}: one verdict serves fmt_weighted and tubular."""
    report = superharmonicity_scan(domain)
    if report.verdict != "PASS":
        raise MethodNotApplicable(
            f"{method} requires -laplacian(d) >= 0; its infimum is "
            f"{report.min_value:.3e} at {report.argmin}")
    return {"superharmonic": f"infimum {report.min_value:.6g} >= 0"}


def lambda_bound(domain, method, alpha=None, beta=0.0, delta=None):
    """Geometric lower bound for the remainder constant lambda.

    Catalogue entries (diameter, interior-diameter and volume bounds) need a
    convex domain; the weighted and tubular bounds need -lap(d) >= 0, which
    the domain's closed-form infimum of -lap(d) decides exactly.
    """
    if method not in CATALOGUE_METHODS:
        raise MethodNotApplicable(f"unknown method {method!r}; "
                                  f"choose from {CATALOGUE_METHODS}")
    notes = {"convex": domain.is_convex, "c2_boundary": not hasattr(domain, "vertices")}
    if method == "none":
        return HardyBoundSpec(beta, 0.0 if alpha is None else alpha,
                              kappa(beta), method, 0.0, notes)

    if method in _UNWEIGHTED:
        if beta != 0.0 or (alpha not in (None, 0.0)):
            raise MethodNotApplicable(
                f"{method} is stated for the unweighted case alpha = beta = 0")
        if not domain.is_convex:
            raise MethodNotApplicable(f"{method} requires a convex domain; "
                                      f"{type(domain).__name__} is not")
        return HardyBoundSpec(0.0, 0.0, kappa(0.0), method, _UNWEIGHTED[method](domain),
                              notes)

    if alpha is None:
        raise MethodNotApplicable(f"{method} needs the weight exponent alpha")
    notes.update(_require_superharmonic(domain, method))

    if method == "fmt_weighted":
        c = fmt_constant(alpha, beta)
        if c is None:
            raise MethodNotApplicable(f"fmt_weighted needs alpha > beta - 2")
        lam = c * domain.interior_diameter() ** (beta - (alpha + 2))
        return HardyBoundSpec(beta, alpha, kappa(beta), method, lam, notes)

    # tubular
    c = tubular_constant(alpha, beta)
    if c is None:
        raise MethodNotApplicable("tubular needs 2 alpha - beta + 3 > 0")
    if delta is None:
        raise MethodNotApplicable("tubular needs the strip width delta")
    if delta > (1 - beta) / 2:
        raise MethodNotApplicable(
            f"tubular needs delta <= (1-beta)/2 = {(1 - beta) / 2}")
    notes["delta"] = delta
    lam = c * delta
    return HardyBoundSpec(beta, alpha, kappa(beta), method, lam, notes)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass
class HardyCertificate:
    domain: str
    beta: float
    alpha: float
    lam: float = field(metadata={"key": "lambda"})
    kappa: float
    levels: list            # dicts: level, size (elements), dof, minimum, margin
    verdict: str            # "CERTIFIED" or "INCONCLUSIVE"
    cert_tol: float
    semantics: str

    def csv_rows(self):
        return [(self.beta, self.alpha, self.lam, lv["level"], lv["dof"],
                 lv["minimum"], lv["margin"]) for lv in self.levels]


SEMANTICS = ("discrete minima over conforming subspaces bound the continuum "
             "infimum from above; CERTIFIED means every tested subspace "
             "satisfies the inequality, consistent with (not a proof of) the "
             "continuum bound")


def hardy_pencil(mesh, beta, alpha, lam):
    """Pencil of the Hardy quotient:
    numerator integral d^beta |grad u|^2 - lam integral d^alpha |u|^2,
    denominator integral d^(beta-2) |u|^2."""
    q = constant(0.0) if lam == 0 else constant(-lam) * power_of_d(alpha)
    form = FormSpec(a=power_of_d(beta), q=q, beta=beta)
    return assemble_pencil(mesh, form, power_of_d(beta - 2))


def check_ladder(beta, lam, levels):
    """Refuse the parameters `verify_hardy` cannot certify."""
    if beta >= 1:
        raise ExponentOutOfRange(f"requires beta < 1, got {beta}")
    if lam < 0:
        raise InvalidParameter("lambda must be nonnegative")
    if levels < 1:
        raise InvalidParameter("the ladder needs at least 1 level")


def ladder_mesh(domain, n, h, grading, levels):
    """The first mesh of the `verify_hardy` ladder, on the domain's section:
    n elements in 1D, graded as steeply as float64 allows with room for the
    ladder's bisections; target edge length h in 2D (None: build_trimesh's).
    A ladder over the work budget is refused, in 1D before it is built."""
    section = domain.section
    if section.dim == 1:
        require_ladder_budget(n, 1, levels, REFINE_FACTOR)
        return build_mesh_1d(section, n, grading,
                             bisections=REFINE_FACTOR * (levels - 1))
    mesh = build_trimesh(section, h, grading)
    require_ladder_budget(len(mesh.elements), 2, levels, REFINE_FACTOR)
    return mesh


def verify_hardy(domain, beta, alpha=0.0, lam=0.0, n=256, h=None,
                 grading=0.15, levels=3, seed=0, tol=None):
    """Certify the weighted Hardy inequality on a refinement ladder.

    The ladder starts from `ladder_mesh`, so a torus is certified on its
    cross-section disc with the cylindrical radius folded into all three
    integrals.  Each ladder level applies REFINE_FACTOR nested bisections,
    so the discrete minima decrease monotonically toward the continuum
    infimum.  Each level's first shift is kappa - CERT_TOL: an empty
    inertia count there is that level's discrete inequality, and a level
    with eigenvalues below it is solved from a shift stepped down past them.
    """
    check_ladder(beta, lam, levels)
    kap = kappa(beta)
    mesh = ladder_mesh(domain, n, h, grading, levels)
    solved = ladder(mesh, levels, REFINE_FACTOR,
                    lambda fine: hardy_pencil(fine, beta, alpha, lam),
                    tol=tol, seed=seed, floor=kap - CERT_TOL)
    rows = [{"level": level, "size": size, "dof": dof, "minimum": mu,
             "margin": mu - kap}
            for level, (size, dof, mu) in enumerate(solved)]

    certified = all(r["margin"] >= -CERT_TOL for r in rows)
    return HardyCertificate(repr(domain), beta, alpha, lam, kap, rows,
                            "CERTIFIED" if certified else "INCONCLUSIVE",
                            CERT_TOL, SEMANTICS)
