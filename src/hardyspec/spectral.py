"""Exhaustion-based estimation of the bottom of the essential spectrum and
the discreteness criteria built on weighted Hardy inequalities.

The exhaustion is by level sets of the boundary distance: the k-th strip is
{0 < d < 1/k}; clamping the strip's inner interface realizes trial functions
supported outside the exhausting core.  The strip minima mu_k grow like
k^(2-beta) exactly when the spectrum is purely discrete, which is what the
diagnostic pipeline checks at desk scale.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .coefficients import check_names, constant, environment
from .eigensolve import FLOOR, ladder, smallest_eigenpairs
from .errors import InvalidParameter, MeshGenerationFailure, StripTooThin
from .forms import FormSpec, assemble_pencil
from .geometry import Interval
from .hardy import kappa
from .meshing import MAX_ELEMENTS, build_trimesh, mesh_1d_with_level, restrict_to_strip

POINTWISE_TOL = 1e-8    # pure arithmetic
FORM_TOL = 1e-4         # discretization-limited
FORM_LEVELS = 2         # nested bisections of the form check's strip mesh
MAX_DRAW = 400000       # Halton indices tried for strip samples
HALTON_TABLE = 4096     # entries at most of each base's low-digit table (see _halton)
EXPONENT_SLACK = 0.1    # how far below 2 - beta a DISCRETE growth fit may fall


@dataclass
class ProblemSpec:
    """A domain, an energy form, and the numerical recipe for its strips."""

    domain: object
    form: FormSpec
    gamma: float = 0.5
    ks: tuple = (2, 3, 4, 6, 8, 12, 16)    # or a range, counted without being built
    k0: int = None
    strip_elements: int = None     # an interval's only; default: 96
    grading: float = None          # an interval's only; default: uniform when
                                   # a and q are free of d, else 0.15
    samples: int = 10000           # at most MAX_DRAW / 4, which a strip that
                                   # keeps a quarter of the box fills
    lam: float = 0.0               # remainder bound used by the pointwise check
    alpha: float = 0.0
    seed: int = 0
    tol: float = None

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise InvalidParameter("gamma must lie in (0, 1)")
        if self.domain.section.dim == 2:
            for name in ("grading", "strip_elements"):
                if getattr(self, name) is not None:
                    raise InvalidParameter(f"{name} applies only on an interval: "
                                           "2D strips use the uniform template")
        elif self.strip_elements is None:
            self.strip_elements = 96
        elif self.strip_elements < 1:
            raise InvalidParameter("strip_elements must be at least 1")
        # the sweep's work budget: an interval strip has at most 2 strip_elements
        # + 1 elements, a 2D strip at least the 4 of `restrict_to_strip`; a
        # range is counted in O(1), also past len()'s reach
        per_strip = 4 if self.strip_elements is None else 2 * self.strip_elements + 1
        ks = self.ks if isinstance(self.ks, range) else set(int(k) for k in self.ks)
        strips = len(ks) if isinstance(ks, set) else -((ks.start - ks.stop) // ks.step)
        if strips * per_strip > MAX_ELEMENTS:
            raise MeshGenerationFailure(f"{strips} strips of {per_strip} elements "
                                        f"exceed the budget of {MAX_ELEMENTS}")
        self.ks = tuple(sorted(ks))
        if not self.ks:
            raise InvalidParameter("the exhaustion range is empty")
        if any(k < 1 for k in self.ks):
            raise InvalidParameter("exhaustion indices must be positive")
        if not 1 <= self.samples <= MAX_DRAW // 4:
            raise InvalidParameter(f"samples must lie in [1, {MAX_DRAW // 4}], "
                                   f"got {self.samples}")
        if not np.isfinite([self.lam, self.alpha]).all():
            raise InvalidParameter(f"lambda and alpha must be finite, got {self.lam} "
                                   f"and {self.alpha}")
        if self.grading is not None and not 0 < self.grading <= 1:
            raise InvalidParameter(f"grading must lie in (0, 1], got {self.grading}")
        check_names(self.domain.section, self.form.a, self.form.q)
        match self.form.a.terms():
            case [(1.0, power, None)]:      # a reads exactly d^power
                if self.form.beta not in (None, power):
                    raise InvalidParameter(f"beta = {self.form.beta:g} contradicts "
                                           f"a = d^{power:g}")
                self.form = replace(self.form, beta=power)
        if self.k0 is None:
            self.k0 = self.ks[0]
        if self.k0 < 1:
            raise InvalidParameter("k0 must be positive")
        if self.grading is None and self.domain.section.dim == 1:
            forms = (self.form.a.terms(), self.form.q.terms())
            free = all(t is not None and all(p == 0 for _, p, _ in t) for t in forms)
            self.grading = 1.0 if free and self.beta == 0 else 0.15

    @property
    def beta(self):
        return self.form.beta if self.form.beta is not None else 0.0

    @property
    def required_exponent(self):
        """The least growth exponent of the strip minima that
        `discreteness_diagnostic` calls DISCRETE."""
        return (2 - self.beta) - EXPONENT_SLACK


def strip_mesh(problem, k):
    """Mesh of the strip {0 < d < 1/k} of the domain's section with the
    inner interface clamped.  The grading floor leaves room for several
    nested bisections."""
    delta = 1.0 / k
    domain = problem.domain.section
    if isinstance(domain, Interval):
        mesh = mesh_1d_with_level(domain, delta, problem.strip_elements,
                                  problem.grading, bisections=6)
    else:
        # 2D strips stay on the uniform template: the triangulation's grading
        # knob refines tangentially as well, which balloons strip pencils
        h = max(delta / 8, domain.interior_diameter() / 256)
        mesh = build_trimesh(domain, h, 1.0, reach=delta)
    return restrict_to_strip(mesh, delta)


@dataclass
class PerssonSequence:
    entries: list                  # dicts: k, delta, dof, mu
    bound: list                    # kappa(beta) k^(2-beta) when applicable, else None
    fitted_exponent: float
    beta: float

    def csv_rows(self):
        bound = [""] * len(self.entries) if self.bound is None else self.bound
        return [(e["k"], e["delta"], e["dof"], e["mu"], b)
                for e, b in zip(self.entries, bound)]

    def mus(self):
        return np.array([e["mu"] for e in self.entries])


def persson_sequence(problem):
    """Strip minima mu_k = min of the form over functions supported in
    {d < 1/k}, for each k in the problem's range.

    When the diffusion is exactly d^beta and the potential a sum of
    nonnegative multiples of powers of d, so nonnegative, the analytic
    lower-bound curve kappa(beta) k^(2-beta) is reported alongside.

    The strips nest, {d < 1/(k+1)} in {d < 1/k}, so mu_k grows with k, and
    the minimum of the strip before is a floor for the next (the first
    strip's is the eigensolver's default, FLOOR).  A shift closer to
    the bottom saves Lanczos solves, so strip k is first tried at the least
    minimum the diagnostic would still call DISCRETE, the previous one grown
    at the required exponent: mu_prev (k / k_prev)^required, when mu_prev is
    positive and that lies above it.  Inertia certifies the guess as any
    shift: where it counts an eigenvalue below, the solve falls back to
    mu_prev for one factorization more and the same minimum, and the later
    strips start at the previous minimum.
    """
    entries, floor, guessing = [], [FLOOR], True
    for k in problem.ks:
        if entries:
            mu, k_prev = entries[-1]["mu"], entries[-1]["k"]
            floor = [mu]
            grown = mu * (k / k_prev) ** problem.required_exponent
            if guessing and mu > 0 and grown > mu:
                floor.append(grown)
        sub = strip_mesh(problem, k)
        pencil = assemble_pencil(sub, problem.form, 1.0)
        rep = smallest_eigenpairs(pencil, 1, tol=problem.tol, seed=problem.seed,
                                  floor=floor)
        if len(floor) == 2:     # a refuted guess falls back to mu_prev or below
            guessing = rep.sigma > floor[0]
        entries.append({"k": k, "delta": 1.0 / k, "dof": pencil.dof,
                        "mu": float(rep.eigenvalues[0])})

    beta = problem.beta
    q = problem.form.q.terms()
    proven = problem.form.a.terms() == [(1.0, beta, None)] and q is not None \
        and all(c >= 0 and g is None for c, _, g in q)
    bound = [kappa(beta) * k ** (2 - beta) for k in problem.ks] if proven else None

    mus, ks = np.array([e["mu"] for e in entries]), np.array(problem.ks, dtype=float)
    fitted = float(np.polyfit(np.log(ks), np.log(mus), 1)[0]) \
        if np.all(mus > 0) and len(mus) >= 2 else None
    return PerssonSequence(entries, bound, fitted, beta)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

@dataclass
class CriterionReport:
    criterion: str                 # "pointwise" or "form_h10"
    verdict: str                   # "PASS" or "FAIL"
    worst_margin: float
    worst_point: tuple
    tol: float
    detail: dict = field(default_factory=dict)


def _digits(idx, base, f, r):
    """r plus the base-`base` digits of idx, lowest first, the j-th weighted
    f / base^j; and f / base^(number of digits of the largest index)."""
    while idx.any():
        f /= base
        idx, digit = np.divmod(idx, base)
        r += f * digit
    return r, f


@lru_cache
def _halton_table(base):
    """The radical inverses of 0 .. base^k - 1, base^k the largest power of
    base up to HALTON_TABLE, as `_digits` sums them; base^k; and the weight
    base^-k those sums reach.  Computed once per base; read-only, since every
    caller shares it."""
    size = base
    while size * base <= HALTON_TABLE:
        size *= base
    table, f = _digits(np.arange(size), base, 1.0, np.zeros(size))
    table.flags.writeable = False
    return table, size, f


def _halton(idx, base):
    """Radical inverse of each index in `base` (the Halton coordinate).  The
    low digits' partial sum is read from the base's table, the higher digits
    continue the sum: the same additions in the same order as digit by
    digit, so the same bits."""
    table, size, f = _halton_table(base)
    high, low = np.divmod(np.asarray(idx), size)
    return _digits(high, base, f, table[low])[0]


def _halton_points(domain, lo, hi, n_keep, d_max):
    """Deterministic low-discrepancy points with 0 < d < d_max, and their d:
    the first n_keep such points of the Halton sequence's indices 1 to
    MAX_DRAW, or as many as those hold.  The first batch draws n_keep
    indices, each later one as many as the acceptance rate so far says the
    rest need; every batch but one cut at MAX_DRAW draws at least 1024,
    and while none was kept, as many as were drawn."""
    bases = (2, 3, 5)[:len(lo)]
    kept, start, batch = 0, 1, max(n_keep, 1024)
    out, out_d = [], []
    while kept < n_keep and start <= MAX_DRAW:
        idx = np.arange(start, min(start + batch, MAX_DRAW + 1))
        p = lo + np.column_stack([_halton(idx, b) for b in bases]) * (hi - lo)
        d = domain.distance_many(p)
        good = (d > 0) & (d < d_max)
        out.append(p[good])
        out_d.append(d[good])
        kept += int(good.sum())
        start += len(idx)
        drawn = start - 1
        batch = max(1024, -(-(n_keep - kept) * drawn // kept) if kept else drawn)
    if kept == 0:
        raise StripTooThin(f"no sample point landed in the strip 0 < d < {d_max}")
    return np.vstack(out)[:n_keep], np.concatenate(out_d)[:n_keep]


def check_pointwise_criterion(problem):
    """Pointwise domination of the negative part of the potential:

        q_-(x) <= (1 - gamma) [kappa(beta) d^(beta-2) + lam d^alpha]

    sampled on a deterministic low-discrepancy set of the strip
    {0 < d < 1/k0}, drawn in the domain and evaluated on its section.
    """
    lam, alpha, beta = problem.lam, problem.alpha, problem.beta
    pts, d = _halton_points(problem.domain, *problem.domain.box(), problem.samples,
                            1.0 / problem.k0)
    env = environment(problem.domain.to_section(pts), d)
    q_minus = np.broadcast_to(problem.form.q.negative_part().evaluate(env), d.shape)
    allowed = (1 - problem.gamma) * (kappa(beta) * d ** (beta - 2) + lam * d ** alpha)
    margin = allowed - q_minus
    i = int(np.argmin(margin))
    worst = float(margin[i])
    verdict = "PASS" if worst >= -POINTWISE_TOL else "FAIL"
    return CriterionReport("pointwise", verdict, worst,
                           tuple(np.asarray(pts[i]).tolist()), POINTWISE_TOL,
                           {"samples": int(len(d)), "k0": problem.k0,
                            "lambda": lam, "alpha": alpha, "gamma": problem.gamma})


def check_form_nonnegativity(problem):
    """Nonnegativity of (1-gamma) * diffusion energy minus the negative-part
    potential on the strip {d < 1/k0}, clamped on its whole boundary, as a
    generalized eigenvalue problem on FORM_LEVELS nested bisections of the
    strip mesh.  PASS means the refined minimum stays above -tol;
    supercritical data reveal themselves by minima diverging to minus
    infinity under refinement.
    """
    q_minus = problem.form.q.negative_part()
    check_form = FormSpec(a=constant(1.0 - problem.gamma) * problem.form.a, q=-q_minus)

    # nested bisection keeps the ladder monotone; a 2D strip's refined
    # interface edges are not clamped (ROADMAP item 10)
    _, dofs, minima = map(list, zip(*ladder(
        strip_mesh(problem, problem.k0), FORM_LEVELS + 1, 1,
        lambda mesh: assemble_pencil(mesh, check_form, 1.0),
        tol=problem.tol, seed=problem.seed)))

    final = minima[-1]
    verdict = "PASS" if final >= -FORM_TOL else "FAIL"
    diverging = len(minima) >= 2 and final < -FORM_TOL \
        and final < 2.0 * minima[0]
    return CriterionReport("form_h10", verdict, final, (), FORM_TOL,
                           {"k": problem.k0, "minima": minima, "dofs": dofs,
                            "diverging": bool(diverging), "gamma": problem.gamma})


# ---------------------------------------------------------------------------
# the diagnostic pipeline
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticReport:
    verdict: str                   # "DISCRETE" or "INCONCLUSIVE"
    pointwise: CriterionReport
    form: CriterionReport
    sequence: PerssonSequence
    fitted_exponent: float
    exponent_required: float
    bound_ok: bool
    reason: str


def check_diagnostic(ks):
    """Refuse exhaustion indices too few for `discreteness_diagnostic`'s fit."""
    if len(ks) < 5:
        raise InvalidParameter("the diagnostic needs at least 5 exhaustion indices")


def discreteness_diagnostic(problem):
    """Three-stage pipeline: pointwise criterion, form nonnegativity at k0,
    then the strip sweep with a growth-exponent fit.  The stages run in
    order, and the first that fails gives the reason and ends the run.

    DISCRETE requires every stage to pass, the fitted exponent to reach
    `required_exponent`, (2 - beta) - EXPONENT_SLACK, and each strip
    minimum to clear the analytic curve gamma kappa(beta) k^(2-beta); each
    of the last two that fails adds its reason.  Anything else is
    INCONCLUSIVE; the diagnostic never claims the spectrum is *not* discrete.
    """
    check_diagnostic(problem.ks)
    beta, required = problem.beta, problem.required_exponent
    form = seq = fitted = None
    bound_ok, reasons = False, []
    pointwise = check_pointwise_criterion(problem)
    if pointwise.verdict != "PASS":
        reasons.append("pointwise criterion failed at stage 1")
    elif (form := check_form_nonnegativity(problem)).verdict != "PASS":
        reasons.append("form nonnegativity failed at stage 2")
    elif (seq := persson_sequence(problem)).fitted_exponent is None:
        reasons.append("strip minima not positive; no growth fit")
    else:
        fitted = seq.fitted_exponent
        curve = problem.gamma * kappa(beta) \
            * np.array([float(k) for k in problem.ks]) ** (2 - beta)
        bound_ok = bool(np.all(seq.mus() >= curve * (1 - 1e-9)))
        if not fitted >= required:
            reasons.append(f"fitted exponent {fitted:.3f} below {required:.3f}")
        if not bound_ok:
            reasons.append("a strip minimum fell below the analytic curve")
    return DiagnosticReport("INCONCLUSIVE" if reasons else "DISCRETE", pointwise, form,
                            seq, fitted, required, bound_ok,
                            "; ".join(reasons) or "all stages passed")
