import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyspec import (Annulus, ConvexPolygon, CriterionReport, DiagnosticReport, Disc,
                       FormSpec, Interval, PerssonSequence, ProblemSpec, Torus, kappa,
                       check_form_nonnegativity, check_pointwise_criterion,
                       discreteness_diagnostic, persson_sequence)
from hardyspec.coefficients import power_of_d
from hardyspec.errors import InvalidParameter, MeshGenerationFailure, StripTooThin
from hardyspec.report import jsonable
from hardyspec import eigensolve, spectral
from hardyspec.eigensolve import _factor, smallest_eigenpairs
from hardyspec.spectral import _halton, _halton_points, strip_mesh

IV = Interval(0, 1)


def _problem(a, q, beta, gamma, ks, **kw):
    return ProblemSpec(domain=IV, form=FormSpec(a=a, q=q, beta=beta),
                       gamma=gamma, ks=ks, **kw)


def _halton_scalar(index, base):
    """Oracle: the radical inverse of one index, digit by digit."""
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def test_halton_matches_scalar_oracle():
    # the low digits come from each base's table (4,096, 2,187 and 3,125
    # entries): ranges across its end, far beyond it, up to MAX_DRAW, and
    # one out of order
    top = spectral.MAX_DRAW
    arrays = [np.arange(1, 20001), np.arange(4090, 4111), np.arange(199990, 200011),
              np.arange(top - 100, top + 1), np.array([top, 0, 2187, 3124, 7, 4096, 3125,
                                                       2186, 390625, 6561, 4095])]
    for idx in arrays:
        for base in (2, 3, 5):
            oracle = np.array([_halton_scalar(i, base) for i in idx])
            assert np.array_equal(_halton(idx, base), oracle)
    assert [len(spectral._halton_table(b)[0]) for b in (2, 3, 5)] == [4096, 2187, 3125]


def test_halton_points_match_scalar_oracle():
    # batches are consecutive index ranges, so the kept points are the first
    # n_keep in-strip points of one long Halton sequence
    for domain, n_keep, d_max, n_idx in ((IV, 300, 0.25, 2000),
                                         (Torus(3.0, 1.0), 300, 0.25, 3000)):
        lo, hi = domain.box()
        idx = np.arange(1, n_idx + 1)
        cols = [[_halton_scalar(i, b) for i in idx] for b in (2, 3, 5)[:len(lo)]]
        p = lo + np.column_stack(cols) * (hi - lo)
        d = domain.distance_many(p)
        keep = (d > 0) & (d < d_max)
        oracle, oracle_d = p[keep][:n_keep], d[keep][:n_keep]
        assert len(oracle) == n_keep
        pts, pts_d = _halton_points(domain, lo, hi, n_keep, d_max)
        assert np.array_equal(pts, oracle)
        assert np.array_equal(pts_d, oracle_d)


def _counted_draws(monkeypatch):
    """The index batches `_halton_points` draws, by monkeypatching `_halton`."""
    batches, halton = [], spectral._halton
    def counted(idx, base):
        if base == 2:
            batches.append(len(idx))
        return halton(idx, base)
    monkeypatch.setattr(spectral, "_halton", counted)
    return batches


def test_halton_draw_sized_to_what_it_keeps(monkeypatch):
    # the first batch draws `samples` indices, the next what the acceptance
    # rate asks for, at least 1024: on the diagnose bench strip {d < 1/2},
    # where x = 1/2 is the one miss, 11,024 indices in place of 4 x 10,000
    batches = _counted_draws(monkeypatch)
    pts, d = _halton_points(IV, *IV.box(), 10000, 0.5)
    assert batches == [10000, 1024] and len(d) == 10000
    batches.clear()
    torus = Torus(3.0, 1.0)
    pts, d = _halton_points(torus, *torus.box(), 10000, 0.5)
    assert 10000 < sum(batches) < 30000 and len(d) == 10000


def test_halton_draw_stops_at_max_draw(monkeypatch):
    # no more than MAX_DRAW indices: the strip {d < 4e-6} holds 3 of them,
    # the in-strip points of the one sequence from 1 to MAX_DRAW
    batches = _counted_draws(monkeypatch)
    pts, d = _halton_points(IV, *IV.box(), 10, 4e-6)
    assert sum(batches) == spectral.MAX_DRAW
    x = _halton(np.arange(1, spectral.MAX_DRAW + 1), 2)
    oracle = x[np.minimum(x, 1 - x) < 4e-6]
    assert len(oracle) == 3
    assert np.array_equal(pts[:, 0], oracle)
    assert np.array_equal(d, np.minimum(oracle, 1 - oracle))


def test_persson_laplacian_matches_strip_modes():
    # the strip {d < 1/k} splits into two intervals of length 1/k, so the
    # smallest clamped mode is (pi k)^2
    prob = _problem(1.0, 0.0, 0.0, 0.5, (2, 4, 8))
    seq = persson_sequence(prob)
    for e in seq.entries:
        assert e["mu"] == pytest.approx(np.pi**2 * e["k"] ** 2, rel=1e-3)
    assert seq.fitted_exponent == pytest.approx(2.0, abs=0.05)


def test_persson_strip_bound_weighted():
    prob = _problem("d^0.5", 0.0, 0.5, 0.9, tuple(range(2, 17)))
    seq = persson_sequence(prob)
    mus = seq.mus()
    ks = np.array([e["k"] for e in seq.entries], dtype=float)
    assert np.all(mus >= 0.0625 * ks**1.5 - 1e-8)
    assert np.all(np.diff(mus) >= -1e-8)
    assert seq.fitted_exponent >= 1.4
    assert seq.bound is not None


# The paper's curve as an oracle.  With a = d^beta and q = 0 on a convex
# domain (-laplacian(d) >= 0), the Hardy inequality and d < 1/k on the strip
# give  integral d^beta |grad u|^2 >= kappa(beta) k^(2-beta) integral u^2,
# and a conforming strip minimum bounds the infimum from above: no mu_k may
# fall below the curve, with no slack.

@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(disc=st.booleans(), beta=st.floats(-0.5, 0.9),
       ks=st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True))
def test_persson_curve_oracle(disc, beta, ks):
    domain = Disc((0, 0), 1.0) if disc else IV
    prob = ProblemSpec(domain, FormSpec(a=power_of_d(beta), q=0.0), 0.5, ks=ks)
    seq = persson_sequence(prob)
    assert seq.bound == [kappa(beta) * k ** (2 - beta) for k in prob.ks]
    assert np.all(seq.mus() >= seq.bound)


def test_persson_monotone():
    prob = _problem(1.0, 0.0, 0.0, 0.5, (2, 3, 4, 6, 8, 12, 16))
    seq = persson_sequence(prob)
    mus = seq.mus()
    assert np.all(np.diff(mus) >= -1e-8)


def test_persson_bound_column_suppressed_for_negative_q():
    for q, ks in (("-0.01*d^-1", (2, 4)),
                  # a negative dip that lies between two strip nodes
                  ("-1e8*pos(0.001 - abs(x - 0.2526))", (2,))):
        seq = persson_sequence(_problem(1.0, q, 0.0, 0.5, ks))
        assert seq.bound is None


def _recorded_sequence(monkeypatch, problem):
    """persson_sequence(problem), and each strip's pencil, floors and
    report."""
    solves = []

    def recorded(pencil, count, **kw):
        rep = smallest_eigenpairs(pencil, count, **kw)
        solves.append((pencil, kw["floor"], rep))
        return rep

    monkeypatch.setattr(spectral, "smallest_eigenpairs", recorded)
    return persson_sequence(problem), solves


def _counted_factorizations(monkeypatch):
    """The shift of each factorization from here on."""
    factored = []

    def counted(*args):
        factored.append(args[2])
        return _factor(*args)

    monkeypatch.setattr(eigensolve, "_factor", counted)
    return factored


TORUS_DIAGNOSE = ProblemSpec(domain=Torus(3.0, 1.0), form=FormSpec(a=1.0, q="-0.05*d^-2"),
                             ks=tuple(range(2, 7)))
DISC_DIAGNOSE = ProblemSpec(domain=Disc((0, 0), 1.0), form=FormSpec(a=1.0, q="-0.05*d^-2"),
                            ks=tuple(range(2, 17)))


@pytest.mark.parametrize("problem", [TORUS_DIAGNOSE, DISC_DIAGNOSE], ids=["torus", "disc"])
def test_predicted_floors_keep_the_minima(monkeypatch, problem):
    # each strip after the first starts at mu_prev (k / k_prev)^required,
    # which inertia certifies; solved again from mu_prev alone, every
    # minimum is the same to rounding, for more LU solves
    seq, solves = _recorded_sequence(monkeypatch, problem)
    mus = seq.mus()
    assert solves[0][1] == [-0.01]
    guessed = spent = 0
    for i, (pencil, floor, rep) in enumerate(solves[1:], 1):
        grown = mus[i - 1] * (problem.ks[i] / problem.ks[i - 1]) ** problem.required_exponent
        assert floor == [mus[i - 1], grown] and rep.sigma == grown
        oracle = smallest_eigenpairs(pencil, 1, seed=problem.seed, floor=mus[i - 1])
        assert oracle.sigma == mus[i - 1]
        assert mus[i] == pytest.approx(oracle.eigenvalues[0], rel=1e-12, abs=0)
        guessed, spent = guessed + rep.iterations, spent + oracle.iterations
    assert guessed < spent


def test_refuted_guess_costs_one_factorization(monkeypatch):
    factored = _counted_factorizations(monkeypatch)
    # a required exponent of 0 names no guess above mu_prev: the floors of
    # the sequence without guesses
    monkeypatch.setattr(spectral, "EXPONENT_SLACK", 2.0)
    plain, plain_solves = _recorded_sequence(monkeypatch, TORUS_DIAGNOSE)
    assert all(len(floor) == 1 for _, floor, _ in plain_solves)
    plain_factored = len(factored)
    # an exponent of 5 overshoots mu_3 = 85.5 from mu_2 = 37.7 by 7.6 times
    factored.clear()
    monkeypatch.setattr(spectral, "EXPONENT_SLACK", -3.0)
    refuted, refuted_solves = _recorded_sequence(monkeypatch, TORUS_DIAGNOSE)
    assert len(factored) == plain_factored + 1
    assert np.array_equal(refuted.mus(), plain.mus())
    floors = [floor for _, floor, _ in refuted_solves]
    mus = refuted.mus()
    assert len(floors[1]) == 2 and floors[1][1] > mus[1]
    assert refuted_solves[1][2].sigma == mus[0]
    # the later strips start at the previous minimum
    assert floors[2:] == [[mu] for mu in mus[1:-1]]


def test_interval_guesses_keep_the_counts(monkeypatch):
    # the bench's interval diagnosis: every guess holds, and each strip
    # converges at the 13-solve floor of one eigenpair with or without it
    factored = _counted_factorizations(monkeypatch)
    problem = _problem("d^0.5", "-0.03*d^-1.5", 0.5, 0.5, tuple(range(2, 17)))
    counts = []
    for slack in (spectral.EXPONENT_SLACK, 2.0):    # 2.0: no guess above mu_prev
        monkeypatch.setattr(spectral, "EXPONENT_SLACK", slack)
        factored.clear()
        seq, solves = _recorded_sequence(monkeypatch, problem)
        assert all(len(floor) == (2 if slack < 2 else 1) and rep.sigma == floor[-1]
                   for _, floor, rep in solves[1:])
        counts.append((len(factored), sum(rep.iterations for _, _, rep in solves)))
    assert counts == [(15, 196), (15, 196)]


def test_strip_too_thin_for_large_k():
    prob = _problem(1.0, 0.0, 0.0, 0.5, (2,))
    with pytest.raises(StripTooThin):
        strip_mesh(prob, 1)  # 1/k = 1 exceeds sup d = 1/2


@pytest.mark.parametrize("domain, k, elements", [
    (ConvexPolygon([(0, 0), (4, 0), (4, 1), (0, 1)]), 16, 132930),
    (Annulus((0, 0), 0.5, 1.0), 64, 102944)])
def test_strip_mesh_within_the_work_budget(domain, k, elements):
    # the rings stop just past the strip, so the budget counts that band:
    # counted to the full depth, these strips read 1.7e6 and 2.5e6
    # triangles and were refused
    prob = ProblemSpec(domain=domain, form=FormSpec(a=1.0, q=0.0), gamma=0.5, ks=(k,))
    assert len(strip_mesh(prob, k).elements) == elements


def test_pointwise_subcritical():
    prob = _problem(1.0, "-0.1*d^-2", 0.0, 0.5, (2,))
    rep = check_pointwise_criterion(prob)
    assert rep.verdict == "PASS"
    # margin = (0.125 - 0.1)/d^2, smallest at the largest sampled d
    assert rep.worst_margin > 0


def test_pointwise_supercritical():
    prob = _problem(1.0, "-0.2*d^-2", 0.0, 0.5, (2,))
    rep = check_pointwise_criterion(prob)
    assert rep.verdict == "FAIL"
    d_worst = min(rep.worst_point[0], 1 - rep.worst_point[0])
    assert d_worst < 0.01  # failure shows up near the boundary


def test_pointwise_weighted_threshold():
    prob = _problem("d^0.5", "-0.125*d^-1.5", 0.5, 0.5, (2,))
    rep = check_pointwise_criterion(prob)
    assert rep.verdict == "FAIL"  # 0.125 > (1-gamma) kappa(0.5) = 0.03125


def test_pointwise_deterministic():
    prob = _problem(1.0, "-0.1*d^-2", 0.0, 0.5, (2,), samples=500)
    r1 = check_pointwise_criterion(prob)
    r2 = check_pointwise_criterion(prob)
    assert r1.worst_margin == r2.worst_margin
    assert r1.worst_point == r2.worst_point


def test_form_subcritical_boundary_case():
    # 0.125 = (1 - gamma) kappa(0): the form stays nonnegative
    prob = _problem(1.0, "-0.125*d^-2", 0.0, 0.5, (2,))
    rep = check_form_nonnegativity(prob)
    assert rep.verdict == "PASS"
    assert all(m >= -1e-4 for m in rep.detail["minima"])


def test_form_trivial_pass_for_nonnegative_q():
    prob = _problem(1.0, "d", 0.0, 0.5, (2,))
    rep = check_form_nonnegativity(prob)
    assert rep.verdict == "PASS"
    assert rep.worst_margin > 0


def test_form_supercritical_blowdown():
    prob = _problem(1.0, "-0.3*d^-2", 0.0, 0.5, (2,))
    rep = check_form_nonnegativity(prob)
    assert rep.verdict == "FAIL"
    minima = rep.detail["minima"]
    assert minima[-1] < 0
    assert minima[-1] < 10 * minima[0]  # blow-down by more than a factor 10
    assert rep.detail["diverging"]


def test_criterion_consistency():
    # pointwise PASS at lambda = 0 implies the form check passes too
    prob = _problem(1.0, "-0.11*d^-2", 0.0, 0.5, (2,))
    assert check_pointwise_criterion(prob).verdict == "PASS"
    assert check_form_nonnegativity(prob).verdict == "PASS"


def test_diagnostic_weighted_discrete():
    prob = _problem("d^0.5", 0.0, 0.5, 0.9, tuple(range(2, 17)))
    rep = discreteness_diagnostic(prob)
    assert rep.verdict == "DISCRETE"
    assert rep.fitted_exponent >= 1.4


def test_diagnostic_laplacian_exponent_two():
    prob = _problem(1.0, 0.0, 0.0, 0.5, (2, 3, 4, 6, 8, 12, 16))
    rep = discreteness_diagnostic(prob)
    assert rep.verdict == "DISCRETE"
    assert 1.95 <= rep.fitted_exponent <= 2.05


def test_diagnostic_gates_on_pointwise():
    prob = _problem(1.0, "-0.3*d^-2", 0.0, 0.5, (2, 3, 4, 6, 8))
    rep = discreteness_diagnostic(prob)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.pointwise.verdict == "FAIL"
    assert rep.form is None  # the pipeline stops at stage 1


def test_diagnostic_near_threshold_pass():
    prob = _problem("d^0.5", "-0.03*d^-1.5", 0.5, 0.5, tuple(range(2, 17)))
    rep = discreteness_diagnostic(prob)
    assert rep.verdict == "DISCRETE"


def test_diagnostic_near_threshold_fail():
    prob = _problem("d^0.5", "-0.2*d^-1.5", 0.5, 0.5, tuple(range(2, 17)))
    rep = discreteness_diagnostic(prob)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.pointwise.verdict == "FAIL"


def test_diagnostic_needs_five_indices():
    prob = _problem(1.0, 0.0, 0.0, 0.5, (2, 3, 4))
    with pytest.raises(ValueError):
        discreteness_diagnostic(prob)


KS5 = (2, 3, 4, 6, 8)
PASSED = CriterionReport("pointwise", "PASS", 0.1, (0.2,), 1e-8)
FAILED = CriterionReport("pointwise", "FAIL", -0.1, (0.2,), 1e-8)


def _sequence(scale, power, fitted):
    entries = [{"k": k, "delta": 1 / k, "dof": 9, "mu": scale * k**power} for k in KS5]
    return PerssonSequence(entries, None, fitted, 0.0)


# the report of each outcome, whole, from stage results given in turn: at
# beta = 0 and gamma = 0.5 the curve is k^2 / 8 and the required exponent 1.9
OUTCOMES = {
    "pointwise fails": ((FAILED,), "INCONCLUSIVE", False,
                        "pointwise criterion failed at stage 1"),
    "form fails": ((PASSED, FAILED), "INCONCLUSIVE", False,
                   "form nonnegativity failed at stage 2"),
    "no growth fit": ((PASSED, PASSED, _sequence(-1.0, 2, None)), "INCONCLUSIVE", False,
                      "strip minima not positive; no growth fit"),
    "discrete": ((PASSED, PASSED, _sequence(10.0, 2, 2.0)), "DISCRETE", True,
                 "all stages passed"),
    "slow growth": ((PASSED, PASSED, _sequence(10.0, 1, 1.0)), "INCONCLUSIVE", True,
                    "fitted exponent 1.000 below 1.900"),
    "below the curve": ((PASSED, PASSED, _sequence(0.1, 2, 2.0)), "INCONCLUSIVE", False,
                        "a strip minimum fell below the analytic curve"),
    "both": ((PASSED, PASSED, _sequence(0.01, 1, 1.0)), "INCONCLUSIVE", False,
             "fitted exponent 1.000 below 1.900; "
             "a strip minimum fell below the analytic curve"),
}


@pytest.mark.parametrize("outcome", sorted(OUTCOMES))
def test_diagnostic_report_of_each_outcome(monkeypatch, outcome):
    stages, verdict, bound_ok, reason = OUTCOMES[outcome]
    called = []
    for i, name in enumerate(("check_pointwise_criterion", "check_form_nonnegativity",
                              "persson_sequence")):
        monkeypatch.setattr(spectral, name,
                            lambda problem, i=i: called.append(i) or stages[i])
    problem = _problem(1.0, 0.0, 0.0, 0.5, KS5)
    rep = discreteness_diagnostic(problem)
    # a failed stage is the last to run
    assert called == list(range(len(stages)))
    pointwise, form, seq = stages + (None,) * (3 - len(stages))
    fitted = None if seq is None else seq.fitted_exponent
    assert rep == DiagnosticReport(verdict, pointwise, form, seq, fitted,
                                   problem.required_exponent, bound_ok, reason)


def test_beta_taken_from_power_diffusion():
    prob = _problem("d^0.5", 0.0, None, 0.5, (2, 4))
    assert prob.beta == 0.5 and prob.form.beta == 0.5
    assert persson_sequence(prob).beta == 0.5
    assert _problem(1.0, 0.0, None, 0.5, (2,)).beta == 0.0
    assert _problem("1+d", 0.0, None, 0.5, (2,)).beta == 0.0
    with pytest.raises(ValueError, match="contradicts"):
        _problem("d^0.5", 0.0, 0.3, 0.5, (2,))
    with pytest.raises(ValueError, match="contradicts"):
        _problem(1.0, 0.0, 0.5, 0.5, (2,))


def test_samples_bounded_by_the_first_draw():
    # stage 1 tries at most MAX_DRAW Halton indices, so samples stops at
    # MAX_DRAW / 4: a strip that keeps a quarter of them fills any sample
    top = spectral.MAX_DRAW // 4
    assert _problem(1.0, 0.0, 0.0, 0.5, (2,), samples=top).samples == 100000
    for samples in (0, top + 1, 10**8):
        with pytest.raises(InvalidParameter, match=r"samples must lie in \[1, 100000\]"):
            _problem(1.0, 0.0, 0.0, 0.5, (2,), samples=samples)


def test_sweep_counted_before_its_indices_are_built():
    # 193 elements per interval strip at the default 96, at least 4 per 2D
    # strip; 5181 * 193 = 999,933 and 250,000 * 4 = 10^6 fit the budget
    for domain, strips in ((IV, 5181), (Disc((0, 0), 1.0), 250000)):
        for ks in (range(1, strips + 1), tuple(range(1, strips + 1)) * 2):
            assert len(ProblemSpec(domain, FormSpec(a=1.0, q=0.0), ks=ks).ks) == strips
        with pytest.raises(MeshGenerationFailure, match=f"{strips + 1} strips"):
            ProblemSpec(domain, FormSpec(a=1.0, q=0.0), ks=range(1, strips + 2))
    # a range is counted past len()'s limit, and with its step
    with pytest.raises(MeshGenerationFailure, match="budget"):
        _problem(1.0, 0.0, 0.0, 0.5, range(2, 2**64))
    assert _problem(1.0, 0.0, 0.0, 0.5, range(16, 1, -3)).ks == (4, 7, 10, 13, 16)


def test_gamma_validation():
    with pytest.raises(ValueError):
        _problem(1.0, 0.0, 0.0, 1.5, (2,))
    assert ProblemSpec(IV, FormSpec(a=1.0, q=0.0)).gamma == 0.5


@pytest.mark.parametrize("grading", [-1.0, 0.0, 1.5, float("nan")])
def test_grading_outside_the_unit_interval_refused(grading):
    with pytest.raises(ValueError, match=r"grading must lie in \(0, 1\]"):
        _problem(1.0, 0.0, 0.0, 0.5, (2,), grading=grading)


def test_2d_strip_keys_refused():
    # 2D strips use the uniform template, which reads neither key
    for key in ({"grading": 0.3}, {"strip_elements": 7}):
        with pytest.raises(ValueError, match="only on an interval"):
            ProblemSpec(Disc((0, 0), 1), FormSpec(a=1.0, q=0.0), 0.5, ks=(2,), **key)
    problem = ProblemSpec(Torus(3.0, 1.0), FormSpec(a=1.0, q=0.0), 0.5, ks=(2,))
    assert problem.strip_elements is None
    assert _problem(1.0, 0.0, 0.0, 0.5, (2,)).strip_elements == 96


def test_2d_grading_default_left_unset(monkeypatch):
    # only an interval's strips read the grading, and its default comes from
    # the normal form of a and q: no section evaluates a coefficient for it
    from hardyspec.coefficients import Coefficient
    calls = []
    evaluate = Coefficient.evaluate
    monkeypatch.setattr(Coefficient, "evaluate",
                        lambda self, env: calls.append(self) or evaluate(self, env))
    form = FormSpec(a=1.0, q="-0.05*d^-2")
    problem = ProblemSpec(Disc((0, 0), 1), form, 0.5, ks=(2,))
    assert problem.grading is None
    # an interval grades its strips when a or q has a power of d, or no
    # normal form, and is uniform otherwise, wherever it lies
    assert ProblemSpec(IV, form, 0.5, ks=(2,)).grading == 0.15
    for a, q, grading in ((1.0, 0.0, 1.0), ("1 + x", -30.0, 1.0),
                          (1.0, "0.1*d^-2", 0.15), (1.0, "abs(d - 0.2)", 0.15),
                          ("d^0.5", 0.0, 0.15)):
        assert _problem(a, q, None, 0.5, (2,)).grading == grading, (a, q)
    for c in (-1, 0, 2):
        placed = ProblemSpec(Interval(c, c + 1), FormSpec(a=1.0, q=f"x - {c} - 0.5"),
                             0.5, ks=(2,))
        assert placed.grading == 1.0
    assert calls == []


def test_persson_2d_strip_matches_annulus():
    # the k=2 strip of the unit disc is the annulus 1/2 < rho < 1 with both
    # circles clamped; cross-check against a mesh built on that annulus
    from hardyspec import Annulus, Disc, FormSpec, assemble_pencil, \
        build_trimesh, smallest_eigenpairs
    disc = Disc((0, 0), 1.0)
    prob = ProblemSpec(domain=disc, form=FormSpec(a=1.0, q=0.0, beta=0.0),
                       gamma=0.5, ks=(2,))
    sub = strip_mesh(prob, 2)
    assert sub.domain.measure_weight is None
    pencil = assemble_pencil(sub, prob.form, 1.0)
    mu = smallest_eigenpairs(pencil, 1).eigenvalues[0]

    ann = build_trimesh(Annulus((0, 0), 0.5, 1.0), 0.03, 1.0)
    ref = smallest_eigenpairs(assemble_pencil(ann, prob.form, 1.0), 1).eigenvalues[0]
    assert mu == pytest.approx(ref, rel=0.05)


def test_persson_torus_smoke():
    from hardyspec import Torus
    prob = ProblemSpec(domain=Torus(3.0, 1.0),
                       form=FormSpec(a=1.0, q=0.0, beta=0.0),
                       gamma=0.5, ks=(2, 3))
    seq = persson_sequence(prob)
    mus = seq.mus()
    assert np.all(mus > 0)
    assert mus[1] >= mus[0] - 1e-8


def test_torus_criteria_subcritical():
    from hardyspec import Torus
    prob = ProblemSpec(domain=Torus(3.0, 1.0),
                       form=FormSpec(a=1.0, q="-0.1*d^-2", beta=0.0),
                       gamma=0.5, ks=(2,), samples=3000)
    assert check_pointwise_criterion(prob).verdict == "PASS"
    rep = check_form_nonnegativity(prob)
    assert rep.verdict == "PASS"
    assert all(m >= -1e-4 for m in rep.detail["minima"])


def test_torus_refuses_cartesian_coefficients():
    # every torus coefficient is evaluated on the (r, z) section, where x
    # would mean r
    from hardyspec import Torus
    from hardyspec.errors import NotAxisymmetric
    torus = Torus(3.0, 1.0)
    for a, q in ((1.0, "-0.05*d^-2*(1+x^2)"), (1.0, "y*d"), ("1+x1^2", 0.0),
                 ("d^0.5", "x2 - x3")):
        with pytest.raises(NotAxisymmetric):
            ProblemSpec(domain=torus, form=FormSpec(a=a, q=q), gamma=0.5, ks=(2,))
    ProblemSpec(domain=torus, form=FormSpec(a="1+r^2", q="-0.05*d^-2*(1+z^2)"),
                gamma=0.5, ks=(2,))


def test_reports_serialize():
    prob = _problem(1.0, "-0.1*d^-2", 0.0, 0.5, (2,), samples=500)
    doc = jsonable(check_pointwise_criterion(prob))
    assert doc["criterion"] == "pointwise"
    from hardyspec import assemble_pencil, build_mesh_1d, smallest_eigenpairs
    pencil = assemble_pencil(build_mesh_1d(IV, 50), FormSpec(a=1.0, q=0.0), 1.0)
    spec = jsonable(smallest_eigenpairs(pencil, 2))
    assert len(spec["eigenvalues"]) == 2 and "eigenvectors" not in spec
    seq = persson_sequence(_problem(1.0, 0.0, 0.0, 0.5, (2, 4)))
    rows = seq.csv_rows()
    assert len(rows) == 2 and rows[0][0] == 2
