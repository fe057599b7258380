"""Series terms, verdict assembly, and inequality harnesses."""

import math
from fractions import Fraction

import mpmath
import pytest

from cclab import convergence as cv
from cclab import distmodel as dm
from cclab import mcengine as mc
from cclab import seqkit as sk
from cclab.cli import spataru_norms, spataru_weights
from cclab.reports import CONVERGES, DIVERGES, UNDETERMINED


def binom_two_sided_tail(n: int, threshold: float) -> float:
    """Exact P(|S_n| >= threshold) for the +-1 walk via integer arithmetic."""
    total = Fraction(0)
    for k in range(n + 1):
        if abs(2 * k - n) >= threshold:
            total += Fraction(math.comb(n, k), 2 ** n)
    return float(total)


# ---------------------------------------------------------------------------
# standard normal CDF
# ---------------------------------------------------------------------------


def test_phi_anchor_values():
    assert cv.std_normal_cdf(0.0) == 0.5
    # oracle: mpmath at 40 digits
    mpmath.mp.dps = 40
    want = float(mpmath.ncdf(1.96))
    assert cv.std_normal_cdf(1.96) == pytest.approx(want, abs=1e-14)
    assert cv.std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)


def test_phi_symmetry_identity():
    for x in (0.1, 0.735, 1.96, 3.3, 7.7):
        assert cv.std_normal_cdf(-x) == pytest.approx(1.0 - cv.std_normal_cdf(x), abs=1e-14)


def test_phi_absolute_accuracy_inside():
    mpmath.mp.dps = 40
    for x in (-8.0, -3.2, -0.5, 0.25, 2.0, 5.5, 8.0):
        want = float(mpmath.ncdf(x))
        assert cv.std_normal_cdf(x) == pytest.approx(want, abs=1e-12)


def test_phi_tail_relative_accuracy():
    mpmath.mp.dps = 60
    for x in (10.0, 20.0, 30.0, 38.0):
        want = float(mpmath.ncdf(-x))
        assert cv.std_normal_tail(x) == pytest.approx(want, rel=1e-10)


def test_phi_tail_asymptotic_sanity():
    for x in (6.0, 8.0, 10.0):
        asym = math.exp(-x * x / 2.0) / (x * math.sqrt(2.0 * math.pi))
        assert cv.std_normal_tail(x) == pytest.approx(asym, rel=0.05)


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


def test_single_tail_term_examples():
    d = dm.rademacher()
    w = sk.power_law_weights(0.0)
    a = sk.power_law_norms(1.0)
    assert cv.single_tail_term(d, w, a, 0.5, 3) == 0.0
    assert cv.single_tail_term(d, w, a, 0.5, 2) == 2.0  # atom at the cutoff counts
    p = dm.pareto_sym(1.5, 1.0)
    assert cv.single_tail_term(p, w, a, 1.0, 10) == pytest.approx(10 ** -0.5, rel=1e-14)


def test_exp_term_examples():
    d = dm.rademacher()
    w, a = spataru_weights(), spataru_norms()
    got = cv.exp_term(d, w, a, 1.0, 4)
    assert got == pytest.approx(0.0625, rel=1e-13)
    # vanishing truncated moment forces a zero term
    assert cv.exp_term(d, sk.power_law_weights(0.0), sk.power_law_norms(1.0), 0.5, 2) == 0.0
    # bounded-variance bound: the normal term at n=100, a=n is below e^-100
    got = cv.exp_term(dm.normal_std(), sk.power_law_weights(0.0),
                      sk.power_law_norms(1.0), 1.0, 100)
    assert 0.0 < got <= math.exp(-100.0)


def test_adaptive_exponent_term_examples():
    d = dm.rademacher()
    assert cv.adaptive_exponent_term(d, 1.0, 4) == pytest.approx(0.0625, rel=1e-14)
    # T = eps^2 exactly gives n^-2
    dd = dm.atomic_sym([(1.0, 0.5)])  # E[X^2 1{|X|<b}] = 0.5 once b > 1
    got = cv.adaptive_exponent_term(dd, math.sqrt(0.5), 9)
    assert got == pytest.approx(9.0 ** -2.0, rel=1e-13)
    big = cv.adaptive_exponent_term(dm.normal_std(), 1.0, 10 ** 6)
    assert big == pytest.approx((10 ** 6) ** (-2.0), rel=1e-2)  # T ~ 1 at that cutoff


def test_weighted_term():
    w = spataru_weights()
    assert cv.weighted_term(w, 2, 0.5) == 0.25
    assert cv.weighted_term(sk.power_law_weights(0.0), 7, 0.0) == 0.0
    with pytest.raises(ValueError):
        cv.weighted_term(w, 2, 1.5)


def test_weighted_term_binomial_oracle():
    w = sk.power_law_weights(0.0)
    p = binom_two_sided_tail(4, 4.0)
    assert p == 0.125
    assert cv.weighted_term(w, 4, p) == 0.125


def test_exp_and_adaptive_terms_agree_on_spataru_shape():
    w, a = spataru_weights(), spataru_norms()
    for d in (dm.rademacher(), dm.uniform_sym(1.0), dm.normal_std()):
        for eps in (0.5, 1.0, 2.0):
            for n in (2, 3, 17, 256, 5000):
                lhs = cv.exp_term(d, w, a, eps, n)
                rhs = cv.adaptive_exponent_term(d, eps, n)
                if lhs == 0.0:
                    assert rhs == 0.0
                else:
                    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_single_tail_scale_consistency():
    # scaling the distribution by s equals shrinking eps by s
    w, a = sk.power_law_weights(0.0), sk.power_law_norms(1.0)
    s = 2.5
    for n in (1, 3, 10, 40):
        lhs = cv.single_tail_term(dm.pareto_sym(1.5, s), w, a, 1.0, n)
        rhs = cv.single_tail_term(dm.pareto_sym(1.5, 1.0), w, a, 1.0 / s, n)
        assert lhs == pytest.approx(rhs, rel=1e-14)


# ---------------------------------------------------------------------------
# verdict assembly
# ---------------------------------------------------------------------------


def test_summarize_power_envelope():
    n = list(range(1, 101))
    env = cv.PowerEnvelope(coef=1.0, exponent=2.0)
    rep = cv.summarize_series("inverse-square", n, [float(k) ** -2.0 for k in n], envelope=env)
    assert rep.verdict == CONVERGES
    # integral bound: tail beyond N is at most about 1/N
    assert rep.tail_bound.tail_bound <= 1.0 / 100.0 * 1.2
    exact_tail = sum(n ** -2.0 for n in range(101, 10 ** 6))
    assert rep.tail_bound.tail_bound >= exact_tail


def test_summarize_zero_terms():
    rep = cv.summarize_series("zero", range(1, 50), [0.0] * 49,
                              envelope=cv.VanishingEnvelope(from_n=1))
    assert rep.verdict == CONVERGES
    assert rep.total == 0.0
    assert rep.tail_bound.tail_bound == 0.0


def test_summarize_undetermined_without_certificate():
    rep = cv.summarize_series("plain", range(1, 20), [1.0 / n for n in range(1, 20)])
    assert rep.verdict == UNDETERMINED


def test_summarize_divergence_floor():
    n = list(range(1, 200))
    rep = cv.summarize_series("rootn", n, [float(k) ** -0.5 for k in n],
                              divergence=cv.PowerLowerBound(coef=1.0, exponent=0.5))
    assert rep.verdict == DIVERGES
    assert rep.divergence.block_floor == pytest.approx(2.0 ** -0.5)


def test_summarize_rejects_violated_envelope():
    n = list(range(1, 50))
    env = cv.PowerEnvelope(coef=0.5, exponent=1.5)
    with pytest.raises(ValueError):
        cv.summarize_series("broken", n, [float(k) ** -1.5 for k in n], envelope=env)


def test_summarize_rejects_negative_terms():
    with pytest.raises(ValueError):
        cv.summarize_series("neg", [1], [-0.5])


def test_certified_reports_require_certificates():
    import cclab.reports as rp
    with pytest.raises(ValueError):
        rp.SeriesReport("x", {}, (), rp.CONVERGES)
    with pytest.raises(ValueError):
        rp.SeriesReport("x", {}, (), rp.DIVERGES)


# ---------------------------------------------------------------------------
# truncated-moment domination
# ---------------------------------------------------------------------------


def test_domination_zero_rho():
    rep = cv.check_truncated_moment_domination(
        dm.rademacher(), sk.power_law_weights(0.0), {}, sk.power_law_norms(1.0),
        2.0, horizon=32)
    assert rep.passed and rep.lhs == 0.0


def test_domination_single_point_instance():
    # one unit of rho at n=3, b(n)=n, t=2: lhs = 1, minimal C = 4 (tight at n=2)
    rep = cv.check_truncated_moment_domination(
        dm.rademacher(), sk.power_law_weights(0.0), {3: 1.0},
        sk.power_law_norms(1.0), 2.0, horizon=32)
    assert rep.passed
    assert rep.lhs == 1.0
    assert rep.constant == pytest.approx(4.0, rel=1e-12)
    assert rep.argmax_n == 2
    assert rep.rhs == pytest.approx(4.0, rel=1e-12)  # only n=1 contributes the tail


def test_domination_rejects_support_beyond_horizon():
    with pytest.raises(ValueError):
        cv.check_truncated_moment_domination(
            dm.rademacher(), sk.power_law_weights(0.0), {100: 1.0},
            sk.power_law_norms(1.0), 2.0, horizon=32)


def test_domination_randomized_instances():
    import random
    rnd = random.Random(20240809)
    for trial in range(200):
        k = rnd.randint(1, 8)
        atoms = [(rnd.uniform(0.1, 5.0), rnd.uniform(0.05, 0.9 / k)) for _ in range(k)]
        d = dm.atomic_sym(atoms)
        w = sk.custom_weights(lambda n, c=rnd.uniform(0.2, 3.0): c / n)
        incr = [rnd.uniform(0.05, 1.0) for _ in range(64)]
        levels = []
        acc = rnd.uniform(0.1, 1.0)
        for step in incr:
            acc += step
            levels.append(acc)
        b = sk.custom_norms(lambda n, L=levels: L[n - 1])
        rho = {rnd.randint(1, 64): rnd.uniform(0.0, 2.0) for _ in range(rnd.randint(1, 5))}
        t = rnd.choice([1.0, 2.0, 3.0])
        rep = cv.check_truncated_moment_domination(d, w, rho, b, t, horizon=64)
        assert rep.passed, (trial, rep)


def test_domination_mass_below_first_cutoff_goes_to_bottom():
    # trial 7 of the randomized instances: every atom lies below b(1), so the
    # layer-cake side is empty and all of the truncated mass is reported as bottom
    atoms = [(0.2831316504625636, 0.19632017313479788),
             (0.8411337388841253, 0.22139381615770498)]
    b1 = 1.4656293907907691
    rho = {14: 1.910750664176864, 1: 0.2266640208544879,
           29: 1.8026554297587176, 19: 1.2538660352240067}
    rep = cv.check_truncated_moment_domination(
        dm.atomic_sym(atoms), sk.custom_weights(lambda n: 2.6194672414471607 / n), rho,
        sk.custom_norms(lambda n: b1 + 0.5 * (n - 1)), 3.0, horizon=64)
    assert rep.lhs == 0.0
    assert rep.passed
    assert rep.bottom > 0.0
    assert rep.bottom == pytest.approx(sum(rho.values()) * sum(p * v ** 3 for v, p in atoms),
                                       rel=1e-12)


def _domination_by_enumeration(atoms, w, rho, b, t, horizon):
    """lhs, rhs and bottom of the domination harness in exact rational arithmetic."""
    bs = [None] + [Fraction(b(n)) for n in range(1, horizon + 1)]
    atoms = [(Fraction(v), Fraction(p)) for v, p in atoms]
    rho = {n: Fraction(r) for n, r in rho.items()}
    weights = [None] + [n * Fraction(w(n)) for n in range(1, horizon + 1)]

    def moment(lo, hi):
        return sum((p * v ** t for v, p in atoms if lo <= v < hi), Fraction(0))

    lhs = sum((r * moment(bs[1], bs[n]) for n, r in rho.items()), Fraction(0))
    bottom = sum(rho.values(), Fraction(0)) * moment(Fraction(0), bs[1])
    constant = Fraction(0)
    for n in range(2, horizon + 1):
        mass = sum((r for k, r in rho.items() if k >= n), Fraction(0))
        constant = max(constant, bs[n] ** t * mass / sum(weights[1:n], Fraction(0)))
    tail_sum = sum((weights[n] * sum((p for v, p in atoms if v >= bs[n]), Fraction(0))
                    for n in range(1, horizon + 1)), Fraction(0))
    return float(lhs), float(constant * tail_sum), float(bottom)


@pytest.mark.parametrize("atoms, w, b, rho, t, horizon", [
    ([(0.5, 0.25), (1.5, 0.3), (4.0, 0.2)], sk.power_law_weights(-1.0),
     sk.power_law_norms(0.5), {1: 0.7, 3: 1.2, 9: 0.4}, 2, 16),
    ([(0.25, 0.1), (2.0, 0.5), (3.0, 0.125)], sk.power_law_weights(0.0),
     sk.power_law_norms(1.0), {2: 1.0, 5: 0.5}, 3, 8),
    # an atom exactly at b(1) belongs to the layer-cake side, not to bottom
    ([(1.2, 0.4), (2.7, 0.35)], sk.custom_weights(lambda n: 0.8 / n),
     sk.custom_norms(lambda n: 0.9 + 0.3 * n), {4: 2.0, 7: 0.25, 12: 1.0}, 1, 12),
])
def test_domination_matches_rational_enumeration(atoms, w, b, rho, t, horizon):
    rep = cv.check_truncated_moment_domination(dm.atomic_sym(atoms), w, rho, b,
                                               float(t), horizon=horizon)
    lhs, rhs, bottom = _domination_by_enumeration(atoms, w, rho, b, t, horizon)
    assert lhs > 0.0
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)
    assert rep.bottom == pytest.approx(bottom, rel=1e-12)
    assert rep.passed


# ---------------------------------------------------------------------------
# power comparison
# ---------------------------------------------------------------------------


def test_power_comparison_polynomial_shape():
    # r=2: p_2(x, y) = 2x - y
    assert cv.power_comparison_polynomial(2, 0.7, 0.3) == pytest.approx(2 * 0.7 - 0.3)
    # identity x^r - (x-y)^r = y p_r(x,y) on random points
    import random
    rnd = random.Random(5)
    for r in (2, 3, 4, 5):
        for _ in range(20):
            x, y = rnd.random(), rnd.random()
            lhs = x ** r - (x - y) ** r
            assert lhs == pytest.approx(y * cv.power_comparison_polynomial(r, x, y), abs=1e-12)


def test_power_comparison_constants():
    for r in range(1, 9):
        assert cv.power_comparison_constant(r) == float(r)
    # the closed form against a coarse grid: never exceeded, attained at (1, 0)
    grid = [i / 40 for i in range(41)]
    for r in range(1, 6):
        best = max(cv.power_comparison_polynomial(r, x, y) for x in grid for y in grid)
        assert best <= r * (1.0 + 1e-12)
        assert cv.power_comparison_polynomial(r, 1.0, 0.0) == float(r)


def test_power_comparison_alpha_equals_beta():
    alpha = [0.1 * (i % 10) for i in range(50)]
    rep = cv.check_power_comparison(alpha, alpha, sk.power_law_weights(0.0), 2, 50)
    assert rep.passed


def test_power_comparison_beta_zero():
    alpha = [0.5] * 50
    rep = cv.check_power_comparison(alpha, [0.0] * 50, sk.power_law_weights(-1.0), 3, 50)
    assert rep.passed
    assert rep.lhs == pytest.approx(
        sum((1.0 / n) * 0.5 ** 3 for n in range(1, 51)), rel=1e-12)


def test_power_comparison_randomized():
    import random
    rnd = random.Random(99)
    for r in (2, 3, 4):
        for _ in range(25):
            n = 100
            alpha = [rnd.random() for _ in range(n)]
            beta = [rnd.random() for _ in range(n)]
            rep = cv.check_power_comparison(alpha, beta, sk.power_law_weights(-1.0), r, n)
            assert rep.passed


# ---------------------------------------------------------------------------
# truncated-moment series
# ---------------------------------------------------------------------------


def test_truncated_moment_series_rademacher_cube():
    out = cv.truncated_moment_series(dm.rademacher(), sk.power_law_weights(0.0),
                                     sk.power_law_norms(1.0), nu=3.0, theta=1.0,
                                     horizon=400)
    # terms are n * 1 / n^3 = n^-2 for n >= 2, zero at n=1
    assert out.report.rows[0].term == 0.0
    assert out.report.rows[4].term == pytest.approx(5.0 ** -2.0, rel=1e-14)
    assert out.report.total < 0.65
    assert out.expected_finite is True


def test_truncated_moment_series_no_mass_below_first():
    d = dm.atomic_sym([(10.0, 0.5)])
    out = cv.truncated_moment_series(d, sk.power_law_weights(0.0),
                                     sk.power_law_norms(1.0), nu=3.0, theta=1.0,
                                     horizon=4)
    assert out.report.total == 0.0


def test_truncated_moment_series_pareto_bounded():
    out = cv.truncated_moment_series(dm.pareto_sym(2.5, 1.0), sk.power_law_weights(0.0),
                                     sk.power_law_norms(1.0), nu=3.0, theta=1.0,
                                     horizon=800)
    # closed-form truncated third moment: terms ~ c n^-1.5, partial sums bounded
    alpha = 2.5
    coef = alpha / (3.0 - alpha)
    envelope_sum = sum(coef * n ** (3.0 - alpha) * n / n ** 3.0 for n in range(1, 801))
    assert out.report.total <= envelope_sum * 1.001
    assert out.expected_finite is True


def test_truncated_moment_series_refuses_flag_when_inconclusive():
    w = sk.custom_weights(lambda n: 1.0)  # no family metadata
    out = cv.truncated_moment_series(dm.rademacher(), w, sk.power_law_norms(1.0),
                                     nu=3.0, theta=1.0, horizon=64)
    assert out.expected_finite is None


# ---------------------------------------------------------------------------
# normal-approximation gap
# ---------------------------------------------------------------------------


def test_normal_gap_rademacher_square_threshold():
    n = 64
    a = sk.power_law_norms(0.5)  # sqrt(n)
    p = binom_two_sided_tail(n, math.sqrt(n))
    gap = cv.normal_approx_gap(dm.rademacher(), a, 1.0, 1.0, n, p)
    assert gap.x == pytest.approx(1.0, rel=1e-14)
    want = abs(p - 2.0 * cv.std_normal_tail(1.0))
    assert gap.lhs_gap == pytest.approx(want, rel=1e-13)
    assert gap.rhs_core == pytest.approx(n ** -0.5, rel=1e-13)
    assert math.isfinite(gap.implied_constant)


def test_normal_gap_shrinks_along_squares():
    a = sk.power_law_norms(0.5)
    gaps = []
    for n in (16, 64, 256, 1024):
        p = binom_two_sided_tail(n, math.sqrt(n))
        gaps.append(cv.normal_approx_gap(dm.rademacher(), a, 1.0, 1.0, n, p).lhs_gap)
    assert all(b < a_ for a_, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 2.0 / math.sqrt(1024)


def test_normal_gap_degenerate_truncation():
    # cutoff below every atom: T = 0, x = inf, both sides vanish
    d = dm.atomic_sym([(5.0, 0.5)])
    a = sk.power_law_norms(1.0)
    gap = cv.normal_approx_gap(d, a, 0.5, 1.0, 1, 0.0)
    assert math.isinf(gap.x)
    assert gap.lhs_gap == 0.0 and gap.rhs_core == 0.0 and gap.implied_constant == 0.0


def test_normal_gap_rejects_asymmetric():
    d = dm.atomic([(1.0, 0.5), (-1.0, 0.3)])
    with pytest.raises(ValueError):
        cv.normal_approx_gap(d, sk.power_law_norms(1.0), 1.0, 1.0, 4, 0.5)


# ---------------------------------------------------------------------------
# Hoffman-Jorgensen probe
# ---------------------------------------------------------------------------


def test_hj_trivial_at_zero_threshold():
    rep = cv.hj_constant_probe(dm.rademacher(), 2, 8, [0.0])
    assert rep.rows[0].min_d_given_c1 == 0.0


def test_hj_extreme_threshold_value():
    rep = cv.hj_constant_probe(dm.rademacher(), 2, 16, [16.0])
    row = rep.rows[0]
    assert row.p_full == pytest.approx(2.0 ** -15, rel=1e-12)
    assert row.p_single == 0.0  # single tail at 16/(2*2) = 4 exceeds the atom
    want = row.p_full / row.p_contracted ** 2
    assert row.min_d_given_c1 == pytest.approx(want, rel=1e-12)
    assert math.isfinite(rep.min_d_given_c1)


def test_hj_monotone_in_c():
    # raising C can only lower the needed D
    rep = cv.hj_constant_probe(dm.rademacher(), 2, 16, [8.0])
    row = rep.rows[0]
    d_at_c1 = row.min_d_given_c1
    num_c2 = row.p_full - 2.0 * 16 * row.p_single
    d_at_c2 = max(0.0, num_c2 / row.p_contracted ** 2) if row.p_contracted > 0 else 0.0
    assert d_at_c2 <= d_at_c1 + 1e-15


def test_hj_rejects_unsupported_distribution():
    with pytest.raises(mc.OracleUnavailable):
        cv.hj_constant_probe(dm.normal_std(), 2, 8, [1.0])
