"""Series terms and verdict assembly."""

import math
from fractions import Fraction

import mpmath
import numpy as np
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
# the standard normal law behind the terms, against mpmath
# ---------------------------------------------------------------------------


def normal_tails(x):
    """P(|X| >= x) for X standard normal, from the library."""
    return dm.tails(dm.normal_std(), x)


def normal_inner(x):
    """P(|X| < x) = 2 Phi(x) - 1, the order-0 truncated moment."""
    return dm.truncated_moments(dm.normal_std(), 0.0, x)


def test_phi_anchor_values():
    assert normal_tails(0.0)[0] == 1.0
    # oracle: mpmath at 40 digits
    mpmath.mp.dps = 40
    want = float(2 * mpmath.ncdf(1.96) - 1)
    assert normal_inner(1.96)[0] == pytest.approx(want, abs=1e-12)
    assert normal_inner(1.96)[0] == pytest.approx(0.950004209703559, abs=1e-12)


def test_phi_symmetry_identity():
    x = np.array([0.1, 0.735, 1.96, 3.3, 7.7])
    assert normal_tails(x) + normal_inner(x) == pytest.approx(np.ones(x.size), abs=1e-14)


def test_phi_absolute_accuracy_inside():
    mpmath.mp.dps = 40
    x = np.array([0.25, 0.5, 2.0, 3.2, 5.5, 8.0])
    want = [float(2 * mpmath.ncdf(b) - 1) for b in x.tolist()]
    assert normal_inner(x) == pytest.approx(want, abs=1e-12)


def test_phi_tail_relative_accuracy():
    mpmath.mp.dps = 60
    x = np.array([1.0, 10.0, 20.0, 30.0, 38.0])
    want = [float(2 * mpmath.ncdf(-v)) for v in x.tolist()]
    assert normal_tails(x) == pytest.approx(want, rel=1e-10)


def test_phi_tail_asymptotic_sanity():
    x = np.array([6.0, 8.0, 10.0])
    asym = 2.0 * np.exp(-x * x / 2.0) / (x * math.sqrt(2.0 * math.pi))
    assert normal_tails(x) == pytest.approx(asym, rel=0.05)


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
    assert rep.rows[-1].partial_sum == 0.0
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
# normal-approximation gap of the exact walk oracle
# ---------------------------------------------------------------------------


def walk_tail(n: int, threshold: float) -> float:
    """P(|S_n| >= threshold) for the +-1 walk from the exact walk oracle."""
    return mc.exact_tail(mc.exact_walk_oracle(dm.rademacher(), n), threshold)


def test_normal_gap_rademacher_square_threshold():
    n = 64
    p = walk_tail(n, math.sqrt(n))
    assert p == pytest.approx(binom_two_sided_tail(n, math.sqrt(n)), rel=1e-13)
    gap = abs(p - float(normal_tails(1.0)[0]))
    want = abs(binom_two_sided_tail(n, math.sqrt(n)) - float(mpmath.erfc(1 / mpmath.sqrt(2))))
    assert gap == pytest.approx(want, rel=1e-11)
    assert gap < n ** -0.5


def test_normal_gap_shrinks_along_squares():
    gaps = [abs(walk_tail(n, math.sqrt(n)) - float(normal_tails(1.0)[0]))
            for n in (16, 64, 256, 1024)]
    assert all(b < a_ for a_, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 2.0 / math.sqrt(1024)


def test_normal_gap_degenerate_truncation():
    # cutoff below every atom: T = 0, so the adaptive term vanishes instead of
    # dividing by zero, while the single tail keeps all of the atom mass
    d = dm.atomic_sym([(5.0, 0.5)])
    a = sk.power_law_norms(1.0)
    assert dm.truncated_second_moment(d, 0.5, a, 1) == 0.0
    assert dm.tail(d, 0.5) == 0.5
    assert cv.adaptive_exponent_term(d, 0.5, 2) == 0.0
