"""Series terms and verdict assembly."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cclab import convergence as cv
from cclab import distmodel as dm
from cclab import mcengine as mc
from cclab import reports as rp
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
    """E[X^2 1{|X| < x}] = 2 Phi(x) - 1 - 2 x phi(x), the truncated second moment."""
    return dm.truncated_second_moments(dm.normal_std(), x)


def mp_normal_inner(x):
    """2 Phi(x) - 1 - 2 x phi(x) at 40 digits."""
    with mpmath.workdps(40):
        return float(2 * mpmath.ncdf(x) - 1 - 2 * x * mpmath.npdf(x))


def test_phi_anchor_values():
    assert normal_tails(0.0)[0] == 1.0
    # oracle: mpmath at 40 digits
    assert normal_inner(1.96)[0] == pytest.approx(mp_normal_inner(1.96), abs=1e-12)
    assert normal_inner(1.96)[0] == pytest.approx(0.7209157079164293, abs=1e-12)


def test_phi_symmetry_identity():
    # P(|X| >= x) + E[X^2 1{|X| < x}] = 1 - 2 x phi(x)
    x = np.array([0.1, 0.735, 1.96, 3.3, 7.7])
    with mpmath.workdps(40):
        want = [float(1 - 2 * b * mpmath.npdf(b)) for b in x.tolist()]
    assert normal_tails(x) + normal_inner(x) == pytest.approx(want, abs=1e-14)


def test_phi_absolute_accuracy_inside():
    x = np.array([0.25, 0.5, 2.0, 3.2, 5.5, 8.0])
    want = [mp_normal_inner(b) for b in x.tolist()]
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


def test_a_nan_exponent_raises_at_its_first_n():
    # eps^2 a^2 / (n T) = inf / inf at n = 3; a NaN T at n = 3
    n = np.arange(1.0, 5.0)
    with pytest.raises(OverflowError, match=r"-eps\^2 a\(n\)\^2 / \(n T\) is NaN at n=3"):
        cv.exp_terms(1.0, [1.0, 1.0, 1e300, 1e300], 1e10, n, [1.0, 1.0, math.inf, 1.0])
    with pytest.raises(OverflowError, match=r"-1 - eps\^2 / T is NaN at n=3"):
        cv.adaptive_exponent_terms(1.0, [2.0, 3.0], [1.0, math.nan])


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


def test_adaptive_terms_take_t_at_the_spataru_cut():
    # check-conditions hands the adaptive series the exponential series' T,
    # taken at eps * a(n); on the spataru normalizer that is the adaptive cut
    # eps * (n log n)^(1/2) bit for bit, so the terms are the one-point ones
    d, eps, n = dm.uniform_sym(1.0), 0.5, np.arange(2, 3000)
    cut = eps * spataru_norms().values(n)
    plain = [cv.adaptive_exponent_term(d, eps, k) for k in n.tolist()]
    t = dm.truncated_second_moments(d, cut)
    assert cv.adaptive_exponent_terms(eps, n, t).tolist() == plain
    fake = np.full(n.shape, 1.0)  # shows that the given column is used
    used = cv.adaptive_exponent_terms(eps, n, fake)
    assert used.tolist() == [float(k) ** (-1.0 - eps * eps) for k in n.tolist()]


def test_exp_and_adaptive_exponent_columns_map_no_element_in_python(monkeypatch):
    # their exp and pow run in numpy loops over the C library's own functions;
    # an element sent through seqkit's Python map instead would be counted here
    n = np.arange(1.0, 20_001.0)
    w, a = spataru_weights().values(n), spataru_norms().values(n)
    cut = np.sqrt(n[1:] * sk.libm(math.log, n[1:]))
    laws = (dm.rademacher(), dm.uniform_sym(1.0), dm.normal_std(), dm.pareto_sym(3.0),
            dm.atomic_sym([(1.0, 0.5), (3.0, 0.25)]))
    columns = [(eps, dm.truncated_second_moments(d, eps * a),
                dm.truncated_second_moments(d, eps * cut))
               for d in laws for eps in (0.5, 1.0, 2.0)]
    mapped = []
    monkeypatch.setattr(sk, "map", lambda fn, *cols: mapped.append(fn) or map(fn, *cols),
                        raising=False)
    for eps, t, t_cut in columns:
        assert (cv.exp_terms(w, a, eps, n, t) > 0.0).any()
        assert (cv.adaptive_exponent_terms(eps, n[1:], t_cut) > 0.0).any()
    assert mapped == []


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
    env = sk.TermBound(log_coef=0.0, exponent=2.0)
    rep = cv.summarize_series("inverse-square", n, [float(k) ** -2.0 for k in n], {},
                              certificate=env)
    assert rep.verdict == CONVERGES
    # integral bound: tail beyond N is at most about 1/N
    assert rep.certificate["tail_bound"] <= 1.0 / 100.0 * 1.2
    exact_tail = sum(n ** -2.0 for n in range(101, 10 ** 6))
    assert rep.certificate["tail_bound"] >= exact_tail
    assert rep.certificate["log_tail_bound"] == pytest.approx(
        math.log(rep.certificate["tail_bound"]), abs=1e-12)
    assert rep.to_json_dict()["tail_bound"] == env.to_json_dict(100)


def test_summarize_zero_terms():
    rep = cv.summarize_series("zero", range(1, 50), [0.0] * 49, {},
                              certificate=sk.TermBound(-math.inf, 0.0))
    assert rep.verdict == CONVERGES
    assert rep.rows[-1]["partial_sum"] == 0.0
    assert rep.certificate["tail_bound"] == 0.0


@pytest.mark.parametrize("env", [sk.TermBound(-math.inf, 0.0, from_n=60),
                                 sk.TermBound(0.0, 2.0, from_n=60),
                                 sk.TermBound(0.0, 0.0, rate=math.log(2.0), kappa=1.0,
                                              from_n=60)],
                         ids=["vanishing", "power", "geometric"])
def test_envelopes_refuse_a_tail_with_unbounded_terms_before_them(env):
    # from n = 60 the envelope says nothing about the terms 50..59
    assert env.tail_beyond(59) >= 0.0
    with pytest.raises(ValueError, match="50..59 unbounded"):
        env.tail_beyond(49)


def test_summarize_undetermined_without_certificate():
    rep = cv.summarize_series("plain", range(1, 20), [1.0 / n for n in range(1, 20)], {})
    assert rep.verdict == UNDETERMINED


def test_summarize_divergence_floor():
    n = list(range(1, 200))
    rep = cv.summarize_series("rootn", n, [float(k) ** -0.5 for k in n], {},
                              certificate=sk.TermBound(0.0, 0.5, floor=True))
    assert rep.verdict == DIVERGES
    assert rep.certificate["block_floor"] == pytest.approx(2.0 ** -0.5)
    assert rep.to_json_dict()["divergence"] == rep.certificate


def test_summarize_rejects_violated_envelope():
    n = list(range(1, 50))
    env = sk.TermBound(math.log(0.5), 1.5)
    with pytest.raises(ValueError):
        cv.summarize_series("broken", n, [float(k) ** -1.5 for k in n], {}, certificate=env)


def test_summarize_rejects_violated_floor():
    n = list(range(1, 50))
    floor = sk.TermBound(math.log(2.0), 0.5, from_n=10, floor=True)
    with pytest.raises(ValueError, match="divergence floor violated at n=10"):
        cv.summarize_series("broken", n, [float(k) ** -0.5 for k in n], {}, certificate=floor)


def test_summarize_rejects_negative_terms():
    with pytest.raises(ValueError):
        cv.summarize_series("neg", [1], [-0.5], {})


def test_certified_reports_require_certificates():
    with pytest.raises(ValueError):
        rp.SeriesReport("x", {}, (), rp.CONVERGES)
    with pytest.raises(ValueError):
        rp.SeriesReport("x", {}, (), rp.DIVERGES)
    cert = sk.TermBound(-math.inf, 0.0).to_json_dict(0)
    assert rp.SeriesReport("x", {}, (), rp.CONVERGES, certificate=cert).verdict == rp.CONVERGES
    with pytest.raises(ValueError, match="Undetermined verdict carries no certificate"):
        rp.SeriesReport("x", {}, (), rp.UNDETERMINED, certificate=cert)


def row(n, term, partial_sum) -> dict:
    return {"n": n, "term": term, "partial_sum": partial_sum}


@pytest.mark.parametrize("last", [row(2, math.nan, math.nan),
                                  row(2, 0.1, math.nan), row(2, math.nan, 0.2)],
                         ids=["both", "partial sum", "term"])
def test_series_report_rejects_nan_rows(last):
    # every comparison with NaN is false, so the partial-sum check alone lets it through
    with pytest.raises(ValueError, match="NaN term or partial sum at n=2"):
        rp.SeriesReport("x", {}, (row(1, 0.1, 0.1), last), rp.UNDETERMINED)


def test_series_report_keeps_an_overflowed_partial_sum():
    rows = (row(1, 1e308, 1e308), row(2, 1e308, math.inf), row(3, 1e308, math.inf))
    assert rp.SeriesReport("x", {}, rows, rp.UNDETERMINED).rows == rows


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
