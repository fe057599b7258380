"""Series terms and verdict assembly."""

import contextlib
import io
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cclab import cli
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
    with pytest.raises(OverflowError, match=r"-eps\^2 a\(n\)\^2 / \(n T\) is NaN at n=3"):
        cv.exp_terms(0.5, 2.0, 1.0, [2.0, 3.0], [1.0, math.nan])


@pytest.mark.parametrize("w,a,n,t", [
    (1e9, 27.0, 1.0, 1.0),  # exp(x) = 2.5e-317 keeps 22 bits; the term is a normal double
    (1e9, 726.0, 726.0, 1.0),  # rademacher's exponential term at n = 726 under weights 1e9
    (2048.0, 2048.0, 2048.0, 2.75),  # baum_katz(3,1), atoms 1:0.5,3:0.25, eps 1 at n = 2048
    (0.75, 27.22, 1.0, 1.0),  # w < 2, a subnormal term
    (1e300, 37.5, 1.0, 1.0),  # exp(x) = 0, but the term is 1.1e-311
    (0.5, 38.0, 1.0, 1.0),  # exp(x) = 0 and so is the term
])
def test_exp_terms_below_the_normal_range_are_formed_in_logs(w, a, n, t):
    # w(n) exp(x) with exp(x) subnormal lost digits; exp(log w(n) + x) keeps them
    x = -(a * a) / (n * t)
    exact = mpmath.mpf(w) * mpmath.exp(mpmath.mpf(x))
    got = cv.exp_terms(w, a, 1.0, n, t)[0]
    assert abs(got - float(exact)) <= max(1e-13 * float(exact), 5e-324)


@pytest.mark.parametrize("alpha,scale,w,a,eps,n,rel", [
    # P subnormal, formed as (c h) h with h = P^(1/2): the term is 1e-297 / 773^3
    (3.0, 1.0, 1e9 / 773, 773.0, 1e102, 773.0, 1e-15),
    (3.0, 1.0, 1e9 / 87, 87.0, 1e103, 87.0, 1e-15),
    # eps a(n) past the doubles, h formed in logs: P is 3.2e-155, not 0
    (0.5, 10.0, 1.0, 1e10, 1e300, 1.0, 1e-13),
    (1e-100, 1.0, 1.0, 1e10, 1e300, 4.0, 1e-13),  # and here P is 1 - 7e-98
])
def test_pareto_single_tail_terms_below_the_normal_range_keep_their_digits(alpha, scale, w, a,
                                                                          eps, n, rel):
    # n w(n) P with P subnormal lost digits, and an inf eps a(n) gave P = 0
    d = dm.pareto_sym(alpha, scale)
    with mpmath.workdps(50):
        exact = mpmath.mpf(n) * w * (mpmath.mpf(scale) / (mpmath.mpf(eps) * a)) ** alpha
    got = cv.single_tail_terms(d, w, a, eps, n)[0]
    assert abs(got - exact) <= rel * exact


def test_the_pareto_single_tail_term_at_n_773_is_exact_to_1e_15():
    w, a = sk.power_law_weights(-1.0, coef=1e9), sk.power_law_norms(1.0)
    got = cv.single_tail_term(dm.pareto_sym(3.0), w, a, 1e102, 773)
    with mpmath.workdps(50):
        exact = mpmath.mpf(10) ** -297 / 773 ** 3
    assert abs(got - exact) <= 1e-15 * exact
    # a law with no such closed form keeps its product
    assert dm.uniform_sym(1.0).scaled_tails is None


@pytest.mark.parametrize("coef,eps,n", [
    (1e15, 1.2, 32),  # erfc(27.2) is subnormal: n w(n) erfc printed 1.03% high
    (1e45, 1.0, 40),  # erfc(28.3) is 0.0 in glibc: the term printed 0.0
])
def test_normal_single_tail_terms_below_the_normal_range_keep_their_digits(coef, eps, n):
    # w(n) = coef, a(n) = n: the term n coef erfc(eps n / sqrt 2), formed by the
    # asymptotic series of erfc in logs
    w, a = sk.power_law_weights(0.0, coef=coef), sk.power_law_norms(1.0)
    got = cv.single_tail_term(dm.normal_std(), w, a, eps, n)
    with mpmath.workdps(50):
        exact = n * mpmath.mpf(coef) * mpmath.erfc(mpmath.mpf(eps) * n / mpmath.sqrt(2))
    assert abs(got - exact) <= 1e-12 * exact


def test_normal_scaled_tails_follow_erfc_across_its_subnormal_range():
    z = np.linspace(26.5, 42.0, 64)
    c = 10.0 ** np.linspace(0.0, 300.0, 64)
    got = dm.normal_std().scaled_tails(1.0, z * math.sqrt(2.0), c)
    with mpmath.workdps(50):
        exact = [mpmath.mpf(ck) * mpmath.erfc(mpmath.mpf(ak) / mpmath.sqrt(2))
                 for ck, ak in zip(c.tolist(), (z * math.sqrt(2.0)).tolist())]
    for g, e in zip(got.tolist(), exact):  # a subnormal product keeps what it can
        assert abs(g - e) <= max(1e-12 * e, 1e-323)
    # an inf cutoff has a tail of 0, with no warning
    assert dm.normal_std().scaled_tails(1.0, np.array([math.inf, 1e200]), np.ones(2)).tolist() \
        == [0.0, 0.0]


def test_one_gaussian_envelope_bounds_the_exponential_and_the_normal_single_tail():
    w, rad, normal = sk.power_law_weights(-1.0), dm.rademacher(), dm.normal_std()
    # a(n) = 2 n^0.75: eps^2 a^2 / (n vb) = (2 eps)^2 n^0.5, from n = 2
    cert = cv.exp_certificate(rad, w, sk.power_law_norms(0.75, coef=2.0), 0.5, 100)
    assert (cert.exponent, cert.rate, cert.kappa, cert.from_n) == (1.0, 1.0, 0.5, 2)
    # at (n log n)^(1/2) the exponent is c log n: the power n^-(1 + c)
    cert = cv.exp_certificate(rad, w, spataru_norms(), 0.5, 100)
    assert (cert.exponent, cert.rate, cert.from_n) == (1.25, 0.0, 2)
    # the normal single tail n w(n) exp(-eps^2 a(n)^2 / 2) at rho = 1/4 < 1/2
    cert = cv.single_tail_certificate(normal, w, sk.power_law_norms(0.25), 1.0, 100)
    assert (cert.exponent, cert.rate, cert.kappa, cert.from_n) == (0.0, 0.5, 0.5, 2)
    # log(2+n)^-0.5 costs 0.5 / log(2 + n0) of rho: kappa > 0 from n0 = 8 on, and the
    # rate c L(8)^-1 8^(2 delta) is rounded down
    a = sk.power_law_norms(0.75, sv=sk.SlowlyVarying(log2p=-0.5))
    cert = cv.exp_certificate(rad, w, a, 1.0, 100)
    delta = -0.5 / math.log(10.0)
    assert cert.from_n == 8 and cert.kappa == pytest.approx(2.0 * (0.75 + delta) - 1.0)
    assert 0.0 < 1.0 / math.log(10.0) * 8.0 ** (-2.0 * delta) - cert.rate < 1e-12
    assert cv.exp_certificate(rad, w, a, 1.0, 6) is None  # n0 may not pass horizon + 1
    # no envelope where kappa stays 0 or c leaves the doubles
    assert cv.exp_certificate(rad, w, sk.power_law_norms(0.5), 1.0, 100) is None
    assert cv.single_tail_certificate(normal, w, sk.power_law_norms(0.0), 1.0, 100) is None
    assert cv.exp_certificate(rad, w, sk.power_law_norms(1.0), 1e200, 100) is None


def test_the_gaussian_envelope_moves_its_start_on_until_its_tail_is_finite():
    # w(n) = loglog(e^2+n), a(n) = n^0.375 log(2+n)^-0.5 at eps 0.01: from n0 = 2
    # kappa is 0.029 and the tail bound inf, so n0 doubles on, to 4 with kappa 0.19
    w = sk.power_law_weights(0.0, sv=sk.SlowlyVarying(loglog=1.0))
    a = sk.power_law_norms(0.375, sv=sk.SlowlyVarying(log2p=-0.5))
    cert = cv.single_tail_certificate(dm.normal_std(), w, a, 0.01, 2000)
    assert cert.from_n == 4 and cert.kappa == pytest.approx(0.19189, abs=1e-5)
    assert cert.tail_beyond(2000) < math.inf
    n = np.arange(4, 200_001)
    terms = cv.single_tail_terms(dm.normal_std(), w.values(n), a.values(n), 0.01, n)
    assert (terms <= cert.values_at(n) * (1.0 + cv._ENVELOPE_SLACK)).all()
    # the start stays within horizon + 1
    assert cv.single_tail_certificate(dm.normal_std(), w, a, 0.01, 2) is None


def test_a_pareto_exponent_past_the_doubles_has_no_certificate():
    # alpha 1e308 times a normalizer exponent of 2 is inf: TermBound refused it
    w = sk.power_law_weights(1e-100, coef=10.0, sv=sk.SlowlyVarying(log2p=-1000.0))
    a = sk.power_law_norms(2.0, coef=1e-3, sv=sk.SlowlyVarying(log2p=3.0))
    assert cv.single_tail_certificate(dm.pareto_sym(1e308, 2.0), w, a, 1e10, 4) is None


def test_exp_and_adaptive_terms_agree_on_spataru_shape():
    # one formula: the adaptive term is the exponential term at w = 1/n,
    # a = (n log n)^(1/2), bit for bit
    w, a = spataru_weights(), spataru_norms()
    for d in (dm.rademacher(), dm.uniform_sym(1.0), dm.normal_std()):
        for eps in (0.5, 1.0, 2.0):
            for n in (2, 3, 17, 256, 5000):
                assert cv.adaptive_exponent_term(d, eps, n) == cv.exp_term(d, w, a, eps, n)


def test_adaptive_terms_are_the_exponential_column_on_the_spataru_sequences():
    # check-conditions reports the exponential series' terms from n = 2 on as
    # the adaptive series; they are the one-point adaptive terms
    d, eps, n = dm.uniform_sym(1.0), 0.5, np.arange(2, 3000)
    w, a = spataru_weights().values(n), spataru_norms().values(n)
    t = dm.truncated_second_moments(d, eps * a)
    plain = [cv.adaptive_exponent_term(d, eps, k) for k in n.tolist()]
    assert cv.exp_terms(w, a, eps, n, t).tolist() == plain
    # and n^(-1 - eps^2/T) to rounding, T = 1 showing that the given column is used
    used = cv.exp_terms(w, a, eps, n, np.ones(n.shape))
    np.testing.assert_allclose(used, n ** (-1.0 - eps * eps), rtol=1e-13, atol=0.0)


def test_exp_columns_map_no_element_in_python(monkeypatch):
    # its exp runs in a numpy loop over the C library's own function; an
    # element sent through seqkit's Python map instead would be counted here
    n = np.arange(1.0, 20_001.0)
    w, a = spataru_weights().values(n), spataru_norms().values(n)
    laws = (dm.rademacher(), dm.uniform_sym(1.0), dm.normal_std(), dm.pareto_sym(3.0),
            dm.atomic_sym([(1.0, 0.5), (3.0, 0.25)]))
    columns = [(eps, dm.truncated_second_moments(d, eps * a))
               for d in laws for eps in (0.5, 1.0, 2.0)]
    mapped = []
    monkeypatch.setattr(sk, "map", lambda fn, *cols: mapped.append(fn) or map(fn, *cols),
                        raising=False)
    for eps, t in columns:
        assert (cv.exp_terms(w, a, eps, n, t) > 0.0).any()
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


def full_length_summary(n, term, certificate=None):
    """(rows, verdict, certificate) or the error text of ``summarize_series`` as
    it was before it summed and checked only the head: every term checked
    against the bound and every prefix summed."""
    n, term = np.asarray(n, dtype=np.int64), np.asarray(term, dtype=np.float64)
    verdict = UNDETERMINED if certificate is None else certificate.verdict
    negative = ~(term >= 0.0)
    over = under = np.zeros(term.shape, dtype=bool)
    if certificate is not None:
        bound = certificate.values_at(n)
        if verdict == CONVERGES:
            over = term > bound * (1.0 + cv._ENVELOPE_SLACK)
        else:
            under = term < bound * (1.0 - cv._ENVELOPE_SLACK)
    bad = np.flatnonzero(negative | over | under)
    if bad.size:
        i = bad[0]
        k, t = int(n[i]), float(term[i])
        if negative[i]:
            return f"series terms must be nonnegative, got {t!r} at n={k}"
        b = float(bound[i])
        if over[i]:
            return f"registered envelope violated at n={k}: term {t!r} exceeds {b!r}"
        return f"registered divergence floor violated at n={k}: term {t!r} below {b!r}"
    partial = sk.prefix_sums(term)
    try:
        rp.check_partial_sums(n, term, partial)
    except ValueError as exc:
        return str(exc)
    last_n = int(n[-1]) if n.size else 0
    keep = (n <= 8) | ((n & (n - 1)) == 0) | (n == last_n)
    rows = [{"n": k, "term": t, "partial_sum": ps} for k, t, ps in
            zip(n[keep].tolist(), term[keep].tolist(), partial[keep].tolist())]
    rendered = None if certificate is None else certificate.to_json_dict(last_n)
    return rows, verdict, rendered


def _zero_tail(head, length=300, zero=0.0):
    return list(head) + [zero] * (length - len(head))


HEAD_CASES = {
    "+0 tail": (_zero_tail([0.5 ** k for k in range(40)], 1100),
                sk.TermBound(math.log(2.0), 0.0, rate=math.log(2.0), kappa=1.0)),
    "-0 tail": (_zero_tail([1.0, 0.25, 1 / 9], zero=-0.0), sk.TermBound(0.0, 2.0)),
    "mixed zeros inside and after the head": (
        _zero_tail([1.0, -0.0, 0.0, 1e-300, 5e-324, -0.0, 0.0] * 3), None),
    "inf partial sum": (_zero_tail([1e308, 1e308, 1.0]), None),
    "inf term": (_zero_tail([1.0, math.inf, 2.0]), None),
    "NaN term in the head": (_zero_tail([1.0, math.nan, 2.0]), None),
    "negative term in the head": (_zero_tail([1.0, 0.5, -1e-300, 2.0]), None),
    "envelope broken in the head": (_zero_tail([1.0, 0.5, 0.5]), sk.TermBound(0.0, 2.0)),
    "empty head": ([0.0, -0.0] * 150, sk.TermBound(-math.inf, 0.0, from_n=1)),
    "empty head, -0 first": ([-0.0] * 300, None),
    "no zero": ([1.0 / k ** 2 for k in range(1, 301)], sk.TermBound(0.0, 2.0)),
    "floor over a zero tail": (_zero_tail([1.0] * 20), sk.TermBound(0.0, 0.5, floor=True)),
    # the floor e^-708 n^-1/2 is below the normal doubles, and so 0, from n = 3
    "floor vanishing with its terms": (_zero_tail([math.exp(-708.0), math.exp(-708.0) / 2 ** 0.5],
                                                  5000), sk.TermBound(-708.0, 0.5, floor=True)),
    "no terms": ([], None),
}


@pytest.mark.parametrize("terms,certificate", HEAD_CASES.values(), ids=HEAD_CASES.keys())
def test_summarizing_the_head_gives_the_full_length_bytes(terms, certificate):
    n = np.arange(1, len(terms) + 1)
    want = full_length_summary(n, terms, certificate)
    try:
        rep = cv.summarize_series("s", n, terms, {}, certificate)
    except ValueError as exc:
        got = str(exc)
    else:
        got = list(rep.rows), rep.verdict, rep.certificate
    assert repr(got) == repr(want)  # repr tells -0.0 from 0.0 and matches NaN


def test_a_floor_is_checked_past_the_last_nonzero_term():
    with pytest.raises(ValueError, match="divergence floor violated at n=21"):
        cv.summarize_series("s", range(1, 301), _zero_tail([1.0] * 20), {},
                            sk.TermBound(0.0, 0.5, floor=True))


def test_only_the_head_of_a_vanishing_series_is_summed(monkeypatch):
    # baum_katz(2,1) with rademacher: the single-tail term n P(|X| >= eps n) is 0
    # once eps n > 1, so at eps 0.5 and 1 its heads are n <= 2 and n <= 1
    summed = []
    monkeypatch.setattr(cv, "prefix_sums", lambda x: summed.append(len(x)) or sk.prefix_sums(x))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check-conditions", "--preset", "baum_katz(2,1)", "--horizon", "20000",
                         "--eps", "0.5,1", "--set", "distribution.kind=rademacher"])
    assert code == cli.EXIT_OK
    series = json.loads(out.getvalue())["series"]
    assert [s["series_id"] for s in series] == ["single-tail", "exponential"] * 2
    assert summed[0::2] == [2, 1]
    # the exponential terms underflow to 0 well inside the horizon too
    assert all(0 < k < 20_000 for k in summed[1::2])
    for s, head in zip(series[0::2], (2, 1)):
        last = s["rows"][-1]
        assert (last["n"], last["term"]) == (20_000, 0.0)
        assert last["partial_sum"] == s["rows"][head - 1]["partial_sum"] > 0.0


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


TERM_GUARDS = {
    "single tail eps 0": (lambda: cv.single_tail_terms(dm.rademacher(), 1.0, 1.0, 0.0, 1),
                          ValueError, "eps must be positive"),
    "exponential eps -1": (lambda: cv.exp_terms(1.0, 1.0, -1.0, 1, 1.0), ValueError,
                           "eps must be positive"),
    "partial sums of a negative term": (
        lambda: rp.check_partial_sums([1, 2], np.array([1.0, -1.0]), np.array([1.0, 0.0])),
        ValueError, "negative term at n=2"),
    "partial sums that step back": (
        lambda: rp.check_partial_sums([1, 2], np.array([1.0, 1.0]), np.array([2.0, 1.0])),
        ValueError, "partial sums decrease at n=2"),
    "a report with an unknown verdict": (
        lambda: rp.SeriesReport("x", {}, (), "Converges"), ValueError,
        "unknown verdict 'Converges'"),
}


@pytest.mark.parametrize("case", TERM_GUARDS)
def test_each_term_and_report_guard_refuses_with_its_message(case):
    call, exc, match = TERM_GUARDS[case]
    with pytest.raises(exc, match=match):
        call()
