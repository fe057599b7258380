"""Sequence regularity checks against independently computed values."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import seqkit as sk
from cclab.seqkit import SlowlyVarying, Verdict


def spataru_norms():
    from cclab.cli import spataru_norms as f
    return f()


# ---------------------------------------------------------------------------
# T_k = sum_{j<=k} j w(j), as sequence_values computes it
# ---------------------------------------------------------------------------


def partial_sums(w, k):
    """T_1, ..., T_k of the weights ``w``."""
    return sk.sequence_values(w, sk.power_law_norms(1.0), k).t


def test_partial_sum_constant_weights():
    assert partial_sums(sk.power_law_weights(0.0), 4)[-1] == 10.0


def test_partial_sum_harmonic_weights():
    assert partial_sums(sk.power_law_weights(-1.0), 5)[-1] == 5.0


def test_partial_sum_inverse_square():
    # oracle: exact rational arithmetic
    exact = [float(sum(Fraction(1, j) for j in range(1, k + 1))) for k in (1, 2, 3)]
    assert partial_sums(sk.power_law_weights(-2.0), 3) == pytest.approx(exact, rel=1e-15)


def test_partial_sum_rejects_bad_index():
    with pytest.raises(ValueError):
        sk.power_law_weights(0.0).values(np.arange(0, 4))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
def test_partial_sum_additive_over_splits(j, extra):
    k = j + extra
    w = sk.custom_weights(lambda n: 1.0 / math.sqrt(n) + 0.25 / n, name="mix")
    t = partial_sums(w, k)
    split = t[j - 1] + math.fsum(i * w(i) for i in range(j + 1, k + 1))
    assert t[-1] == pytest.approx(split, rel=1e-14)


# ---------------------------------------------------------------------------
# dyadic regularity criteria
# ---------------------------------------------------------------------------


def test_dyadic_constant_weights_certified():
    rep = sk.check_dyadic_regularity(sk.power_law_weights(0.0))
    assert rep.verdict is Verdict.CERTIFIED_PASS


def test_dyadic_harmonic_weights_constant_two():
    rep = sk.check_dyadic_regularity(sk.power_law_weights(-1.0))
    assert rep.verdict is Verdict.CERTIFIED_PASS
    # ratios w(2^{j-1})/w(k) and w(k)/w(2^j) both peak at 2 inside a block
    assert rep.constants["dyadic_C"] == pytest.approx(2.0, rel=1e-12)


def test_dyadic_inverse_square_inconclusive():
    rep = sk.check_dyadic_regularity(sk.power_law_weights(-2.0))
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_dyadic_empirical_route():
    w = sk.custom_weights(lambda n: 1.0 / n, name="custom-harmonic")
    rep = sk.check_dyadic_regularity(w, horizon=512)
    assert rep.verdict is Verdict.EMPIRICAL_PASS
    assert rep.constants["dyadic_C"] == pytest.approx(2.0, rel=1e-9)


def test_dyadic_rejects_small_horizon():
    with pytest.raises(ValueError):
        sk.check_dyadic_regularity(sk.power_law_weights(0.0), horizon=3)


# ---------------------------------------------------------------------------
# tail domination
# ---------------------------------------------------------------------------


def test_tail_domination_spataru_theta_one():
    rep = sk.check_tail_domination(sk.power_law_weights(-1.0), spataru_norms(),
                                   theta=1.0, moment_power=3.0, horizon=3000)
    assert rep.verdict is Verdict.CERTIFIED_PASS
    assert math.isfinite(rep.constants["C"])


def test_tail_domination_square_case():
    rep = sk.check_tail_domination(sk.power_law_weights(0.0), sk.power_law_norms(1.0),
                                   theta=2.0, moment_power=2.0, horizon=3000)
    assert rep.verdict is Verdict.CERTIFIED_PASS
    # sum_{k>=n} k^2/k^4 ~ 1/n against T_{n-1} ~ n^2/2 scaled by n^4/n: C stays small
    assert rep.constants["C"] < 20.0


def test_tail_domination_divergent_tail():
    rep = sk.check_tail_domination(sk.power_law_weights(0.0), sk.power_law_norms(0.25),
                                   theta=1.0, moment_power=3.0, horizon=500)
    assert rep.verdict is Verdict.CERTIFIED_FAIL


def test_tail_domination_rejects_theta_below_one():
    with pytest.raises(ValueError):
        sk.check_tail_domination(sk.power_law_weights(0.0), sk.power_law_norms(1.0),
                                 theta=0.5)


def test_tail_domination_custom_without_bound_inconclusive():
    w = sk.custom_weights(lambda n: 1.0 / n)
    rep = sk.check_tail_domination(w, sk.power_law_norms(1.0), horizon=200)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.constants["C"] > 0.0  # the horizon-limited constant is still reported


def test_tail_domination_custom_with_bound_certified():
    # tau = 1/k with a certified geometric-free bound: sum_{k>=N} k^t/(a_k^p k)
    # for a=n, theta=1, p=3: terms k^-3, tail <= N^-3 + N^-2/2
    def bound(start, g):
        return start ** -3.0 + start ** -2.0 / 2.0

    w = sk.custom_weights(lambda n: 1.0 / n, tail_bound=bound)
    rep = sk.check_tail_domination(w, sk.power_law_norms(1.0), theta=1.0,
                                   moment_power=3.0, horizon=200)
    assert rep.verdict is Verdict.CERTIFIED_PASS


def test_tail_domination_remainder_is_true_upper_bound():
    # certified remainder must dominate a brute-force continuation of the sum
    w = sk.power_law_weights(-1.0)
    a = sk.power_law_norms(1.0)
    shape = sk._combined_tail_shape(w, a, 1.0, 3.0)
    assessment = sk.certified_power_tail(*shape, start=101)
    brute = sum(k ** 1.0 * (1.0 / k) / k ** 3.0 for k in range(101, 400_000))
    assert assessment.kind == "finite"
    assert assessment.bound >= brute


def test_weaker_power_implies_stronger_power():
    # passing with the square power forces passing with the cube power
    cases = [
        (sk.power_law_weights(0.0), sk.power_law_norms(1.0), 2.0),
        (sk.power_law_weights(-1.0), sk.power_law_norms(1.0), 1.0),
        (sk.power_law_weights(1.0), sk.power_law_norms(0.75), 4.0),
    ]
    for w, a, theta in cases:
        two = sk.check_tail_domination(w, a, theta=theta, moment_power=2.0, horizon=500)
        three = sk.check_tail_domination(w, a, theta=theta, moment_power=3.0, horizon=500)
        if two.verdict is Verdict.CERTIFIED_PASS:
            assert three.verdict is Verdict.CERTIFIED_PASS
            assert three.constants["C"] <= two.constants["C"] * (1 + 1e-9)


def test_power_law_corpus_passes_for_some_theta():
    # normalizer exponent above 1/3 with liminf n w(n) > 0: some theta <= 16 certifies
    corpus = [
        (sk.power_law_weights(-1.0), sk.power_law_norms(0.5)),
        (sk.power_law_weights(0.0), sk.power_law_norms(0.4)),
        (sk.power_law_weights(1.0), sk.power_law_norms(0.5)),
        (sk.power_law_weights(-1.0, sv=SlowlyVarying(log2p=1.0)),
         sk.power_law_norms(0.5, sv=SlowlyVarying(log2p=0.5))),
    ]
    for w, a in corpus:
        passed = False
        for theta in range(1, 17):
            rep = sk.check_tail_domination(w, a, theta=float(theta),
                                           moment_power=3.0, horizon=10_000)
            if rep.verdict is Verdict.CERTIFIED_PASS:
                passed = True
                break
        assert passed, (w.name, a.name)


# ---------------------------------------------------------------------------
# infimum growth
# ---------------------------------------------------------------------------


def test_inf_growth_harmonic_sqrt_certified():
    rep = sk.check_inf_growth(sk.power_law_weights(-1.0), sk.power_law_norms(0.5),
                              power=3.0, horizon=2000)
    assert rep.verdict is Verdict.CERTIFIED_PASS
    # infimum sits at k=n, so the floor is T_{n-1}/n = (n-1)/n
    assert rep.constants["liminf_estimate"] == pytest.approx(1.0, rel=1e-2)


def test_inf_growth_linear_square_certified():
    rep = sk.check_inf_growth(sk.power_law_weights(0.0), sk.power_law_norms(1.0),
                              power=2.0, horizon=1000)
    assert rep.verdict is Verdict.CERTIFIED_PASS


def test_inf_growth_collapsing_floor():
    rep = sk.check_inf_growth(sk.power_law_weights(-2.0), sk.power_law_norms(0.5),
                              power=3.0, horizon=1000)
    assert rep.verdict is Verdict.CERTIFIED_FAIL
    assert rep.constants["liminf_estimate"] < 0.05


def test_inf_growth_empirical_for_custom():
    w = sk.custom_weights(lambda n: 1.0)
    rep = sk.check_inf_growth(w, sk.power_law_norms(1.0), power=2.0, horizon=200)
    assert rep.verdict is Verdict.EMPIRICAL_PASS


# ---------------------------------------------------------------------------
# sequence types
# ---------------------------------------------------------------------------


def test_weight_rejects_negative_values():
    w = sk.custom_weights(lambda n: -1.0)
    with pytest.raises(ValueError):
        w(3)


def test_norm_rejects_zero():
    a = sk.custom_norms(lambda n: 0.0)
    with pytest.raises(ValueError):
        a(1)


def test_norm_increasing_check():
    a = sk.custom_norms(lambda n: 10.0 - n)
    with pytest.raises(ValueError, match="decreases at n=2"):
        sk.require_nondecreasing(a.values(np.arange(1, 6)))
    sk.require_nondecreasing(sk.power_law_norms(0.5).values(np.arange(1, 6)))


def test_norm_infinity_certificate():
    assert sk.power_law_norms(0.5).tends_to_infinity() is True
    assert sk.custom_norms(lambda n: float(n)).tends_to_infinity() is None


def test_report_json_round_trip():
    rep = sk.check_dyadic_regularity(sk.power_law_weights(-1.0))
    d = rep.to_json_dict()
    again = json.loads(json.dumps(d, allow_nan=False))
    assert again == d
    rebuilt = sk.RegularityReport(again["condition_id"], Verdict(again["verdict"]),
                                  again["constants"], again["horizon"], tuple(again["notes"]))
    assert rebuilt == rep


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-1.5, max_value=1.5),
       st.integers(min_value=4, max_value=400))
def test_sv_growth_envelope_property(g1, g2, start):
    sv = SlowlyVarying(log2p=g1, loglog=g2)
    delta = sv.growth_exponent_bound(start)
    base = sv.value(start)
    for k in (start, start + 3, 2 * start, 17 * start):
        assert sv.value(k) <= base * (k / start) ** delta * (1 + 1e-12)


# ---------------------------------------------------------------------------
# sequences and checks on arrays, against the one-point loops they replaced
# ---------------------------------------------------------------------------


def test_family_values_match_one_point_formula():
    sv = SlowlyVarying(log2p=0.7, loglog=-1.3, logn=0.5)
    w = sk.power_law_weights(-1.25, coef=2.5, sv=sv)
    n = np.arange(2, 3000)
    want = [2.5 * float(k) ** -1.25 * (math.log(2.0 + k) ** 0.7
                                       * math.log(math.log(math.e ** 2 + k)) ** -1.3
                                       * math.log(k) ** 0.5) for k in n.tolist()]
    assert w.values(n).tolist() == want
    assert w(17) == want[15]
    a = spataru_norms()
    assert a.values(np.arange(1, 3000)).tolist() == [a.fn(k) for k in range(1, 3000)]


def test_values_reject_the_first_bad_index_like_a_call():
    w = sk.custom_weights(lambda n: -1.0 if n in (3, 5) else 1.0)
    with pytest.raises(ValueError,
                       match=r"^weight w\(3\) = -1.0 is not a finite nonnegative real$"):
        w.values(np.arange(1, 9))
    a = sk.custom_norms(lambda n: math.inf if n == 4 else 1.0)
    with pytest.raises(ValueError,
                       match=r"^normalizer a\(4\) = inf is not a finite positive real$"):
        a.values(np.arange(1, 9))
    with pytest.raises(ValueError, match="weight index must be >= 1"):
        w.values(np.arange(0, 3))


def _running_kahan(values):
    total = c = 0.0
    out = []
    for v in values:
        y = v - c
        t = total + y
        c = (t - total) - y
        total = t
        out.append(t)
    return out


def _reference_tail_domination_c(w, a, theta, p, horizon, remainder):
    tau = [0.0] + [w(k) for k in range(1, horizon + 1)]
    av = [0.0] + [a(k) for k in range(1, horizon + 1)]
    terms = [0.0] * (horizon + 2)
    for k in range(1, horizon + 1):
        terms[k] = float(k) ** theta * tau[k] / av[k] ** p
    suffix = [0.0] * (horizon + 2)
    suffix_sums = _running_kahan(terms[horizon:0:-1])
    for k in range(horizon, 0, -1):
        suffix[k] = suffix_sums[horizon - k]
    prefix = [0.0] + _running_kahan([k * tau[k] for k in range(1, horizon + 1)])
    best_c, argmax = 0.0, 0
    for n in range(2, horizon + 1):
        lhs = av[n] ** p / float(n) ** (theta - 1.0) * (suffix[n] + remainder)
        if prefix[n - 1] <= 0.0:
            continue
        ratio = lhs / prefix[n - 1]
        if ratio > best_c:
            best_c, argmax = ratio, n
    f = {n: min(av[k] ** p / k for k in range(n, horizon + 1)) * prefix[n - 1] / av[n] ** p
         for n in range(2, horizon + 1)}
    return best_c, float(argmax), min(f[n] for n in range(max(2, horizon // 2), horizon + 1))


@pytest.mark.parametrize("theta", [1.0, 1.5])
def test_checks_on_arrays_match_the_loops(theta):
    w = sk.custom_weights(lambda n: (1.0 + 0.3 * math.sin(n)) / n)
    a = sk.custom_norms(lambda n: math.sqrt(n) * (1.0 + math.log(n)))
    horizon = 300
    dom = sk.check_tail_domination(w, a, theta=theta, moment_power=3.0, horizon=horizon)
    grow = sk.check_inf_growth(w, a, power=3.0 * theta, horizon=horizon)
    c, argmax, liminf = _reference_tail_domination_c(w, a, theta, 3.0 * theta, horizon, 0.0)
    assert (dom.constants["C"], dom.constants["argmax_n"]) == (c, argmax)
    assert grow.constants["liminf_estimate"] == liminf
