"""Distribution models against 40-digit mpmath and closed-form oracles."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import counterexample as ce
from cclab import distmodel as dm
from cclab import seeding
from cclab import seqkit as sk
from cclab.cli import spataru_norms
from cclab.seqkit import power_law_norms

ALL_CLOSED = [
    dm.rademacher(),
    dm.uniform_sym(1.0),
    dm.normal_std(),
    dm.pareto_sym(1.5, 1.0),
    dm.atomic_sym([(1.0, 0.5), (3.0, 0.25)]),
]


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


def test_rademacher_tail_examples():
    d = dm.rademacher()
    assert dm.tail(d, 1.0) == 1.0
    assert dm.tail(d, 1.1) == 0.0


def test_uniform_tail_length_measure():
    assert dm.tail(dm.uniform_sym(1.0), 0.5) == 0.5


def test_tail_at_zero_is_one():
    for d in ALL_CLOSED:
        assert dm.tail(d, 0.0) == 1.0


def test_tail_counts_atom_at_threshold():
    d = dm.atomic_sym([(2.0, 0.5)])
    assert dm.tail(d, 2.0) == 0.5
    assert dm.tail(d, 2.0000001) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=6.0), st.floats(min_value=0.0, max_value=6.0))
def test_tail_nonincreasing(a, b):
    lo, hi = min(a, b), max(a, b)
    for d in ALL_CLOSED:
        assert dm.tail(d, lo) >= dm.tail(d, hi)


def test_pareto_tail_scale_consistency():
    # tail of a scaled model equals the tail of the base model at a scaled point
    a, s, lam = 1.7, 2.5, 4.0
    assert dm.tail(dm.pareto_sym(a, s), lam) == pytest.approx(
        dm.tail(dm.pareto_sym(a, 1.0), lam / s), rel=1e-14)


# ---------------------------------------------------------------------------
# truncated moments
# ---------------------------------------------------------------------------


def test_rademacher_truncated_examples():
    d = dm.rademacher()
    assert dm.truncated_moment(d, 2.0) == 1.0
    assert dm.truncated_moment(d, 0.5) == 0.0


def test_uniform_truncated_second_moment():
    got = dm.truncated_moment(dm.uniform_sym(1.0), 0.5)
    assert got == pytest.approx(1.0 / 24.0, rel=1e-14)


@pytest.mark.parametrize("d,b", [
    (dm.uniform_sym(1.0), 0.5),
    (dm.uniform_sym(2.0), 1.7),
    (dm.normal_std(), 1.3),
    (dm.normal_std(), 2.9),
    (dm.pareto_sym(1.5, 1.0), 7.0),
    (dm.pareto_sym(2.5, 1.0), 40.0),
    (dm.pareto_sym(2.0, 1.0), 9.0),
])
def test_truncated_moment_vs_quadrature(d, b):
    # independent oracle: integrate x^2 against the density of |X|
    if d.kind == "uniform_sym":
        (h,) = d.params
        oracle = float(mpmath.quad(lambda x: x ** 2 / h, [0.0, min(b, h)]))
    elif d.kind == "normal_std":
        oracle = float(mpmath.quad(
            lambda x: 2.0 * x ** 2 * mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi),
            [0.0, b]))
    else:
        alpha, s = d.params
        oracle = float(mpmath.quad(
            lambda x: x ** 2 * alpha * s ** alpha * x ** (-alpha - 1.0), [s, b]))
    assert dm.truncated_moment(d, b) == pytest.approx(oracle, abs=1e-10)


def test_truncated_plus_complement_equals_full_moment():
    # closed-form full moments: E|X|^2
    cases = [
        (dm.rademacher(), 1.0),
        (dm.uniform_sym(1.0), 1.0 / 3.0),
        (dm.normal_std(), 1.0),
        (dm.pareto_sym(3.0, 1.0), 3.0),       # alpha s^2/(alpha-2)
        (dm.atomic_sym([(1.0, 0.5), (3.0, 0.25)]), 0.5 + 9 * 0.25),
    ]
    for d, full in cases:
        for b in (0.5, 1.0, 2.4, 10.0):
            trunc = dm.truncated_moment(d, b)
            if d.kind == "rademacher":
                comp = (1.0 if b <= 1.0 else 0.0) * 1.0
            elif d.kind == "uniform_sym":
                comp = float(mpmath.quad(lambda x: x ** 2, [min(b, 1.0), 1.0]))
            elif d.kind == "normal_std":
                comp = float(mpmath.quad(
                    lambda x: 2 * x ** 2 * mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi),
                    [b, mpmath.inf]))
            elif d.kind == "pareto_sym":
                alpha, s = d.params
                comp = float(mpmath.quad(
                    lambda x: x ** 2 * alpha * s ** alpha * x ** (-alpha - 1), [max(b, s), mpmath.inf]))
            else:
                (atoms,) = d.params
                comp = sum(p * v ** 2 for v, p in atoms if abs(v) >= b)
            assert trunc + comp == pytest.approx(full, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=8.0), st.floats(min_value=0.0, max_value=4.0))
def test_truncated_moment_monotone_in_cutoff(b, extra):
    for d in ALL_CLOSED:
        lo = dm.truncated_moment(d, b)
        hi = dm.truncated_moment(d, b + extra)
        assert hi >= lo - 1e-15


def test_truncated_second_moments_never_step_down():
    # the promise of truncated_second_moments, on a grid of 20,001 cutoffs
    b = np.concatenate((np.linspace(0.01, 12.0, 20_001), np.geomspace(12.0, 1e6, 2_000)))
    for d in ALL_CLOSED:
        steps = np.diff(dm.truncated_second_moments(d, b))
        assert (steps >= 0.0).all()


def test_truncated_second_moment_cutoff_examples():
    a = spataru_norms()
    assert dm.truncated_second_moment(dm.rademacher(), 1.0, a, 2) == 1.0
    lin = power_law_norms(1.0)
    assert dm.truncated_second_moment(dm.rademacher(), 0.5, lin, 1) == 0.0


def test_truncated_second_moment_normal_monotone_to_variance():
    a = power_law_norms(1.0)
    vals = [dm.truncated_second_moment(dm.normal_std(), 1.0, a, n) for n in (1, 2, 4, 16, 64)]
    assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)


def test_t_monotone_in_eps():
    a = spataru_norms()
    for d in ALL_CLOSED:
        for n in (2, 5, 17):
            small = dm.truncated_second_moment(d, 0.5, a, n)
            large = dm.truncated_second_moment(d, 1.5, a, n)
            assert large >= small - 1e-15


# ---------------------------------------------------------------------------
# Weighted second moments
# ---------------------------------------------------------------------------


def test_weighted_second_moment_rademacher():
    got = dm.weighted_second_moment(dm.rademacher())
    assert got.finite
    assert got.value == pytest.approx(1.0 / math.log(3.0), rel=1e-14)


def test_weighted_second_moment_empty_atoms():
    got = dm.weighted_second_moment(dm.atomic_sym([]))
    assert got.finite and got.value == 0.0


def test_weighted_second_moment_pareto_diverges():
    got = dm.weighted_second_moment(dm.pareto_sym(1.5, 1.0))
    assert not got.finite and got.value is None
    assert "2" in got.reason
    got2 = dm.weighted_second_moment(dm.pareto_sym(2.0, 1.0), "loglog_delta", delta=1.0)
    assert not got2.finite


def test_weighted_second_moment_quadrature_kinds():
    # uniform oracle: E[X^2/log(2+|X|)] = (1/h) \int_0^h x^2/log(2+x) dx
    h = 1.0
    oracle = float(mpmath.quad(lambda x: x * x / mpmath.log(2 + x), [0, h]))
    got = dm.weighted_second_moment(dm.uniform_sym(h))
    assert got.value == pytest.approx(oracle / h, abs=1e-9)


def test_weighted_second_moment_log_atomic_matches_plain():
    # the cutoff counterexample gives its atoms in the log domain and its
    # moments in closed form; blocks 1 and 2 are plain doubles (atoms near
    # e^16.5 and e^221, masses near e^-30 and e^-439), so the atom law is an oracle
    s = ce.build_schedule(2)
    dist = ce.CounterexampleDistribution(s)
    atoms = [(math.exp(dist.atom_log_value(m)), 2.0 ** -m * math.exp(-s.log_cutoff(m).payload))
             for m in (1, 2)]
    d = dm.atomic_sym(atoms)
    assert dist.weighted_second_moment() == pytest.approx(
        dm.weighted_second_moment(d).value, rel=1e-13)
    cuts = [1.0, 1e5] + [x * f for x, _ in atoms for f in (1.0 - 1e-12, 1.0 + 1e-12)] + [1e300]
    got = dist.truncated_second_moments(cuts)
    want = dm.truncated_second_moments(d, cuts)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert (got == 0.0).tolist() == (want == 0.0).tolist()


def test_atom_weighted_moments_match_the_scalar_formula():
    # the atom laws keep the bits of the per-atom loop they had
    d = dm.atomic_sym([(0.1, 0.3), (0.7, 0.1), (3.0, 0.25), (1e5, 0.05)])
    mags = _magnitudes(d.params[0])

    def log2p(x):
        return math.log(2.0 + x)

    assert dm.weighted_second_moment(d).value == sum(
        q * (x * x / log2p(x)) for x, q in mags)
    for delta in (0.5, 1.0, 2.0):
        assert dm.weighted_second_moment(d, "loglog_delta", delta).value == sum(
            q * (x * x * log2p(log2p(x)) ** (1.0 + delta) / log2p(x))
            for x, q in mags)


def test_moment_past_the_double_range_has_no_value():
    for d in (dm.atomic_sym([(1e200, 0.5)]), dm.uniform_sym(1e200), dm.pareto_sym(3.0, 1e200)):
        got = dm.weighted_second_moment(d)
        assert got.finite and got.value is None and "double range" in got.reason
    assert dm.truncated_second_moments(dm.atomic_sym([(1e200, 0.5)]), [1.0, 1e300]).tolist() == [
        0.0, math.inf]
    assert dm.second_moment_bound(dm.uniform_sym(1e200)) == math.inf


def test_pareto_tail_past_the_normal_doubles_is_formed_in_logs():
    # scale / lam = 1e-400 underflowed to 0.0 before the power, and a floor failed
    lam = np.array([1e100, 3e100, 1e300, math.inf])
    want = [float(mpmath.power(mpmath.mpf(1e-300) / mpmath.mpf(x), 0.5)) for x in lam[:3]]
    got = dm.tails(dm.pareto_sym(0.5, 1e-300), lam)
    np.testing.assert_allclose(got[:3], want, rtol=1e-13)
    assert got[3] == 0.0
    assert dm.tails(dm.pareto_sym(1e-320, 1e-300), lam[:3]).tolist() == [1.0] * 3
    # a ratio within the normal doubles keeps pow's bits
    lam = np.logspace(0.1, 307.0, 200)
    assert dm.tails(dm.pareto_sym(1.5, 1.0), lam).tolist() == sk.libm(pow, 1.0 / lam, 1.5).tolist()


def test_uniform_truncated_moment_past_the_cube_range():
    # pow(min(b, h), 3) leaves the doubles past _CUBE_MAX; T = m (m (m / 3h)) does
    # not, nor does m^2 at b = 1e160 < h = 1e200
    assert pow(dm._CUBE_MAX, 3.0) < math.inf
    with pytest.raises(OverflowError):
        pow(math.nextafter(dm._CUBE_MAX, math.inf), 3.0)
    got = dm.truncated_second_moments(dm.uniform_sym(1e120), [1e119, 1e121])
    np.testing.assert_allclose(got, [1e238 / 30.0, 1e240 / 3.0], rtol=1e-15)
    b = np.array([1.0, 1e50, dm._CUBE_MAX])
    assert dm.truncated_second_moments(dm.uniform_sym(1e110), b).tolist() == [
        pow(x, 3.0) / (1e110 * 3.0) for x in b.tolist()]
    # h^2 / 3 past the doubles is inf, with no warning
    got = dm.truncated_second_moments(dm.uniform_sym(1e200), [1e160, 1e200])
    np.testing.assert_allclose(got[0], 1e280 / 3.0, rtol=1e-15)
    assert got[1] == math.inf
    # 3h is inf past h = 6e307: T divides by h, then by 3
    assert 8e307 * 3.0 == math.inf
    got = dm.truncated_second_moments(dm.uniform_sym(8e307), [1.0, 1e100, 1e200, 8e307, 1e308])
    want = [float(Fraction(b) ** 3 / (3 * Fraction(8e307))) for b in (1.0, 1e100, 1e200)]
    np.testing.assert_allclose(got[:3], want, rtol=1e-15)
    assert got[1:3].tolist() == [1e100 ** 3 / 8e307 / 3.0, 1e200 * (1e200 * (1e200 / 8e307 / 3.0))]
    assert got[3:].tolist() == [math.inf, math.inf]


def test_pareto_moment_past_the_panel_budget_has_no_value():
    # the range spans 1 + delta panels: 1e10 of them used to exhaust memory
    got = dm.weighted_second_moment(dm.pareto_sym(3.0), "loglog_delta", delta=1e10)
    assert (got.finite, got.value) == (True, None)
    assert got.reason == "log power 1e+10: the quadrature needs more than 10000 panels"


# ---------------------------------------------------------------------------
# weighted and normal moments against 40-digit mpmath
# ---------------------------------------------------------------------------


def _mp_weighted_moment(d, delta):
    """E[X^2 W(|X|)] at 40 digits, W(x) = 1/log(2+x), times
    log(2 + log(2+x))^(1+delta) when delta is set."""
    def weight(x):
        lx = mpmath.log(2 + x)
        return (1 if delta is None else mpmath.log(2 + lx) ** (1 + delta)) / lx

    with mpmath.workdps(40):
        if d.kind == "uniform_sym":
            h = mpmath.mpf(d.params[0])
            cuts = [0] + [mpmath.mpf(4) ** k for k in range(-5, 11) if 4 ** k < h] + [h]
            return mpmath.quad(lambda x: x * x * weight(x), cuts) / h
        if d.kind == "normal_std":
            return mpmath.quad(lambda x: 2 * x * x * weight(x) * mpmath.npdf(x),
                               [0, 1, 2, 4, 8, mpmath.inf])
        # x = s e^v: alpha s^2 int_0^inf e^(-(alpha-2) v) W(s e^v) dv
        alpha, s = map(mpmath.mpf, d.params)
        return alpha * s * s * mpmath.quad(
            lambda v: mpmath.exp(-(alpha - 2) * v) * weight(s * mpmath.exp(v)),
            [0, 1, 4, 16, 64, 256, 1024, mpmath.inf])


WEIGHTED_LAWS = ([dm.uniform_sym(h) for h in (1e-3, 1.0, 3.0, 1e6)] + [dm.normal_std()]
                 + [dm.pareto_sym(a, s) for a in (2.05, 2.5, 3.0, 10.0) for s in (1.0, 7.0)])


@pytest.mark.parametrize("d", WEIGHTED_LAWS, ids=lambda d: f"{d.kind}{d.params}")
def test_weighted_moments_match_40_digit_mpmath(d):
    for form, delta in (("inv_logplus", None), ("loglog_delta", 0.5), ("loglog_delta", 2.0)):
        got = dm.weighted_second_moment(d, form, delta)
        assert got.finite
        assert got.value == pytest.approx(float(_mp_weighted_moment(d, delta)), rel=1e-13)


@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0, 4.5])
def test_normal_truncated_moments_match_40_digit_mpmath(scale):
    # E[X^2 1{|X| < b}] = 2 gamma(3/2, b^2/2) / sqrt(pi), to an absolute 1e-15
    cuts = [scale * b for b in (1e-3, 0.5, 1.3, 2.9, 10.0, 37.0, 60.0)]
    got = dm.truncated_second_moments(dm.normal_std(), cuts)
    with mpmath.workdps(40):
        want = [2 * mpmath.gammainc(mpmath.mpf(3) / 2, 0, mpmath.mpf(b) ** 2 / 2)
                / mpmath.sqrt(mpmath.pi) for b in cuts]
    assert got.tolist() == pytest.approx([float(w) for w in want], abs=1e-15)


def _mp_normal_moment(b):
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        return 2 * mpmath.ncdf(b) - 1 - 2 * b * mpmath.npdf(b)


def test_normal_truncated_moment_is_relatively_accurate_at_small_cutoffs():
    # below the crossover the moment is a series of positive terms; the
    # difference 2 Phi(b) - 1 - 2 b phi(b) lost every digit there (0.36
    # relative at 1e-5, negative at 1e-8)
    c = dm._NORMAL_SERIES_BELOW
    cuts = [1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 0.1, math.nextafter(c, 0.0)]
    got = dm.truncated_second_moments(dm.normal_std(), cuts)
    for b, value in zip(cuts, got.tolist()):
        want = _mp_normal_moment(b)
        assert abs(value - want) <= 1e-14 * want, b


def test_normal_truncated_moment_positive_and_rising_into_the_crossover():
    # positive wherever its leading term 2 phi(0) b^3 / 3 is a normal double,
    # and no step down from the series to the difference at the crossover c
    c = dm._NORMAL_SERIES_BELOW
    b = np.append(np.geomspace(1e-104, math.nextafter(c, 0.0), 4001), c)
    b = b[2.0 / math.sqrt(2.0 * math.pi) * b ** 3 / 3.0 >= sys.float_info.min]
    assert b[0] < 1e-102
    got = dm.truncated_second_moments(dm.normal_std(), b)
    assert (got > 0.0).all() and (np.diff(got) >= 0.0).all()
    assert got[-2] <= got[-1]  # T(nextafter(c, 0)) <= T(c)


def test_normal_truncated_moment_is_the_variance_where_the_density_is_0():
    # 2 b phi(b) is 0 from b = 39 on; at an inf b it was inf * 0, a NaN
    b = [39.0, 1.3e154, 1.4e154, 9e307, sys.float_info.max, math.inf]
    assert dm.truncated_second_moments(dm.normal_std(), b).tolist() == [1.0] * len(b)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_atomic_sym_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        dm.atomic_sym([(-1.0, 0.5)])
    with pytest.raises(ValueError):
        dm.atomic_sym([(1.0, 0.0)])


def test_atoms_must_be_finite():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            dm.atomic_sym([(bad, 0.5)])
        with pytest.raises(ValueError):
            dm.atomic([(bad, 0.5)])


def test_atom_table_order_and_implied_zero():
    values, probs = dm.atom_table(dm.atomic_sym([(3.0, 0.25), (1.0, 0.5)]))
    assert values.tolist() == [-1.0, 1.0, -3.0, 3.0, 0.0]
    assert probs.tolist() == [0.25, 0.25, 0.125, 0.125, 0.25]
    values, probs = dm.atom_table(dm.atomic([(1.0, 0.5), (2.5, 0.5)]))
    assert values.tolist() == [1.0, 2.5, 0.0]
    assert probs.tolist() == [0.5, 0.5, 0.0]
    assert dm.atom_table(dm.rademacher())[1].tolist() == [0.5, 0.5, 0.0]
    assert dm.atom_table(dm.normal_std()) is None


def test_mass_overflow_rejected():
    with pytest.raises(ValueError):
        dm.atomic_sym([(1.0, 0.7), (2.0, 0.5)])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


# sample serves the two laws whose sums mcengine draws step by step
STEP_LAWS = [dm.uniform_sym(1.0), dm.pareto_sym(1.5)]


def test_sample_empty():
    rng = seeding.stream(0, 1)
    for d in STEP_LAWS:
        got = dm.sample(d, rng, 0)
        assert got.size == 0 and got.dtype == np.float64


def test_sample_refuses_the_laws_drawn_whole():
    for d in (dm.rademacher(), dm.atomic_sym([(1.0, 0.5)]), dm.normal_std()):
        with pytest.raises(ValueError, match="no single-step sampler"):
            dm.sample(d, seeding.stream(0, 1), 10)


def test_uniform_half_width_leaves_its_width_finite():
    # Generator.uniform(-h, h) needs 2h finite; the next double up is 2^1023
    top = sys.float_info.max / 2.0
    assert dm.uniform_sym(top).params == (top,)
    for h in (2.0 ** 1023, 1e308, sys.float_info.max, math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="half_width"):
            dm.uniform_sym(h)


def test_sample_deterministic_per_stream():
    d = dm.uniform_sym(1.0)
    a = dm.sample(d, seeding.stream(42, 1, 2), 1000)
    b = dm.sample(d, seeding.stream(42, 1, 2), 1000)
    c = dm.sample(d, seeding.stream(42, 1, 3), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("alpha,scale", [(1.5, 1.0), (1.0, 0.3), (2.0, 7.0), (0.01, 1.0)])
def test_pareto_sample_matches_the_formula_bit_for_bit(alpha, scale):
    # the sampler works in place on one generator word a step; the reference is
    # the draw written out: random() of the word, and bit 0 of the same word
    u = seeding.stream(5, 1).random(10_000)
    bit = seeding.stream(5, 1).bit_generator.random_raw(10_000) & 1
    with np.errstate(over="ignore"):
        want = scale * u ** (-1.0 / alpha) * (2.0 * bit - 1.0)
        got = dm.sample(dm.pareto_sym(alpha, scale), seeding.stream(5, 1), 10_000)
    assert got.tobytes() == want.tobytes()


def test_uniform_second_moment_bound():
    x = dm.sample(dm.uniform_sym(1.0), seeding.stream(8, 0), 10 ** 6)
    assert abs((x * x).mean() - 1.0 / 3.0) <= 5e-3


KS_CRIT_1E3 = 1.9495 / math.sqrt(10 ** 6)  # two-sided critical value at alpha = 1e-3


def ks_statistic(x, cdf) -> float:
    """Kolmogorov-Smirnov distance sup |F_n - F| between the sample's
    empirical cdf and ``cdf``, taken at the jumps from both sides."""
    x = np.sort(x)
    f = cdf(x)
    i = np.arange(1, x.size + 1)
    return float(max((i / x.size - f).max(), (f - (i - 1) / x.size).max()))


def test_sampler_ks_continuous_kinds():
    x = dm.sample(dm.uniform_sym(1.0), seeding.stream(11, 0), 10 ** 6)
    stat = ks_statistic(x, lambda t: np.clip((t + 1.0) / 2.0, 0, 1))
    assert stat < KS_CRIT_1E3

    alpha, s = 1.5, 1.0
    x = dm.sample(dm.pareto_sym(alpha, s), seeding.stream(13, 0), 10 ** 6)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= s, 1.0 - 0.5 * (s / np.maximum(t, s)) ** alpha, 0.5)
        out = np.where(t <= -s, 0.5 * (s / np.maximum(-t, s)) ** alpha, out)
        return out

    assert ks_statistic(x, cdf) < KS_CRIT_1E3


def test_support_and_variance_bounds():
    assert dm.support_bound(dm.rademacher()) == 1.0
    assert dm.support_bound(dm.normal_std()) is None
    assert dm.second_moment_bound(dm.uniform_sym(3.0)) == pytest.approx(3.0)
    assert dm.second_moment_bound(dm.pareto_sym(3.0, 1.0)) == pytest.approx(3.0)
    assert dm.second_moment_bound(dm.pareto_sym(1.5, 1.0)) is None


# ---------------------------------------------------------------------------
# array forms against the one-point formulas they replaced, bit for bit
# ---------------------------------------------------------------------------


def _magnitudes(table):
    """P(|X| = m) in ascending m, from a signed (value, mass) table."""
    mass = {}
    for v, p in table:
        mass[abs(v)] = mass.get(abs(v), 0.0) + p
    return sorted(mass.items())


def _reference_tail(d, lam):
    if lam == 0.0:
        return 1.0
    if d.kind == "rademacher":
        return 1.0 if lam <= 1.0 else 0.0
    if d.kind == "uniform_sym":
        return max(0.0, 1.0 - lam / d.params[0])
    if d.kind == "normal_std":
        return math.erfc(lam / math.sqrt(2.0))
    if d.kind == "pareto_sym":
        alpha, scale = d.params
        return 1.0 if lam <= scale else (scale / lam) ** alpha
    (atoms,) = d.params
    return sum(p for m, p in _magnitudes(atoms) if m >= lam)


def _reference_moment(d, b):
    if d.kind == "rademacher":
        return 1.0 if b > 1.0 else 0.0
    if d.kind == "uniform_sym":
        (h,) = d.params
        return min(b, h) ** 3.0 / (h * 3.0)
    if d.kind == "normal_std":
        inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
        if b < dm._NORMAL_SERIES_BELOW:  # 2 phi(b) sum_(k>=1) b^(2k+1)/(2k+1)!!
            h = 1.0
            for k in range(10, 1, -1):
                h = 1.0 + h * (b * b / (2 * k + 1))
            return 2.0 * inv_sqrt_2pi * math.exp(-0.5 * (b * b)) * (b * (b * b) / 3.0 * h)
        cdf = 0.5 * math.erfc(-b / math.sqrt(2.0))
        pdf = inv_sqrt_2pi * math.exp(-0.5 * b * b)
        return (2.0 * cdf - 1.0) - 2.0 * b * pdf
    if d.kind == "pareto_sym":
        alpha, scale = d.params
        if b <= scale:
            return 0.0
        return alpha * scale ** alpha * (b ** (2.0 - alpha) - scale ** (2.0 - alpha)) / (2.0 - alpha)
    (atoms,) = d.params
    return sum(p * m ** 2.0 for m, p in _magnitudes(atoms) if m < b)


ARRAY_KINDS = ALL_CLOSED + [
    dm.pareto_sym(3.0, 1.5),
    dm.atomic([(-2.0, 0.125), (0.5, 0.25), (2.0, 0.25), (3.5, 0.1)]),
    dm.atomic_sym([(0.1, 0.3), (0.3, 0.2), (0.7, 0.1), (2.2, 0.05)]),
]


# every discontinuity of ARRAY_KINDS: atoms, the support edge, the scale
MARKS = [1.0, 1.5, 3.0, 0.1, 0.3, 0.7, 2.2, 0.5, 2.0, 3.5]


@pytest.mark.parametrize("d", ARRAY_KINDS, ids=lambda d: d.kind)
def test_array_tails_and_moments_match_one_point_formulas(d):
    rng = np.random.default_rng(7)
    cuts = np.concatenate([rng.uniform(0.0, 8.0, 400), MARKS, np.nextafter(MARKS, 0.0)])
    got = dm.tails(d, np.concatenate([[0.0], cuts]))
    want = [_reference_tail(d, c) for c in [0.0] + cuts.tolist()]
    assert got.tolist() == want
    assert dm.tail(d, 2.0) == _reference_tail(d, 2.0)
    assert dm.truncated_second_moments(d, cuts).tolist() == [
        _reference_moment(d, c) for c in cuts.tolist()]
    assert dm.truncated_moment(d, 2.2) == _reference_moment(d, 2.2)


def test_array_forms_validate_like_one_point_forms():
    d = dm.uniform_sym(1.0)
    with pytest.raises(ValueError, match="threshold must be a nonnegative real"):
        dm.tails(d, np.array([0.5, -1.0]))
    with pytest.raises(ValueError, match="threshold must be a nonnegative real"):
        dm.tail(d, math.nan)
    with pytest.raises(ValueError, match="cutoff must be positive"):
        dm.truncated_second_moments(d, np.array([0.5, 0.0]))
