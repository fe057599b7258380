"""Sequence regularity checks against independently computed values."""

import functools
import json
import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import convergence as cv
from cclab import distmodel as dm
from cclab import seqkit as sk
from cclab.seqkit import SlowlyVarying, Verdict


def spataru_norms():
    from cclab.cli import spataru_norms as f
    return f()


# ---------------------------------------------------------------------------
# T_k = sum_{j<=k} j w(j), as sequence_values computes it
# ---------------------------------------------------------------------------


# The three checks, each on the columns sequence_values builds over 1..horizon.
def dyadic(w, horizon=10_000):
    return sk.check_dyadic_regularity(w, sk.sequence_values(w, sk.power_law_norms(1.0), horizon))


def domination(w, a, horizon=10_000, **kw):
    return sk.check_tail_domination(w, a, sk.sequence_values(w, a, horizon), **kw)


def inf_growth(w, a, horizon=10_000, **kw):
    return sk.check_inf_growth(w, a, sk.sequence_values(w, a, horizon), **kw)


def _running_fsum(values):
    """Correctly rounded prefix sums: an independent reference for ``prefix_sums``."""
    return [math.fsum(values[:i]) for i in range(1, len(values) + 1)]


def partial_sums(w, k):
    """T_1, ..., T_k of the weights ``w``; prefix k of any longer horizon's T."""
    return sk.sequence_values(w, sk.power_law_norms(1.0), max(k, 4)).t[:k]


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
# prefix_sums: Sum2 prefix sums against math.fsum and exact rationals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_prefix_sums_within_an_ulp_of_fsum(seed):
    rng = np.random.default_rng(seed)
    for x in (rng.random(500) * 10.0 ** rng.integers(-8, 8, 500),
              rng.standard_normal(500) * 10.0 ** rng.integers(-3, 3, 500),
              np.exp(30.0 * rng.standard_normal(500))):
        got = sk.prefix_sums(x).tolist()
        for g, want in zip(got, _running_fsum(x.tolist())):
            assert abs(g - want) <= math.ulp(want)


@pytest.mark.parametrize("seed", range(6))
def test_prefix_sums_equal_fsum_across_1e_minus200_to_1e200(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.choice([-1.0, 1.0], 400) * rng.random(400) * 10.0 ** rng.integers(-200, 201, 400)
    assert sk.prefix_sums(x).tolist() == _running_fsum(x.tolist())


@pytest.mark.parametrize("x", [
    [1.0, 1e100, 1.0, -1e100],  # a running Kahan sum ends at 0.0, not 2.0
    [(-1.0) ** k / k for k in range(1, 2000)],
    [1.0 / k ** 2 for k in range(1, 3000)],
    [0.1 * k for k in range(1000)],
], ids=["cancellation", "alternating harmonic", "inverse squares", "tenths"])
def test_prefix_sums_match_exact_rationals(x):
    exact, want = Fraction(0), []
    for v in x:
        exact += Fraction(v)
        want.append(float(exact))
    assert sk.prefix_sums(x).tolist() == want


def test_prefix_sums_of_nothing_is_empty():
    out = sk.prefix_sums([])
    assert out.shape == (0,) and out.dtype == np.float64


def test_prefix_sums_of_nonnegative_terms_pass_the_partial_sum_check():
    from cclab.reports import check_partial_sums
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.random(2000) * 10.0 ** rng.integers(-20, 20, 2000)
        p = sk.prefix_sums(x)
        check_partial_sums(np.arange(1, x.size + 1), x, p)
        assert (p[1:] >= p[:-1] - 1e-15 * np.fmax(1.0, np.abs(p[:-1]))).all()


def test_prefix_sums_past_the_double_range_are_the_running_sum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sk.prefix_sums([1e308, 1e308, 1.0, -math.inf])
    assert out[0] == 1e308 and out[1] == out[2] == math.inf and math.isnan(out[3])


# ---------------------------------------------------------------------------
# libm's numpy loops for pow: bit for bit as the scalar map
# ---------------------------------------------------------------------------


def same_bits(x, y) -> bool:
    return x.dtype == y.dtype == np.float64 and x.tobytes() == y.tobytes()


def libm_pow(x, p) -> np.ndarray:
    """pow(x, p) one Python float at a time: the reference ``libm(pow, ...)`` keeps to."""
    return raw_map(lambda v: pow(v, float(p)), x)


def assert_same_uint64(got, want) -> None:
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def spataru_columns() -> dict:
    """n, a(n), eps a(n) and 1/(eps a(n)) at eps 0.5 and 1, n = 1..200,000."""
    n = np.arange(1, 200_001)
    a = spataru_norms().values(n)
    return {"n": n.astype(np.float64), "a": a, "0.5 a": 0.5 * a,
            "1/(0.5 a)": 1.0 / (0.5 * a), "1/a": 1.0 / a}


@pytest.mark.parametrize("p", [0, 1, 2, 3, 0.0, 1.0, 2.0, 3.0])
def test_power_of_integers_is_libm_pow_bit_for_bit(p):
    x = np.arange(1, 200_001)
    assert_same_uint64(sk.libm(pow, x, p), libm_pow(x, p))


@pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 2.0, 3.0])
def test_power_of_the_spataru_column_is_libm_pow_bit_for_bit(p):
    for x in spataru_columns().values():
        assert_same_uint64(sk.libm(pow, x, p), libm_pow(x, p))


@pytest.mark.parametrize("p", [-1, 2, 3])
def test_power_of_log_uniform_doubles_is_pow_bit_for_bit(p):
    x = np.exp2(np.random.default_rng(20_016).uniform(-300.0, 300.0, 1_000_000))
    assert_same_uint64(sk.libm(pow, x, p), libm_pow(x, p))


# 2^-300 and 2^300, whose cubes are near the double range's ends, and their neighbours
RANGE_ENDS = [2.0 ** -300, 2.0 ** 300, math.nextafter(2.0 ** -300, 0.0),
              math.nextafter(2.0 ** 300, math.inf)]


@pytest.mark.parametrize("x,p", [
    ([0.5, 2.0], 2.0),              # not integer-valued
    ([2.0 ** 27, 3.0], 2.0),        # squares and cubes either side of 2^53
    ([208_100.0, -5.0], 3.0),
    ([94_906_265.0], 2.0),
    ([94_906_266.0], 2.0),
    ([208_063.0], 3.0),
    ([208_064.0], 3.0),
    ([-0.0, -3.0, 7.0], 3.0),       # signs survive
    ([math.nan, math.inf, -0.0], 1.0),
    ([math.nan, math.inf, 0.0], 0.0),
    ([math.nan, 2.0], 2.0),
    ([], 2.0),
    *(([*RANGE_ENDS, sys.float_info.min, 1e-310, 5e-324, 0.0, -0.0, -2.0, math.inf, -math.inf,
        math.nan], p) for p in (2.0, 3.0)),
    ([*RANGE_ENDS, sys.float_info.min, -2.0, math.inf, -math.inf, math.nan], -1.0),
])
def test_power_at_the_edges_is_libm_pow(x, p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xs in (x, np.tile(x, 512)):
            assert_same_uint64(sk.libm(pow, xs, p), libm_pow(xs, p))


def test_power_keeps_libm_where_a_shortcut_would_round_differently():
    # glibc's pow(n, -1) is not 1/n at some n, nor pow(a, 2) a*a at some
    # spataru a(n): there x^p lies near a rounding midpoint, and libm must
    # give pow's bits there too
    columns = spataru_columns()
    n, a = columns["n"], columns["a"]
    for x, p, shortcut in ((n, -1.0, 1.0 / n), (a, 2.0, a * a)):
        got = sk.libm(pow, x, p)
        assert_same_uint64(got, libm_pow(x, p))
        assert (got != shortcut).any()


def test_power_past_the_double_range_raises_like_libm_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (functools.partial(sk.libm, pow), libm_pow):
            for x, p, error in (([1e300], 2.0, OverflowError), ([2.0, 1e300], 3.0, OverflowError),
                                ([1e-310], -1.0, OverflowError), ([5e-324], -1.0, OverflowError),
                                ([1.0, 0.0], -1.0, ZeroDivisionError),
                                ([-0.0], -1.0, ZeroDivisionError)):
                with pytest.raises(error):
                    f(np.tile(x, 512), p)


def test_power_and_libm_of_scalars_give_one_element():
    assert sk.libm(pow, 2.0, 3).tolist() == [8.0]
    assert sk.libm(pow, 2.5, 0.5).tolist() == [pow(2.5, 0.5)]
    assert sk.libm(math.exp, 1.0).tolist() == [math.exp(1.0)]


# every route a scalar can take: the numpy loops and the elements they leave to
# the map, erfc's fills, and the map
@pytest.mark.parametrize("f,args,want", [
    (sk.libm, (math.exp, -800.0), 0.0), (sk.libm, (math.erfc, 30.0), 0.0),
    (sk.libm, (math.erfc, -7.0), 2.0), (sk.libm, (math.exp, 1.0), math.e),
    (sk.libm, (pow, 2.0, 0.5), math.sqrt(2.0)), (sk.libm, (pow, 2.0, 0), 1.0),
    (sk.libm, (pow, 2.0, 1), 2.0), (sk.libm, (pow, 2.0, 3), 8.0),
    (sk.libm, (pow, 2.0, -1.0), 0.5),
    (sk.libm, (math.log, 2.0), math.log(2.0)), (sk.libm, (math.exp, 709.5), math.exp(709.5)),
    (sk.libm, (pow, -2.0, 3.0), -8.0),
])
def test_scalars_alone_give_one_element_on_every_route(f, args, want):
    got = f(*args)
    assert got.shape == (1,)
    assert got.tolist() == [want]


def test_libm_refuses_arguments_that_do_not_broadcast():
    for x, p in ((np.ones(5), np.ones(3)), (np.ones(3), np.ones(5))):
        with pytest.raises(ValueError, match="broadcast"):
            sk.libm(pow, x, p)


def test_libm_and_power_give_the_broadcast_shape():
    x = np.linspace(-800.0, 30.0, 24).reshape(4, 6)  # exp's loop; erfc's fills and map
    for fn in (math.exp, math.erfc):
        got = sk.libm(fn, x)
        assert got.shape == (4, 6)
        assert same_bits(got.ravel(), raw_map(fn, x.ravel()))
    assert sk.libm(pow, np.arange(1.0, 4.0)[:, None], np.arange(4.0)).tolist() == [
        [pow(a, b) for b in (0.0, 1.0, 2.0, 3.0)] for a in (1.0, 2.0, 3.0)]
    assert sk.libm(math.log, np.arange(1.0, 9.0)[::3]).tolist() == [0.0, math.log(4.0),
                                                                    math.log(7.0)]
    # a short and a long array
    for x in (np.arange(1.0, 13.0).reshape(3, 4), np.arange(1.0, 1025.0).reshape(32, 32)):
        for p in (0, 1, -1.0, 2.0, 3.0, 0.5):
            got = sk.libm(pow, x, p)
            assert got.shape == x.shape
            assert_same_uint64(got.ravel(), libm_pow(x.ravel(), p))


def test_power_at_one_is_a_copy():
    x = np.arange(1.0, 4.0)
    sk.libm(pow, x, 1.0)[0] = 9.0
    assert x[0] == 1.0


# ---------------------------------------------------------------------------
# libm's numpy loops for pow and exp, held to the scalar map
# ---------------------------------------------------------------------------


@pytest.fixture
def mapped(monkeypatch) -> list:
    """One entry per element seqkit sends through fn as a Python float."""
    calls = []

    def counting_map(fn, *cols):
        return map(lambda *v: calls.append(1) or fn(*v), *cols)

    monkeypatch.setattr(sk, "map", counting_map, raising=False)
    return calls


def pow_or_none(x: float, p: float):
    """Python's pow(x, p) where it is a float, None where it raises or is complex."""
    try:
        v = pow(x, p)
    except (OverflowError, ZeroDivisionError):
        return None
    return v if isinstance(v, float) else None


def pow_pairs() -> tuple[np.ndarray, np.ndarray]:
    """Log-uniform bases 1e-300..1e300 with exponents up to +-30; results
    log-uniform over 2^-1100..2^1050 (underflow, subnormals and overflow) with
    exponents up to +-1e4; the integers n to 20,000 at -1 - eps^2/T; and every
    pair of zeros, subnormals, ones, negatives, infinities and NaN."""
    rng = np.random.default_rng(24_001)
    size = 200_000
    sign = rng.choice([-1.0, 1.0], size)
    wide = sign * 10.0 ** rng.uniform(-3.0, 4.0, size)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1.0, -1.0, 0.5, 2.0,
                        -2.0, 3.0, 1e300, -1e300, math.inf, -math.inf, math.nan])
    n = np.arange(2.0, 20_001.0)
    base = np.concatenate((10.0 ** rng.uniform(-300.0, 300.0, size),
                           np.exp2(np.clip(rng.uniform(-1100.0, 1050.0, size) / wide,
                                           -1074.0, 1023.0)),
                           n, np.repeat(special, special.size)))
    expo = np.concatenate((sign * rng.uniform(0.0, 30.0, size), wide,
                           -1.0 - rng.uniform(0.0, 3.0, n.size), np.tile(special, special.size)))
    return base, expo


def test_libm_pow_is_the_scalar_map_bit_for_bit(mapped):
    base, expo = pow_pairs()
    want = list(map(pow_or_none, base.tolist(), expo.tolist()))
    kept = np.array([v is not None for v in want])
    want = np.array([v for v in want if v is not None])
    assert 0 < (want == 0.0).sum() and 0 < (np.abs(want) < sys.float_info.min).sum()
    got = sk.libm(pow, base[kept], expo[kept])
    assert_same_uint64(got, want)
    # only a base <= 0 and a value that is not finite go through Python's pow
    assert len(mapped) == ((base[kept] <= 0.0) | ~np.isfinite(want)).sum() < 1000


def test_libm_pow_overflows_where_python_does():
    base, expo = pow_pairs()
    want = list(map(pow_or_none, base.tolist(), expo.tolist()))
    over = np.array([v is None for v in want]) & (base > 0.0)  # a base > 0 raises only there
    assert over.sum() > 10_000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b, e in zip(base[over][::100], expo[over][::100]):
            with pytest.raises(OverflowError):
                sk.libm(pow, np.array([1.0, b]), e)


def test_libm_exp_is_the_scalar_map_bit_for_bit(mapped):
    rng = np.random.default_rng(24_002)
    x = np.concatenate((rng.uniform(-750.0, 709.78, 1_000_000),
                        np.linspace(-746.0, -708.0, 100_000),  # subnormal values and 0.0
                        np.linspace(707.0, 709.78, 100_000),   # past 708: math.exp's
                        -np.exp2(rng.uniform(-1074.0, 0.0, 10_000)),
                        np.exp2(rng.uniform(-1074.0, 0.0, 10_000)),
                        [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -1e308,
                         708.0, math.nextafter(708.0, math.inf), 709.78]))
    got = sk.libm(math.exp, x)
    assert_same_uint64(got, raw_map(math.exp, x))
    assert len(mapped) == ((x > 708.0) | np.isnan(x)).sum()


def test_libm_exp_below_the_underflow_is_math_exp_bit_for_bit():
    # glibc's exp is the least subnormal at -745.1332191019411 and 0.0 from
    # -745.1332191019412 down; libm fills 0.0 below -745.2 and sends the rest to cexp
    assert math.exp(-745.1332191019411) == 5e-324 and math.exp(-745.1332191019412) == 0.0
    x = np.concatenate(([-745.1332191019411, -745.1332191019412, -745.2, -1e308, -math.inf,
                         math.nan], np.linspace(-800.0, -700.0, 10_001)))
    assert_same_uint64(sk.libm(math.exp, x), raw_map(math.exp, x))
    assert sk.libm(math.exp, -800.0).tolist() == [0.0]


def test_exp_past_the_double_range_raises_like_math_exp_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (710.0, [0.0, 710.0], np.tile([1.0, 710.0], 512), [-1e308, 1e308]):
            with pytest.raises(OverflowError):
                sk.libm(math.exp, x)


def test_libm_log_is_the_scalar_map_bit_for_bit(mapped):
    rng = np.random.default_rng(24_003)
    top = sys.float_info.max / 4.0  # past it the C library's clog scales x
    x = np.concatenate((np.arange(1.0, 2_000_001.0),
                        rng.uniform(0.0, 1e6, 1_000_000),
                        rng.uniform(0.5, 2.0, 100_000),  # clog's log1p branch is on (1, 2)
                        np.exp2(rng.uniform(-1074.0, 1024.0, 100_000)),  # subnormal to DBL_MAX
                        [2.0, math.nextafter(2.0, 0.0), 1.5, top, math.nextafter(top, math.inf),
                         sys.float_info.max, 5e-324, 1e-310, math.inf, math.nan]))
    got = sk.libm(math.log, x)
    assert_same_uint64(got, raw_map(math.log, x))
    assert len(mapped) == (~((x >= 2.0) & (x <= top))).sum()


def test_log_of_a_nonpositive_number_raises_like_math_log_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, -0.0, -5e-324, -1.0, -math.inf, [2.0, -1.0], np.tile([3.0, 0.0], 512)):
            with pytest.raises(ValueError):
                sk.libm(math.log, x)


# ---------------------------------------------------------------------------
# libm's saturation rules, held to what the math library itself returns
# ---------------------------------------------------------------------------


def raw_map(fn, x) -> np.ndarray:
    return np.fromiter(map(fn, np.asarray(x, dtype=np.float64).tolist()), np.float64)


# (fn, comparison, edge, the one value fn returns past the edge)
SATURATION_RULES = [(math.exp, np.less_equal, -750.0, 0.0),
                    (math.erfc, np.greater_equal, 28.0, 0.0),
                    (math.erfc, np.less_equal, -6.0, 2.0)]


def test_libm_fills_exactly_these_rules():
    assert set(sk._VECTOR) == {pow, math.exp, math.log, math.erfc}
    assert sk._VECTOR[math.erfc] is sk._erfc_fills
    # exp's route fills 0.0 below -745.2
    x = np.array([-math.inf, -1e308, -745.3, math.nextafter(-745.2, 0.0), math.nan, 709.0])
    values, mapped = sk._complex_exp(x)
    assert mapped.tolist() == [False] * 5 + [True]
    assert values[:3].tolist() == [0.0] * 3 and math.isnan(values[4])
    x = np.array([-math.inf, -6.0, np.nextafter(-6.0, 0.0), math.nan, 0.0,
                  np.nextafter(28.0, 0.0), 28.0, math.inf])
    values, mapped = sk._erfc_fills(x)
    assert mapped.tolist() == [False, False, True, True, True, True, False, False]
    assert values[~mapped].tolist() == [2.0, 2.0, 0.0, 0.0]


@pytest.mark.parametrize("fn,compare,edge,value", SATURATION_RULES,
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_saturated_values_are_what_libm_returns(fn, compare, edge, value):
    # the edge, 10^5 points evenly out to 10x past it, a log grid out to
    # 1e308 and the infinity on that side
    side = math.copysign(1.0, edge)
    x = np.concatenate(([edge], np.linspace(edge, 10.0 * edge, 100_000),
                        side * np.logspace(math.log10(abs(edge)), 308.0, 10_000),
                        [side * math.inf]))
    assert compare(x, edge).all()
    assert same_bits(raw_map(fn, x), np.full(x.shape, value))
    assert same_bits(sk.libm(fn, x), np.full(x.shape, value))


@pytest.mark.parametrize("fn,top", [(math.exp, 709.0), (math.erfc, 40.0)])
def test_libm_with_saturation_is_the_raw_map_bit_for_bit(fn, top):
    rng = np.random.default_rng(15)
    edges = [-750.0, -6.0, 28.0]
    near = [np.nextafter(e, side) for e in edges for side in (-math.inf, math.inf)]
    x = np.concatenate((rng.uniform(-800.0, top, 20_000), edges, near,
                        [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324]))
    rng.shuffle(x)
    for case in (x, x[x <= -750.0], x[np.isnan(x)], x[:0]):
        assert same_bits(sk.libm(fn, case), raw_map(fn, case))


# ---------------------------------------------------------------------------
# dyadic regularity criteria
# ---------------------------------------------------------------------------


def test_dyadic_constant_weights_certified():
    rep = dyadic(sk.power_law_weights(0.0))
    assert rep.verdict is Verdict.CERTIFIED_PASS


def test_dyadic_harmonic_weights_constant_two():
    rep = dyadic(sk.power_law_weights(-1.0))
    assert rep.verdict is Verdict.CERTIFIED_PASS
    # ratios w(2^{j-1})/w(k) and w(k)/w(2^j) both peak at 2 inside a block
    assert rep.constants["dyadic_C"] == pytest.approx(2.0, rel=1e-12)


# The dyadic constant of n^e sv(n), multiplied out in the order the closed form takes
# the factors: 2^|e|, log(6)/log(4) for log(2+n) (the block [2, 4], the largest of
# its 64 block ratios), the largest of loglog's 64 block ratios, then 2 for log n.
LOGLOG_BLOCK_RATIO = max(math.log(math.log(math.e ** 2 + 2.0 ** j))
                         / math.log(math.log(math.e ** 2 + 2.0 ** (j - 1))) for j in range(1, 65))


@pytest.mark.parametrize("exponent", [-0.5, 1.5])
@pytest.mark.parametrize("sv", [
    *(SlowlyVarying(**{field: g}) for field in ("log2p", "loglog", "logn")
      for g in (-2.0, -0.5, 0.5, 2.0)),
    SlowlyVarying(log2p=0.7, loglog=-1.3, logn=0.5)], ids=repr)
def test_dyadic_constant_multiplies_each_slowly_varying_factors_block_ratio(exponent, sv):
    expected = 2.0 ** abs(exponent)
    if sv.log2p:
        expected *= (math.log(6.0) / math.log(4.0)) ** abs(sv.log2p)
    if sv.loglog:
        expected *= LOGLOG_BLOCK_RATIO ** abs(sv.loglog)
    if sv.logn:
        expected *= 2.0 ** abs(sv.logn)
    fam = sk.PowerLawFamily(exponent, sv=sv)
    assert sk._dyadic_family_constant(fam).hex() == expected.hex()
    # the weights' route to the constant; the plain log has no value at n = 1
    if exponent < 0.0 and not sv.logn:
        rep = dyadic(sk.power_law_weights(exponent, sv=sv), horizon=64)
        assert (rep.verdict, rep.constants["route"]) == (Verdict.CERTIFIED_PASS, 2.0)
        assert rep.constants["dyadic_C"].hex() == expected.hex()


def test_dyadic_inverse_square_inconclusive():
    rep = dyadic(sk.power_law_weights(-2.0))
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_dyadic_empirical_route():
    w = sk.custom_weights(lambda n: 1.0 / n, name="custom-harmonic")
    rep = dyadic(w, horizon=512)
    assert rep.verdict is Verdict.EMPIRICAL_PASS
    assert rep.constants["dyadic_C"] == pytest.approx(2.0, rel=1e-9)


def test_dyadic_empirical_route_is_inconclusive_when_both_liminfs_vanish():
    # weights that are 0 from n = 10 on: liminf w(n) and liminf n w(n) are both 0
    rep = dyadic(sk.custom_weights(lambda n: 1.0 if n < 10 else 0.0), horizon=64)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert (rep.constants["liminf_tau"], rep.constants["liminf_ntau"]) == (0.0, 0.0)
    assert rep.notes == ()


def test_dyadic_rejects_small_horizon():
    with pytest.raises(ValueError):
        dyadic(sk.power_law_weights(0.0), horizon=3)


# ---------------------------------------------------------------------------
# tail domination
# ---------------------------------------------------------------------------


def test_tail_domination_spataru_theta_one():
    rep = domination(sk.power_law_weights(-1.0), spataru_norms(),
                                   theta=1.0, moment_power=3.0, horizon=3000)
    assert rep.verdict is Verdict.CERTIFIED_PASS
    assert math.isfinite(rep.constants["C"])


def test_tail_domination_square_case():
    rep = domination(sk.power_law_weights(0.0), sk.power_law_norms(1.0),
                                   theta=2.0, moment_power=2.0, horizon=3000)
    assert rep.verdict is Verdict.CERTIFIED_PASS
    # sum_{k>=n} k^2/k^4 ~ 1/n against T_{n-1} ~ n^2/2 scaled by n^4/n: C stays small
    assert rep.constants["C"] < 20.0


def test_tail_domination_divergent_tail():
    rep = domination(sk.power_law_weights(0.0), sk.power_law_norms(0.25),
                                   theta=1.0, moment_power=3.0, horizon=500)
    assert rep.verdict is Verdict.CERTIFIED_FAIL


def test_tail_domination_rejects_theta_below_one():
    with pytest.raises(ValueError):
        domination(sk.power_law_weights(0.0), sk.power_law_norms(1.0),
                                 theta=0.5)


def test_tail_domination_custom_without_bound_inconclusive():
    w = sk.custom_weights(lambda n: 1.0 / n)
    rep = domination(w, sk.power_law_norms(1.0), horizon=200)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.constants["C"] > 0.0  # the horizon-limited constant is still reported


def test_tail_domination_skips_the_indices_where_t_is_zero():
    # w(1..3) = 0, so T_1 = T_2 = T_3 = 0 and the ratios at n = 2, 3, 4 are not taken
    w = sk.custom_weights(lambda n: 0.0 if n < 4 else 1.0 / n)
    rep = domination(w, sk.power_law_norms(1.0), horizon=64)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.notes[0] == "3 initial indices skipped where T_(n-1) = 0"
    assert rep.constants["argmax_n"] >= 5.0


def test_tail_domination_remainder_is_true_upper_bound():
    # the certified remainder must dominate a brute-force continuation of the sum
    w = sk.power_law_weights(-1.0)
    a = sk.power_law_norms(1.0)
    terms = sk.TermBound(0.0, 3.0, from_n=101)  # k^theta w(k) / a(k)^3 = k^-3
    brute = math.fsum(k ** 1.0 * (1.0 / k) / k ** 3.0 for k in range(101, 400_000))
    assert brute <= terms.tail_beyond(100) <= brute * 1.05
    rep = domination(w, a, theta=1.0, moment_power=3.0, horizon=100)
    assert rep.verdict is Verdict.CERTIFIED_PASS
    assert rep.constants["tail_remainder"] == terms.tail_beyond(100)


def test_tail_domination_decides_q_one_with_a_plain_log():
    # spataru, moment power 2: the tail sum is sum 1/(k log k), which diverges
    rep = domination(sk.power_law_weights(-1.0), spataru_norms(), theta=1.0,
                     moment_power=2.0, horizon=3000)
    assert rep.verdict is Verdict.CERTIFIED_FAIL
    assert rep.notes == ("tail sum diverges: q == 1, log exponent -1, loglog exponent >= -1",)
    # a(n) = n^(1/2) log n: the tail sum is sum 1/(k (log k)^2), which converges,
    # but over its last term it grows like n log n, so the ratio grows like log n
    fam = sk.PowerLawFamily(exponent=0.5, sv=SlowlyVarying(logn=1.0))
    a = sk.NormSeq(fn=lambda n: np.where(n == 1, 0.5, np.sqrt(n) * np.log(n)), family=fam)
    rep = domination(sk.power_law_weights(-1.0), a, theta=1.0, moment_power=2.0, horizon=3000)
    assert rep.verdict is Verdict.CERTIFIED_FAIL
    assert rep.notes == ("remainder certified: logarithmic integral comparison",
                         "q == 1: the tail sum over its last term grows without bound "
                         "(Karamata), so the ratio does")
    # the sum from 3001 is at least int_3001^inf dx / (x (log x)^2) = 1 / log 3001;
    # folding (log k)^-2 into log(2+k)^-2 costs the factor (log 3003 / log 3001)^2
    lower = 1.0 / math.log(3001.0)
    assert lower <= rep.constants["tail_remainder"] <= 1.01 * lower


def test_tail_domination_keeps_a_falling_loglog_factor_above_the_tail():
    # weights n^-1 log(2+n)^-2 loglog(e^2+n)^-1, a(n) = n^(1/2), moment power 2: the
    # tail sum past 2000 of 1/(k log(2+k)^2 loglog(e^2+k)) is 0.0470; the remainder
    # took the loglog factor as exp(g2 L) for L^g2 and read 0.0173
    w = sk.power_law_weights(-1.0, sv=SlowlyVarying(log2p=-2.0, loglog=-1.0))
    rep = domination(w, sk.power_law_norms(0.5), theta=1.0, moment_power=2.0, horizon=2000)
    f = lambda u: 1 / (mpmath.log(2 + mpmath.e ** u) ** 2
                       * mpmath.log(mpmath.log(mpmath.e ** 2 + mpmath.e ** u)))
    lower = mpmath.quad(f, [mpmath.log(2001), 20, 100, mpmath.inf])  # x = e^u, f falls
    assert rep.verdict is Verdict.CERTIFIED_FAIL  # q == 1: the ratio grows without bound
    assert 0.0470 < lower <= rep.constants["tail_remainder"] <= 1.5 * lower


def _mp_terms(b, x):
    """f(x) of the TermBound ``b`` in mpmath."""
    x = mpmath.mpf(x)
    v = mpmath.e ** b.log_coef * x ** -b.exponent
    for g, factor in ((b.sv.log2p, lambda: mpmath.log(2 + x)),
                      (b.sv.loglog, lambda: mpmath.log(mpmath.log(mpmath.e ** 2 + x))),
                      (b.sv.logn, lambda: mpmath.log(x))):
        if g:
            v *= factor() ** g
    return v * mpmath.e ** (-b.rate * x ** b.kappa) if b.rate else v


TAIL_FORMS = [
    (sk.TermBound(math.log(3.0), 2.5), 50),
    (sk.TermBound(0.0, 2.0, SlowlyVarying(log2p=1.5)), 100),  # delta > 0
    (sk.TermBound(0.0, 1.0, SlowlyVarying(log2p=-2.0)), 20),  # Bertrand
    (sk.TermBound(0.0, 1.0, SlowlyVarying(logn=-2.5, loglog=-0.5), from_n=2), 10),
    (sk.TermBound(0.0, 1.0, SlowlyVarying(log2p=-3.0, logn=0.5), from_n=2), 10),
    # a falling loglog factor L^g2 is L(start)^g2 at most, not exp(g2 L(start))
    (sk.TermBound(0.0, 1.0, SlowlyVarying(log2p=-3.0, loglog=-0.5)), 10),
    (sk.TermBound(0.0, 1.0, SlowlyVarying(log2p=-2.0, loglog=-1.0)), 2001),
    (sk.TermBound(0.0, 1.0, SlowlyVarying(log2p=-1.5, loglog=-3.0)), 10 ** 6),
    (sk.TermBound(0.0, 1.0, SlowlyVarying(logn=-2.0, loglog=-2.0), from_n=2), 1000),
    (sk.TermBound(0.0, 1.0, SlowlyVarying(log2p=-1.0, logn=-1.5, loglog=-1.0), from_n=2),
     10 ** 6),
    *((sk.TermBound(0.0, e, rate=0.5, kappa=kappa), 5)
      for kappa in (1.0 / 3.0, 1.0, 3.0) for e in (-1.0, 0.0, 1.5)),
]


@pytest.mark.parametrize("bound,start", TAIL_FORMS,
                         ids=["power", "power sv", "bertrand", "bertrand plain log",
                              "bertrand rising plain log", "bertrand loglog",
                              "bertrand loglog at 2001", "bertrand loglog^-3 at 10^6",
                              "bertrand plain log loglog at 1000",
                              "bertrand plain log loglog at 10^6",
                              *(f"kappa={k} e={e}" for k in ("1/3", "1", "3")
                                for e in (-1, 0, 1.5))])
def test_term_bound_tail_is_at_least_an_mpmath_sum(bound, start):
    # head summed term by term, and sum_{n>m} f(n) >= int_{m+1}^inf f for
    # the decreasing f past the head: a lower bound on the true tail
    m = start + 500
    with mpmath.workdps(25):
        head = mpmath.fsum(_mp_terms(bound, n) for n in range(start, m + 1))
        if bound.rate:
            rest = mpmath.quad(lambda x: _mp_terms(bound, x), [m + 1, mpmath.inf])
        else:  # quad in x read such a log-decaying tail 5% low; in u = log x it decays as a power
            u = mpmath.log(m + 1)
            rest = mpmath.quad(lambda v: _mp_terms(bound, mpmath.e ** v) * mpmath.e ** v,
                               [u, u + 10, u + 100, mpmath.inf])
        lower = head + rest
    got = bound.tail_beyond(start - 1)
    assert lower <= got <= 5 * lower
    assert bound.log_tail(start) == pytest.approx(math.log(got), abs=1e-12)


def test_term_bound_tail_is_rounded_up_never_to_zero():
    # exp(-400 n): the tail past n = 200 is about e^-80400, far below doubles
    bound = sk.TermBound(0.0, 0.0, rate=400.0, kappa=1.0)
    assert bound.tail_beyond(200) == 5e-324
    assert -80400.0 - 1e-6 <= bound.log_tail(201) < -80400.0 + 1.0
    # a finite tail past the double range is inf; a divergent one certifies nothing
    assert sk.TermBound(800.0, 2.0).tail_beyond(1) == math.inf
    assert sk.TermBound(0.0, 1.0).log_tail(10) == math.inf


def test_term_bound_tails_at_the_edge_of_the_doubles_are_bounds_not_errors():
    # -e_net / kappa underflowed to 0, and math.log raised: check-conditions
    # with weights.exponent=5e-324 and normalizer.exponent=2 exited 5
    peak = sk.TermBound(0.0, -5e-324, rate=1.0, kappa=19.0, from_n=2)
    assert math.isfinite(peak.log_tail(2))
    # an integral bound whose logs meet as inf - inf, or overflow fsum, bounds nothing
    for rate in (1e-6, 1e-300, 9.0):
        assert sk.TermBound(0.0, 1e308, rate=rate, kappa=2.0, from_n=2).log_tail(2) == math.inf
    assert sk._log_up(1e308, 1e308, -1e308) == sk._log_up(math.inf, -math.inf) == math.inf
    assert sk._log_up(-1e308, -1e308) == -math.inf


def formula_values(bound, n) -> np.ndarray:
    """``values_at`` as the one formula over every n, rate term and exp included."""
    n = np.asarray(n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ln = np.log(n.astype(np.float64))
        v = np.exp(bound.sv.log_values(n) + bound.log_coef - bound.exponent * ln
                   - bound.rate * np.exp(bound.kappa * ln))
    out = np.where(v < sys.float_info.min, 0.0, v) if bound.floor else np.maximum(
        v, sys.float_info.min)
    return np.where(n < bound.from_n, 0.0 if bound.floor else math.inf, out)


@pytest.mark.parametrize("bound", [
    sk.TermBound(-700.0, 2.0, SlowlyVarying(log2p=1.5, loglog=-1.0), from_n=3),
    sk.TermBound(-20.0, -0.5, rate=1.0, kappa=1.0),
    sk.TermBound(5.0, 1.0, SlowlyVarying(logn=-2.0), rate=0.04, kappa=0.5, from_n=2),
    sk.TermBound(-705.0, 0.5, from_n=4, floor=True),
    sk.TermBound(1.0, 1.0, floor=True),
], ids=["envelope rate 0", "envelope rate 1", "envelope kappa 1/2", "floor crossing -709",
        "floor"])
def test_term_bound_values_skip_only_what_cannot_change_them(bound):
    # rate 0 skips rate * n^kappa, and a log below -709 is not exponentiated
    n = np.concatenate((np.arange(1, 5_000), np.geomspace(5_000, 2 ** 52, 2_000).astype(np.int64)))
    assert same_bits(bound.values_at(n), formula_values(bound, n))
    # one n at a time, as a scalar
    some = n[::250]
    assert same_bits(np.array([bound.values_at(int(k)) for k in some]), formula_values(bound, some))


def test_a_term_bound_has_a_rate_exactly_when_it_has_a_kappa():
    for rate, kappa in ((1.0, 0.0), (0.0, 1.0), (0.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="invalid term bound"):
            sk.TermBound(0.0, 2.0, rate=rate, kappa=kappa)


def test_a_term_bound_without_a_coefficient_vanishes_and_floors_nothing():
    bound = sk.TermBound(-math.inf, 0.0, from_n=5, description="zero")
    assert bound.values_at(np.arange(1, 9)).tolist() == [math.inf] * 4 + [0.0] * 4
    assert bound.to_json_dict(7) == {"kind": "vanishing", "params": {"from_n": 5},
                                     "tail_bound": 0.0, "description": "zero"}
    assert bound.tail_beyond(7) == sk.exp_up(-math.inf) == 0.0  # exp(-inf) = 0 is exact
    with pytest.raises(ValueError, match="4..4 unbounded"):
        bound.to_json_dict(3)
    assert bound.divergence() is None
    # such a floor could only print -Infinity
    with pytest.raises(ValueError, match="positive coefficient"):
        sk.TermBound(-math.inf, 0.5, floor=True)


def test_weaker_power_implies_stronger_power():
    # passing with the square power forces passing with the cube power
    cases = [
        (sk.power_law_weights(0.0), sk.power_law_norms(1.0), 2.0),
        (sk.power_law_weights(-1.0), sk.power_law_norms(1.0), 1.0),
        (sk.power_law_weights(1.0), sk.power_law_norms(0.75), 4.0),
    ]
    for w, a, theta in cases:
        two = domination(w, a, theta=theta, moment_power=2.0, horizon=500)
        three = domination(w, a, theta=theta, moment_power=3.0, horizon=500)
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
            rep = domination(w, a, theta=float(theta),
                                           moment_power=3.0, horizon=10_000)
            if rep.verdict is Verdict.CERTIFIED_PASS:
                passed = True
                break
        assert passed, (w.name, a.name)


# ---------------------------------------------------------------------------
# infimum growth
# ---------------------------------------------------------------------------


def test_inf_growth_harmonic_sqrt_certified():
    rep = inf_growth(sk.power_law_weights(-1.0), sk.power_law_norms(0.5),
                              power=3.0, horizon=2000)
    assert rep.verdict is Verdict.CERTIFIED_PASS
    # infimum sits at k=n, so the floor is T_{n-1}/n = (n-1)/n
    assert rep.constants["liminf_estimate"] == pytest.approx(1.0, rel=1e-2)


def test_inf_growth_linear_square_certified():
    rep = inf_growth(sk.power_law_weights(0.0), sk.power_law_norms(1.0),
                              power=2.0, horizon=1000)
    assert rep.verdict is Verdict.CERTIFIED_PASS


def test_inf_growth_collapsing_floor():
    rep = inf_growth(sk.power_law_weights(-2.0), sk.power_law_norms(0.5),
                              power=3.0, horizon=1000)
    assert rep.verdict is Verdict.CERTIFIED_FAIL
    assert rep.constants["liminf_estimate"] < 0.05


def test_inf_growth_empirical_for_custom():
    w = sk.custom_weights(lambda n: 1.0)
    rep = inf_growth(w, sk.power_law_norms(1.0), power=2.0, horizon=200)
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
    # a bounded law's tail vanishes once eps a(n) passes its bound, certified
    # only where the family shows a(n) -> infinity
    w, law = sk.power_law_weights(-1.0), dm.rademacher()
    cert = cv.single_tail_certificate(law, w, sk.power_law_norms(0.5), 0.5, 100)
    assert (cert.log_coef, cert.exponent, cert.from_n) == (-math.inf, 0.0, 5)
    assert cv.single_tail_certificate(law, w, sk.custom_norms(lambda n: float(n)), 0.5, 100) is None


def test_pareto_tail_envelope_starts_at_the_first_normal_cutoff():
    # a subnormal cutoff eps a(n) has lost digits, and the tail formed from it
    # is not the exact term the envelope bounds
    w, a, law = sk.power_law_weights(-1.0), sk.power_law_norms(1.0), dm.pareto_sym(3.0, 1e-320)
    assert 1e-310 * 222 < sys.float_info.min <= 1e-310 * 223
    assert cv.single_tail_certificate(law, w, a, 1e-310, 1000).from_n == 223
    assert cv.single_tail_certificate(law, w, a, 1e-320, 1000) is None
    assert cv.single_tail_certificate(law, w, a, 1e-300, 1000).from_n == 2


def test_report_json_round_trip():
    rep = dyadic(sk.power_law_weights(-1.0))
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
    ks = np.array([start, start + 3, 2 * start, 17 * start])
    values = sv.values(ks)
    up, down = sv.exponent_bound(start), sv.exponent_bound(start, -1.0)
    assert (values <= values[0] * (ks / start) ** up * (1 + 1e-12)).all()
    assert (values >= values[0] * (ks / start) ** down * (1 - 1e-12)).all()


@pytest.mark.parametrize("sv", [SlowlyVarying(log2p=1.0), SlowlyVarying(loglog=-2.5),
                                SlowlyVarying(logn=0.5), SlowlyVarying(1.5, -1.0, 2.0)],
                         ids=["log2p", "loglog", "logn", "all three"])
def test_scalar_log_values_take_the_c_librarys_log_bit_for_bit(sv):
    # numpy's SIMD log differs from the C library's in the last ulp at some
    # doubles, and log sv(n) at one n reaches reports (log_tail, log_coef)
    x = np.random.default_rng(34).uniform(2.0, 1e6, 200_000)
    moved = x[np.log(x) != raw_map(math.log, x)].tolist()
    for n in [*moved, *x[:500].tolist(), 2, 3, 1 << 40]:
        want = 0.0
        if sv.log2p:
            want += sv.log2p * math.log(math.log(2.0 + n))
        if sv.loglog:
            want += sv.loglog * math.log(math.log(math.log(math.e ** 2 + n)))
        if sv.logn:
            want += sv.logn * math.log(math.log(n))
        got = sv.log_values(n, math.log)
        assert type(got) is float and got.hex() == want.hex()


def _family_seq(cls, exponent, sv):
    """A family sequence whose values at n = 1 are taken at n = 2, so that a
    plain-log factor can be evaluated over 1..horizon."""
    fam = sk.PowerLawFamily(exponent, sv=sv)
    return cls(fn=lambda n: fam.values(np.maximum(n, 2)), family=fam)


# (sv, where n^0 sv(n) goes, dyadic verdict of w = sv(n)/n,
#  inf-growth p2 verdicts of (w = sv(n)/n, a = n^1/2) and (w = 1/n, a = n^1/2 sv(n)))
_PASS, _FAIL, _UNDECIDED = Verdict.CERTIFIED_PASS, Verdict.CERTIFIED_FAIL, Verdict.INCONCLUSIVE
EVENTUAL_SIGNS = [
    (SlowlyVarying(), 0, _PASS, _PASS, _PASS),
    (SlowlyVarying(log2p=1.0), 1, _PASS, _PASS, _PASS),
    (SlowlyVarying(logn=-0.5), -1, _UNDECIDED, _FAIL, _FAIL),
    (SlowlyVarying(log2p=0.5, logn=-0.5), 0, _PASS, _PASS, _PASS),
    (SlowlyVarying(log2p=0.5, logn=-0.5, loglog=1.0), 1, _PASS, _PASS, _PASS),
    (SlowlyVarying(log2p=-2.0, logn=2.0, loglog=-1.0), -1, _UNDECIDED, _FAIL, _FAIL),
    (SlowlyVarying(loglog=-2.0), -1, _UNDECIDED, _FAIL, _FAIL),
    (SlowlyVarying(log2p=0.25, loglog=-3.0), 1, _PASS, _PASS, _PASS),
    (SlowlyVarying(log2p=-0.25, loglog=3.0), -1, _UNDECIDED, _FAIL, _FAIL),
]


@pytest.mark.parametrize("sv, sign, dyadic_verdict, w_growth, a_growth", EVENTUAL_SIGNS)
def test_eventual_sign_of_exponent_zero_families(sv, sign, dyadic_verdict, w_growth, a_growth):
    assert sk._eventual_sign(0.0, sv) == sign
    assert sk._eventual_sign(1e-9, sv) == 1 and sk._eventual_sign(-1e-9, sv) == -1
    w, a = _family_seq(sk.WeightSeq, -1.0, sv), sk.power_law_norms(0.5)
    assert dyadic(w, horizon=64).verdict is dyadic_verdict
    assert inf_growth(w, a, power=2.0, horizon=64).verdict is w_growth
    w, a = sk.power_law_weights(-1.0), _family_seq(sk.NormSeq, 0.5, sv)
    assert inf_growth(w, a, power=2.0, horizon=64).verdict is a_growth


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
    want = [1.0 if k == 1 else math.sqrt(k * math.log(k)) for k in range(1, 10 ** 5 + 1)]
    assert spataru_norms().values(np.arange(1, 10 ** 5 + 1)).tolist() == want


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


def _reference_tail_domination_c(w, a, theta, p, horizon, remainder):
    tau = [0.0] + [w(k) for k in range(1, horizon + 1)]
    av = [0.0] + [a(k) for k in range(1, horizon + 1)]
    terms = [0.0] * (horizon + 2)
    for k in range(1, horizon + 1):
        terms[k] = float(k) ** theta * tau[k] / av[k] ** p
    suffix = [0.0] * (horizon + 2)
    suffix_sums = _running_fsum(terms[horizon:0:-1])
    for k in range(horizon, 0, -1):
        suffix[k] = suffix_sums[horizon - k]
    prefix = [0.0] + _running_fsum([k * tau[k] for k in range(1, horizon + 1)])
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
    dom = domination(w, a, theta=theta, moment_power=3.0, horizon=horizon)
    grow = inf_growth(w, a, power=3.0 * theta, horizon=horizon)
    c, argmax, liminf = _reference_tail_domination_c(w, a, theta, 3.0 * theta, horizon, 0.0)
    assert (dom.constants["C"], dom.constants["argmax_n"]) == (c, argmax)
    assert grow.constants["liminf_estimate"] == liminf


def _checked(check, **kwargs):
    w, a = sk.power_law_weights(-1.0), sk.power_law_norms(1.0)
    return check(w, a, sk.sequence_values(w, a, 16), **kwargs)


SEQ_GUARDS = {
    "exponent bound from 1": (lambda: SlowlyVarying(logn=1.0).exponent_bound(1), ValueError,
                              "envelope start must be >= 2"),
    "a term bound with log_coef inf": (lambda: sk.TermBound(math.inf, 1.0), ValueError,
                                       "invalid term bound"),
    "tail domination moment power 0": (
        lambda: _checked(sk.check_tail_domination, moment_power=0.0), ValueError,
        "moment_power must be positive"),
    "inf growth power 0": (lambda: _checked(sk.check_inf_growth, power=0.0), ValueError,
                           "power must be positive"),
}


@pytest.mark.parametrize("case", SEQ_GUARDS)
def test_each_sequence_guard_refuses_with_its_message(case):
    call, exc, match = SEQ_GUARDS[case]
    with pytest.raises(exc, match=match):
        call()
