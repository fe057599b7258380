"""Per-term series evaluation, verdict assembly, and inequality harnesses.

The three term families:

* single-variable tail terms  n * w(n) * P(|X| >= eps * a(n)),
* exponential terms           w(n) * exp(-eps^2 a(n)^2 / (n * T)), with
  T = E[X^2 1{|X| < eps a(n)}] and the convention exp(-t/0) = 0 for t > 0,
* adaptive-exponent terms     n^(-1 - eps^2/T) at the (n log n)^{1/2} cutoff,

plus weighted plug-in terms w(n) * p for an externally estimated or exact
probability p.  With w(n) = 1/n and a(n) = (n log n)^{1/2} the exponential
and adaptive-exponent terms are identical, and the harnesses assert that
numerically.  Each family is computed on arrays of n (``single_tail_terms``,
``exp_terms``, ``adaptive_exponent_terms``); the one-term functions are
their one-point forms.

Verdicts are certificates: a report converges only against a verified
analytic envelope and diverges only against a recurring block floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import distmodel, mcengine
from .distmodel import Dist, truncated_moment
from .reports import (CONVERGES, DIVERGES, UNDETERMINED, ConvergenceBound,
                      DivergenceBound, SeriesReport, SeriesRow, check_partial_sums)
from .seqkit import (NormSeq, WeightSeq, kahan_partials, kahan_sum, libm,
                     require_nondecreasing)

_SQRT2 = math.sqrt(2.0)
_ENVELOPE_SLACK = 1e-9  # relative tolerance when checking computed terms against envelopes


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Absolute error stays below 1e-12 on |x| <= 8 and the relative error on
    the tails is library-erfc quality out to |x| = 38.  The degenerate
    convention is Phi(+inf) = 1, so 1 - Phi(t/0) = 0 for t > 0.
    """
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_tail(x: float) -> float:
    """1 - Phi(x), computed without cancellation."""
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return 0.5 * math.erfc(x / _SQRT2)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def _arrays(*xs) -> tuple:
    return tuple(np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in xs)


def single_tail_terms(d: Dist, w, a, eps: float, n) -> np.ndarray:
    """n * w(n) * P(|X| >= eps * a(n)), where ``w`` and ``a`` hold w(n) and a(n)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    w, a, n = _arrays(w, a, n)
    return n * w * distmodel.tails(d, eps * a)


def exp_terms(d: Dist, w, a, eps: float, n) -> np.ndarray:
    """w(n) * exp(-eps^2 a(n)^2 / (n * T)), zero where T vanishes; ``w`` and ``a``
    hold w(n) and a(n)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    w, a, n = _arrays(w, a, n)
    t = distmodel.truncated_moments(d, 2.0, eps * a)
    out = np.zeros(t.shape)
    on = t != 0.0
    an = a[on]
    out[on] = w[on] * libm(math.exp, -(eps * eps * an * an) / (n[on] * t[on]))
    return out


def adaptive_exponent_terms(d: Dist, eps: float, n) -> np.ndarray:
    """n^(-1 - eps^2/T) with T truncated at eps * (n log n)^{1/2}; zero where T = 0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    (n,) = _arrays(n)
    if (n < 2).any():
        raise ValueError("adaptive-exponent terms start at n = 2")
    t = distmodel.truncated_moments(d, 2.0, eps * np.sqrt(n * libm(math.log, n)))
    out = np.zeros(t.shape)
    on = t != 0.0
    out[on] = libm(pow, n[on], -1.0 - eps * eps / t[on])
    return out


def single_tail_term(d: Dist, w: WeightSeq, a: NormSeq, eps: float, n: int) -> float:
    """n * w(n) * P(|X| >= eps * a(n)), one point of ``single_tail_terms``."""
    return float(single_tail_terms(d, w(n), a(n), eps, n)[0])


def exp_term(d: Dist, w: WeightSeq, a: NormSeq, eps: float, n: int) -> float:
    """w(n) * exp(-eps^2 a(n)^2 / (n * T)), one point of ``exp_terms``."""
    return float(exp_terms(d, w(n), a(n), eps, n)[0])


def adaptive_exponent_term(d: Dist, eps: float, n: int) -> float:
    """n^(-1 - eps^2/T), one point of ``adaptive_exponent_terms``."""
    return float(adaptive_exponent_terms(d, eps, n)[0])


def weighted_term(w: WeightSeq, n: int, p_est: float) -> float:
    """w(n) * p for an externally supplied probability p."""
    if not 0.0 <= p_est <= 1.0:
        raise ValueError("p_est must lie in [0, 1]")
    return w(n) * p_est


# ---------------------------------------------------------------------------
# Envelopes and verdicts
# ---------------------------------------------------------------------------


def _from(n, from_n: int, before: float, bound) -> np.ndarray:
    """bound(n) for the n >= from_n, ``before`` for the n below."""
    n = np.asarray(n)
    out = np.full(n.shape, before)
    on = n >= from_n
    out[on] = bound(n[on])
    return out


@dataclass(frozen=True)
class PowerEnvelope:
    """terms(n) <= coef * n^(-exponent) for n >= from_n, with exponent > 1."""

    coef: float
    exponent: float
    from_n: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.exponent <= 1.0:
            raise ValueError("a power envelope needs exponent > 1")
        if self.coef < 0.0:
            raise ValueError("envelope coefficient must be nonnegative")

    def values_at(self, n: np.ndarray) -> np.ndarray:
        return _from(n, self.from_n, math.inf, lambda k: self.coef * libm(pow, k, -self.exponent))

    def tail_beyond(self, last_n: int) -> float:
        start = max(last_n + 1, self.from_n)
        q = self.exponent
        return self.coef * (float(start) ** -q + float(start) ** (1.0 - q) / (q - 1.0))

    def as_bound(self, last_n: int) -> ConvergenceBound:
        return ConvergenceBound(
            kind="power", params={"coef": self.coef, "exponent": self.exponent,
                                  "from_n": self.from_n},
            tail_bound=self.tail_beyond(last_n),
            description=self.description or
            f"terms <= {self.coef:g} n^-{self.exponent:g} beyond n={self.from_n}")


@dataclass(frozen=True)
class GeometricEnvelope:
    """terms(n) <= coef * ratio^n for n >= from_n, with ratio < 1."""

    coef: float
    ratio: float
    from_n: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("a geometric envelope needs 0 < ratio < 1")
        if self.coef < 0.0:
            raise ValueError("envelope coefficient must be nonnegative")

    def values_at(self, n: np.ndarray) -> np.ndarray:
        return _from(n, self.from_n, math.inf, lambda k: self.coef * libm(pow, self.ratio, k))

    def tail_beyond(self, last_n: int) -> float:
        start = max(last_n + 1, self.from_n)
        return self.coef * self.ratio ** start / (1.0 - self.ratio)

    def as_bound(self, last_n: int) -> ConvergenceBound:
        return ConvergenceBound(
            kind="geometric", params={"coef": self.coef, "ratio": self.ratio,
                                      "from_n": self.from_n},
            tail_bound=self.tail_beyond(last_n),
            description=self.description or
            f"terms <= {self.coef:g} * {self.ratio:g}^n beyond n={self.from_n}")


@dataclass(frozen=True)
class VanishingEnvelope:
    """terms(n) provably 0 for every n >= from_n (e.g. bounded support)."""

    from_n: int
    description: str = ""

    def values_at(self, n: np.ndarray) -> np.ndarray:
        return _from(n, self.from_n, math.inf, np.zeros_like)

    def tail_beyond(self, last_n: int) -> float:
        return 0.0

    def as_bound(self, last_n: int) -> ConvergenceBound:
        return ConvergenceBound(kind="vanishing", params={"from_n": self.from_n},
                                tail_bound=0.0,
                                description=self.description or
                                f"terms vanish for every n >= {self.from_n}")


@dataclass(frozen=True)
class PowerLowerBound:
    """terms(n) >= coef * n^(-exponent) for n >= from_n, with exponent <= 1.

    Dyadic blocks [2^j, 2^{j+1}) then each contribute at least
    coef * 2^(-exponent), a fixed positive floor recurring forever.
    """

    coef: float
    exponent: float
    from_n: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.exponent > 1.0:
            raise ValueError("a divergence floor needs exponent <= 1")
        if self.coef <= 0.0:
            raise ValueError("floor coefficient must be positive")

    def floors_at(self, n: np.ndarray) -> np.ndarray:
        return _from(n, self.from_n, 0.0, lambda k: self.coef * libm(pow, k, -self.exponent))

    @property
    def block_floor(self) -> float:
        return self.coef * 2.0 ** (-self.exponent)

    def as_bound(self) -> DivergenceBound:
        return DivergenceBound(
            kind="power-floor", params={"coef": self.coef, "exponent": self.exponent,
                                        "from_n": self.from_n},
            block_floor=self.block_floor,
            description=self.description or
            f"terms >= {self.coef:g} n^-{self.exponent:g} beyond n={self.from_n}; "
            "every dyadic block clears a fixed floor")


@dataclass(frozen=True)
class RecurringBlocks:
    """Externally certified blocks, each with sum >= floor, recurring forever."""

    floor: float
    blocks: tuple
    description: str

    def as_bound(self) -> DivergenceBound:
        return DivergenceBound(kind="recurring-blocks",
                               params={"count": len(self.blocks)},
                               block_floor=self.floor, description=self.description)


def summarize_series(series_id: str, n, term, params: Optional[dict] = None,
                     envelope=None, divergence=None, evidence: tuple[str, ...] = (),
                     emit=None) -> SeriesReport:
    """Assemble a report from the columns ``n`` and ``term``, checking any
    certificate against every term.

    All terms must be nonnegative.  Partial sums are compensated and summed
    left to right, so reports are bit-reproducible.  ``emit`` (a boolean mask
    or index array over the terms) picks the rows the report carries; every
    term is still checked and summed.
    """
    n = np.asarray(n, dtype=np.int64)
    term = np.asarray(term, dtype=np.float64)
    negative = ~(term >= 0.0)
    over = under = np.zeros(term.shape, dtype=bool)
    if envelope is not None:
        bound = envelope.values_at(n)
        over = term > bound * (1.0 + _ENVELOPE_SLACK)
    if isinstance(divergence, PowerLowerBound):
        floor = divergence.floors_at(n)
        under = (n >= divergence.from_n) & (term < floor * (1.0 - _ENVELOPE_SLACK))
    bad = np.flatnonzero(negative | over | under)
    if bad.size:
        i = bad[0]
        k, t = int(n[i]), float(term[i])
        if negative[i]:
            raise ValueError(f"series terms must be nonnegative, got {t!r} at n={k}")
        if over[i]:
            raise ValueError(f"registered envelope violated at n={k}: term {t!r} "
                             f"exceeds {float(bound[i])!r}")
        raise ValueError(f"registered divergence floor violated at n={k}: term {t!r} "
                         f"below {float(floor[i])!r}")
    partial = kahan_partials(term)
    check_partial_sums(n, term, partial)
    keep = slice(None) if emit is None else emit
    rows = tuple(SeriesRow(n=k, term=t, partial_sum=ps) for k, t, ps in
                 zip(n[keep].tolist(), term[keep].tolist(), partial[keep].tolist()))
    last_n = int(n[-1]) if n.size else 0
    if envelope is not None and divergence is not None:
        raise ValueError("a series cannot carry both certificates")
    if envelope is not None:
        return SeriesReport(series_id, dict(params or {}), rows, CONVERGES,
                            tail_bound=envelope.as_bound(last_n), evidence=evidence)
    if divergence is not None:
        return SeriesReport(series_id, dict(params or {}), rows, DIVERGES,
                            divergence=divergence.as_bound(), evidence=evidence)
    return SeriesReport(series_id, dict(params or {}), rows, UNDETERMINED,
                        evidence=evidence)


# ---------------------------------------------------------------------------
# Inequality harnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationReport:
    """Both sides of the truncated-moment domination inequality.

    ``lhs`` sums rho(n) E[|X|^t 1{b(1) <= |X| < b(n)}] and ``rhs`` is
    C * sum n w(n) P(|X| >= b(n)); ``passed`` compares only these two.
    ``bottom`` is sum rho(n) E[|X|^t 1{|X| < b(1)}], the mass below the
    first cutoff, which the hypothesis cannot control: it is reported so
    that it is not silently dropped, but it is not bounded.
    """

    lhs: float
    rhs: float
    bottom: float
    constant: float
    passed: bool
    argmax_n: int


def check_truncated_moment_domination(d: Dist, w: WeightSeq, rho: dict,
                                      b: NormSeq, t: float,
                                      horizon: int) -> DominationReport:
    """Layer-cake inequality with the minimal hypothesis constant.

    Given rho supported in [1, horizon] and T_m = sum_{k<=m} k w(k), let C
    be the smallest constant with

        b(n)^t * sum_{k>=n} rho(k) <= C * T_{n-1}   for every n in [2, horizon].

    Then, with all sums over n in [1, horizon],

        sum rho(n) E[|X|^t 1{b(1) <= |X| < b(n)}] <= C * sum n w(n) P(|X| >= b(n)).

    Proof outline: split {b(1) <= |X| < b(n)} into the layers
    L_j = {b(j) <= |X| < b(j+1)}, j < n; on L_j, |X|^t < b(j+1)^t and the
    hypothesis at n = j+1 bound the contribution by C * T_j * P(L_j), and
    sum_j T_j P(L_j) <= sum_k k w(k) P(|X| >= b(k)).

    The bottom layer {|X| < b(1)} would need the hypothesis at n = 1, which
    reads b(1)^t * sum rho <= C * 0, so it is left out of the inequality and
    reported on its own as ``bottom``.
    """
    if any(k > horizon for k in rho):
        raise ValueError("rho has support beyond the horizon")
    if any(v < 0 for v in rho.values()):
        raise ValueError("rho must be nonnegative")
    ns = np.arange(1, horizon + 1)
    bv = b.values(ns)
    require_nondecreasing(bv)
    wv = w.values(ns)
    rv = np.array([rho.get(n, 0.0) for n in range(1, horizon + 1)], dtype=np.float64)

    suffix = kahan_partials(rv[::-1])[::-1]
    prefix = kahan_partials(ns * wv)
    c_min, argmax = 0.0, 0
    for n in range(2, horizon + 1):
        num = float(bv[n - 1]) ** t * float(suffix[n - 1])
        if num == 0.0:
            continue
        if prefix[n - 2] <= 0.0:
            c_min, argmax = math.inf, n
            break
        ratio = num / float(prefix[n - 2])
        if ratio > c_min:
            c_min, argmax = ratio, n

    # Both moments come from the same formula over the same nonnegative terms
    # in the same order, so the difference is exactly 0, never negative, when
    # no mass lies in [b(1), b(n)).
    moments = distmodel.truncated_moments(d, t, bv)
    below_first = float(moments[0])
    lhs = kahan_sum(rv * (moments - below_first))
    bottom = below_first * kahan_sum(list(rho.values()))
    rhs_sum = kahan_sum(ns * wv * distmodel.tails(d, bv))
    rhs = c_min * rhs_sum
    passed = lhs <= rhs * (1.0 + 1e-12) or lhs == rhs == 0.0
    return DominationReport(lhs=lhs, rhs=rhs, bottom=bottom, constant=c_min,
                            passed=passed, argmax_n=argmax)


def power_comparison_polynomial(r: int, x: float, y: float) -> float:
    """p_r(x, y) with x^r - (x - y)^r = y * p_r(x, y)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    return sum(math.comb(r, j) * (-1.0) ** (j + 1) * x ** (r - j) * y ** (j - 1)
               for j in range(1, r + 1))


def power_comparison_constant(r: int) -> float:
    """max of p_r over the unit square, which is exactly r.

    By the mean value theorem x^r - (x - y)^r = r * y * xi^(r-1) for some xi
    between x - y and x, and |xi| <= 1 on the unit square, so p_r <= r.  The
    bound is attained at (1, 0), where p_r(1, 0) = r.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    return float(r)


@dataclass(frozen=True)
class ComparisonReport:
    lhs: float
    rhs: float
    constant: float
    r: int
    passed: bool


def check_power_comparison(alpha: Sequence[float], beta: Sequence[float],
                           w: WeightSeq, r: int, horizon: int,
                           c_r: Optional[float] = None) -> ComparisonReport:
    """Quantitative comparison: sum w a^r <= sum w |a-b|^r + c_r sum w b."""
    if len(alpha) < horizon or len(beta) < horizon:
        raise ValueError("sequences shorter than the horizon")
    for s in (alpha, beta):
        if any(not 0.0 <= v <= 1.0 for v in s[:horizon]):
            raise ValueError("sequences must live in [0, 1]")
    if c_r is None:
        c_r = power_comparison_constant(r)
    tau = w.values(np.arange(1, horizon + 1)).tolist()
    lhs = kahan_sum(tau[n] * alpha[n] ** r for n in range(horizon))
    rhs = (kahan_sum(tau[n] * abs(alpha[n] - beta[n]) ** r for n in range(horizon))
           + c_r * kahan_sum(tau[n] * beta[n] for n in range(horizon)))
    return ComparisonReport(lhs=lhs, rhs=rhs, constant=c_r, r=r,
                            passed=lhs <= rhs * (1.0 + 1e-12) + 1e-300)


@dataclass(frozen=True)
class TruncatedMomentSeries:
    report: SeriesReport
    expected_finite: Optional[bool]  # None when hypotheses were not certified


def truncated_moment_series(d: Dist, w: WeightSeq, b: NormSeq, nu: float,
                            theta: float, horizon: int) -> TruncatedMomentSeries:
    """Partial sums of w(n) * (n E[|X|^nu 1{|X| < b(n)}] / b(n)^nu)^theta.

    The finiteness flag is attached only when the tail-domination and
    infimum-growth hypotheses certify and the single-variable tail series is
    itself summable on the horizon; otherwise the flag stays None.
    """
    from .seqkit import check_inf_growth, check_tail_domination, sequence_values
    values = sequence_values(w, b, horizon)
    wv, bv = values.w, values.a
    dom = check_tail_domination(w, b, theta=theta, moment_power=nu, horizon=horizon,
                                values=values)
    grow = check_inf_growth(w, b, power=nu, horizon=horizon, values=values)

    ns = np.arange(1, horizon + 1)
    m = distmodel.truncated_moments(d, nu, bv)
    terms = wv * libm(pow, ns * m / libm(pow, bv, nu), theta)
    report = summarize_series(
        "truncated-moment-series",
        ns, terms,
        params={"nu": nu, "theta": theta, "weights": w.name, "normalizer": b.name},
        evidence=(f"tail domination: {dom.verdict.value}",
                  f"infimum growth: {grow.verdict.value}"))
    certified = (dom.verdict.value == "CertifiedPass"
                 and grow.verdict.value == "CertifiedPass")
    if not certified:
        return TruncatedMomentSeries(report=report, expected_finite=None)
    crit = kahan_sum(ns * wv * distmodel.tails(d, bv))
    return TruncatedMomentSeries(report=report, expected_finite=math.isfinite(crit))


# ---------------------------------------------------------------------------
# Normal-approximation gap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalApproxGap:
    """Distance of an exact/estimated tail from the two-sided normal tail.

    rhs_core is the scaled truncated third moment n E|X_trunc|^3/(g*eps*a_n)^3;
    the implied constant is the ratio gap/rhs_core measured on this instance.
    """

    n: int
    gamma: float
    eps: float
    x: float
    lhs_gap: float
    rhs_core: float
    implied_constant: float


def normal_approx_gap(d: Dist, a: NormSeq, eps: float, gamma: float, n: int,
                      p_est: float) -> NormalApproxGap:
    """Gap |p_est - 2(1 - Phi(x))| with x = gamma*eps*a(n)/sqrt(n*T).

    p_est must refer to the truncated walk at cutoff eps*a(n); only
    symmetric distributions are accepted because the mean-zero reduction
    relies on symmetry.
    """
    if not d.symmetric:
        raise ValueError("normal-approximation gap requires a symmetric distribution")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0.0 <= p_est <= 1.0:
        raise ValueError("p_est must lie in [0, 1]")
    an = a(n)
    t2 = truncated_moment(d, 2.0, eps * an).value
    x = math.inf if t2 == 0.0 else gamma * eps * an / math.sqrt(n * t2)
    normal_two_sided = 0.0 if math.isinf(x) else 2.0 * std_normal_tail(x)
    gap = abs(p_est - normal_two_sided)
    t3 = truncated_moment(d, 3.0, eps * an).value
    core = n * t3 / (gamma * eps * an) ** 3
    implied = gap / core if core > 0.0 else 0.0
    return NormalApproxGap(n=n, gamma=gamma, eps=eps, x=x, lhs_gap=gap,
                           rhs_core=core, implied_constant=implied)


# ---------------------------------------------------------------------------
# Hoffman-Jorgensen constant probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HJProbeRow:
    lam: float
    p_full: float
    p_single: float
    p_contracted: float
    min_d_given_c1: float
    min_c_given_d1: float


@dataclass(frozen=True)
class HJProbeReport:
    r: int
    n: int
    rows: tuple[HJProbeRow, ...]
    min_d_given_c1: float
    min_c_given_d1: float


def hj_constant_probe(d: Dist, r: int, n: int, lambdas: Sequence[float]) -> HJProbeReport:
    """Measure the constants in P(|S_n|>=l) <= C n P(|X|>=l/2r) + D P(|S_n|>=l/2r)^r.

    The inequality is cited with unspecified constants; this probe reports
    the smallest D making it hold with C = 1 (and vice versa) over the grid,
    using the exact walk oracle on both sides.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if n > mcengine.MAX_MAXIMAL_N * 64:
        raise ValueError("probe limited to oracle-sized walks")
    oracle = mcengine.exact_walk_oracle(d, n)
    rows = []
    worst_d, worst_c = 0.0, 0.0
    for lam in lambdas:
        p_full = mcengine.exact_tail(oracle, lam)
        cut = lam / (2.0 * r)
        p_single = distmodel.tail(d, cut)
        p_contracted = mcengine.exact_tail(oracle, cut)
        num_d = p_full - 1.0 * n * p_single
        if num_d <= 0.0:
            min_d = 0.0
        elif p_contracted > 0.0:
            min_d = num_d / p_contracted ** r
        else:
            min_d = math.inf
        num_c = p_full - 1.0 * p_contracted ** r
        min_c = max(0.0, num_c / (n * p_single)) if p_single > 0.0 else (
            0.0 if num_c <= 0.0 else math.inf)
        rows.append(HJProbeRow(lam=lam, p_full=p_full, p_single=p_single,
                               p_contracted=p_contracted, min_d_given_c1=min_d,
                               min_c_given_d1=min_c))
        worst_d = max(worst_d, min_d)
        worst_c = max(worst_c, min_c)
    return HJProbeReport(r=r, n=n, rows=tuple(rows),
                         min_d_given_c1=worst_d, min_c_given_d1=worst_c)
