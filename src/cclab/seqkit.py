"""Weight and normalizer sequences with certified regularity checks.

A weight sequence w(n) >= 0 and an increasing positive normalizer a(n) enter
every series this package evaluates.  This module certifies (or measures) the
growth and domination conditions the convergence machinery relies on:

* dyadic regularity of the weights: the sufficient criteria under which
  summability of w(n)*min(n*c_n, 1) forces summability of w(n)*n*c_n for
  every positive decreasing c,
* tail domination: a(n)^{p*theta}/n^{theta-1} * sum_{k>=n} k^theta w(k)
  / a(k)^{p*theta} <= C * T_{n-1}, where T_k = sum_{j<=k} j*w(j),
* an infimum growth floor: liminf_n inf_{k>=n} a(k)^p/(k*a(n)^p) * T_{n-1} > 0.

Power-law families with slowly varying factors carry closed-form tail
envelopes derived from the Karamata integral comparison, so their verdicts
are certified.  Everything else is reported empirically over the horizon and
never as a false certificate.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

DEFAULT_HORIZON = 10_000

_LN2 = math.log(2.0)
_E2 = math.e ** 2


class Verdict(str, Enum):
    CERTIFIED_PASS = "CertifiedPass"
    CERTIFIED_FAIL = "CertifiedFail"
    EMPIRICAL_PASS = "EmpiricalPass"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of one sequence-regularity check.

    Certified verdicts are only issued when an analytic family bound was
    available; empirical verdicts carry the horizon they were measured on.
    """

    condition_id: str
    verdict: Verdict
    constants: dict
    horizon: int
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "verdict": self.verdict.value,
            "constants": dict(self.constants),
            "horizon": self.horizon,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Array arithmetic that reproduces the scalar formulas bit for bit
# ---------------------------------------------------------------------------


def libm(fn, *args) -> np.ndarray:
    """fn(*args) elementwise over Python floats; scalar arguments broadcast.

    Arithmetic (+ - * /, sqrt) is correctly rounded, so NumPy gives the same
    bits as Python.  Powers, logs, exponentials and erfc are not: NumPy's
    vectorised versions differ from the math library in the last ulp on up
    to a few per cent of points, and at a tail's discontinuity one ulp flips
    a term.  Every transcendental behind a report therefore goes through
    here, computing exactly what the one-point formula computes.
    """
    cols, size = [], 0
    for a in args:
        if np.ndim(a) == 0:
            cols.append(repeat(float(a)))
        else:
            a = np.asarray(a, dtype=np.float64)
            size = a.size
            cols.append(memoryview(a))  # yields Python floats without a list
    return np.fromiter(map(fn, *cols), np.float64, count=size)


def kahan_partials(values) -> np.ndarray:
    """Compensated running sums of ``values``, reduced left to right.

    The one compensated loop of the package: every partial sum a report
    shows comes from here, so its reduction order, and so its bytes, is fixed.
    ``values`` is an array or a sequence; the loop reads and writes doubles
    in place, so it holds no list of Python floats.
    """
    total = comp = 0.0
    out = array("d")
    append = out.append
    for v in memoryview(np.asarray(values, dtype=np.float64)):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        append(t)
    return np.frombuffer(out, dtype=np.float64)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlowlyVarying:
    """Product (log(2+n))^log2p * (loglog(e^2+n))^loglog * (log n)^logn.

    The plain-log factor requires n >= 2 and exists so that normalizers like
    (n log n)^{1/2} are exactly representable as a family.
    """

    log2p: float = 0.0
    loglog: float = 0.0
    logn: float = 0.0

    def values(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=np.float64)
        out = np.ones(n.shape)
        if self.log2p:
            out *= libm(lambda x: math.log(2.0 + x) ** self.log2p, n)
        if self.loglog:
            out *= libm(lambda x: math.log(math.log(_E2 + x)) ** self.loglog, n)
        if self.logn:
            if (n < 2).any():
                raise ValueError("plain-log slowly varying factor needs n >= 2")
            out *= libm(lambda x: math.log(x) ** self.logn, n)
        return out

    def value(self, n: float) -> float:
        return float(self.values(np.array([n]))[0])

    def is_trivial(self) -> bool:
        return self.log2p == 0.0 and self.loglog == 0.0 and self.logn == 0.0

    def first_sign(self) -> int:
        """Sign of the dominant factor's exponent as n -> infinity."""
        primary = self.log2p + self.logn
        if primary:
            return 1 if primary > 0 else -1
        if self.loglog:
            return 1 if self.loglog > 0 else -1
        return 0

    def growth_exponent_bound(self, start: int) -> float:
        """delta such that value(k) <= value(start) * (k/start)^delta, k >= start.

        Each increasing factor f(k)^g with g > 0 satisfies
        f(k)^g <= f(start)^g * (k/start)^{g * sup_{k>=start} k (log f)'(k)};
        decreasing factors are simply bounded by their value at start.
        """
        if start < 2:
            raise ValueError("envelope start must be >= 2")
        delta = 0.0
        if self.log2p > 0:
            delta += self.log2p / math.log(2.0 + start)
        if self.loglog > 0:
            delta += self.loglog / (math.log(_E2 + start) * math.log(math.log(_E2 + start)))
        if self.logn > 0:
            delta += self.logn / math.log(start)
        return delta

    def decay_exponent_bound(self, start: int) -> float:
        """delta such that value(k) >= value(start) * (k/start)^(-delta), k >= start."""
        if start < 2:
            raise ValueError("envelope start must be >= 2")
        delta = 0.0
        if self.log2p < 0:
            delta += -self.log2p / math.log(2.0 + start)
        if self.loglog < 0:
            delta += -self.loglog / (math.log(_E2 + start) * math.log(math.log(_E2 + start)))
        if self.logn < 0:
            delta += -self.logn / math.log(start)
        return delta

    def combine(self, other: "SlowlyVarying", other_power: float) -> "SlowlyVarying":
        return SlowlyVarying(
            log2p=self.log2p + other_power * other.log2p,
            loglog=self.loglog + other_power * other.loglog,
            logn=self.logn + other_power * other.logn,
        )


@dataclass(frozen=True)
class PowerLawFamily:
    """coef * n^exponent * sv(n), the analytic shape behind certified bounds."""

    exponent: float
    coef: float = 1.0
    sv: SlowlyVarying = field(default_factory=SlowlyVarying)

    def values(self, n: np.ndarray) -> np.ndarray:
        return self.coef * libm(pow, n, self.exponent) * self.sv.values(n)

    def value(self, n: int) -> float:
        return float(self.values(np.array([n]))[0])


def _evaluate(seq, n, what: str, ok, bad: str) -> np.ndarray:
    """seq.fn over the indices ``n``, validated once: in closed form when fn is
    the family's own formula, otherwise one call per index.  The first value
    failing ``ok`` raises ``bad`` formatted with its n and value."""
    n = np.asarray(n)
    if n.size and n.min() < 1:
        raise ValueError(f"{what} index must be >= 1")
    if seq.family is not None and seq.fn == seq.family.value:
        v = seq.family.values(n)
    else:
        v = np.fromiter((float(seq.fn(k)) for k in memoryview(n)), np.float64, count=n.size)
    fails = np.flatnonzero(~(np.isfinite(v) & ok(v)))
    if fails.size:
        i = fails[0]
        raise ValueError(bad.format(n=n.tolist()[i], v=float(v[i])))
    return v


@dataclass(frozen=True)
class WeightSeq:
    """Nonnegative weights w(n); family metadata enables certified verdicts.

    ``tail_bound(start, g)``, when provided on a custom sequence, must return
    a certified upper bound on sum_{k>=start} g(k) * w(k).
    """

    fn: Callable[[int], float]
    name: str = "custom"
    family: Optional[PowerLawFamily] = None
    tail_bound: Optional[Callable[[int, Callable[[int], float]], float]] = None

    def values(self, n: np.ndarray) -> np.ndarray:
        """w over an array of indices."""
        return _evaluate(self, n, "weight", lambda v: v >= 0.0,
                         "weight w({n}) = {v!r} is not a finite nonnegative real")

    def __call__(self, n: int) -> float:
        return float(self.values(np.array([n]))[0])


@dataclass(frozen=True)
class NormSeq:
    """Strictly positive normalizer a(n); increasing on every queried range."""

    fn: Callable[[int], float]
    name: str = "custom"
    family: Optional[PowerLawFamily] = None

    def values(self, n: np.ndarray) -> np.ndarray:
        """a over an array of indices."""
        return _evaluate(self, n, "normalizer", lambda v: v > 0.0,
                         "normalizer a({n}) = {v!r} is not a finite positive real")

    def __call__(self, n: int) -> float:
        return float(self.values(np.array([n]))[0])

    def tends_to_infinity(self) -> Optional[bool]:
        """True when certified by the family (positive exponent); None if unknown."""
        if self.family is None:
            return None
        if self.family.exponent > 0:
            return True
        if self.family.exponent < 0:
            return False
        return None


def require_nondecreasing(a: np.ndarray) -> None:
    """Raise at the first n with a(n) < a(n-1); ``a`` holds a(1), a(2), ..."""
    down = np.flatnonzero(a[1:] < a[:-1])
    if down.size:
        k = int(down[0])
        raise ValueError(f"normalizer decreases at n={k + 2}: "
                         f"{float(a[k])} -> {float(a[k + 1])}")


class SequenceValues(NamedTuple):
    """w(n), a(n) and T_n = sum_{k<=n} k w(k) for n = 1..horizon."""

    w: np.ndarray
    a: np.ndarray
    t: np.ndarray


def sequence_values(w: WeightSeq, a: NormSeq, horizon: int) -> SequenceValues:
    """The arrays every check over 1..horizon reads, evaluated once."""
    n = np.arange(1, horizon + 1)
    av = a.values(n)
    wv = w.values(n)
    return SequenceValues(wv, av, kahan_partials(n * wv))


def power_law_weights(exponent: float, coef: float = 1.0,
                      sv: SlowlyVarying = SlowlyVarying(),
                      name: Optional[str] = None) -> WeightSeq:
    fam = PowerLawFamily(exponent=exponent, coef=coef, sv=sv)
    return WeightSeq(fn=fam.value, name=name or f"n^{exponent:g}", family=fam)


def power_law_norms(exponent: float, coef: float = 1.0,
                    sv: SlowlyVarying = SlowlyVarying(),
                    name: Optional[str] = None) -> NormSeq:
    fam = PowerLawFamily(exponent=exponent, coef=coef, sv=sv)
    return NormSeq(fn=fam.value, name=name or f"n^{exponent:g}", family=fam)


def custom_weights(fn: Callable[[int], float], name: str = "custom",
                   tail_bound=None) -> WeightSeq:
    return WeightSeq(fn=fn, name=name, family=None, tail_bound=tail_bound)


def custom_norms(fn: Callable[[int], float], name: str = "custom") -> NormSeq:
    return NormSeq(fn=fn, name=name, family=None)


# ---------------------------------------------------------------------------
# Certified tail assessment for k^{-q} * sv(k) shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailAssessment:
    kind: str               # "finite" | "diverges" | "unknown"
    bound: Optional[float]  # valid when kind == "finite": sum_{k>=start} <= bound
    reason: str


def certified_power_tail(coef: float, q: float, sv: SlowlyVarying,
                         start: int) -> TailAssessment:
    """Assess sum_{k>=start} coef * k^{-q} * sv(k) with certified constants."""
    if coef == 0.0:
        return TailAssessment("finite", 0.0, "zero coefficient")
    if coef < 0.0:
        raise ValueError("tail coefficient must be nonnegative")
    if q > 1.0:
        delta = sv.growth_exponent_bound(start)
        if q - delta <= 1.0:
            return TailAssessment(
                "unknown", None,
                f"slowly varying envelope exponent {delta:.3g} too large for q={q:.3g} at start={start}")
        head = sv.value(start) * start ** (-q)
        bound = coef * head * (1.0 + start / (q - delta - 1.0))
        return TailAssessment("finite", bound,
                              f"integral comparison with envelope exponent {delta:.3g}")
    if q < 1.0:
        delta = sv.decay_exponent_bound(start)
        if q + delta < 1.0:
            return TailAssessment("diverges", None,
                                  f"terms >= c * k^{-(q + delta):.3g} with exponent < 1")
        return TailAssessment("unknown", None,
                              "q < 1 but decay envelope too weak at this start")
    # q == 1: driven by the logarithmic factors.
    if sv.logn != 0.0:
        return TailAssessment("unknown", None,
                              "q == 1 with a plain-log factor is out of certified scope")
    g1, g2 = sv.log2p, sv.loglog
    if g1 > -1.0:
        return TailAssessment("diverges", None, "q == 1 with log exponent > -1")
    if g1 == -1.0:
        if g2 >= -1.0:
            return TailAssessment("diverges", None,
                                  "q == 1, log exponent -1, loglog exponent >= -1")
        return TailAssessment("unknown", None, "iterated-log boundary not certified")
    if g2 > 0.0:
        return TailAssessment("unknown", None,
                              "q == 1 with increasing loglog factor not certified")
    # g1 < -1, g2 <= 0: sum_{k>=N} k^-1 log(2+k)^{g1} loglog(...)^{g2}
    ll = math.log(math.log(_E2 + start)) ** g2 if g2 else 1.0
    peel = start ** -1.0 * math.log(2.0 + start) ** g1
    integral = ((2.0 + start) / start) * math.log(2.0 + start) ** (g1 + 1.0) / (-g1 - 1.0)
    return TailAssessment("finite", coef * ll * (peel + integral),
                          "logarithmic integral comparison")


def _combined_tail_shape(w: WeightSeq, a: NormSeq, theta: float,
                         moment_power: float):
    """Shape (coef, q, sv) of k^theta * w(k) / a(k)^{moment_power*theta}."""
    if w.family is None or a.family is None:
        return None
    p = moment_power * theta
    wf, af = w.family, a.family
    coef = wf.coef * af.coef ** (-p)
    q = p * af.exponent - theta - wf.exponent
    sv = wf.sv.combine(af.sv, -p)
    return coef, q, sv


# ---------------------------------------------------------------------------
# Symbolic liminf helpers for power-law families
# ---------------------------------------------------------------------------


def _liminf_sign(exponent: float, sv: SlowlyVarying) -> int:
    """Sign of liminf of n^exponent * sv(n): 1 positive, -1 zero limit, 0 constant."""
    if exponent > 0:
        return 1
    if exponent < 0:
        return -1
    s = sv.first_sign()
    if s > 0:
        return 1
    if s < 0:
        return -1
    return 0


def liminf_n_weights_positive(family: PowerLawFamily) -> bool:
    return _liminf_sign(1.0 + family.exponent, family.sv) >= 0


def liminf_weights_positive(family: PowerLawFamily) -> bool:
    return _liminf_sign(family.exponent, family.sv) >= 0


def _dyadic_family_constant(family: PowerLawFamily) -> float:
    """Closed-form constant for the dyadic sandwich of a power-law family."""
    c = 2.0 ** abs(family.exponent)
    sv = family.sv
    if sv.log2p:
        c *= (math.log(4.0) / math.log(3.0)) ** abs(sv.log2p)
    if sv.loglog:
        ratios = (math.log(math.log(_E2 + 2.0 ** j)) /
                  math.log(math.log(_E2 + 2.0 ** (j - 1))) for j in range(1, 65))
        c *= max(ratios) ** abs(sv.loglog)
    if sv.logn:
        c *= 2.0 ** abs(sv.logn)
    return c


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_dyadic_regularity(w: WeightSeq, horizon: int = DEFAULT_HORIZON) -> RegularityReport:
    """Sufficient criteria for the weight-closure property.

    Passes when either liminf w(n) > 0, or both liminf n*w(n) > 0 and the
    dyadic sandwich C*w(2^{j-1}) >= w(k) >= w(2^j)/C holds with a finite C
    over every dyadic block.  Failing both criteria is Inconclusive: the
    closure property itself may still hold.
    """
    if horizon < 4:
        raise ValueError("horizon must be >= 4")
    cid = "weight-dyadic-criteria"
    if w.family is not None:
        fam = w.family
        if liminf_weights_positive(fam):
            return RegularityReport(cid, Verdict.CERTIFIED_PASS,
                                    {"route": 1.0}, horizon,
                                    ("liminf of the weights is positive (family closed form)",))
        if liminf_n_weights_positive(fam):
            c = _dyadic_family_constant(fam)
            return RegularityReport(cid, Verdict.CERTIFIED_PASS,
                                    {"route": 2.0, "dyadic_C": c}, horizon,
                                    ("liminf n*w(n) positive and dyadic sandwich, family closed form",))
        return RegularityReport(cid, Verdict.INCONCLUSIVE, {}, horizon,
                                ("both sufficient criteria fail analytically; "
                                 "the closure property itself is undecided",))
    # empirical route
    tau = [0.0] + w.values(np.arange(1, horizon + 1)).tolist()
    half = horizon // 2
    liminf_tau = min(tau[half:horizon + 1])
    liminf_ntau = min(k * tau[k] for k in range(half, horizon + 1))
    # two-sided comparability against the block anchors; the max witnesses
    # C*w(2^{j-1}) >= w(k) >= w(2^j)/C with room to spare
    c_emp = 1.0
    j = 1
    while 2 ** j <= horizon:
        lo, hi = 2 ** (j - 1), 2 ** j
        anchor_lo, anchor_hi = tau[lo], tau[hi]
        for k in range(lo, hi):
            for num, den in ((tau[k], anchor_lo), (anchor_lo, tau[k]),
                             (anchor_hi, tau[k]), (tau[k], anchor_hi)):
                if den > 0:
                    c_emp = max(c_emp, num / den)
        j += 1
    constants = {"liminf_tau": liminf_tau, "liminf_ntau": liminf_ntau, "dyadic_C": c_emp}
    if liminf_tau > 0.0 or liminf_ntau > 0.0:
        return RegularityReport(cid, Verdict.EMPIRICAL_PASS, constants, horizon,
                                ("criteria measured over the horizon only",))
    return RegularityReport(cid, Verdict.INCONCLUSIVE, constants, horizon, ())


def check_tail_domination(w: WeightSeq, a: NormSeq, theta: float = 1.0,
                          moment_power: float = 3.0,
                          horizon: int = DEFAULT_HORIZON,
                          values: Optional[SequenceValues] = None
                          ) -> RegularityReport:
    """Smallest C with a(n)^{p}/n^{theta-1} * sum_{k>=n} k^theta w(k)/a(k)^p <= C*T_{n-1}.

    p = moment_power * theta; the canonical selectors are moment_power 3 and 2.
    The infinite tail is the finite sum to the horizon plus a certified
    analytic remainder when family metadata (or a custom tail_bound) provides
    one; only then is the verdict Certified.  ``values``, when given, is
    ``sequence_values(w, a, horizon)``.
    """
    if theta < 1.0:
        raise ValueError("theta must be >= 1")
    if horizon < 4:
        raise ValueError("horizon must be >= 4")
    if moment_power <= 0.0:
        raise ValueError("moment_power must be positive")
    cid = f"tail-domination-p{moment_power:g}-theta{theta:g}"
    p = moment_power * theta

    tau, av, t = values if values is not None else sequence_values(w, a, horizon)
    require_nondecreasing(av)

    shape = _combined_tail_shape(w, a, theta, moment_power)
    if shape is not None:
        assessment = certified_power_tail(shape[0], shape[1], shape[2], horizon + 1)
    elif w.tail_bound is not None:
        g = lambda k: float(k) ** theta / a(k) ** p
        assessment = TailAssessment("finite", float(w.tail_bound(horizon + 1, g)),
                                    "caller-supplied certified tail bound")
    else:
        assessment = TailAssessment("unknown", None, "no analytic tail bound available")

    if assessment.kind == "diverges":
        return RegularityReport(cid, Verdict.CERTIFIED_FAIL,
                                {"theta": theta, "moment_power": moment_power},
                                horizon, ("tail sum diverges: " + assessment.reason,))

    remainder = assessment.bound if assessment.kind == "finite" else 0.0
    n = np.arange(1, horizon + 1)
    a_p = libm(pow, av, p)
    suffix = kahan_partials((libm(pow, n, theta) * tau / a_p)[::-1])[::-1]
    t_prev = t[:-1]  # T_(n-1) for n = 2..horizon
    lhs = a_p[1:] / libm(pow, n[1:], theta - 1.0) * (suffix[1:] + remainder)

    # C is the largest ratio lhs/T_(n-1) over the n with T_(n-1) > 0, and
    # argmax_n the first n reaching it; NaN ratios never count.
    counted = t_prev > 0.0
    ratio = np.divide(lhs, t_prev, out=np.zeros_like(lhs), where=counted)
    best = np.flatnonzero(ratio > 0.0)
    best_c, argmax = 0.0, 0
    if best.size:
        k = int(best[np.argmax(ratio[best])])
        best_c, argmax = float(ratio[k]), k + 2
    skipped = int(np.count_nonzero(~counted & (lhs > 0.0)))
    constants = {"C": best_c, "theta": theta, "moment_power": moment_power,
                 "argmax_n": float(argmax), "tail_remainder": remainder}
    notes: list[str] = []
    if skipped:
        notes.append(f"{skipped} initial indices skipped where T_(n-1) = 0")
    if assessment.kind == "finite":
        notes.append("remainder certified: " + assessment.reason)
        return RegularityReport(cid, Verdict.CERTIFIED_PASS, constants, horizon, tuple(notes))
    notes.append("no certified remainder (" + assessment.reason + "); constant is horizon-limited evidence")
    return RegularityReport(cid, Verdict.INCONCLUSIVE, constants, horizon, tuple(notes))


def _norm_growth_direction(family: PowerLawFamily, power: float) -> str:
    """Eventual direction of a(k)^power / k: 'up', 'flat', or 'down'."""
    e = power * family.exponent - 1.0
    if e > 0:
        return "up"
    if e < 0:
        return "down"
    s = family.sv.first_sign()
    if s > 0:
        return "up"
    if s < 0:
        return "down"
    return "flat"


def check_inf_growth(w: WeightSeq, a: NormSeq, power: float = 3.0,
                     horizon: int = DEFAULT_HORIZON,
                     values: Optional[SequenceValues] = None
                     ) -> RegularityReport:
    """Floor on liminf_n inf_{k>=n} a(k)^power/(k*a(n)^power) * T_{n-1}.

    Certified when the family shows a(k)^power/k eventually monotone, in
    which case the infimum sits at k=n and the liminf reduces to that of
    T_{n-1}/n; measured over the horizon otherwise (running infimum over the
    last half).  ``values``, when given, is ``sequence_values(w, a, horizon)``.
    """
    if horizon < 4:
        raise ValueError("horizon must be >= 4")
    if power <= 0.0:
        raise ValueError("power must be positive")
    cid = f"inf-growth-p{power:g}"

    _, av, t = values if values is not None else sequence_values(w, a, horizon)
    a_pow = libm(pow, av, power)
    sufmin = np.minimum.accumulate((a_pow / np.arange(1, horizon + 1))[::-1])[::-1]
    f = sufmin[1:] * t[:-1] / a_pow[1:]  # n = 2..horizon
    liminf_est = min(memoryview(f[max(2, horizon // 2) - 2:]))
    constants = {"liminf_estimate": liminf_est, "power": power}

    if w.family is not None and a.family is not None:
        direction = _norm_growth_direction(a.family, power)
        if direction == "down":
            return RegularityReport(cid, Verdict.CERTIFIED_FAIL, constants, horizon,
                                    (f"a(k)^{power:g}/k tends to 0, infimum collapses",))
        if liminf_n_weights_positive(w.family):
            return RegularityReport(
                cid, Verdict.CERTIFIED_PASS, constants, horizon,
                (f"a(k)^{power:g}/k eventually non-decreasing; infimum at k=n and "
                 "liminf T_(n-1)/n positive (family closed form)",))
        return RegularityReport(cid, Verdict.CERTIFIED_FAIL, constants, horizon,
                                ("infimum at k=n but liminf n*w(n) = 0, floor collapses",))
    return RegularityReport(cid, Verdict.EMPIRICAL_PASS, constants, horizon,
                            ("running infimum over the last half of the horizon",))
