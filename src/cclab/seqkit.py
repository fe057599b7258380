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

Power-law families with slowly varying factors are certified through one
``TermBound``, exp(log_coef) n^-e sv(n) exp(-c n^kappa) as an envelope or a
divergence floor, whose tail is closed-form and rounded up; the tail
domination check and every power or exponential certificate use it.
Everything else is reported empirically over the horizon and never as a
false certificate.  T_n, and every partial sum a report shows, are Sum2
prefix sums (``prefix_sums``): prefix n is within u|S_n| + gamma_(n-1)^2
sum|x| of the exact sum S_n, u = 2^-53.

Every column whose bits reach a report goes through ``libm``, which gives the C
library's bits by one route table: pow, exp and log in numpy loops over the C
library, erfc's saturation fills, all else one Python float at a time.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .reports import CONVERGES, DIVERGES

_E2 = math.e ** 2
_TINY = sys.float_info.min  # the least normal double


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


def _float_power(x, p):
    """numpy's float_power loop calls the C library's pow on every element, with
    no SIMD variant (np.power has one).  A base <= 0 is left to Python's pow,
    which raises or returns a complex number there."""
    return np.float_power(x, p), x <= 0.0


def _complex_exp(x):
    """The C library's cexp(x + 0i) is exp(x) cos 0 = exp(x) exactly while x is
    at most 709; past that it scales x, so x > 708 is left to math.exp.  glibc's
    exp is +0.0 from -745.1332191019412 down, so below -745.2 cexp is not
    called and the result is 0.0; the exp is taken in place, so a column costs
    one complex copy and one real one."""
    live = ~(x < -745.2)  # NaN is live, and so goes to math.exp
    z = x.astype(np.complex128)
    np.exp(z, out=z, where=live)
    return np.where(live, z.real, 0.0), x > 708.0


def _complex_log(x):
    """The C library's clog(x + 0i) has real part log(x) bit for bit on
    [2, DBL_MAX/4]; below 2 it takes a log1p branch or scales x, and past
    DBL_MAX/4 it scales x, so every other element is left to math.log."""
    kept = (x >= 2.0) & (x <= sys.float_info.max / 4.0)
    return np.log(x.astype(np.complex128)).real.copy(), ~kept


def _erfc_fills(x):
    """glibc's erfc is two - tiny = 2.0 from -6 down and tiny*tiny = 0.0 from 28 up."""
    low = x <= -6.0
    return np.where(low, 2.0, 0.0), ~(low | (x >= 28.0))


# fn: (values, elements that fn maps instead), by a numpy loop over the C library's fn or fills
_VECTOR = {pow: _float_power, math.exp: _complex_exp, math.log: _complex_log,
           math.erfc: _erfc_fills}


def libm(fn, *args) -> np.ndarray:
    """fn(*args) elementwise as the C library computes it, in the arguments'
    broadcast shape; scalars alone give one element.

    Arithmetic (+ - * /, sqrt) is correctly rounded, so NumPy gives the same
    bits as Python.  Powers, logs, exponentials and erfc are not: NumPy's SIMD
    versions differ from the math library in the last ulp on up to a few per
    cent of points, and at a tail's discontinuity one ulp flips a term.  Every
    transcendental whose bits reach a report therefore goes through here.
    A function with a route in ``_VECTOR`` keeps its values: pow, math.exp and
    math.log from numpy loops that call the C library's pow, cexp and clog,
    exp's 0.0 below -745.2, erfc's 2.0 from -6 down and 0.0 from 28 up.
    Every element a route leaves out or gives no finite value, NaN included,
    and every element of a function without a route goes through fn as a
    Python float, so Python's errors and special values stay.
    """
    shape = np.broadcast(*args).shape or (1,)
    cols = [np.broadcast_to(np.asarray(a, dtype=np.float64), shape) for a in args]
    if fn not in _VECTOR:
        return _map(fn, *(c.ravel() for c in cols)).reshape(shape)
    with np.errstate(all="ignore"):
        out, mapped = _VECTOR[fn](*cols)
    mapped |= ~np.isfinite(out)
    if mapped.any():
        out[mapped] = _map(fn, *(c[mapped] for c in cols))
    return out


def _map(fn, *cols) -> np.ndarray:
    """fn over 1-D columns of one length, one Python float at a time; a
    memoryview yields Python floats without a list."""
    views = [memoryview(c) for c in cols]
    return np.fromiter(map(fn, *views), np.float64, count=len(views[0]))


def prefix_sums(values) -> np.ndarray:
    """Every prefix sum of ``values`` by Sum2 (Ogita, Rump and Oishi, "Accurate
    sum and dot product", SIAM J. Sci. Comput. 26, 2005): the running sum s
    plus the running sum of each step's exact rounding error (TwoSum).  Prefix
    i is within u|S_i| + gamma_(i-1)^2 sum_(j<=i) |x_j| of the exact sum S_i
    (u = 2^-53, gamma_k = k u / (1 - k u)).  Where s overflows it is the
    result (+-inf, or NaN once infinities of both signs meet), with no warning."""
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.add.accumulate(x)
        e = np.zeros(s.shape)  # the error of step i; the first step is exact
        prev, err = s[:-1], e[1:]
        step = s[1:] - prev
        np.subtract(prev, np.subtract(s[1:], step, out=err), out=err)
        err += np.subtract(x[1:], step, out=step)
        np.add(s, np.add.accumulate(e, out=e), out=e)
        # A running sum that leaves the finite range never comes back.
        if s.size and not math.isfinite(s[-1]):
            np.copyto(e, s, where=~np.isfinite(s))
        return e


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


# Each slowly varying factor L(n)^g, in the order every sum and product takes them: the
# field of g, its config name, L(n) under a given log, the scale whose inverse bounds
# k (log L)'(k) for k >= start, the ratio the dyadic constant takes for L's blocks, and
# the least n that ``values`` takes (L(n) > 0 from there on) and its refusal's words.
SvFactor = namedtuple("SvFactor", "field name base scale ratio least_n words")
SV_FACTORS = (
    SvFactor("log2p", "log_power", lambda n, log: log(2.0 + n), lambda s: math.log(2.0 + s),
             max(math.log(2.0 + 2.0 ** j) / math.log(2.0 + 2.0 ** (j - 1)) for j in range(1, 65)),
             0, "log"),
    SvFactor("loglog", "loglog_power", lambda n, log: log(log(_E2 + n)),
             lambda s: math.log(_E2 + s) * math.log(math.log(_E2 + s)),
             max(math.log(math.log(_E2 + 2.0 ** j)) / math.log(math.log(_E2 + 2.0 ** (j - 1)))
                 for j in range(1, 65)), 0, "loglog"),
    SvFactor("logn", "plainlog_power", lambda n, log: log(n), math.log, 2.0, 2, "plain-log"),
)


@dataclass(frozen=True)
class SlowlyVarying:
    """Product (log(2+n))^log2p * (loglog(e^2+n))^loglog * (log n)^logn, each
    factor a row of ``SV_FACTORS``.  The plain-log factor makes normalizers like
    (n log n)^{1/2} exactly representable as a family."""

    log2p: float = 0.0
    loglog: float = 0.0
    logn: float = 0.0

    def factors(self) -> list:  # (row, exponent) for each row of SV_FACTORS, in its order
        return [(row, getattr(self, row.field)) for row in SV_FACTORS]

    def values(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=np.float64)
        out = np.ones(n.shape)
        for row, g in self.factors():
            if g and (n < row.least_n).any():
                raise SequenceError(f"{row.words} slowly varying factor needs n >= {row.least_n}")
            if g:
                out *= libm(pow, row.base(n, lambda x: libm(math.log, x)), g)
        return out

    def is_trivial(self) -> bool:
        return all(g == 0.0 for _, g in self.factors())

    def exponent_bound(self, start: int, sign: float = 1.0) -> float:
        """delta with sv(k) <= sv(start) (k/start)^delta for k >= start; with
        ``sign`` -1, sv(k) >= sv(start) (k/start)^delta.  It sums g / scale over
        the factors L^g with sign * g > 0, where 1/scale bounds k (log L)'(k)
        past start; the other factors move the other way from their start value."""
        if start < 2:
            raise ValueError("envelope start must be >= 2")
        delta = 0.0
        for row, g in self.factors():
            if sign * g > 0:
                delta += g / row.scale(start)
        return delta

    def combine(self, other: "SlowlyVarying", other_power: float) -> "SlowlyVarying":
        return SlowlyVarying(**{row.field: g + other_power * getattr(other, row.field)
                                for row, g in self.factors()})

    def log_values(self, n, log=np.log):
        """log sv(n): by numpy's log over an array of n, for bounds compared under
        a slack, or with ``log`` math.log at one n, as a float whose bits reach a
        report and so must not hang on numpy's SIMD dispatch."""
        n = np.asarray(n, dtype=np.float64) if log is np.log else float(n)
        out = 0.0 * n
        for row, g in self.factors():
            if g:
                out = out + g * log(row.base(n, log))
        return out


# Room added to a computed log: 128 ulp of its parts, each of which carries a few.
_PAD = 2.0 ** -46


def _log_up(*parts: float) -> float:
    """The sum of ``parts``, rounded up by _PAD of their magnitude.  Where fsum
    raises, at a sum or magnitude past the doubles or at inf - inf, it is -inf
    if no part is positive, and else inf, which bounds nothing."""
    try:
        total = math.fsum(parts)
        return total + _PAD * (1.0 + math.fsum(map(abs, parts))) if math.isfinite(total) else total
    except (OverflowError, ValueError):
        return -math.inf if max(parts) <= 0.0 else math.inf


def _log_add_up(a: float, b: float) -> float:
    """log(e^a + e^b), rounded up."""
    hi, lo = max(a, b), min(a, b)
    return hi if lo == -math.inf else _log_up(hi, math.log1p(math.exp(lo - hi)))


def log_or_inf(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def exp_up(log_x: float) -> float:
    """exp(log_x) rounded up: 0.0 only at log_x = -inf, where it is exact, and
    the least subnormal where a finite log_x underflows."""
    if log_x == -math.inf:
        return 0.0
    return math.nextafter(math.exp(log_x), math.inf) if log_x < 709.0 else math.inf


def tail_start(from_n: int, last_n: int) -> int:
    """The first n past ``last_n``, where a bound from ``from_n`` leaves no term unbounded."""
    if from_n > last_n + 1:
        raise ValueError(f"an envelope from n={from_n} leaves the terms "
                         f"{last_n + 1}..{from_n - 1} unbounded")
    return last_n + 1


@dataclass(frozen=True)
class TermBound:
    """f(n) = exp(log_coef) n^-exponent sv(n) exp(-rate n^kappa) for n >= from_n: an
    upper envelope of a series' terms, or with ``floor`` a lower floor; a certificate.
    With log_coef = -inf it says that every term from ``from_n`` on is 0.

    ``values_at`` forms f in logs by numpy ufuncs, not ``libm``: it is only
    compared with terms under a slack, and in logs no coefficient underflows.
    An envelope is raised to the least normal double and a floor below it
    lowered to 0, so no subnormal is compared, and no log below -709 is
    exponentiated: its exp is below the least normal double.  A floor is a
    plain power with exponent <= 1: each dyadic block past ``from_n`` sums to
    ``block_floor()``.
    """

    log_coef: float
    exponent: float
    sv: SlowlyVarying = SlowlyVarying()
    rate: float = 0.0
    kappa: float = 0.0
    from_n: int = 1
    floor: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not (self.log_coef < math.inf and math.isfinite(self.exponent)
                and (self.rate > 0.0) == (self.kappa > 0.0)
                and 0.0 <= self.rate < math.inf and 0.0 <= self.kappa < math.inf
                and all(self.from_n >= row.least_n for row, g in self.sv.factors() if g)):
            raise ValueError(f"invalid term bound {self!r}")
        if self.floor and not (self.log_coef > -math.inf and self.rate == 0.0
                               and self.sv.is_trivial() and self.exponent <= 1.0):
            raise ValueError("a divergence floor is a plain power with a positive "
                             "coefficient and exponent <= 1")

    @property
    def verdict(self) -> str:
        return DIVERGES if self.floor else CONVERGES

    def values_at(self, n) -> np.ndarray:
        n = np.asarray(n)
        if self.log_coef == -math.inf:
            return np.where(n < self.from_n, math.inf, 0.0)
        # n < from_n is filled in afterwards, whatever f gives there
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ln = np.log(n.astype(np.float64))
            x = np.asarray(self.sv.log_values(n) + self.log_coef - self.exponent * ln)
            if self.rate:  # at rate 0 kappa is 0, and x - 0 e^0 = x
                x -= self.rate * np.exp(self.kappa * ln)
            # in place, and not below -709: there x and e^x are both below _TINY,
            # so either is raised to it or lowered to 0 below
            v = np.exp(x, out=x, where=~(x < -709.0))
        out = np.where(v < _TINY, 0.0, v) if self.floor else np.maximum(v, _TINY)
        return np.where(n < self.from_n, 0.0 if self.floor else math.inf, out)

    def log_tail(self, start: int) -> float:
        """log of an upper bound on sum_{n >= start} f(n), rounded up; inf where
        no finite bound is certified.  Past start, sv(x) <= sv(start) (x/start)^delta
        (``exponent_bound``), so f <= g = G x^-(e - delta) exp(-rate x^kappa),
        which is unimodal, and the tail is at most max_{x>=start} g + int_start^inf g:
        * kappa = 0, e - delta > 1: f(start) (1 + start / (e - delta - 1));
        * kappa = 0, e = 1: Bertrand's integral in log(2+x), a plain log folded
          in by log x <= log(2+x) <= (log(2+start) / log start) log x, as
          log(2+k) / log k falls for k >= 2;
        * kappa > 0: the integral is G Gamma(s, z) / (kappa rate^s) with
          s = (1 - e + delta)/kappa, z = rate start^kappa, and Gamma(s, z) at most
          z^(s-1) e^-z for s <= 1, min(Gamma(s), z^(s-1) e^-z / (1 - (s-1)/z)) for
          s > 1 (DLMF 8.10)."""
        if self.log_coef == -math.inf:
            return -math.inf  # every term is 0
        x, e = float(start), self.exponent
        ln, log_sv = math.log(x), self.sv.log_values(x, math.log)
        if self.rate == 0.0 and e == 1.0:
            b = self.sv.logn
            g1, g2 = self.sv.log2p + b, self.sv.loglog
            gap = (-g1 - 1.0) - _PAD * (abs(g1) + 1.0)
            if gap <= 0.0 or g2 > 0.0:
                return math.inf
            # (log k)^b <= (log(2+x) / log x)^max(0,-b) log(2+k)^b, and the loglog
            # factor L(k)^g2 falls from its value at start
            fold = -b * math.log(math.log(2.0 + x) / ln) if b < 0.0 else 0.0
            lead = (self.log_coef, fold, SlowlyVarying(loglog=g2).log_values(x, math.log))
            log_l = math.log(math.log(2.0 + x))
            return _log_add_up(_log_up(*lead, -ln, g1 * log_l), _log_up(
                *lead, math.log((2.0 + x) / x), (g1 + 1.0) * log_l, -math.log(gap)))
        delta = 0.0 if self.sv.is_trivial() else self.sv.exponent_bound(start) * (1.0 + _PAD)
        e_net = e - delta
        if self.rate == 0.0:
            gap = (e_net - 1.0) - _PAD * (abs(e) + 1.0 + delta)
            if gap <= 0.0:
                return math.inf
            return _log_up(self.log_coef, log_sv, -e * ln, math.log1p(x / gap))
        k, c = self.kappa, self.rate
        head = (self.log_coef, log_sv, -delta * ln)  # log G
        log_peak = ln
        if e_net < 0.0:  # g peaks at x^kappa = -e_net / (kappa rate), the quotient's
            q = -e_net / k  # log a difference where it has lost digits below the normals
            log_q = math.log(q) if q >= _TINY else math.log(-e_net) - math.log(k)
            log_peak = max(ln, (log_q - math.log(c)) / k)
        # exp capped at e^709 below: a smaller z or g^kappa only raises the bound
        log_max = _log_up(*head, -e_net * log_peak, -c * math.exp(min(k * log_peak, 709.0)))
        s = (1.0 - e_net) / k
        log_z = math.log(c) + k * ln
        z = math.exp(min(log_z, 709.0))
        log_gamma = (s - 1.0) * log_z - z
        if s > 1.0:
            log_gamma = (min(math.lgamma(s), log_gamma - math.log1p(-(s - 1.0) / z))
                         if z > s - 1.0 else math.lgamma(s))
        log_int = _log_up(*head, log_gamma, -math.log(k), -s * math.log(c))
        return _log_add_up(log_max, log_int)

    def tail_beyond(self, last_n: int) -> float:
        """sum_{n > last_n} f(n), rounded up."""
        return exp_up(self.log_tail(tail_start(self.from_n, last_n)))

    def divergence(self) -> Optional[str]:
        """Why sum_n f(n) diverges (a power n^(1-e) > 1 outgrows sv; at e = 1,
        Bertrand's test after ``log_tail``'s fold), or None if not certified."""
        if self.rate > 0.0 or self.exponent > 1.0 or self.log_coef == -math.inf:
            return None
        if self.exponent < 1.0:
            return f"terms k^-{self.exponent:.3g} sv(k) with exponent < 1"
        g1, g2 = self.sv.log2p + self.sv.logn, self.sv.loglog
        if g1 > -1.0:
            return "q == 1 with log exponent > -1"
        if g1 == -1.0 and g2 >= -1.0:
            return "q == 1, log exponent -1, loglog exponent >= -1"
        return None

    def block_floor(self) -> float:
        """exp(log_coef) 2^-exponent, rounded down: no dyadic block past from_n sums to less."""
        y = self.log_coef - self.exponent * math.log(2.0)
        return math.nextafter(math.exp(min(y - _PAD * (1.0 + abs(y)), 709.0)), 0.0)

    def to_json_dict(self, last_n: int) -> dict:
        if self.log_coef == -math.inf:
            tail_start(self.from_n, last_n)
            return {"kind": "vanishing", "params": {"from_n": self.from_n}, "tail_bound": 0.0,
                    "description": self.description}
        params = {"log_coef": self.log_coef,
                  "exponent": self.exponent, "from_n": self.from_n,
                  **{key: g for key, g in vars(self.sv).items() if g},
                  **({"rate": self.rate, "kappa": self.kappa} if self.rate else {})}
        if self.floor:
            return {"kind": "power-floor", "params": params, "block_floor": self.block_floor(),
                    "description": self.description}
        log_tail = self.log_tail(tail_start(self.from_n, last_n))
        return {"kind": "power-exp" if self.rate else "power", "params": params,
                "tail_bound": exp_up(log_tail), "log_tail_bound": log_tail,
                "description": self.description}


@dataclass(frozen=True)
class PowerLawFamily:
    """coef * n^exponent * sv(n), the analytic shape behind certified bounds."""

    exponent: float
    coef: float = 1.0
    sv: SlowlyVarying = field(default_factory=SlowlyVarying)

    def values(self, n: np.ndarray) -> np.ndarray:
        return self.coef * libm(pow, n, self.exponent) * self.sv.values(n)


class SequenceError(ValueError):
    """A weight or normalizer value is invalid: not finite, of the wrong
    sign, or a normalizer that decreases."""


def _evaluate(seq, n, what: str, ok, bad: str) -> np.ndarray:
    """seq.fn over the indices ``n``, validated once.  The first value
    failing ``ok`` raises ``bad`` formatted with its n and value."""
    n = np.asarray(n)
    if n.size and n.min() < 1:
        raise ValueError(f"{what} index must be >= 1")
    v = np.asarray(seq.fn(n), dtype=np.float64)
    fails = np.flatnonzero(~(np.isfinite(v) & ok(v)))
    if fails.size:
        i = fails[0]
        raise SequenceError(bad.format(n=n.tolist()[i], v=float(v[i])))
    return v


@dataclass(frozen=True)
class WeightSeq:
    """Nonnegative weights w(n); family metadata enables certified verdicts.

    ``fn`` maps an array of indices to the array of weights.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    family: Optional[PowerLawFamily] = None

    def values(self, n: np.ndarray) -> np.ndarray:
        """w over an array of indices."""
        return _evaluate(self, n, "weight", lambda v: v >= 0.0,
                         "weight w({n}) = {v!r} is not a finite nonnegative real")

    def __call__(self, n: int) -> float:
        return float(self.values(np.array([n]))[0])


@dataclass(frozen=True)
class NormSeq:
    """Strictly positive normalizer a(n); increasing on every queried range.

    ``fn`` maps an array of indices to the array of values.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    family: Optional[PowerLawFamily] = None

    def values(self, n: np.ndarray) -> np.ndarray:
        """a over an array of indices."""
        return _evaluate(self, n, "normalizer", lambda v: v > 0.0,
                         "normalizer a({n}) = {v!r} is not a finite positive real")

    def __call__(self, n: int) -> float:
        return float(self.values(np.array([n]))[0])


def require_nondecreasing(a: np.ndarray) -> None:
    """Raise at the first n with a(n) < a(n-1); ``a`` holds a(1), a(2), ..."""
    down = np.flatnonzero(a[1:] < a[:-1])
    if down.size:
        k = int(down[0])
        raise SequenceError(f"normalizer decreases at n={k + 2}: "
                         f"{float(a[k])} -> {float(a[k + 1])}")


class SequenceValues(NamedTuple):
    """w(n), a(n) and T_n = sum_{k<=n} k w(k) for n = 1..horizon."""

    w: np.ndarray
    a: np.ndarray
    t: np.ndarray


def sequence_values(w: WeightSeq, a: NormSeq, horizon: int) -> SequenceValues:
    """The arrays every check over 1..horizon reads, evaluated once."""
    if horizon < 4:
        raise ValueError("horizon must be >= 4")
    n = np.arange(1, horizon + 1)
    av = a.values(n)
    wv = w.values(n)
    return SequenceValues(wv, av, prefix_sums(n * wv))


def power_law_weights(exponent: float, coef: float = 1.0,
                      sv: SlowlyVarying = SlowlyVarying(),
                      name: Optional[str] = None) -> WeightSeq:
    fam = PowerLawFamily(exponent=exponent, coef=coef, sv=sv)
    return WeightSeq(fn=fam.values, name=name or f"n^{exponent:g}", family=fam)


def power_law_norms(exponent: float, coef: float = 1.0,
                    sv: SlowlyVarying = SlowlyVarying(),
                    name: Optional[str] = None) -> NormSeq:
    fam = PowerLawFamily(exponent=exponent, coef=coef, sv=sv)
    return NormSeq(fn=fam.values, name=name or f"n^{exponent:g}", family=fam)


def _per_index(fn: Callable[[int], float]) -> Callable[[np.ndarray], np.ndarray]:
    """The array function of a one-point callable: one call per index."""
    return lambda n: np.fromiter((float(fn(k)) for k in memoryview(n)), np.float64,
                                 count=n.size)


def custom_weights(fn: Callable[[int], float], name: str = "custom") -> WeightSeq:
    """Weights from a one-point callable w(n)."""
    return WeightSeq(fn=_per_index(fn), name=name, family=None)


def custom_norms(fn: Callable[[int], float], name: str = "custom") -> NormSeq:
    """A normalizer from a one-point callable a(n)."""
    return NormSeq(fn=_per_index(fn), name=name, family=None)


# ---------------------------------------------------------------------------
# Closed forms for power-law families
# ---------------------------------------------------------------------------


def _eventual_sign(exponent: float, sv: SlowlyVarying) -> int:
    """Where n^exponent sv(n) goes as n -> infinity: 1 to infinity, -1 to 0,
    0 to a constant; the sign of the first nonzero of exponent, log2p + logn
    and loglog."""
    for g in (exponent, sv.log2p + sv.logn, sv.loglog):
        if g:
            return 1 if g > 0 else -1
    return 0


def _dyadic_family_constant(family: PowerLawFamily) -> float:
    """Closed-form constant for the dyadic sandwich of a power-law family."""
    return math.prod([2.0 ** abs(family.exponent),
                      *(row.ratio ** abs(g) for row, g in family.sv.factors() if g)])


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_dyadic_regularity(w: WeightSeq, values: SequenceValues) -> RegularityReport:
    """Sufficient criteria for the weight-closure property.

    Passes when either liminf w(n) > 0, or both liminf n*w(n) > 0 and the
    dyadic sandwich C*w(2^{j-1}) >= w(k) >= w(2^j)/C holds with a finite C
    over every dyadic block.  Failing both criteria is Inconclusive: the
    closure property itself may still hold.  ``values`` is
    ``sequence_values(w, a, horizon)``.
    """
    horizon = values.w.size
    cid = "weight-dyadic-criteria"
    if w.family is not None:
        fam = w.family
        if _eventual_sign(fam.exponent, fam.sv) >= 0:
            return RegularityReport(cid, Verdict.CERTIFIED_PASS,
                                    {"route": 1.0}, horizon,
                                    ("liminf of the weights is positive (family closed form)",))
        if _eventual_sign(1.0 + fam.exponent, fam.sv) >= 0:
            c = _dyadic_family_constant(fam)
            return RegularityReport(cid, Verdict.CERTIFIED_PASS,
                                    {"route": 2.0, "dyadic_C": c}, horizon,
                                    ("liminf n*w(n) positive and dyadic sandwich, family closed form",))
        return RegularityReport(cid, Verdict.INCONCLUSIVE, {}, horizon,
                                ("both sufficient criteria fail analytically; "
                                 "the closure property itself is undecided",))
    # empirical route
    n = np.arange(1, horizon + 1)
    tau = values.w
    liminf_tau = float(tau[horizon // 2 - 1:].min())
    liminf_ntau = float((n * tau)[horizon // 2 - 1:].min())
    # two-sided comparability against the block anchors; the max witnesses
    # C*w(2^{j-1}) >= w(k) >= w(2^j)/C with room to spare
    c_emp = 1.0
    for j in range(1, horizon.bit_length()):  # blocks 2^(j-1) <= k < 2^j <= horizon
        block = tau[2 ** (j - 1) - 1:2 ** j - 1]
        for anchor in (tau[2 ** (j - 1) - 1], tau[2 ** j - 1]):
            up = block / anchor if anchor > 0 else block[:0]
            c_emp = max([c_emp, *up.tolist(), *(anchor / block[block > 0]).tolist()])
    constants = {"liminf_tau": liminf_tau, "liminf_ntau": liminf_ntau, "dyadic_C": c_emp}
    if liminf_tau > 0.0 or liminf_ntau > 0.0:
        return RegularityReport(cid, Verdict.EMPIRICAL_PASS, constants, horizon,
                                ("criteria measured over the horizon only",))
    return RegularityReport(cid, Verdict.INCONCLUSIVE, constants, horizon, ())


def check_tail_domination(w: WeightSeq, a: NormSeq, values: SequenceValues,
                          theta: float = 1.0, moment_power: float = 3.0) -> RegularityReport:
    """Smallest C with a(n)^{p}/n^{theta-1} * sum_{k>=n} k^theta w(k)/a(k)^p <= C*T_{n-1}.

    p = moment_power * theta; the canonical selectors are moment_power 3 and 2.
    The infinite tail is the finite sum to the horizon plus a certified
    analytic remainder when family metadata provides one; only then is the
    verdict Certified.  ``values`` is ``sequence_values(w, a, horizon)``.
    """
    if theta < 1.0:
        raise ValueError("theta must be >= 1")
    if moment_power <= 0.0:
        raise ValueError("moment_power must be positive")
    cid = f"tail-domination-p{moment_power:g}-theta{theta:g}"
    p = moment_power * theta
    if not math.isfinite(p):
        raise OverflowError(f"the power a(n)^p has p = {moment_power:g} * {theta:g} past doubles")
    horizon = values.a.size
    require_nondecreasing(values.a)

    start = horizon + 1
    remainder, reason = None, "no analytic tail bound available"
    if w.family is not None and a.family is not None:
        wf, af = w.family, a.family
        # k^theta w(k) / a(k)^p is exactly this bound's f
        q, sv = p * af.exponent - theta - wf.exponent, wf.sv.combine(af.sv, -p)
        log_coef = log_or_inf(wf.coef) - p * math.log(af.coef)
        if not (math.isfinite(q) and log_coef < math.inf):
            raise OverflowError(f"the tail bound's exponent {q!r} or log coefficient "
                                f"{log_coef!r} is past doubles")
        terms = TermBound(log_coef, q, sv, from_n=start)
        log_tail, why = terms.log_tail(start), terms.divergence()
        if log_tail < math.inf:
            remainder = exp_up(log_tail)
            reason = ("logarithmic integral comparison" if q == 1.0 else "integral comparison "
                      f"with envelope exponent {sv.exponent_bound(start):.3g}")
        elif why is not None:
            return RegularityReport(cid, Verdict.CERTIFIED_FAIL,
                                    {"theta": theta, "moment_power": moment_power},
                                    horizon, ("tail sum diverges: " + why,))

    n = np.arange(1, horizon + 1)
    a_p = libm(pow, values.a, p)
    suffix = prefix_sums((libm(pow, n, theta) * values.w / a_p)[::-1])[::-1]
    t_prev = values.t[:-1]  # T_(n-1) for n = 2..horizon
    lhs = a_p[1:] / libm(pow, n[1:], theta - 1.0) * (suffix[1:] + (remainder or 0.0))

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
                 "argmax_n": float(argmax), "tail_remainder": remainder or 0.0}
    notes: list[str] = []
    if skipped:
        notes.append(f"{skipped} initial indices skipped where T_(n-1) = 0")
    if remainder is not None:
        notes.append("remainder certified: " + reason)
        # At q = 1 the tail sum over f(n) grows without bound (Karamata), and for
        # e_w > -2 T_(n-1) ~ n^2 w(n) / (2 + e_w): no C holds past the horizon
        if q == 1.0 and wf.exponent > -2.0:
            notes.append("q == 1: the tail sum over its last term grows without bound "
                         "(Karamata), so the ratio does")
            return RegularityReport(cid, Verdict.CERTIFIED_FAIL, constants, horizon, tuple(notes))
        return RegularityReport(cid, Verdict.CERTIFIED_PASS, constants, horizon, tuple(notes))
    notes.append("no certified remainder (" + reason + "); constant is horizon-limited evidence")
    return RegularityReport(cid, Verdict.INCONCLUSIVE, constants, horizon, tuple(notes))


def check_inf_growth(w: WeightSeq, a: NormSeq, values: SequenceValues,
                     power: float = 3.0) -> RegularityReport:
    """Floor on liminf_n inf_{k>=n} a(k)^power/(k*a(n)^power) * T_{n-1}.

    Certified when the family shows a(k)^power/k eventually monotone, in
    which case the infimum sits at k=n and the liminf reduces to that of
    T_{n-1}/n; measured over the horizon otherwise (running infimum over the
    last half).  ``values`` is ``sequence_values(w, a, horizon)``.
    """
    if power <= 0.0:
        raise ValueError("power must be positive")
    cid = f"inf-growth-p{power:g}"
    horizon = values.a.size
    a_pow, t = libm(pow, values.a, power), values.t
    sufmin = np.minimum.accumulate((a_pow / np.arange(1, horizon + 1))[::-1])[::-1]
    f = sufmin[1:] * t[:-1] / a_pow[1:]  # n = 2..horizon
    liminf_est = min(memoryview(f[max(2, horizon // 2) - 2:]))
    constants = {"liminf_estimate": liminf_est, "power": power}

    if w.family is not None and a.family is not None:
        if _eventual_sign(power * a.family.exponent - 1.0, a.family.sv) < 0:
            return RegularityReport(cid, Verdict.CERTIFIED_FAIL, constants, horizon,
                                    (f"a(k)^{power:g}/k tends to 0, infimum collapses",))
        if _eventual_sign(1.0 + w.family.exponent, w.family.sv) >= 0:
            return RegularityReport(
                cid, Verdict.CERTIFIED_PASS, constants, horizon,
                (f"a(k)^{power:g}/k eventually non-decreasing; infimum at k=n and "
                 "liminf T_(n-1)/n positive (family closed form)",))
        return RegularityReport(cid, Verdict.CERTIFIED_FAIL, constants, horizon,
                                ("infimum at k=n but liminf n*w(n) = 0, floor collapses",))
    return RegularityReport(cid, Verdict.EMPIRICAL_PASS, constants, horizon,
                            ("running infimum over the last half of the horizon",))
