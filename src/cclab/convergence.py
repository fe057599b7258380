"""Per-term series evaluation and verdict assembly.

The three term families:

* single-variable tail terms  n * w(n) * P(|X| >= eps * a(n)),
* exponential terms           w(n) * exp(-eps^2 a(n)^2 / (n * T)), with
  T = E[X^2 1{|X| < eps a(n)}] and the convention exp(-t/0) = 0 for t > 0,
* adaptive-exponent terms     n^(-1 - eps^2/T) at the (n log n)^{1/2} cutoff,

plus weighted plug-in terms w(n) * p for an externally estimated or exact
probability p.  With w(n) = 1/n and a(n) = (n log n)^{1/2} the exponential
and adaptive-exponent terms are identical, and the tests check that
numerically.  Each family is computed on arrays of n (``single_tail_terms``,
``exp_terms``, ``adaptive_exponent_terms``); the one-term functions are
their one-point forms.

Verdicts are certificates, built, checked and rendered here.  Each
certificate class names its ``verdict`` and renders itself with
``to_json_dict(last_n)``; a converging one bounds every term from above
(``values_at``), a diverging one from below (``floors_at``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import distmodel
from .distmodel import Dist
# Unused here, but the benchmark tracer (perfbench/tracer.py) wraps this binding by name.
from .distmodel import truncated_moment  # noqa: F401
from .reports import (CONVERGES, DIVERGES, UNDETERMINED, SeriesReport, SeriesRow,
                      check_partial_sums)
from .seqkit import NormSeq, SlowlyVarying, WeightSeq, libm, power, prefix_sums

# Relative tolerance when checking computed terms against envelopes; it dwarfs
# the few ulp of np.power, so the bounds need not go through libm.
_ENVELOPE_SLACK = 1e-9


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


def exp_terms(w, a, eps: float, n, t) -> np.ndarray:
    """w(n) * exp(-eps^2 a(n)^2 / (n * T)), zero where T vanishes; ``w``, ``a``
    and ``t`` hold w(n), a(n) and T."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    w, a, n, t = _arrays(w, a, n, t)
    out = np.zeros(t.shape)
    on = t != 0.0
    an = a[on]
    with np.errstate(over="ignore"):  # a subnormal T gives -inf, and exp(-inf) = 0
        out[on] = w[on] * libm(math.exp, -(eps * eps * an * an) / (n[on] * t[on]))
    return out


def adaptive_exponent_terms(eps: float, n, t) -> np.ndarray:
    """n^(-1 - eps^2/T), zero where T vanishes; ``t`` holds T truncated at
    eps * (n log n)^{1/2}."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n, t = _arrays(n, t)
    if (n < 2).any():
        raise ValueError("adaptive-exponent terms start at n = 2")
    out = np.zeros(t.shape)
    on = t != 0.0
    with np.errstate(over="ignore"):  # a subnormal T gives -inf, and pow(n, -inf) = 0
        out[on] = libm(pow, n[on], -1.0 - eps * eps / t[on])
    return out


def single_tail_term(d: Dist, w: WeightSeq, a: NormSeq, eps: float, n: int) -> float:
    """n * w(n) * P(|X| >= eps * a(n)), one point of ``single_tail_terms``."""
    return float(single_tail_terms(d, w(n), a(n), eps, n)[0])


def exp_term(d: Dist, w: WeightSeq, a: NormSeq, eps: float, n: int) -> float:
    """w(n) * exp(-eps^2 a(n)^2 / (n * T)), one point of ``exp_terms``."""
    an = a(n)
    return float(exp_terms(w(n), an, eps, n, distmodel.truncated_moments(d, 2.0, eps * an))[0])


def adaptive_exponent_term(d: Dist, eps: float, n: int) -> float:
    """n^(-1 - eps^2/T), one point of ``adaptive_exponent_terms``."""
    t = distmodel.truncated_moments(d, 2.0, eps * np.sqrt(n * libm(math.log, n)))
    return float(adaptive_exponent_terms(eps, n, t)[0])


def weighted_term(w: WeightSeq, n: int, p_est: float) -> float:
    """w(n) * p for an externally supplied probability p."""
    if not 0.0 <= p_est <= 1.0:
        raise ValueError("p_est must lie in [0, 1]")
    return w(n) * p_est


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _from(n, from_n: int, before: float, bound) -> np.ndarray:
    """bound(n) for the n >= from_n, ``before`` for the n below."""
    n = np.asarray(n)
    out = np.full(n.shape, before)
    on = n >= from_n
    out[on] = bound(n[on])
    return out


def _tail_start(from_n: int, last_n: int) -> int:
    """The first n past ``last_n``; an envelope from ``from_n`` bounds the
    tail from there only if it leaves no term between them unbounded."""
    if from_n > last_n + 1:
        raise ValueError(f"an envelope from n={from_n} leaves the terms "
                         f"{last_n + 1}..{from_n - 1} unbounded")
    return last_n + 1


@dataclass(frozen=True)
class PowerEnvelope:
    """terms(n) <= coef * n^(-exponent) for n >= from_n, with exponent > 1."""

    coef: float
    exponent: float
    from_n: int = 1
    description: str = ""
    verdict = CONVERGES

    def __post_init__(self) -> None:
        if not 1.0 < self.exponent < math.inf:
            raise ValueError("a power envelope needs a finite exponent > 1")
        if not 0.0 <= self.coef < math.inf:
            raise ValueError("envelope coefficient must be finite and nonnegative")

    def values_at(self, n: np.ndarray) -> np.ndarray:
        return _from(n, self.from_n, math.inf, lambda k: self.coef * np.power(k, -self.exponent))

    def tail_beyond(self, last_n: int) -> float:
        start = _tail_start(self.from_n, last_n)
        q = self.exponent
        return self.coef * (float(start) ** -q + float(start) ** (1.0 - q) / (q - 1.0))

    def to_json_dict(self, last_n: int) -> dict:
        return {"kind": "power",
                "params": {"coef": self.coef, "exponent": self.exponent, "from_n": self.from_n},
                "tail_bound": self.tail_beyond(last_n),
                "description": self.description or
                f"terms <= {self.coef:g} n^-{self.exponent:g} beyond n={self.from_n}"}


@dataclass(frozen=True)
class GeometricEnvelope:
    """terms(n) <= coef * ratio^n for n >= from_n, with ratio < 1."""

    coef: float
    ratio: float
    from_n: int = 1
    description: str = ""
    verdict = CONVERGES

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("a geometric envelope needs 0 < ratio < 1")
        if not 0.0 <= self.coef < math.inf:
            raise ValueError("envelope coefficient must be finite and nonnegative")

    def values_at(self, n: np.ndarray) -> np.ndarray:
        return _from(n, self.from_n, math.inf, lambda k: self.coef * np.power(self.ratio, k))

    def tail_beyond(self, last_n: int) -> float:
        start = _tail_start(self.from_n, last_n)
        return self.coef * self.ratio ** start / (1.0 - self.ratio)

    def to_json_dict(self, last_n: int) -> dict:
        return {"kind": "geometric",
                "params": {"coef": self.coef, "ratio": self.ratio, "from_n": self.from_n},
                "tail_bound": self.tail_beyond(last_n),
                "description": self.description or
                f"terms <= {self.coef:g} * {self.ratio:g}^n beyond n={self.from_n}"}


@dataclass(frozen=True)
class VanishingEnvelope:
    """terms(n) provably 0 for every n >= from_n (e.g. bounded support)."""

    from_n: int
    description: str = ""
    verdict = CONVERGES

    def values_at(self, n: np.ndarray) -> np.ndarray:
        return _from(n, self.from_n, math.inf, np.zeros_like)

    def tail_beyond(self, last_n: int) -> float:
        _tail_start(self.from_n, last_n)
        return 0.0

    def to_json_dict(self, last_n: int) -> dict:
        return {"kind": "vanishing", "params": {"from_n": self.from_n},
                "tail_bound": self.tail_beyond(last_n),
                "description": self.description or
                f"terms vanish for every n >= {self.from_n}"}


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
    verdict = DIVERGES

    def __post_init__(self) -> None:
        if self.exponent > 1.0:
            raise ValueError("a divergence floor needs exponent <= 1")
        if self.coef <= 0.0:
            raise ValueError("floor coefficient must be positive")

    def floors_at(self, n: np.ndarray) -> np.ndarray:
        return _from(n, self.from_n, 0.0, lambda k: self.coef * np.power(k, -self.exponent))

    def to_json_dict(self, last_n: int) -> dict:
        return {"kind": "power-floor",
                "params": {"coef": self.coef, "exponent": self.exponent, "from_n": self.from_n},
                "block_floor": self.coef * 2.0 ** (-self.exponent),
                "description": self.description or
                f"terms >= {self.coef:g} n^-{self.exponent:g} beyond n={self.from_n}; "
                "every dyadic block clears a fixed floor"}


@dataclass(frozen=True)
class RecurringBlocks:
    """Externally certified blocks, each with sum >= floor, recurring forever."""

    floor: float
    blocks: tuple
    description: str
    verdict = DIVERGES

    def floors_at(self, n: np.ndarray) -> np.ndarray:
        """0 for every term: the floor belongs to the blocks, not to single terms."""
        return np.zeros(np.shape(n))

    def to_json_dict(self, last_n: int) -> dict:
        return {"kind": "recurring-blocks", "params": {"count": len(self.blocks)},
                "block_floor": self.floor, "description": self.description}


# ---------------------------------------------------------------------------
# Certificate builders for the structural cases the presets exercise
# ---------------------------------------------------------------------------


def _first_n(predicate, start: int, limit: int) -> Optional[int]:
    """Least n in [start, limit] where ``predicate`` (on an array of n) holds,
    searched in growing blocks."""
    size = 64
    while start <= limit:
        n = np.arange(start, min(start + size, limit + 1))
        hit = np.flatnonzero(predicate(n))
        if hit.size:
            return int(n[hit[0]])
        start, size = start + size, min(2 * size, 1 << 16)
    return None


def single_tail_certificate(d: Dist, w: WeightSeq, a: NormSeq, eps: float, horizon: int):
    """Certificate for the n*w(n)*P(|X| >= eps a(n)) series, when structure permits."""
    bound = distmodel.support_bound(d)
    if bound is not None and a.tends_to_infinity():
        n0 = _first_n(lambda n: eps * a.values(n) > bound, 1, horizon)
        if n0 is None:
            return None
        return VanishingEnvelope(from_n=n0,
                                 description=f"bounded support {bound:g}: the tail is 0 once "
                                             f"eps*a(n) > {bound:g}")
    if d.kind == "pareto_sym" and w.family is not None and a.family is not None:
        alpha, scale = d.params
        wf, af = w.family, a.family
        n0 = _first_n(lambda n: eps * a.values(n) >= scale, 2, horizon)
        if n0 is None:
            return None
        coef = wf.coef * (scale / eps) ** alpha * af.coef ** (-alpha)
        q = alpha * af.exponent - 1.0 - wf.exponent
        sv = wf.sv.combine(af.sv, -alpha)
        if q > 1.0:
            delta = sv.growth_exponent_bound(n0)
            cert, exponent, holds = PowerEnvelope, q - delta, q - delta > 1.0
            text = "exact symmetric-Pareto tail term"
        else:
            delta = sv.decay_exponent_bound(n0)
            cert, exponent, holds = PowerLowerBound, q + delta, q + delta <= 1.0
            text = "exact symmetric-Pareto tail term stays above a divergent power"
        coef = coef * sv.value(n0) * float(n0) ** delta
        # at a huge eps the coefficient underflows to 0, which bounds nothing
        if not holds or not 0.0 < coef < math.inf:
            return None
        return cert(coef=coef, exponent=exponent, from_n=n0, description=text)
    if d.kind == "normal_std" and w.family is not None and a.family is not None:
        wf = w.family
        if a.family.exponent < 0.5:
            return None
        delta = wf.sv.growth_exponent_bound(3)
        # The term is n*w(n)*erfc(x/sqrt(2)) <= n*w(n)*exp(-x^2/2) with
        # x = eps*a(n); exp(-x^2/2) <= n^-need makes it at most
        # coef * n^(1 + e + delta - need) = coef * n^-2, so the factor n
        # costs one power beyond the weight's own exponent e.
        need = 3.0 + wf.exponent + delta

        def ok(n: np.ndarray) -> np.ndarray:
            x2 = eps * eps * power(a.values(n), 2.0)
            return x2 / 2.0 >= need * libm(math.log, n)

        n0 = _first_n(ok, 3, horizon)
        if n0 is None or not ok(np.array([horizon // 2, horizon])).all():
            return None
        coef = wf.coef * wf.sv.value(n0) * float(n0) ** (-delta)
        return PowerEnvelope(coef=coef, exponent=2.0, from_n=n0,
                             description="Gaussian tail bound exp(-x^2/2) past the "
                                         f"crossover n={n0}")
    return None


def _spataru_shaped(a: NormSeq) -> bool:
    return (a.family is not None and a.family.exponent == 0.5
            and a.family.sv == SlowlyVarying(logn=0.5))


def exp_certificate(d: Dist, w: WeightSeq, a: NormSeq, eps: float):
    """Certificate for the exponential/adaptive-exponent series."""
    vb = distmodel.second_moment_bound(d)
    if vb is None or vb <= 0.0 or w.family is None or a.family is None:
        return None
    wf, af = w.family, a.family
    if _spataru_shaped(a):
        q = eps * eps * af.coef ** 2 / vb - wf.exponent
        if 1.0 < q < math.inf and wf.sv.is_trivial():  # q is inf at a huge eps
            return PowerEnvelope(coef=wf.coef, exponent=q, from_n=2,
                                 description=f"second moment <= {vb:g} caps the "
                                             "exponent at a summable power")
        return None
    if af.exponent >= 1.0 and af.sv.is_trivial() and wf.sv.is_trivial():
        kappa = 2.0 * af.exponent - 1.0
        c_exp = eps * eps * af.coef ** 2 / vb
        n0 = 4
        d_min = float(n0 + 1) ** kappa - float(n0) ** kappa
        ratio = math.exp(-c_exp * d_min) * (1.0 + 1.0 / n0) ** max(wf.exponent, 0.0)
        if ratio >= 1.0 or ratio ** n0 < sys.float_info.min:  # coef divides by a normal ratio^n0
            return None
        coef = (wf.coef * float(n0) ** wf.exponent
                * math.exp(-c_exp * float(n0) ** kappa) / ratio ** n0)
        return GeometricEnvelope(coef=coef, ratio=ratio, from_n=n0,
                                 description=f"second moment <= {vb:g} gives a "
                                             "geometric decay bound")
    return None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def summarize_series(series_id: str, n, term, params: dict, certificate=None,
                     evidence: tuple[str, ...] = (), emit=None, bound=None) -> SeriesReport:
    """Assemble a report from the columns ``n`` and ``term``, checking the
    certificate, if any, against every term; the report takes its verdict
    and its ``to_json_dict`` at the last n.

    All terms must be nonnegative.  The partial sums are ``prefix_sums`` of
    the terms: each is within u|S| + gamma_(n-1)^2 sum|x| of the exact sum
    S (u = 2^-53), a deterministic function of the terms, so reports are
    bit-reproducible.  ``emit`` (a boolean mask or index array over the
    terms) picks the rows the report carries; every term is still checked
    and summed.  ``bound``, when given, is ``certificate.values_at(n)``.
    """
    n = np.asarray(n, dtype=np.int64)
    term = np.asarray(term, dtype=np.float64)
    negative = ~(term >= 0.0)
    over = under = np.zeros(term.shape, dtype=bool)
    verdict = UNDETERMINED if certificate is None else certificate.verdict
    if verdict == CONVERGES:
        bound = certificate.values_at(n) if bound is None else bound
        over = term > bound * (1.0 + _ENVELOPE_SLACK)
    elif verdict == DIVERGES:
        floor = certificate.floors_at(n)
        under = term < floor * (1.0 - _ENVELOPE_SLACK)
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
    partial = prefix_sums(term)
    check_partial_sums(n, term, partial)
    keep = slice(None) if emit is None else emit
    rows = tuple(SeriesRow(n=k, term=t, partial_sum=ps) for k, t, ps in
                 zip(n[keep].tolist(), term[keep].tolist(), partial[keep].tolist()))
    last_n = int(n[-1]) if n.size else 0
    rendered = None if certificate is None else certificate.to_json_dict(last_n)
    return SeriesReport(series_id, dict(params), rows, verdict, certificate=rendered,
                        evidence=evidence)
