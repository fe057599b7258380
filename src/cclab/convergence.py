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

Verdicts are certificates: a report converges only against a verified
analytic envelope and diverges only against a recurring block floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import distmodel
from .distmodel import Dist
# Unused here, but the benchmark tracer (perfbench/tracer.py) wraps this binding by name.
from .distmodel import truncated_moment  # noqa: F401
from .reports import (CONVERGES, DIVERGES, UNDETERMINED, ConvergenceBound,
                      DivergenceBound, SeriesReport, SeriesRow, check_partial_sums)
from .seqkit import NormSeq, WeightSeq, kahan_partials, libm

_ENVELOPE_SLACK = 1e-9  # relative tolerance when checking computed terms against envelopes


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
