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

Verdicts are certificates, built and checked here.  Each names its
``verdict``, bounds every term (``values_at``: from above when it converges,
from below when it diverges) and renders itself (``to_json_dict(last_n)``):
one ``seqkit.TermBound`` for every vanishing, power, Gaussian and exponential
envelope and power floor, and ``RecurringBlocks``.
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
from .reports import CONVERGES, DIVERGES, UNDETERMINED, SeriesReport, check_partial_sums
from .seqkit import (_TINY, NormSeq, SlowlyVarying, TermBound, WeightSeq, libm, log_or_inf,
                     prefix_sums)

# Relative tolerance when checking computed terms against bounds; it dwarfs
# the few ulp of numpy's log and exp, so the bounds need not go through libm.
_ENVELOPE_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def _arrays(*xs) -> tuple:
    return tuple(np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in xs)


def _exponent(x: np.ndarray, n: np.ndarray, formula: str) -> np.ndarray:
    """x, the exponent ``formula`` at every n; it raises at the first n where x
    is NaN.  Every NaN exponent counts as a value past the double range: its
    parts are inf / inf, or T is NaN, which the laws' T forms only from parts
    past the doubles (0 * inf).  A NaN T from a defect in a law would be
    reported the same way, not as an internal error."""
    bad = np.flatnonzero(np.isnan(x))
    if bad.size:
        k = np.broadcast_to(n, x.shape).ravel()[bad[0]]
        raise OverflowError(f"the exponent {formula} is NaN at n={k:.0f}")
    return x


def single_tail_terms(d: Dist, w, a, eps: float, n) -> np.ndarray:
    """n * w(n) * P(|X| >= eps * a(n)), where ``w`` and ``a`` hold w(n) and a(n)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    w, a, n = _arrays(w, a, n)
    with np.errstate(over="ignore"):  # an inf cutoff is right: its tail is 0
        cut = eps * a
    return n * w * distmodel.tails(d, cut)


def exp_terms(w, a, eps: float, n, t) -> np.ndarray:
    """w(n) * exp(-eps^2 a(n)^2 / (n * T)), zero where T vanishes; ``w``, ``a``
    and ``t`` hold w(n), a(n) and T."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    w, a, n, t = _arrays(w, a, n, t)
    # exp(-inf) = 0 where T is 0 (set, as eps^2 may underflow: 0/0) or subnormal
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.where(t == 0.0, -math.inf, -(eps * eps * a * a) / (n * t))
    return w * libm(math.exp, _exponent(x, n, "-eps^2 a(n)^2 / (n T)"))


def adaptive_exponent_terms(eps: float, n, t) -> np.ndarray:
    """n^(-1 - eps^2/T), zero where T vanishes; ``t`` holds T truncated at
    eps * (n log n)^{1/2}."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n, t = _arrays(n, t)
    if (n < 2).any():
        raise ValueError("adaptive-exponent terms start at n = 2")
    # pow(n, -inf) = 0 where T is 0 (set, as eps^2 may underflow: 0/0) or subnormal
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.where(t == 0.0, -math.inf, -1.0 - eps * eps / t)
    return libm(pow, n, _exponent(x, n, "-1 - eps^2 / T"))


def single_tail_term(d: Dist, w: WeightSeq, a: NormSeq, eps: float, n: int) -> float:
    """n * w(n) * P(|X| >= eps * a(n)), one point of ``single_tail_terms``."""
    return float(single_tail_terms(d, w(n), a(n), eps, n)[0])


def exp_term(d: Dist, w: WeightSeq, a: NormSeq, eps: float, n: int) -> float:
    """w(n) * exp(-eps^2 a(n)^2 / (n * T)), one point of ``exp_terms``."""
    an = a(n)
    return float(exp_terms(w(n), an, eps, n, distmodel.truncated_second_moments(d, eps * an))[0])


def adaptive_exponent_term(d: Dist, eps: float, n: int) -> float:
    """n^(-1 - eps^2/T), one point of ``adaptive_exponent_terms``."""
    t = distmodel.truncated_second_moments(d, eps * np.sqrt(n * libm(math.log, n)))
    return float(adaptive_exponent_terms(eps, n, t)[0])


def weighted_term(w: WeightSeq, n: int, p_est: float) -> float:
    """w(n) * p for an externally supplied probability p."""
    if not 0.0 <= p_est <= 1.0:
        raise ValueError("p_est must lie in [0, 1]")
    return w(n) * p_est


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurringBlocks:
    """Externally certified blocks, each with sum >= floor, recurring forever."""

    floor: float
    blocks: tuple
    description: str
    verdict = DIVERGES

    def values_at(self, n: np.ndarray) -> np.ndarray:
        """0 for every term: the floor belongs to the blocks, not to single terms."""
        return np.zeros(np.shape(n))

    def to_json_dict(self, last_n: int) -> dict:
        return {"kind": "recurring-blocks", "params": {"count": len(self.blocks)},
                "block_floor": self.floor, "description": self.description}


# ---------------------------------------------------------------------------
# Certificate builders for the structural cases the presets exercise
# ---------------------------------------------------------------------------


def _certified(bound: TermBound) -> Optional[TermBound]:
    """``bound`` if it is a floor with a positive block floor or an envelope with a finite tail."""
    if bound.floor:
        return bound if bound.block_floor() > 0.0 else None
    return bound if bound.tail_beyond(bound.from_n - 1) < math.inf else None


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
    if bound is not None and a.family is not None and a.family.exponent > 0:
        with np.errstate(over="ignore"):  # an inf cutoff lies past the support
            n0 = _first_n(lambda n: eps * a.values(n) > bound, 1, horizon)
        if n0 is None:
            return None
        return TermBound(-math.inf, 0.0, from_n=n0,
                         description=f"bounded support {bound:g}: the tail is 0 once "
                                     f"eps*a(n) > {bound:g}")
    if d.kind == "pareto_sym" and w.family is not None and a.family is not None:
        alpha, scale = d.params
        wf, af = w.family, a.family
        # the tail is exact from the first cutoff at or past the scale that keeps every digit
        with np.errstate(over="ignore"):
            n0 = _first_n(lambda n: eps * a.values(n) >= max(scale, _TINY), 2, horizon)
        if n0 is None:
            return None
        # the term is exactly coef n^-q sv(n) from n0 on; sv(n) <= or >= sv(n0) (n/n0)^delta
        q, sv = alpha * af.exponent - 1.0 - wf.exponent, wf.sv.combine(af.sv, -alpha)
        floor = q <= 1.0
        sign = -1.0 if floor else 1.0
        # the slack delta falls with the start, so a start at n0, 2 n0, 4 n0, ...
        # (at most horizon + 1) may leave q - delta on q's side of 1
        delta = sv.exponent_bound(n0, sign)
        while (q - delta > 1.0) == floor and 2 * n0 <= horizon + 1:
            n0 *= 2
            delta = sv.exponent_bound(n0, sign)
        log_coef = (log_or_inf(wf.coef) + sv.log_values(n0, math.log) - delta * math.log(n0)
                    + alpha * (math.log(scale) - math.log(eps) - math.log(af.coef)))
        if floor and (q - delta > 1.0 or log_coef == -math.inf):
            return None
        return _certified(TermBound(log_coef, q - delta, from_n=n0, floor=floor,
                                    description="exact symmetric-Pareto tail term" +
                                    (" stays above a divergent power" if floor else "")))
    if d.kind == "normal_std" and w.family is not None and a.family is not None:
        wf = w.family
        if a.family.exponent < 0.5:
            return None
        delta = wf.sv.exponent_bound(3)
        # The term is n*w(n)*erfc(x/sqrt(2)) <= n*w(n)*exp(-x^2/2) with
        # x = eps*a(n); exp(-x^2/2) <= n^-need makes it at most
        # coef * n^(1 + e + delta - need) = coef * n^-2, so the factor n
        # costs one power beyond the weight's own exponent e.
        need = 3.0 + wf.exponent + delta

        def ok(n: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):  # an inf x^2 passes, as it should
                x2 = eps * eps * libm(pow, a.values(n), 2.0)
            return x2 / 2.0 >= need * libm(math.log, n)

        n0 = _first_n(ok, 3, horizon)
        if n0 is None or not ok(np.array([horizon // 2, horizon])).all():
            return None
        log_coef = log_or_inf(wf.coef) + wf.sv.log_values(n0, math.log) - delta * math.log(n0)
        return _certified(TermBound(log_coef, 2.0, from_n=n0,
                                    description="Gaussian tail bound exp(-x^2/2) past the "
                                                f"crossover n={n0}"))
    return None


def exp_certificate(d: Dist, w: WeightSeq, a: NormSeq, eps: float):
    """Certificate for the exponential/adaptive-exponent series.

    T <= vb, the second-moment bound, so eps^2 a(n)^2 / (n T) >= c n^(2 rho - 1)
    for a(n) = A n^rho, with c = eps^2 A^2 / vb.  The terms are then at most
    w(n) exp(-c n^kappa), kappa = 2 rho - 1 > 0; at a(n) = (n log n)^(1/2)
    the exponent is c log n, and the terms are at most w(n) n^-c.
    """
    vb = distmodel.second_moment_bound(d)
    if vb is None or vb <= 0.0 or w.family is None or a.family is None:
        return None
    wf, af = w.family, a.family
    c = eps * af.coef * (eps * af.coef) / vb
    if not 0.0 < c < math.inf:  # at a huge eps or a subnormal vb, c is inf
        return None
    if af.exponent == 0.5 and af.sv == SlowlyVarying(logn=0.5):
        shape, text = {"exponent": c - wf.exponent}, "caps the exponent at a summable power"
    elif af.exponent > 0.5 and af.sv.is_trivial():
        shape = {"exponent": 0.0 - wf.exponent, "rate": c, "kappa": 2.0 * af.exponent - 1.0}
        text = "bounds the terms by w(n) exp(-c n^kappa)"
    else:
        return None
    return _certified(TermBound(log_or_inf(wf.coef), sv=wf.sv, from_n=2,
                                description=f"second moment <= {vb:g} {text}", **shape))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def summarize_series(series_id: str, n, term, params: dict, certificate=None,
                     evidence: tuple[str, ...] = (), bound=None) -> SeriesReport:
    """Assemble a report from the columns ``n`` and ``term``, checking the
    certificate, if any, against every term; the report takes its verdict
    and its ``to_json_dict`` at the last n.

    All terms must be nonnegative.  The partial sums are ``prefix_sums`` of
    the terms: each is within u|S| + gamma_(n-1)^2 sum|x| of the exact sum
    S (u = 2^-53), a deterministic function of the terms, so reports are
    bit-reproducible.  The report carries the rows n <= 8, the powers of two
    and the last n; every term is still checked and summed.  ``bound``, when
    given, is ``certificate.values_at(n)``.
    """
    n = np.asarray(n, dtype=np.int64)
    term = np.asarray(term, dtype=np.float64)
    negative = ~(term >= 0.0)
    over = under = np.zeros(term.shape, dtype=bool)
    verdict = UNDETERMINED if certificate is None else certificate.verdict
    if certificate is not None:
        bound = certificate.values_at(n) if bound is None else bound
    if verdict == CONVERGES:
        over = term > bound * (1.0 + _ENVELOPE_SLACK)
    elif verdict == DIVERGES:
        under = term < bound * (1.0 - _ENVELOPE_SLACK)
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
                         f"below {float(bound[i])!r}")
    partial = prefix_sums(term)
    check_partial_sums(n, term, partial)
    last_n = int(n[-1]) if n.size else 0
    keep = (n <= 8) | ((n & (n - 1)) == 0) | (n == last_n)
    rows = tuple({"n": k, "term": t, "partial_sum": ps} for k, t, ps in
                 zip(n[keep].tolist(), term[keep].tolist(), partial[keep].tolist()))
    rendered = None if certificate is None else certificate.to_json_dict(last_n)
    return SeriesReport(series_id, dict(params), rows, verdict, certificate=rendered,
                        evidence=evidence)
