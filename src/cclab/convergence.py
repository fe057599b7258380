"""Per-term series evaluation and verdict assembly.

The two term families:

* single-variable tail terms  n * w(n) * P(|X| >= eps * a(n)),
* exponential terms           w(n) * exp(-eps^2 a(n)^2 / (n * T)), with
  T = E[X^2 1{|X| < eps a(n)}] and the convention exp(-t/0) = 0 for t > 0,

plus weighted plug-in terms w(n) * p for an externally estimated or exact
probability p.  With w(n) = 1/n and a(n) = (n log n)^{1/2} the exponential
term is the adaptive-exponent term n^(-1 - eps^2/T) of Spataru's question, so
that series is the exponential column, and ``adaptive_exponent_term`` is its
one-point form.  Each family is computed on arrays of n (``single_tail_terms``,
``exp_terms``); the one-term functions are their one-point forms.

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
from .seqkit import (_PAD, _TINY, NormSeq, SlowlyVarying, TermBound, WeightSeq, libm, log_or_inf,
                     prefix_sums)

# Relative tolerance when checking computed terms against bounds; it dwarfs
# the few ulp of numpy's log and exp, so the bounds may skip libm.
_ENVELOPE_SLACK = 1e-9
_LN2 = math.log(2.0)


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
    with np.errstate(over="ignore"):  # an inf cutoff has a tail of 0
        cut = eps * a
    a, p, nw = np.broadcast_arrays(a, distmodel.tails(d, cut), n * w)
    out = nw * p
    # Below the normal doubles P has lost digits, and past them eps a(n) has (a
    # Pareto tail is not 0 there): a law with the closed form forms n w(n) P
    if d.scaled_tails is not None:
        low = np.flatnonzero((p < _TINY) & (nw > 0.0) & (nw < math.inf))
        if low.size:
            out[low] = d.scaled_tails(eps, a[low], nw[low])
    return out


def exp_terms(w, a, eps: float, n, t) -> np.ndarray:
    """w(n) * exp(-eps^2 a(n)^2 / (n * T)), zero where T vanishes; ``w``, ``a``
    and ``t`` hold w(n), a(n) and T."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    w, a, n, t = _arrays(w, a, n, t)
    # exp(-inf) = 0 where T is 0 (set, as eps^2 may underflow: 0/0) or subnormal
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.where(t == 0.0, -math.inf, -(eps * eps * a * a) / (n * t))
    # A NaN x counts as a value past the double range: its parts are inf / inf,
    # or T is NaN, which the laws' T forms only from parts past the doubles
    # (0 * inf).  A NaN T from a defect in a law would be reported the same way,
    # not as an internal error.
    if (bad := np.flatnonzero(np.isnan(x))).size:
        k = np.broadcast_to(n, x.shape).ravel()[bad[0]]
        raise OverflowError(f"the exponent -eps^2 a(n)^2 / (n T) is NaN at n={k:.0f}")
    w, x = np.broadcast_arrays(w, x)
    e = libm(math.exp, x)
    out = w * e
    # Below the normal doubles exp(x) has lost digits, so there the term is
    # exp(log w(n) + x), log w(n) = log 4m + (k - 2) log 2 for w(n) = m 2^k
    # (libm's loop takes 4m in [2, 4)), where x + log max w > -746: below that
    # both forms are 0 or the least subnormal, and libm's first pass fills exp(x)
    # below -745.2 with 0.0 instead of computing it.
    least = -746.0 - log_or_inf(float(w.max(initial=0.0)))
    low = np.flatnonzero((e < _TINY) & (x > least) & (w > 0.0))
    if low.size:
        m, k = np.frexp(w[low])
        out[low] = libm(math.exp, libm(math.log, 4.0 * m) + (k - 2) * _LN2 + x[low])
    return out


def single_tail_term(d: Dist, w: WeightSeq, a: NormSeq, eps: float, n: int) -> float:
    """n * w(n) * P(|X| >= eps * a(n)), one point of ``single_tail_terms``."""
    return float(single_tail_terms(d, w(n), a(n), eps, n)[0])


def exp_term(d: Dist, w: WeightSeq, a: NormSeq, eps: float, n: int) -> float:
    """w(n) * exp(-eps^2 a(n)^2 / (n * T)), one point of ``exp_terms``."""
    an = a(n)
    return float(exp_terms(w(n), an, eps, n, distmodel.truncated_second_moments(d, eps * an))[0])


def adaptive_exponent_term(d: Dist, eps: float, n: int) -> float:
    """n^(-1 - eps^2/T) at the cutoff eps (n log n)^{1/2}: one point of ``exp_terms``
    at w(n) = 1/n and a(n) = (n log n)^{1/2}, where the two terms are one formula.
    1/n is formed as pow(n, -1), as the power-law weights form it."""
    an = np.sqrt(n * libm(math.log, n))
    t = distmodel.truncated_second_moments(d, eps * an)
    return float(exp_terms(libm(pow, n, -1.0), an, eps, n, t)[0])


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
    """Certificate for the n*w(n)*P(|X| >= eps a(n)) series from the law's
    support bound or its ``tail_shape``, when structure permits."""
    bound = distmodel.support_bound(d)
    if bound is not None and a.family is not None and a.family.exponent > 0:
        with np.errstate(over="ignore"):  # an inf cutoff lies past the support
            n0 = _first_n(lambda n: eps * a.values(n) > bound, 1, horizon)
        if n0 is None:
            return None
        return TermBound(-math.inf, 0.0, from_n=n0,
                         description=f"bounded support {bound:g}: the tail is 0 once "
                                     f"eps*a(n) > {bound:g}")
    shape = d.tail_shape()
    if shape is None or w.family is None or a.family is None:
        return None
    wf, af = w.family, a.family
    if shape.alpha is not None:
        alpha, scale = shape.alpha, shape.scale
        with np.errstate(over="ignore"):  # from where the tail is exact
            n0 = _first_n(lambda n: eps * a.values(n) >= shape.start, 2, horizon)
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
        # a coefficient or an exponent past the doubles (alpha 1e308) bounds nothing
        if not (log_coef < math.inf and abs(q - delta) < math.inf) or (
                floor and (q - delta > 1.0 or log_coef == -math.inf)):
            return None
        return _certified(TermBound(log_coef, q - delta, from_n=n0, floor=floor,
                                    description="exact symmetric-Pareto tail term" +
                                    (" stays above a divergent power" if floor else "")))
    return _gaussian_envelope(w, a, eps, 2.0, 1, horizon, "Gaussian tail bound exp(-x^2/2)")


def exp_certificate(d: Dist, w: WeightSeq, a: NormSeq, eps: float, horizon: int):
    """Certificate for the exponential/adaptive-exponent series: T <= vb, the
    second-moment bound, so the terms are at most w(n) exp(-eps^2 a(n)^2 / (n vb))."""
    vb = distmodel.second_moment_bound(d)
    if vb is None or vb <= 0.0:
        return None
    return _gaussian_envelope(w, a, eps, vb, 0, horizon, f"second moment <= {vb:g}")


def _gaussian_envelope(w: WeightSeq, a: NormSeq, eps: float, div: float, s: int,
                       horizon: int, text: str) -> Optional[TermBound]:
    """Envelope of w(n) n^s exp(-eps^2 a(n)^2 / (div n^(1-s))), s = 0 or 1, for
    a(n) = A n^rho sv(n): from n0 on sv(k) >= sv(n0) (k/n0)^delta
    (``exponent_bound(n0, -1)``), so the exponent is at least c n^kappa with
    c = (eps A)^2 sv(n0)^2 n0^(-2 delta) / div, rounded down, and
    kappa = 2 (rho + delta) - (1 - s).  n0 = 2, 4, 8, ... (at most horizon + 1)
    until kappa > 0 and the tail bound is finite.  At a(n) = A (n log n)^(1/2)
    and s = 0 the exponent is c log n, and the terms are at most w(n) n^-c."""
    if w.family is None or a.family is None:
        return None
    wf, af = w.family, a.family
    c = eps * af.coef * (eps * af.coef) / div  # at a huge eps or a subnormal div, c is inf
    if s == 0 and af.exponent == 0.5 and af.sv == SlowlyVarying(logn=0.5):
        if not 0.0 < c < math.inf:
            return None
        return _certified(TermBound(log_or_inf(wf.coef), c - wf.exponent, sv=wf.sv, from_n=2,
                                    description=f"{text} caps the exponent at a summable power"))
    sv = af.sv
    for n0 in (1 << j for j in range(1, (horizon + 1).bit_length())):
        delta = sv.exponent_bound(n0, -1.0) * (1.0 + _PAD)
        kappa, rate = 2.0 * (af.exponent + delta) - (1 - s), c
        if not sv.is_trivial():
            log_f = 2.0 * (sv.log_values(n0, math.log) - delta * math.log(n0))
            rate *= math.exp(log_f - _PAD * (1.0 + abs(log_f)))
        if not (0.0 < rate < math.inf and 0.0 < kappa < math.inf):
            continue
        bound = _certified(TermBound(log_or_inf(wf.coef), -s - wf.exponent, sv=wf.sv, rate=rate,
                                     kappa=kappa, from_n=n0, description=f"{text} bounds the "
                                     f"terms by w(n) {'n ' * s}exp(-c n^kappa)"))
        if bound is not None:
            return bound
    return None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _head_length(term) -> int:
    """1 + the index of the last nonzero term (NaN counts), 0 if every term is +-0."""
    term = np.asarray(term)
    if term.size and term[-1] != 0.0:  # no zero tail: the common case costs no scan
        return term.size
    nonzero = (term != 0.0)[::-1]
    return nonzero.size - int(nonzero.argmax()) if nonzero.any() else 0


def exponential_reports(n, term, eps: float, envelope, adaptive: bool) -> list[SeriesReport]:
    """The exponential series' report and, when ``adaptive``, the adaptive-exponent
    series', the same terms from n = 2 on under the same ``envelope`` (an
    ``exp_certificate``, or None): its values are formed once, on the head
    that both reports check."""
    params = {"eps": eps}
    bound = None if envelope is None else envelope.values_at(n[:_head_length(term)])
    reports = [summarize_series("exponential", n, term, params, envelope, bound=bound)]
    if adaptive:
        reports.append(summarize_series("adaptive-exponent", n[1:], term[1:], params, envelope,
                                        bound=None if bound is None else bound[1:]))
    return reports


def summarize_series(series_id: str, n, term, params: dict, certificate=None,
                     evidence: tuple[str, ...] = (), bound=None) -> SeriesReport:
    """Assemble a report from the columns ``n`` and ``term``, checking the
    certificate, if any, against every term; the report takes its verdict
    and its ``to_json_dict`` at the last n.

    All terms must be nonnegative.  The partial sums are ``prefix_sums`` of
    the terms: each is within u|S| + gamma_(n-1)^2 sum|x| of the exact sum
    S (u = 2^-53), a deterministic function of the terms, so reports are
    bit-reproducible.  The report carries the rows n <= 8, the powers of two
    and the last n.

    Only the head, the terms up to the last nonzero one, is summed and
    checked: past it every Sum2 prefix is the head's last (s + 0 = s, and
    TwoSum's error of adding 0 is 0), and no zero exceeds an envelope (0 > b
    is false for b >= 0, inf or NaN).  A floor is checked at every n, as a
    zero breaks a positive floor.  ``bound``, when given, is
    ``certificate.values_at`` over at least the checked n.
    """
    n = np.asarray(n, dtype=np.int64)
    term = np.asarray(term, dtype=np.float64)
    verdict = UNDETERMINED if certificate is None else certificate.verdict
    head = _head_length(term)
    checked = term.size if verdict == DIVERGES else head
    checked_terms = term[:checked]
    negative = ~(checked_terms >= 0.0)
    over = under = np.zeros(checked, dtype=bool)
    if certificate is not None:
        bound = certificate.values_at(n[:checked]) if bound is None else bound[:checked]
    if verdict == CONVERGES:
        over = checked_terms > bound * (1.0 + _ENVELOPE_SLACK)
    elif verdict == DIVERGES:
        under = checked_terms < bound * (1.0 - _ENVELOPE_SLACK)
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
    partial = prefix_sums(term[:head])
    check_partial_sums(n[:head], term[:head], partial)
    last_n = int(n[-1]) if n.size else 0
    keep = np.flatnonzero((n <= 8) | ((n & (n - 1)) == 0) | (n == last_n))
    sums = partial[np.minimum(keep, head - 1)] if head else np.zeros(keep.size)
    rows = tuple({"n": k, "term": t, "partial_sum": ps} for k, t, ps in
                 zip(n[keep].tolist(), term[keep].tolist(), sums.tolist()))
    rendered = None if certificate is None else certificate.to_json_dict(last_n)
    return SeriesReport(series_id, dict(params), rows, verdict, certificate=rendered,
                        evidence=evidence)
