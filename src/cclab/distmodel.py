"""Random-variable models: exact tails, truncated moments, and samplers.

Tails and truncated moments are closed form wherever a closed form exists;
the standard normal falls back to adaptive quadrature at 1e-12 absolute
tolerance.  Every finite atom law (``rademacher``, ``atomic_sym``,
``atomic``) is one signed (value, mass) table, with the remaining mass at 0,
and runs through one code path.  ``tails`` and
``truncated_moments`` take arrays of cutoffs; ``tail`` and
``truncated_moment`` are their one-point forms.  The log-atomic kind keeps
atom positions and weights in the log domain so that masses far below the
smallest subnormal double remain usable; it cannot be sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .seqkit import NormSeq, libm


class SamplingUnavailable(RuntimeError):
    """Raised when a distribution's atom probabilities cannot be realized."""


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_MASS_TOL = 1e-12


def log_plus(x: float) -> float:
    """log(2 + x); bounded below by log 2, so it is safe as a denominator."""
    if x < 0:
        raise ValueError("log_plus is defined for x >= 0")
    return math.log(2.0 + x)


def _normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _logsumexp(values) -> float:
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


@dataclass(frozen=True)
class TruncatedMoment:
    """E[|X|^order 1{|X| < cutoff}]; nondecreasing in the cutoff."""

    order: float
    cutoff: float
    value: float


@dataclass(frozen=True)
class MomentValue:
    """An extended real: either a finite value or a certified divergence."""

    finite: bool
    value: Optional[float]
    reason: str = ""


@dataclass(frozen=True)
class Dist:
    kind: str
    params: tuple
    symmetric: bool


def rademacher() -> Dist:
    return _atom_law("rademacher", [(-1.0, 0.5), (1.0, 0.5)])


def uniform_sym(half_width: float) -> Dist:
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    return Dist("uniform_sym", (float(half_width),), True)


def normal_std() -> Dist:
    return Dist("normal_std", (), True)


def pareto_sym(alpha: float, scale: float = 1.0) -> Dist:
    """Symmetric power tail: P(|X| >= t) = min(1, (scale/t)^alpha)."""
    if alpha <= 0 or scale <= 0:
        raise ValueError("alpha and scale must be positive")
    return Dist("pareto_sym", (float(alpha), float(scale)), True)


# The kinds whose params are one signed (value, mass) table.
_ATOM_KINDS = ("rademacher", "atomic_sym", "atomic")


def _atom_law(kind: str, pairs) -> Dist:
    """The one finite atom law: a signed (value, mass) table in the order of
    ``pairs``, equal values merged where they first occur; the remaining mass
    is the implied atom at 0.  Symmetric when every atom's mirror image
    carries the same mass."""
    table: dict[float, float] = {}
    for v, p in pairs:
        if not math.isfinite(v):
            raise ValueError("atom values must be finite")
        if not p > 0:
            raise ValueError("atom weights must be positive")
        if v == 0:
            raise ValueError("list only nonzero atoms; mass at 0 is implied")
        table[v] = table.get(v, 0.0) + p
    total = sum(table.values())
    if total > 1.0 + _MASS_TOL:
        raise ValueError(f"atom mass {total} exceeds 1")
    sym = all(abs(table.get(-v, 0.0) - p) <= _MASS_TOL for v, p in table.items())
    return Dist(kind, (tuple(table.items()),), sym)


def _by_value(atoms) -> list:
    return sorted(((float(v), float(p)) for v, p in atoms), key=lambda a: a[0])


def atomic_sym(atoms) -> Dist:
    """Atoms at +-v with P(|X| = v) = w; remaining mass sits at 0.

    ``atoms`` is an iterable of (value, weight) with value > 0; the weight is
    the total mass of the +-value pair.  The table holds the pairs -v, +v
    with mass w/2 each, in ascending v.
    """
    pairs = _by_value(atoms)
    if any(v <= 0 for v, _ in pairs):
        raise ValueError("atomic_sym values must be strictly positive")
    return _atom_law("atomic_sym", [(s * v, 0.5 * w) for v, w in pairs for s in (-1.0, 1.0)])


def atomic(atoms) -> Dist:
    """General finite atomic distribution; remaining mass sits at 0.

    ``atoms`` is an iterable of (value, probability) with value != 0; the
    table holds them in ascending value.
    """
    return _atom_law("atomic", _by_value(atoms))


def log_atomic_sym(log_atoms) -> Dist:
    """Atoms at +-exp(log_value) with log P(|X| = v) = log_weight.

    The total atom mass must not exceed 1 (checked by log-sum-exp within
    1e-12 in the log domain); the remainder is the implied atom at 0.
    """
    cleaned = tuple(sorted((float(lv), float(lw)) for lv, lw in log_atoms))
    if any(not math.isfinite(lv) or not math.isfinite(lw) for lv, lw in cleaned):
        raise ValueError("log-atoms must be finite in the log domain")
    total_log = _logsumexp(lw for _, lw in cleaned)
    if total_log > 0.0 + _MASS_TOL:
        raise ValueError(f"log-atom mass exp({total_log}) exceeds 1")
    return Dist("log_atomic_sym", (cleaned,), True)


# ---------------------------------------------------------------------------
# Tails
# ---------------------------------------------------------------------------


def _rest(table) -> float:
    """Mass of the implied atom at 0."""
    return max(1.0 - sum(p for _, p in table), 0.0)


def _abs_law(d: Dist) -> tuple[list, list]:
    """Law of |X| for a finite atom law: ascending magnitudes from 0, each
    with the mass at -v plus the mass at +v, added in table order."""
    (table,) = d.params
    mass = {0.0: _rest(table)}
    for v, p in table:
        mass[abs(v)] = mass.get(abs(v), 0.0) + p
    mags = sorted(mass)
    return mags, [mass[m] for m in mags]


def _by_level(keys: list, cut: np.ndarray, terms: list, below: bool,
              total=sum) -> np.ndarray:
    """total(terms) over the atoms with key < c (``below``) or key >= c, for
    every cutoff c; ``keys`` ascending, in the order of ``terms``.

    The kept atoms are a prefix or a suffix, so ``total`` runs once per
    split point, over the terms in ascending order: the same sum, in the
    same order, as the one-cutoff formula.
    """
    sums = np.array([total(terms[:i] if below else terms[i:]) for i in range(len(keys) + 1)],
                    dtype=np.float64)
    return sums[np.searchsorted(keys, cut, side="left")]


def _log_total(log_terms) -> float:
    """exp(logsumexp(log_terms)), exactly 0 for no terms."""
    s = _logsumexp(log_terms)
    return math.exp(s) if s > -math.inf else 0.0


def tails(d: Dist, lam) -> np.ndarray:
    """Exact P(|X| >= lam) for an array of thresholds; nonincreasing and
    right-continuous in lam."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if not (lam >= 0.0).all():
        raise ValueError("threshold must be a nonnegative real")
    pos = lam > 0.0
    out = np.ones(lam.shape)
    if d.kind in _ATOM_KINDS:
        mags, masses = _abs_law(d)
        out[pos] = _by_level(mags, lam[pos], masses, below=False)
    elif d.kind == "uniform_sym":
        (h,) = d.params
        out = np.maximum(0.0, 1.0 - lam / h)
    elif d.kind == "normal_std":
        out = libm(math.erfc, lam / _SQRT2)
    elif d.kind == "pareto_sym":
        alpha, scale = d.params
        far = lam > scale
        out[far] = libm(pow, scale / lam[far], alpha)
    elif d.kind == "log_atomic_sym":
        (atoms,) = d.params
        out[pos] = _by_level([lv for lv, _ in atoms], libm(math.log, lam[pos]),
                             [lw for _, lw in atoms], below=False, total=_log_total)
    else:
        raise ValueError(f"unknown distribution kind {d.kind!r}")
    out[~pos] = 1.0
    return out


def tail(d: Dist, lam: float) -> float:
    """Exact P(|X| >= lam), the one-point form of ``tails``."""
    return float(tails(d, lam)[0])


# ---------------------------------------------------------------------------
# Truncated moments
# ---------------------------------------------------------------------------


def truncated_moments(d: Dist, nu: float, b) -> np.ndarray:
    """E[|X|^nu 1{|X| < b}] for an array of cutoffs, strict at the cutoff."""
    if nu < 0:
        raise ValueError("moment order must be >= 0")
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if not (b > 0.0).all():
        raise ValueError("cutoff must be positive")
    if d.kind in _ATOM_KINDS:
        mags, masses = _abs_law(d)
        return _by_level(mags, b, [q * m ** nu for m, q in zip(mags, masses)], below=True)
    if d.kind == "uniform_sym":
        (h,) = d.params
        return libm(pow, np.minimum(b, h), nu + 1.0) / (h * (nu + 1.0))
    if d.kind == "normal_std":
        if nu == 2.0:
            return (2.0 * libm(_normal_cdf, b) - 1.0) - 2.0 * b * libm(_normal_pdf, b)
        if nu == 0.0:
            return 2.0 * libm(_normal_cdf, b) - 1.0
        from scipy import integrate
        return np.array([integrate.quad(lambda x: 2.0 * x ** nu * _normal_pdf(x),
                                        0.0, c, epsabs=1e-12, limit=200)[0]
                         for c in b.tolist()])
    if d.kind == "pareto_sym":
        alpha, scale = d.params
        out = np.zeros(b.shape)
        far = b > scale
        k = alpha * scale ** alpha
        if nu == alpha:
            out[far] = k * libm(math.log, b[far] / scale)
        else:
            out[far] = k * (libm(pow, b[far], nu - alpha) - scale ** (nu - alpha)) / (nu - alpha)
        return out
    if d.kind == "log_atomic_sym":
        (atoms,) = d.params
        out = _by_level([lv for lv, _ in atoms], libm(math.log, b),
                        [lw + nu * lv for lv, lw in atoms], below=True, total=_log_total)
        if nu == 0.0:  # |X|^0 = 1 at the implied atom at 0 too
            out = max(1.0 - _log_total([lw for _, lw in atoms]), 0.0) + out
        return out
    raise ValueError(f"unknown distribution kind {d.kind!r}")


def truncated_moment(d: Dist, nu: float, b: float) -> TruncatedMoment:
    """E[|X|^nu 1{|X| < b}], the one-point form of ``truncated_moments``."""
    return TruncatedMoment(order=nu, cutoff=b, value=float(truncated_moments(d, nu, b)[0]))


def truncated_second_moment(d: Dist, eps: float, norms: NormSeq, n: int) -> float:
    """E[X^2 1{|X| < eps * a(n)}], the variance proxy behind the exponential terms."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return truncated_moment(d, 2.0, eps * norms(n)).value


# ---------------------------------------------------------------------------
# Weighted second moments
# ---------------------------------------------------------------------------


def _moment_weight(form: str, delta: Optional[float]):
    if form == "inv_logplus":
        return lambda x: x * x / log_plus(x)
    if form == "loglog_delta":
        if delta is None or delta <= 0:
            raise ValueError("loglog_delta form needs delta > 0")
        return lambda x: x * x * log_plus(log_plus(x)) ** (1.0 + delta) / log_plus(x)
    raise ValueError(f"unknown weighted-moment form {form!r}")


def weighted_second_moment(d: Dist, form: str = "inv_logplus",
                           delta: Optional[float] = None) -> MomentValue:
    """E[X^2 / log_plus|X|] or E[X^2 (log_plus log_plus|X|)^(1+delta) / log_plus|X|].

    Returns a certified divergence flag for symmetric Pareto tails that are
    too heavy instead of a sentinel float.
    """
    wf = _moment_weight(form, delta)
    if d.kind in _ATOM_KINDS:
        mags, masses = _abs_law(d)
        return MomentValue(True, sum(q * wf(m) for m, q in zip(mags, masses)))
    if d.kind == "log_atomic_sym":
        (atoms,) = d.params
        terms = []
        for lv, lw in atoms:
            lp = lv if lv > 50.0 else log_plus(math.exp(lv))  # log(2+v) = lv within 2e^-lv
            t = lw + 2.0 * lv - math.log(lp)
            if form == "loglog_delta":
                t += (1.0 + delta) * math.log(log_plus(lp))
            terms.append(t)
        return MomentValue(True, _log_total(terms))
    from scipy import integrate
    if d.kind == "uniform_sym":
        (h,) = d.params
        val, _ = integrate.quad(wf, 0.0, h, epsabs=1e-10, limit=200)
        return MomentValue(True, val / h)
    if d.kind == "normal_std":
        val, _ = integrate.quad(lambda x: 2.0 * wf(x) * _normal_pdf(x),
                                0.0, np.inf, epsabs=1e-10, limit=200)
        return MomentValue(True, val)
    if d.kind == "pareto_sym":
        alpha, scale = d.params
        if form == "inv_logplus" and alpha <= 2.0:
            return MomentValue(False, None,
                               f"tail index {alpha:g} <= 2: x^(1-alpha)/log(2+x) is not integrable")
        if form == "loglog_delta" and alpha <= 2.0:
            return MomentValue(False, None,
                               f"tail index {alpha:g} <= 2: iterated-log weight cannot rescue the integral")
        val, _ = integrate.quad(lambda x: wf(x) * alpha * scale ** alpha * x ** (-alpha - 1.0),
                                scale, np.inf, epsabs=1e-10, limit=200)
        return MomentValue(True, val)
    raise ValueError(f"unknown distribution kind {d.kind!r}")


# ---------------------------------------------------------------------------
# Structural bounds used by certificate construction
# ---------------------------------------------------------------------------


def support_bound(d: Dist) -> Optional[float]:
    """Least B with P(|X| <= B) = 1, when finite and known."""
    if d.kind in _ATOM_KINDS:
        return _abs_law(d)[0][-1]
    if d.kind == "uniform_sym":
        return d.params[0]
    return None


def second_moment_bound(d: Dist) -> Optional[float]:
    """Upper bound on E[X^2], when finite and known in closed form."""
    if d.kind in _ATOM_KINDS:
        mags, masses = _abs_law(d)
        return sum(q * m * m for m, q in zip(mags, masses))
    if d.kind == "normal_std":
        return 1.0
    if d.kind == "uniform_sym":
        return d.params[0] ** 2 / 3.0
    if d.kind == "pareto_sym":
        alpha, scale = d.params
        if alpha > 2.0:
            return alpha * scale ** 2 / (alpha - 2.0)
        return None
    return None


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def atom_table(d: Dist) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """One-step law as (values, probs) arrays, or None for kinds without atoms.

    Atoms come in table order (+-v pairs for ``atomic_sym``), followed by the
    implied atom at 0 with the remaining mass, which may be 0.
    """
    if d.kind not in _ATOM_KINDS:
        return None
    (table,) = d.params
    return np.array([v for v, _ in table] + [0.0]), np.array([p for _, p in table] + [_rest(table)])


def sample(d: Dist, rng: np.random.Generator, count: int) -> np.ndarray:
    """count i.i.d. draws; deterministic given the generator's stream."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.empty(0, dtype=np.float64)
    if d.kind in _ATOM_KINDS:
        (table,) = d.params
        if len(table) == 2 and table[0] == (-table[1][0], 0.5) and table[1][1] == 0.5:
            # A fair pair: a sign flip is several times faster than the inverse cdf.
            return table[1][0] * (2 * rng.integers(0, 2, size=count, dtype=np.int8) - 1)
        values, probs = atom_table(d)
        cum = np.cumsum(probs)
        cum[-1] = max(cum[-1], 1.0)
        idx = np.searchsorted(cum, rng.random(count), side="right")
        return values[idx]
    if d.kind == "uniform_sym":
        (h,) = d.params
        return rng.uniform(-h, h, size=count)
    if d.kind == "normal_std":
        return rng.standard_normal(count)
    if d.kind == "pareto_sym":
        alpha, scale = d.params
        # scale * u ** (-1/alpha) * (2b - 1) computed in place, with the same
        # roundings, so a batch holds one float array instead of three.
        mag = rng.random(count)
        mag **= -1.0 / alpha
        mag *= scale
        sign = rng.integers(0, 2, size=count, dtype=np.int8)
        sign *= 2
        sign -= 1
        mag *= sign
        return mag
    if d.kind == "log_atomic_sym":
        raise SamplingUnavailable(
            "log_atomic_sym: atom probabilities are below the representable floating range")
    raise ValueError(f"unknown distribution kind {d.kind!r}")
