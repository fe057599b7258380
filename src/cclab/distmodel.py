"""Random-variable models: exact tails, truncated second moments, and magnitudes.

Tails and the truncated second moments E[X^2 1{|X| < b}] are closed form
for every law.  The weighted second moments of the continuous laws come
from one fixed 24-point Gauss-Legendre rule on graded panels, with every
transcendental mapped through ``seqkit.libm``, so their bits depend on
neither numpy's SIMD dispatch nor a LAPACK build.  Every finite atom law
(``rademacher``, ``atomic_sym``, ``atomic``) is one kind, ``atoms``: a
signed (value, mass) table, with the remaining mass at 0, so equal tables
are equal laws; its tails and moments run through one code path, and
``Dist.lattice_steps`` is its one step-law view.  ``tails`` and
``truncated_second_moments`` take arrays of cutoffs; ``tail`` and
``truncated_moment`` are their one-point forms.
``sample`` draws the magnitudes |X| / scale of the single steps ``mcengine``
signs by one count a row, for ``pareto_sym``, and for ``uniform_sym`` below
its bit-plane range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .seqkit import _TINY, NormSeq, libm


class SamplingUnavailable(RuntimeError):
    """Raised when Monte Carlo sums cannot be drawn: ``uniform_sym`` at
    n >= 2^36, past its bit planes, and a sum whose + and - parts both
    overflow, which has no float value."""


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_MASS_TOL = 1e-12
_CUBE_MAX = 5.643803094122361e+102  # the largest double whose pow(x, 3) is finite
_MAX_PANELS = 10_000  # the most quadrature panels one weighted moment may take


def _pow(x: float, p: float) -> float:
    """x ** p for x >= 0, and inf past the double range, where Python raises."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def _pareto_pow(scale: float, p: float, b: Optional[np.ndarray] = None):
    """scale ** p, or by libm each cutoff b ** p, in ``pareto_sym``'s closed
    forms; past the double range, where Python raises, the OverflowError
    names the law, the scale and the power."""
    try:
        return scale ** p if b is None else libm(pow, b, p)
    except OverflowError:
        of = "" if b is None else "a cutoff above "
        raise OverflowError(f"pareto_sym: {of}scale {scale!r} to the power {p:g}") from None


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

    @cached_property
    def _abs_law(self) -> tuple[list, list, np.ndarray]:
        """Law of |X| for an atom law, built on first use: ascending
        magnitudes from 0, their masses, and the tail sum over magnitudes[i:]
        for every i.  A magnitude's mass is the mass at -v plus the mass at
        +v, in table order.
        """
        (table,) = self.params
        mass = {0.0: _rest(table)}
        for v, p in table:
            mass[abs(v)] = mass.get(abs(v), 0.0) + p
        keys = sorted(mass)
        terms = [mass[m] for m in keys]
        return keys, terms, _split_sums(terms, below=False)

    @cached_property
    def lattice_steps(self) -> Optional[tuple[list[int], np.ndarray, int, np.ndarray]]:
        """The step law as (steps, probs, den, values), P(X = values[i]) =
        probs[i], built on first use; None for kinds without atoms.  The atoms
        come in table order, then the implied atom at 0 if its mass is positive;
        steps[i]/den is values[i] read as the shortest decimal that rounds to
        it, den the lcm of the denominators."""
        if self.kind != "atoms":
            return None
        (table,) = self.params
        rest = _rest(table)
        values, probs = zip(*table, *([(0.0, rest)] if rest > 0.0 else []))
        atoms = [Fraction(repr(v)) for v in values]
        den = math.lcm(*(a.denominator for a in atoms))
        return [int(a * den) for a in atoms], np.array(probs), den, np.array(values)


def rademacher() -> Dist:
    return _atom_law([(-1.0, 0.5), (1.0, 0.5)])


def uniform_sym(half_width: float) -> Dist:
    if not 0.0 < 2.0 * half_width < math.inf:  # the width 2h is finite, so uniform() can draw
        raise ValueError("half_width must be positive, and twice it finite")
    return Dist("uniform_sym", (float(half_width),))


def normal_std() -> Dist:
    return Dist("normal_std", ())


def pareto_sym(alpha: float, scale: float = 1.0) -> Dist:
    """Symmetric power tail: P(|X| >= t) = min(1, (scale/t)^alpha)."""
    if not (0.0 < alpha < math.inf and 0.0 < scale < math.inf):
        raise ValueError("alpha and scale must be finite and positive")
    return Dist("pareto_sym", (float(alpha), float(scale)))


def _atom_law(pairs) -> Dist:
    """The one finite atom law, kind ``atoms``: a signed (value, mass) table in
    the order of ``pairs``, equal values merged where they first occur; the
    remaining mass is the implied atom at 0."""
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
    return Dist("atoms", (tuple(table.items()),))


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
    return _atom_law([(s * v, 0.5 * w) for v, w in pairs for s in (-1.0, 1.0)])


def atomic(atoms) -> Dist:
    """General finite atomic distribution; remaining mass sits at 0.

    ``atoms`` is an iterable of (value, probability) with value != 0; the
    table holds them in ascending value.
    """
    return _atom_law(_by_value(atoms))


# ---------------------------------------------------------------------------
# Tails
# ---------------------------------------------------------------------------


def _rest(table) -> float:
    """Mass of the implied atom at 0."""
    return max(1.0 - sum(p for _, p in table), 0.0)


def _split_sums(terms: list, below: bool) -> np.ndarray:
    """sum(terms[:i]) (``below``) or sum(terms[i:]) for i = 0..len(terms).

    Indexed by ``searchsorted(keys, cut, side="left")`` with ascending keys,
    this is the sum over the atoms below (or at and above) each cutoff, in
    ascending order: the same sum, in the same order, as the one-cutoff formula.
    """
    return np.array([sum(terms[:i] if below else terms[i:]) for i in range(len(terms) + 1)],
                    dtype=np.float64)


def tails(d: Dist, lam) -> np.ndarray:
    """Exact P(|X| >= lam) for an array of thresholds; nonincreasing and
    right-continuous in lam."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if not (lam >= 0.0).all():
        raise ValueError("threshold must be a nonnegative real")
    pos = lam > 0.0
    out = np.ones(lam.shape)
    if d.kind == "atoms":
        keys, _, above = d._abs_law
        out[pos] = above[np.searchsorted(keys, lam[pos], side="left")]
    elif d.kind == "uniform_sym":
        (h,) = d.params
        with np.errstate(over="ignore"):  # a subnormal h: lam / h is inf, the tail 0
            out = np.maximum(0.0, 1.0 - lam / h)
    elif d.kind == "normal_std":
        out = libm(math.erfc, lam / _SQRT2)
    elif d.kind == "pareto_sym":
        alpha, scale = d.params
        far = lam > scale
        ratio = scale / lam[far]
        t = libm(pow, ratio, alpha)
        tiny = ratio < _TINY  # the ratio has lost digits: exp(alpha log ratio)
        if tiny.any():
            t[tiny] = libm(math.exp, alpha * (math.log(scale) - libm(math.log, lam[far][tiny])))
        out[far] = t
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


def truncated_second_moments(d: Dist, b) -> np.ndarray:
    """E[X^2 1{|X| < b}] for an array of cutoffs; strict at the cutoff and
    nondecreasing in it."""
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if not (b > 0.0).all():
        raise ValueError("cutoff must be positive")
    if d.kind == "atoms":
        mags, masses, _ = d._abs_law
        below = _split_sums([q * _pow(m, 2.0) for m, q in zip(mags, masses)], below=True)
        return below[np.searchsorted(mags, b, side="left")]
    if d.kind == "uniform_sym":
        (h,) = d.params

        def over_3h(x):  # 3h leaves the doubles past h = 6e307: divide by h, then by 3
            return x / (h * 3.0) if h * 3.0 < math.inf else x / h / 3.0

        m = np.minimum(b, h)
        big = m > _CUBE_MAX  # m^3 leaves the doubles: T is formed as m (m (m / 3h))
        cube = (b < h) & ~big  # pow(min(b, h), 3) is one constant past h, formed only if used
        out = np.full(b.shape, 0.0 if (cube | big).all() else _pow(h, 3.0))
        out[cube] = libm(pow, b[cube], 3.0)
        out = over_3h(out)
        with np.errstate(over="ignore"):  # a T past the doubles, h^2/3 > 1.8e308, is inf
            out[big] = m[big] * (m[big] * over_3h(m[big]))
        return out
    if d.kind == "normal_std":
        # 2 Phi(b) - 1 = erfc(-b/sqrt2) - 1 exactly, erfc lying in [1, 2] here
        mass = libm(math.erfc, -b / _SQRT2) - 1.0
        # b * b is inf past 1.3e154, and exp(-inf) = 0; where the density is 0,
        # T is the mass (2 b * 0 would be NaN at an inf b)
        with np.errstate(over="ignore"):
            density = _INV_SQRT_2PI * libm(math.exp, -0.5 * b * b)
            out = mass - np.multiply(2.0 * b, density, out=np.zeros_like(b), where=density > 0.0)
        near = b < _NORMAL_SERIES_BELOW
        if near.any():
            out[near] = _normal_series(b[near])
        return out
    if d.kind == "pareto_sym":
        alpha, scale = d.params
        out = np.zeros(b.shape)
        far = b > scale
        k = alpha * _pareto_pow(scale, alpha)
        # past the doubles T is inf, or NaN where an inf meets a zero k
        with np.errstate(over="ignore", invalid="ignore"):
            if alpha == 2.0:
                out[far] = k * libm(math.log, b[far] / scale)
            else:
                out[far] = (k * (_pareto_pow(scale, 2.0 - alpha, b[far])
                                 - _pareto_pow(scale, 2.0 - alpha)) / (2.0 - alpha))
        return out
    raise ValueError(f"unknown distribution kind {d.kind!r}")


# Below this cutoff 2 Phi(b) - 1 - 2 b phi(b) cancels, and the normal T is
# summed as a series; at it the difference is at least the series one ulp below.
_NORMAL_SERIES_BELOW = 0.4


def _normal_series(b: np.ndarray) -> np.ndarray:
    """E[X^2 1{|X| < b}] = 2 phi(b) sum_(k>=1) b^(2k+1)/(2k+1)!! for the normal
    law, a sum of positive terms with no cancellation.  At b < 0.4 the terms
    past k = 10 add less than 1e-18 of the first."""
    b2 = b * b
    h = np.ones(b.shape)  # 1 + b^2/5 (1 + b^2/7 (1 + ...)), by Horner's rule
    for k in range(10, 1, -1):
        h = 1.0 + h * (b2 / (2 * k + 1))
    return 2.0 * _INV_SQRT_2PI * libm(math.exp, -0.5 * b2) * (b * b2 / 3.0 * h)


def truncated_moment(d: Dist, b: float) -> float:
    """E[X^2 1{|X| < b}], the one-point form of ``truncated_second_moments``."""
    return float(truncated_second_moments(d, b)[0])


def truncated_second_moment(d: Dist, eps: float, norms: NormSeq, n: int) -> float:
    """E[X^2 1{|X| < eps * a(n)}], the variance proxy behind the exponential terms."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return truncated_moment(d, eps * norms(n))


# ---------------------------------------------------------------------------
# Weighted second moments
# ---------------------------------------------------------------------------


def _weighted(sq: np.ndarray, log_x: np.ndarray, p: float) -> np.ndarray:
    """sq log(2 + log_x)^p / log_x, log_x = log(2 + |x|), rounded as the scalar
    x * x * L(L(x)) ** p / L(x), L(x) = log(2 + x), is at sq = x * x."""
    if p:
        sq = sq * libm(pow, libm(math.log, 2.0 + log_x), p)
    return sq / log_x


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 24-point Gauss-Legendre rule on [-1, 1], by
    Newton's method on the Legendre recurrence in Python floats (no eigensolver)."""
    n, nodes, weights = 24, [], []

    def legendre(x: float) -> tuple[float, float]:  # P_n(x) and P_n'(x)
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))

    for i in range(n // 2):
        x, step = math.cos(math.pi * (i + 0.75) / (n + 0.5)), 1.0
        while abs(step) > 1e-15:
            value, slope = legendre(x)
            step = value / slope
            x -= step
        slope = legendre(x)[1]
        nodes += [-x, x]
        weights += [2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)] * 2
    order = np.argsort(nodes)
    nodes, weights = np.array(nodes)[order], np.array(weights)[order]
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights


def _integral(f, a: float, b: float, pole: float, least: float = 0.0,
              most: float = math.inf) -> float:
    """Integral of the array function f over [a, b]: the Gauss-Legendre rule
    on panels each as wide as its left end lies from ``pole``, the nearest
    singularity of f (at least ``least``, at most ``most``), so that against
    that singularity a panel converges like 5.8^-48; the products are summed
    exactly."""
    ends = [a]
    while ends[-1] < b:
        ends.append(min(ends[-1] + min(max(ends[-1] - pole, least), most), b))
    t, w = _gauss_legendre()
    lo, hi = np.array(ends[:-1])[:, None], np.array(ends[1:])[:, None]
    half = 0.5 * (hi - lo)
    return math.fsum((f((lo + half + half * t).ravel()) * (half * w).ravel()).tolist())


def _log_2_plus_exp(u: np.ndarray) -> np.ndarray:
    """log(2 + e^u) without forming e^u: u + log1p(2 e^-u) for u > 0."""
    e = libm(math.exp, -np.abs(u))
    far = u > 0.0
    e[far] = u[far] + libm(math.log1p, 2.0 * e[far])
    e[~far] = libm(math.log, 2.0 + e[~far])
    return e


def weighted_second_moment(d: Dist, log_power: float = 0.0) -> MomentValue:
    """E[X^2 L(L(|X|))^p / L(|X|)], L(x) = log(2 + x), p = ``log_power``.

    Returns a certified divergence flag for symmetric Pareto tails that are
    too heavy instead of a sentinel float, and no value, with a reason, for a
    moment past the double range or a Pareto integral of over _MAX_PANELS
    panels.  The continuous laws integrate with ``_integral``: the 1/log pole
    sits at x = -1, the other singularities further left or, in u = log x, at
    Im u = +-pi.
    """
    if d.kind == "atoms":
        mags, masses, _ = d._abs_law
        x = np.array(mags)
        with np.errstate(over="ignore"):  # x * x is inf past 1.3e154
            val = sum((np.array(masses)
                       * _weighted(x * x, libm(math.log, 2.0 + x), log_power)).tolist())
    elif d.kind == "uniform_sym":
        # (1/h) int_0^h = h^2 int_0^1 in t = x/h, the pole at t = -1/h
        (h,) = d.params
        val = h * (h * _integral(
            lambda t: _weighted(t * t, libm(math.log, 2.0 + h * t), log_power),
            0.0, 1.0, -1.0 / h))  # -inf for a subnormal h
    elif d.kind == "normal_std":
        # 2 x^2 phi(x) is below 1e-35 past 13; panels of at most 2 follow the Gaussian
        def f(x):
            density = 2.0 * _INV_SQRT_2PI * libm(math.exp, -0.5 * x * x)
            return _weighted(x * x * density, libm(math.log, 2.0 + x), log_power)
        val = _integral(f, 0.0, 13.0, -1.0, most=2.0)
    elif d.kind == "pareto_sym":
        alpha, scale = d.params
        if alpha <= 2.0:
            why = ("x^(1-alpha)/log(2+x) is not integrable" if log_power == 0
                   else "iterated-log weight cannot rescue the integral")
            return MomentValue(False, None, f"tail index {alpha:g} <= 2: {why}")
        if log_power > _MAX_PANELS:  # the range below spans p of its widest panels
            return MomentValue(True, None, f"log power {log_power:g}: the quadrature needs more "
                                           f"than {_MAX_PANELS} panels")
        # alpha s^2 int_0^inf e^(-(alpha-2) v) W(s e^v) dv in v = log(x/s): panels
        # of at least 2 below the singularities at Im v = +-pi, across each at most
        # e^-40 of decay, and the rest past 40 max(1, p) / (alpha - 2) below e^-40
        # of the whole
        rate, u0 = alpha - 2.0, math.log(scale)
        val = alpha * _pow(scale, 2.0) * _integral(
            lambda v: _weighted(libm(math.exp, -rate * v), _log_2_plus_exp(u0 + v), log_power),
            0.0, 40.0 * max(1.0, log_power) / rate, math.log(2.0) - u0, least=2.0,
            most=40.0 / rate)
    else:
        raise ValueError(f"unknown distribution kind {d.kind!r}")
    if not math.isfinite(val):
        return MomentValue(True, None, "the moment exceeds the double range")
    return MomentValue(True, val)


# ---------------------------------------------------------------------------
# Structural bounds used by certificate construction
# ---------------------------------------------------------------------------


def support_bound(d: Dist) -> Optional[float]:
    """Least B with P(|X| <= B) = 1, when finite and known."""
    if d.kind == "atoms":
        return d._abs_law[0][-1]
    if d.kind == "uniform_sym":
        return d.params[0]
    return None


def second_moment_bound(d: Dist) -> Optional[float]:
    """Upper bound on E[X^2], when finite and known in closed form."""
    if d.kind == "atoms":
        mags, masses, _ = d._abs_law
        return sum(q * m * m for m, q in zip(mags, masses))
    if d.kind == "normal_std":
        return 1.0
    if d.kind == "uniform_sym":
        return _pow(d.params[0], 2.0) / 3.0
    if d.kind == "pareto_sym":
        alpha, scale = d.params
        if alpha > 2.0:
            return alpha * _pareto_pow(scale, 2.0) / (alpha - 2.0)
    return None


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(d: Dist, rng: np.random.Generator, count: int) -> np.ndarray:
    """count i.i.d. magnitudes |X| / scale from one SFC64 word u = random() each:
    exp(log(u) * (-1/alpha)) for ``pareto_sym``, formed in place, and u for
    ``uniform_sym``.  ``mcengine`` signs and scales them; it draws the other
    laws' sums whole.  A Pareto magnitude is within 2^-51 (1 + |log(u)/alpha|)
    of u^(-1/alpha) relative, and +inf at u = 0 and past the double range,
    where u^(-1/alpha) overflows.  numpy's log and exp pick a SIMD kernel by
    the CPU, so ``pareto_sym`` bytes depend on the host; the C library's pow
    (``np.float_power``) would not, at 5-6 times the cost."""
    if d.kind not in ("uniform_sym", "pareto_sym"):
        raise ValueError(f"no single-step sampler for kind {d.kind!r}")
    mag = rng.random(count)  # a ValueError at count < 0
    if d.kind == "pareto_sym":
        with np.errstate(divide="ignore", over="ignore"):  # u = 0 and past the doubles: +inf
            np.log(mag, out=mag)
            mag *= -1.0 / d.params[0]
            np.exp(mag, out=mag)
    return mag
