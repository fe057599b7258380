"""Random-variable models: one class per law, its closed forms as methods.

Each law is a frozen, hashable ``Dist`` subclass named by its ``kind``:
``Atoms``, ``UniformSym``, ``NormalStd`` and ``ParetoSym``.  Its methods are
its tails P(|X| >= t) and truncated second moments E[X^2 1{|X| < b}] over
arrays, its weighted second moment, support and second-moment bounds, the
tail shape the single-tail certificates use and, for the laws ``mcengine``
draws step by step, the magnitudes |X| / scale.  The module functions check
the arguments every law shares and call the method.  The weighted moments
of the continuous laws come from one fixed 24-point Gauss-Legendre rule on
graded panels, with every transcendental mapped through ``seqkit.libm``, so
their bits depend on neither numpy's SIMD dispatch nor a LAPACK build.
Every finite atom law (``rademacher``, ``atomic_sym``, ``atomic``) is one
``Atoms`` table, with the remaining mass at 0, so equal tables are equal laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
class TailShape:
    """P(|X| >= x) is exactly (scale / x)^alpha from x = ``start`` on, or,
    with ``alpha`` None, at most exp(-x^2 / 2) at every x >= 0."""

    alpha: Optional[float] = None
    scale: float = 1.0
    start: float = 0.0


@dataclass(frozen=True)
class Dist:
    """A law of X, one subclass per ``kind``, its fields its ``params``.  Every
    law has ``tails(lam)`` at lam > 0, ``truncated_second_moments(b)`` at b > 0
    and ``weighted_second_moment(p)``, a float or a MomentValue saying why
    there is none.  Where it has no other closed form, the method gives None
    (``magnitudes`` raises), and ``scaled_tails`` and the views ``mcengine``
    draws whole sums from are None or False."""

    lattice_steps = None  # Atoms: the step law on its decimal lattice
    plane_width = None  # UniformSym: the h whose uniform(-h, h) steps are 53 fair bit planes
    gaussian = False  # NormalStd: S_n has the law of sqrt(n) X

    @property
    def params(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def support_bound(self) -> Optional[float]:
        """Least B with P(|X| <= B) = 1, when finite and known."""

    def second_moment_bound(self) -> Optional[float]:
        """Upper bound on E[X^2], when finite and known in closed form."""

    def tail_shape(self) -> Optional[TailShape]:
        """The shape of P(|X| >= x) that the single-tail certificates read."""

    # scaled_tails(eps, a, c): c P(|X| >= eps a) where P lies below the normal
    # doubles, and so has lost digits, or eps a lies past them, formed without
    # either; None where those tails are exact (atoms and uniform: 0 past the support)
    scaled_tails = None

    def magnitudes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count magnitudes |X| / scale of one SFC64 word u = random() each."""
        raise ValueError(f"no single-step sampler for kind {self.kind!r}")


def _split_sums(terms: list, below: bool) -> np.ndarray:
    """sum(terms[:i]) (``below``) or sum(terms[i:]) for i = 0..len(terms).

    Indexed by ``searchsorted(keys, cut, side="left")`` with ascending keys,
    this is the sum over the atoms below (or at and above) each cutoff, in
    ascending order: the same sum, in the same order, as the one-cutoff formula.
    """
    return np.array([sum(terms[:i] if below else terms[i:]) for i in range(len(terms) + 1)],
                    dtype=np.float64)


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


@dataclass(frozen=True)
class Atoms(Dist):
    """A finite atom law: a signed (value, mass) ``table``, the remaining mass at 0."""

    table: tuple
    kind = "atoms"

    @cached_property
    def _abs_law(self) -> tuple[list, list, np.ndarray]:
        """Law of |X|, built on first use: ascending magnitudes from 0, their
        masses, the first the implied atom's at 0, and the tail sum over
        magnitudes[i:] for every i.  A magnitude's mass is the mass at -v plus
        the mass at +v, in table order."""
        mass = {0.0: max(1.0 - sum(p for _, p in self.table), 0.0)}
        for v, p in self.table:
            mass[abs(v)] = mass.get(abs(v), 0.0) + p
        keys = sorted(mass)
        terms = [mass[m] for m in keys]
        return keys, terms, _split_sums(terms, below=False)

    @cached_property
    def lattice_steps(self) -> tuple[list[int], np.ndarray, int, np.ndarray]:
        """The step law as (steps, probs, den, values), P(X = values[i]) =
        probs[i], built on first use.  The atoms come in table order, then the
        implied atom at 0 if its mass is positive; steps[i]/den is values[i]
        read as the shortest decimal that rounds to it, den the lcm of the
        denominators."""
        rest = self._abs_law[1][0]
        values, probs = zip(*self.table, *([(0.0, rest)] if rest > 0.0 else []))
        atoms = [Fraction(repr(v)) for v in values]
        den = math.lcm(*(a.denominator for a in atoms))
        return [int(a * den) for a in atoms], np.array(probs), den, np.array(values)

    def tails(self, lam: np.ndarray) -> np.ndarray:
        keys, _, above = self._abs_law
        return above[np.searchsorted(keys, lam, side="left")]

    def truncated_second_moments(self, b: np.ndarray) -> np.ndarray:
        mags, masses, _ = self._abs_law
        below = _split_sums([q * _pow(m, 2.0) for m, q in zip(mags, masses)], below=True)
        return below[np.searchsorted(mags, b, side="left")]

    def weighted_second_moment(self, p: float) -> float:
        mags, masses, _ = self._abs_law
        x = np.array(mags)
        with np.errstate(over="ignore"):  # x * x is inf past 1.3e154
            return sum((np.array(masses) * _weighted(x * x, libm(math.log, 2.0 + x), p)).tolist())

    def support_bound(self) -> float:
        return self._abs_law[0][-1]

    def second_moment_bound(self) -> float:
        mags, masses, _ = self._abs_law
        return sum(q * m * m for m, q in zip(mags, masses))


@dataclass(frozen=True)
class UniformSym(Dist):
    """The uniform law on [-h, h], h = ``half_width``."""

    half_width: float
    kind = "uniform_sym"
    plane_width = property(lambda self: self.half_width)

    def tails(self, lam: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # a subnormal h: lam / h is inf, the tail 0
            return np.maximum(0.0, 1.0 - lam / self.half_width)

    def truncated_second_moments(self, b: np.ndarray) -> np.ndarray:
        h = self.half_width

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

    def weighted_second_moment(self, p: float) -> float:
        # (1/h) int_0^h = h^2 int_0^1 in t = x/h, the pole at t = -1/h
        h = self.half_width
        return h * (h * _integral(lambda t: _weighted(t * t, libm(math.log, 2.0 + h * t), p),
                                  0.0, 1.0, -1.0 / h))  # -inf for a subnormal h

    def support_bound(self) -> float:
        return self.half_width

    def second_moment_bound(self) -> float:
        return _pow(self.half_width, 2.0) / 3.0

    def magnitudes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random(count)  # a ValueError at count < 0


@dataclass(frozen=True)
class NormalStd(Dist):
    """The standard normal law."""

    kind = "normal_std"
    gaussian = True

    def tails(self, lam: np.ndarray) -> np.ndarray:
        return libm(math.erfc, lam / _SQRT2)

    def truncated_second_moments(self, b: np.ndarray) -> np.ndarray:
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

    def weighted_second_moment(self, p: float) -> float:
        # 2 x^2 phi(x) is below 1e-35 past 13; panels of at most 2 follow the Gaussian
        def f(x):
            density = 2.0 * _INV_SQRT_2PI * libm(math.exp, -0.5 * x * x)
            return _weighted(x * x * density, libm(math.log, 2.0 + x), p)
        return _integral(f, 0.0, 13.0, -1.0, most=2.0)

    def second_moment_bound(self) -> float:
        return 1.0

    def tail_shape(self) -> TailShape:
        return TailShape()  # erfc(x / sqrt 2) <= exp(-x^2 / 2)

    def scaled_tails(self, eps: float, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        # c erfc(z), z = eps a / sqrt 2 > 26.5, is exp(log c - z^2 - log(z sqrt pi))
        # times sum_k (-1)^k (2k-1)!! / (2 z^2)^k: at 2 z^2 > 1400 the terms past
        # k = 9 are below 1e-17 of the sum.  Where z^2 > log c + 746, an inf z
        # included, c erfc(z) < c e^-z^2 rounds to 0.
        with np.errstate(over="ignore"):
            lam = eps * a
            z2 = lam * lam / 2.0
        out = np.zeros(lam.shape)
        live = np.flatnonzero(z2 < 746.0 + math.log(float(c.max(initial=1.0))))
        lam, z2, u = lam[live], z2[live], 0.5 / z2[live]
        total, term = np.ones(live.size), np.ones(live.size)
        for k in range(1, 10):
            term = term * (-(2 * k - 1) * u)
            total += term
        x = libm(math.log, c[live]) - z2 - libm(math.log, lam * math.sqrt(math.pi / 2.0))
        out[live] = libm(math.exp, x) * total
        return out


@dataclass(frozen=True)
class ParetoSym(Dist):
    """Symmetric power tail: P(|X| >= t) = min(1, (scale/t)^alpha)."""

    alpha: float
    scale: float
    kind = "pareto_sym"

    def tails(self, lam: np.ndarray) -> np.ndarray:
        out = np.ones(lam.shape)
        far = lam > self.scale
        ratio = self.scale / lam[far]
        t = libm(pow, ratio, self.alpha)
        tiny = ratio < _TINY  # the ratio has lost digits: exp(alpha log ratio)
        if tiny.any():
            with np.errstate(over="ignore"):  # -inf past the doubles: a tail of 0, as pow's
                t[tiny] = libm(math.exp, self.alpha * (math.log(self.scale)
                                                       - libm(math.log, lam[far][tiny])))
        out[far] = t
        return out

    def scaled_tails(self, eps: float, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        # (c h) h with h = (scale / (eps a))^(alpha / 2): where c P is normal, so
        # are c h and h; h is exp(alpha/2 (log s - log eps - log a)) where eps a is inf
        half = self.alpha / 2.0
        with np.errstate(over="ignore", invalid="ignore"):  # at an inf lam, h is set below
            lam = eps * a
            h = ParetoSym(half, self.scale).tails(lam)
            far = lam == math.inf
            h[far] = libm(math.exp, half * (math.log(self.scale) - math.log(eps)
                                            - libm(math.log, a[far])))
        return c * h * h

    def truncated_second_moments(self, b: np.ndarray) -> np.ndarray:
        alpha, scale = self.alpha, self.scale
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

    def weighted_second_moment(self, p: float):
        alpha, scale = self.alpha, self.scale
        if alpha <= 2.0:
            why = ("x^(1-alpha)/log(2+x) is not integrable" if p == 0
                   else "iterated-log weight cannot rescue the integral")
            return MomentValue(False, None, f"tail index {alpha:g} <= 2: {why}")
        if p > _MAX_PANELS:  # the range below spans p of its widest panels
            return MomentValue(True, None, f"log power {p:g}: the quadrature needs more "
                                           f"than {_MAX_PANELS} panels")
        # alpha s^2 int_0^inf e^(-(alpha-2) v) W(s e^v) dv in v = log(x/s): panels
        # of at least 2 below the singularities at Im v = +-pi, across each at most
        # e^-40 of decay, and the rest past 40 max(1, p) / (alpha - 2) below e^-40
        # of the whole
        rate, u0 = alpha - 2.0, math.log(scale)
        return alpha * _pow(scale, 2.0) * _integral(
            lambda v: _weighted(libm(math.exp, -rate * v), _log_2_plus_exp(u0 + v), p),
            0.0, 40.0 * max(1.0, p) / rate, math.log(2.0) - u0, least=2.0, most=40.0 / rate)

    def second_moment_bound(self) -> Optional[float]:
        if self.alpha > 2.0:
            return self.alpha * _pareto_pow(self.scale, 2.0) / (self.alpha - 2.0)
        return None

    def tail_shape(self) -> TailShape:
        # exact from the first cutoff at or past the scale that keeps every digit
        return TailShape(self.alpha, self.scale, max(self.scale, _TINY))

    def magnitudes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """exp(log(u) (-1/alpha)), formed in place: within 2^-51 (1 + |log(u)/alpha|)
        of u^(-1/alpha) relative, +inf at u = 0 and past the double range.  numpy
        picks its log and exp kernels by the CPU, so the bits depend on the host;
        the C library's pow (``np.float_power``) would not, at 5-6 times the cost."""
        mag = rng.random(count)  # a ValueError at count < 0
        with np.errstate(divide="ignore", over="ignore"):  # u = 0 and past the doubles: +inf
            np.log(mag, out=mag)
            mag *= -1.0 / self.alpha
            np.exp(mag, out=mag)
        return mag


def rademacher() -> Dist:
    return _atom_law([(-1.0, 0.5), (1.0, 0.5)])


def uniform_sym(half_width: float) -> Dist:
    if not 0.0 < 2.0 * half_width < math.inf:  # the width 2h is finite, so uniform() can draw
        raise ValueError("half_width must be positive, and twice it finite")
    return UniformSym(float(half_width))


def normal_std() -> Dist:
    return NormalStd()


def pareto_sym(alpha: float, scale: float = 1.0) -> Dist:
    """Symmetric power tail: P(|X| >= t) = min(1, (scale/t)^alpha)."""
    if not (0.0 < alpha < math.inf and 0.0 < scale < math.inf):
        raise ValueError("alpha and scale must be finite and positive")
    return ParetoSym(float(alpha), float(scale))


def _atom_law(pairs) -> Dist:
    """The one finite atom law, ``Atoms``: a signed (value, mass) table in the
    order of ``pairs``, equal values merged where they first occur; the
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
    return Atoms(tuple(table.items()))


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
# The shared argument checks, then the law's method; perfbench's tracer wraps some
# ---------------------------------------------------------------------------


def tails(d: Dist, lam) -> np.ndarray:
    """Exact P(|X| >= lam) for an array of thresholds; nonincreasing and
    right-continuous in lam."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if not (lam >= 0.0).all():
        raise ValueError("threshold must be a nonnegative real")
    out = d.tails(lam)
    out[lam == 0.0] = 1.0
    return out


def tail(d: Dist, lam: float) -> float:
    """Exact P(|X| >= lam), the one-point form of ``tails``."""
    return float(tails(d, lam)[0])


def truncated_second_moments(d: Dist, b) -> np.ndarray:
    """E[X^2 1{|X| < b}] for an array of cutoffs; strict at the cutoff and
    nondecreasing in it."""
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if not (b > 0.0).all():
        raise ValueError("cutoff must be positive")
    return d.truncated_second_moments(b)


def truncated_moment(d: Dist, b: float) -> float:
    """E[X^2 1{|X| < b}], the one-point form of ``truncated_second_moments``."""
    return float(truncated_second_moments(d, b)[0])


def truncated_second_moment(d: Dist, eps: float, norms: NormSeq, n: int) -> float:
    """E[X^2 1{|X| < eps * a(n)}], the variance proxy behind the exponential terms."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return truncated_moment(d, eps * norms(n))


def weighted_second_moment(d: Dist, log_power: float = 0.0) -> MomentValue:
    """E[X^2 L(L(|X|))^p / L(|X|)], L(x) = log(2 + x), p = ``log_power``, as a
    MomentValue: the law's own where it has no value (``pareto_sym``: a certified
    divergence at alpha <= 2, or an integral of over _MAX_PANELS panels), and
    no value, with a reason, for a moment past the double range."""
    val = d.weighted_second_moment(log_power)
    if isinstance(val, MomentValue):
        return val
    if not math.isfinite(val):
        return MomentValue(True, None, "the moment exceeds the double range")
    return MomentValue(True, val)


def support_bound(d: Dist) -> Optional[float]:
    return d.support_bound()


def second_moment_bound(d: Dist) -> Optional[float]:
    return d.second_moment_bound()


def sample(d: Dist, rng: np.random.Generator, count: int) -> np.ndarray:
    """count i.i.d. magnitudes |X| / scale, for ``uniform_sym`` and ``pareto_sym``;
    ``mcengine`` signs and scales them, and draws the other laws' sums whole."""
    return d.magnitudes(rng, count)
