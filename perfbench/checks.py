"""Independent references the benchmark checks every op's output against.

None of these call into cclab: walks are enumerated with ``Fraction``,
Rademacher tails come from exact binomial sums, sequences and single-variable
tails are written out from their closed forms.  A check that fails raises
``CheckFailed``; the benchmark then counts the op as failed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# The same relative slack cclab's SeriesReport allows: a compensated running
# total may step back by an ulp when a tiny term meets a positive correction.
_SUM_SLACK = 1e-15
_VALUE_RTOL = 1e-9
_EXACT_ATOL = 1e-12


class CheckFailed(Exception):
    """The op ran but its output disagrees with a reference."""


def parse_atoms(text: str) -> list[tuple[Fraction, Fraction]]:
    """'v:w,...' as exact decimals, as the user wrote them."""
    out = []
    for part in text.split(","):
        v, w = part.split(":")
        out.append((Fraction(v), Fraction(w)))
    return out


# ---------------------------------------------------------------------------
# Sequences and single-variable laws, written out from their closed forms
# ---------------------------------------------------------------------------


def preset_sequences(preset: str):
    """(w, a) of a preset as plain functions of n."""
    if preset.startswith("baum_katz"):
        r, p = (float(x) for x in preset[len("baum_katz("):-1].split(","))
        return (lambda n: float(n) ** (r - 2.0)), (lambda n: float(n) ** (1.0 / p))
    if preset.startswith("spataru"):
        return (lambda n: 1.0 / n), (lambda n: 1.0 if n == 1 else math.sqrt(n * math.log(n)))
    raise ValueError(f"no reference sequences for preset {preset!r}")


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class RefLaw:
    """P(|X| >= t) and E[X^2 1{|X| < b}] of one distribution kind."""

    def __init__(self, kind: str, alpha: float = 1.5, atoms: str = "") -> None:
        self.kind, self.alpha = kind, alpha
        self.atoms = [(float(v), float(w)) for v, w in parse_atoms(atoms)] if atoms else []

    def tail(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        if self.kind == "rademacher":
            return 1.0 if t <= 1.0 else 0.0
        if self.kind == "uniform_sym":
            return max(0.0, 1.0 - t)
        if self.kind == "normal_std":
            return math.erfc(t / math.sqrt(2.0))
        if self.kind == "pareto_sym":
            return 1.0 if t <= 1.0 else t ** -self.alpha
        if self.kind == "atomic_sym":
            return sum(w for v, w in self.atoms if v >= t)
        raise ValueError(self.kind)

    def m2(self, b: float) -> float:
        if self.kind == "rademacher":
            return 1.0 if b > 1.0 else 0.0
        if self.kind == "uniform_sym":
            return min(b, 1.0) ** 3 / 3.0
        if self.kind == "normal_std":
            return (2.0 * _normal_cdf(b) - 1.0) - 2.0 * b * math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
        if self.kind == "pareto_sym":
            a = self.alpha
            return 0.0 if b <= 1.0 else a * (b ** (2.0 - a) - 1.0) / (2.0 - a)
        if self.kind == "atomic_sym":
            return sum(w * v * v for v, w in self.atoms if v < b)
        raise ValueError(self.kind)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= _VALUE_RTOL * abs(want) + 1e-300


# ---------------------------------------------------------------------------
# Report invariants
# ---------------------------------------------------------------------------


def check_series(series: dict) -> None:
    """Terms >= 0, partial sums nondecreasing, certified verdicts carry their certificate."""
    sid = series["series_id"]
    prev = 0.0
    for row in series["rows"]:
        term, ps = row["term"], row["partial_sum"]
        if not term >= 0.0:
            raise CheckFailed(f"{sid}: negative term {term!r} at n={row['n']}")
        if ps < prev - _SUM_SLACK * max(1.0, abs(prev)):
            raise CheckFailed(f"{sid}: partial sum decreases at n={row['n']}")
        prev = ps
    if series["verdict"] == "ConvergesCertified":
        bound = series.get("tail_bound")
        if bound is None or not 0.0 <= bound["tail_bound"] < math.inf:
            raise CheckFailed(f"{sid}: ConvergesCertified without a finite tail bound")
    if series["verdict"] == "DivergesCertified":
        div = series.get("divergence")
        if div is None or not div["block_floor"] > 0.0:
            raise CheckFailed(f"{sid}: DivergesCertified without a positive block floor")


def check_series_terms(series: dict, w, a, law: RefLaw) -> None:
    """Recompute every emitted term of a check-conditions series from closed forms."""
    sid, eps = series["series_id"], series["params"]["eps"]
    for row in series["rows"]:
        n = row["n"]
        if sid == "single-tail":
            want = n * w(n) * law.tail(eps * a(n))
        elif sid == "exponential":
            t = law.m2(eps * a(n))
            want = 0.0 if t == 0.0 else w(n) * math.exp(-(eps * eps * a(n) ** 2) / (n * t))
        elif sid == "adaptive-exponent":
            t = law.m2(eps * math.sqrt(n * math.log(n)))
            want = 0.0 if t == 0.0 else float(n) ** (-1.0 - eps * eps / t)
        else:
            continue
        if not _close(row["term"], want):
            raise CheckFailed(f"{sid} eps={eps}: term {row['term']!r} at n={n}, reference {want!r}")


def series_terms(payload: dict) -> int:
    """Terms evaluated across a check-conditions report (rows are thinned, ends are kept)."""
    return sum(s["rows"][-1]["n"] - s["rows"][0]["n"] + 1
               for s in payload["series"] if s["rows"])


# ---------------------------------------------------------------------------
# Monte Carlo references
# ---------------------------------------------------------------------------


def rademacher_tail(n: int, t: float) -> float:
    """Exact P(|2 Bin(n, 1/2) - n| >= t)."""
    hits = sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) >= t)
    return float(Fraction(hits, 2 ** n))


def normal_sum_tail(n: int, t: float) -> float:
    return math.erfc(t / math.sqrt(2.0 * n))


def integer_atoms_tail(atoms: str, n: int, t: float) -> float:
    """P(|S_n| >= t) for symmetric integer atoms, by repeated squaring of the step law."""
    exact = parse_atoms(atoms)
    if any(v.denominator != 1 for v, _ in exact):
        raise ValueError("atoms are not integers")
    pairs = [(int(v), float(w)) for v, w in exact]
    top = max(v for v, _ in pairs)
    step = np.zeros(2 * top + 1)
    step[top] = 1.0 - sum(w for _, w in pairs)
    for v, w in pairs:
        step[top + v] += 0.5 * w
        step[top - v] += 0.5 * w
    law, power, k = np.array([1.0]), step, n
    while k:
        if k & 1:
            law = np.convolve(law, power)
        k >>= 1
        if k:
            power = np.convolve(power, power)
    values = np.arange(len(law)) - (len(law) - 1) // 2
    return float(law[np.abs(values) >= t].sum())


# A correct estimate lands this many standard errors from the exact tail with
# probability about 4e-8, so an op fails on this only when its answer is wrong.
_WIDE_Z = 5.5


def wilson(p_hat: float, replicates: int, z: float) -> tuple[float, float]:
    denom = 1.0 + z * z / replicates
    centre = (p_hat + z * z / (2 * replicates)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / replicates + z * z / (4 * replicates ** 2)) / denom
    return centre - half, centre + half


def check_estimate(payload: dict, n: int, threshold: float, replicates: int,
                   exact=None) -> bool:
    """Raise ``CheckFailed`` on a wrong report; return whether its 99% interval holds ``exact``.

    A correct program's 99% interval misses in about 1% of seeds, so a miss
    alone does not fail the op; ``coverage_miss_limit`` judges the miss count.
    """
    est = payload["estimate"]
    if (est["n"], est["threshold"], est["replicates"]) != (n, threshold, replicates):
        raise CheckFailed("estimate echoes the wrong n, threshold or replicates")
    hits = est["p_hat"] * replicates
    if abs(hits - round(hits)) > 1e-6:
        raise CheckFailed(f"p_hat {est['p_hat']!r} is not a hit count over {replicates}")
    if not est["lo"] <= est["p_hat"] <= est["hi"]:
        raise CheckFailed("interval does not bracket p_hat")
    if exact is None:
        return True
    lo, hi = wilson(est["p_hat"], replicates, _WIDE_Z)
    if not lo <= exact <= hi:
        raise CheckFailed(f"p_hat {est['p_hat']!r} is more than {_WIDE_Z} standard errors "
                          f"from the exact tail {exact!r}")
    return est["lo"] <= exact <= est["hi"]


def coverage_miss_limit(trials: int, miss_p: float = 0.01, alpha: float = 1e-6) -> int:
    """Largest miss count a correct 99% interval exceeds with probability below alpha."""
    tail, m = 1.0, -1
    while tail >= alpha:
        m += 1
        tail -= math.comb(trials, m) * miss_p ** m * (1.0 - miss_p) ** (trials - m)
    return m


# ---------------------------------------------------------------------------
# Exact walks by Fraction enumeration
# ---------------------------------------------------------------------------


def step_law(atoms: list[tuple[Fraction, Fraction]]) -> dict:
    law: dict = {}
    rest = 1 - sum(w for _, w in atoms)
    for v, w in atoms:
        law[v] = law.get(v, 0) + w / 2
        law[-v] = law.get(-v, 0) + w / 2
    if rest:
        law[Fraction(0)] = law.get(Fraction(0), 0) + rest
    return law


def walk_laws(step: dict, n_max: int) -> list[dict]:
    """Exact law of S_n for n = 1..n_max."""
    out, law = [], {Fraction(0): Fraction(1)}
    for _ in range(n_max):
        new: dict = {}
        for s, p in law.items():
            for v, q in step.items():
                new[s + v] = new.get(s + v, 0) + p * q
        law = new
        out.append(law)
    return out


def max_tail(step: dict, n: int, t: Fraction) -> Fraction:
    """Exact P(max_{k<=n} |S_k| >= t) by an absorbing walk."""
    alive, absorbed = {Fraction(0): Fraction(1)}, Fraction(0)
    for _ in range(n):
        new: dict = {}
        for s, p in alive.items():
            for v, q in step.items():
                x = s + v
                if abs(x) >= t:
                    absorbed += p * q
                else:
                    new[x] = new.get(x, 0) + p * q
        alive = new
    return absorbed


def tail_of(law: dict, t: Fraction) -> Fraction:
    return sum((p for s, p in law.items() if abs(s) >= t), Fraction(0))


def check_simulate_rows(payload: dict, step: dict, w, a, n_max: int = 8) -> None:
    """The exact column and the running-maximum terms for n <= n_max, against enumeration."""
    laws = walk_laws(step, n_max)
    for key, series in payload["series"].items():
        check_series(series)
        eps = float(key.split(":")[-1])
        for row in series["rows"]:
            n = row["n"]
            if n > n_max:
                continue
            t = Fraction(eps * a(n))
            if key.startswith("max:"):
                want = w(n) * float(max_tail(step, n, t))
                if not _close(row["term"], want):
                    raise CheckFailed(f"running maximum eps={eps} n={n}: {row['term']!r} "
                                      f"!= Fraction enumeration {want!r}")
            elif row.get("exact") is not None:
                want = float(tail_of(laws[n - 1], t))
                if abs(row["exact"] - want) > _EXACT_ATOL:
                    raise CheckFailed(f"exact column eps={eps} n={n}: {row['exact']!r} "
                                      f"!= Fraction enumeration {want!r}")


def check_oracle_lattice(oracle_tail, step: dict, n_max: int = 8) -> None:
    """The op's walk oracle at every support point of |S_n|, n <= n_max, against enumeration.

    ``oracle_tail(n, t)`` is P(|S_n| >= t) as the program computes it.  Support
    points are where a table keyed by inexact sums lands on the wrong side.
    """
    wrong = []
    for n, law in enumerate(walk_laws(step, n_max), start=1):
        for t in sorted({abs(s) for s in law if s}):
            got, want = oracle_tail(n, float(t)), float(tail_of(law, t))
            if abs(got - want) > _EXACT_ATOL:
                wrong.append(f"P(|S_{n}| >= {float(t)!r}) = {got!r}, enumeration {want!r}")
    if wrong:
        raise CheckFailed(f"oracle differs from Fraction enumeration at {len(wrong)} "
                          f"support points, first {wrong[0]}")
