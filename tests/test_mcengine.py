"""Exact walk oracles against Fraction enumeration and closed forms."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cclab import distmodel as dm
from cclab import mcengine as mc
from cclab import seqkit as sk

N_MAX = 8

# (distribution, exact one-step law as {value: probability}); values are the
# decimals as written, probabilities the exact binary fractions the floats hold
LAWS = {
    "rademacher": (dm.rademacher(), {Fraction(-1): Fraction(1, 2), Fraction(1): Fraction(1, 2)}),
    "atoms 1,3": (dm.atomic_sym([(1.0, 0.5), (3.0, 0.25)]),
                  {Fraction(-3): Fraction(1, 8), Fraction(-1): Fraction(1, 4), Fraction(0): Fraction(1, 4),
                   Fraction(1): Fraction(1, 4), Fraction(3): Fraction(1, 8)}),
    "atoms 0.1,0.3": (dm.atomic_sym([(0.1, 0.5), (0.3, 0.25)]),
                      {Fraction("-0.3"): Fraction(1, 8), Fraction("-0.1"): Fraction(1, 4),
                       Fraction(0): Fraction(1, 4), Fraction("0.1"): Fraction(1, 4),
                       Fraction("0.3"): Fraction(1, 8)}),
    "positive 1,2.5,4": (dm.atomic([(1.0, 0.5), (2.5, 0.25), (4.0, 0.25)]),
                         {Fraction(1): Fraction(1, 2), Fraction("2.5"): Fraction(1, 4),
                          Fraction(4): Fraction(1, 4)}),
    "negative -0.5,-2": (dm.atomic([(-0.5, 0.75), (-2.0, 0.25)]),
                         {Fraction("-0.5"): Fraction(3, 4), Fraction(-2): Fraction(1, 4)}),
}


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


def max_tail_walk(step: dict, n_max: int, t: Fraction) -> list[Fraction]:
    """Exact P(max_{k<=j} |S_k| >= t) for j = 1..n_max by an absorbing walk."""
    alive, absorbed, out = {Fraction(0): Fraction(1)}, Fraction(0), []
    for _ in range(n_max):
        new: dict = {}
        for s, p in alive.items():
            for v, q in step.items():
                if abs(s + v) >= t:
                    absorbed += p * q
                else:
                    new[s + v] = new.get(s + v, 0) + p * q
        alive = new
        out.append(absorbed)
    return out


def tail_of(law: dict, t: Fraction) -> Fraction:
    return sum((p for s, p in law.items() if abs(s) >= t), Fraction(0))


def thresholds(law: dict) -> list[Fraction]:
    """Every support point of |S_n|, plus points between and beyond them."""
    points = sorted({abs(s) for s in law})
    mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
    return sorted(set(points + mids + [points[-1] + 1]) - {0})


@pytest.mark.parametrize("name", sorted(LAWS))
def test_oracle_matches_enumeration(name):
    d, step = LAWS[name]
    for n, law in enumerate(walk_laws(step, N_MAX), start=1):
        oracle = mc.exact_walk_oracle(d, n)
        support = sorted(law)
        assert oracle.values.tolist() == [float(s) for s in support]
        assert oracle.probs == pytest.approx([float(law[s]) for s in support],
                                             rel=1e-14, abs=0.0)
        for t in thresholds(law):
            assert mc.exact_tail(oracle, float(t)) == pytest.approx(
                float(tail_of(law, t)), rel=1e-13, abs=1e-16), (n, t)


def test_oracle_off_lattice_regression():
    # float-keyed tables put 0.1 + 0.1 + ... on the wrong side of 0.9
    d, step = LAWS["atoms 0.1,0.3"]
    got = mc.exact_tail(mc.exact_walk_oracle(d, 6), 0.9)
    want = tail_of(walk_laws(step, 6)[-1], Fraction("0.9"))
    assert got == pytest.approx(float(want), rel=1e-14)
    assert got == pytest.approx(0.0352707, abs=5e-8)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_max_tail_profile_matches_absorbing_walk(name):
    d, step = LAWS[name]
    for t in thresholds(walk_laws(step, N_MAX)[-1]):
        got = mc.max_tail_profile(d, N_MAX, float(t))
        want = [float(p) for p in max_tail_walk(step, N_MAX, t)]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-16), t
        assert mc.exact_max_tail(d, N_MAX, float(t)) == got[-1]


def test_max_tail_profile_trivial_thresholds():
    d = LAWS["atoms 1,3"][0]
    assert mc.max_tail_profile(d, 4, 0.0).tolist() == [1.0] * 4
    assert mc.max_tail_profile(d, 4, math.inf).tolist() == [0.0] * 4


@pytest.mark.parametrize("d", [dm.normal_std(), dm.uniform_sym(1.0),
                               dm.atomic_sym([(1.0 / 3.0, 0.5)]),
                               dm.atomic_sym([(1e-23, 0.5)]), dm.atomic([(1e17, 1.0)])],
                         ids=["normal_std", "uniform_sym", "third", "inexact 1/den",
                              "inexact k"])
def test_oracle_unavailable(d):
    with pytest.raises(mc.OracleUnavailable):
        mc.exact_walk_oracle(d, 4)
    with pytest.raises(mc.OracleUnavailable):
        mc.max_tail_profile(d, 4, 1.0)


def test_oracle_unavailable_beyond_support_cap():
    d = dm.atomic_sym([(0.001, 0.5), (1.0, 0.5)])  # 2001 lattice points per step
    mc.exact_walk_oracle(d, 2)
    with pytest.raises(mc.OracleUnavailable):
        mc.exact_walk_oracle(d, mc.MAX_ORACLE_SUPPORT // 2000)
    # one step of width 1, but the running maximum pads it out to 0
    far = dm.atomic([(1e12, 1.0)])
    assert mc.exact_walk_oracle(far, 4).values.tolist() == [4e12]
    with pytest.raises(mc.OracleUnavailable):
        mc.max_tail_profile(far, 4, 1.0)


def test_oracle_unavailable_beyond_work_cap():
    # 2001 lattice points a step: within the support cap at n = 400, but the
    # squarings would cost about 1e11 multiply-adds
    d = dm.atomic_sym([(0.001, 0.5), (1.0, 0.25)])
    start = time.perf_counter()
    with pytest.raises(mc.OracleUnavailable, match="multiply-adds"):
        mc.exact_walk_oracle(d, 400)
    with pytest.raises(mc.OracleUnavailable, match="multiply-adds"):
        mc.max_tail_profile(d, mc.MAX_MAXIMAL_N, 30.0)
    assert time.perf_counter() - start < 1.0


def test_rademacher_large_n_matches_binomial():
    n = 4096
    oracle = mc.exact_walk_oracle(dm.rademacher(), n)
    # values are n - 2k; entries below the smallest double are dropped
    assert np.all(np.diff(oracle.values) == 2.0)
    assert 0.0 in oracle.values.tolist()
    binom = [1]
    for k in range(n):
        binom.append(binom[-1] * (n - k) // (k + 1))
    for t in (1, 64, 128, 256, 400):
        want = Fraction(sum(c for k, c in enumerate(binom) if abs(n - 2 * k) >= t), 2 ** n)
        assert mc.exact_tail(oracle, float(t)) == pytest.approx(float(want), rel=1e-10)


def test_empirical_series_exact_column():
    w, a = sk.power_law_weights(-1.0), sk.power_law_norms(1.0)
    grid = [2, 4, 8]
    rep = mc.empirical_series(dm.uniform_sym(1.0), w, a, 0.5, grid, 1000, seed=3)
    assert [row.exact for row in rep.rows] == [None] * len(grid)
    d = dm.atomic_sym([(1.0, 0.5), (3.0, 0.25)])
    rep = mc.empirical_series(d, w, a, 0.5, grid, 1000, seed=3)
    for row in rep.rows:
        want = mc.exact_tail(mc.exact_walk_oracle(d, row.n), 0.5 * a(row.n))
        assert row.exact == want
