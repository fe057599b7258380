"""Exact walk oracles against Fraction enumeration and closed forms."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cclab import distmodel as dm
from cclab import mcengine as mc
from cclab import seeding
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


# ---------------------------------------------------------------------------
# Direct draws of S_n against the oracles
# ---------------------------------------------------------------------------


def chi_square_p(observed, expected) -> float:
    """Upper p-value of Pearson's statistic, adjacent cells merged until each expects >= 5."""
    from scipy.stats import chi2

    obs_cells, exp_cells, o_run, e_run = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        o_run, e_run = o_run + o, e_run + e
        if e_run >= 5.0:
            obs_cells.append(o_run)
            exp_cells.append(e_run)
            o_run = e_run = 0.0
    obs_cells[-1] += o_run
    exp_cells[-1] += e_run
    obs, exp = np.array(obs_cells), np.array(exp_cells)
    return float(chi2.sf(((obs - exp) ** 2 / exp).sum(), len(obs) - 1))


SUM_LAWS = ["rademacher", "atoms 1,3", "atoms 0.1,0.3"]


@pytest.mark.parametrize("n", [16, 1024])
@pytest.mark.parametrize("name", SUM_LAWS)
def test_direct_sums_follow_the_oracle_law(name, n):
    d = LAWS[name][0]
    rows = 200_000
    sums = mc._batch_sums(d, n)(rows, seeding.stream(2026, n))
    oracle = mc.exact_walk_oracle(d, n)
    idx = np.searchsorted(oracle.values, sums)
    # every draw is a lattice point of the oracle, bit for bit
    assert np.array_equal(oracle.values[np.minimum(idx, len(oracle.values) - 1)], sums)
    observed = np.bincount(idx, minlength=len(oracle.values))
    assert chi_square_p(observed, rows * oracle.probs) > 1e-4


@pytest.mark.parametrize("n", [16, 1024])
def test_direct_normal_sums_follow_erfc(n):
    rows = 200_000
    sums = mc._batch_sums(dm.normal_std(), n)(rows, seeding.stream(2026, n))
    edges = [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
    upper = [0.5 * math.erfc(e / math.sqrt(2.0)) for e in edges]  # P(Z >= e)
    probs = -np.diff([1.0, *upper, 0.0])
    observed = np.bincount(np.searchsorted(np.sqrt(n) * np.array(edges), sums, side="right"),
                           minlength=len(edges) + 1)
    assert probs.sum() == pytest.approx(1.0)
    assert chi_square_p(observed, rows * probs) > 1e-4


def binomial_miss_limit(trials: int, miss_p: float = 0.01, alpha: float = 1e-6) -> int:
    """Largest miss count a correct 99% interval exceeds with probability below alpha."""
    tail, m = 1.0, -1
    while tail >= alpha:
        m += 1
        tail -= math.comb(trials, m) * miss_p ** m * (1.0 - miss_p) ** (trials - m)
    return m


@pytest.mark.parametrize("name,n,t", [("rademacher", 16, 4.0), ("atoms 1,3", 16, 6.0),
                                      ("atoms 0.1,0.3", 16, 0.6), ("normal_std", 64, 8.0)])
def test_wilson_interval_covers_exact_tail_over_seeds(name, n, t):
    if name == "normal_std":
        d, exact = dm.normal_std(), math.erfc(t / math.sqrt(2.0 * n))
    else:
        d = LAWS[name][0]
        exact = mc.exact_tail(mc.exact_walk_oracle(d, n), t)
    trials = 400
    misses = 0
    for seed in range(trials):
        est = mc.estimate_tail(d, n, t, 1000, seed)
        misses += not est.lo <= exact <= est.hi
    assert misses <= binomial_miss_limit(trials)


def test_lattice_hit_rule_matches_exact_tail():
    # 42 float additions of 0.1 give 4.199999999999999 < 4.2; the lattice sum is 42/10
    d = dm.atomic([(0.1, 1.0)])
    est = mc.estimate_tail(d, 42, 4.2, 1000, seed=5)
    assert est.p_hat == 1.0 == mc.exact_tail(mc.exact_walk_oracle(d, 42), 4.2)
    assert est.hi == 1.0


def test_wilson_interval_ends_are_exact_at_zero_and_all_hits():
    assert mc.wilson_interval(1000, 1000)[1] == 1.0
    assert mc.wilson_interval(0, 1000)[0] == 0.0


def test_direct_sums_skip_single_steps_and_the_oracle_cap(monkeypatch):
    def no_steps(*args, **kwargs):
        raise AssertionError("single steps drawn")

    monkeypatch.setattr(dm, "sample", no_steps)
    # 2001 lattice points a step: past the oracle's support cap at n = 1000
    wide = dm.atomic_sym([(0.001, 0.5), (1.0, 0.25)])
    with pytest.raises(mc.OracleUnavailable):
        mc.exact_walk_oracle(wide, 1000)
    for d in (wide, dm.rademacher(), dm.normal_std()):
        assert 0.0 < mc.estimate_tail(d, 1000, 10.0, 1000, seed=1).p_hat < 1.0
    # no decimal lattice within 2^53: the single-step path
    with pytest.raises(AssertionError, match="single steps"):
        mc.estimate_tail(dm.atomic_sym([(1.0 / 3.0, 0.5)]), 8, 1.0, 1000, seed=1)


@pytest.mark.parametrize("d", [dm.normal_std(), dm.uniform_sym(1.0),
                               dm.atomic_sym([(0.1, 0.5), (0.3, 0.25)])],
                         ids=["normal_std", "uniform_sym", "atoms 0.1,0.3"])
def test_two_batches_are_identical_for_any_worker_count(d):
    # 70000 replicates are two batches of DEFAULT_BATCH
    one = mc.estimate_tail(d, 16, 1.0, 70_000, seed=7, workers=1)
    two = mc.estimate_tail(d, 16, 1.0, 70_000, seed=7, workers=2)
    assert one.to_json_dict() == two.to_json_dict()
    assert one.seed_stream.startswith("philox-v2:")


def test_sums_overflowing_to_both_signs_are_unavailable():
    # A step of pareto_sym(0.01) overflows to +-inf for u below 8e-4; 119 of these
    # 1000 sums hold both signs, and counting them as misses gave p_hat 0.881
    # where a single step alone exceeds 400 with probability 0.94.
    with pytest.raises(dm.SamplingUnavailable, match="both"):
        mc.estimate_tail(dm.pareto_sym(0.01), 1024, 400.0, 1000, 1)
