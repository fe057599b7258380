"""Exact walk oracles against Fraction enumeration and closed forms."""

import bisect
import hashlib
import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cclab import distmodel as dm
from cclab import mcengine as mc
from cclab import seeding
from test_distmodel import KS_CRIT_1E3, ks_statistic

N_MAX = 8


def estimate_at(d, n, thresholds, replicates, seed, **kwargs) -> list:
    """estimate_tail's one-point grid on the estimate command's address (seed, 0, n)."""
    (ests,) = mc.estimate_tail(d, [(n, thresholds)], replicates, seed, (0, n), **kwargs)
    return ests


def batch_sums(d, n):
    """The draw of one batch of S_n, rows signed sums: the walk of the one-point grid [n]."""
    walk, _ = mc._walk(d, [n])
    return lambda rows, rng: next(walk(rows, rng))


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


def running_sum_profile(d, n_max: int, threshold: float) -> np.ndarray:
    """max_tail_profile as it was written first: the outflow added to a
    running sum at every step.  Kept to hold the one summation to its bits."""
    if threshold <= 0:
        return np.ones(n_max, dtype=np.float64)
    kernel, step_lo, den = mc._lattice(d, n_max)
    step_hi = step_lo + len(kernel) - 1
    lo, hi = min(step_lo, 0), max(step_hi, 0)
    k = n_max * max(-lo, hi)
    if not math.isinf(threshold):
        k = min(k, math.ceil(Fraction(threshold) * den) - 1)
    while k / den >= threshold:
        k -= 1
    band_lo, band_hi = max(-k, n_max * lo), min(k, n_max * hi)
    width = band_hi - band_lo + 1
    kernel = np.pad(kernel, (step_lo - lo, hi - step_hi))
    alive = np.zeros(width, dtype=np.float64)
    alive[-band_lo] = 1.0
    absorbed = 0.0
    out = np.empty(n_max, dtype=np.float64)
    for j in range(n_max):
        full = np.convolve(alive, kernel)
        absorbed += float(full[:-lo].sum()) + float(full[width - lo:].sum())
        alive = full[-lo:width - lo]
        out[j] = absorbed
    return out


@pytest.mark.parametrize("d", [
    dm.rademacher(), LAWS["atoms 1,3"][0], LAWS["atoms 0.1,0.3"][0],
    dm.atomic_sym([(0.001, 0.3), (0.017, 0.3), (0.05, 0.2)]),  # den = 1000
    LAWS["positive 1,2.5,4"][0], LAWS["negative -0.5,-2"][0],  # lo = 0, hi = 0
], ids=["rademacher", "atoms 1,3", "atoms 0.1,0.3", "den 1000", "lo 0", "hi 0"])
def test_max_tail_profile_is_the_running_sum_bit_for_bit(d):
    steps, _, den, _ = d.lattice_steps
    reach = max(map(abs, steps))
    for n in range(1, mc.MAX_MAXIMAL_N + 1):
        points = [1, reach, n * reach // 3, n * reach // 2 + 1, n * reach]
        near = [math.nextafter(k / den, to) for k in points for to in (0.0, math.inf)]
        for t in [0.0, 5e-324, *(k / den for k in points), *near, (2 * reach + 1) / (2 * den),
                  math.inf]:
            np.testing.assert_array_equal(mc.max_tail_profile(d, n, t).view(np.uint64),
                                          running_sum_profile(d, n, t).view(np.uint64))


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


# ---------------------------------------------------------------------------
# Direct draws of S_n against the oracles
# ---------------------------------------------------------------------------


def chi_square_p(observed, expected) -> float:
    """Upper p-value of Pearson's statistic, adjacent cells merged until each expects >= 5."""
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
    stat, dof = ((obs - exp) ** 2 / exp).sum(), len(obs) - 1
    return float(mpmath.gammainc(dof / 2, stat / 2, mpmath.inf, regularized=True))


SUM_LAWS = ["rademacher", "atoms 1,3", "atoms 0.1,0.3"]


@pytest.mark.parametrize("n", [1, 2, 16, 100, 512, 1024])
@pytest.mark.parametrize("name", SUM_LAWS)
def test_direct_sums_follow_the_oracle_law(name, n):
    d = LAWS[name][0]
    rows = 200_000
    sums = batch_sums(d, n)(rows, seeding.stream(2026, n))
    oracle = mc.exact_walk_oracle(d, n)
    idx = np.searchsorted(oracle.values, sums)
    # every draw is a lattice point of the oracle, bit for bit
    assert np.array_equal(oracle.values[np.minimum(idx, len(oracle.values) - 1)], sums)
    observed = np.bincount(idx, minlength=len(oracle.values))
    assert chi_square_p(observed, rows * oracle.probs) > 1e-4


@pytest.mark.parametrize("n", [16, 1024])
def test_direct_normal_sums_follow_erfc(n):
    rows = 200_000
    sums = batch_sums(dm.normal_std(), n)(rows, seeding.stream(2026, n))
    edges = [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
    upper = [0.5 * math.erfc(e / math.sqrt(2.0)) for e in edges]  # P(Z >= e)
    probs = -np.diff([1.0, *upper, 0.0])
    observed = np.bincount(np.searchsorted(np.sqrt(n) * np.array(edges), sums, side="right"),
                           minlength=len(edges) + 1)
    assert probs.sum() == pytest.approx(1.0)
    assert chi_square_p(observed, rows * probs) > 1e-4


def test_off_lattice_sums_follow_the_law_of_the_float_atoms():
    # 1/3 and sqrt 2 have no decimal lattice within 2^53, so each increment
    # of the walk, of 2, 4 and 2 steps, adds its atom counts times the float
    # atoms; the law is enumerated over the exact binary values of those floats
    d = dm.atomic_sym([(1.0 / 3.0, 0.5), (math.sqrt(2.0), 0.25)])
    steps, probs, den, values = d.lattice_steps
    grid, rows = [2, 6, 8], 200_000
    assert not mc._exact_range(grid[0], steps, den)
    laws = walk_laws({Fraction(v): Fraction(p) for v, p in zip(values.tolist(), probs.tolist())},
                     grid[-1])
    supports = [np.array([float(s) for s in sorted(laws[n - 1])]) for n in grid]
    var = sum(v * v * p for v, p in zip(values.tolist(), probs.tolist()))  # of one step
    thresholds = []
    for n, support in zip(grid, supports):
        # midway between the points of |S_n| about one standard deviation out
        points = np.unique(np.abs(support))
        i = int(np.searchsorted(points, math.sqrt(n * var)))
        thresholds.append([float(points[j - 1] + points[j]) / 2.0 for j in (i, i + 1)])
    # one batch, so the walk and estimate_tail read the same stream
    estimates = mc.estimate_tail(d, list(zip(grid, thresholds)), rows, 2026, (8,),
                                 batch_size=rows)
    walk = mc._walk(d, grid)[0](rows, seeding.stream(2026, 8, 0))
    for n, support, sums, ts, ests in zip(grid, supports, walk, thresholds, estimates):
        law = laws[n - 1]
        # every draw lies within rounding of one point of the law
        idx = np.clip(np.searchsorted(support, sums), 1, len(support) - 1)
        idx -= np.abs(sums - support[idx - 1]) < np.abs(sums - support[idx])
        assert np.abs(sums - support[idx]).max() <= 1e-14, n
        assert np.diff(support).min() > 1e-3, n
        observed = np.bincount(idx, minlength=len(support))
        expected = rows * np.array([float(law[s]) for s in sorted(law)])
        assert chi_square_p(observed, expected) > 1e-4, n
        for t, est in zip(ts, ests):
            # a hit is |S_n| >= t, counted on the walk's own S_n
            assert est.p_hat == np.count_nonzero(np.abs(sums) >= t) / rows, (n, t)
            exact = float(sum(p for s, p in law.items() if abs(s) >= Fraction(t)))
            assert abs(est.p_hat - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / rows), (n, t)


# ---------------------------------------------------------------------------
# uniform_sym: 53 binomial bit planes against the exact Irwin-Hall law
# ---------------------------------------------------------------------------


def irwin_hall_cdf(n: int, x: Fraction) -> Fraction:
    """P(U_1 + ... + U_n <= x) for n independent U(0, 1), exactly."""
    return sum((Fraction((-1) ** k * math.comb(n, k)) * (x - k) ** n
                for k in range(min(n, math.floor(x)) + 1)), Fraction(0)) / math.factorial(n)


def uniform_sum_tail(n: int, t: Fraction) -> Fraction:
    """P(|S_n| >= t) for uniform_sym(1): S_n = 2 (U_1 + ... + U_n) - n."""
    return 2 * (1 - irwin_hall_cdf(n, (n + t) / 2))


@pytest.mark.parametrize("n", [2, 3, 16])
def test_plane_sums_follow_irwin_hall(n):
    h, rows = 1.5, 50_000
    cuts = [Fraction(n * j, 20) for j in range(1, 20)]  # cuts of U_1 + ... + U_n
    cdf = [Fraction(0), *(irwin_hall_cdf(n, x) for x in cuts), Fraction(1)]
    probs = np.array([float(b - a) for a, b in zip(cdf, cdf[1:])])
    edges = np.array([h * (2 * float(x) - n) for x in cuts])
    for table in (mc._HalfBinomial(n), None):  # the counts by inversion, then by numpy
        sums = mc._uniform_plane_sums(n, h, rows, seeding.stream(2026, 3, n), table)
        assert np.abs(sums).max() <= n * h
        observed = np.bincount(np.searchsorted(edges, sums), minlength=len(probs))
        assert chi_square_p(observed, rows * probs) > 1e-4


@pytest.mark.parametrize("n,t", [(512, 30), (1024, 40)])
def test_uniform_estimate_matches_the_exact_tail(n, t):
    exact = float(uniform_sum_tail(n, Fraction(t)))
    assert 0.01 < exact < 0.05
    replicates = 20_000
    (est,) = estimate_at(dm.uniform_sym(1.0), n, [t], replicates, seed=11)
    assert abs(est.p_hat - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / replicates)


def test_plane_assembly_is_exact():
    rng = np.random.default_rng(5)
    # explicit 53-bit integers: C_k counts the m_i with bit k set
    for n in (1, 2, 3, 7, 512):
        ms = [[int(x) for x in rng.integers(0, 2 ** 53, size=n, dtype=np.uint64)]
              for _ in range(20)]
        ms += [[0] * n, [2 ** 53 - 1] * n, [2 ** 52] * n]
        counts = np.array([[sum(m >> k & 1 for m in row) for k in range(53)] for row in ms])
        want = [float(sum(2 * m - 2 ** 53 for m in row)) for row in ms]
        assert mc._plane_sums(counts, n).tolist() == want
    # n identical integers set each plane in 0 or n of them; near n = 2^36 the
    # halves pass 2^53 and are added in Python integers (for the last two m,
    # rounding the high half first gives a different double)
    n = 2 ** 36 - 1
    ms = [0, 2 ** 53 - 1, 2 ** 53 - 2 ** 26, 2 ** 26 - 1, 2 ** 52, 0x15555555555555,
          0xff8dc94cab8ce, 0x10072bdbc84e78]
    counts = np.array([[n * (m >> k & 1) for k in range(53)] for m in ms])
    assert mc._plane_sums(counts, n).tolist() == [float(n * (2 * m - 2 ** 53)) for m in ms]


def test_uniform_below_the_plane_cutoff_keeps_its_single_steps():
    # sums of uniform_sym(1.5) written when single steps became a sign count
    # a row and magnitudes (sfc64-v7)
    fixture = json.loads((Path(__file__).parent / "golden" / "uniform_sym_small_n.json").read_text())
    d = dm.uniform_sym(fixture["half_width"])
    for case in fixture["cases"]:
        n = case["n"]
        assert n < mc._PLANE_MIN_N
        sums = batch_sums(d, n)(case["rows"], seeding.stream(*fixture["stream"], n))
        assert [float(x).hex() for x in sums[:3]] == case["head"]
        assert hashlib.sha256(sums.astype("<f8").tobytes()).hexdigest() == case["sha256"]


def test_uniform_from_the_plane_cutoff_draws_inverted_planes():
    # the least n at which inverted planes, table included, cost no more than
    # single steps at both MIN_REPLICATES and DEFAULT_BATCH rows
    n = mc._PLANE_MIN_N
    assert n == 176
    sums = batch_sums(dm.uniform_sym(1.5), n)(3000, seeding.stream(2026, 9, n))
    planes = mc._uniform_plane_sums(n, 1.5, 3000, seeding.stream(2026, 9, n), mc._HalfBinomial(n))
    assert np.array_equal(sums, planes)
    assert [float(x).hex() for x in sums[:2]] == ["0x1.764b880fa1244p+2", "0x1.66ffcb05750acp+1"]
    assert hashlib.sha256(sums.astype("<f8").tobytes()).hexdigest() == \
        "6281463af73756d5fc27292ee458e789e80582ac09dd8957f4d1e21c32064ba4"


# ---------------------------------------------------------------------------
# uniform_sym's plane counts by exact inversion of Bin(n, 1/2)
# ---------------------------------------------------------------------------


class ListedWords:
    """A stand-in for a Generator whose bit generator hands out ``words`` in
    order; inverted plane counts read nothing else of it."""

    def __init__(self, words):
        self.bit_generator, self.words, self.drawn = self, list(words), 0

    def random_raw(self, size=None):
        k = 1 if size is None else size
        out = self.words[self.drawn:self.drawn + k]
        assert len(out) == k, "ran out of listed words"
        self.drawn += k
        return out[0] if size is None else np.array(out, dtype=np.uint64)


class PlantedTies:
    """A stand-in for ``rng`` whose words are rng's, but for every 4999th, which
    ties with Bin(n, 1/2)'s CDF: 0, 2^64 - 1 or one of the central b[k]."""

    def __init__(self, rng, n):
        b = mc._HalfBinomial(n).b
        self.ties = np.array([0, 2 ** 64 - 1, *b[n // 2 - 8:n // 2 + 8]], dtype=np.uint64)
        self.bit_generator, self.words, self.drawn = self, rng.bit_generator, 0

    def random_raw(self, size=None):
        out = self.words.random_raw(1 if size is None else size)
        at = np.arange(self.drawn, self.drawn + len(out))
        self.drawn += len(out)
        hit = at % 4999 == 0
        out[hit] = self.ties[at[hit] // 4999 % len(self.ties)]
        return int(out[0]) if size is None else out


def fraction_counts(n: int, size: int, words: list) -> tuple[list, int]:
    """``size`` Bin(n, 1/2) counts X = #{k < n : U >= F(k)} by exact Fractions,
    and how many of ``words`` they read.  Each count reads one word, U's leading
    64 bits; a count whose U interval holds some F(k) strictly inside then reads
    further words, after all counts' first words and in draw order, until none does."""
    cdf = list(itertools.accumulate(Fraction(math.comb(n, k), 2 ** n) for k in range(n)))

    def undecided(u, width):
        return bisect.bisect_right(cdf, u) != bisect.bisect_left(cdf, u + width)

    us = [Fraction(w, 2 ** 64) for w in words[:size]]
    used = size
    for i in [i for i, u in enumerate(us) if undecided(u, Fraction(1, 2 ** 64))]:
        width = Fraction(1, 2 ** 64)
        while undecided(us[i], width):
            width /= 2 ** 64
            us[i] += words[used] * width
            used += 1
    return [bisect.bisect_right(cdf, u) for u in us], used


@pytest.mark.parametrize("n", [16, 1000, 1024])
def test_inverted_counts_match_fraction_inversion(n):
    # words forced onto b[k], 0 and 2^64 - 1, then words that decide the ties
    table = mc._HalfBinomial(n)
    cum = list(itertools.accumulate(math.comb(n, k) for k in range(n)))
    assert table.cum == cum
    mask = 2 ** 64 - 1

    def chunk(k, j):  # word j of F(k) = cum[k] / 2^n, word 0 being b[k]
        return cum[k] << 64 * (j + 1) >> n & mask

    rows = 3
    words = [int(w) for w in np.random.SFC64(n).random_raw(53 * rows + 40)]
    k1, k2, k3 = n // 2, n // 2 + 3, n // 2 - 5
    regular, more = words[:53 * rows], []
    regular[5], regular[17] = chunk(k1, 0), chunk(k2, 0)
    regular[60], regular[61] = chunk(k3, 0), 0
    regular[150] = mask
    if n > 64:
        assert chunk(k1, 2) < mask and chunk(k2, 1) > 0 and table.b[0] == 0
        more += [chunk(k1, 1), chunk(k1, 2) + 1]  # equal for a word, then above F(k1)
        more += [chunk(k2, 1) - 1]  # below F(k2)
        more += [chunk(k3, j) for j in range(1, -(-(n - 64) // 64) + 1)]  # F(k3) to its end
    stream = ListedWords(regular + more + words[53 * rows:])
    sums = mc._uniform_plane_sums(n, 1.0, rows, stream, table)
    want, used = fraction_counts(n, 53 * rows, stream.words)
    counts = np.array(want).reshape(rows, 53)
    assert sums.tolist() == (mc._plane_sums(counts, n) * 2.0 ** -53).tolist()
    assert stream.drawn == used
    if n > 64:
        assert (counts.flat[5], counts.flat[17], counts.flat[60]) == (k1 + 1, k2, k3 + 1)
        assert used > 53 * rows + len(more)  # the words at 0 and 2^64 - 1 read words too
    else:
        assert used == 53 * rows  # b[k] = 2^64 F(k) exactly, so no word ties


@pytest.mark.parametrize("n", [mc._PLANE_MIN_N, mc._TABLE_MAX_N])
def test_inverted_counts_follow_the_binomial_law(n):
    table = mc._HalfBinomial(n)
    counts, tied = table.invert(seeding.stream(2026, 11, n).bit_generator.random_raw(10 ** 6))
    assert tied.size == 0
    pmf = np.array([math.comb(n, k) / 2 ** n for k in range(n + 1)])
    assert chi_square_p(np.bincount(counts, minlength=n + 1), 10 ** 6 * pmf) > 1e-4


def test_past_the_table_the_planes_keep_numpys_binomials():
    # the sums the plane path drew at this n before the table existed
    n = mc._TABLE_MAX_N + 1
    assert n == 2305
    sums = batch_sums(dm.uniform_sym(1.5), n)(3000, seeding.stream(2026, 10))
    assert [float(x).hex() for x in sums[:2]] == ["-0x1.4935f2a13facep+5", "0x1.b8100a1976789p+5"]
    assert hashlib.sha256(sums.astype("<f8").tobytes()).hexdigest() == \
        "8df9a8af0ba8a0a85deb55f79ec1655d9ba5bf362260a1cc8472342e11bc5e2c"


class PlantedSigns:
    """A stand-in for ``rng`` whose fair sign words are rng's, but all zero in
    every third row of n steps and all one in the row after it, so those rows
    have K = 0 and K = n + steps.  The magnitudes are rng's own."""

    def __init__(self, rng, n):
        self.bit_generator, self.rng, self.width, self.drawn = self, rng, -(-n // 64), 0

    def random_raw(self, size):
        out = self.rng.bit_generator.random_raw(size)
        row = np.arange(self.drawn, self.drawn + size) // self.width % 3
        self.drawn += size
        out[row == 0], out[row == 1] = 0, 2 ** 64 - 1
        return out

    def random(self, size):
        return self.rng.random(size)


@pytest.mark.parametrize("d,n,rows,stand_in", [
    (dm.pareto_sym(1.5), 300, 15_000, None), (dm.uniform_sym(1.0), 150, 15_000, None),
    (dm.uniform_sym(1.0), 1024, 15_000, None), (dm.uniform_sym(1.0), 1024, 15_000, PlantedTies),
    (LAWS["atoms 1,3"][0], 200, 15_000, None), (dm.pareto_sym(1.5), 3000, 1_500, None),
    (dm.pareto_sym(1.5), 300, 15_000, PlantedSigns)],
    ids=["pareto_sym", "uniform_sym", "uniform_sym planes", "uniform_sym planes with ties",
         "atoms 1,3 fair bits", "pareto_sym rows past the block", "pareto_sym rows of one sign"])
def test_sums_do_not_depend_on_the_block_size(monkeypatch, d, n, rows, stand_in):
    # rows of 300 magnitudes come 3 or 109 to a block, and rows of 3000 one
    # or 10 (a row past the smaller block is a block of its own); the fair
    # bits of 200 steps come 25 or 819 rows to a block
    sums = []
    for block in (1 << 10, 1 << 15):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block)
        rng = seeding.stream(2026, 4)
        sums.append(batch_sums(d, n)(rows, stand_in(rng, n) if stand_in else rng).tobytes())
    assert sums[0] == sums[1]


@pytest.mark.parametrize("n,planted,piece", [(1, False, None), (7, True, None), (300, True, None),
                                             (1024, False, None), (3000, False, 1 << 10)])
def test_step_sums_are_the_signed_sums_of_their_draws(monkeypatch, n, planted, piece):
    # S_n = scale (sum of a row's first K magnitudes - sum of the rest), K its
    # + count; the planted rows have K = 0 and K = n, and at 300 steps rows
    # 217 and 301 end their blocks with K = n; 3000 steps in pieces of 1024
    # put K in the middle piece
    if piece:
        monkeypatch.setattr(mc, "_ROW_PIECE", piece)
    d, rows = dm.pareto_sym(1.5, 2.0), 302

    def rng():
        stream = seeding.stream(2026, 13, n)
        return PlantedSigns(stream, n) if planted else stream

    sums = batch_sums(d, n)(rows, rng())
    again = rng()
    k = mc._atom_counts(n, np.array([0.5, 0.5]))(rows, again)[:, 1]
    mags = dm.sample(d, again, rows * n).reshape(rows, n)
    first = np.arange(n) < k[:, None]
    plus, minus = np.where(first, mags, 0.0).sum(axis=1), np.where(first, 0.0, mags).sum(axis=1)
    assert np.all(np.abs(sums - 2.0 * (plus - minus)) <= 1e-12 * (plus + minus))
    if planted:
        assert (k[0::3] == 0).all() and (k[1::3] == n).all()


def test_one_step_sums_follow_the_step_laws():
    # at n = 1 the sum is the step itself, scale times +-|X|
    s, alpha = 2.0, 1.5
    x = batch_sums(dm.pareto_sym(alpha, s), 1)(10 ** 6, seeding.stream(2026, 14))

    def pareto_cdf(t):
        tail = 0.5 * (s / np.maximum(np.abs(t), s)) ** alpha
        return np.where(t < 0, tail, 1.0 - tail)

    assert ks_statistic(x, pareto_cdf) < KS_CRIT_1E3
    h = 1.5
    x = batch_sums(dm.uniform_sym(h), 1)(10 ** 6, seeding.stream(2026, 15))
    assert ks_statistic(x, lambda t: np.clip((t + h) / (2.0 * h), 0.0, 1.0)) < KS_CRIT_1E3


def pareto_pair_tail(alpha: float, t: float) -> float:
    """P(|X_1 + X_2| >= t) for pareto_sym(alpha, 1) by quadrature: twice
    the integral of f(x) P(X_2 >= t - x), f(x) = alpha/2 |x|^(-alpha-1) off (-1, 1)."""
    mpmath.mp.dps = 30

    def upper(y):  # P(X >= y); X has no mass in (-1, 1)
        if y >= 1:
            return 0.5 * y ** -alpha
        return mpmath.mpf(0.5) if y > -1 else 1 - 0.5 * (-y) ** -alpha

    def f(x):
        return alpha / 2 * abs(x) ** (-alpha - 1) * upper(t - x)

    assert t > 2  # so 1 < t - 1, where P(X_2 >= t - x) changes form
    right = mpmath.quad(f, [1, t - 1, t + 1, mpmath.inf])
    left = mpmath.quad(f, [-mpmath.inf, -1])
    return float(2 * (right + left))


@pytest.mark.parametrize("t", [3.0, 10.0, 40.0])
def test_pareto_pair_estimate_matches_the_quadrature(t):
    exact = pareto_pair_tail(1.5, t)
    replicates = 200_000
    (est,) = estimate_at(dm.pareto_sym(1.5), 2, [t], replicates, seed=17)
    assert abs(est.p_hat - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / replicates)


def binomial_miss_limit(trials: int, miss_p: float = 0.01, alpha: float = 1e-6) -> int:
    """Largest miss count a correct 99% interval exceeds with probability below alpha."""
    tail, m = 1.0, -1
    while tail >= alpha:
        m += 1
        tail -= math.comb(trials, m) * miss_p ** m * (1.0 - miss_p) ** (trials - m)
    return m


@pytest.mark.parametrize("name,n,t", [("rademacher", 16, 4.0), ("atoms 1,3", 16, 6.0),
                                      ("atoms 0.1,0.3", 16, 0.6), ("normal_std", 64, 8.0),
                                      ("uniform_sym", 16, 5.0), ("uniform_sym", 100, 12.0),
                                      ("uniform_sym", 1024, 40.0)])
def test_wilson_interval_covers_exact_tail_over_seeds(name, n, t):
    trials = 400
    if name == "normal_std":
        d, exact = dm.normal_std(), math.erfc(t / math.sqrt(2.0 * n))
    elif name == "uniform_sym":
        d, exact = dm.uniform_sym(1.0), float(uniform_sum_tail(n, Fraction(t)))
        if n >= mc._PLANE_MIN_N:
            trials = 200  # 2e5 replicates of 53 binomials each
    else:
        d = LAWS[name][0]
        exact = mc.exact_tail(mc.exact_walk_oracle(d, n), t)
    misses = 0
    for seed in range(trials):
        (est,) = estimate_at(d, n, [t], 1000, seed)
        misses += not est.lo <= exact <= est.hi
    assert misses <= binomial_miss_limit(trials)


def test_lattice_hit_rule_matches_exact_tail():
    # 42 float additions of 0.1 give 4.199999999999999 < 4.2; the lattice sum is 42/10
    d = dm.atomic([(0.1, 1.0)])
    (est,) = estimate_at(d, 42, [4.2], 1000, seed=5)
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
        assert 0.0 < estimate_at(d, 1000, [10.0], 1000, seed=1)[0].p_hat < 1.0
    # uniform_sym from n = 176 on draws its bit planes, and atoms with no
    # decimal lattice within 2^53 their counts
    assert 0.0 < estimate_at(dm.uniform_sym(1.0), 1000, [10.0], 1000, seed=1)[0].p_hat < 1.0
    assert 0.0 < estimate_at(dm.atomic_sym([(1.0 / 3.0, 0.5)]), 8, [1.0], 1000,
                             seed=1)[0].p_hat < 1.0


@pytest.mark.parametrize("d,n,planted", [(dm.normal_std(), 16, False),
                                         (dm.uniform_sym(1.0), 16, False),
                                         (dm.atomic_sym([(0.1, 0.5), (0.3, 0.25)]), 16, False),
                                         (dm.pareto_sym(1.5), 16, False),
                                         (dm.uniform_sym(1.0), mc._PLANE_MIN_N, False),
                                         (dm.uniform_sym(1.0), mc._PLANE_MIN_N, True),
                                         (dm.rademacher(), 300, False)],
                         ids=["normal_std", "uniform_sym", "atoms 0.1,0.3", "pareto_sym",
                              "uniform_sym planes", "uniform_sym planes with ties",
                              "rademacher fair bits"])
def test_two_batches_are_identical_for_any_worker_count(monkeypatch, d, n, planted):
    if planted:
        stream = seeding.stream
        monkeypatch.setattr(seeding, "stream", lambda *address: PlantedTies(stream(*address), n))
    # 70000 replicates are two batches of DEFAULT_BATCH
    (one,) = estimate_at(d, n, [1.0], 70_000, seed=7, workers=1)
    (two,) = estimate_at(d, n, [1.0], 70_000, seed=7, workers=2)
    assert one.to_json_dict() == two.to_json_dict()
    assert one.seed_stream == seeding.stream_id(7, 0, n)


def test_sums_overflowing_to_both_signs_are_unavailable():
    # A step of pareto_sym(0.01) overflows to +-inf for u below 8e-4; 119 of these
    # 1000 sums hold both signs, and counting them as misses gave p_hat 0.881
    # where a single step alone exceeds 400 with probability 0.94.
    with pytest.raises(dm.SamplingUnavailable, match="both"):
        estimate_at(dm.pareto_sym(0.01), 1024, [400.0], 1000, 1)


def test_fair_pairs_draw_the_same_sums_whatever_the_kind():
    # multinomial counts depend on the masses alone: two atoms -v, +v of mass
    # 1/2 each give the same counts in any table, and the sums scale with v
    rad = batch_sums(dm.rademacher(), 64)(1000, seeding.stream(3, 1))
    for d in (dm.atomic_sym([(2.5, 1.0)]), dm.atomic([(2.5, 0.5), (-2.5, 0.5)])):
        assert np.array_equal(batch_sums(d, 64)(1000, seeding.stream(3, 1)), 2.5 * rad)


# ---------------------------------------------------------------------------
# The grid walk: one walk a replicate, read at every grid n
# ---------------------------------------------------------------------------

# Grids whose increments cross the samplers' edges: rademacher's fair bits
# end at 512 steps and the 0.1,0.3 atoms' at 1024, so the last increment of
# each draws numpy's multinomial.
WALK_GRIDS = {"rademacher": [2, 4, 16, 64, 576, 1600],
              "atoms 0.1,0.3": [1, 2, 8, 16, 100, 612, 1712]}


@pytest.mark.parametrize("name", sorted(WALK_GRIDS))
def test_the_walk_follows_the_oracle_law_at_every_grid_n(name):
    d, grid, rows = LAWS[name][0], WALK_GRIDS[name], 100_000
    oracles = [mc.exact_walk_oracle(d, n) for n in grid]
    # thresholds on lattice points: the least support point of |S_n| at or
    # past one standard deviation, and one point further
    var = float(sum(v * v * p for v, p in LAWS[name][1].items()))  # of one step
    thresholds = []
    for n, oracle in zip(grid, oracles):
        points = np.unique(np.abs(oracle.values))
        i = int(np.searchsorted(points, math.sqrt(n * var)))
        thresholds.append(points[i:i + 2].tolist())
    # one batch, so the walk and estimate_tail read the same stream
    estimates = mc.estimate_tail(d, list(zip(grid, thresholds)), rows, 2026, (16,),
                                 batch_size=rows)
    walk = mc._walk(d, grid)[0](rows, seeding.stream(2026, 16, 0))
    for n, oracle, sums, ts, ests in zip(grid, oracles, walk, thresholds, estimates):
        idx = np.searchsorted(oracle.values, sums)
        # every draw is a lattice point of the oracle, bit for bit
        assert np.array_equal(oracle.values[np.minimum(idx, len(oracle.values) - 1)], sums), n
        observed = np.bincount(idx, minlength=len(oracle.values))
        assert chi_square_p(observed, rows * oracle.probs) > 1e-4, n
        for t, est in zip(ts, ests):
            # a hit is |k|/den >= t, counted on the walk's own S_n
            assert est.p_hat == np.count_nonzero(np.abs(sums) >= t) / rows, (n, t)
            exact = mc.exact_tail(oracle, t)
            assert abs(est.p_hat - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / rows)


def test_the_walk_carries_the_lattice_coordinate_across_increments():
    # 42 float additions of 0.1 give 4.199999999999999 < 4.2; the walk adds
    # the increments' integer coordinates and divides by den once a point
    d = dm.atomic([(0.1, 1.0)])
    grid = [(2, [0.2]), (7, [0.7]), (40, [4.0]), (42, [4.2])]
    for ests in mc.estimate_tail(d, grid, 1000, 5, (1,)):
        assert [est.p_hat for est in ests] == [1.0]


def test_the_uniform_walk_follows_irwin_hall_across_the_plane_crossover():
    # increments of 16 and 84 steps draw single steps, of 176 bit planes
    h, rows, grid = 1.5, 50_000, [16, 100, 276, 452]
    assert grid[2] - grid[1] == grid[3] - grid[2] == mc._PLANE_MIN_N > grid[1] - grid[0]
    walk = mc._walk(dm.uniform_sym(h), grid)[0](rows, seeding.stream(2026, 17))
    for n, sums in zip(grid, walk):
        # cuts of U_1 + ... + U_n about half a standard deviation, sqrt(n/12), apart
        s = math.isqrt(n * 100 // 12)
        cuts = [Fraction(n, 2) + Fraction(j * s, 20) for j in range(-6, 7)]
        cdf = [Fraction(0), *(irwin_hall_cdf(n, x) for x in cuts), Fraction(1)]
        probs = np.array([float(b - a) for a, b in zip(cdf, cdf[1:])])
        edges = np.array([h * (2 * float(x) - n) for x in cuts])
        observed = np.bincount(np.searchsorted(edges, sums), minlength=len(probs))
        assert chi_square_p(observed, rows * probs) > 1e-4, n


def test_a_running_sum_that_meets_both_infinities_is_unavailable():
    # a step of pareto_sym(0.001) is +-inf for u below 0.49, so one step
    # draws no NaN, and rows whose two steps are +inf and -inf meet at n = 2
    d = dm.pareto_sym(0.001)
    assert estimate_at(d, 1, [1.0], 1000, 3)[0].p_hat > 0.4
    with pytest.raises(dm.SamplingUnavailable, match=r"running sum met \+inf and -inf"):
        mc.estimate_tail(d, [(1, [1.0]), (2, [1.0])], 1000, 3, (1,))


def test_the_grid_must_ascend():
    for grid in ([], [(4, [1.0]), (4, [1.0])], [(4, [1.0]), (2, [1.0])], [(0, [1.0])]):
        with pytest.raises(ValueError):
            mc.estimate_tail(dm.rademacher(), grid, 1000, 1, (1,))


# ---------------------------------------------------------------------------
# Atom counts from fair bits: popcounts of the ANDs of B bit planes
# ---------------------------------------------------------------------------


def slice_plan(name: str):
    return mc._slice_plan(tuple(LAWS[name][0].lattice_steps[1].tolist()))


def test_slice_plans_take_the_least_bits_and_exact_masses():
    assert mc._slice_plan((0.5, 0.5))[0] == 1
    assert slice_plan("rademacher")[0] == 1
    assert slice_plan("atoms 1,3")[0] == 3
    assert slice_plan("negative -0.5,-2")[0] == 2
    # 0.3 is no multiple of 2^-3, 1/16 needs 4 bits, and the masses must sum to 1
    for masses in [(0.3, 0.7), (0.0625, 0.9375), (0.5, 0.25), (0.5, 0.25, 0.125, 0.25)]:
        assert mc._slice_plan(masses) is None


def decoded_counts(words: list, n: int, masses, rows: int) -> list:
    """Category counts of n steps a row, each step's B bits read one by one
    from ``words`` as _sliced_counts lays them out."""
    bits = max(1, *(p.as_integer_ratio()[1].bit_length() - 1 for p in masses))
    cum = list(itertools.accumulate(int(p * 2 ** bits) for p in masses))
    width = -(-n // 64)
    out = []
    for r in range(rows):
        row = words[r * bits * width:(r + 1) * bits * width]
        counts = [0] * len(masses)
        for i in range(n):
            w, lane = divmod(i, 64)
            v = sum((row[w * bits + b] >> lane & 1) << b for b in range(bits))
            counts[bisect.bisect_right(cum, v)] += 1
        out.append(counts)
    return out


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("name", ["rademacher", "atoms 1,3", "negative -0.5,-2",
                                  "positive 1,2.5,4"])
def test_sliced_counts_decode_each_step(name, n):
    masses = LAWS[name][0].lattice_steps[1].tolist()
    plan = slice_plan(name)
    rows = 5
    words = [int(w) for w in np.random.SFC64(n).random_raw(rows * plan[0] * -(-n // 64))]
    stream = ListedWords(words)
    counts = mc._sliced_counts(n, *plan, rows, stream)
    assert stream.drawn == len(words)
    assert counts.tolist() == decoded_counts(words, n, masses, rows)


@pytest.mark.parametrize("name", ["rademacher", "atoms 1,3", "negative -0.5,-2"])
def test_constant_words_give_the_first_and_last_pattern(name):
    # at n = 65 the second word of each plane holds one step; its other 63
    # lanes are ignored, or the all-one words would count 128 steps
    plan, k = slice_plan(name), len(LAWS[name][0].lattice_steps[1])
    n, rows = 65, 3
    for word, category in ((0, 0), (2 ** 64 - 1, k - 1)):
        counts = mc._sliced_counts(n, *plan, rows, ListedWords([word] * (rows * plan[0] * 2)))
        assert counts.tolist() == [[n if j == category else 0 for j in range(k)]] * rows


@pytest.mark.parametrize("name,last", [("rademacher", 512), ("atoms 1,3", 1024),
                                       ("negative -0.5,-2", 256), ("positive 1,2.5,4", 704)])
def test_fair_bits_draw_up_to_the_crossover(monkeypatch, name, last):
    # B ceil(n/64) <= 14 (K - 1) - 6: B = 1, K = 2; B = 3, K = 5; B = 2, K = 2;
    # B = 2, K = 3
    sliced, real = [], mc._sliced_counts
    monkeypatch.setattr(mc, "_sliced_counts", lambda n, *rest: sliced.append(n) or real(n, *rest))
    for n in (1, last, last + 1):
        batch_sums(LAWS[name][0], n)(10, seeding.stream(1))
    assert sliced == [1, last]


@pytest.mark.parametrize("name,n,head,digest", [
    ("rademacher", 513, ["-0x1.b000000000000p+4", "-0x1.8000000000000p+1"],
     "cfb86a10f8f842c3c16b29f966811bc52617363f59da9ae7530cd98797c57299"),
    ("atoms 1,3", 1025, ["0x1.8000000000000p+1", "0x1.8000000000000p+4"],
     "267e6b95fe27ae3a43ed6bb8b4e107f9f02aed5d72770d6b93951060593f5d13"),
    ("atoms 0.1,0.3", 1025, ["0x1.3333333333333p-2", "0x1.3333333333333p+1"],
     "3f65ef5c647f138302805241f8f27a6808c1d6da02558ae240f94dd0e58fe5ef"),
    ("rademacher", 1024, ["-0x1.1000000000000p+5", "0x0.0p+0"],
     "3c49bcacbeff02bbba70c411584556771a1bd41917096991371ba25404634992")])
def test_past_the_crossover_the_counts_keep_numpys_multinomial(name, n, head, digest):
    # the sums numpy's multinomial drew before fair bits existed (sfc64-v5);
    # the atom laws' sums at n = 1025 as the multinomial drew them in sfc64-v7
    sums = batch_sums(LAWS[name][0], n)(3000, seeding.stream(2026, 12))
    assert [float(x).hex() for x in sums[:2]] == head
    assert hashlib.sha256(sums.astype("<f8").tobytes()).hexdigest() == digest


def test_the_pool_has_no_more_threads_than_batches_or_cpus(monkeypatch):
    # a stand-in for the executor: records its size and runs the batches in order
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(mc, "ThreadPoolExecutor", SerialPool)
    d = dm.uniform_sym(1.0)

    def estimate(workers, replicates=5_000):  # batches of 1000
        (est,) = estimate_at(d, 16, [2.0], replicates, 7, workers=workers, batch_size=1000)
        return est.to_json_dict()

    serial = estimate(1)
    for cpus, workers, want in ((64, 8, 5), (3, 8, 3), (64, 2, 2), (1, 8, None)):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert estimate(workers) == serial
        assert sizes == ([] if want is None else [want])
    monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
    sizes.clear()
    estimate(8)
    assert sizes == []  # an unknown CPU count runs serially
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
    estimate(8, replicates=1000)  # one batch
    assert sizes == []


def _rad_oracle(n):
    return mc.exact_walk_oracle(dm.rademacher(), n)


# (call, exception, message) for each refusal of an input the engine has no answer for
MC_GUARDS = {
    "wilson total 0": (lambda: mc.wilson_interval(0, 0), ValueError, "total must be positive"),
    "estimate outside its interval": (
        lambda: mc.Estimate(0.5, 1000, 0.6, 0.7, "s", 1, 1.0), ValueError,
        "interval must bracket the point estimate"),
    "estimate_tail 999 replicates": (
        lambda: mc.estimate_tail(dm.rademacher(), [(4, [1.0])], 999, 1, ()), ValueError,
        "need at least 1000 replicates"),
    "estimate_tail past the single-step cap": (
        lambda: mc.estimate_tail(dm.uniform_sym(1.0), [(100, [1.0])], 2 * 10 ** 8, 1, ()),
        dm.SamplingUnavailable, "uniform_sym: 20000000000 single steps is past the cap of 2"),
    "estimate_tail NaN threshold": (
        lambda: mc.estimate_tail(dm.rademacher(), [(4, [math.nan])], 1000, 1, ()), ValueError,
        "threshold must not be NaN"),
    "oracle mass 0.5": (
        lambda: mc.WalkOracle(1, np.ones(1), np.full(1, 0.5), np.full(1, 0.5)), ValueError,
        "oracle probabilities do not sum to 1"),
    "oracle n 0": (lambda: _rad_oracle(0), ValueError, "n must be >= 1"),
    "oracle wrong half": (
        lambda: mc.exact_walk_oracle(dm.rademacher(), 4, half=_rad_oracle(1)), ValueError,
        "half must be the oracle at n/2 steps"),
    "exact_tail NaN threshold": (
        lambda: mc.exact_tail(_rad_oracle(2), math.nan), ValueError, "threshold must not be NaN"),
    "running maximum n 0": (
        lambda: mc.max_tail_profile(dm.rademacher(), 0, 1.0), ValueError,
        r"running-maximum DP supports 1 <= n <= 64"),
    "running maximum n 65": (
        lambda: mc.max_tail_profile(dm.rademacher(), 65, 1.0), ValueError,
        r"running-maximum DP supports 1 <= n <= 64"),
    "running maximum NaN threshold": (
        lambda: mc.max_tail_profile(dm.rademacher(), 4, math.nan), ValueError,
        "threshold must not be NaN"),
}


def test_only_the_steps_drawn_one_at_a_time_count_against_the_cap():
    grid = [100, 300, 1000]  # increments of 100, 200 and 700 steps: uniform_sym's planes from 176
    laws = (dm.uniform_sym(1.0), dm.pareto_sym(1.5, 1.0), dm.rademacher(), dm.normal_std())
    assert [mc._walk(d, grid)[1] for d in laws] == [100, 1000, 0, 0]


@pytest.mark.parametrize("case", MC_GUARDS)
def test_each_engine_guard_refuses_with_its_message(case):
    call, exc, match = MC_GUARDS[case]
    with pytest.raises(exc, match=match):
        call()


def test_an_exact_tail_at_a_threshold_of_at_most_0_is_1():
    oracle = _rad_oracle(3)
    assert mc.exact_tail(oracle, 0.0) == mc.exact_tail(oracle, -1.0) == 1.0
