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
    steps, _, den = d.lattice_steps
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


def test_empirical_series_exact_column():
    w, a = sk.power_law_weights(-1.0), sk.power_law_norms(1.0)
    grid = [2, 4, 8]
    (rep,) = mc.empirical_series(dm.uniform_sym(1.0), w, a, [0.5], grid, 1000, seed=3)
    assert ["exact" in row for row in rep.rows] == [False] * len(grid)
    d = dm.atomic_sym([(1.0, 0.5), (3.0, 0.25)])
    (rep,) = mc.empirical_series(d, w, a, [0.5], grid, 1000, seed=3)
    for row in rep.rows:
        want = mc.exact_tail(mc.exact_walk_oracle(d, row["n"]), 0.5 * a(row["n"]))
        assert row["exact"] == want


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


def test_off_lattice_sums_follow_the_law_of_the_float_atoms():
    # 1/3 and sqrt 2 have no decimal lattice within 2^53, so S_n is the atom
    # counts times the float atoms; the law is enumerated over the exact
    # binary values of those floats
    third, root2 = 1.0 / 3.0, math.sqrt(2.0)
    d = dm.atomic_sym([(third, 0.5), (root2, 0.25)])
    step = {Fraction(v): Fraction(p) for v, p in zip(*dm.atom_table(d))}
    n, rows = 8, 200_000
    law = walk_laws(step, n)[-1]
    support = np.array([float(s) for s in sorted(law)])
    sums = mc._batch_sums(d, n)(rows, seeding.stream(2026, 8))
    # every draw lies within rounding of one point of the law
    idx = np.clip(np.searchsorted(support, sums), 1, len(support) - 1)
    idx -= np.abs(sums - support[idx - 1]) < np.abs(sums - support[idx])
    assert np.abs(sums - support[idx]).max() <= 1e-14
    assert np.diff(support).min() > 1e-3
    observed = np.bincount(idx, minlength=len(support))
    assert chi_square_p(observed, rows * np.array([float(law[s]) for s in sorted(law)])) > 1e-4


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
    (est,) = mc.estimate_tail(dm.uniform_sym(1.0), n, [t], replicates, seed=11)
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
    # sums of uniform_sym(1.5) written by the single-step path when the
    # streams became SFC64 (sfc64-v4); the n = 639 case left when the cutoff
    # fell from 640 to 192
    fixture = json.loads((Path(__file__).parent / "golden" / "uniform_sym_small_n.json").read_text())
    d = dm.uniform_sym(fixture["half_width"])
    for case in fixture["cases"]:
        n = case["n"]
        assert n < mc._PLANE_MIN_N
        sums = mc._batch_sums(d, n)(case["rows"], seeding.stream(*fixture["stream"], n))
        assert [float(x).hex() for x in sums[:3]] == case["head"]
        assert hashlib.sha256(sums.astype("<f8").tobytes()).hexdigest() == case["sha256"]


def test_uniform_from_the_plane_cutoff_draws_inverted_planes():
    # the least n at which inverted planes, table included, cost no more than
    # single steps at both MIN_REPLICATES and DEFAULT_BATCH rows
    n = mc._PLANE_MIN_N
    assert n == 192
    sums = mc._batch_sums(dm.uniform_sym(1.5), n)(3000, seeding.stream(2026, 9, n))
    planes = mc._uniform_plane_sums(n, 1.5, 3000, seeding.stream(2026, 9, n), mc._HalfBinomial(n))
    assert np.array_equal(sums, planes)
    assert [float(x).hex() for x in sums[:2]] == ["-0x1.30da22280116ap+4", "0x1.e9ab1a202615ep+2"]
    assert hashlib.sha256(sums.astype("<f8").tobytes()).hexdigest() == \
        "adae9fd28e0dda6a5f348e83c9aba44f061dcacb43eed196a1d0c6099e628afa"


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
    sums = mc._batch_sums(dm.uniform_sym(1.5), n)(3000, seeding.stream(2026, 10))
    assert [float(x).hex() for x in sums[:2]] == ["-0x1.4935f2a13facep+5", "0x1.b8100a1976789p+5"]
    assert hashlib.sha256(sums.astype("<f8").tobytes()).hexdigest() == \
        "8df9a8af0ba8a0a85deb55f79ec1655d9ba5bf362260a1cc8472342e11bc5e2c"


@pytest.mark.parametrize("d,n,planted", [(dm.pareto_sym(1.5), 300, False),
                                         (dm.uniform_sym(1.0), 150, False),
                                         (dm.uniform_sym(1.0), 1024, False),
                                         (dm.uniform_sym(1.0), 1024, True),
                                         (LAWS["atoms 1,3"][0], 200, False)],
                         ids=["pareto_sym", "uniform_sym", "uniform_sym planes",
                              "uniform_sym planes with ties", "atoms 1,3 fair bits"])
def test_sums_do_not_depend_on_the_block_size(monkeypatch, d, n, planted):
    # 15000 rows of 300 steps are two column chunks of 279 and 21 steps; the
    # fair bits of 200 steps come 25 or 819 rows to a block
    rows = 15_000
    sums = []
    for block in (1 << 10, 1 << 15):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block)
        rng = seeding.stream(2026, 4)
        sums.append(mc._batch_sums(d, n)(rows, PlantedTies(rng, n) if planted else rng).tobytes())
    assert sums[0] == sums[1]


def binomial_miss_limit(trials: int, miss_p: float = 0.01, alpha: float = 1e-6) -> int:
    """Largest miss count a correct 99% interval exceeds with probability below alpha."""
    tail, m = 1.0, -1
    while tail >= alpha:
        m += 1
        tail -= math.comb(trials, m) * miss_p ** m * (1.0 - miss_p) ** (trials - m)
    return m


@pytest.mark.parametrize("name,n,t", [("rademacher", 16, 4.0), ("atoms 1,3", 16, 6.0),
                                      ("atoms 0.1,0.3", 16, 0.6), ("normal_std", 64, 8.0),
                                      ("uniform_sym", 1024, 40.0)])
def test_wilson_interval_covers_exact_tail_over_seeds(name, n, t):
    trials = 400
    if name == "normal_std":
        d, exact = dm.normal_std(), math.erfc(t / math.sqrt(2.0 * n))
    elif name == "uniform_sym":
        d, exact = dm.uniform_sym(1.0), float(uniform_sum_tail(n, Fraction(t)))
        trials = 200  # 2e5 replicates of 53 binomials each
    else:
        d = LAWS[name][0]
        exact = mc.exact_tail(mc.exact_walk_oracle(d, n), t)
    misses = 0
    for seed in range(trials):
        (est,) = mc.estimate_tail(d, n, [t], 1000, seed)
        misses += not est.lo <= exact <= est.hi
    assert misses <= binomial_miss_limit(trials)


def test_lattice_hit_rule_matches_exact_tail():
    # 42 float additions of 0.1 give 4.199999999999999 < 4.2; the lattice sum is 42/10
    d = dm.atomic([(0.1, 1.0)])
    (est,) = mc.estimate_tail(d, 42, [4.2], 1000, seed=5)
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
        assert 0.0 < mc.estimate_tail(d, 1000, [10.0], 1000, seed=1)[0].p_hat < 1.0
    # uniform_sym from n = 192 on draws its bit planes, and atoms with no
    # decimal lattice within 2^53 their counts
    assert 0.0 < mc.estimate_tail(dm.uniform_sym(1.0), 1000, [10.0], 1000, seed=1)[0].p_hat < 1.0
    assert 0.0 < mc.estimate_tail(dm.atomic_sym([(1.0 / 3.0, 0.5)]), 8, [1.0], 1000,
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
    (one,) = mc.estimate_tail(d, n, [1.0], 70_000, seed=7, workers=1)
    (two,) = mc.estimate_tail(d, n, [1.0], 70_000, seed=7, workers=2)
    assert one.to_json_dict() == two.to_json_dict()
    assert one.seed_stream == seeding.stream_id(7, 0, n)


def test_sums_overflowing_to_both_signs_are_unavailable():
    # A step of pareto_sym(0.01) overflows to +-inf for u below 8e-4; 119 of these
    # 1000 sums hold both signs, and counting them as misses gave p_hat 0.881
    # where a single step alone exceeds 400 with probability 0.94.
    with pytest.raises(dm.SamplingUnavailable, match="both"):
        mc.estimate_tail(dm.pareto_sym(0.01), 1024, [400.0], 1000, 1)


def test_fair_pairs_draw_the_same_sums_whatever_the_kind():
    # multinomial counts depend on the masses alone: two atoms -v, +v of mass
    # 1/2 each give the same counts in any table, and the sums scale with v
    rad = mc._batch_sums(dm.rademacher(), 64)(1000, seeding.stream(3, 1))
    for d in (dm.atomic_sym([(2.5, 1.0)]), dm.atomic([(2.5, 0.5), (-2.5, 0.5)])):
        assert np.array_equal(mc._batch_sums(d, 64)(1000, seeding.stream(3, 1)), 2.5 * rad)


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


@pytest.mark.parametrize("name,last", [("rademacher", 512), ("atoms 1,3", 640),
                                       ("negative -0.5,-2", 256)])
def test_fair_bits_draw_up_to_the_crossover(monkeypatch, name, last):
    # B ceil(n/64) <= 8 (K - 1): B = 1, K = 2; B = 3, K = 5; B = 2, K = 2
    sliced, real = [], mc._sliced_counts
    monkeypatch.setattr(mc, "_sliced_counts", lambda n, *rest: sliced.append(n) or real(n, *rest))
    for n in (1, last, last + 1):
        mc._batch_sums(LAWS[name][0], n)(10, seeding.stream(1))
    assert sliced == [1, last]


@pytest.mark.parametrize("name,n,head,digest", [
    ("rademacher", 513, ["-0x1.b000000000000p+4", "-0x1.8000000000000p+1"],
     "cfb86a10f8f842c3c16b29f966811bc52617363f59da9ae7530cd98797c57299"),
    ("atoms 1,3", 641, ["0x1.8000000000000p+2", "0x0.0p+0"],
     "958fb258b48feb56cea0673d39b88f5ad353fff026f1e25355e5e229623aab4b"),
    ("atoms 0.1,0.3", 641, ["0x1.3333333333333p-1", "0x0.0p+0"],
     "7f68ecf05f1609be11ecdc06fb02bc50ab2c0ebb4e3f59a04bec006958cba435"),
    ("rademacher", 1024, ["-0x1.1000000000000p+5", "0x0.0p+0"],
     "3c49bcacbeff02bbba70c411584556771a1bd41917096991371ba25404634992")])
def test_past_the_crossover_the_counts_keep_numpys_multinomial(name, n, head, digest):
    # the sums numpy's multinomial drew before fair bits existed (sfc64-v5)
    sums = mc._batch_sums(LAWS[name][0], n)(3000, seeding.stream(2026, 12))
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
        (est,) = mc.estimate_tail(d, 16, [2.0], replicates, 7, workers=workers, batch_size=1000)
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
