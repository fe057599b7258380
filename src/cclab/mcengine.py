"""Monte Carlo estimation of P(|S_n| >= t) plus exact small-instance oracles.

Sampling follows a strict determinism contract: replicates are split into
fixed-size batches, batch b draws from its own stream
``seeding.stream(seed, 0, *words(n), b)``, and batch results are merged in
index order.  The same (config, seed) therefore produces bit-identical output
for any worker count on one host.  ``pareto_sym`` draws also depend on the
host's SIMD level (``distmodel.sample``), so its bytes can differ between
hosts.  A replicate draws S_n itself where its law allows:

- an atom table on a decimal lattice within 2^53 as multinomial atom counts
  summed on the oracles' lattice, so a hit is |k|/den >= t exactly as in
  exact_tail; any other atom table as the same counts times the float atoms.
  Where every mass is a multiple of 1/8 and n is small, the counts are
  popcounts of ANDs of fair random bit planes (Knuth and Yao 1976), exact
  in law; elsewhere numpy's multinomial draws them;
- the normal law as sqrt(n) Z;
- ``uniform_sym`` at 192 <= n < 2^36 as 53 binomial bit planes, since
  Generator.random() is m 2^-53 with 53 fair bits in m.  Up to
  _TABLE_MAX_N steps each plane count C_k ~ Bin(n, 1/2) is one SFC64 word
  read through the exact CDF (a guide table, Chen and Asau 1974), so its law
  is exactly Bin(n, 1/2); past it numpy's binomial (BTPE) draws the counts.
  From n = 2^36 on ``uniform_sym`` raises SamplingUnavailable.

``pareto_sym``, and ``uniform_sym`` below n = 192, sum n single steps of one
SFC64 word each.  These draws are stream version ``sfc64-v6``
(``seeding.stream_id``).

Oracles read each atom as the shortest decimal that rounds to it (the number
the user wrote) and scale by the lcm of the denominators, so every walk lives
on one integer lattice.  The law of S_n is built by repeated squaring with
direct convolution, and the running-maximum tail for n <= 64 by a banded
absorbing walk on the same lattice.  Kinds without atoms, atoms with no short
decimal, lattices wider than MAX_ORACLE_SUPPORT points, and walks whose
convolutions would take more than MAX_CONVOLUTION_WORK multiply-adds raise
OracleUnavailable.  numpy convolves outputs with partial overlap, and all of
them for kernels over 11 points, with BLAS ddot, whose kernel OpenBLAS picks
by CPU, so oracle bits can differ between hosts unless every product is exact.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import distmodel, seeding
from .reports import UNDETERMINED, SeriesReport
from .seqkit import NormSeq, WeightSeq, prefix_sums

WILSON_Z99 = 2.5758293035489004  # 99.5% standard normal quantile

MIN_REPLICATES = 1_000
DEFAULT_BATCH = 65_536
_CHUNK_ELEMENTS = 1 << 22
# Single steps are drawn and summed this many at a time, so a chunk's steps
# stay in cache; each step takes one SFC64 word, so the draws do not depend on it.
_BLOCK_ELEMENTS = 1 << 15
# uniform_sym draws its 53 inverted plane counts from here on; below, n single
# steps cost less.  Planes, with their table, first cost no more at n = 192 for
# MIN_REPLICATES rows and at n = 96 for DEFAULT_BATCH rows (least of 41 and of
# 5 interleaved runs, 2-vCPU x86 host).
_PLANE_MIN_N = 192
# Each half of the plane sum stays below 2^63 up to here; past it estimate_tail
# refuses uniform_sym, whose n single steps a replicate would run for hours.
_PLANE_MAX_N = 1 << 36
# Up to here the plane counts are drawn by exact inversion: building the table
# costs less than the 53 * MIN_REPLICATES numpy binomials (BTPE) it replaces.
# Building it took 2.4-2.6 ms at n = 2304 against 2.5-2.6 ms for the binomials,
# and more from n = 2432 on (three sweeps, 2-vCPU x86 host).  Past it numpy draws them.
_TABLE_MAX_N = 2304
_GUIDE_BITS = 14  # the guide reads a word's top 14 bits: 2^14 entries, 128 KiB
_LOW_PLANES = 26  # bits 0-25 of the 53 form the low half, bits 26-52 the high
_PLANE_WEIGHTS = 1 << np.arange(53 - _LOW_PLANES, dtype=np.int64)  # 2^j within a half
# Atom laws with masses in multiples of 2^-B, B up to here, draw their counts
# from B fair bit planes while B * ceil(n/64) <= _SLICE_WORDS * (K - 1) for K
# atoms.  Against numpy's multinomial for B = 1..3 and K = 2..8 at 1,000 and
# 65,536 rows (2-vCPU x86 host), the rule picks the cheaper draw except at
# n <= 16, where fair bits cost up to 28 us more per 1,000 rows, and just past
# its edge, where they would cost up to 1.8x less.
_SLICE_MAX_BITS = 3
_SLICE_WORDS = 8

MAX_ORACLE_SUPPORT = 1_000_000
# Direct convolution is quadratic in the lattice width, so the support cap
# bounds memory but not time.  np.convolve ran 3e8 to 4e9 multiply-adds a
# second on one core of a 2-vCPU x86 host.
MAX_CONVOLUTION_WORK = 1_000_000_000
MAX_MAXIMAL_N = 64
_EXACT_INT = 2 ** 53  # lattice coordinates up to here convert to float exactly


class OracleUnavailable(RuntimeError):
    """Raised when no exact walk oracle exists for a distribution."""


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------


def wilson_interval(hits: int, total: int) -> tuple[float, float]:
    """99% Wilson score interval; preferred over Wald because p sits near 0.

    At hits == 0 and hits == total the end at the estimate is exactly 0 or 1,
    which the rounding of center -+ half would otherwise miss.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    p, z = hits / total, WILSON_Z99
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == total else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class Estimate:
    p_hat: float
    replicates: int
    lo: float
    hi: float
    seed_stream: str
    n: int
    threshold: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.p_hat <= self.hi):
            raise ValueError("interval must bracket the point estimate")

    def to_json_dict(self) -> dict:
        return {"p_hat": self.p_hat, "replicates": self.replicates,
                "lo": self.lo, "hi": self.hi, "seed_stream": self.seed_stream,
                "n": self.n, "threshold": self.threshold}


def _plane_sums(counts: np.ndarray, n: int) -> np.ndarray:
    """Correctly rounded sum_i (2 m_i - 2^53) over n integers m_i in [0, 2^53)
    whose bit k is set in counts[:, k] of them, one sum per row.

    sum_i m_i = sum_k 2^k C_k, so the sum is sum_k 2^k (2 C_k - n) - n.  Planes
    0-25 and 26-52 are summed exactly in int64 (n < 2^36); both halves are
    doubles below 2^53, so adding them rounds once.  A row with a larger half,
    hundreds of standard deviations out, is added in Python integers.
    """
    # Each half's sum_j 2^j (2 C_j - n) is 2 P - n (2^width - 1), P = sum_j 2^j C_j;
    # the low half also takes the final -n.
    w = _PLANE_WEIGHTS
    low = 2 * (counts[:, :_LOW_PLANES] @ w[:_LOW_PLANES]) - (n << _LOW_PLANES)
    high = counts[:, _LOW_PLANES:] @ w
    high -= (n << len(w)) - n - high  # 2 P - n (2^27 - 1) without passing 2^63
    out = np.ldexp(high.astype(np.float64), _LOW_PLANES)
    out += low
    for i in np.flatnonzero((np.abs(high) >= _EXACT_INT) | (np.abs(low) >= _EXACT_INT)):
        out[i] = float((int(high[i]) << _LOW_PLANES) + int(low[i]))
    return out


class _HalfBinomial:
    """Bin(n, 1/2) by exact inversion of its CDF F(k) = cum[k] / 2^n.

    A count reads one 64-bit word W, the leading bits of a uniform U, and is
    X = #{k < n : U >= F(k)}, so its law is Bin(n, 1/2) exactly.  With
    b[k] = floor(2^64 F(k)), W > b[k] gives U >= F(k) and W < b[k] gives
    U < F(k).  The guide starts X at the least count W's top _GUIDE_BITS bits
    allow, and X moves up to #{k : b[k] <= W} where W >= b[X].  A word equal
    to b[X - 1] leaves U against F(X - 1) undecided, with probability below
    n 2^-64 a count, and ``settle`` decides it from further words.  The table
    is read-only once built, so threads share it.
    """

    def __init__(self, n: int):
        c, total, cum = 1, 0, []
        for k in range(n):  # c = C(n, k)
            total += c
            cum.append(total)
            c = c * (n - k) // (k + 1)
        self.n, self.cum = n, cum
        self.b = np.array([t << 64 >> n for t in cum], dtype=np.uint64)
        # guide[j] counts the k with b[k] below the least word of bucket j;
        # capped at n - 1, so the first step reads a real b[X]
        shift = 64 - _GUIDE_BITS
        per_bucket = np.bincount((self.b >> shift).astype(np.intp), minlength=1 << _GUIDE_BITS)
        self.guide = np.zeros(1 << _GUIDE_BITS, dtype=np.intp)
        np.cumsum(per_bucket[:-1], out=self.guide[1:])
        np.minimum(self.guide, n - 1, out=self.guide)

    def invert(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The count each word gives, reading every tie as U >= F, and the
        indices of the tied words, in order.  Where W >= b[X] at the guide's X,
        X becomes #{k : b[k] <= W} by binary search.  Only those words can tie,
        since the guide's b[X - 1] lies below the word's bucket."""
        b = self.b
        x = self.guide.take(words >> (64 - _GUIDE_BITS))
        stepped = np.flatnonzero(words >= b.take(x))
        x[stepped] = np.searchsorted(b, words[stepped], side="right")
        return x, stepped[b[x[stepped] - 1] == words[stepped]]

    def settle(self, word: int, rng: np.random.Generator) -> int:
        """The count for a tied word: U, extended by 64 bits from each further
        word of ``rng``, against F(k) = cum[k] / 2^n for the k with b[k] = word,
        as far as it takes.  U equal to F(k) over every bit of F(k) is U >= F(k)."""
        k = int(np.searchsorted(self.b, np.uint64(word)))
        u, bits, den = word, 64, 1 << self.n
        while k < self.n and int(self.b[k]) == word:
            q, r = divmod(self.cum[k] << bits, den)  # F(k)'s first bits, and whether more follow
            while u == q and r:
                u, bits = u << 64 | int(rng.bit_generator.random_raw()), bits + 64
                q, r = divmod(self.cum[k] << bits, den)
            if u < q:
                break
            k += 1
        return k


def _uniform_plane_sums(n: int, h: float, rows: int, rng: np.random.Generator,
                        table: _HalfBinomial | None) -> np.ndarray:
    """rows draws of S_n for uniform_sym(h): bit k of the 53-bit integers m_i
    behind Generator.uniform(-h, h) is set in C_k ~ Bin(n, 1/2) of the n steps,
    independently over k, and S_n = h 2^-53 sum_i (2 m_i - 2^53).  The law the
    single steps draw, rounded twice instead of n times.

    The counts are drawn in row blocks of about _BLOCK_ELEMENTS, in the order
    one call would draw them: by ``table``'s inversion, one word a count, or by
    numpy's binomial where ``table`` is None.  The words that settle tied
    counts follow all of the batch's regular words, in draw order, so the sums
    do not depend on the block size."""
    out = np.empty(rows, dtype=np.float64)
    block = max(1, _BLOCK_ELEMENTS // 53)
    ties, tied_rows = [], {}  # (row, plane, word) in draw order; row -> its counts
    for r in range(0, rows, block):
        part = out[r:r + block]
        if table is None:
            counts = rng.binomial(n, 0.5, size=(len(part), 53))
        else:
            words = rng.bit_generator.random_raw(len(part) * 53)
            flat, tied = table.invert(words)
            counts = flat.reshape(len(part), 53)
            for i in tied.tolist():
                row, plane = divmod(i, 53)
                tied_rows.setdefault(r + row, counts[row].copy())
                ties.append((r + row, plane, int(words[i])))
        part[:] = _plane_sums(counts, n)
    for row, plane, word in ties:
        tied_rows[row][plane] = table.settle(word, rng)
    for row, counts in tied_rows.items():
        out[row] = _plane_sums(counts[None], n)[0]
    out *= 2.0 ** -53
    with np.errstate(over="ignore"):  # a sum past the double range is +-inf, a hit
        out *= h
    return out


@functools.lru_cache(maxsize=64)
def _slice_plan(masses: tuple) -> tuple[int, tuple, np.ndarray] | None:
    """(B, ands, C) for masses that are multiples m_j 2^-B of the least such
    B >= 1, B <= _SLICE_MAX_BITS, and sum to exactly 1; else None.

    A step reads B fair bits, bit b of a value v in [0, 2^B), and is category
    j where cum[j-1] <= v < cum[j], cum the running sums of the m_j.  Among n
    steps, let P_S count those with every bit of the subset S set (P_0 = n).
    By Moebius inversion over subsets, the steps whose set bits are exactly
    v number sum over S containing v of (-1)^|S - v| P_S, so the category
    counts are P @ C, with C[S, j] = sum of (-1)^|S - v| over the v of
    category j inside S.  The subsets S != 0 come in the order the counter
    forms them: the B single bits, then the rest, each the AND of an earlier
    subset and a single bit, as listed in ``ands`` (index, earlier, bit).
    """
    ratios = [p.as_integer_ratio() for p in masses]  # every denominator a power of 2
    bits = max(1, *(den.bit_length() - 1 for _, den in ratios))
    if bits > _SLICE_MAX_BITS:
        return None
    m = [num << bits >> den.bit_length() - 1 for num, den in ratios]
    if sum(m) != 1 << bits:
        return None
    order = [1 << b for b in range(bits)] + [s for s in range(3, 1 << bits) if s & s - 1]
    where = {s: i for i, s in enumerate(order)}
    ands = tuple((where[s], where[s & s - 1], where[s & -s]) for s in order[bits:])
    category = np.repeat(np.arange(len(m)), m)  # category of each v
    coef = np.zeros((1 << bits, len(m)), dtype=np.int64)
    for row, s in enumerate([0, *order]):
        for v in range(1 << bits):
            if v & ~s == 0:
                coef[row, category[v]] += -1 if (s ^ v).bit_count() & 1 else 1
    coef.setflags(write=False)  # shared by every caller of the cache
    return bits, ands, coef


def _sliced_counts(n: int, bits: int, ands: tuple, coef: np.ndarray, rows: int,
                   rng: np.random.Generator) -> np.ndarray:
    """rows category counts of n steps from ``_slice_plan``'s (bits, ands, coef).

    A replicate reads W = ceil(n/64) words per bit in a row, word-major: word
    w of bit planes 0..bits-1, then word w + 1.  Lane i of word w is step
    64w + i, and lanes at or past n are masked off.  Rows are counted in
    blocks that hold about _BLOCK_ELEMENTS words, planes and ANDs together,
    so the counts do not depend on the block size."""
    width = -(-n // 64)
    subsets = len(coef) - 1
    out = np.empty((coef.shape[1], rows), dtype=np.int64)  # returned transposed
    block = max(1, _BLOCK_ELEMENTS // ((bits + subsets) * width))
    for r in range(0, rows, block):
        m = min(block, rows - r)
        # sets[i, w] holds word w of subset i's AND, one entry per row
        sets = np.empty((subsets, width, m), dtype=np.uint64)
        words = rng.bit_generator.random_raw(m * bits * width)
        sets[:bits] = words.reshape(m, width, bits).T
        if n % 64:
            sets[:bits, -1] &= np.uint64((1 << n % 64) - 1)
        for i, earlier, bit in ands:
            np.bitwise_and(sets[earlier], sets[bit], out=sets[i])
        # P_S for S != 0, at most 64 width < 2^16; the products are small
        # integers, so the float product is exact and cheaper than numpy's int one
        pop = np.bitwise_count(sets).sum(axis=1, dtype=np.uint16)
        out[:, r:r + m] = coef[1:].T @ pop.astype(np.float64)
    out += n * coef[:1].T
    return out.T


def _atom_counts(n: int, probs: np.ndarray) -> Callable[[int, np.random.Generator], np.ndarray]:
    """The draw of rows category counts of n steps with masses ``probs``: by
    fair bits while bits * ceil(n/64) <= _SLICE_WORDS * (K - 1), else by
    numpy's multinomial."""
    plan = _slice_plan(tuple(probs.tolist()))
    if plan is not None and plan[0] * -(-n // 64) <= _SLICE_WORDS * (len(probs) - 1):
        return lambda rows, rng: _sliced_counts(n, *plan, rows, rng)
    return lambda rows, rng: rng.multinomial(n, probs, size=rows)


def _batch_sums(d: distmodel.Dist, n: int) -> Callable[[int, np.random.Generator], np.ndarray]:
    """The draw of one batch of S_n: a function (rows, rng) -> rows sums.

    An atom table draws how often each atom occurs, ``_atom_counts``.
    On a decimal lattice within 2^53 it sums the counts times the integer
    steps; the int64 coordinate k comes back as the correctly rounded k/den,
    so |S_n| >= t is exact_tail's rule at every lattice point.  Off the
    lattice (a float 1/3, or 1e17) it sums the counts times the float atoms,
    and the hit rule is a float comparison.  The normal law draws sqrt(n) Z,
    and uniform_sym at _PLANE_MIN_N <= n < _PLANE_MAX_N its bit planes, whose
    counts up to _TABLE_MAX_N invert one table built here for every batch;
    past _PLANE_MAX_N it raises SamplingUnavailable before any draw.
    Other laws sum n single-step draws in fixed column chunks, each drawn and summed
    in row blocks of about _BLOCK_ELEMENTS steps.
    """
    lattice = d.lattice_steps
    if lattice is not None:
        steps, probs, den = lattice
        counts = _atom_counts(n, probs)
        if _exact_range(n, steps, den):
            k = np.asarray(steps, dtype=np.int64)
            return lambda rows, rng: (counts(rows, rng) @ k) / den
        values, all_probs = distmodel.atom_table(d)
        values = values[all_probs > 0.0]

        def float_atoms(rows: int, rng: np.random.Generator) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):  # as in chunked below
                return (counts(rows, rng) * values).sum(axis=1)

        return float_atoms
    if d.kind == "normal_std":
        root = math.sqrt(n)
        return lambda rows, rng: root * rng.standard_normal(rows)
    if d.kind == "uniform_sym" and n >= _PLANE_MAX_N:
        raise distmodel.SamplingUnavailable(
            f"uniform_sym: {n} steps is past the bit-plane range n < 2^36")
    if d.kind == "uniform_sym" and n >= _PLANE_MIN_N:
        (h,) = d.params
        table = _HalfBinomial(n) if n <= _TABLE_MAX_N else None
        return lambda rows, rng: _uniform_plane_sums(n, h, rows, rng, table)

    def chunked(rows: int, rng: np.random.Generator) -> np.ndarray:
        total = np.zeros(rows, dtype=np.float64)
        done = 0
        # A step may overflow to +-inf (pareto_sym with small alpha): a sum at
        # inf is a hit; a sum holding both signs is NaN, and estimate_tail raises.
        with np.errstate(over="ignore", invalid="ignore"):
            while done < n:
                cols = min(n - done, max(1, _CHUNK_ELEMENTS // rows))
                block = max(1, _BLOCK_ELEMENTS // cols)
                for r in range(0, rows, block):
                    part = total[r:r + block]
                    x = distmodel.sample(d, rng, len(part) * cols)
                    part += x.reshape(len(part), cols).sum(axis=1)
                done += cols
        return total

    return chunked


def _batch_plan(replicates: int, batch_size: int) -> list[int]:
    full, rest = divmod(replicates, batch_size)
    return [batch_size] * full + ([rest] if rest else [])


def estimate_tail(d: distmodel.Dist, n: int, thresholds, replicates: int,
                  seed: int, workers: int = 1, batch_size: int = DEFAULT_BATCH) -> list:
    """Monte Carlo estimates of P(|S_n| >= t) with 99% Wilson intervals, one
    Estimate for each t in ``thresholds``, all counted on the same draws.

    At most ``workers`` threads draw the batches, and no more than there are
    batches or CPUs; the counts are merged in batch order either way.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates")
    if n < 1:
        raise ValueError("n must be >= 1")
    thresholds = [float(t) for t in thresholds]
    if any(math.isnan(t) for t in thresholds):
        raise ValueError("threshold must not be NaN")
    plan = _batch_plan(replicates, batch_size)
    draw = _batch_sums(d, n)

    def run_batch(b: int) -> list[int]:
        sums = np.abs(draw(plan[b], seeding.stream(seed, 0, *seeding.words(n), b)))
        if np.isnan(sums).any():
            raise distmodel.SamplingUnavailable(
                f"{d.kind}: a sum of {n} steps overflowed to both +inf and -inf")
        return [int(np.count_nonzero(sums >= t)) for t in thresholds]

    threads = min(workers, len(plan), os.cpu_count() or 1) if workers > 1 else 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(run_batch, range(len(plan))))
    else:
        counts = [run_batch(b) for b in range(len(plan))]
    out = []
    for t, hits in zip(thresholds, map(sum, zip(*counts))):  # integer merge in batch order
        lo, hi = wilson_interval(hits, replicates)
        out.append(Estimate(p_hat=hits / replicates, replicates=replicates, lo=lo, hi=hi,
                            seed_stream=seeding.stream_id(seed, 0, n), n=n, threshold=t))
    return out


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkOracle:
    """Full distribution of S_n as an exact (values, probs) table.

    ``law`` is the same law on the whole lattice span, zeros included, from
    which the oracle of 2n steps is one squaring away.
    """

    n: int
    values: np.ndarray
    probs: np.ndarray
    law: np.ndarray

    def __post_init__(self) -> None:
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError("oracle probabilities do not sum to 1")


def _check_cost(points: int = 0, work: int = 0) -> None:
    """OracleUnavailable past the lattice cap or the convolution work cap."""
    if points > MAX_ORACLE_SUPPORT:
        raise OracleUnavailable(f"walk lattice exceeds {MAX_ORACLE_SUPPORT} points at this depth")
    if work > MAX_CONVOLUTION_WORK:
        raise OracleUnavailable(
            f"walk convolutions exceed {MAX_CONVOLUTION_WORK} multiply-adds at this depth")


def _exact_range(n: int, steps: list[int], den: int) -> bool:
    """Whether every sum of n steps, and den, converts to float exactly."""
    return max(den, n * max(map(abs, steps))) <= _EXACT_INT


def _lattice(d: distmodel.Dist, n: int) -> tuple[np.ndarray, int, int]:
    """The step law as (kernel, lo, den) with P(X = (lo + i)/den) = kernel[i].

    The lattice n steps span is checked with Python ints before any array is
    allocated.
    """
    lattice = d.lattice_steps
    if lattice is None:
        raise OracleUnavailable(f"no exact walk oracle for kind {d.kind!r}")
    steps, probs, den = lattice
    lo, hi = min(steps), max(steps)
    _check_cost(n * (hi - lo) + 1)
    if not _exact_range(n, steps, den):
        raise OracleUnavailable("walk lattice exceeds the exact float range")
    kernel = np.zeros(hi - lo + 1, dtype=np.float64)
    kernel[np.asarray(steps) - lo] = probs
    return kernel, lo, den


def exact_walk_oracle(d: distmodel.Dist, n: int,
                      half: WalkOracle | None = None) -> WalkOracle:
    """Exact table for S_n by repeated squaring on the atoms' decimal lattice.

    ``half``, the oracle of the same law at n/2 steps, is squared once instead
    of rebuilding the law.  Along the grid n = 2^j that is the same sequence
    of convolutions as a rebuild, so the bytes agree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kernel, lo, den = _lattice(d, n)
    # The squarings and products cost at most the final width squared.
    _check_cost(work=(n * (len(kernel) - 1) + 1) ** 2)
    if half is not None:
        if 2 * half.n != n:
            raise ValueError("half must be the oracle at n/2 steps")
        law = np.convolve(half.law, half.law)
    else:
        # Direct convolution keeps unreachable lattice points exactly 0.
        law, power, m = None, kernel, n
        while True:
            if m & 1:
                law = power if law is None else np.convolve(law, power)
            m >>= 1
            if not m:
                break
            power = np.convolve(power, power)
    (idx,) = np.nonzero(law > 0.0)
    return WalkOracle(n=n, values=(n * lo + idx) / den, probs=law[idx], law=law)


def exact_tail(oracle: WalkOracle, threshold: float) -> float:
    """Exact P(|S_n| >= threshold) by table summation."""
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if threshold <= 0:
        return 1.0
    mask = np.abs(oracle.values) >= threshold
    return float(oracle.probs[mask].sum())


def max_tail_profile(d: distmodel.Dist, n_max: int, threshold: float) -> np.ndarray:
    """P(max_{k<=j} |S_k| >= threshold) for j = 1..n_max by an absorbing walk.

    The walk lives on the band of lattice points k with |fl(k/den)| below the
    threshold, clipped to the range n_max steps can reach; each step is one
    convolution, and the mass that lands outside the band is absorbed.  The
    outflow of every step is kept and summed once after the walk, in the
    order a running sum would add it.  No reflection argument is used, so
    any atomic step law is valid.
    """
    if n_max < 1 or n_max > MAX_MAXIMAL_N:
        raise ValueError(f"running-maximum DP supports 1 <= n <= {MAX_MAXIMAL_N}")
    threshold = float(threshold)
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if threshold <= 0:
        return np.ones(n_max, dtype=np.float64)
    kernel, step_lo, den = _lattice(d, n_max)
    step_hi = step_lo + len(kernel) - 1
    # The step law is padded to cover 0, so the band sits inside every
    # convolution at a fixed offset.
    lo, hi = min(step_lo, 0), max(step_hi, 0)
    # The band [band_lo, band_hi] holds the lattice points k that n_max steps
    # can reach with fl(|k|/den) < threshold.
    k = n_max * max(-lo, hi)
    if not math.isinf(threshold):
        num, q = threshold.as_integer_ratio()
        k = min(k, -(-num * den // q) - 1)  # ceil(threshold * den) - 1, exactly
    while k / den >= threshold:
        k -= 1
    band_lo, band_hi = max(-k, n_max * lo), min(k, n_max * hi)
    width = band_hi - band_lo + 1
    _check_cost(max(width, hi - lo + 1), n_max * width * (hi - lo + 1))
    padded = np.zeros(hi - lo + 1)
    padded[step_lo - lo:step_hi - lo + 1] = kernel
    alive = np.zeros(width, dtype=np.float64)
    alive[-band_lo] = 1.0
    out = np.empty((n_max, hi - lo))  # row j: step j's full[:-lo], then full[width - lo:]
    edges = np.arange(hi - lo)
    edges[-lo:] += width
    rev, narrow = padded[::-1].copy(), width < len(padded)
    for row in out:
        # np.convolve(alive, padded) is the same correlation after its wrapper,
        # unless the kernel is the longer array.  full[i] sits at band_lo + lo + i.
        full = np.convolve(alive, padded) if narrow else np.correlate(alive, rev, "full")
        full.take(edges, out=row, mode="clip")
        alive = full[-lo:width - lo]
    left, right = out[:, :-lo].copy(), out[:, -lo:].copy()  # each row summed contiguously
    return np.add.accumulate(left.sum(axis=1) + right.sum(axis=1))


# ---------------------------------------------------------------------------
# Empirical series
# ---------------------------------------------------------------------------


def empirical_series(d: distmodel.Dist, w: WeightSeq, a: NormSeq, eps_list,
                     n_grid, replicates: int, seed: int, workers: int = 1) -> list:
    """Terms w(n) * p_hat(n) with Wilson intervals propagated into the partial
    sums, one report for each eps in ``eps_list``.

    Monte Carlo cannot certify an infinite series, so the verdict is always
    Undetermined; certificates come from the analytic layer.  Each row's
    ``exact`` is the walk oracle's tail where one exists, else None.  Each
    batch (seed, 0, n, b) is drawn once and counted against every eps, the
    walk oracle is built once per n, and where n doubles along the grid it is
    the previous oracle squared.
    """
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps must be positive")
    ns = [int(n) for n in n_grid]
    cols = [([], [], [], []) for _ in eps_list]  # terms, los, his, exacts
    oracle = None
    for n, tau, an in zip(ns, w.values(ns).tolist(), a.values(ns).tolist()):
        thresholds = [e * an for e in eps_list]
        ests = estimate_tail(d, n, thresholds, replicates, seed, workers=workers)
        try:
            half = oracle if oracle is not None and 2 * oracle.n == n else None
            oracle = exact_walk_oracle(d, n, half=half)
        except OracleUnavailable:
            oracle = None
        for (terms, los, his, exacts), est, t in zip(cols, ests, thresholds):
            exacts.append(None if oracle is None else exact_tail(oracle, t))
            terms.append(tau * est.p_hat)
            los.append(tau * est.lo)
            his.append(tau * est.hi)
    reports = []
    for e, (terms, los, his, exacts) in zip(eps_list, cols):
        rows = [{"n": n, "term": t, "partial_sum": s, "ci_lo": lo, "ci_hi": hi,
                 **({} if x is None else {"exact": x})}
                for n, t, s, lo, hi, x in zip(ns, terms, prefix_sums(terms).tolist(),
                                              prefix_sums(los).tolist(),
                                              prefix_sums(his).tolist(), exacts)]
        reports.append(SeriesReport(
            series_id="weighted-sum-tail",
            params={"eps": e, "replicates": replicates,
                    "seed_stream": seeding.stream_id(seed, 0),
                    "weights": w.name, "normalizer": a.name},
            rows=tuple(rows), verdict=UNDETERMINED,
            evidence=("Monte Carlo evidence only; intervals are per-term Wilson 99% "
                      "accumulated into partial-sum bounds",)))
    return reports
