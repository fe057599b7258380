"""Monte Carlo estimation of P(|S_n| >= t) plus exact small-instance oracles:
this module draws and enumerates only, and ``convergence.simulate_series``
builds simulate's reports from them.

Sampling follows a strict determinism contract: replicates are split into
fixed-size batches, batch b draws from its own stream (``seeding``), and
batch results are merged in index order, so the same (config, seed) gives
bit-identical output for any worker count on one host.  A replicate is one
walk read at every n of an ascending grid (``_walk``).  It adds up the
increments S_{n_i} - S_{n_(i-1)}, each of m steps drawn whole where a view
of its law allows: an atom table's ``lattice_steps`` as its atom counts, from
fair random bit planes (Knuth and Yao 1976) where every mass is a multiple
of 1/8 and m is small, else from numpy's multinomial; the ``gaussian`` law
as sqrt(m) Z; and ``uniform_sym`` (``plane_width``) at 176 <= m < 2^36 as 53
binomial bit planes, each count one SFC64 word read through the exact CDF
(a guide table, Chen and Asau 1974) up to _TABLE_MAX_N steps.  ``pareto_sym``,
and ``uniform_sym`` below m = 176, draw a count K ~ Bin(m, 1/2) of + signs a
row, then m magnitudes |X| / scale (``distmodel.sample``), whose numpy log
and exp for ``pareto_sym`` pick SIMD kernels by the CPU, so its bytes can
differ between hosts.  These draws are stream version ``sfc64-v8``.

Oracles read each atom as the shortest decimal that rounds to it (the number
the user wrote) and scale by the lcm of the denominators, so every walk lives
on one integer lattice: the law of S_n by repeated squaring with direct
convolution, the running-maximum tail for n <= 64 by a banded absorbing walk.
Laws without atoms, atoms with no short decimal, and lattices or
convolutions past MAX_ORACLE_SUPPORT points or MAX_CONVOLUTION_WORK
multiply-adds raise OracleUnavailable.  numpy convolves outputs with partial
overlap, and all of them for kernels over 11 points, with BLAS ddot, whose
kernel OpenBLAS picks by CPU, so oracle bits can differ between hosts unless
every product is exact.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import distmodel, seeding

WILSON_Z99 = 2.5758293035489004  # 99.5% standard normal quantile

MIN_REPLICATES = 1_000
DEFAULT_BATCH = 65_536
# Magnitudes are drawn and summed about this many at a time, so a block stays
# in cache; each takes one SFC64 word, so the draws do not depend on it.
_BLOCK_ELEMENTS = 1 << 15
_ROW_PIECE = 1 << 15  # a longer row comes in pieces this long, summed in order
# uniform_sym draws its 53 inverted plane counts from here on: planes, with
# their table, first cost no more than single steps at n = 176 for
# MIN_REPLICATES rows and n = 128-160 for DEFAULT_BATCH rows (2-vCPU x86 host).
_PLANE_MIN_N = 176
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
# from B fair bit planes while B * ceil(n/64) <= _SLICE_WORDS * (K - 1) -
# _SLICE_LESS for K atoms: 8 words at K = 2, 22 at 3, 50 at 5 and 92 at 8.
# numpy's multinomial draws K - 1 binomials and reuses a binomial's setup
# across rows only at K = 2, so each binomial past K = 2 costs about twice as
# much.  Three sweeps of both draws over (K, B) = (2, 1-3), (3, 2-3), (5, 3)
# and (8, 3), n = 16-2048, 1,000 and 50,000 rows (2-vCPU x86 host), found fair
# bits cheaper, by the median cost ratio, up to n = 448 (K = 2, B = 1, 640 at
# 50,000 rows), 384 (2, 2), 192 (2, 3), 960 (3, 2), 512 (3, 3), 1024 (5, 3) and
# 1920 (8, 3).  The rule stops at 512, 256, 128, 704, 448, 1024 and 1920: it
# keeps every K = 2 draw (at 512, fair bits cost 5% more for 1,000 rows and 13%
# less for 50,000) and picks no dearer draw than 8 (K - 1) words did.
_SLICE_MAX_BITS = 3
_SLICE_WORDS = 14
_SLICE_LESS = 6

# estimate_tail refuses a run that would draw more single steps (``_step_sums``)
# than this before any draw: at 5.86 ns a pareto_sym step (2-vCPU x86 host), about 100 s.
MAX_SINGLE_STEPS = 1 << 34
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


def _step_sums(d: distmodel.Dist, n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """rows draws of S_n for pareto_sym or uniform_sym.  The magnitudes are
    i.i.d. and independent of the fair signs, so by exchangeability a row's
    first K magnitudes may carry its K ~ Bin(n, 1/2) + signs.  Every K comes
    first, as a fair pair's count; the magnitudes follow row-major, in blocks
    of whole rows whose + and - parts one reduceat sums pairwise.  The scale
    multiplies the difference, so a sum is NaN only where both parts overflow."""
    plus = _atom_counts(n, np.array([0.5, 0.5]))(rows, rng)[:, 1]
    parts = np.zeros((rows, 2))  # each row's + and - sums
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if n <= _ROW_PIECE:
            cuts = np.arange(0, rows * n, n).repeat(2)  # where each row's parts start
            cuts[1::2] += plus
            per = max(1, _BLOCK_ELEMENTS // n)
            for r in range(0, rows, per):
                x = distmodel.sample(d, rng, min(per, rows - r) * n)
                at = cuts[2 * r:2 * (r + per)] - r * n
                used = at.size - (at[-1] == x.size)  # a part at the end of x is empty
                parts[r:r + per].reshape(-1)[:used] = np.add.reduceat(x, at[:used])
            parts[plus == 0, 0] = parts[plus == n, 1] = 0.0  # reduceat gave them one magnitude
        else:
            for i, k in enumerate(plus.tolist()):
                for c in range(0, n, _ROW_PIECE):
                    x = distmodel.sample(d, rng, min(_ROW_PIECE, n - c))
                    cut = min(max(k - c, 0), x.size)
                    parts[i] += x[:cut].sum(), x[cut:].sum()
        return (parts[:, 0] - parts[:, 1]) * d.params[-1]  # the half width or the scale


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
    fair bits while bits * ceil(n/64) <= _SLICE_WORDS * (K - 1) - _SLICE_LESS,
    else by numpy's multinomial."""
    plan = _slice_plan(tuple(probs.tolist()))
    budget = _SLICE_WORDS * (len(probs) - 1) - _SLICE_LESS
    if plan is not None and plan[0] * -(-n // 64) <= budget:
        return lambda rows, rng: _sliced_counts(n, *plan, rows, rng)
    return lambda rows, rng: rng.multinomial(n, probs, size=rows)


def _float_sums(d: distmodel.Dist, n: int) -> tuple[Callable[[int, np.random.Generator],
                                                                 np.ndarray], int]:
    """The draw of one batch of S_n for a law without atoms, a function (rows,
    rng) -> rows sums, by the law's views as the module docstring lists, and
    the steps it draws one at a time a row: n by ``_step_sums``, else 0.  The
    table that inverts ``uniform_sym``'s plane counts is built here once for
    every batch, and past _PLANE_MAX_N SamplingUnavailable is raised before
    any draw."""
    if d.gaussian:
        root = math.sqrt(n)
        return (lambda rows, rng: root * rng.standard_normal(rows)), 0
    h = d.plane_width
    if h is not None and n >= _PLANE_MAX_N:
        raise distmodel.SamplingUnavailable(
            f"{d.kind}: {n} steps is past the bit-plane range n < 2^36")
    if h is not None and n >= _PLANE_MIN_N:
        table = _HalfBinomial(n) if n <= _TABLE_MAX_N else None
        return (lambda rows, rng: _uniform_plane_sums(n, h, rows, rng, table)), 0
    return (lambda rows, rng: _step_sums(d, n, rows, rng)), n


def _walk(d: distmodel.Dist, ns: list[int]) -> tuple[Callable[[int, np.random.Generator],
                                                               Iterator], int]:
    """The draw of one batch of walks along the ascending grid ``ns``: a
    function (rows, rng) that yields rows values of S_n at each n in turn, and
    the steps a row draws one at a time, those ``_float_sums`` counts.

    The walk draws its increments S_{n_i} - S_{n_(i-1)} (n_0 = 0) in grid
    order, each as a sum of n_i - n_(i-1) steps, and adds them up, so each
    S_n has its own law and the values at different n are partial sums of
    one walk.  An atom table draws each increment's atom counts by one
    ``_atom_counts`` call.  While n_max steps stay within 2^53 on its decimal
    lattice it adds their int64 lattice coordinates k, and S_n comes back as
    the correctly rounded k/den, so |S_n| >= t is exact_tail's rule at every
    lattice point; past that it adds the counts times the float atoms (a
    float 1/3, or 1e17).  Laws without atoms add ``_float_sums``.  An
    increment whose + and - parts both overflowed, or a running sum that met
    +inf and -inf, has no float value, and SamplingUnavailable says which.
    """
    steps = [n - m for m, n in zip([0, *ns], ns)]
    single = 0
    if d.lattice_steps is None:
        draws, singles = zip(*(_float_sums(d, m) for m in steps))
        den, single = None, sum(singles)
    else:
        atoms, probs, den, values = d.lattice_steps
        if _exact_range(ns[-1], atoms, den):
            k = np.asarray(atoms, dtype=np.int64)

            def add(counts: np.ndarray) -> np.ndarray:
                return counts @ k
        else:
            den = None

            def add(counts: np.ndarray) -> np.ndarray:
                with np.errstate(over="ignore", invalid="ignore"):  # as in _step_sums
                    return (counts * values).sum(axis=1)

        draws = [lambda rows, rng, count=_atom_counts(m, probs): add(count(rows, rng))
                 for m in steps]

    def walk(rows: int, rng: np.random.Generator) -> Iterator:
        s = None
        for n, m, draw in zip(ns, steps, draws):
            x = draw(rows, rng)
            with np.errstate(over="ignore", invalid="ignore"):  # as in _step_sums
                s = x if s is None else s + x
            if np.isnan(s).any():  # a NaN increment carries into s
                to = "" if m == n else f", the increment to n = {n},"
                raise distmodel.SamplingUnavailable(
                    f"{d.kind}: the + and - parts of a sum of {m} steps{to} both overflowed"
                    if np.isnan(x).any() else
                    f"{d.kind}: the running sum met +inf and -inf across increments by n = {n}")
            yield s if den is None else s / den

    return walk, single


def estimate_tail(d: distmodel.Dist, grid, replicates: int, seed: int, path: tuple,
                  workers: int = 1, batch_size: int = DEFAULT_BATCH) -> list:
    """Monte Carlo estimates of P(|S_n| >= t) with 99% Wilson intervals along
    one walk a replicate.  ``grid`` lists (n, thresholds) at ascending n; the
    result lists, for each n, one Estimate for each of its thresholds, all
    counted on the same draws of S_n.  Estimates at different n read one walk,
    so they are correlated; each keeps the exact marginal law of S_n.

    Batch b draws from ``seeding.stream(seed, *path, b)``, each path entry as
    its 32-bit words, and every Estimate names the stream ``(seed, *path)``.
    Past MAX_SINGLE_STEPS single steps SamplingUnavailable is raised before any draw.
    At most ``workers`` threads draw the batches, and no more than there are
    batches or CPUs; the counts are merged in batch order either way.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates")
    ns = [int(n) for n, _ in grid]
    if not ns or ns[0] < 1:
        raise ValueError("n must be >= 1")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"the grid's n must ascend: {ns}")
    thresholds = [[float(t) for t in ts] for _, ts in grid]
    if any(math.isnan(t) for ts in thresholds for t in ts):
        raise ValueError("threshold must not be NaN")
    full, rest = divmod(replicates, batch_size)
    plan = [batch_size] * full + ([rest] if rest else [])
    walk, steps = _walk(d, ns)
    if (single := replicates * steps) > MAX_SINGLE_STEPS:
        raise distmodel.SamplingUnavailable(
            f"{d.kind}: {single} single steps is past the cap of 2^34 = {MAX_SINGLE_STEPS}")
    address = [word for x in path for word in seeding.words(x)]

    def run_batch(b: int) -> list[list[int]]:
        sums = walk(plan[b], seeding.stream(seed, *address, b))
        return [[int(np.count_nonzero(s >= t)) for t in ts]
                for s, ts in zip(map(np.abs, sums), thresholds)]

    threads = min(workers, len(plan), os.cpu_count() or 1) if workers > 1 else 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(run_batch, range(len(plan))))
    else:
        counts = [run_batch(b) for b in range(len(plan))]
    label = seeding.stream_id(seed, *path)
    out = []
    for n, ts, per_point in zip(ns, thresholds, zip(*counts)):
        row = []
        for t, hits in zip(ts, map(sum, zip(*per_point))):  # integer merge in batch order
            lo, hi = wilson_interval(hits, replicates)
            row.append(Estimate(p_hat=hits / replicates, replicates=replicates, lo=lo, hi=hi,
                                seed_stream=label, n=n, threshold=t))
        out.append(row)
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
    steps, probs, den, _ = lattice
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
        # np.correlate(alive, rev) is np.convolve(alive, padded) bit for bit unless the
        # kernel is the longer array, and spares each step np.convolve's wrapper: 1.22-1.32
        # against 1.54-1.67 ms for the oracle ops' 32 walks (median of 60, 2 shared vCPUs).
        # full[i] sits at band_lo + lo + i.
        full = np.convolve(alive, padded) if narrow else np.correlate(alive, rev, "full")
        full.take(edges, out=row, mode="clip")
        alive = full[-lo:width - lo]
    left, right = out[:, :-lo].copy(), out[:, -lo:].copy()  # each row summed contiguously
    return np.add.accumulate(left.sum(axis=1) + right.sum(axis=1))
