"""Monte Carlo estimation of P(|S_n| >= t) plus exact small-instance oracles.

Sampling follows a strict determinism contract: replicates are split into
fixed-size batches, batch b draws from the counter-based stream
(seed, scenario, n, b), and batch results are merged in index order.  The
same (config, seed) therefore produces bit-identical output for any worker
count.  A replicate draws S_n itself where its law allows: atom tables as
multinomial atom counts summed on the oracles' decimal lattice, so a hit is
|k|/den >= t exactly as in exact_tail, and the normal law as sqrt(n) Z.
Other laws sum n single-step draws.  These draws are stream version
``philox-v2`` (``seeding.stream_id``).

Oracles read each atom as the shortest decimal that rounds to it (the number
the user wrote) and scale by the lcm of the denominators, so every walk lives
on one integer lattice.  The law of S_n is built by repeated squaring with
direct convolution, and the running-maximum tail for n <= 64 by a banded
absorbing walk on the same lattice.  Kinds without atoms, atoms with no short
decimal, lattices wider than MAX_ORACLE_SUPPORT points, and walks whose
convolutions would take more than MAX_CONVOLUTION_WORK multiply-adds raise
OracleUnavailable.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import distmodel, seeding
from .reports import UNDETERMINED, SeriesReport, SeriesRow
from .seqkit import NormSeq, WeightSeq, kahan_partials

WILSON_Z99 = 2.5758293035489004  # 99.5% standard normal quantile

MIN_REPLICATES = 1_000
DEFAULT_BATCH = 65_536
_CHUNK_ELEMENTS = 1 << 22

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


def wilson_interval(hits: int, total: int, z: float = WILSON_Z99) -> tuple[float, float]:
    """Wilson score interval; preferred over Wald because p sits near 0.

    At hits == 0 and hits == total the end at the estimate is exactly 0 or 1,
    which the rounding of center -+ half would otherwise miss.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    p = hits / total
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


def _batch_sums(d: distmodel.Dist, n: int) -> Callable[[int, np.random.Generator], np.ndarray]:
    """The draw of one batch of S_n: a function (rows, rng) -> rows sums.

    An atom table on a decimal lattice within 2^53 draws how often each atom
    occurs, rng.multinomial(n, probs), and sums the counts times the integer
    steps; the int64 coordinate k comes back as the correctly rounded k/den,
    so |S_n| >= t is exact_tail's rule at every lattice point.  The normal law
    draws sqrt(n) Z.  Other laws sum n single-step draws in fixed column chunks.
    """
    lattice = _lattice_steps(d)
    if lattice is not None and _exact_range(n, lattice[0], lattice[2]):
        steps, probs, den = lattice
        k = np.asarray(steps, dtype=np.int64)
        return lambda rows, rng: (rng.multinomial(n, probs, size=rows) @ k) / den
    if d.kind == "normal_std":
        root = math.sqrt(n)
        return lambda rows, rng: root * rng.standard_normal(rows)

    def chunked(rows: int, rng: np.random.Generator) -> np.ndarray:
        total = np.zeros(rows, dtype=np.float64)
        done = 0
        # A step may overflow to +-inf (pareto_sym with small alpha): a sum at
        # inf is a hit, and a sum holding both signs is NaN, checked below.
        with np.errstate(over="ignore", invalid="ignore"):
            while done < n:
                cols = min(n - done, max(1, _CHUNK_ELEMENTS // rows))
                x = distmodel.sample(d, rng, rows * cols)
                total += x.reshape(rows, cols).sum(axis=1)
                done += cols
        if np.isnan(total).any():
            raise distmodel.SamplingUnavailable(
                f"{d.kind}: a sum of {n} steps overflowed to both +inf and -inf")
        return total

    return chunked


def _batch_plan(replicates: int, batch_size: int) -> list[int]:
    full, rest = divmod(replicates, batch_size)
    return [batch_size] * full + ([rest] if rest else [])


def estimate_tail(d: distmodel.Dist, n: int, threshold, replicates: int,
                  seed: int, scenario: int = 0, workers: int = 1,
                  batch_size: int = DEFAULT_BATCH):
    """Monte Carlo estimate of P(|S_n| >= threshold) with a 99% Wilson interval.

    ``threshold`` may also be a sequence: every threshold is then counted on
    the same draws, and the result is a list of one Estimate per threshold.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates")
    if n < 1:
        raise ValueError("n must be >= 1")
    many = np.ndim(threshold) > 0
    thresholds = [float(t) for t in threshold] if many else [float(threshold)]
    if any(math.isnan(t) for t in thresholds):
        raise ValueError("threshold must not be NaN")
    plan = _batch_plan(replicates, batch_size)
    draw = _batch_sums(d, n)

    def run_batch(b: int) -> list[int]:
        sums = np.abs(draw(plan[b], seeding.stream(seed, scenario, n, b)))
        return [int(np.count_nonzero(sums >= t)) for t in thresholds]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run_batch, range(len(plan))))
    else:
        counts = [run_batch(b) for b in range(len(plan))]
    out = []
    for t, hits in zip(thresholds, map(sum, zip(*counts))):  # integer merge in batch order
        lo, hi = wilson_interval(hits, replicates)
        out.append(Estimate(p_hat=hits / replicates, replicates=replicates, lo=lo, hi=hi,
                            seed_stream=seeding.stream_id(seed, scenario, n), n=n,
                            threshold=t))
    return out if many else out[0]


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


def _lattice_steps(d: distmodel.Dist) -> tuple[list[int], np.ndarray, int] | None:
    """The atoms of positive mass as (steps, probs, den), P(X = steps[i]/den) = probs[i].

    Each atom is read as the shortest decimal that rounds to it and scaled by
    the lcm of the denominators.  None for kinds without atoms.
    """
    table = distmodel.atom_table(d)
    if table is None:
        return None
    values, probs = table
    keep = probs > 0.0
    atoms = [Fraction(repr(v)) for v in values[keep].tolist()]
    den = math.lcm(*(a.denominator for a in atoms))
    return [int(a * den) for a in atoms], probs[keep], den


def _exact_range(n: int, steps: list[int], den: int) -> bool:
    """Whether every sum of n steps, and den, converts to float exactly."""
    return max(den, n * max(map(abs, steps))) <= _EXACT_INT


def _lattice(d: distmodel.Dist, n: int) -> tuple[np.ndarray, int, int]:
    """The step law as (kernel, lo, den) with P(X = (lo + i)/den) = kernel[i].

    The lattice n steps span is checked with Python ints before any array is
    allocated.
    """
    lattice = _lattice_steps(d)
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
    convolution, and the mass that lands outside the band is absorbed.  No
    reflection argument is used, so any atomic step law is valid.
    """
    if n_max < 1 or n_max > MAX_MAXIMAL_N:
        raise ValueError(f"running-maximum DP supports 1 <= n <= {MAX_MAXIMAL_N}")
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
        k = min(k, math.ceil(Fraction(threshold) * den) - 1)
    while k / den >= threshold:
        k -= 1
    band_lo, band_hi = max(-k, n_max * lo), min(k, n_max * hi)
    width = band_hi - band_lo + 1
    _check_cost(max(width, hi - lo + 1), n_max * width * (hi - lo + 1))
    kernel = np.pad(kernel, (step_lo - lo, hi - step_hi))
    alive = np.zeros(width, dtype=np.float64)
    alive[-band_lo] = 1.0
    absorbed = 0.0
    out = np.empty(n_max, dtype=np.float64)
    for j in range(n_max):
        full = np.convolve(alive, kernel)  # full[i] sits at band_lo + lo + i
        absorbed += float(full[:-lo].sum()) + float(full[width - lo:].sum())
        alive = full[-lo:width - lo]
        out[j] = absorbed
    return out


def exact_max_tail(d: distmodel.Dist, n: int, threshold: float) -> float:
    """Exact P(max_{k<=n} |S_k| >= threshold)."""
    return float(max_tail_profile(d, n, threshold)[-1])


# ---------------------------------------------------------------------------
# Empirical series
# ---------------------------------------------------------------------------


def empirical_series(d: distmodel.Dist, w: WeightSeq, a: NormSeq, eps,
                     n_grid, replicates: int, seed: int, workers: int = 1,
                     scenario: int = 0, series_id: str = "weighted-sum-tail"):
    """Terms w(n) * p_hat(n) with Wilson intervals propagated into the partial sums.

    Monte Carlo cannot certify an infinite series, so the verdict is always
    Undetermined; certificates come from the analytic layer.  Each row's
    ``exact`` is the walk oracle's tail where one exists, else None.

    ``eps`` may also be a sequence, giving a list of one report per eps.  Each
    batch (seed, scenario, n, b) is drawn once and counted against every eps,
    the walk oracle is built once per n, and where n doubles along the grid it
    is the previous oracle squared.
    """
    many = np.ndim(eps) > 0
    eps_list = list(eps) if many else [eps]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps must be positive")
    ns = [int(n) for n in n_grid]
    cols = [([], [], [], []) for _ in eps_list]  # terms, los, his, exacts
    oracle = None
    for n, tau, an in zip(ns, w.values(ns).tolist(), a.values(ns).tolist()):
        thresholds = [e * an for e in eps_list]
        ests = estimate_tail(d, n, thresholds, replicates, seed,
                             scenario=scenario, workers=workers)
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
        rows = [SeriesRow(n=n, term=t, partial_sum=s, ci_lo=lo, ci_hi=hi, exact=x)
                for n, t, s, lo, hi, x in zip(ns, terms, kahan_partials(terms).tolist(),
                                              kahan_partials(los).tolist(),
                                              kahan_partials(his).tolist(), exacts)]
        reports.append(SeriesReport(
            series_id=series_id,
            params={"eps": e, "replicates": replicates,
                    "seed_stream": seeding.stream_id(seed, scenario),
                    "weights": w.name, "normalizer": a.name},
            rows=tuple(rows), verdict=UNDETERMINED,
            evidence=("Monte Carlo evidence only; intervals are per-term Wilson 99% "
                      "accumulated into partial-sum bounds",)))
    return reports if many else reports[0]
