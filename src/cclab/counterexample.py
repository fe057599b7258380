"""A sparse atomic distribution whose adaptive-exponent series diverges.

Construction: pick cutoffs K_1 < K_2 < ... growing at least doubly
exponentially, place atoms at +-sqrt(K_m log K_m) with mass 2^(-m-1)/K_m
each, and leave the rest at 0.  The log-weighted second moment stays finite
(every block contributes exactly 2^(-m)), yet the truncated second moment
grows so slowly that each block (K_m, K_{m+1}] of sum_n n^(-1-1/T_n)
contributes at least 1.

Everything is certified in the log domain.  The cutoffs themselves overflow
doubles immediately (ln K_1 is ~29.6, ln K_10 ~ 1e448), so lambda = ln K is
stored at one of two levels: level 0 holds lambda, level 1 ln lambda.  The
levels are storage only; the arithmetic is done on ln lambda.  Every
certified comparison adds a directed slack of 1e-9 to the required side, so
certificates only err conservatively.  The distribution's moments need no
log domain: each block's share is closed form in doubles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .seqkit import libm

_LN2 = math.log(2.0)
_LNLN2 = math.log(_LN2)

SLACK = 1e-9            # directed-rounding slack on the required side of every check
_BUILD_MARGIN = 1e-6    # extra log-domain headroom so replay at SLACK always passes
_LEVEL0_CAP = 1e300     # promote to the log layer beyond this magnitude
MAX_DEPTH = 16          # two-level storage validated to this schedule depth

# corr bound e^(-29)/29, valid once lambda >= 29; the first cutoff lands near 29.56
_CORR_CAP = math.exp(-29.0) / 29.0


class BlockEndUnavailable(RuntimeError):
    """A cutoff lies outside the range where ``required_block_end`` can
    certify a block end: the integral bound cannot certify at any slack, or
    ln u cannot grow in doubles."""


# ---------------------------------------------------------------------------
# Stored cutoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogReal:
    """A stored cutoff lambda >= 0: payload is lambda (level 0) or ln lambda
    (level 1).  The levels are storage only; every quantity derived from a
    cutoff is computed from ``log_value`` by ``_log_affine``."""

    level: int
    payload: float

    def __post_init__(self) -> None:
        if self.level not in (0, 1):
            raise ValueError("level must be 0 or 1")
        if not math.isfinite(self.payload):
            raise ValueError("payload must be finite")
        if self.level == 0 and self.payload < 0.0:
            raise ValueError("level-0 payload must be nonnegative")

    def log_value(self) -> float:
        """ln of the represented value; -inf at 0."""
        if self.level == 0:
            return math.log(self.payload) if self.payload > 0.0 else -math.inf
        return self.payload


def _log_affine(lam: LogReal, c: float, x: float) -> float:
    """ln(c*lambda + x) for a stored cutoff lambda, c > 0 and x >= 0: summed in
    doubles while c*lambda < 1e300, beyond that ln(c*lambda) + log1p(x/(c*lambda)).
    Either route is off by a few ulp, which the SLACK of every check covers."""
    if lam.level == 0 and (y := lam.payload * c) < _LEVEL0_CAP:
        return math.log(y + x)
    lc = lam.log_value() + math.log(c)
    return lc + math.log1p(x * math.exp(min(-lc, 700.0)))


def _lambda_lower_float(log_cutoff: LogReal) -> float:
    """A float lower bound on lambda itself: the payload at level 0, and at
    level 1 e^payload (capped at e^709) one ulp down, below libm's error."""
    if log_cutoff.level == 0:
        return log_cutoff.payload
    return math.nextafter(math.exp(min(log_cutoff.payload, 709.0)), 0.0)


def _exp_neg_upper(log_cutoff: LogReal) -> float:
    """Certified upper bound on e^(-lambda) = 1/K; past lambda = 700 it is
    1e-304, above e^-700."""
    lam_lo = _lambda_lower_float(log_cutoff)
    return math.exp(-lam_lo) if lam_lo <= 700.0 else 1e-304


# ---------------------------------------------------------------------------
# Half-tail certificates and the block-end requirement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfTailCertificate:
    """Evidence that the sum over (K, L] reaches half of the full tail of
    n^(-1-s), s = 2^m/ln K, entirely from integral bounds."""

    m: int
    log_s: float
    doublings: int
    lhs_log: float
    rhs_log: float
    margin: float

    def to_json_dict(self) -> dict:
        return {"m": self.m, "log_s": self.log_s, "mode": "integral",
                "doublings": self.doublings, "lhs_log": self.lhs_log,
                "rhs_log": self.rhs_log, "margin": self.margin, "ok": True}


def _integral_margin(u: float, rhs: float) -> tuple[float, float, float]:
    """(lhs_log, rhs_log, margin) of the dimensionless half-tail inequality.

    After multiplying through by s*(K+1)^s, the condition reads
    1 - e^(-(ln2 + u)) >= 0.5*[(1+1/K)^s + s/(K+1)], and the right side is
    upper bounded by rhs = 0.5*[e^(s*delta) + s*e^(-lambda)].
    """
    lhs_log, rhs_log = math.log(-math.expm1(-(_LN2 + u))), math.log(rhs)
    return lhs_log, rhs_log, lhs_log - rhs_log - SLACK


def required_block_end(log_cutoff: LogReal, m: int) -> tuple[float, HalfTailCertificate]:
    """Smallest certified block end L for cutoff K = e^lambda and index m,
    returned as ln ln L.

    L = F*(K+1)*2^(1/s) with the slack factor F doubled (in the log domain)
    the least number of times that certifies the half-tail inequality.
    At or above the block-weight floor lambda = 2^(m+1) e^(2^m (1+corr)),
    s <= e^(-2^m)/2 keeps the right side of that inequality near 1/2, so
    some F certifies; a cutoff for which none can fails the floor anyway
    and has no block end.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lam_ln = log_cutoff.log_value()
    if lam_ln < _LNLN2 - 1e-12:
        raise ValueError("cutoff must satisfy lambda >= ln 2")
    ln_s = m * _LN2 - lam_ln
    e_neg = _exp_neg_upper(log_cutoff)
    delta_ub = e_neg  # ln(1 + 1/K) <= 1/K

    # The right side does not depend on the slack u, and the margin grows with
    # u to clear 0 at u* = -ln(2 - 2 rhs e^SLACK), so a block end exists
    # exactly when the margin clears 0 as u grows without bound.  The least j
    # whose u = exp(ln(s ln2) + j ln2) certifies is searched from two below u*
    # up; where u* rounds to inf, the left side is 1 at 40.
    s_val = math.exp(ln_s) if ln_s > -745.0 else 0.0
    rhs = 0.5 * (math.exp(min(s_val * delta_ub, 50.0)) + s_val * e_neg)
    if math.log(rhs) > -SLACK:
        raise BlockEndUnavailable("the integral bound cannot certify a block end "
                                  f"for ln lambda = {lam_ln!r} at m = {m}")
    ln_u0 = ln_s + _LNLN2
    if not ln_u0 > -2.0 ** 53:  # ln 2 is below half an ulp: ln u cannot grow
        raise BlockEndUnavailable("slack doubling failed to terminate")
    gap = 2.0 - 2.0 * rhs * math.exp(SLACK)
    u_star = -math.log(gap) if gap > 0.0 else 40.0
    doublings = max(0, math.ceil((math.log(u_star) - ln_u0) / _LN2) - 2)
    while True:
        u = math.exp(ln_u0 + doublings * _LN2)
        lhs_log, rhs_log, margin = _integral_margin(u, rhs)
        if margin >= 0.0:
            break
        doublings += 1
    end = _log_affine(log_cutoff, 1.0 + (_LN2 + u) / 2.0 ** m, delta_ub)
    return end, HalfTailCertificate(m=m, log_s=ln_s, doublings=doublings, lhs_log=lhs_log,
                                    rhs_log=rhs_log, margin=margin)


# ---------------------------------------------------------------------------
# Schedule construction
# ---------------------------------------------------------------------------


def _block_weight(log_cutoff: LogReal, m: int) -> tuple[float, float, float]:
    """(corr_ub, floor_log, margin): ln of the block weight
    2^(-m-1) * lambda * exp(-2^m (1 + corr)) with corr <= corr_ub, and the
    log-domain margin of that weight being >= 1."""
    corr_ub = _exp_neg_upper(log_cutoff) / max(_lambda_lower_float(log_cutoff), 1.0)
    need, lv = (m + 1) * _LN2 + 2.0 ** m * (1.0 + corr_ub), log_cutoff.log_value()
    return corr_ub, lv - need, lv - (need + SLACK)


def _min_loglam_for_block_weight(m: int) -> float:
    """The least ln(lambda) clearing the block-weight condition with the
    global corr cap; the condition is linear in ln(lambda), so this is its root."""
    return (m + 1) * _LN2 + 2.0 ** m * (1.0 + _CORR_CAP)


@dataclass(frozen=True)
class CutoffSchedule:
    """Cutoffs as log-values: entry m holds lambda_m = ln K_m (1-based)."""

    log_cutoffs: tuple[LogReal, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.m_max <= MAX_DEPTH:
            raise ValueError(f"a schedule holds 1..{MAX_DEPTH} cutoffs, not {self.m_max}")
        if self.log_cutoffs[0].log_value() < _LNLN2:
            raise ValueError("the first cutoff must be at least 2")
        for i in range(1, self.m_max):
            if not self.log_cutoffs[i - 1].log_value() < self.log_cutoffs[i].log_value():
                raise ValueError("cutoffs must increase strictly")

    @property
    def m_max(self) -> int:
        return len(self.log_cutoffs)

    def log_cutoff(self, m: int) -> LogReal:
        if not 1 <= m <= self.m_max:
            raise ValueError(f"m out of range 1..{self.m_max}")
        return self.log_cutoffs[m - 1]

    @functools.cached_property
    def block_ends(self) -> tuple[tuple[float, HalfTailCertificate], ...]:
        """``required_block_end`` of every block m < m_max, computed once;
        ``build_schedule`` hands over the ends it found."""
        return tuple(required_block_end(lam, m) for m, lam in enumerate(self.log_cutoffs[:-1], 1))

    def margins(self, m: int) -> tuple[float, Optional[float]]:
        """The log-domain margins of cutoff m: the block-weight floor's, and
        lambda_{m+1} over block m's certified end (None for the last cutoff).
        ``certify_block`` checks both as steps 5 and 2."""
        margin_a = _block_weight(self.log_cutoff(m), m)[2]
        if m == self.m_max:
            return margin_a, None
        end = self.block_ends[m - 1][0]
        return margin_a, self.log_cutoffs[m].log_value() - end - SLACK

    def to_json_list(self) -> list:
        out = []
        for m, lam in enumerate(self.log_cutoffs, 1):
            margin_a, margin_b = self.margins(m)
            out.append({"m": m, "level": lam.level, "payload": lam.payload,
                        "cond_A_margin_log": margin_a, "cond_B_margin_log": margin_b})
        return out

    @staticmethod
    def from_json_list(items: list) -> "CutoffSchedule":
        """The schedule ``to_json_list`` wrote.  Entry m's atom has mass
        2^(-m-1)/K_m, so the entries must be numbered 1..len, in any order.
        Only ``m``, ``level`` and ``payload`` are read: the margins are
        recomputed from the cutoffs."""
        items = sorted(items, key=lambda d: d["m"])
        if [d["m"] for d in items] != list(range(1, len(items) + 1)):
            raise ValueError("schedule entries must be numbered m = 1..len, each once")
        return CutoffSchedule(tuple(LogReal(int(d["level"]), float(d["payload"]))
                                    for d in items))


def build_schedule(m_max: int) -> CutoffSchedule:
    """Inductively choose cutoffs satisfying both inductive conditions.

    lambda_m is the largest of: the minimal solution of the block-weight
    condition (closed form), the certified block end of the previous cutoff,
    and the previous lambda plus one; a 1e-6 log-domain margin is added so
    that replay under the 1e-9 slack always passes.  Entries are promoted to
    level 1 (the log) once lambda crosses 1e300.  ``verify_counterexample``
    certifies the result.
    """
    if not 1 <= m_max <= MAX_DEPTH:
        raise ValueError(f"m_max must lie in 1..{MAX_DEPTH}")
    cutoffs: list[LogReal] = []
    ends = []
    for m in range(1, m_max + 1):
        candidates = [_min_loglam_for_block_weight(m)]
        if m > 1:
            ends.append(required_block_end(cutoffs[-1], m - 1))
            candidates.append(ends[-1][0] + SLACK)
            candidates.append(_log_affine(cutoffs[-1], 1.0, 1.0))
        lnlam = max(candidates) + _BUILD_MARGIN
        if lnlam <= math.log(_LEVEL0_CAP):
            cutoffs.append(LogReal(0, math.exp(lnlam)))
        else:
            cutoffs.append(LogReal(1, lnlam))
    schedule = CutoffSchedule(tuple(cutoffs))
    schedule.__dict__["block_ends"] = tuple(ends)  # fills the cached property
    return schedule


# ---------------------------------------------------------------------------
# The distribution and its functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleDistribution:
    """Atoms at +-sqrt(K_m log K_m) with mass 2^(-m-1)/K_m each; rest at 0."""

    schedule: CutoffSchedule

    def atom_log_value(self, m: int) -> float:
        """ln of the atom position: (lambda_m + ln lambda_m)/2."""
        lam = self.schedule.log_cutoff(m)
        if lam.level != 0:
            raise ValueError("atom position exceeds the double log range")
        return 0.5 * (lam.payload + math.log(lam.payload))

    def truncated_second_moments(self, b) -> np.ndarray:
        """E[X^2 1{|X| < b}] for an array of cutoffs, strict at the cutoff.

        The two atoms of block m have mass 2^-m / K_m together, at
        x_m^2 = K_m lambda_m, so the block adds exactly
        2^-m lambda_m once ln x_m < ln b.  A cutoff stored at level 1 puts
        ln x_m past 5e299, above the log of any double, so only level-0 blocks
        can count.
        """
        blocks = [m for m in range(1, self.schedule.m_max + 1)
                  if self.schedule.log_cutoff(m).level == 0]
        below = np.cumsum([0.0] + [2.0 ** -m * self.schedule.log_cutoff(m).payload
                                   for m in blocks])
        keys = [self.atom_log_value(m) for m in blocks]
        return below[np.searchsorted(keys, libm(math.log, np.atleast_1d(b)), side="left")]

    def weighted_second_moment(self) -> float:
        """E[X^2 / log(2 + |X|)], every block counted.

        Block m adds 2^-m lambda_m / log(2 + x_m).  Past ln x_m = 50,
        log(2 + x_m) = ln x_m within 2e^-50, and the term is
        2^(1-m) / (1 + ln(lambda_m) / lambda_m) at either storage level.
        """
        terms = []
        for m in range(1, self.schedule.m_max + 1):
            lam = self.schedule.log_cutoff(m)
            if lam.level == 0 and (lx := self.atom_log_value(m)) <= 50.0:
                terms.append(2.0 ** -m * lam.payload / (lx + math.log1p(2.0 * math.exp(-lx))))
            else:
                ln_lam = lam.log_value()
                terms.append(2.0 ** (1 - m) / (1.0 + ln_lam * math.exp(-ln_lam)))
        return math.fsum(terms)


# ---------------------------------------------------------------------------
# Block divergence certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockCertificate:
    """Full audit of one block of sum_n n^(-1-1/T_n) being >= 1.

    Chain: block covers the certified half-tail range; the half-tail bound
    clears half the integral tail floor; the integral floor equals twice the
    block-weight quantity; the block-weight quantity is >= 1.  On the block,
    1/T_n <= 2^m/lambda_m because T_n >= 2^(-m) lambda_m.
    """

    m: int
    ok: bool
    failed_step: Optional[str]
    steps: tuple[tuple[str, bool, dict], ...]
    block_lower_bound_log: float

    @property
    def block_lower_bound(self) -> float:
        try:
            return math.exp(self.block_lower_bound_log)
        except OverflowError:
            return math.inf

    def to_json_dict(self) -> dict:
        return {"m": self.m, "ok": self.ok, "failed_step": self.failed_step,
                "block_lower_bound_log": self.block_lower_bound_log,
                "steps": [{"name": s, "ok": ok, "details": det}
                          for s, ok, det in self.steps]}


def certify_block(schedule: CutoffSchedule, m: int) -> BlockCertificate:
    """Certify that block m contributes at least 1, in the log domain."""
    if not 1 <= m < schedule.m_max:
        raise ValueError("certifiable blocks need 1 <= m < m_max")
    lam = schedule.log_cutoff(m)
    steps: list[tuple[str, bool, dict]] = []
    failed: Optional[str] = None

    def record(name: str, ok: bool, details: dict) -> None:
        nonlocal failed
        steps.append((name, ok, details))
        if not ok and failed is None:
            failed = name

    # 1. exponent floor on the block: T_n >= 2^-m lambda_m, all summands positive
    positive = all(schedule.log_cutoff(j).log_value() > -math.inf
                   for j in range(1, m + 1))
    record("exponent-floor", positive,
           {"floor_log": lam.log_value() - m * _LN2})

    # 2. the block reaches the certified end: lambda_{m+1} >= ln L
    end, half = schedule.block_ends[m - 1]
    margin_a, margin_b = schedule.margins(m)
    record("block-covers-certified-end", margin_b >= 0.0,
           {"margin": margin_b, "end_log": end,
            "next_log": schedule.log_cutoff(m + 1).log_value()})

    # 3. the half-tail inequality itself
    record("half-tail", half.margin >= 0.0, half.to_json_dict())

    # 4. integral tail floor equals twice the block-weight quantity (algebraic)
    corr_ub, floor_log, _ = _block_weight(lam, m)
    record("tail-floor-identity", True,
           {"corr_upper_bound": corr_ub,
            "note": "s^-1 (K+1)^-s = 2 * 2^(-m-1) lambda e^(-2^m (1+corr)) exactly"})

    # 5. block-weight floor >= 1
    record("block-weight-floor", margin_a >= 0.0, {"margin": margin_a})

    return BlockCertificate(m=m, ok=failed is None, failed_step=failed,
                            steps=tuple(steps), block_lower_bound_log=floor_log)


@dataclass(frozen=True)
class CounterexampleReport:
    """Headline outcome: the log-weighted moment is finite, yet the
    adaptive-exponent series diverges block by block."""

    depth: int
    divergence_certified: bool
    certificates: tuple[BlockCertificate, ...]
    notes: tuple[str, ...]

    @property
    def moment_value(self) -> float:
        """E of the inverse normalizing function of |X|: block m adds
        2 * (2^(-m-1)/K_m) * phi(psi(K_m)) = 2^-m whatever the cutoffs, as
        phi(psi(K_m)) = K_m, so M blocks sum to 1 - 2^-M, rounded once (a
        running sum of the terms rounds to the same double)."""
        return 1.0 - 2.0 ** -self.depth

    @property
    def moment_deficit(self) -> float:
        return 2.0 ** -self.depth

    def to_json_dict(self) -> dict:
        return {
            "moment_value": self.moment_value,
            "moment_deficit": self.moment_deficit,
            "moment_finite": True,
            "divergence_certified": self.divergence_certified,
            "certificates": [c.to_json_dict() for c in self.certificates],
            "notes": list(self.notes),
        }


def verify_counterexample(schedule: CutoffSchedule) -> CounterexampleReport:
    """Certify both halves of the counterexample on a built schedule."""
    certs = tuple(certify_block(schedule, m) for m in range(1, schedule.m_max))
    diverges = bool(certs) and all(c.ok for c in certs)
    notes = ["symmetric by construction, so medians vanish identically",
             "finite inverse-growth moment certifies the log-weighted "
             "second-moment condition"]
    if not certs:
        notes.append("depth 1 schedule: no block certificates, divergence vacuous")
    else:
        notes.append(f"{len(certs)} block certificates, each block >= 1")
    return CounterexampleReport(depth=schedule.m_max, divergence_certified=diverges,
                                certificates=certs, notes=tuple(notes))
