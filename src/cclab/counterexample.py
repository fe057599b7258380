"""A sparse atomic distribution whose adaptive-exponent series diverges.

Construction: pick cutoffs K_1 < K_2 < ... growing at least doubly
exponentially, place atoms at +-sqrt(K_m log K_m) with mass 2^(-m-1)/K_m
each, and leave the rest at 0.  The log-weighted second moment stays finite
(every block contributes exactly 2^(-m)), yet the truncated second moment
grows so slowly that each block (K_m, K_{m+1}] of sum_n n^(-1-1/T_n)
contributes at least 1.

Everything is certified in the log domain.  The cutoffs themselves overflow
doubles immediately (ln K_1 is ~29.6, ln K_10 ~ 1e448), so values live in a
layered representation: level 0 stores the value, level 1 its log, level 2
the log of the log.  Every certified comparison adds a directed slack of
1e-9 to the required side, so certificates only err conservatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import distmodel
from .seqkit import kahan_sum

_LN2 = math.log(2.0)
_LNLN2 = math.log(_LN2)
_PSI_AT_2 = math.sqrt(2.0 * _LN2)

SLACK = 1e-9            # directed-rounding slack on the required side of every check
_BUILD_MARGIN = 1e-6    # extra log-domain headroom so replay at SLACK always passes
_LEVEL0_CAP = 1e300     # promote to the log layer beyond this magnitude
MAX_DEPTH = 16          # two-level arithmetic validated to this schedule depth

# corr bound e^(-29)/29, valid once lambda >= 29; the first cutoff lands near 29.56
_CORR_CAP = math.exp(-29.0) / 29.0


class CertificationError(RuntimeError):
    """A certified inequality failed; the message names the broken step."""


# ---------------------------------------------------------------------------
# Layered nonnegative reals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogReal:
    """Nonnegative extended real: payload is the value (level 0), its log
    (level 1), or its log-log (level 2)."""

    level: int
    payload: float

    def __post_init__(self) -> None:
        if self.level not in (0, 1, 2):
            raise ValueError("level must be 0, 1 or 2")
        if not math.isfinite(self.payload):
            raise ValueError("payload must be finite")
        if self.level == 0 and self.payload < 0.0:
            raise ValueError("level-0 payload must be nonnegative")

    @staticmethod
    def from_value(x: float) -> "LogReal":
        return LogReal(0, float(x))

    @staticmethod
    def from_log(lx: float) -> "LogReal":
        return LogReal(1, float(lx))

    @staticmethod
    def from_loglog(llx: float) -> "LogReal":
        return LogReal(2, float(llx))

    def value(self) -> float:
        """The represented value; inf when it overflows a double."""
        if self.level == 0:
            return self.payload
        if self.level == 1:
            try:
                return math.exp(self.payload)
            except OverflowError:
                return math.inf
        lv = self.log_value()
        if math.isinf(lv):
            return math.inf
        try:
            return math.exp(lv)
        except OverflowError:
            return math.inf

    def log_value(self) -> float:
        """ln of the represented value; -inf at 0, +inf when it overflows."""
        if self.level == 0:
            return math.log(self.payload) if self.payload > 0.0 else -math.inf
        if self.level == 1:
            return self.payload
        try:
            return math.exp(self.payload)
        except OverflowError:
            return math.inf

    def loglog_value(self) -> float:
        if self.level == 2:
            return self.payload
        lv = self.log_value()
        return math.log(lv) if lv > 0.0 else -math.inf

    def promoted(self) -> "LogReal":
        if self.level == 2:
            raise ValueError("no level above 2")
        if self.level == 0:
            if self.payload <= 0.0:
                raise ValueError("cannot promote 0 into the log layer")
            return LogReal(1, math.log(self.payload))
        if self.payload <= 0.0:
            raise ValueError("cannot promote a value <= 1 to level 2")
        return LogReal(2, math.log(self.payload))

    def demoted(self) -> "LogReal":
        if self.level == 0:
            raise ValueError("no level below 0")
        v = math.exp(self.payload)  # raises OverflowError when unrepresentable
        return LogReal(self.level - 1, v)

    def scaled(self, c: float) -> "LogReal":
        """The value multiplied by c > 0."""
        if c <= 0.0 or not math.isfinite(c):
            raise ValueError("scale factor must be a positive finite real")
        if self.level == 0:
            if self.payload == 0.0:
                return self
            y = self.payload * c
            if y < _LEVEL0_CAP:
                return LogReal(0, y)
            return LogReal(1, math.log(self.payload) + math.log(c))
        if self.level == 1:
            return LogReal(1, self.payload + math.log(c))
        lnc = math.log(c)
        if self.payload > 50.0:
            return LogReal(2, self.payload + math.log1p(lnc * math.exp(-self.payload)))
        return LogReal(2, math.log(math.exp(self.payload) + lnc))

    def plus_scalar(self, x: float) -> "LogReal":
        """The value plus x >= 0; beyond level 0 the result may round down,
        so callers must treat it as a lower bound."""
        if x < 0.0:
            raise ValueError("addend must be nonnegative")
        if x == 0.0:
            return self
        if self.level == 0:
            y = self.payload + x
            if y < _LEVEL0_CAP:
                return LogReal(0, y)
            return LogReal.from_log(math.log(y))
        if self.level == 1:
            ratio = x * math.exp(min(-self.payload, 700.0)) if self.payload > -700.0 else math.inf
            if math.isinf(ratio):
                return LogReal(1, math.log(x))
            return LogReal(1, self.payload + math.log1p(ratio))
        return self

    def compare(self, other: "LogReal") -> int:
        la, lb = self.log_value(), other.log_value()
        if math.isinf(la) and math.isinf(lb) and la > 0 and lb > 0:
            lla, llb = self.loglog_value(), other.loglog_value()
            return (lla > llb) - (lla < llb)
        return (la > lb) - (la < lb)

    def __lt__(self, other: "LogReal") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "LogReal") -> bool:
        return self.compare(other) <= 0

    def to_json_dict(self) -> dict:
        return {"level": self.level, "payload": self.payload}

    @staticmethod
    def from_json_dict(d: dict) -> "LogReal":
        return LogReal(int(d["level"]), float(d["payload"]))


def _exp_neg_upper(log_cutoff: LogReal) -> float:
    """Certified upper bound on e^(-lambda) = 1/K."""
    if log_cutoff.level == 0 and log_cutoff.payload <= 700.0:
        return math.exp(-log_cutoff.payload)
    return 1e-304


def _lambda_lower_float(log_cutoff: LogReal) -> float:
    """A float lower bound on lambda itself."""
    if log_cutoff.level == 0:
        return log_cutoff.payload
    return _LEVEL0_CAP


# ---------------------------------------------------------------------------
# The normalizing function and its inverse
# ---------------------------------------------------------------------------


def sqrt_xlogx(t: float) -> float:
    """sqrt(t log t) for t >= 2, extended linearly to [0, 2] with value 0 at 0."""
    if t < 0.0:
        raise ValueError("argument must be nonnegative")
    if t >= 2.0:
        return math.sqrt(t * math.log(t))
    return t * (_PSI_AT_2 / 2.0)


def inv_sqrt_xlogx(y: float) -> float:
    """Inverse of sqrt_xlogx, by Newton refinement above the linear piece."""
    if y < 0.0:
        raise ValueError("argument must be nonnegative")
    if y <= _PSI_AT_2:
        return 2.0 * y / _PSI_AT_2
    z = y * y
    t = max(2.0, z / math.log(max(z, math.e)))
    for _ in range(80):
        f = t * math.log(t) - z
        step = f / (math.log(t) + 1.0)
        t_new = max(2.0, t - step)
        if abs(t_new - t) <= 1e-14 * t:
            return t_new
        t = t_new
    return t


# ---------------------------------------------------------------------------
# Half-tail certificates and the block-end requirement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfTailCertificate:
    """Evidence that the sum over (K, L] reaches half of the full tail of
    n^(-1-s), s = 2^m/ln K, entirely from integral (or enumerated) bounds."""

    m: int
    log_s: float
    mode: str
    doublings: int
    lhs_log: float
    rhs_log: float
    margin: float
    ok: bool

    def to_json_dict(self) -> dict:
        return {"m": self.m, "log_s": self.log_s, "mode": self.mode,
                "doublings": self.doublings, "lhs_log": self.lhs_log,
                "rhs_log": self.rhs_log, "margin": self.margin, "ok": self.ok}


def _integral_margin(u: float, ln_s: float, delta_ub: float, e_neg: float) -> tuple[float, float, float]:
    """(lhs_log, rhs_log, margin) of the dimensionless half-tail inequality.

    After multiplying through by s*(K+1)^s, the condition reads
    1 - e^(-(ln2 + u)) >= 0.5*[(1+1/K)^s + s/(K+1)], and the right side is
    upper bounded by 0.5*[e^(s*delta) + s*e^(-lambda)].
    """
    s_val = math.exp(ln_s) if ln_s > -745.0 else 0.0
    lhs = -math.expm1(-(_LN2 + u))
    rhs = 0.5 * (math.exp(min(s_val * delta_ub, 50.0)) + s_val * e_neg)
    lhs_log, rhs_log = math.log(lhs), math.log(rhs)
    return lhs_log, rhs_log, lhs_log - rhs_log - SLACK


def required_block_end(log_cutoff: LogReal, m: int) -> tuple[LogReal, HalfTailCertificate]:
    """Smallest certified block end L for cutoff K = e^lambda and index m.

    Integral route: L = F*(K+1)*2^(1/s) with F doubled (in the log domain)
    until the half-tail inequality certifies.  When the integral bounds can
    never certify, K is provably small enough to enumerate the series
    directly, and the certificate records the enumerated bounds instead.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lam_ln = log_cutoff.log_value()
    if lam_ln < _LNLN2 - 1e-12:
        raise ValueError("cutoff must satisfy lambda >= ln 2")
    ln_s = m * _LN2 - lam_ln
    e_neg = _exp_neg_upper(log_cutoff)
    delta_ub = e_neg  # ln(1 + 1/K) <= 1/K

    # Feasibility of the integral route as the slack factor grows without bound.
    s_val = math.exp(ln_s) if ln_s > -745.0 else 0.0
    rhs_inf = 0.5 * (math.exp(min(s_val * delta_ub, 50.0)) + s_val * e_neg)
    if math.log(rhs_inf) <= -SLACK:
        ln_u = ln_s + _LNLN2
        doublings = 0
        while True:
            u = math.exp(ln_u) if ln_u > -700.0 else 0.0
            if u > 0.0:
                lhs_log, rhs_log, margin = _integral_margin(u, ln_s, delta_ub, e_neg)
                if margin >= 0.0:
                    break
            ln_u += _LN2
            doublings += 1
            if doublings > 1_000_000:
                raise RuntimeError("slack doubling failed to terminate")
        w = _LN2 + u
        end = log_cutoff.scaled(1.0 + w / 2.0 ** m).plus_scalar(delta_ub)
        cert = HalfTailCertificate(m=m, log_s=ln_s, mode="integral",
                                   doublings=doublings, lhs_log=lhs_log,
                                   rhs_log=rhs_log, margin=margin, ok=True)
        return end, cert

    # Enumerated route: only reachable when s/K >= ~0.44, which pins K small.
    if log_cutoff.level != 0 or log_cutoff.payload > 20.0:
        raise RuntimeError("enumeration fallback reached with a large cutoff")
    lam = log_cutoff.payload
    k_val = math.exp(lam)
    if k_val > 2e6:
        raise RuntimeError("enumeration fallback reached with oversized support")
    s = math.exp(ln_s)
    n0 = int(math.floor(k_val + 1e-9)) + 1     # start no earlier than the true block
    # when the fuzz crossed an integer, the tail bound may have lost one term
    extra_ub = float(n0 - 1) ** (-1.0 - s) if math.floor(k_val + 1e-9) != math.floor(k_val) else 0.0
    end_n = int(math.ceil(2.0 * (k_val + 1.0) * 2.0 ** (1.0 / s)))
    doublings = 0
    while True:
        finite = math.fsum(n ** (-1.0 - s) for n in range(n0, end_n + 1))
        finite_lb = finite * (1.0 - 1e-12)
        tail_ub = finite * (1.0 + 1e-12) + end_n ** (-s) / s + extra_ub
        lhs_log = math.log(finite_lb)
        rhs_log = math.log(0.5 * tail_ub)
        margin = lhs_log - rhs_log - SLACK
        if margin >= 0.0:
            break
        end_n *= 2
        doublings += 1
        if doublings > 80:
            raise RuntimeError("enumerated half-tail search failed to terminate")
    cert = HalfTailCertificate(m=m, log_s=ln_s, mode="enumerated",
                               doublings=doublings, lhs_log=lhs_log,
                               rhs_log=rhs_log, margin=margin, ok=True)
    return LogReal.from_value(math.log(end_n)), cert


# ---------------------------------------------------------------------------
# Schedule construction
# ---------------------------------------------------------------------------


def _block_weight_margin(log_cutoff: LogReal, m: int) -> float:
    """Log-domain margin of 2^(-m-1) * lambda * exp(-2^m (1 + corr)) >= 1."""
    lam_lb = _lambda_lower_float(log_cutoff)
    corr_ub = _exp_neg_upper(log_cutoff) / max(lam_lb, 1.0)
    required = (m + 1) * _LN2 + 2.0 ** m * (1.0 + corr_ub) + SLACK
    return log_cutoff.log_value() - required


def _min_loglam_for_block_weight(m: int) -> float:
    """Monotone bisection for the least ln(lambda) clearing the block-weight
    condition with the global corr cap."""
    target = (m + 1) * _LN2 + 2.0 ** m * (1.0 + _CORR_CAP)

    def g(x: float) -> float:
        return x - target

    lo, hi = _LNLN2, 8.0
    while g(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            break
    return hi


@dataclass(frozen=True)
class CutoffSchedule:
    """Cutoffs as log-values: entry m holds lambda_m = ln K_m (1-based)."""

    m_max: int
    log_cutoffs: tuple[LogReal, ...]
    cond_a_margins: tuple[float, ...]
    cond_b_margins: tuple[Optional[float], ...]

    def __post_init__(self) -> None:
        if len(self.log_cutoffs) != self.m_max:
            raise ValueError("schedule length mismatch")
        if self.log_cutoffs and self.log_cutoffs[0].log_value() < _LNLN2:
            raise ValueError("the first cutoff must be at least 2")
        for i in range(1, self.m_max):
            if not self.log_cutoffs[i - 1] < self.log_cutoffs[i]:
                raise ValueError("cutoffs must increase strictly")

    def log_cutoff(self, m: int) -> LogReal:
        if not 1 <= m <= self.m_max:
            raise ValueError(f"m out of range 1..{self.m_max}")
        return self.log_cutoffs[m - 1]

    def to_json_list(self) -> list:
        out = []
        for i in range(self.m_max):
            out.append({
                "m": i + 1,
                "level": self.log_cutoffs[i].level,
                "payload": self.log_cutoffs[i].payload,
                "cond_A_margin_log": self.cond_a_margins[i],
                "cond_B_margin_log": self.cond_b_margins[i],
            })
        return out

    @staticmethod
    def from_json_list(items: list) -> "CutoffSchedule":
        items = sorted(items, key=lambda d: d["m"])
        cutoffs = tuple(LogReal(int(d["level"]), float(d["payload"])) for d in items)
        return CutoffSchedule(
            m_max=len(items),
            log_cutoffs=cutoffs,
            cond_a_margins=tuple(float(d["cond_A_margin_log"]) for d in items),
            cond_b_margins=tuple(None if d["cond_B_margin_log"] is None
                                 else float(d["cond_B_margin_log"]) for d in items),
        )


def build_schedule(m_max: int) -> CutoffSchedule:
    """Inductively choose cutoffs satisfying both inductive conditions.

    lambda_m is the largest of: the minimal solution of the block-weight
    condition (bisection), the certified block end of the previous cutoff,
    and the previous lambda plus one; a 1e-6 log-domain margin is added so
    that replay under the 1e-9 slack always passes.  Entries are promoted to
    the second log level once lambda crosses 1e300.
    """
    if not 1 <= m_max <= MAX_DEPTH:
        raise ValueError(f"m_max must lie in 1..{MAX_DEPTH}")
    cutoffs: list[LogReal] = []
    for m in range(1, m_max + 1):
        candidates = [_min_loglam_for_block_weight(m)]
        if m > 1:
            end, _ = required_block_end(cutoffs[-1], m - 1)
            candidates.append(end.log_value() + SLACK)
            candidates.append(cutoffs[-1].plus_scalar(1.0).log_value())
        lnlam = max(candidates) + _BUILD_MARGIN
        if lnlam <= math.log(_LEVEL0_CAP):
            cutoffs.append(LogReal.from_value(math.exp(lnlam)))
        else:
            cutoffs.append(LogReal.from_log(lnlam))

    a_margins = []
    b_margins: list[Optional[float]] = []
    for m in range(1, m_max + 1):
        margin_a = _block_weight_margin(cutoffs[m - 1], m)
        if margin_a < 0.0:
            raise CertificationError(f"block-weight condition failed on replay at m={m}")
        a_margins.append(margin_a)
        if m < m_max:
            end, cert = required_block_end(cutoffs[m - 1], m)
            if not cert.ok:
                raise CertificationError(f"half-tail certificate failed at m={m}")
            margin_b = cutoffs[m].log_value() - end.log_value() - SLACK
            if margin_b < 0.0:
                raise CertificationError(f"block-end condition failed on replay at m={m}")
            b_margins.append(margin_b)
        else:
            b_margins.append(None)
    return CutoffSchedule(m_max=m_max, log_cutoffs=tuple(cutoffs),
                          cond_a_margins=tuple(a_margins),
                          cond_b_margins=tuple(b_margins))


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

    def atom_log_weight(self, m: int) -> float:
        """ln P(|X| = atom_m) = -m ln 2 - lambda_m; -inf when it underflows."""
        lam = self.schedule.log_cutoff(m)
        if lam.level == 0:
            return -m * _LN2 - lam.payload
        return -math.inf

    def total_atom_mass_log(self) -> float:
        return distmodel._logsumexp(self.atom_log_weight(m)
                                    for m in range(1, self.schedule.m_max + 1))

    def tail_log(self, log_threshold: float) -> float:
        """ln P(|X| >= exp(log_threshold))."""
        terms = []
        for m in range(1, self.schedule.m_max + 1):
            lam = self.schedule.log_cutoff(m)
            if lam.level != 0:
                continue  # weight underflows -inf anyway
            if self.atom_log_value(m) >= log_threshold:
                terms.append(self.atom_log_weight(m))
        return distmodel._logsumexp(terms)

    def to_dist(self) -> distmodel.Dist:
        """Log-atomic view; requires every cutoff to sit in the double log range."""
        atoms = []
        for m in range(1, self.schedule.m_max + 1):
            lam = self.schedule.log_cutoff(m)
            if lam.level != 0:
                raise ValueError("schedule too deep for a log-atomic view")
            atoms.append((self.atom_log_value(m), self.atom_log_weight(m)))
        return distmodel.log_atomic_sym(atoms)


def counterexample_distribution(schedule: CutoffSchedule) -> CounterexampleDistribution:
    return CounterexampleDistribution(schedule=schedule)


@dataclass(frozen=True)
class InverseGrowthMoment:
    """E of the inverse normalizing function of |X|: each block is exactly 2^-m."""

    value: float
    deficit: float
    terms: int


def inverse_growth_moment(dist: CounterexampleDistribution,
                          terms: Optional[int] = None) -> InverseGrowthMoment:
    """Sum of 2 * (2^(-m-1)/K_m) * phi(psi(K_m)) over m = 1..terms.

    phi(psi(K_m)) = K_m cancels symbolically in the log domain, so each term
    equals 2^-m regardless of the cutoffs, and the truncated sum is exactly
    1 - 2^-terms in dyadic arithmetic.  ``terms`` may exceed the built depth
    because the construction is an arbitrarily extendable prefix.
    """
    if terms is None:
        terms = dist.schedule.m_max
    if not 1 <= terms <= 1070:
        raise ValueError("terms must lie in 1..1070")
    total = 0.0
    for m in range(1, terms + 1):
        total += 2.0 ** (-m)
    return InverseGrowthMoment(value=total, deficit=2.0 ** (-terms), terms=terms)


@dataclass(frozen=True)
class TruncatedSecondMomentLB:
    value: LogReal
    exact: bool
    blocks: int


def truncated_second_moment_log(schedule: CutoffSchedule,
                                log_n: LogReal) -> TruncatedSecondMomentLB:
    """T_n = sum_{m <= M(n)} 2^(-m) lambda_m with M(n) = #{m : K_m < n}.

    Exact as a double while every summand fits level 0; beyond that a
    certified lower bound (the dominant term) is returned, which is the
    direction the divergence chain consumes.
    """
    lam1 = schedule.log_cutoff(1)
    if not lam1 < log_n:
        raise ValueError("ln n must exceed the first cutoff's log")
    blocks = 0
    for m in range(1, schedule.m_max + 1):
        if schedule.log_cutoff(m) < log_n:
            blocks = m
        else:
            break
    exact = True
    payloads = []
    best: Optional[LogReal] = None
    for m in range(1, blocks + 1):
        lam = schedule.log_cutoff(m)
        term = lam.scaled(2.0 ** (-m))
        if term.level != 0:
            exact = False
        else:
            payloads.append(term.payload)
        if best is None or best < term:
            best = term
    if exact:
        return TruncatedSecondMomentLB(value=LogReal.from_value(kahan_sum(payloads)),
                                       exact=True, blocks=blocks)
    return TruncatedSecondMomentLB(value=best, exact=False, blocks=blocks)


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
    lam_next = schedule.log_cutoff(m + 1)
    steps: list[tuple[str, bool, dict]] = []
    failed: Optional[str] = None

    def record(name: str, ok: bool, details: dict) -> bool:
        nonlocal failed
        steps.append((name, ok, details))
        if not ok and failed is None:
            failed = name
        return ok

    # 1. exponent floor on the block: T_n >= 2^-m lambda_m, all summands positive
    positive = all(schedule.log_cutoff(j).log_value() > -math.inf
                   for j in range(1, m + 1))
    record("exponent-floor", positive,
           {"floor_log": lam.log_value() - m * _LN2})

    # 2. the block reaches the certified end: lambda_{m+1} >= ln L
    end, half = required_block_end(lam, m)
    margin_b = lam_next.log_value() - end.log_value() - SLACK
    record("block-covers-certified-end", margin_b >= 0.0,
           {"margin": margin_b, "end_log": end.log_value(),
            "next_log": lam_next.log_value()})

    # 3. the half-tail inequality itself
    record("half-tail", half.ok and half.margin >= 0.0, half.to_json_dict())

    # 4. integral tail floor equals twice the block-weight quantity (algebraic)
    corr_ub = _exp_neg_upper(lam) / max(_lambda_lower_float(lam), 1.0)
    record("tail-floor-identity", True,
           {"corr_upper_bound": corr_ub,
            "note": "s^-1 (K+1)^-s = 2 * 2^(-m-1) lambda e^(-2^m (1+corr)) exactly"})

    # 5. block-weight floor >= 1
    margin_a = _block_weight_margin(lam, m)
    record("block-weight-floor", margin_a >= 0.0, {"margin": margin_a})

    floor_log = lam.log_value() - ((m + 1) * _LN2 + 2.0 ** m * (1.0 + corr_ub))
    return BlockCertificate(m=m, ok=failed is None, failed_step=failed,
                            steps=tuple(steps), block_lower_bound_log=floor_log)


@dataclass(frozen=True)
class CounterexampleReport:
    """Headline outcome: the log-weighted moment is finite, yet the
    adaptive-exponent series diverges block by block."""

    moment: InverseGrowthMoment
    moment_finite: bool
    divergence_certified: bool
    certificates: tuple[BlockCertificate, ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "moment_value": self.moment.value,
            "moment_deficit": self.moment.deficit,
            "moment_finite": self.moment_finite,
            "divergence_certified": self.divergence_certified,
            "certificates": [c.to_json_dict() for c in self.certificates],
            "notes": list(self.notes),
        }


def verify_counterexample(schedule: CutoffSchedule) -> CounterexampleReport:
    """Certify both halves of the counterexample on a built schedule."""
    dist = counterexample_distribution(schedule)
    moment = inverse_growth_moment(dist)
    certs = tuple(certify_block(schedule, m) for m in range(1, schedule.m_max))
    diverges = bool(certs) and all(c.ok for c in certs)
    notes = ["symmetric by construction, so medians vanish identically",
             "finite inverse-growth moment certifies the log-weighted "
             "second-moment condition"]
    if not certs:
        notes.append("depth 1 schedule: no block certificates, divergence vacuous")
    else:
        notes.append(f"{len(certs)} block certificates, each block >= 1")
    return CounterexampleReport(moment=moment, moment_finite=True,
                                divergence_certified=diverges,
                                certificates=certs, notes=tuple(notes))
