"""Series reports: rows, verdicts, and the certificates that back them.

A verdict is data, never an exit code.  Certified verdicts must carry the
certificate object that justifies them; constructing a certified report
without one raises.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

CONVERGES = "ConvergesCertified"
DIVERGES = "DivergesCertified"
UNDETERMINED = "Undetermined"

_VERDICTS = (CONVERGES, DIVERGES, UNDETERMINED)

CSV_COLUMNS = ("n", "term", "partial_sum", "ci_lo", "ci_hi", "exact")


def check_partial_sums(n, term, partial_sum) -> None:
    """Raise at the first negative term, or the first partial sum that steps
    back by more than a compensated sum's rounding."""
    partial_sum = np.asarray(partial_sum, dtype=np.float64)
    prev = np.concatenate(([-0.0], partial_sum[:-1]))
    negative = np.asarray(term, dtype=np.float64) < 0.0
    back = partial_sum < prev - 1e-15 * np.fmax(1.0, np.abs(prev))
    bad = np.flatnonzero(negative | back)
    if bad.size:
        i = bad[0]
        what = "negative term" if negative[i] else "partial sums decrease"
        raise ValueError(f"{what} at n={np.asarray(n).tolist()[i]}")


@dataclass(frozen=True)
class SeriesRow:
    n: int
    term: float
    partial_sum: float
    ci_lo: Optional[float] = None
    ci_hi: Optional[float] = None
    exact: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "term": self.term, "partial_sum": self.partial_sum}
        if self.ci_lo is not None:
            out["ci_lo"] = self.ci_lo
        if self.ci_hi is not None:
            out["ci_hi"] = self.ci_hi
        if self.exact is not None:
            out["exact"] = self.exact
        return out


@dataclass(frozen=True)
class ConvergenceBound:
    """Analytic envelope certificate: sum of all terms beyond the grid <= tail_bound."""

    kind: str
    params: dict
    tail_bound: float
    description: str

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
                "tail_bound": self.tail_bound, "description": self.description}


@dataclass(frozen=True)
class DivergenceBound:
    """Certificate that blocks with sum >= block_floor > 0 recur forever."""

    kind: str
    params: dict
    block_floor: float
    description: str

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
                "block_floor": self.block_floor, "description": self.description}


@dataclass(frozen=True)
class SeriesReport:
    series_id: str
    params: dict
    rows: tuple[SeriesRow, ...]
    verdict: str
    tail_bound: Optional[ConvergenceBound] = None
    divergence: Optional[DivergenceBound] = None
    evidence: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == CONVERGES and self.tail_bound is None:
            raise ValueError("a convergence verdict requires an analytic tail bound")
        if self.verdict == DIVERGES and self.divergence is None:
            raise ValueError("a divergence verdict requires a block-bound certificate")
        check_partial_sums([r.n for r in self.rows], [r.term for r in self.rows],
                           [r.partial_sum for r in self.rows])

    def to_json_dict(self) -> dict:
        out = {
            "series_id": self.series_id,
            "params": dict(self.params),
            "rows": [r.to_json_dict() for r in self.rows],
            "verdict": self.verdict,
            "evidence": list(self.evidence),
        }
        if self.tail_bound is not None:
            out["tail_bound"] = self.tail_bound.to_json_dict()
        if self.divergence is not None:
            out["divergence"] = self.divergence.to_json_dict()
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([
                r.n,
                repr(r.term),
                repr(r.partial_sum),
                "" if r.ci_lo is None else repr(r.ci_lo),
                "" if r.ci_hi is None else repr(r.ci_hi),
                "" if r.exact is None else repr(r.exact),
            ])
        return buf.getvalue()
