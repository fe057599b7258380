"""Series reports: rows, verdicts, and the certificates that back them.

A verdict is data, never an exit code.  A certified verdict must carry the
rendered certificate (a dict, see ``convergence``) that justifies it, and
an ``Undetermined`` one must carry none; any other pairing raises.  The
certificate goes under ``tail_bound`` for a convergence verdict and under
``divergence`` for a divergence verdict.
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
# The report key a certified verdict's certificate goes under.
_CERTIFICATE_KEY = {CONVERGES: "tail_bound", DIVERGES: "divergence"}

CSV_COLUMNS = ("n", "term", "partial_sum", "ci_lo", "ci_hi", "exact")


def check_partial_sums(n, term, partial_sum) -> None:
    """Raise at the first negative term, or the first partial sum that steps
    back by more than 1e-15 relative.  For nonnegative terms and n < 2^26,
    Sum2 prefix sums lie within u|S| + gamma_(n-1)^2 sum|x| < 1.7e-16 |S| of
    the exact, nondecreasing sums S, so they step back by less than twice that."""
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
        for key in ("ci_lo", "ci_hi", "exact"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


@dataclass(frozen=True)
class SeriesReport:
    series_id: str
    params: dict
    rows: tuple[SeriesRow, ...]
    verdict: str
    certificate: Optional[dict] = None
    evidence: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict != UNDETERMINED and self.certificate is None:
            raise ValueError(f"a {self.verdict} verdict requires a certificate")
        if self.verdict == UNDETERMINED and self.certificate is not None:
            raise ValueError("an Undetermined verdict carries no certificate")
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
        if self.certificate is not None:
            out[_CERTIFICATE_KEY[self.verdict]] = dict(self.certificate)
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
