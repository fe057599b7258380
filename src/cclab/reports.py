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
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

CONVERGES = "ConvergesCertified"
DIVERGES = "DivergesCertified"
UNDETERMINED = "Undetermined"

_VERDICTS = (CONVERGES, DIVERGES, UNDETERMINED)
# The report key a certified verdict's certificate goes under.
_CERTIFICATE_KEY = {CONVERGES: "tail_bound", DIVERGES: "divergence"}

CSV_COLUMNS = ("n", "term", "partial_sum", "ci_lo", "ci_hi", "exact")

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# A JSON scalar's text by its type; bool and None cannot be subclassed.
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
                bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _scalar_text(o) -> str:
    """A scalar's text, by isinstance for subclasses of str, int and float."""
    for cls in (type(o), str, int, float):
        if cls in _SCALAR_TEXT and isinstance(o, cls):
            return _SCALAR_TEXT[cls](o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def json_text(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte, in about
    60% of its time: each container is joined once and key strings are cached.
    A type that json refuses (np.int64, set) raises TypeError here too."""
    keys = {}   # str key -> its text and the key separator

    def text(o, nl: str) -> str:
        if (scalar := _SCALAR_TEXT.get(type(o))) is not None:
            return scalar(o)
        inner = nl + "  "
        if isinstance(o, dict):
            parts = []
            for k, v in sorted(o.items()):
                if (kt := keys.get(k)) is None:
                    kt = encode_basestring_ascii(k if isinstance(k, str) else _scalar_text(k)) + ": "
                    if type(k) is str:
                        keys[k] = kt
                parts.append(kt + text(v, inner))
            return "{" + inner + ("," + inner).join(parts) + nl + "}" if parts else "{}"
        if isinstance(o, (list, tuple)):
            items = [text(v, inner) for v in o]
            return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
        return _scalar_text(o)

    return text(payload, "\n")


def check_partial_sums(n, term, partial_sum) -> None:
    """Raise at the first negative term, or the first partial sum that steps
    back by more than 1e-15 relative.  For nonnegative terms and n < 2^26,
    Sum2 prefix sums lie within u|S| + gamma_(n-1)^2 sum|x| < 1.7e-16 |S| of
    the exact, nondecreasing sums S, so they step back by less than twice that."""
    partial_sum = np.asarray(partial_sum, dtype=np.float64)
    negative = np.asarray(term, dtype=np.float64) < 0.0
    # prev - 1e-15 max(1, |prev|) bit for bit, with prev = -0.0 before the first sum;
    # after an inf sum the floor is -inf + inf = NaN, which rejects nothing
    floor = np.full(partial_sum.shape, -1e-15)
    with np.errstate(invalid="ignore"):
        rest = np.fmax(np.abs(partial_sum[:-1], out=floor[1:]), 1.0, out=floor[1:])
        rest *= -1e-15
        rest += partial_sum[:-1]
    back = partial_sum < floor
    bad = np.flatnonzero(np.logical_or(back, negative, out=back))
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
        term = np.array([r.term for r in self.rows], dtype=np.float64)
        partial_sum = np.array([r.partial_sum for r in self.rows], dtype=np.float64)
        # check_partial_sums passes NaN: every comparison with it is false.
        nan = np.flatnonzero(np.isnan(term) | np.isnan(partial_sum))
        if nan.size:
            raise ValueError(f"NaN term or partial sum at n={self.rows[nan[0]].n}")
        check_partial_sums([r.n for r in self.rows], term, partial_sum)

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
