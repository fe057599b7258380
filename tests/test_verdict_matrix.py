"""The verdict matrix: 19 presets times 9 laws, run in process at horizon
5000 and checked against closed-form theory oracles.

Baum and Katz (1965, Trans. AMS 120): for r >= 1, 0 < p < 2 and symmetric X,
sum n^(r-2) P(|S_n| >= eps n^(1/p)) converges for every eps iff
E|X|^(rp) < inf, and the single-tail series n^(r-1) P(|X| >= eps n^(1/p))
follows the same moment.  So with ``pareto_sym`` it converges iff alpha > rp,
and with every other law here (all moments finite) it converges.  On the
``spataru`` presets, E X^2 < inf gives convergence of every series at every
eps, and E[X^2 / log(2 + |X|)] = inf (``pareto_sym`` with alpha <= 2) gives
single-tail divergence.  The exponential series follows T's closed form: with
a second-moment bound it converges (ROADMAP D22).  A certified verdict that
contradicts an oracle is a program defect.

Coverage is a number: the count of ``Undetermined`` series of each kind and
of ``Inconclusive`` hypotheses may never rise above the recorded counts.
"""

import contextlib
import io
import json
import math
import warnings
from collections import Counter

import pytest

from cclab import cli, seqkit

PRESETS = [f"baum_katz({r},{p})" for r in ("1", "1.5", "2", "3")
           for p in ("0.5", "1", "1.5", "1.9")] + ["spataru", "spataru_weak(0.5)",
                                                    "spataru_weak(2)"]
LAWS = {
    "rademacher": {"kind": "rademacher"},
    "uniform h=1": {"kind": "uniform_sym"},
    "uniform h=3": {"kind": "uniform_sym", "half_width": "3"},
    "normal": {"kind": "normal_std"},
    "pareto 1.5": {"kind": "pareto_sym", "alpha": "1.5"},
    "pareto 2": {"kind": "pareto_sym", "alpha": "2"},
    "pareto 3": {"kind": "pareto_sym", "alpha": "3"},
    "atoms 1,3": {"kind": "atomic_sym", "atoms": "1:0.5,3:0.25"},
    "atoms 0.1": {"kind": "atomic_sym", "atoms": "0.1:0.5"},
}

# Counts at or below which the matrix must stay.
UNDETERMINED_AT_MOST = {"single-tail": 6, "exponential": 76, "adaptive-exponent": 12}
INCONCLUSIVE_AT_MOST = 0


def _run(preset, law, horizon="5000", eps="0.5,1.0"):
    argv = ["check-conditions", "--preset", preset, "--horizon", horizon, "--eps", eps]
    for key, value in law.items():
        argv += ["--set", f"distribution.{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@pytest.fixture(scope="module")
def matrix():
    """{(preset, law label): report} for every cell, each run clean."""
    reports = {}
    for preset in PRESETS:
        for label, law in LAWS.items():
            code, out, err, caught = _run(preset, law)
            assert (code, err, caught) == (cli.EXIT_OK, "", []), (preset, label)
            reports[preset, label] = json.loads(out)
    return reports


def _series(matrix):
    for (preset, label), report in matrix.items():
        for s in report["series"]:
            yield preset, label, s


def test_matrix_coverage_never_falls(matrix):
    undetermined = Counter(s["series_id"] for _, _, s in _series(matrix)
                           if s["verdict"] == "Undetermined")
    total = Counter(s["series_id"] for _, _, s in _series(matrix))
    assert total == {"single-tail": 342, "exponential": 342, "adaptive-exponent": 54}
    for kind, most in UNDETERMINED_AT_MOST.items():
        assert undetermined[kind] <= most, (kind, undetermined[kind])
    inconclusive = sum(r["verdict"] == "Inconclusive"
                       for report in matrix.values() for r in report["regularity"])
    assert inconclusive <= INCONCLUSIVE_AT_MOST


def _pareto_alpha(label):
    return float(LAWS[label]["alpha"]) if LAWS[label]["kind"] == "pareto_sym" else None


def test_baum_katz_single_tail_follows_the_moment_rule(matrix):
    checked = 0
    for preset, label, s in _series(matrix):
        if not preset.startswith("baum_katz") or s["series_id"] != "single-tail":
            continue
        r, p = map(float, preset[len("baum_katz("):-1].split(","))
        alpha = _pareto_alpha(label)
        converges = alpha is None or alpha > r * p
        if s["verdict"] != "Undetermined":
            checked += 1
            assert s["verdict"] == ("ConvergesCertified" if converges
                                    else "DivergesCertified"), (preset, label, s["params"])
    assert checked > 0


def test_spataru_presets_follow_the_moment_rules(matrix):
    for preset, label, s in _series(matrix):
        if not preset.startswith("spataru"):
            continue
        alpha = _pareto_alpha(label)
        if alpha is None or alpha > 2.0:  # E X^2 < inf: every series converges
            assert s["verdict"] != "DivergesCertified", (preset, label, s["series_id"])
        elif s["series_id"] == "single-tail":  # E[X^2 / log(2 + |X|)] = inf
            assert s["verdict"] != "ConvergesCertified", (preset, label, s["params"])


def test_exponential_series_follow_the_truncated_moment_rule(matrix):
    # D22's rule, from T's closed form alone: with a second-moment bound every
    # exponential series converges; pareto_sym with alpha < 2 has T ~ b^(2-alpha),
    # so on baum_katz(r,p) the exponent grows like n^(alpha/p - 1) and the series
    # converges iff alpha > p (at alpha = 2, T ~ log b and it converges), and on
    # the spataru presets it diverges at alpha <= 2
    checked = 0
    for preset, label, s in _series(matrix):
        if s["series_id"] not in ("exponential", "adaptive-exponent") \
                or s["verdict"] == "Undetermined":
            continue
        alpha = _pareto_alpha(label)
        if alpha is None or alpha > 2.0:
            converges = True
        elif preset.startswith("baum_katz"):
            p = float(preset[len("baum_katz("):-1].split(",")[1])
            converges = alpha > p or alpha == 2.0
        else:
            converges = False
        checked += 1
        assert s["verdict"] == ("ConvergesCertified" if converges
                                else "DivergesCertified"), (preset, label, s["params"])
    assert checked > 0


def test_adaptive_exponent_terms_are_the_exponential_terms(matrix):
    # with w(n) = 1/n and a(n) = (n log n)^(1/2) the adaptive term n^(-1 - eps^2/T)
    # is the exponential term: every printed one is that term at its n and eps.
    # The spataru presets have those sequences, and only they print the series.
    checked = 0
    for (preset, label), report in matrix.items():
        adaptive = [s for s in report["series"] if s["series_id"] == "adaptive-exponent"]
        assert len(adaptive) == (2 if preset.startswith("spataru") else 0), (preset, label)
        if not preset.startswith("spataru"):
            continue
        exp = {(s["params"]["eps"], r["n"]): r["term"] for s in report["series"]
               if s["series_id"] == "exponential" for r in s["rows"]}
        for s in report["series"]:
            if s["series_id"] == "adaptive-exponent":
                for r in s["rows"]:
                    want = exp[s["params"]["eps"], r["n"]]
                    assert r["term"].hex() == want.hex(), (preset, label, s["params"], r)
                    checked += 1
    assert checked == 54 * 17  # 27 cells, two eps, n = 2..8, 16..4096 and 5000


def test_every_convergence_certificate_bounds_a_positive_tail(matrix):
    # a positive tail is rounded up, never printed as 0; only a vanishing
    # envelope may claim a zero tail
    checked = 0
    for preset, label, s in _series(matrix):
        cert = s.get("tail_bound")
        if cert is None or cert["kind"] == "vanishing":
            continue
        checked += 1
        assert 0.0 < cert["tail_bound"] < math.inf, (preset, label, s["series_id"])
        assert cert["tail_bound"] == seqkit.exp_up(cert["log_tail_bound"])
    assert checked > 0


def _verdicts(preset, law, eps):
    code, out, err, caught = _run(preset, law, horizon="2000",
                                  eps=",".join(repr(e) for e in eps))
    assert (code, err, caught) == (cli.EXIT_OK, "", []), (preset, law, eps)
    return [(s["series_id"], s["verdict"]) for s in json.loads(out)["series"]]


def test_verdicts_depend_on_eps_over_the_scale_alone():
    # P(|X| >= eps a) and eps^2 a^2 / (n T) depend on eps/s alone, so every
    # verdict of a law scaled by s at eps is that of the unscaled law at eps/s
    eps, seen = (0.5, 1.0, 2.0), set()
    cases = [({"kind": "pareto_sym", "alpha": alpha}, "scale", s)
             for alpha in ("1.5", "2", "3") for s in (1e-3, 0.5, 3.0, 1e3)]
    cases += [({"kind": "uniform_sym"}, "half_width", h) for h in (0.5, 3.0, 1e3)]
    for preset in ("baum_katz(2,1)", "baum_katz(1.5,1.5)", "baum_katz(3,0.5)", "spataru",
                   "spataru_weak(0.5)"):
        for law, key, s in cases:
            scaled = _verdicts(preset, {**law, key: repr(s)}, eps)
            assert scaled == _verdicts(preset, law, [e / s for e in eps]), (preset, law, key, s)
            seen.update(v for _, v in scaled)
    assert {"ConvergesCertified", "DivergesCertified"} <= seen
