"""The CLI paths of the README, run in-process through ``cli.main``."""

import ast
import dataclasses
import enum
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cclab
from cclab import cli
from cclab import convergence as cv
from cclab import counterexample, distmodel, mcengine, seeding, seqkit
from cclab.reports import CSV_COLUMNS, SeriesReport, json_text

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# check-conditions: report bytes pinned by fixtures written before the
# analytic layer moved to arrays (horizon 5000)
# ---------------------------------------------------------------------------

GOLDEN_CASES = {
    "bk_rad": ["--preset", "baum_katz(2,1)", "--set", "distribution.kind=rademacher"],
    "bk_par15": ["--preset", "baum_katz(2,1)", "--set", "distribution.kind=pareto_sym",
                 "--set", "distribution.alpha=1.5"],
    "sp_uni": ["--preset", "spataru", "--set", "distribution.kind=uniform_sym"],
    "sp_par": ["--preset", "spataru", "--set", "distribution.kind=pareto_sym",
               "--set", "distribution.alpha=3"],
    "spw_atom": ["--preset", "spataru_weak(0.5)", "--set", "distribution.kind=atomic_sym",
                 "--set", "distribution.atoms=1:0.5,3:0.25"],
    "ms9": ["--preset", "ms_counterexample(9)"],
}


def assert_golden(out: str, name: str) -> None:
    want = (GOLDEN / name).read_text()
    got = json.loads(out)
    # Library versions are the one part of a report that may differ by install.
    got["provenance"]["versions"] = json.loads(want)["provenance"]["versions"]
    assert json.dumps(got, sort_keys=True, indent=2) + "\n" == want


@pytest.mark.parametrize("label", sorted(GOLDEN_CASES))
def test_check_conditions_bytes_match_golden(capsys, label):
    code, out, _ = run(capsys, "check-conditions", "--horizon", "5000", *GOLDEN_CASES[label])
    assert code == cli.EXIT_OK
    assert_golden(out, f"check_conditions_{label}.json")


# ---------------------------------------------------------------------------
# check-conditions' memo of its law-independent half
# ---------------------------------------------------------------------------

CERTIFY_OPS = [["check-conditions", "--horizon", "20000", *argv] for argv in (
    *(GOLDEN_CASES[k] for k in ("bk_rad", "sp_uni", "sp_par", "spw_atom")),
    ["--preset", "spataru", "--set", "distribution.kind=normal_std"],
    ["--preset", "ms_counterexample(9)"], ["--preset", "ms_counterexample(16)"])]
COLD_RUNS = """if True:
    import contextlib, io, json, sys
    from cclab import cli
    outs = []
    for argv in json.loads(sys.argv[1]):
        cli._sequence_half.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            outs.append([cli.main(argv), out.getvalue()])
    print(json.dumps(outs))
"""


def test_memo_prints_the_bytes_of_a_fresh_process_cold_and_warm(capsys):
    proc = run_process("-c", COLD_RUNS, json.dumps(CERTIFY_OPS))
    fresh = [tuple(x) for x in json.loads(proc.stdout)]
    cold = []
    for argv in CERTIFY_OPS:
        cli._sequence_half.cache_clear()
        cold.append(run(capsys, *argv)[:2])
    assert cold == fresh
    order = list(range(len(CERTIFY_OPS))) * 2
    np.random.default_rng(1).shuffle(order)
    for i in order:
        assert run(capsys, *CERTIFY_OPS[i])[:2] == fresh[i]
    # baum_katz's op holds one entry, the six spataru and ms_counterexample ops the other
    assert cli._sequence_half.cache_info().currsize == 2


def test_memo_keeps_no_failure_and_hands_out_read_only_columns(capsys):
    cli._sequence_half.cache_clear()
    over = ["check-conditions", "--horizon", "100", "--set", "weights.exponent=800",
            "--set", "normalizer.exponent=1", "--set", "distribution.kind=rademacher"]
    for _ in range(2):
        assert run(capsys, *over)[0] == cli.EXIT_CONFIG
    assert cli._sequence_half.cache_info().currsize == 0
    tau, av, _ = cli._sequence_half(cli.spataru_weights(), cli.spataru_norms(), 100, 1.0)
    for column in (tau, av):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        av *= 2.0


def test_configs_that_differ_only_in_coef_share_no_entry(capsys):
    cli._sequence_half.cache_clear()
    base = ["check-conditions", "--horizon", "300", "--set", "weights.exponent=-1",
            "--set", "normalizer.exponent=0.75", "--set", "distribution.kind=rademacher"]
    outs = [run(capsys, *base, "--set", f"normalizer.coef={c}")[1] for c in ("1", "2", "1")]
    assert cli._sequence_half.cache_info()[:2] == (1, 2)  # (hits, misses)
    assert outs[0] == outs[2] != outs[1]


def test_an_unhashable_sequence_or_a_horizon_past_the_budget_runs_uncached(monkeypatch):
    cfg = pair_config("spataru", {"kind": "rademacher"}, 300)

    class Weights(list):  # a list, so unhashable; it returns the preset's weights
        def __call__(self, n):
            return cfg.weights.fn(n)

    odd = dataclasses.replace(cfg, weights=dataclasses.replace(cfg.weights, fn=Weights()))
    cli._sequence_half.cache_clear()
    assert cli.run_check_conditions(odd) == cli.run_check_conditions(cfg)
    assert cli._sequence_half.cache_info().currsize == 1
    monkeypatch.setattr(cli, "_MEMO_MAX_HORIZON", 299)
    cli._sequence_half.cache_clear()
    assert cli.run_check_conditions(cfg) == cli.run_check_conditions(odd)
    assert cli._sequence_half.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# Monte Carlo bytes: fixtures written when atom counts came from fair bits
# (sfc64-v6).  70000 replicates are two batches, so the worker count changes
# the schedule.
# ---------------------------------------------------------------------------

MC_CASES = {
    "estimate_rad": ["estimate", "--n", "16", "--threshold", "4",
                     "--set", "distribution.kind=rademacher"],
    "estimate_atom": ["estimate", "--n", "16", "--threshold", "4",
                      "--set", "distribution.kind=atomic_sym",
                      "--set", "distribution.atoms=1:0.5,3:0.25"],
    "simulate_bk_rad": ["simulate", "--preset", "baum_katz(2,1)", "--maximal",
                        "--horizon", "16", "--set", "distribution.kind=rademacher"],
}


@pytest.mark.parametrize("label", sorted(MC_CASES))
def test_monte_carlo_bytes_match_golden_for_any_worker_count(capsys, label):
    argv = [*MC_CASES[label], "--replicates", "70000", "--seed", "7"]
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_OK
    assert_golden(out, f"{label}.json")
    for workers in ("1", "2"):
        code, out2, _ = run(capsys, *argv, "--workers", workers)
        assert code == cli.EXIT_OK
        assert out2 == out


def test_monte_carlo_goldens_cover_the_exact_tails():
    # each estimate's 99% interval, and each partial sum's, holds the exact value
    atoms = distmodel.atomic_sym([(1.0, 0.5), (3.0, 0.25)])
    for label, d in (("estimate_rad", distmodel.rademacher()), ("estimate_atom", atoms)):
        est = json.loads((GOLDEN / f"{label}.json").read_text())["estimate"]
        exact = mcengine.exact_tail(mcengine.exact_walk_oracle(d, est["n"]), est["threshold"])
        assert est["lo"] <= exact <= est["hi"], label
    series = json.loads((GOLDEN / "simulate_bk_rad.json").read_text())["series"]
    for key in ("0.5", "1.0"):
        exact = 0.0
        for row in series[key]["rows"]:
            exact += row["exact"]
            assert row["ci_lo"] <= exact <= row["ci_hi"], (key, row["n"])


def test_golden_stream_labels_carry_the_current_version():
    version = seeding.stream_id(0).split(":")[0] + ":"
    labels = [label for path in sorted(GOLDEN.glob("*.json"))
              for label in re.findall(r'"seed_stream": "([^"]*)"', path.read_text())]
    assert labels
    assert all(label.startswith(version) for label in labels), labels


def test_pareto_slack_is_taken_at_a_later_start(capsys):
    # the terms n^-1.5 (log(2+n))^2 sum; at the crossing n0 = 2 the log factor
    # costs an exponent slack of 0.72, which left the series Undetermined with
    # no evidence.  From n = 64 the slack is 0.48.
    code, out, err = run(capsys, "check-conditions", "--set", "distribution.kind=pareto_sym",
                         "--set", "distribution.alpha=2", "--set", "weights.exponent=-1.5",
                         "--set", "weights.slowly_varying=log_power:2",
                         "--set", "normalizer.exponent=0.5", "--eps", "1", "--horizon", "5000")
    assert code == cli.EXIT_OK, err
    (single,) = [s for s in json.loads(out)["series"] if s["series_id"] == "single-tail"]
    assert single["verdict"] == "ConvergesCertified"
    params = single["tail_bound"]["params"]
    assert params["from_n"] == 64 and 1.0 < params["exponent"] < 1.03


def test_readme_normal_example_certifies_single_tail(capsys):
    code, out, _ = run(capsys, "check-conditions", "--preset", "spataru",
                       "--set", "distribution.kind=normal_std")
    assert code == cli.EXIT_OK
    single = [s for s in json.loads(out)["series"] if s["series_id"] == "single-tail"]
    assert len(single) == 2
    for s in single:
        assert s["verdict"] == "ConvergesCertified"
        assert s["tail_bound"]["params"]["exponent"] == 2.0


# ---------------------------------------------------------------------------
# Every registered certificate, checked against the terms out to 10x the
# horizon it was built at
# ---------------------------------------------------------------------------

CERTIFIED_PAIRS = [
    ("baum_katz(2,1)", {"kind": "rademacher"}),
    ("baum_katz(2,1)", {"kind": "normal_std"}),
    ("spataru", {"kind": "normal_std"}),
    ("spataru", {"kind": "uniform_sym"}),
    ("spataru", {"kind": "pareto_sym", "alpha": "3"}),
    ("spataru", {"kind": "atomic_sym", "atoms": "1:0.5, 3:0.25"}),
    ("spataru_weak(0.5)", {"kind": "atomic_sym", "atoms": "1:0.5,3:0.25"}),
    ("baum_katz(2,1)", {"kind": "pareto_sym", "alpha": "1.5"}),  # two power floors
    # exponential envelopes w(n) exp(-c n^kappa) at kappa = 1/3 and 2/1.9 - 1
    ("baum_katz(2,1.5)", {"kind": "rademacher"}),
    ("baum_katz(2,1.5)", {"kind": "uniform_sym"}),
    ("baum_katz(2,1.5)", {"kind": "normal_std"}),
    ("baum_katz(3,1.9)", {"kind": "atomic_sym", "atoms": "0.1:0.5"}),
]


def pair_config(preset, dist, horizon):
    sets = [("scenario", "preset", preset), ("scenario", "horizon", str(horizon))]
    return cli.load_config(None, sets + [("distribution", k, v) for k, v in dist.items()])


@pytest.mark.parametrize("preset,dist", CERTIFIED_PAIRS)
def test_certificates_hold_past_the_horizon(preset, dist):
    horizon = 10_000
    cfg = pair_config(preset, dist, horizon)
    d, w, a = cfg.dist, cfg.weights, cfg.norms
    n = np.arange(1, 10 * horizon + 1)
    wv, av = w.values(n), a.values(n)
    cut = np.sqrt(n[1:] * seqkit.libm(math.log, n[1:]))  # the adaptive cut over eps
    checked = 0
    for eps in cfg.eps:
        exp_cert = cv.exp_certificate(d, w, a, eps)
        families = [
            (n, cv.single_tail_terms(d, wv, av, eps, n),
             cv.single_tail_certificate(d, w, a, eps, horizon)),
            (n, cv.exp_terms(wv, av, eps, n, distmodel.truncated_second_moments(d, eps * av)),
             exp_cert),
        ]
        if cfg.preset in ("spataru", "spataru_weak"):
            t = distmodel.truncated_second_moments(d, eps * cut)
            families.append((n[1:], cv.adaptive_exponent_terms(eps, n[1:], t), exp_cert))
        for ns, terms, cert in families:
            if cert is None:
                continue
            # raises at the first term the certificate does not cover
            cv.summarize_series("past-horizon", ns, terms, {}, cert)
            checked += 1
    assert checked > 0


def libm_term_bound(c, k):
    """A TermBound's values from from_n on, its logs formed through math.log
    and math.exp, with the same clamps at the least normal double: the
    reference for its numpy ufunc form."""
    log = lambda x: seqkit.libm(math.log, x)
    ln = log(k)
    log_f = c.log_coef - c.exponent * ln
    for g, inner in ((c.sv.log2p, log(2.0 + k)), (c.sv.loglog, log(log(math.e ** 2 + k))),
                     (c.sv.logn, ln)):
        if g:
            log_f = log_f + g * log(inner)
    if c.rate:
        log_f = log_f - c.rate * seqkit.libm(math.exp, c.kappa * ln)
    v = seqkit.libm(math.exp, log_f)
    tiny = sys.float_info.min
    return np.where(v < tiny, 0.0, v) if c.floor else np.maximum(v, tiny)


@pytest.mark.parametrize("preset,dist", CERTIFIED_PAIRS)
def test_certificate_bounds_by_ufunc_match_libm_within_1e_minus12(preset, dist):
    # the bounds only check terms, with a 1e-9 slack, so a ufunc's ulps are harmless
    horizon = 10_000
    cfg = pair_config(preset, dist, horizon)
    d, w, a = cfg.dist, cfg.weights, cfg.norms
    n = np.arange(1, 10 * horizon + 1)
    checked = 0
    for eps in cfg.eps:
        for cert in (cv.single_tail_certificate(d, w, a, eps, horizon),
                     cv.exp_certificate(d, w, a, eps)):
            if cert is None or cert.log_coef == -math.inf:  # a vanishing bound has no ufunc
                continue
            k = n[n >= cert.from_n]
            np.testing.assert_allclose(cert.values_at(k), libm_term_bound(cert, k),
                                       rtol=1e-12, atol=0)
            checked += 1
    assert checked > 0


# The five law pairs the benchmark certifies, and uniform_sym where its clamp
# constant pow(h, 3) is not 1.
CERTIFY_PAIRS = [
    ("baum_katz(2,1)", {"kind": "rademacher"}),
    ("spataru", {"kind": "uniform_sym"}),
    ("spataru", {"kind": "pareto_sym", "alpha": "3"}),
    ("spataru_weak(0.5)", {"kind": "atomic_sym", "atoms": "1:0.5,3:0.25"}),
    ("spataru", {"kind": "normal_std"}),
    ("spataru", {"kind": "uniform_sym", "half_width": "2.5"}),
]


def full_libm_moments(d, b):
    """E[X^2 1{|X| < b}] with every element through libm: no erfc fill,
    and uniform_sym's pow(min(b, h), 3) mapped at every cutoff."""
    if d.kind == "uniform_sym":
        (h,) = d.params
        return seqkit.libm(pow, np.minimum(b, h), 3.0) / (h * 3.0)
    return distmodel.truncated_second_moments(d, b)


@pytest.mark.parametrize("preset,dist", CERTIFY_PAIRS)
def test_filled_columns_match_full_libm_bit_for_bit(preset, dist, monkeypatch):
    cfg = pair_config(preset, dist, 20_000)
    d, w, a = cfg.dist, cfg.weights, cfg.norms
    n = np.arange(1, 200_001)
    wv, av = w.values(n), a.values(n)
    cut = np.sqrt(n[1:] * seqkit.libm(math.log, n[1:]))
    for eps in cfg.eps:
        t = distmodel.truncated_second_moments(d, eps * av)
        got = [distmodel.tails(d, eps * av), t, cv.exp_terms(wv, av, eps, n, t),
               cv.adaptive_exponent_terms(eps, n[1:],
                                          distmodel.truncated_second_moments(d, eps * cut))]
        with monkeypatch.context() as m:
            m.delitem(seqkit._VECTOR, math.erfc)
            t = full_libm_moments(d, eps * av)
            want = [distmodel.tails(d, eps * av), t, cv.exp_terms(wv, av, eps, n, t),
                    cv.adaptive_exponent_terms(eps, n[1:], full_libm_moments(d, eps * cut))]
        for g, x in zip(got, want):
            assert g.dtype == x.dtype == np.float64
            np.testing.assert_array_equal(g.view(np.uint64), x.view(np.uint64))


def test_spataru_pareto_maps_at_most_20272_libm_elements_in_python(capsys, monkeypatch):
    # pow and exp run in numpy loops, so what libm still maps one Python float
    # at a time is 20,128 log elements, most of them log n in a(n) =
    # (n log n)^(1/2), and 144 log1p elements of the weighted moment; a pow or
    # exp column sent back through the map raises the count.
    mapped = []
    cli._sequence_half.cache_clear()  # the bound is a cold run's

    def counting_map(fn, *cols):
        mapped.append(max((len(c) for c in cols if isinstance(c, memoryview)), default=0))
        return map(fn, *cols)

    monkeypatch.setattr(seqkit, "map", counting_map, raising=False)
    code, _, _ = run(capsys, "check-conditions", "--preset", "spataru", "--horizon", "20000",
                     "--set", "distribution.kind=pareto_sym", "--set", "distribution.alpha=3")
    assert code == cli.EXIT_OK
    assert 0 < sum(mapped) <= 20_272


# c = eps^2 coef^2 / vb overflows to inf: no envelope may be certified
NORMAL_1E160 = ["--preset", "spataru", "--eps", "1e160", "--set", "distribution.kind=normal_std"]
SUBNORMAL_T = ["--preset", "spataru", "--horizon", "300", "--set", "distribution.kind=atomic_sym",
               "--set", "distribution.atoms=1e-160:0.5"]


EPS_20 = ["--preset", "baum_katz(2,1)", "--eps", "20", "--horizon", "200",
          "--set", "distribution.kind=rademacher"]
# eps^2 underflows to 0 and T = 0 at every n: eps^2 a^2 / (n T) would be 0/0
EPS_TINY = ["--preset", "baum_katz(2,1)", "--eps", "1e-200", "--horizon", "200",
            "--set", "distribution.kind=rademacher"]
HUGE_MOMENTS = [["--preset", "spataru", "--horizon", "100", "--set", f"distribution.kind={kind}",
                 "--set", f"distribution.{entry}"]
                for kind, entry in [("atomic_sym", "atoms=1e308:0.5"), ("atomic_sym", "atoms=1e200:0.5"),
                                    ("uniform_sym", "half_width=1e200")]]
# scale / lambda underflows past the normal doubles; min(b, h)^3 overflows
PARETO_TINY_RATIO = [
    ["--preset", "baum_katz(2,1)", "--eps", "1e100", "--horizon", "50", "--set",
     "distribution.kind=pareto_sym", "--set", "distribution.alpha=0.5",
     "--set", "distribution.scale=1e-300"],
    ["--preset", "spataru", "--eps", "1e100", "--horizon", "50", "--set",
     "distribution.kind=pareto_sym", "--set", "distribution.alpha=1e-320",
     "--set", "distribution.scale=1e-300"]]
UNIFORM_HUGE_CUBE = ["--preset", "spataru", "--eps", "1e125", "--horizon", "50", "--set",
                     "distribution.kind=uniform_sym", "--set", "distribution.half_width=1e120"]
# eps a(n) is subnormal: rademacher's T is exact there, and the Pareto tail's
# envelope starts at the first cutoff that is a normal double
SUBNORMAL_CUTOFF = [["--preset", "spataru", "--eps", "1e-320,0.5", "--horizon", "50",
                     "--set", "distribution.kind=rademacher"],
                    ["--preset", "spataru", "--eps", "1e-320,0.5", "--horizon", "50",
                     "--set", "distribution.kind=pareto_sym", "--set", "distribution.alpha=1.5",
                     "--set", "distribution.scale=1e-320"]]
F11_R = ("1", "1.5", "2", "3")
F11_CASES = [["--preset", f"baum_katz({r},0.5)", "--set", "distribution.kind=uniform_sym"]
             for r in F11_R]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    # c = eps^2 / vb is inf at 1e160 and 1e300; at 20 the terms underflow past n = 1,
    # and the tail is rounded up to the least subnormal
    ["--preset", "baum_katz(2,1)", "--eps", "1e160", "--horizon", "200",
     "--set", "distribution.kind=rademacher"],
    EPS_20,
    EPS_TINY,
    ["--preset", "baum_katz(1,0.5)", "--eps", "1e300", "--horizon", "200",
     "--set", "distribution.kind=uniform_sym"],
    # the Pareto floor's block floor underflows to 0
    ["--preset", "baum_katz(2,1)", "--eps", "1e300", "--set", "distribution.kind=pareto_sym"],
    ["--preset", "baum_katz(3,1.5)", "--eps", "1e160", "--set", "distribution.kind=pareto_sym",
     "--set", "distribution.alpha=3"],
    # b * b overflows in the normal law's truncated second moment
    NORMAL_1E160,
    # the second-moment bound underflows to 0
    ["--preset", "spataru", "--horizon", "300", "--set", "distribution.kind=atomic_sym",
     "--set", "distribution.atoms=1e-300:0.5"],
    ["--preset", "baum_katz(2,1)", "--horizon", "300", "--set", "distribution.kind=uniform_sym",
     "--set", "distribution.half_width=1e-300"],
    # a subnormal half-width: lam / h overflows, and the tail is 0
    ["--preset", "baum_katz(2,1)", "--horizon", "300", "--set", "distribution.kind=uniform_sym",
     "--set", "distribution.half_width=1e-320"],
    ["--preset", "baum_katz(2,1)", "--horizon", "300", "--set", "distribution.kind=pareto_sym",
     "--set", "distribution.scale=1e-300", "--set", "distribution.alpha=3"],
    # a subnormal T sends the exponents to -inf
    SUBNORMAL_T,
    # kappa = 3 at baum_katz(r, 0.5): every exponential series is certified
    *F11_CASES,
    # E[X^2] and E[X^2 / log(2+|X|)] pass the double range
    *HUGE_MOMENTS,
    *PARETO_TINY_RATIO,
    UNIFORM_HUGE_CUBE,
    *SUBNORMAL_CUTOFF,
], ids=["geometric 1e160", "geometric 20", "eps 1e-200", "geometric 1e300", "pareto floor 1e300",
        "pareto floor 1e160", "normal moment 1e160", "atom moment 0", "uniform moment 0",
        "uniform subnormal half-width", "pareto moment 0", "subnormal T",
        *(f"subnormal ratio^n0 r={r}" for r in F11_R),
        "atom 1e308", "atom 1e200", "uniform half-width 1e200",
        "pareto ratio 1e-400", "pareto alpha 1e-320", "uniform cube 1e360",
        "rademacher cutoff 1e-320", "pareto cutoff 1e-320"])
def test_huge_eps_reports_without_error_or_warning(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check-conditions", *argv)
    assert code == cli.EXIT_OK, err
    assert err == ""
    assert caught == []
    report = json.loads(out, parse_constant=_reject_constant)
    series = report["series"]
    assert series
    if argv in HUGE_MOMENTS:
        assert [(m["finite"], m["value"]) for m in report["moments"]] == [(True, None)]
        assert "double range" in report["moments"][0]["reason"]
    if argv in (NORMAL_1E160, SUBNORMAL_T):
        assert {s["verdict"] for s in series
                if s["series_id"] in ("exponential", "adaptive-exponent")} == {cv.UNDETERMINED}
    if argv == EPS_TINY:
        assert {r["term"] for s in series if s["series_id"] == "exponential"
                for r in s["rows"]} == {0.0}
    if argv in PARETO_TINY_RATIO:  # the floor holds where the tail no longer underflows
        assert [s["verdict"] for s in series if s["series_id"] == "single-tail"] == [cv.DIVERGES]
    if argv in (*F11_CASES, EPS_20):
        # the terms are at most exp(-c n^kappa): kappa = 3 with c = 3 eps^2 for
        # uniform_sym, kappa = 1 with c = 400 for rademacher at eps 20
        exp_series = [s for s in series if s["series_id"] == "exponential"]
        assert {s["verdict"] for s in exp_series} == {cv.CONVERGES}
        assert all(0.0 < s["tail_bound"]["tail_bound"] < math.inf for s in exp_series)


@pytest.mark.parametrize("argv,message", [
    # eps^2 a^2 and n T both overflow: inf / inf
    (["--preset", "baum_katz(2,1)", "--eps", "1e300", "--set", "distribution.kind=atomic_sym",
      "--set", "distribution.atoms=1e300:0.5"], "exponent -eps^2 a(n)^2 / (n T) is NaN at n=2"),
    # T = 0 * inf: alpha scale^2 underflows and log(b / scale) overflows
    (["--preset", "baum_katz(2,1)", "--eps", "0.5,10", "--set", "distribution.kind=pareto_sym",
      "--set", "distribution.alpha=2", "--set", "distribution.scale=1e-320"],
     "exponent -eps^2 a(n)^2 / (n T) is NaN at n=1"),
    # 3h is inf past h = 6e307, T = m (m (m / h / 3)) is inf and so is eps^2 a^2
    (["--preset", "baum_katz(2,1)", "--eps", "1e307", "--set", "distribution.kind=uniform_sym",
      "--set", "distribution.half_width=8e307"], "exponent -eps^2 a(n)^2 / (n T) is NaN at n=1"),
    # eps a(1) underflows to 0
    (["--set", "weights.exponent=-2", "--set", "normalizer.exponent=1",
      "--set", "normalizer.coef=1e-100", "--eps", "1e-300", "--set", "distribution.kind=rademacher"],
     "the cutoff eps * a(1) = 1e-300 * 1e-100 underflows to 0"),
    # b^(2 - alpha) overflows in the Pareto T at a subnormal cutoff
    (["--preset", "spataru", "--eps", "1e-320,0.5", "--set", "distribution.kind=pareto_sym",
      "--set", "distribution.alpha=3", "--set", "distribution.scale=1e-320"],
     "a value past the double range"),
    # as pareto 0*inf, on the spataru preset
    (["--preset", "spataru", "--eps", "0.5,10", "--set", "distribution.kind=pareto_sym",
      "--set", "distribution.alpha=2", "--set", "distribution.scale=1e-320"],
     "exponent -eps^2 a(n)^2 / (n T) is NaN at n=1"),
    # T = alpha scale^alpha (b^(2 - alpha) - scale^(2 - alpha)) overflows, and so does eps^2 a^2
    (["--preset", "spataru", "--eps", "1e300", "--set", "distribution.kind=pareto_sym",
      "--set", "distribution.alpha=1", "--set", "distribution.scale=1e10"],
     "exponent -eps^2 a(n)^2 / (n T) is NaN at n=1"),
], ids=["atom inf/inf", "pareto 0*inf", "uniform inf/inf", "cutoff 0",
        "pareto power at a subnormal cutoff", "spataru pareto 0*inf", "pareto inf power"])
def test_values_past_the_double_range_are_refused(capsys, argv, message):
    # pytest turns a warning into an error, so these runs print none
    code, out, err = run(capsys, "check-conditions", "--horizon", "50", *argv)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert message in err


# Products that leave the doubles on the way to a report: an inf cutoff eps a(n),
# an inf eps^2 a(n)^2 and the normal T at an inf cutoff (the mass, where 2 b
# meets a density of 0), given by the sha256 of the JSON without the versions.
PAST_THE_DOUBLES = {
    "eps a": (["--preset", "baum_katz(2,1)", "--eps", "1e308", "--horizon", "50",
               "--set", "distribution.kind=rademacher"],
              "96fb31d60143d2db6558677878e741d908784dddcbd65921b2b4f6ce0cb18631"),
    "eps^2 a^2": (["--preset", "baum_katz(1,0.5)", "--eps", "1e150", "--horizon", "300",
                   "--set", "distribution.kind=normal_std"],
                  "94103e80f1a5b93455a86516f8cb17180de33d55d29359b3ce447d20c9f220d9"),
    "normal T at inf": (["--preset", "spataru", "--eps", "1e308", "--horizon", "50",
                         "--set", "distribution.kind=normal_std"],
                        "0a482a3cf30b0c643d58ffe867824c326bbb95104e8c7390498c38031e30196c"),
}


@pytest.mark.parametrize("argv,digest", PAST_THE_DOUBLES.values(), ids=PAST_THE_DOUBLES.keys())
def test_columns_past_the_double_range_print_no_warning(capsys, argv, digest):
    code, out, err = run(capsys, "check-conditions", *argv)  # a warning is an error here
    assert (code, err) == (cli.EXIT_OK, "")
    got = json.loads(out)
    del got["provenance"]["versions"]
    assert hashlib.sha256(json.dumps(got, sort_keys=True, indent=2).encode()).hexdigest() == digest


def test_normal_exponential_terms_stay_below_the_weights_at_tiny_eps(capsys):
    # eps a(n) is near 1e-8, where T = 2 Phi(b) - 1 - 2 b phi(b) formed as a
    # difference was negative and the terms rose to 66.85 w(1)
    code, out, err = run(capsys, "check-conditions", "--preset", "spataru", "--eps", "1e-8",
                         "--horizon", "100", "--set", "distribution.kind=normal_std")
    assert code == cli.EXIT_OK, err
    rows = [r for s in json.loads(out)["series"] if s["series_id"] == "exponential"
            for r in s["rows"]]
    assert rows and all(r["term"] <= 1.0 / r["n"] for r in rows)
    assert rows[-1]["partial_sum"] <= math.fsum(1.0 / k for k in range(1, 101))
    n = np.arange(1, 101)
    w, a = cli.spataru_weights().values(n), cli.spataru_norms().values(n)
    t = distmodel.truncated_second_moments(distmodel.normal_std(), 1e-8 * a)
    assert (cv.exp_terms(w, a, 1e-8, n, t) <= w).all()


def test_set_entries_do_not_carry_over_between_calls(capsys, monkeypatch):
    # the subcommands share one set of option actions, --set's default list included
    seen = []
    real = cli._sets_from_args
    monkeypatch.setattr(cli, "_sets_from_args", lambda args: seen.append(args.set) or real(args))
    code, _, _ = run(capsys, "check-conditions", "--set", "scenario.horizon=50", "--set", "bad")
    assert code == cli.EXIT_CONFIG
    run(capsys, "estimate", "--n", "1", "--threshold", "1", "--set", "distribution.kind=nope")
    run(capsys, "counterexample")
    assert seen == [["scenario.horizon=50", "bad"], ["distribution.kind=nope"], []]
    # the parser is built once per process and keeps its default empty
    parser = cli._parser()
    assert parser is cli._parser()
    assert parser.parse_args(["simulate", "--set", "a.b=1"]).set == ["a.b=1"]
    for argv in (["check-conditions"], ["estimate", "--n", "1", "--threshold", "1"]):
        assert parser.parse_args(argv).set == []


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of cli.main, argparse's own exits included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


PARSER_CASES = [(), ("-h",), ("bogus",), *((name, "-h") for name in cli._COMMANDS),
                ("simulate", "--bogus"), ("simulate", "--horizon", "x"),
                ("estimate", "--threshold", "1"), ("report-merge", "--out", "merged.json"),
                # only simulate takes --maximal
                ("check-conditions", "--maximal"), ("counterexample", "--maximal"),
                ("estimate", "--n", "1", "--threshold", "1", "--maximal")]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda a: " ".join(a) or "no arguments")
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # every command line gets the one cached parser of all five commands,
    # and it prints what a newly built one prints
    got = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    assert got == outcome(capsys, argv)
    code, out, err = got
    if argv[-1:] == ("-h",):
        assert (code, err) == (0, "") and out.startswith("usage: cclab")
    else:
        assert code == 2 and out == "" and err.startswith("usage: cclab")
    if len(argv) < 2:  # the top-level usage names every command
        assert "{" + ",".join(cli._COMMANDS) + "}" in out + err


# ---------------------------------------------------------------------------
# counterexample and simulate paths
# ---------------------------------------------------------------------------

SIMULATE_MAX = ("simulate", "--preset", "baum_katz(2,1)", "--maximal", "--horizon", "16",
                "--replicates", "1000", "--eps", "0.5,1", "--set", "distribution.kind=rademacher")


def test_simulate_out_writes_the_report_and_a_csv_per_series(capsys, tmp_path):
    code, out, _ = run(capsys, *SIMULATE_MAX, "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    assert (tmp_path / "simulate.json").read_text() == out
    series = json.loads(out)["series"]
    tables = {f"simulate{kind}_eps{eps:g}.csv": series[f"{key}{eps}"]
              for eps in (0.5, 1.0) for kind, key in (("_max", "max:"), ("", ""))}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*tables, "simulate.json"])
    for name, report in tables.items():
        rows = [",".join(str(row["n"]) if key == "n" else repr(row[key]) if key in row else ""
                         for key in CSV_COLUMNS) for row in report["rows"]]
        assert (tmp_path / name).read_text() == "\n".join([",".join(CSV_COLUMNS), *rows, ""])


def test_simulate_without_out_builds_no_csv(capsys, monkeypatch, tmp_path):
    code, with_out, _ = run(capsys, *SIMULATE_MAX, "--out", str(tmp_path))
    assert code == cli.EXIT_OK

    def no_csv(self):
        raise AssertionError("CSV text built without --out")

    monkeypatch.setattr(SeriesReport, "to_csv", no_csv)
    code, out, err = run(capsys, *SIMULATE_MAX)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == with_out


def test_readme_replay_needs_no_preset(capsys, tmp_path):
    code, _, _ = run(capsys, "counterexample", "--preset", "ms_counterexample(9)",
                     "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    schedule = str(tmp_path / "counterexample.json")
    code, out, _ = run(capsys, "counterexample", "--preset", "ms_counterexample(9)",
                       "--schedule", schedule)
    assert code == cli.EXIT_OK
    with_preset = json.loads(out)
    code, out, err = run(capsys, "counterexample", "--schedule", schedule)
    assert code == cli.EXIT_OK, err
    readme_form = json.loads(out)
    assert readme_form["schedule"] == with_preset["schedule"]
    assert readme_form["report"] == with_preset["report"]


@pytest.mark.parametrize("argv", [
    ("--preset", "spataru", "--set", "distribution.kind=normal_std"),
    ("--preset", "baum_katz(2,1)"),
    (),
], ids=["spataru", "baum_katz", "no preset"])
def test_counterexample_builds_only_its_own_preset(capsys, argv):
    # a depth-9 counterexample used to be reported under any other preset
    code, out, err = run(capsys, "counterexample", *argv)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("config error: counterexample needs --preset 'ms_counterexample(d)'")
    assert len(err.splitlines()) == 1
    code, out, err = run(capsys, "counterexample", "--preset", "ms_counterexample(3)")
    assert (code, err) == (cli.EXIT_OK, "")
    assert len(json.loads(out)["schedule"]) == 3


@pytest.mark.parametrize("argv,replay,message", [
    (("--preset", "spataru", "--set", "distribution.kind=normal_std"), True,
     "a replayed schedule of depth 3 takes no preset or 'ms_counterexample(3)', not 'spataru'"),
    (("--preset", "ms_counterexample(9)"), True, "not 'ms_counterexample(9)'"),
    (("--set", "distribution.kind=normal_std"), True,
     "counterexample reads no [distribution] section"),
    (("--preset", "ms_counterexample(3)", "--set", "distribution.kind=rademacher"), True,
     "counterexample reads no [distribution] section"),
    (("--preset", "ms_counterexample(3)", "--set", "distribution.kind=rademacher"), False,
     "counterexample reads no [distribution] section"),
    (("--preset", "ms_counterexample(3)", "--eps", "5", "--horizon", "100"), False,
     "counterexample reads no scenario.eps"),
    (("--preset", "ms_counterexample(3)", "--horizon", "100"), False,
     "counterexample reads no scenario.horizon"),
    (("--preset", "ms_counterexample(3)", "--set", "scenario.theta=2"), False,
     "counterexample reads no scenario.theta"),
    (("--preset", "ms_counterexample(3)", "--replicates", "5000"), False,
     "counterexample reads no mc.replicates"),
    (("--set", "weights.exponent=3"), True, "counterexample reads no [weights] section"),
    (("--preset", "ms_counterexample(3)", "--set", "normalizer.exponent=1"), False,
     "counterexample reads no [normalizer] section"),
], ids=["other preset", "other depth", "distribution", "own preset and a distribution",
        "build with a distribution", "eps", "horizon", "theta", "replicates",
        "replay with weights", "build with a normalizer"])
def test_counterexample_refuses_what_it_does_not_read(capsys, tmp_path, argv, replay, message):
    # a replay used to ignore its preset and distribution and report the preset it was
    # given, and keys no counterexample reads changed the config hash it printed
    code, _, _ = run(capsys, "counterexample", "--preset", "ms_counterexample(3)",
                     "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    schedule = ("--schedule", str(tmp_path / "counterexample.json"))
    code, out, err = run(capsys, "counterexample", *argv, *(schedule if replay else ()))
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("config error: ") and message in err
    assert len(err.splitlines()) == 1


def schedule_rows(level: int, payloads) -> str:
    return json.dumps([{"m": m, "level": level, "payload": p}
                       for m, p in enumerate(payloads, start=1)])


@pytest.mark.parametrize("text,message", [
    (None, "cannot read schedule"),
    ("{not json", "cannot read schedule"),
    ('{"x": 1}', "malformed schedule"),
    ("[]", "malformed schedule"),
    # ln lambda of 1e16 is past where ln u can grow in doubles
    (schedule_rows(1, [1e16, 2e16]), "cutoff past the block-end route's range"),
    # at lambda below 1 the integral bound certifies no block end
    (schedule_rows(0, [0.7 + 0.01 * m for m in range(1, 17)]),
     "cutoff past the block-end route's range"),
    # cutoffs are stored as a value or its log, never at a deeper level
    (schedule_rows(2, [1.0, 2.0]), "malformed schedule"),
    # deeper than MAX_DEPTH; from block 1024 on, 2^m overflows
    (schedule_rows(0, [30.0 + m for m in range(1, 18)]), "malformed schedule"),
    (schedule_rows(1, [4.0 + 0.01 * m for m in range(1, 1031)]), "malformed schedule"),
], ids=["missing", "not json", "no schedule key", "empty", "slack", "enumerated",
        "level 2", "17 cutoffs", "1030 cutoffs"])
def test_unusable_schedule_is_a_config_error(capsys, tmp_path, text, message):
    path = tmp_path / "schedule.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "counterexample", "--schedule", str(path))
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error: " + message) and len(err.splitlines()) == 1


def test_replayed_schedule_is_numbered_one_to_len(capsys, tmp_path):
    # entry m's atom has mass 2^(-m-1)/K_m: entries 2..4 replayed as 1..3
    # would certify a different law from the one the file describes
    entries = counterexample.build_schedule(4).to_json_list()
    path = tmp_path / "schedule.json"
    for bad in (entries[1:], entries[:2] + [entries[1]], entries[:2] + [dict(entries[2], m=2)]):
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "counterexample", "--schedule", str(path))
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith("config error: malformed schedule") and "m = 1..len" in err
        assert len(err.splitlines()) == 1
    path.write_text(json.dumps(entries[::-1]))  # the order of the entries is free
    code, out, err = run(capsys, "counterexample", "--schedule", str(path))
    assert code == cli.EXIT_OK, err
    assert json.loads(out)["schedule"] == entries


@pytest.mark.parametrize("edit", [
    lambda e: dict(e, cond_A_margin_log=123.0, cond_B_margin_log=-5.0),
    lambda e: {k: e[k] for k in ("m", "level", "payload")},
], ids=["altered margins", "no margins"])
def test_replay_prints_the_margins_of_its_cutoffs(capsys, tmp_path, edit):
    # the margins are recomputed from the cutoffs: margin keys in the file
    # change no byte of the replay
    code, built, _ = run(capsys, "counterexample", "--preset", "ms_counterexample(4)",
                         "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    code, honest, _ = run(capsys, "counterexample",
                          "--schedule", str(tmp_path / "counterexample.json"))
    assert code == cli.EXIT_OK
    entries = json.loads(built)["schedule"]
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps([edit(e) for e in entries]))
    code, out, err = run(capsys, "counterexample", "--schedule", str(path))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == honest
    assert json.loads(out)["schedule"] == entries


@pytest.mark.parametrize("n,half_width,code", [
    ("100", "1e308", cli.EXIT_CONFIG), ("700", "1e308", cli.EXIT_CONFIG),
    ("100", "1e307", cli.EXIT_OK), ("700", "1e307", cli.EXIT_OK)])
def test_uniform_at_a_huge_half_width_warns_nothing(capsys, n, half_width, code):
    # n = 100 sums single steps and n = 700 bit planes; 2h overflows at 1e308,
    # and at 1e307 about a quarter of the 700-step sums pass the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, "estimate", "--set", "distribution.kind=uniform_sym",
                            "--set", f"distribution.half_width={half_width}", "--n", n,
                            "--threshold", "1e308", "--replicates", "1000")
    assert got == code, err
    if code == cli.EXIT_CONFIG:
        assert out == "" and err.startswith("config error: invalid distribution parameters")
        assert len(err.splitlines()) == 1
        return
    assert err == ""
    # |S_n| >= 10 h for S_n about normal with variance n h^2 / 3
    exact = math.erfc(10.0 / math.sqrt(2.0 * int(n) / 3.0))
    est = json.loads(out)["estimate"]
    assert est["lo"] <= exact <= est["hi"]


@pytest.mark.parametrize("kind,n,threshold,p_hat", [
    ("normal_std", 2 ** 32, "1e5", 0.13), ("uniform_sym", 2 ** 36 - 1, "2e5", 0.1865),
    ("atomic_sym", 2 ** 32 + 5, "5e4", 0.2785)])
def test_walks_of_2_to_the_32_steps_or_more_keep_their_streams(capsys, kind, n, threshold, p_hat):
    # p_hat as drawn from the unchecked address (7, 0, n, b) in sfc64-v4; n is past
    # uniform_sym's table and the atoms' fair-bit crossover, so its counts are
    # numpy's binomials and multinomials in sfc64-v6 too
    atoms = ("--set", "distribution.atoms=1:0.5") if kind == "atomic_sym" else ()
    code, out, err = run(capsys, "estimate", "--set", f"distribution.kind={kind}", *atoms,
                         "--n", str(n), "--threshold", threshold, "--replicates", "2000",
                         "--seed", "7")
    assert code == cli.EXIT_OK, err
    est = json.loads(out)["estimate"]
    assert (est["p_hat"], est["seed_stream"]) == (p_hat, seeding.stream_id(7, 0, n))


def test_check_conditions_certifies_deep_counterexamples(capsys):
    reports = {}
    for depth in (9, 10, 16):
        code, out, err = run(capsys, "check-conditions", "--preset",
                             f"ms_counterexample({depth})", "--horizon", "5000")
        assert code == cli.EXIT_OK, err
        reports[depth] = json.loads(out)
    for depth in (10, 16):
        (series,) = reports[depth]["series"]
        assert series["verdict"] == "DivergesCertified"
        floors = [math.exp(c["block_lower_bound_log"])
                  for c in reports[depth]["counterexample"]["certificates"]]
        assert series["divergence"]["block_floor"] == min(floors)
    # blocks 10..16 lie beyond doubles: the shared terms agree, and each adds
    # 2^(1-m) / (1 + ln(lambda_m)/lambda_m) to the moment, lambda_m = e^payload
    deep, shallow = reports[16], reports[9]
    assert deep["series"][0]["rows"] == shallow["series"][0]["rows"]
    tail = [(c["m"], c["payload"]) for c in deep["schedule"] if c["m"] >= 10]
    assert all(c["level"] == 1 for c in deep["schedule"] if c["m"] >= 10)
    added = sum(2.0 ** (1 - m) / (1.0 + p * math.exp(-p)) for m, p in tail)
    assert deep["moments"][0]["value"] - shallow["moments"][0]["value"] == pytest.approx(
        added, rel=1e-12)
    assert "beyond doubles" not in deep["moments"][0]["note"]


def test_simulate_maximal_without_atoms_exits_unsupported(capsys, monkeypatch):
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the oracle was found missing")

    monkeypatch.setattr(mcengine, "estimate_tail", no_monte_carlo)
    code, out, err = run(capsys, "simulate", "--preset", "spataru", "--maximal",
                         "--horizon", "8", "--replicates", "1000",
                         "--set", "distribution.kind=uniform_sym")
    assert code == cli.EXIT_FAMILY
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("unsupported distribution:")


def run_process(*args, timeout: float = 120,
                stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python args...`` with this checkout's cclab on the path."""
    src = str(Path(cclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


# ``cclab.cli.main`` in a process of its own, so that any numpy warning
# would reach stderr.
MAIN = ("-c", "import sys, cclab.cli; sys.exit(cclab.cli.main(sys.argv[1:]))")


def test_cli_runs_every_moment_without_loading_scipy():
    # the weighted moments of the three continuous laws, then a Monte Carlo run
    code = """if True:
        import contextlib, io, sys
        from cclab import cli
        runs = [["check-conditions", "--preset", "spataru", "--horizon", "100",
                 "--set", "distribution.kind=" + kind, *extra]
                for kind, extra in [("normal_std", []), ("uniform_sym", []),
                                    ("pareto_sym", ["--set", "distribution.alpha=3"])]]
        runs.append(["estimate", "--set", "distribution.kind=normal_std", "--n", "16",
                     "--threshold", "4", "--replicates", "1000"])
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        sys.exit(any(name.split(".")[0] == "scipy" for name in sys.modules))
    """
    proc = run_process("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_no_source_file_imports_scipy():
    src = Path(cclab.__file__).parent
    imported = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, a.name) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert imported and not [i for i in imported if i[1].split(".")[0] == "scipy"]


def test_no_source_file_writes_json_with_dumps():
    # every report goes through reports.json_text
    src = Path(cclab.__file__).parent
    dumps = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                dumps.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                dumps += [(path.name, node.lineno) for a in node.names
                          if a.name in ("dump", "dumps")]
    assert dumps == []


def test_every_top_level_function_and_class_in_src_is_referenced():
    # allowed without a reference: the module names the benchmark tracer
    # wraps, and the README's Python API; a method or property of a class
    # counts as referenced when its name appears elsewhere in src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracer
        wrapped = {attr for owner, attr, _, _ in tracer._targets(tracer.Tracer())
                   if inspect.ismodule(owner)}
    finally:
        sys.path.pop(0)
    src = Path(cclab.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    allowed = referenced | wrapped | {"custom_weights", "custom_norms", "atomic"}
    defs = [(name, node) for name, tree in trees.items() for node in tree.body]
    defs += [(name, item) for name, node in defs if isinstance(node, ast.ClassDef)
             for item in node.body]
    unused = [(name, node.name) for name, node in defs
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("__") and node.name not in allowed]
    assert wrapped and unused == []


def test_every_dataclass_and_namedtuple_field_in_src_is_read():
    # a field counts as read when src or the benchmark reads it as an attribute
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted([*(root / "src" / "cclab").glob("*.py"),
                                 *(root / "perfbench").glob("*.py")])}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    records = [node for path, tree in trees.items() if path.parent.name == "cclab"
               for node in tree.body if isinstance(node, ast.ClassDef)
               and (any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
                    or any(ast.unparse(b) == "NamedTuple" for b in node.bases))]
    fields = [(cls.name, item.target.id) for cls in records for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    assert len(records) > 10 and [f for f in fields if f[1] not in read] == []


def test_python_m_cclab_cli_runs_the_command(tmp_path):
    proc = run_process("-m", "cclab.cli", "counterexample",
                       "--schedule", str(tmp_path / "missing.json"))
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: cannot read schedule")
    assert len(proc.stderr.splitlines()) == 1


def test_python_m_cclab_cli_writes_nothing_to_stderr_on_success():
    # the package loads cli lazily, so runpy finds no copy of it to warn about
    proc = run_process("-m", "cclab.cli", "estimate", "--set", "distribution.kind=rademacher",
                       "--n", "4", "--threshold", "2", "--replicates", "1000")
    assert proc.returncode == cli.EXIT_OK
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["estimate"]["n"] == 4


@pytest.mark.parametrize("command,code", [
    (("check-conditions", "--preset", "spataru", "--set", "distribution.kind=rademacher",
      "--horizon", "100"), cli.EXIT_OK),
    (("report-merge", "REPORT", "--out", "MERGED"), cli.EXIT_OK),
    (("counterexample", "--schedule", "TAMPERED"), cli.EXIT_CERT_FAILED),
], ids=["check-conditions", "report-merge", "failed certificate"])
def test_stdout_closed_early_keeps_the_exit_code(tmp_path, command, code):
    # the reader is gone before the report is printed, as after `| head -1`
    report = tmp_path / "report.json"
    report.write_text("{}")
    entries = counterexample.build_schedule(3).to_json_list()
    entries[2]["payload"] = entries[1]["payload"] + 1.0  # block 2 ends past K_3
    (tmp_path / "tampered.json").write_text(json.dumps(entries))
    paths = {"REPORT": str(report), "MERGED": str(tmp_path / "merged.json"),
             "TAMPERED": str(tmp_path / "tampered.json")}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_process("-m", "cclab.cli", *(paths.get(a, a) for a in command),
                           stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_import_cclab_leaves_cli_unloaded_until_used():
    proc = run_process("-c", "import sys, cclab; assert 'cclab.cli' not in sys.modules; "
                             "assert cclab.cli.main is sys.modules['cclab.cli'].main")
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_finds_every_name_it_wraps():
    # The tracer looks each name up with owner.__dict__[attr], so a renamed or
    # deleted entry point raises KeyError here.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracer
        with tracer.installed(tracer.Tracer()):
            pass
    finally:
        sys.path.pop(0)


# ---------------------------------------------------------------------------
# flags and exit codes
# ---------------------------------------------------------------------------

def estimate_argv(**flags):
    flags = {"n": "4", "threshold": "2", "replicates": "1000", **flags}
    return ["estimate", "--set", "distribution.kind=rademacher",
            *[x for key, value in flags.items() for x in (f"--{key}", value)]]


def test_seed_zero_is_not_replaced_by_the_default(capsys):
    code, out, _ = run(capsys, *estimate_argv(seed="0"))
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["provenance"]["seed"] == 0
    assert payload["estimate"]["seed_stream"] == seeding.stream_id(0, 0, 4)


def config_sha256(capsys, *argv) -> str:
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_OK, err
    return json.loads(out)["provenance"]["config_sha256"]


def test_config_hash_covers_flags_like_set_entries(capsys, tmp_path):
    check = ["check-conditions", "--preset", "baum_katz(2,1)",
             "--set", "distribution.kind=rademacher"]
    short = config_sha256(capsys, *check, "--horizon", "100")
    # the output directory stays out of the hash, and a flag value is literal text
    assert short == config_sha256(capsys, *check, "--horizon", "100",
                                  "--out", str(tmp_path / "100%"))
    assert (tmp_path / "100%" / "check_conditions.json").exists()
    assert short != config_sha256(capsys, *check, "--horizon", "200")
    assert short == config_sha256(capsys, *check, "--set", "scenario.horizon=100")
    # a flag wins over the --set entry for the same key
    assert short == config_sha256(capsys, *check, "--set", "scenario.horizon=200",
                                  "--horizon", "100")
    seeded = config_sha256(capsys, *estimate_argv(seed="5"))
    assert seeded != config_sha256(capsys, *estimate_argv(seed="6"))
    assert seeded == config_sha256(capsys, *estimate_argv(replicates="1000"),
                                   "--set", "mc.seed=5")
    assert seeded != config_sha256(capsys, *estimate_argv(seed="5", replicates="2000"))
    # counterexample's hash names its preset and the seed its provenance prints
    built = ["counterexample", "--preset", "ms_counterexample(3)"]
    assert config_sha256(capsys, *built) == config_sha256(capsys, *built, "--workers", "2")
    assert config_sha256(capsys, *built) != config_sha256(capsys, *built, "--seed", "3")


def test_percent_in_set_entries_and_config_files_is_literal(capsys, tmp_path):
    code, _, err = run(capsys, *estimate_argv(), "--set", f"output.dir={tmp_path / 'a%b'}")
    assert code == cli.EXIT_OK, err
    assert (tmp_path / "a%b" / "estimate.json").exists()
    config = tmp_path / "scenario.ini"
    config.write_text(f"[output]\ndir = {tmp_path / '100%(x)s'}\n")
    code, _, err = run(capsys, *estimate_argv(config=str(config)))
    assert code == cli.EXIT_OK, err
    assert (tmp_path / "100%(x)s" / "estimate.json").exists()


def test_estimate_with_every_replicate_a_hit(capsys):
    code, out, err = run(capsys, *estimate_argv(threshold="0"))
    assert code == cli.EXIT_OK, err
    est = json.loads(out)["estimate"]
    assert est["p_hat"] == est["hi"] == 1.0


@pytest.mark.parametrize("flag,value", [
    ("horizon", "0"), ("replicates", "0"), ("replicates", "999"), ("workers", "0"),
    ("seed", "-1"), ("n", "0"), ("threshold", "nan"), ("threshold", "inf")])
def test_invalid_flags_are_config_errors(capsys, tmp_path, flag, value):
    # the config file holds valid values, which a falsy flag must not fall back to
    config = tmp_path / "scenario.ini"
    config.write_text("[scenario]\nhorizon = 100\n[mc]\nreplicates = 2000\nworkers = 2\n")
    code, out, err = run(capsys, *estimate_argv(config=str(config), **{flag: value}))
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("entry,code,message", [
    ("distribution.atoms=1:0.5:2", cli.EXIT_CONFIG, "config error: malformed atom entry '1:0.5:2'"),
    ("distribution.atoms=x:0.5", cli.EXIT_CONFIG, "config error: malformed atom entry 'x:0.5'"),
    ("weights.slowly_varying=log_power", cli.EXIT_CONFIG,
     "config error: malformed slowly_varying entry 'log_power'"),
    ("weights.slowly_varying=log_power:abc", cli.EXIT_CONFIG,
     "config error: malformed slowly_varying entry 'log_power:abc'"),
    ("weights.slowly_varying=bogus:1", cli.EXIT_FAMILY,
     "unsupported family: unknown slowly varying factor 'bogus'"),
], ids=["atom three parts", "atom value", "sv no value", "sv value", "sv factor"])
def test_malformed_key_value_entries_name_the_entry(capsys, entry, code, message):
    got = run(capsys, "check-conditions", "--horizon", "100", "--set", "weights.exponent=-1",
              "--set", "normalizer.exponent=1", "--set", "distribution.kind=atomic_sym",
              "--set", "distribution.atoms=1:0.5", "--set", entry)
    assert got == (code, "", message + "\n")


@pytest.mark.parametrize("argv,kind,key", [
    (("check-conditions", "--preset", "spataru", "--horizon", "50"), "uniform_sym", "alpha"),
    (("estimate", "--n", "8", "--threshold", "2"), "normal_std", "half_width"),
    (("simulate", "--preset", "spataru", "--horizon", "16", "--replicates", "1000"),
     "rademacher", "atoms"),
    (("estimate", "--n", "8", "--threshold", "2"), "pareto_sym", "half_width"),
], ids=["uniform alpha", "normal half_width", "rademacher atoms", "pareto half_width"])
def test_a_distribution_key_the_kind_does_not_read_is_refused(capsys, argv, kind, key):
    # the key used to be ignored, though the config hash took it in
    code, out, err = run(capsys, *argv, "--set", f"distribution.kind={kind}",
                         "--set", f"distribution.{key}=3")
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"config error: distribution kind {kind!r} reads no key {key!r}\n"


HUGE_THETAS = [
    *((("--preset", preset), theta) for preset in ("spataru", "baum_katz(2,1)")
      for theta in (6e307, 1e308, sys.float_info.max)),
    # p = 3 theta is a double here, but the bound's exponent 2p or its log coefficient is not
    (("--set", "weights.exponent=-1", "--set", "normalizer.exponent=2"), 5e307),
    (("--set", "weights.exponent=-1", "--set", "normalizer.exponent=1",
      "--set", "normalizer.coef=1e-300"), 1e306),
]


@pytest.mark.parametrize("sequences,theta", HUGE_THETAS,
                         ids=[f"{s[-1]} {t!r}" for s, t in HUGE_THETAS])
def test_a_theta_past_doubles_is_a_config_error(capsys, sequences, theta):
    code, out, err = run(capsys, "check-conditions", *sequences, "--horizon", "100",
                         "--set", f"scenario.theta={theta!r}",
                         "--set", "distribution.kind=rademacher")
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("config error:") and len(err.splitlines()) == 1


def test_a_horizon_too_large_to_allocate_is_a_config_error(capsys):
    # numpy refuses the 8 PB column whole, before it touches any memory
    code, out, err = run(capsys, "check-conditions", "--preset", "spataru",
                         "--horizon", "1000000000000000", "--set", "distribution.kind=rademacher")
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("config error: Unable to allocate") and len(err.splitlines()) == 1


def test_uniform_past_the_plane_range_exits_4_before_any_draw(capsys, monkeypatch):
    # 2^36 single steps a replicate would run for hours
    def no_stream(*address):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(seeding, "stream", no_stream)
    code, out, err = run(capsys, "estimate", "--set", "distribution.kind=uniform_sym",
                         "--n", "68719476736", "--threshold", "1e6", "--replicates", "1000")
    assert (code, out) == (cli.EXIT_SAMPLING, "")
    assert err == ("sampling unavailable: uniform_sym: 68719476736 steps is past the "
                   "bit-plane range n < 2^36\n")


def test_estimate_with_overflowing_steps_exits_4_with_one_line():
    proc = run_process(*MAIN, "estimate", "--set", "distribution.kind=pareto_sym",
                       "--set", "distribution.alpha=0.01", "--n", "1024",
                       "--threshold", "400", "--replicates", "1000", "--seed", "1")
    assert proc.returncode == cli.EXIT_SAMPLING == 4
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("sampling unavailable: pareto_sym:")


@pytest.mark.parametrize("weights,message", [
    ("coef = 1e305\nexponent = -1", "tail-domination-p3-theta1 constant C = inf"),
    ("coef = 1e305\nexponent = 0", "T_n = sum k w(k) overflows doubles at n=60"),
    ("exponent = 200", "the weights or normalizer overflow doubles"),
], ids=["constant", "T_n", "weight"])
def test_overflowing_weights_are_a_config_error(tmp_path, weights, message):
    config = tmp_path / "scenario.ini"
    config.write_text(f"[weights]\n{weights}\n[normalizer]\nexponent = 0.5\n"
                      "[distribution]\nkind = rademacher\n")
    proc = run_process(*MAIN, "check-conditions", "--config", str(config), "--horizon", "1000")
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("config error: " + message)


def test_internal_error_exits_5_with_one_line(capsys, monkeypatch):
    def broken(cfg):
        raise ValueError("registered envelope violated at n=8")

    monkeypatch.setattr(cli, "run_check_conditions", broken)
    code, out, err = run(capsys, "check-conditions", "--preset", "spataru",
                         "--set", "distribution.kind=rademacher")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "internal error: registered envelope violated at n=8\n"


def test_config_file_without_section_header_is_a_config_error(capsys, tmp_path):
    config = tmp_path / "scenario.ini"
    config.write_text("horizon = 100\n")
    code, out, err = run(capsys, "check-conditions", "--config", str(config))
    assert code == cli.EXIT_CONFIG
    assert out == "" and err.startswith("config error: malformed config file")


def test_unwritable_out_is_a_config_error(capsys, tmp_path):
    # a regular file where --out needs a directory, and a missing directory
    # for report-merge's output file
    blocker = tmp_path / "file"
    blocker.write_text("")
    report = tmp_path / "report.json"
    report.write_text("{}")
    cases = [("estimate", "--set", "distribution.kind=rademacher", "--n", "4",
              "--threshold", "1", "--replicates", "1000", "--out", str(blocker / "out")),
             ("report-merge", str(report), "--out", str(blocker / "merged.json")),
             ("report-merge", str(report), "--out", str(tmp_path / "missing" / "merged.json"))]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_CONFIG, argv
        assert out == ""
        assert err.startswith("config error: cannot write") and len(err.splitlines()) == 1


def test_readme_report_merge(capsys, tmp_path):
    # two reports written with --out, merged in the order of the arguments
    code, _, _ = run(capsys, "check-conditions", "--preset", "baum_katz(2,1)", "--eps", "0.5,1",
                     "--horizon", "100", "--set", "distribution.kind=rademacher",
                     "--out", str(tmp_path / "cc"))
    assert code == cli.EXIT_OK
    code, _, _ = run(capsys, "simulate", "--preset", "baum_katz(2,1)", "--eps", "0.5",
                     "--horizon", "8", "--set", "distribution.kind=rademacher",
                     "--replicates", "1000", "--seed", "7", "--maximal",
                     "--out", str(tmp_path / "sim"))
    assert code == cli.EXIT_OK
    inputs = [str(tmp_path / "cc" / "check_conditions.json"),
              str(tmp_path / "sim" / "simulate.json")]
    merged = tmp_path / "merged.json"
    for order in (inputs, inputs[::-1]):
        code, out, err = run(capsys, "report-merge", *order, "--out", str(merged))
        assert (code, err) == (cli.EXIT_OK, "")
        text = merged.read_text()
        assert text.endswith("\n") and out == text
        reports = json.loads(out)["reports"]
        assert [r["path"] for r in reports] == order
        assert [r["report"] for r in reports] == [json.loads(Path(p).read_text()) for p in order]


def test_report_merge_unreadable_input_is_a_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (bad, tmp_path / "missing.json"):
        code, _, err = run(capsys, "report-merge", str(path), "--out", str(tmp_path / "m.json"))
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: cannot read report")


def _dumps_or_error(encode, payload):
    try:
        return encode(payload)
    except TypeError:
        return TypeError


class _Enum(enum.IntEnum):
    ONE = 1


class _Str(str):
    pass


class _Float(float):
    def __repr__(self):
        return "not json"


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 10 ** 40, -(2 ** 70),
                            "\x00\x1f\u2028\ud7ff é ☃", _Enum.ONE, _Str("sub"),
                            _Float(0.1), np.float64(0.3)])
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _SPECIAL
_KEYS = (st.text() | st.integers() | st.floats() | st.booleans() | st.none()
         | st.sampled_from([math.nan, -0.0, _Str("k"), _Enum.ONE]))
_TREES = st.recursive(_SCALARS, lambda kids: st.lists(kids, max_size=4)
                      | st.lists(kids, max_size=4).map(tuple)
                      | st.dictionaries(_KEYS, kids, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_json_text_is_json_dumps_byte_for_byte(payload):
    # dicts with keys of mixed types cannot be sorted: both raise TypeError
    want = _dumps_or_error(lambda x: json.dumps(x, sort_keys=True, indent=2), payload)
    assert _dumps_or_error(json_text, payload) == want


@pytest.mark.parametrize("payload", [np.int64(1), {1, 2}, {"a": [np.float32(1.0)]},
                                     {(1, 2): 3}, {"a": {object(): 1}}, [b"bytes"]],
                         ids=["np.int64", "set", "np.float32", "tuple key", "object key",
                              "bytes"])
def test_json_text_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        json_text(payload)


NONFINITE_CASES = {
    "eps nan": ("check-conditions", "--preset", "spataru", "--eps", "nan",
                "--set", "distribution.kind=rademacher"),
    "eps inf": ("check-conditions", "--preset", "spataru", "--eps", "0.5,inf",
                "--set", "distribution.kind=rademacher"),
    "simulate eps nan": ("simulate", "--preset", "spataru", "--eps", "nan",
                         "--set", "distribution.kind=rademacher"),
    "spataru_weak nan": ("check-conditions", "--preset", "spataru_weak(nan)",
                         "--set", "distribution.kind=rademacher"),
    "spataru_weak inf": ("check-conditions", "--preset", "spataru_weak(inf)",
                         "--set", "distribution.kind=rademacher"),
    "baum_katz nan": ("check-conditions", "--preset", "baum_katz(nan,1)",
                      "--set", "distribution.kind=rademacher"),
    "ms_counterexample inf": ("check-conditions", "--preset", "ms_counterexample(inf)"),
    "theta nan": ("check-conditions", "--preset", "spataru", "--set", "scenario.theta=nan",
                  "--set", "distribution.kind=rademacher"),
    "pareto alpha nan": ("check-conditions", "--preset", "spataru",
                         "--set", "distribution.kind=pareto_sym",
                         "--set", "distribution.alpha=nan"),
    "pareto alpha inf": ("check-conditions", "--preset", "spataru",
                         "--set", "distribution.kind=pareto_sym",
                         "--set", "distribution.alpha=inf"),
    "uniform inf": ("estimate", "--set", "distribution.kind=uniform_sym",
                    "--set", "distribution.half_width=inf", "--n", "4", "--threshold", "1"),
    "uniform nan": ("estimate", "--set", "distribution.kind=uniform_sym",
                    "--set", "distribution.half_width=nan", "--n", "4", "--threshold", "1"),
}


@pytest.mark.parametrize("argv", NONFINITE_CASES.values(), ids=NONFINITE_CASES.keys())
def test_nonfinite_inputs_are_config_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second line
        code, out, err = run(capsys, *argv, "--horizon", "100", "--replicates", "1000")
    assert code == cli.EXIT_CONFIG, err
    assert out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command,entry,message", [
    (command, entry, message) for command in ("check-conditions", "simulate")
    for entry, message in [("weights.coef=-1", "weight w("),
                           ("normalizer.coef=-1", "normalizer a("),
                           ("weights.exponent=nan", "weight w(2) = nan"),
                           ("normalizer.exponent=-1", "normalizer decreases at n=2"),
                           ("weights.slowly_varying=plainlog_power:0.5", "plain-log"),
                           ("normalizer.slowly_varying=plainlog_power:0.5", "plain-log")]
    # simulate reads the weights on its grid only, which starts at n = 2
    if not (command == "simulate" and entry.startswith("weights.slowly"))
])
def test_invalid_sequence_values_are_config_errors(capsys, command, entry, message):
    code, out, err = run(capsys, command, "--set", "weights.exponent=-1",
                         "--set", "normalizer.exponent=1", "--set", entry,
                         "--set", "distribution.kind=rademacher",
                         "--horizon", "100", "--replicates", "1000")
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error: " + message) and len(err.splitlines()) == 1


@pytest.mark.parametrize("coef", ["1e-110", "1e-200", "1e-320"])
def test_tiny_normalizer_coefficient_is_one_config_error(capsys, coef):
    # a(n)^3 underflows to 0, so the tail sums divide by zero: an infinite
    # constant that is refused, with no warning before the refusal
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check-conditions", "--set", "weights.exponent=-1",
                             "--set", "normalizer.exponent=1", "--set", f"normalizer.coef={coef}",
                             "--set", "distribution.kind=rademacher", "--horizon", "100")
    assert code == cli.EXIT_CONFIG
    assert out == "" and caught == []
    assert err.startswith("config error: ") and len(err.splitlines()) == 1


def test_bounded_support_past_the_horizon_certifies_nothing(capsys):
    # eps a(n) first passes the atom 1000 at n = 315879, far past the horizon,
    # and every term up to there is 0.5: no vanishing tail can be claimed
    code, out, err = run(capsys, "check-conditions", "--preset", "spataru",
                         "--set", "distribution.kind=atomic_sym",
                         "--set", "distribution.atoms=1000:0.5",
                         "--horizon", "100", "--eps", "0.5")
    assert code == cli.EXIT_OK, err
    single = json.loads(out)["series"][0]
    assert single["series_id"] == "single-tail"
    assert single["verdict"] == "Undetermined"
    assert "tail_bound" not in single


@pytest.mark.parametrize("weights,law", [
    ("-1", ("rademacher",)), ("-1", ("normal_std",)), ("-1", ("uniform_sym",)),
    ("-1", ("pareto_sym", "alpha=3")), ("-1", ("pareto_sym", "alpha=1.5")),
    ("0", ("pareto_sym", "alpha=1.5")),  # a power floor at coef 1
], ids=["rademacher", "normal", "uniform", "pareto 3", "pareto 1.5", "pareto floor"])
def test_zero_coefficient_weights_certify_vanishing_terms(capsys, weights, law):
    # every term is 0: each envelope says so, with the verdict coef 1 gets,
    # and a floor of 0 certifies nothing
    reports = {}
    for coef in ("0", "1"):
        code, out, err = run(capsys, "check-conditions", "--horizon", "200",
                             "--set", f"weights.exponent={weights}", "--set", f"weights.coef={coef}",
                             "--set", "normalizer.exponent=0.75",
                             "--set", f"distribution.kind={law[0]}",
                             *(x for p in law[1:] for x in ("--set", "distribution." + p)))
        assert code == cli.EXIT_OK, err
        reports[coef] = json.loads(out)
    # each tail sum is exactly 0, and so is its remainder: no index where
    # T_(n-1) = 0 is left with a ratio to skip
    for r in reports["0"]["regularity"][1:3]:
        assert r["condition_id"].startswith("tail-domination")
        assert (r["verdict"], r["constants"]["tail_remainder"]) == ("CertifiedPass", 0.0)
        assert not any("skipped" in note for note in r["notes"])
    series = {coef: report["series"] for coef, report in reports.items()}
    for zero, one in zip(series["0"], series["1"]):
        if one["verdict"] == "DivergesCertified":
            assert zero["verdict"] == "Undetermined" and "divergence" not in zero
        else:
            assert zero["verdict"] == one["verdict"]
        if zero["verdict"] == "ConvergesCertified":
            bound = zero["tail_bound"]
            assert (bound["kind"], bound["tail_bound"]) == ("vanishing", 0.0)
            assert list(bound["params"]) == ["from_n"]
    assert any(s["verdict"] != "Undetermined" for s in series["1"])


@pytest.mark.parametrize("dist,code", [
    (("atomic_sym", "atoms=1e100:0.5"), cli.EXIT_OK),
    (("atomic_sym", "atoms=1e308:0.5"), cli.EXIT_OK),
    (("uniform_sym", "half_width=1e100"), cli.EXIT_OK),
    (("uniform_sym", "half_width=inf"), cli.EXIT_CONFIG),
], ids=["atom 1e100", "atom 1e308", "uniform 1e100", "uniform inf"])
def test_huge_support_finishes_within_the_horizon(dist, code):
    # the vanishing-envelope search stops at the horizon, not at n = 2^40
    kind, param = dist
    proc = run_process(*MAIN, "check-conditions", "--preset", "spataru",
                       "--set", f"distribution.kind={kind}", "--set", f"distribution.{param}",
                       "--horizon", "100", "--eps", "0.5", timeout=20)
    assert proc.returncode == code, proc.stderr
    if code == cli.EXIT_OK:
        assert all(s["verdict"] == "Undetermined" for s in json.loads(proc.stdout)["series"])
    else:
        assert proc.stderr.startswith("config error:") and len(proc.stderr.splitlines()) == 1


# ---------------------------------------------------------------------------
# exit codes over a seeded sweep of valid scenarios at every magnitude
# ---------------------------------------------------------------------------

SWEEP_MAGNITUDES = (1e-320, 1e-300, 1e-200, 1e-100, 1e-10, 1e-3, 0.5, 1.0, 1.5, 2.0, 3.0,
                    10.0, 1e3, 1e10, 1e100, 1e200, 1e300)
SWEEP_LAWS = {"rademacher": (), "uniform_sym": ("half_width",), "normal_std": (),
              "pareto_sym": ("alpha", "scale"), "atomic_sym": ("atoms",)}


def sweep_scenario(rng) -> list:
    """One valid check-conditions command line drawn from ``rng``: half on a
    preset, half on power-law sequences, each magnitude from SWEEP_MAGNITUDES."""
    def mag(below=math.inf, least=0.0) -> str:
        return repr(float(rng.choice([m for m in SWEEP_MAGNITUDES if least <= m < below])))

    def signed() -> str:
        return ("-" if rng.random() < 0.5 else "") + mag()

    argv = ["check-conditions", "--horizon", str(rng.choice([4, 50, 300])),
            "--eps", f"{mag()},{mag()}"]
    if rng.random() < 0.5:
        preset = rng.choice(["baum_katz", "spataru", "spataru_weak"])
        args = {"baum_katz": f"({mag(least=1.0)},{mag(below=2.0)})", "spataru": "",
                "spataru_weak": f"({mag()})"}[preset]
        argv += ["--preset", preset + args]
    else:
        for section in ("weights", "normalizer"):
            factors = [f"{name}:{signed()}" for name in ("log_power", "loglog_power")
                       if rng.random() < 0.5]
            argv += ["--set", f"{section}.exponent={signed()}", "--set", f"{section}.coef={mag()}",
                     "--set", f"{section}.slowly_varying={','.join(factors)}"]
    kind = str(rng.choice(list(SWEEP_LAWS)))
    argv += ["--set", f"distribution.kind={kind}"]
    for key in SWEEP_LAWS[kind]:
        value = f"{mag()}:0.5,{mag()}:0.25" if key == "atoms" else mag()
        argv += ["--set", f"distribution.{key}={value}"]
    return argv


def test_valid_scenarios_at_every_magnitude_end_in_a_documented_exit_code(capsys):
    # a value past the double range is refused (2) or reported; a check that
    # fails inside the program (5) is a defect.  Warnings are recorded, not failed.
    rng = np.random.default_rng(0)
    failures = []
    for _ in range(300):
        argv = sweep_scenario(rng)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv)
        if code not in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_FAMILY):
            failures.append(f"exit {code}: cclab {' '.join(argv)}\n  {err.strip()}")
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# the suite's own configuration
# ---------------------------------------------------------------------------


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # on a failure hypothesis imports the modules that write its patch, one of
    # which warns; under filterwarnings = error that ended the pytest run (exit 3)
    test = tmp_path / "test_one.py"
    test.write_text("from hypothesis import given, strategies as st\n\n\n"
                    "@given(st.integers())\ndef test_one(x):\n    assert x.missing\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config), "--rootdir",
                           str(tmp_path), "-p", "no:cacheprovider", str(test)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_one.py::test_one" in proc.stdout
