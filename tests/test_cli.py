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
import shlex
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
from cclab.reports import CONVERGES, CSV_COLUMNS, UNDETERMINED, SeriesReport, json_text

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
    "sp_norm": ["--preset", "spataru", "--set", "distribution.kind=normal_std"],
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
# (sfc64-v6), relabelled sfc64-v7 and sfc64-v8.  70000 replicates are two
# batches, so the worker count changes the schedule.
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


def monte_carlo_columns(out: str, n_max: int) -> dict:
    """Each empirical series' rows up to n_max, without the exact column."""
    return {key: [{k: row[k] for k in ("n", "term", "partial_sum", "ci_lo", "ci_hi")}
                  for row in series["rows"] if row["n"] <= n_max]
            for key, series in json.loads(out)["series"].items() if not key.startswith("max:")}


@pytest.mark.parametrize("kind", ["rademacher", "pareto_sym"])
def test_a_longer_horizon_extends_the_walks_of_a_shorter_one(capsys, kind):
    # each replicate is one walk read at every grid n, so the points past 16
    # draw after the first four increments and leave them as they were
    argv = ("simulate", "--preset", "spataru", "--replicates", "2000", "--seed", "5",
            "--set", f"distribution.kind={kind}")
    (code16, out16, _), (code64, out64, _) = (run(capsys, *argv, "--horizon", h)
                                              for h in ("16", "64"))
    assert code16 == code64 == cli.EXIT_OK
    assert [len(rows) for rows in monte_carlo_columns(out64, 64).values()] == [6, 6]
    assert monte_carlo_columns(out16, 16) == monte_carlo_columns(out64, 16)


def test_a_run_opens_one_stream_per_batch(capsys, monkeypatch):
    # simulate drew a walk of its own for each grid n: a stream per n and batch
    opened, stream = [], seeding.stream
    monkeypatch.setattr(seeding, "stream",
                        lambda *address: opened.append(address) or stream(*address))
    for label, want in (("simulate_bk_rad", [(7, 1, 0), (7, 1, 1)]),
                        ("estimate_rad", [(7, 0, 16, 0), (7, 0, 16, 1)])):
        opened.clear()  # 70000 replicates are two batches of DEFAULT_BATCH
        code, _, err = run(capsys, *MC_CASES[label], "--replicates", "70000", "--seed", "7")
        assert (code, err, opened) == (cli.EXIT_OK, "", want)


def test_pareto_sym_draws_replicates_times_n_max_magnitudes(capsys, monkeypatch):
    # a walk of its own for each n = 2, 4, ..., 64 drew 126 magnitudes a replicate
    drawn, sample = [], distmodel.sample
    monkeypatch.setattr(distmodel, "sample",
                        lambda d, rng, count: drawn.append(count) or sample(d, rng, count))
    code, _, err = run(capsys, "simulate", "--preset", "spataru", "--horizon", "64",
                       "--replicates", "1000", "--set", "distribution.kind=pareto_sym")
    assert (code, err) == (cli.EXIT_OK, "")
    assert sum(drawn) == 1000 * 64


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
        # n w(n) = 1 and eps^2 a(n)^2 / 2 = eps^2 n log n / 2 >= (eps^2 log 2 / 2) n: the
        # Gaussian envelope exp(-c n) from n = 2, its rate rounded down
        params, eps = s["tail_bound"]["params"], s["params"]["eps"]
        assert s["tail_bound"]["kind"] == "power-exp"
        assert (params["exponent"], params["kappa"], params["from_n"]) == (0.0, 1.0, 2)
        c = eps * eps * math.log(2.0) / 2.0
        assert c * (1.0 - 1e-12) < params["rate"] < c


def test_tail_domination_fails_where_the_tail_over_its_last_term_grows(capsys):
    # w = 1 and a(n) = n log(2+n), p = 2: the summand 1/(k log(2+k)^2) has q == 1,
    # its tail sum from n is about 1/log n, and T_(n-1) = n(n-1)/2, so the ratio
    # grows like 2 log n: the largest over n <= horizon is at the horizon
    code, out, err = run(capsys, "check-conditions", "--set", "weights.exponent=0",
                         "--set", "normalizer.exponent=1",
                         "--set", "normalizer.slowly_varying=log_power:1",
                         "--set", "distribution.kind=rademacher", "--horizon", "2000")
    assert code == cli.EXIT_OK, err
    reports = {r["condition_id"]: r for r in json.loads(out)["regularity"]}
    p2 = reports["tail-domination-p2-theta1"]
    assert p2["verdict"] == "CertifiedFail"
    assert p2["notes"][-1].startswith("q == 1: the tail sum over its last term grows")
    assert p2["constants"]["argmax_n"] == 2000.0
    assert p2["constants"]["C"] == pytest.approx(2.0 * math.log(2002.0), rel=0.005)
    assert p2["constants"]["tail_remainder"] > 0.0
    # at p = 3, q == 2 and the ratio tends to a finite limit
    assert reports["tail-domination-p3-theta1"]["verdict"] == "CertifiedPass"


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


def custom_pair(a_exp, a_sv, dist, label):
    """w(n) = 1/n, a(n) = n^a_exp sv(n): the Gaussian envelope's shapes that no preset has."""
    sets = (("weights", "exponent", "-1"), ("normalizer", "exponent", a_exp),
            *((("normalizer", "slowly_varying", a_sv),) if a_sv else ()))
    return pytest.param(sets, dist, id=label)


# the exponential envelope under a normalizer with a log factor, which starts at
# n0 = 8 for log(2+n)^-0.5, and the normal single-tail envelope at rho < 1/2
CERTIFIED_PAIRS += [
    custom_pair("0.6", "log_power:0.5", {"kind": "rademacher"}, "exp n^0.6 log^0.5 rademacher"),
    custom_pair("0.75", "log_power:-0.5", {"kind": "uniform_sym"},
                "exp n^0.75 log^-0.5 uniform_sym"),
    custom_pair("0.25", "", {"kind": "normal_std"}, "single tail n^0.25 normal_std"),
]


def pair_config(preset, dist, horizon):
    """The config of a preset name, or of custom (section, key, value) sets."""
    sets = [("scenario", "horizon", str(horizon))]
    sets += [("scenario", "preset", preset)] if isinstance(preset, str) else list(preset)
    return cli.load_config(None, sets + [("distribution", k, v) for k, v in dist.items()],
                           "check-conditions")


@pytest.mark.parametrize("preset,dist", CERTIFIED_PAIRS)
def test_certificates_hold_past_the_horizon(preset, dist):
    horizon = 10_000
    cfg = pair_config(preset, dist, horizon)
    d, w, a = cfg.dist, cfg.weights, cfg.norms
    n = np.arange(1, 10 * horizon + 1)
    wv, av = w.values(n), a.values(n)
    checked = 0
    for eps in cfg.eps:
        exp_cert = cv.exp_certificate(d, w, a, eps, horizon)
        families = [
            (n, cv.single_tail_terms(d, wv, av, eps, n),
             cv.single_tail_certificate(d, w, a, eps, horizon)),
            (n, cv.exp_terms(wv, av, eps, n, distmodel.truncated_second_moments(d, eps * av)),
             exp_cert),
        ]
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
                     cv.exp_certificate(d, w, a, eps, horizon)):
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

    def columns(moments) -> list:
        wv, av = w.values(n), a.values(n)
        out = [wv, av]
        for eps in cfg.eps:
            t = moments(d, eps * av)
            out += [distmodel.tails(d, eps * av), t, cv.exp_terms(wv, av, eps, n, t)]
        return out

    got = columns(distmodel.truncated_second_moments)
    with monkeypatch.context() as m:
        m.delitem(seqkit._VECTOR, math.erfc)
        m.delitem(seqkit._VECTOR, math.log)
        want = columns(full_libm_moments)
    for g, x in zip(got, want, strict=True):
        assert g.dtype == x.dtype == np.float64
        np.testing.assert_array_equal(g.view(np.uint64), x.view(np.uint64))


def test_spataru_pareto_maps_at_most_145_libm_elements_in_python(capsys, monkeypatch):
    # pow, exp and log run in numpy loops, so what libm still maps one Python
    # float at a time is log 1 in a(n) = (n log n)^(1/2), below the log route's
    # 2, and 144 log1p elements of the weighted moment; a pow, exp or log
    # column sent back through the map raises the count.
    mapped = []
    cli._sequence_half.cache_clear()  # the bound is a cold run's

    def counting_map(fn, *cols):
        mapped.append(max((len(c) for c in cols if isinstance(c, memoryview)), default=0))
        return map(fn, *cols)

    monkeypatch.setattr(seqkit, "map", counting_map, raising=False)
    code, _, _ = run(capsys, "check-conditions", "--preset", "spataru", "--horizon", "20000",
                     "--set", "distribution.kind=pareto_sym", "--set", "distribution.alpha=3")
    assert code == cli.EXIT_OK
    assert 0 < sum(mapped) <= 145


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
     "a value past the double range: pareto_sym: a cutoff above scale 1e-320 to the power -1"),
    # scale^2 in E[X^2], scale^alpha and scale^(2 - alpha) in the Pareto T
    (["--preset", "spataru", "--set", "distribution.kind=pareto_sym",
      "--set", "distribution.alpha=3", "--set", "distribution.scale=1e300"],
     "a value past the double range: pareto_sym: scale 1e+300 to the power 2"),
    (["--preset", "spataru", "--set", "distribution.kind=pareto_sym",
      "--set", "distribution.alpha=2", "--set", "distribution.scale=1e200"],
     "a value past the double range: pareto_sym: scale 1e+200 to the power 2"),
    (["--preset", "spataru", "--set", "distribution.kind=pareto_sym",
      "--set", "distribution.alpha=3", "--set", "distribution.scale=1e-320"],
     "a value past the double range: pareto_sym: scale 1e-320 to the power -1"),
    # as pareto 0*inf, on the spataru preset
    (["--preset", "spataru", "--eps", "0.5,10", "--set", "distribution.kind=pareto_sym",
      "--set", "distribution.alpha=2", "--set", "distribution.scale=1e-320"],
     "exponent -eps^2 a(n)^2 / (n T) is NaN at n=1"),
    # T = alpha scale^alpha (b^(2 - alpha) - scale^(2 - alpha)) overflows, and so does eps^2 a^2
    (["--preset", "spataru", "--eps", "1e300", "--set", "distribution.kind=pareto_sym",
      "--set", "distribution.alpha=1", "--set", "distribution.scale=1e10"],
     "exponent -eps^2 a(n)^2 / (n T) is NaN at n=1"),
], ids=["atom inf/inf", "pareto 0*inf", "uniform inf/inf", "cutoff 0",
        "pareto power at a subnormal cutoff", "pareto scale^2", "pareto scale^alpha",
        "pareto scale^(2-alpha)", "spataru pareto 0*inf", "pareto inf power"])
def test_values_past_the_double_range_are_refused(capsys, argv, message):
    # pytest turns a warning into an error, so these runs print none
    code, out, err = run(capsys, "check-conditions", "--horizon", "50", *argv)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert message in err


# Products that leave the doubles on the way to a report: an inf cutoff eps a(n),
# an inf eps^2 a(n)^2 and the normal T at an inf cutoff (the mass, where 2 b
# meets a density of 0), given by the sha256 of the JSON without the versions.
# The normal single tail's Gaussian envelope has the rate (eps A)^2 / 2 for
# a(n) = A n^rho: 5e299 at eps 1e150, and inf at eps 1e308, where the series is
# Undetermined, as the exponential series is wherever its rate (eps A)^2 / vb is inf.
PAST_THE_DOUBLES = {
    "eps a": (["--preset", "baum_katz(2,1)", "--eps", "1e308", "--horizon", "50",
               "--set", "distribution.kind=rademacher"],
              "7b7361120448905ceff51251aa3fac6565a7fab65c078a7882eed207cf7b2397"),
    "eps^2 a^2": (["--preset", "baum_katz(1,0.5)", "--eps", "1e150", "--horizon", "300",
                   "--set", "distribution.kind=normal_std"],
                  "c01a8cd60c5a5ef2acd4d66973c39b91865bc9d33ee791ab086808941ade2317"),
    "normal T at inf": (["--preset", "spataru", "--eps", "1e308", "--horizon", "50",
                         "--set", "distribution.kind=normal_std"],
                        "2c61052d95e31c56cb5123284edc83640cc1870265c2f6c4c6191b22c4ca7467"),
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
    # each call hands load_config its own --set entries in order, then its
    # flags' keys, so a flag wins over a --set entry of its key
    seen = []
    real = cli.load_config
    monkeypatch.setattr(cli, "load_config",
                        lambda path, sets, command: seen.append(sets) or real(path, sets, command))
    code, _, _ = run(capsys, "check-conditions", "--horizon", "60", "--set", "scenario.horizon=50")
    assert code == cli.EXIT_CONFIG  # a custom scenario needs weights.exponent
    # a malformed --set is refused before load_config is called
    assert run(capsys, "check-conditions", "--set", "scenario.horizon=50",
               "--set", "bad")[0] == cli.EXIT_CONFIG
    run(capsys, "estimate", "--n", "1", "--threshold", "1", "--set", "distribution.kind=nope")
    run(capsys, "counterexample")
    assert seen == [[("scenario", "horizon", "50"), ("scenario", "horizon", "60")],
                    [("distribution", "kind", "nope"), ("scenario", "n", "1"),
                     ("scenario", "threshold", "1")], []]


def test_the_command_line_reader_needs_no_argparse():
    proc = run_process("-c", "import sys, cclab.cli; print('argparse' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    src = Path(cli.__file__).parent
    assert not [p.name for p in src.glob("*.py") if "argparse" in p.read_text()]


ESTIMATE_RAD = ("estimate", "--n", "4", "--set", "distribution.kind=rademacher")
# argv: the one config-error line of a malformed command line, or None where
# it asks for the usage.  Flags set config keys as text, so a key's row or the
# read-set refuses a bad flag value, a missing --n and --maximal on any command
# but simulate.
COMMAND_LINES = {
    **dict.fromkeys([("-h",), ("--help",), *((name, "-h") for name in cli._COMMANDS),
                     ("simulate", "--eps", "1", "--help")]),
    (): f"cclab needs a command, one of {', '.join(cli._COMMANDS)}",
    ("bogus",): f"cclab needs a command, one of {', '.join(cli._COMMANDS)}, not 'bogus'",
    ("simulate", "--bogus"): "simulate takes no option '--bogus'",
    ("check-conditions", "spataru"): "check-conditions takes no argument 'spataru'",
    # an option is spelled in full: a prefix is no option, however its value is written
    (*ESTIMATE_RAD, "--thresh", "-1e3"): "estimate takes no option '--thresh'",
    (*ESTIMATE_RAD, "--thresh=-1e3"): "estimate takes no option '--thresh=-1e3'",
    ("simulate", "--horizon"): "--horizon needs a value",
    ("check-conditions", "--set"): "--set needs a value",
    ("check-conditions", "--set", "bad"): "malformed --set 'bad'",
    ("simulate", "--maximal=1"): "simulate takes no option '--maximal=1'",
    ("simulate", "--schedule", "s.json"): "simulate takes no option '--schedule'",
    ("report-merge", "--out", "merged.json"): "report-merge needs one or more reports and "
                                              "--out, a file",
    ("report-merge", "a.json"): "report-merge needs one or more reports and --out, a file",
    ("report-merge", "a.json", "--set", "a.b=1"): "report-merge takes no option '--set'",
    ("simulate", "--horizon", "x"): "scenario.horizon must be an integer from 4 to 2^53, not 'x'",
    ("estimate", "--threshold", "1"): "estimate needs scenario.n, an integer >= 1",
    ("check-conditions", "--maximal"): "check-conditions reads no scenario.maximal",
    ("counterexample", "--maximal"): "counterexample reads no scenario.maximal",
    ("estimate", "--n", "1", "--threshold", "1", "--maximal"):
        "estimate reads no scenario.maximal",
}


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=lambda a: " ".join(a) or "no arguments")
def test_a_command_line_is_the_usage_or_one_config_error_line(capsys, argv):
    # main returns a code for every command line: no SystemExit leaves it
    code, out, err = run(capsys, *argv)
    if COMMAND_LINES[argv] is not None:
        assert (code, out, err) == (cli.EXIT_CONFIG, "", f"config error: {COMMAND_LINES[argv]}\n")
        return
    assert (code, err) == (cli.EXIT_OK, "") and out.startswith("usage: cclab")
    options = ("--config", "--set", "--schedule", *(f"--{flag}" for flag in cli._FLAG_KEYS))
    assert all(word in out for word in (*cli._COMMANDS, *options))


@pytest.mark.parametrize("text", ["foo = 1\n", "[scenario]\nfoo\n"], ids=["no section", "no value"])
def test_a_malformed_config_file_is_one_config_error_line(capsys, tmp_path, text):
    # configparser's own messages span two or three lines
    config = tmp_path / "bad.ini"
    config.write_text(text)
    code, out, err = run(capsys, "check-conditions", "--config", str(config))
    assert (code, out) == (cli.EXIT_CONFIG, "") and len(err.splitlines()) == 1
    assert err.startswith(f"config error: malformed config file {config}: ")


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
    tables = {f"simulate{kind}_eps{eps}.csv": series[f"{key}{eps}"]
              for eps in (0.5, 1.0) for kind, key in (("_max", "max:"), ("", ""))}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*tables, "simulate.json"])
    for name, report in tables.items():
        rows = [",".join(str(row["n"]) if key == "n" else repr(row[key]) if key in row else ""
                         for key in CSV_COLUMNS) for row in report["rows"]]
        assert (tmp_path / name).read_text() == "\n".join([",".join(CSV_COLUMNS), *rows, ""])


def test_each_simulate_csv_is_named_by_its_series_key(capsys, tmp_path):
    # eps 0.1 and 0.1000001 both print as 0.1 under {eps:g}, so one file was
    # written over the other
    code, out, err = run(capsys, *SIMULATE_MAX[:-4], "--eps", "0.1,0.1000001",
                         *SIMULATE_MAX[-2:], "--out", str(tmp_path))
    assert (code, err) == (cli.EXIT_OK, "")
    keys = sorted(json.loads(out)["series"])
    assert keys == ["0.1", "0.1000001", "max:0.1", "max:0.1000001"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["simulate.json", *(f"simulate_{key.replace('max:', 'max_eps')}.csv"
                            if key.startswith("max:") else f"simulate_eps{key}.csv"
                            for key in keys)])


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
    ("--preset", "spataru"),
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
    (("--preset", "spataru"), True,
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


def test_a_replay_that_fails_a_block_exits_1_and_names_the_first_failure(capsys, tmp_path):
    # the last note said every block held whatever the certificates said
    code, _, _ = run(capsys, "counterexample", "--preset", "ms_counterexample(3)",
                     "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    path = tmp_path / "counterexample.json"
    built = json.loads(path.read_text())
    assert built["report"]["notes"][-1] == "2 block certificates, each block >= 1"
    built["schedule"][1]["payload"] = 1.5 * built["schedule"][0]["payload"]
    path.write_text(json.dumps(built))
    code, out, err = run(capsys, "counterexample", "--schedule", str(path))
    assert (code, err) == (cli.EXIT_CERT_FAILED, "")
    replay = json.loads(out)
    assert replay["first_failure"] == {"m": 2, "failed_step": "block-weight-floor"}
    report = replay["report"]
    assert not report["divergence_certified"]
    assert [c["ok"] for c in report["certificates"]] == [True, False]
    assert report["notes"][-1] == "1 of 2 block certificates failed, the first at m = 2"


@pytest.mark.parametrize("extra", [(), ("--eps", "0.5")], ids=["bare", "with eps"])
def test_simulate_refuses_the_counterexample_preset(capsys, extra):
    # its law has no sampler; the bare command exited 4 and the one with
    # --eps exited 2, naming eps
    code, out, err = run(capsys, "simulate", "--preset", "ms_counterexample(3)", "--horizon",
                         "16", "--replicates", "1000", *extra)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == "config error: simulate cannot sample the law of preset 'ms_counterexample(3)'\n"


@pytest.mark.parametrize("preset", ["spataru", "ms_counterexample(3)"])
@pytest.mark.parametrize("given", ["file", "set"])
def test_a_default_section_is_an_ordinary_refused_section(capsys, tmp_path, preset, given):
    # configparser copied [DEFAULT]'s keys into every section: the refusal
    # named distribution.horizon, a key never written, and under
    # ms_counterexample(3) the file set scenario.horizon; --set DEFAULT.horizon
    # was an internal error
    law = ("--set", "distribution.kind=rademacher") if preset == "spataru" else ()
    if given == "file":
        (tmp_path / "default.ini").write_text("[DEFAULT]\nhorizon = 100\n")
        source = ("--config", str(tmp_path / "default.ini"))
    else:
        source = ("--set", "DEFAULT.horizon=100")
    code, out, err = run(capsys, "check-conditions", *source, "--preset", preset, *law)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == "config error: check-conditions reads no [DEFAULT] section\n"


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
    # numpy's binomials and multinomials in sfc64-v7 too
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
    # counterexample draws nothing, so it reads no seed and no worker count
    built = ["counterexample", "--preset", "ms_counterexample(3)"]
    for flag in ("--workers", "--seed"):
        assert run(capsys, *built, flag, "3") == (
            cli.EXIT_CONFIG, "", f"config error: counterexample reads no mc.{flag[2:]}\n")


# Pairs of runs and whether they read equal values.  The hash took each key's
# text, so the first six pairs printed two hashes.
SPATARU_RAD = ("check-conditions", "--preset", "spataru", "--set", "distribution.kind=rademacher")
SPATARU_50 = (*SPATARU_RAD, "--horizon", "50")
RAD_50 = ("check-conditions", "--horizon", "50", "--set", "distribution.kind=rademacher")
ATOMS_50 = ("check-conditions", "--preset", "spataru", "--horizon", "50",
            "--set", "distribution.kind=atomic_sym")
CUSTOM_50 = ("check-conditions", "--horizon", "50", "--set", "weights.exponent=-1",
             "--set", "normalizer.exponent=1", "--set", "distribution.kind=rademacher")
HASH_PAIRS = {
    "preset blank": ((*RAD_50, "--preset", " spataru"), (*RAD_50, "--preset", "spataru"), True),
    "horizon blank": ((*SPATARU_RAD, "--set", "scenario.horizon= 100"),
                      (*SPATARU_RAD, "--set", "scenario.horizon=100"), True),
    "horizon default": ((*SPATARU_RAD, "--horizon", "10000"), SPATARU_RAD, True),
    "eps spelling": ((*SPATARU_50, "--eps", "0.50,1"), (*SPATARU_50, "--eps", "0.5,1.0"), True),
    "atom order": ((*ATOMS_50, "--set", "distribution.atoms=1:0.5, 3:0.25"),
                   (*ATOMS_50, "--set", "distribution.atoms=3:0.25,1:0.5"), True),
    "preset arguments": ((*RAD_50, "--preset", "baum_katz(2,1)"),
                         (*RAD_50, "--preset", "baum_katz(2.0, 1.0)"), True),
    "preset": ((*RAD_50, "--preset", "spataru"), (*RAD_50, "--preset", "spataru_weak(1)"), False),
    "horizon": ((*SPATARU_RAD, "--horizon", "100"), (*SPATARU_RAD, "--horizon", "101"), False),
    "eps order": ((*SPATARU_50, "--eps", "0.5,1"), (*SPATARU_50, "--eps", "1,0.5"), False),
    "atom mass": ((*ATOMS_50, "--set", "distribution.atoms=1:0.5,3:0.25"),
                  (*ATOMS_50, "--set", "distribution.atoms=1:0.5,3:0.2"), False),
    "preset argument": ((*RAD_50, "--preset", "baum_katz(2,1)"),
                        (*RAD_50, "--preset", "baum_katz(2,1.5)"), False),
    "kind": ((*SPATARU_RAD, "--horizon", "100"),
             (*SPATARU_RAD, "--horizon", "100", "--set", "distribution.kind=normal_std"), False),
    "coef sign": ((*CUSTOM_50, "--set", "weights.coef=-0"),
                  (*CUSTOM_50, "--set", "weights.coef=0"), False),
}


@pytest.mark.parametrize("first,second,equal", HASH_PAIRS.values(), ids=HASH_PAIRS.keys())
def test_runs_that_read_equal_values_print_equal_hashes(capsys, first, second, equal):
    assert (config_sha256(capsys, *first) == config_sha256(capsys, *second)) == equal


def test_a_negative_zero_is_kept_apart_from_zero(capsys):
    # -0.0 == 0.0, so a sequence cache keyed by the parsed values alone
    # would hand the second run the first run's weights
    for coef, term in (("-0", "-0.0"), ("0", "0.0"), ("-0", "-0.0")):
        code, out, err = run(capsys, *CUSTOM_50, "--set", f"weights.coef={coef}")
        assert (code, err) == (cli.EXIT_OK, "")
        assert {line.strip() for line in out.splitlines() if '"term"' in line} == {
            f'"term": {term}'}


def test_config_hash_covers_n_threshold_and_maximal(capsys, tmp_path):
    # the three were argparse options the hash never saw: estimate at n 16
    # and 32, and simulate with and without --maximal, printed one hash
    rad = ("--set", "distribution.kind=rademacher", "--replicates", "1000")
    hashes = {config_sha256(capsys, "estimate", *rad, "--n", n, "--threshold", t)
              for n in ("16", "32") for t in ("4", "5")}
    assert len(hashes) == 4
    sim = ("simulate", "--preset", "baum_katz(2,1)", "--eps", "0.5", "--horizon", "16", *rad)
    assert config_sha256(capsys, *sim) != config_sha256(capsys, *sim, "--maximal")
    # a key hashes alike by flag, by --set and in a config file
    config = tmp_path / "scenario.ini"
    config.write_text("[scenario]\nn = 16\nthreshold = 4\n")
    by_flag = config_sha256(capsys, "estimate", *rad, "--n", "16", "--threshold", "4")
    assert by_flag == config_sha256(capsys, "estimate", *rad, "--set", "scenario.n=16",
                                    "--set", "scenario.threshold=4")
    assert by_flag == config_sha256(capsys, "estimate", *rad, "--config", str(config))
    by_flag = config_sha256(capsys, *sim, "--maximal")
    assert by_flag == config_sha256(capsys, *sim, "--set", "scenario.maximal=true")
    config.write_text("[scenario]\nmaximal = true\n")
    assert by_flag == config_sha256(capsys, *sim, "--config", str(config))


# Bad values for each row of cli._SCALARS and cli._PRESETS: (section, key, a
# command that reads it, the value, the row's words).  A flag and --set of the
# key are refused alike.
ROW_REFUSALS = [
    ("scenario", "eps", "check-conditions", "0.5,x", "a list of distinct finite numbers > 0"),
    ("scenario", "eps", "simulate", ",", "a list of distinct finite numbers > 0"),
    ("scenario", "eps", "simulate", "0.5,0.5", "a list of distinct finite numbers > 0"),
    ("scenario", "eps", "simulate", "1,0", "a list of distinct finite numbers > 0"),
    ("scenario", "eps", "check-conditions", "0.5,1,0.50", "a list of distinct finite numbers > 0"),
    ("scenario", "theta", "check-conditions", "2x", "a finite number >= 1"),
    ("scenario", "theta", "check-conditions", "0.5", "a finite number >= 1"),
    ("scenario", "horizon", "simulate", "1e3", "an integer from 4 to 2^53"),
    ("scenario", "horizon", "check-conditions", "3", "an integer from 4 to 2^53"),
    ("scenario", "horizon", "simulate", str(2 ** 53 + 1), "an integer from 4 to 2^53"),
    ("scenario", "n", "estimate", "1.5", "an integer >= 1"),
    ("scenario", "threshold", "estimate", "1/2", "a finite number"),
    ("scenario", "threshold", "estimate", "inf", "a finite number"),
    ("scenario", "maximal", "simulate", "yes", "true or false"),
    ("mc", "replicates", "simulate", "1e4", "an integer >= 1000"),
    ("mc", "replicates", "simulate", "999", "an integer >= 1000"),
    ("mc", "seed", "simulate", "0x10", "an integer >= 0"),
    ("mc", "workers", "simulate", "two", "an integer >= 1"),
    ("scenario", "preset", "check-conditions", "bogus", "one of custom, spataru, "
     "spataru_weak, baum_katz, ms_counterexample"),
    ("scenario", "preset", "simulate", "baum_katz(2,1", "one of custom, spataru, "
     "spataru_weak, baum_katz, ms_counterexample"),
    ("scenario", "preset", "check-conditions", "baum_katz(2)",
     "baum_katz(r, p) with finite r >= 1 and 0 < p < 2"),
    ("scenario", "preset", "simulate", "baum_katz(2,x)",
     "baum_katz(r, p) with finite r >= 1 and 0 < p < 2"),
    ("scenario", "preset", "check-conditions", "spataru(1)", "spataru with no arguments"),
    ("scenario", "preset", "simulate", "custom(0)", "custom with no arguments"),
    ("scenario", "preset", "check-conditions", "spataru_weak(0)",
     "spataru_weak(delta) with finite delta > 0"),
    ("scenario", "preset", "counterexample", "ms_counterexample(2.5)",
     "ms_counterexample(d) with an integer d in 1..16"),
]


@pytest.mark.parametrize("section,key,command,value,words", ROW_REFUSALS,
                         ids=[f"{r[1]}={r[3]}" for r in ROW_REFUSALS])
def test_a_value_its_row_refuses_is_one_config_error_by_flag_and_by_set(
        capsys, section, key, command, value, words):
    # the rows replace three try/except blocks, six range checks and
    # _parse_preset's branches; --horizon 1e3 was argparse's usage error
    # and --set scenario.horizon=1e3 'theta/horizon must be numeric'.
    # estimate refuses a missing n before it reads threshold.
    given = ("--set", "scenario.n=4") if key == "threshold" else ()
    want = (cli.EXIT_CONFIG, "", f"config error: {section}.{key} must be {words}, not {value!r}\n")
    assert run(capsys, command, *given, "--set", f"{section}.{key}={value}") == want
    flags = [flag for flag, target in cli._FLAG_KEYS.items() if target == (section, key)]
    for flag in flags if key != "maximal" else ():  # --maximal takes no value; no --theta
        assert run(capsys, command, *given, f"--{flag}", value) == want


# A missing required key is one "needs" line, in place of five messages of
# their own ("distribution section needs a kind", "custom scenarios need
# [weights] and [normalizer] sections", ...).
KINDS = "one of rademacher, uniform_sym, normal_std, pareto_sym, atomic_sym"


@pytest.mark.parametrize("argv,message", [
    (("estimate",), "estimate needs scenario.n, an integer >= 1"),
    (("estimate", "--n", "4"), "estimate needs scenario.threshold, a finite number"),
    (("estimate", "--n", "4", "--threshold", "1", "--set", "distribution.alpha=2"),
     f"estimate needs distribution.kind, {KINDS}"),
    (("estimate", "--n", "4", "--threshold", "1", "--set", "distribution.kind=atomic_sym"),
     "estimate needs distribution.atoms, a list of x:mass entries"),
    (("check-conditions", "--set", "weights.exponent=x", "--set", "normalizer.exponent=1",
      "--set", "distribution.kind=rademacher"), "weights.exponent must be a number, not 'x'"),
    (("simulate", "--set", "weights.exponent=-1", "--set", "normalizer.coef=2",
      "--set", "distribution.kind=rademacher"), "simulate needs normalizer.exponent, a number"),
    (("check-conditions", "--config", "missing.ini"), "cannot read config file missing.ini"),
    (("check-conditions", "--set", "distribution.kind=rademacher"),
     "check-conditions needs weights.exponent, a number"),
    (("simulate", "--set", "weights.exponent=-1"), "simulate needs normalizer.exponent, a number"),
    (("check-conditions", "--preset", "spataru"),
     f"check-conditions needs distribution.kind, {KINDS}"),
    (("estimate", "--n", "4", "--threshold", "1"), f"estimate needs distribution.kind, {KINDS}"),
    (("check-conditions", "--horizon", "100", "--set", "weights.exponent=-1",
      "--set", "weights.coef=x", "--set", "normalizer.exponent=0.5",
      "--set", "distribution.kind=rademacher"), "weights.coef must be a number, not 'x'"),
    (("simulate", "--set", "weights.exponent=-1", "--set", "normalizer.exponent=1/2",
      "--set", "distribution.kind=rademacher"), "normalizer.exponent must be a number, not '1/2'"),
    (("simulate", "--set", "weights.exponent=-1", "--set", "normalizer.exponent=1",
      "--set", "normalizer.coef=two", "--set", "distribution.kind=rademacher"),
     "normalizer.coef must be a number, not 'two'"),
], ids=["no n", "no threshold", "no kind", "no atoms", "weights exponent", "no normalizer exponent",
        "no config file", "no sequences", "no normalizer", "no law", "estimate no law",
        "weights coef", "normalizer exponent", "normalizer coef"])
def test_a_missing_or_unparsable_input_is_one_config_error(capsys, tmp_path, monkeypatch,
                                                           argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (cli.EXIT_CONFIG, "", f"config error: {message}\n")


# ---------------------------------------------------------------------------
# read-sets: every key a command takes changes its report or is refused
# ---------------------------------------------------------------------------

# A valid value for each key of the read-sets' union, none of them a default
# or a base's own value; the preset's depends on the base, and [output]'s on
# the test's directory.
SWEEP_VALUES = {
    ("scenario", "eps"): "0.75", ("scenario", "theta"): "2", ("scenario", "horizon"): "32",
    ("scenario", "n"): "5", ("scenario", "threshold"): "3", ("scenario", "maximal"): "true",
    ("mc", "replicates"): "2000", ("mc", "seed"): "9", ("mc", "workers"): "2",
    ("distribution", "kind"): "normal_std", ("distribution", "half_width"): "2",
    ("distribution", "alpha"): "3", ("distribution", "scale"): "2",
    ("distribution", "atoms"): "1:0.5",
    **{(section, key): value for section, exponent in (("weights", "-2"), ("normalizer", "0.75"))
       for key, value in (("exponent", exponent), ("coef", "2"),
                          ("slowly_varying", "log_power:1"))},
}
RADEMACHER = {("distribution", "kind"): "rademacher"}
CUSTOM = {("weights", "exponent"): "-1", ("normalizer", "exponent"): "1", **RADEMACHER}
# label: (argv before the --set entries, the base's keys, another preset)
READ_SET_BASES = {
    "check-conditions named": (["check-conditions"], {
        ("scenario", "preset"): "baum_katz(2,1)", ("scenario", "horizon"): "50", **RADEMACHER},
        "baum_katz(3,1)"),
    "check-conditions custom": (["check-conditions"], {("scenario", "horizon"): "50", **CUSTOM},
                                "spataru"),
    "check-conditions ms_counterexample": (["check-conditions"], {
        ("scenario", "preset"): "ms_counterexample(3)", ("scenario", "horizon"): "50"},
        "ms_counterexample(4)"),
    "simulate named": (["simulate"], {
        ("scenario", "preset"): "baum_katz(2,1)", ("scenario", "horizon"): "16",
        ("mc", "replicates"): "1000", **RADEMACHER}, "baum_katz(3,1)"),
    "simulate custom": (["simulate"], {
        ("scenario", "horizon"): "16", ("mc", "replicates"): "1000", **CUSTOM}, "spataru"),
    "estimate": (["estimate"], {("scenario", "n"): "8", ("scenario", "threshold"): "2",
                                ("mc", "replicates"): "1000", **RADEMACHER}, "spataru"),
    "counterexample build": (["counterexample"], {("scenario", "preset"): "ms_counterexample(3)"},
                             "ms_counterexample(4)"),
    "counterexample replay": (["counterexample", "--schedule", "SCHEDULE"], {},
                              "ms_counterexample(3)"),
}


def without_hash(out: str) -> dict:
    report = json.loads(out)
    del report["provenance"]["config_sha256"]
    return report


def without_provenance(out: str) -> dict:
    report = json.loads(out)
    del report["provenance"]
    return report


@pytest.mark.parametrize("argv", [
    ("check-conditions", "--preset", "spataru", "--horizon", "100"),
    ("estimate", "--n", "64", "--threshold", "8", "--replicates", "1000"),
    ("simulate", "--preset", "spataru", "--maximal", "--horizon", "16", "--replicates", "1000"),
], ids=["check-conditions", "estimate", "simulate --maximal"])
def test_rademacher_and_its_atom_table_print_one_report(capsys, argv):
    # one atom law, however it is configured: only the provenance tells them apart
    reports = []
    for law in (("distribution.kind=rademacher",),
                ("distribution.kind=atomic_sym", "distribution.atoms=1:1")):
        code, out, err = run(capsys, *argv, *(arg for key in law for arg in ("--set", key)))
        assert (code, err) == (cli.EXIT_OK, "")
        reports.append(json.dumps(without_provenance(out)))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("base", READ_SET_BASES)
def test_every_key_a_command_takes_changes_its_report_or_is_refused(capsys, tmp_path, base):
    # a key a command took and never read used to change only its config hash,
    # and mc.seed on check-conditions only the hash and the provenance's seed.
    # The base keys come as --set entries, since a flag would win over the new value.
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps(counterexample.build_schedule(3).to_json_list()))
    head, keys, preset = READ_SET_BASES[base]
    head = [str(schedule) if a == "SCHEDULE" else a for a in head]
    values = {**SWEEP_VALUES, ("scenario", "preset"): preset,
              ("output", "dir"): str(tmp_path / "out")}
    assert set(values) == set().union(*cli._READS.values())

    def outcome_with(entries, *extra):
        return run(capsys, *head, *(x for (section, key), value in entries.items()
                                    for x in ("--set", f"{section}.{key}={value}")), *extra)

    code, out, err = outcome_with(keys)
    assert (code, err) == (cli.EXIT_OK, "")
    flags = {target: flag for flag, target in cli._FLAG_KEYS.items() if flag != "maximal"}
    failures = []
    for (section, key), value in values.items():
        code, got, err = outcome_with({**keys, (section, key): value})
        # the value with blanks around it, by its flag where it has one, reads
        # the same value: the same bytes and hash, or the same refusal
        padded = f" {value} "
        if (section, key) in flags:
            again = outcome_with(keys, f"--{flags[section, key]}", padded)
        else:
            again = outcome_with({**keys, (section, key): padded})
        if again != (code, got, err):
            failures.append(f"{section}.{key}={padded!r}: exit {again[0]} {again[2].strip()}")
        given, read = {*keys, (section, key)}, (section, key) in cli._READS[head[0]]
        if read and (section, key) in cli._EXECUTION_KEYS:
            ok = (code, got, err) == (cli.EXIT_OK, out, "")
        elif code in (cli.EXIT_CONFIG, cli.EXIT_FAMILY):
            # the line names the key or its value, or a given key the value made unread
            ok = got == "" and len(err.splitlines()) == 1 and (repr(value) in err or any(
                f"{s}.{k}" in err or f"[{s}] section" in err for s, k in given))
        elif not read:
            ok = False
        elif (section, key) == ("scenario", "preset") and "--schedule" in head:
            # the one exception: a replay's preset only checks the schedule's depth,
            # so it changes the provenance alone
            ok = code == cli.EXIT_OK and without_hash(got) != without_hash(out)
        else:
            ok = code == cli.EXIT_OK and without_provenance(got) != without_provenance(out)
        if not ok:
            failures.append(f"{section}.{key}={value}: exit {code} {err.strip()}")
    assert not failures, "\n".join(failures)


def test_readme_ini_example_is_a_simulate_scenario(capsys, tmp_path):
    # run exactly as the README writes it; check-conditions reads none of its [mc] keys
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    config = tmp_path / "scenario.ini"
    config.write_text(example)
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert (code, err) == (cli.EXIT_OK, "")
    report = json.loads(out)
    assert report["provenance"]["seed"] == 42 and sorted(report["series"]) == ["0.5", "1.0"]
    assert run(capsys, "check-conditions", "--config", str(config)) == (
        cli.EXIT_CONFIG, "", "config error: check-conditions reads no mc.replicates\n")


def test_readme_read_table_is_the_read_sets_and_the_scalar_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"^\| key \| default \|.*?\n\n", readme, re.M | re.S).group(0)
    header, _, *rows = table.strip().splitlines()
    commands = [cell.strip() for cell in header.strip("|").split("|")][2:]
    reads = {command: set() for command in commands}
    for row in rows:
        key, default, *marks = [cell.strip() for cell in row.strip("|").split("|")]
        section, name = key.strip("`").split(".")
        for command, mark in zip(commands, marks, strict=True):
            if mark == "x":
                reads[command].add((section, name))
        # every row's default, and for a law key the kinds that read it
        want = cli._ROWS[section, name][1]
        kinds = [kind for kind, (_, keys) in cli._LAWS.items() if name in keys]
        assert default == " ".join([{None: "required", "": "none"}.get(want, f"`{want}`"),
                                    *(f"(`{kind}`)" for kind in kinds)]), key
    assert len(rows) == len(set().union(*cli._READS.values())) == len(cli._ROWS)
    assert reads == {command: set(keys) for command, keys in cli._READS.items()}


# ---------------------------------------------------------------------------
# what a command reads is what it prints and hashes; the rest is refused
# ---------------------------------------------------------------------------

BK_RAD = ("--preset", "baum_katz(2,1)", "--horizon", "100", "--set", "distribution.kind=rademacher")
CUSTOM_RAD = ("--set", "weights.exponent=-1", "--set", "normalizer.exponent=1",
              "--set", "distribution.kind=rademacher")
BUILD = ("--preset", "ms_counterexample(3)")
ESTIMATE = ("--n", "4", "--replicates", "1000", "--set", "distribution.kind=rademacher")


def test_only_the_commands_that_draw_read_mc_keys():
    assert {command: len(keys) for command, keys in cli._READS.items()} == {
        "check-conditions": 16, "simulate": 19, "estimate": 11, "counterexample": 2}
    for section, key in cli._MC_KEYS:
        assert [c for c, keys in cli._READS.items() if (section, key) in keys] == [
            "simulate", "estimate"]
    assert all(("output", "dir") in keys for keys in cli._READS.values())


# (command, a run it completes, what is added to it, the unread key the line names)
UNREAD_KEYS = [
    *((command, argv, extra, name) for command, argv in (("check-conditions", BK_RAD),
                                                          ("counterexample", BUILD))
      for extra, name in ((("--seed", "9"), "mc.seed"), (("--workers", "2"), "mc.workers"),
                          (("--set", "mc.seed=9"), "mc.seed"))),
    ("check-conditions", (*CUSTOM_RAD, "--horizon", "100"), ("--set", "weights.kind=power"),
     "weights.kind"),
    ("simulate", (*CUSTOM_RAD, "--horizon", "16", "--replicates", "1000"),
     ("--set", "normalizer.kind=power"), "normalizer.kind"),
    ("check-conditions", BK_RAD, ("--set", "normalizer.kind=power"), "[normalizer] section"),
    ("estimate", (*ESTIMATE, "--threshold", "2"), ("--set", "weights.kind=power"),
     "[weights] section"),
    ("counterexample", BUILD, ("--set", "normalizer.kind=power"), "[normalizer] section"),
]


@pytest.mark.parametrize("command,argv,extra,name", UNREAD_KEYS,
                         ids=[f"{case[0]} {' '.join(case[2])}" for case in UNREAD_KEYS])
def test_a_key_that_changes_no_computed_byte_is_refused(capsys, command, argv, extra, name):
    # check-conditions and counterexample draw nothing, yet printed the seed they
    # were given, and a sequence's kind took one value, its default "power"
    code, _, err = run(capsys, command, *argv)
    assert (code, err) == (cli.EXIT_OK, "")
    assert run(capsys, command, *argv, *extra) == (
        cli.EXIT_CONFIG, "", f"config error: {command} reads no {name}\n")


def test_provenance_prints_the_seed_and_the_preset_only_where_read(capsys, tmp_path):
    def provenance(*argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (cli.EXIT_OK, "")
        fields = json.loads(out)["provenance"]
        assert fields.pop("versions") == {"cclab": cclab.__version__, "numpy": np.__version__}
        return fields.pop("config_sha256"), fields

    sha2, fields = provenance("check-conditions", *BK_RAD)
    assert fields == {"preset": "baum_katz(2,1)"}
    # baum_katz(3,1) hashes differently and used to print the same "baum_katz"
    sha3, fields = provenance("check-conditions", *BK_RAD, "--preset", " baum_katz(3,1) ")
    assert sha3 != sha2 and fields == {"preset": "baum_katz(3,1)"}
    _, fields = provenance("simulate", *CUSTOM_RAD, "--horizon", "16", "--replicates", "1000")
    assert fields == {"seed": 20240801, "preset": "custom"}
    assert provenance("estimate", *ESTIMATE, "--threshold", "2", "--seed", "5")[1] == {"seed": 5}
    _, fields = provenance("counterexample", *BUILD, "--out", str(tmp_path))
    assert fields == {"preset": "ms_counterexample(3)"}
    _, fields = provenance("counterexample", "--schedule", str(tmp_path / "counterexample.json"))
    assert fields == {"preset": "custom"}


@pytest.mark.parametrize("command,key,value,refusal", [
    ("estimate", "threshold", "-1e3", None),
    ("estimate", "threshold", "-inf", "scenario.threshold must be a finite number, not '-inf'"),
    ("check-conditions", "eps", "-1e-3",
     "scenario.eps must be a list of distinct finite numbers > 0, not '-1e-3'"),
])
def test_a_flag_value_that_begins_with_a_minus_is_the_flags_value(capsys, command, key, value,
                                                                 refusal):
    # argparse took "-1e3" for an option and printed its six-line usage
    argv = (command, *{"estimate": ESTIMATE, "check-conditions": BK_RAD}[command])
    by_flag = run(capsys, *argv, f"--{key}", value)
    assert by_flag == run(capsys, *argv, "--set", f"scenario.{key}={value}")
    assert by_flag == run(capsys, *argv, f"--{key}={value}")
    if refusal is None:
        assert by_flag[0] == cli.EXIT_OK and json.loads(by_flag[1])["estimate"]["p_hat"] == 1.0
    else:
        assert by_flag == (cli.EXIT_CONFIG, "", f"config error: {refusal}\n")


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
    # the config file holds valid values, which a falsy flag must not fall back to;
    # estimate reads no horizon, so check-conditions takes that flag
    config = tmp_path / "scenario.ini"
    if flag == "horizon":
        config.write_text("[scenario]\nhorizon = 100\n")
        argv = ["check-conditions", "--config", str(config), "--preset", "spataru",
                "--set", "distribution.kind=rademacher", "--horizon", value]
    else:
        config.write_text("[mc]\nreplicates = 2000\nworkers = 2\n")
        argv = estimate_argv(config=str(config), **{flag: value})
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "reads no" not in err


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
    # the kind narrows the read-set as a named preset does, and the one
    # unread-key rule names it
    code, out, err = run(capsys, *argv, "--set", f"distribution.kind={kind}",
                         "--set", f"distribution.{key}=3")
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"config error: {argv[0]} reads no distribution.{key} under kind {kind!r}\n"


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
    assert "reads no" not in err


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


def test_a_run_past_the_single_step_cap_exits_4_before_any_draw(capsys, monkeypatch):
    # 10^11 pareto_sym steps, about 10 minutes at 5.86 ns a step
    draws = []
    monkeypatch.setattr(distmodel, "sample", lambda *args: draws.append(args))
    code, out, err = run(capsys, "estimate", "--n", "100000000", "--threshold", "1e5",
                         "--replicates", "1000", "--set", "distribution.kind=pareto_sym")
    assert (code, out, draws) == (cli.EXIT_SAMPLING, "", [])
    assert err == ("sampling unavailable: pareto_sym: 100000000000 single steps is past the "
                   "cap of 2^34 = 17179869184\n")


def test_estimate_with_overflowing_steps_exits_4_with_one_line():
    proc = run_process(*MAIN, "estimate", "--set", "distribution.kind=pareto_sym",
                       "--set", "distribution.alpha=0.01", "--n", "1024",
                       "--threshold", "400", "--replicates", "1000", "--seed", "1")
    assert proc.returncode == cli.EXIT_SAMPLING == 4
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("sampling unavailable: pareto_sym:")


@pytest.mark.parametrize("seed,message", [
    ("4", "the running sum met +inf and -inf across increments by n = 4"),
    ("2", "the + and - parts of a sum of 4 steps, the increment to n = 8, both overflowed")])
def test_a_walk_with_no_float_value_exits_4_and_says_why(capsys, seed, message):
    # at seed 4 no increment overflowed both its parts, but a row's walk was
    # +-inf at n = 2 and its next increment the other infinity
    code, out, err = run(capsys, "simulate", "--preset", "spataru", "--horizon", "16",
                         "--replicates", "1000", "--seed", seed, "--set",
                         "distribution.kind=pareto_sym", "--set", "distribution.alpha=0.006")
    assert (code, out, err) == (cli.EXIT_SAMPLING, "",
                                f"sampling unavailable: pareto_sym: {message}\n")


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


def test_weights_whose_t_n_overflows_at_n_2_are_one_config_error(capsys):
    # in process, where the subprocess cases above leave the guard unmeasured
    assert run(capsys, "check-conditions", "--horizon", "100", "--set", "weights.exponent=0",
               "--set", "weights.coef=1e308", "--set", "normalizer.exponent=1",
               "--set", "distribution.kind=rademacher") == (
        cli.EXIT_CONFIG, "", "config error: T_n = sum k w(k) overflows doubles at n=2\n")


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


@pytest.mark.parametrize("argv,words", [
    (("check-conditions", "--config", "BAD", "--preset", "spataru",
      "--set", "distribution.kind=rademacher"), "malformed config file"),
    (("report-merge", "BAD", "--out", "MERGED"), "cannot read report")],
    ids=["config", "report-merge"])
def test_a_file_that_is_not_utf8_is_a_config_error(capsys, tmp_path, argv, words):
    bad, merged = tmp_path / "bad.ini", tmp_path / "merged.json"
    bad.write_bytes(b"\xff\xfe[scenario]\n")
    argv = [{"BAD": str(bad), "MERGED": str(merged)}.get(word, word) for word in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"config error: {words} {bad}: ") and len(err.splitlines()) == 1
    assert not merged.exists()


@pytest.mark.parametrize("horizon", [2 ** 61, 2 ** 62, 10 ** 20, 10 ** 30, 2 ** 63 - 1],
                         ids=["2^61", "2^62", "1e20", "1e30", "2^63-1"])
def test_a_horizon_past_2_53_is_refused_by_its_row(capsys, horizon):
    # numpy refused these columns (or, at 2^63 - 1, built empty ones) with an
    # internal error; past 2^53 a column of n would not hold every index exactly
    code, out, err = run(capsys, "check-conditions", "--preset", "spataru", "--horizon",
                         str(horizon), "--set", "distribution.kind=rademacher")
    assert (code, out, err) == (cli.EXIT_CONFIG, "", "config error: scenario.horizon must be "
                                f"an integer from 4 to 2^53, not '{horizon}'\n")
    _, _, rule, _ = cli._ROWS["scenario", "horizon"]
    assert rule(2 ** 53) and not rule(2 ** 53 + 1)


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


# The size flags each command reads; any other would be refused as unread.
SIZE_FLAGS = {"check-conditions": ("--horizon", "100"),
              "simulate": ("--horizon", "100", "--replicates", "1000"),
              "estimate": ("--replicates", "1000")}


@pytest.mark.parametrize("argv", NONFINITE_CASES.values(), ids=NONFINITE_CASES.keys())
def test_nonfinite_inputs_are_config_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second line
        code, out, err = run(capsys, *argv, *SIZE_FLAGS[argv[0]])
    assert code == cli.EXIT_CONFIG, err
    assert out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "reads no" not in err


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
                         "--set", "distribution.kind=rademacher", *SIZE_FLAGS[command])
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
    assert "reads no" not in err


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
        assert "reads no" not in proc.stderr


# ---------------------------------------------------------------------------
# the CLI contract over a seeded sweep of command lines at every magnitude
# ---------------------------------------------------------------------------

SWEEP_MAGNITUDES = (5e-324, 1e-320, 1e-300, 1e-200, 1e-100, 1e-10, 1e-3, 0.5, 1.0, 1.5, 2.0,
                    3.0, 10.0, 1e3, 1e10, 1e100, 1e200, 1e300, 1e308)
SWEEP_LAWS = {"rademacher": (), "uniform_sym": ("half_width",), "normal_std": (),
              "pareto_sym": ("alpha", "scale"), "atomic_sym": ("atoms",)}
SWEEP_COMMANDS = {"check-conditions": 0.5, "simulate": 0.25, "estimate": 0.25}


def sweep_scenario(rng) -> list:
    """One valid command line drawn from ``rng``: check-conditions, simulate or
    estimate; the first two half on a preset, half on power-law sequences; each
    magnitude from SWEEP_MAGNITUDES."""
    def mag(below=math.inf, least=0.0) -> str:
        return repr(float(rng.choice([m for m in SWEEP_MAGNITUDES if least <= m < below])))

    def signed() -> str:
        return ("-" if rng.random() < 0.5 else "") + mag()

    command = str(rng.choice(list(SWEEP_COMMANDS), p=list(SWEEP_COMMANDS.values())))
    if command == "estimate":
        argv = [command, "--n", str(rng.choice([1, 2, 16, 64])), "--threshold", signed()]
    else:
        # two draws, one eps where they agree: a repeated eps is refused
        horizons = [4, 50, 300] if command == "check-conditions" else [4, 16, 64]
        argv = [command, "--horizon", str(rng.choice(horizons)),
                "--eps", ",".join(dict.fromkeys([mag(), mag()]))]
        if rng.random() < 0.5:
            preset = rng.choice(["baum_katz", "spataru", "spataru_weak"])
            args = {"baum_katz": f"({mag(least=1.0)},{mag(below=2.0)})", "spataru": "",
                    "spataru_weak": f"({mag()})"}[preset]
            argv += ["--preset", preset + args]
        else:
            for section in ("weights", "normalizer"):
                factors = [f"{name}:{signed()}" for name in ("log_power", "loglog_power")
                           if rng.random() < 0.5]
                argv += ["--set", f"{section}.exponent={signed()}", "--set",
                         f"{section}.coef={mag()}",
                         "--set", f"{section}.slowly_varying={','.join(factors)}"]
    if command != "check-conditions":
        argv += ["--replicates", "1000", "--seed", str(rng.integers(100))]
        if command == "simulate" and rng.random() < 0.25:
            argv += ["--maximal"]
    kind = str(rng.choice(list(SWEEP_LAWS)))
    argv += ["--set", f"distribution.kind={kind}"]
    for key in SWEEP_LAWS[kind]:
        value = f"{mag()}:0.5,{mag()}:0.25" if key == "atoms" else mag()
        argv += ["--set", f"distribution.{key}={value}"]
    return argv


VALUE_OPTIONS = ["--config", "--set", *(f"--{f}" for f in cli._FLAG_KEYS if f != "maximal")]
# Each turns a valid command line into a malformed one, refused with exit 2.
MALFORMED = {
    "a value option as the last word": lambda argv, rng: argv + [rng.choice(VALUE_OPTIONS)],
    "an unknown option": lambda argv, rng: argv + ["--bogus"],
    "a prefix": lambda argv, rng: [argv[0], argv[1][:-1], *argv[2:]],
    "a value that begins with -": lambda argv, rng: argv + ["--eps", "-0.5"],
    "a value for --maximal": lambda argv, rng: argv + ["--maximal=1"],
    "no command": lambda argv, rng: argv[1:],
}


def test_seeded_command_lines_keep_the_cli_contract(capsys):
    # D37's contract: exit 0-4, never 5 (a check inside the program failed);
    # exit 0 with nothing on stderr; from exit 2 on, nothing on stdout and one
    # line on stderr; and no Python warning.  A malformed command line is one
    # config error, and --flag=value prints what --flag value prints.
    rng = np.random.default_rng(0)
    failures = []
    for _ in range(1700):
        argv, shape = sweep_scenario(rng), int(rng.integers(4 * len(MALFORMED)))
        names = list(MALFORMED)
        line = MALFORMED[names[shape]](argv, rng) if shape < len(names) else argv
        joined = shape == len(names)  # the first flag and its value as one word
        if joined:
            line = [argv[0], f"{argv[1]}={argv[2]}", *argv[3:]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = got = run(capsys, *line)
        ok = code in range(5) and not caught and (
            err == "" if code == cli.EXIT_OK else code == cli.EXIT_CERT_FAILED
            or (out == "" and len(err.splitlines()) == 1))
        if shape < len(names):
            ok = ok and code == cli.EXIT_CONFIG and err.startswith("config error: ")
        if ok and joined:
            ok = got == run(capsys, *argv)
        if not ok:
            warned = "".join(f"\n  warning: {w.message}" for w in caught)
            shown = shlex.join(["cclab", *line])
            failures.append(f"exit {code}: {shown}\n  {err.strip()}{warned}")
    # Monte Carlo bytes do not depend on the worker count (two batches of draws)
    for kind, n, threshold in (("uniform_sym", 16, "4"), ("uniform_sym", 200, "15"),
                               ("pareto_sym", 16, "8"), ("normal_std", 16, "4")):
        argv = ("estimate", "--n", str(n), "--threshold", threshold, "--replicates", "70000",
                "--set", f"distribution.kind={kind}")
        one, two = (run(capsys, *argv, "--workers", w) for w in ("1", "2"))
        if one != two or one[0] != cli.EXIT_OK:
            failures.append(f"--workers 1 and 2 differ: {shlex.join(['cclab', *argv])}")
    assert not failures, "\n".join(failures)


# A fixed product grid of custom scenarios at horizon 2000: weight coefficient and
# exponent, normalizer exponent, a log factor on the weights and one on the
# normalizer (which starts the Gaussian envelope at n0 > 2), and five laws.
GRID_LAWS = {"rademacher": (), "normal_std": (), "uniform_sym": (),
             "pareto_sym": ("--set", "distribution.alpha=3"),
             "atomic_sym": ("--set", "distribution.atoms=1:0.5,3:0.25")}
CUSTOM_GRID = [
    ("check-conditions", "--horizon", "2000", "--set", f"weights.coef={coef}",
     "--set", f"weights.exponent={w_exp}", "--set", f"normalizer.exponent={a_exp}",
     *(("--set", f"weights.slowly_varying={sv}") if sv else ()),
     *(("--set", f"normalizer.slowly_varying={a_sv}") if a_sv else ()),
     "--set", f"distribution.kind={kind}", *extra)
    for coef in ("1", "1e9") for w_exp in ("-1", "0") for a_exp in ("0.75", "1", "1.5")
    for sv in ("", "log_power:10") for a_sv in ("", "log_power:-0.5")
    for kind, extra in GRID_LAWS.items()]


def test_a_grid_of_custom_scenarios_ends_in_a_documented_exit_code(capsys):
    # exit 0 prints nothing on stderr, exits 1-4 one line; exit 5 (a check inside
    # the program failed) is a defect.  Under the suite's filterwarnings a numpy
    # warning raises.  The exponential terms whose exp(x) is subnormal exited 5
    # when formed as w(n) exp(x): the envelope is tight, the term off by 1e-8.
    failures = []
    for argv in CUSTOM_GRID:
        code, _, err = run(capsys, *argv)
        if code not in range(5) or len(err.splitlines()) != (code != cli.EXIT_OK):
            failures.append(f"exit {code}: {shlex.join(['cclab', *argv])}\n  {err.strip()}")
    assert not failures, "\n".join(failures)


PAST_TAILS = ("--set", "weights.coef=1e9", "--set", "weights.exponent=-1", "--set",
              "normalizer.exponent=1", "--set", "distribution.kind=pareto_sym", "--set",
              "distribution.alpha=3", "--horizon", "2000")
HUGE_WEIGHTS = ("--horizon", "50", "--eps", "3", "--set", "weights.exponent=-1e+308",
                "--set", "normalizer.exponent=2", "--set", "normalizer.coef=0.001")
EDGE_OF_THE_DOUBLES = {
    # -e_net / kappa underflowed to 0 in TermBound.log_tail: exit 5
    **{f"peak quotient {kind}": (("--set", f"distribution.kind={kind}", "--set",
                                  "weights.exponent=5e-324", "--set", "normalizer.exponent=2",
                                  "--horizon", "64"), cli.EXIT_OK)
       for kind in ("rademacher", "normal_std", "uniform_sym")},
    # a subnormal Pareto tail times a weight of 1e9 lost digits: envelope violated, exit 5
    "single tail eps 1e102": ((*PAST_TAILS, "--eps", "1e102"), cli.EXIT_OK),
    "single tail eps 1e103": ((*PAST_TAILS, "--eps", "1e103"), cli.EXIT_OK),
    # alpha (log s - log x) overflowed with a numpy warning before the config error
    "pareto alpha 1e308": (("--preset", "spataru", "--horizon", "4", "--eps", "1e300", "--set",
                            "distribution.kind=pareto_sym", "--set", "distribution.alpha=1e308",
                            "--set", "distribution.scale=5e-324"), cli.EXIT_CONFIG),
    # the exponential envelope's logs met as inf - inf in fsum: exit 5
    "weights n^-1e308 uniform": ((*HUGE_WEIGHTS, "--set", "distribution.kind=uniform_sym"),
                                 cli.EXIT_OK),
    # and the normal single tail's Gaussian bound overflowed with a numpy warning
    "weights n^-1e308 normal": ((*HUGE_WEIGHTS, "--set", "distribution.kind=normal_std"),
                                cli.EXIT_OK),
}


@pytest.mark.parametrize("argv,code", EDGE_OF_THE_DOUBLES.values(), ids=EDGE_OF_THE_DOUBLES)
def test_scenarios_at_the_edge_of_the_doubles_keep_the_cli_contract(capsys, argv, code):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = run(capsys, "check-conditions", *argv)
    assert (got, [str(w.message) for w in caught]) == (code, [])
    assert len(err.splitlines()) == (code != cli.EXIT_OK) and bool(out) == (code == cli.EXIT_OK)


@pytest.mark.parametrize("argv", [
    ("--set", "weights.exponent=0", "--set", "weights.coef=1e9"),
    ("--set", "weights.exponent=-0.01", "--set", "weights.slowly_varying=log_power:10")],
    ids=["coef 1e9", "log_power 10"])
def test_exponential_terms_below_the_normal_range_meet_their_tight_envelope(capsys, argv):
    code, out, err = run(capsys, "check-conditions", *argv, "--set", "normalizer.exponent=1",
                         "--set", "distribution.kind=rademacher", "--horizon", "2000")
    assert (code, err) == (cli.EXIT_OK, "")
    series = json.loads(out)["series"]
    assert [s["verdict"] for s in series if s["series_id"] == "exponential"] == [CONVERGES] * 2


@pytest.mark.parametrize("alpha,verdict", [("1e300", CONVERGES), ("1e308", UNDETERMINED)])
def test_a_pareto_alpha_whose_coefficient_leaves_the_doubles_has_no_certificate(
        capsys, alpha, verdict):
    # alpha (log s - log eps - log A) overflows to inf at alpha 1e308: no envelope
    code, out, err = run(capsys, "check-conditions", "--preset", "spataru", "--horizon", "64",
                         "--eps", "0.1", "--set", "distribution.kind=pareto_sym",
                         "--set", f"distribution.alpha={alpha}")
    assert (code, err) == (cli.EXIT_OK, "")
    (single,) = [s for s in json.loads(out)["series"] if s["series_id"] == "single-tail"]
    assert single["verdict"] == verdict


@pytest.mark.parametrize("argv,code", [
    # a finite running sum that overflows adds to inf without a warning
    (("--preset", "spataru", "--set", "distribution.kind=atomic_sym",
      "--set", "distribution.atoms=1e308:0.002", "--horizon", "64", "--seed", "1"), 0),
    # the sequences are evaluated once, with numpy's overflow silent
    (("--set", "weights.exponent=-1", "--set", "normalizer.exponent=0",
      "--set", "normalizer.coef=1e308", "--set", "normalizer.slowly_varying=log_power:2",
      "--set", "distribution.kind=uniform_sym", "--horizon", "16"), 2),
], ids=["overflowing walk", "overflowing normalizer"])
def test_simulate_prints_no_numpy_warning(argv, code):
    proc = run_process(*MAIN, "simulate", *argv, "--replicates", "1000")
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == (code != cli.EXIT_OK), proc.stderr
    if code:
        assert proc.stderr.startswith("config error: normalizer a(2) = inf")


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
