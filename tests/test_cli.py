"""The CLI paths of the README, run in-process through ``cli.main``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cclab
from cclab import cli
from cclab import convergence as cv
from cclab import mcengine
from cclab.convergence import PowerLowerBound, RecurringBlocks

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
# Monte Carlo bytes: fixtures written when S_n became a direct draw (stream
# philox-v2).  70000 replicates are two batches, so the worker count changes
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
    code, out2, _ = run(capsys, *argv, "--workers", "2")
    assert code == cli.EXIT_OK
    assert out2 == out


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
]


@pytest.mark.parametrize("preset,dist", CERTIFIED_PAIRS)
def test_certificates_hold_past_the_horizon(preset, dist):
    horizon = 10_000
    cfg = cli.load_config(None, {"preset": preset, "horizon": horizon,
                                 "sets": [("distribution", k, v) for k, v in dist.items()]})
    d, w, a = cfg.dist, cfg.weights, cfg.norms
    n = np.arange(1, 10 * horizon + 1)
    wv, av = w.values(n), a.values(n)
    checked = 0
    for eps in cfg.eps:
        exp_cert = cli._envelope_exp_term(d, w, a, eps)
        families = [
            (n, cv.single_tail_terms(d, wv, av, eps, n),
             cli._envelope_single_tail(d, w, a, eps, horizon)),
            (n, cv.exp_terms(d, wv, av, eps, n), exp_cert),
        ]
        if cfg.preset in ("spataru", "spataru_weak"):
            families.append((n[1:], cv.adaptive_exponent_terms(d, eps, n[1:]), exp_cert))
        for ns, terms, cert in families:
            if cert is None or isinstance(cert, RecurringBlocks):
                continue
            key = "divergence" if isinstance(cert, PowerLowerBound) else "envelope"
            # raises at the first term the certificate does not cover
            cv.summarize_series("past-horizon", ns, terms, emit=ns == ns[-1], **{key: cert})
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# counterexample and simulate paths
# ---------------------------------------------------------------------------


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


def run_process(code: str, *argv) -> subprocess.CompletedProcess:
    """``python -c code argv...`` with this checkout's cclab on the path."""
    src = str(Path(cclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=120,
                          capture_output=True, text=True)


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = "import sys, cclab.cli; sys.exit('scipy.integrate' in sys.modules)"
    assert run_process(code).returncode == 0


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
    assert payload["estimate"]["seed_stream"] == "philox-v2:0/0/4"


def test_estimate_with_every_replicate_a_hit(capsys):
    code, out, err = run(capsys, *estimate_argv(threshold="0"))
    assert code == cli.EXIT_OK, err
    est = json.loads(out)["estimate"]
    assert est["p_hat"] == est["hi"] == 1.0


@pytest.mark.parametrize("flag,value", [
    ("horizon", "0"), ("replicates", "0"), ("replicates", "999"), ("workers", "0"),
    ("n", "0"), ("threshold", "nan"), ("threshold", "inf")])
def test_invalid_flags_are_config_errors(capsys, tmp_path, flag, value):
    # the config file holds valid values, which a falsy flag must not fall back to
    config = tmp_path / "scenario.ini"
    config.write_text("[scenario]\nhorizon = 100\n[mc]\nreplicates = 2000\nworkers = 2\n")
    code, out, err = run(capsys, *estimate_argv(config=str(config), **{flag: value}))
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1


def test_estimate_with_overflowing_steps_exits_4_with_one_line():
    # In a process of its own, so that any numpy warning would reach stderr.
    proc = run_process("import sys, cclab.cli; sys.exit(cclab.cli.main(sys.argv[1:]))",
                       "estimate", "--set", "distribution.kind=pareto_sym",
                       "--set", "distribution.alpha=0.01", "--n", "1024",
                       "--threshold", "400", "--replicates", "1000", "--seed", "1")
    assert proc.returncode == cli.EXIT_SAMPLING == 4
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("sampling unavailable: pareto_sym:")


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


def test_report_merge_unreadable_input_is_a_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (bad, tmp_path / "missing.json"):
        code, _, err = run(capsys, "report-merge", str(path), "--out", str(tmp_path / "m.json"))
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: cannot read report")
