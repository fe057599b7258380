"""Seeded power-log scenarios against closed-form rules (ROADMAP D25).

Each scenario is a custom ``check-conditions`` run at horizon 2000 with
w(n) = n^e_w L^g_w M^h_w and a(n) = A n^rho L^g_a M^h_a, L = log(2+n) and
M = loglog(e^2+n), drawn at one fixed seed.  The rules, which every certified
verdict must follow:

* the single tail of ``pareto_sym``: from the crossing eps a(n) >= s on the term
  is C n^P L^Q M^R, P = 1 + e_w - alpha rho, Q = g_w - alpha g_a and
  R = h_w - alpha h_a, so by Bertrand's rule it converges iff (P, Q, R) is below
  (-1, -1, -1) in the first place where they differ;
* the single tail of a law with every moment (bounded, normal) converges at rho > 0;
* the exponential series of a law with a second moment converges at rho > 1/2; at
  rho < 1/2 its terms tend to w(n), so Bertrand's rule on (e_w, g_w, h_w) decides it.

The hypothesis rule, which every tail-domination report must follow: at
q = p rho - 1 - e_w == 1 and e_w > -2 the ratio grows without bound, so no such
report is ``CertifiedPass``.

The exponents are dyadic, so P = -1, Q = -1 and q = 1 are exact in floats; the
first two are drawn on purpose.  Coverage is a number: the ``Undetermined`` count of each (law,
series) may never rise above the recorded ceiling.
"""

import contextlib
import io
import json
import random
import shlex
import warnings
from collections import Counter

from cclab import cli

CASES = 300
LAWS = {
    "rademacher": (),
    "uniform_sym": (),
    "normal_std": (),
    "atomic_sym": ("distribution.atoms=1:0.5,3:0.25",),
    "pareto_sym": None,  # alpha drawn per case
}
ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
RHOS = (0.25, 0.375, 0.5, 0.625, 0.75, 1.0, 1.25, 1.5)
LOG_POWERS = (-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0)
EPS = ("0.01", "0.5", "1.0", "10")

# The most Undetermined series of each (law, series) at this seed.
UNDETERMINED_AT_MOST = {
    ("pareto_sym", "single-tail"): 21,
    ("pareto_sym", "exponential"): 32,
    ("rademacher", "single-tail"): 5,
    ("rademacher", "exponential"): 21,
    ("uniform_sym", "single-tail"): 6,
    ("uniform_sym", "exponential"): 24,
    ("normal_std", "single-tail"): 0,
    ("normal_std", "exponential"): 12,
    ("atomic_sym", "single-tail"): 6,
    ("atomic_sym", "exponential"): 19,
}


def _sv(log_power: float, loglog_power: float) -> str:
    return ",".join(f"{name}:{g:g}" for name, g in (("log_power", log_power),
                                                      ("loglog_power", loglog_power)) if g)


def _below(exponents, tie=-1.0) -> bool:
    """Bertrand's rule: sum n^p L^q M^r converges iff (p, q, r) < (-1, -1, -1)
    at the first place where they differ."""
    for x in exponents:
        if x != tie:
            return x < tie
    return False


def scenario(rng: random.Random) -> tuple[list, str, dict]:
    """argv, law kind and the exponents of one drawn scenario."""
    kind = rng.choice(list(LAWS))
    rho, g_a, h_a = rng.choice(RHOS), rng.choice(LOG_POWERS), rng.choice((-1.0, 0.0, 0.0, 1.0))
    g_w, h_w = rng.choice(LOG_POWERS), rng.choice((-2.0, -1.0, 0.0, 0.0, 1.0))
    extra = LAWS[kind]
    alpha = None
    if kind == "pareto_sym":
        alpha = rng.choice(ALPHAS)
        extra = (f"distribution.alpha={alpha:g}",)
        # P = 1 + e_w - alpha rho lands on -1 and beside it
        e_w = alpha * rho - 2.0 + rng.choice((-0.5, -0.25, 0.0, 0.0, 0.25, 0.5))
        if rng.random() < 0.5:  # and Q = g_w - alpha g_a on -1
            g_w = alpha * g_a - 1.0
    else:
        e_w = rng.choice((-2.0, -1.5, -1.0, -0.5, 0.0, 0.5))
    sets = {"weights.exponent": f"{e_w!r}", "weights.slowly_varying": _sv(g_w, h_w),
            "normalizer.exponent": f"{rho!r}", "normalizer.coef": rng.choice(("0.5", "1", "2")),
            "normalizer.slowly_varying": _sv(g_a, h_a), "distribution.kind": kind}
    argv = ["check-conditions", "--horizon", "2000", "--eps", rng.choice(EPS)]
    for key, value in sets.items():
        if value:
            argv += ["--set", f"{key}={value}"]
    for entry in extra:
        argv += ["--set", entry]
    return argv, kind, dict(alpha=alpha, rho=rho, e_w=e_w, g_w=g_w, h_w=h_w, g_a=g_a, h_a=h_a)


def expected(series_id: str, kind: str, x: dict):
    """True (converges), False (diverges) or None (no rule) for one series."""
    if series_id == "single-tail":
        if kind != "pareto_sym":
            return True
        a = x["alpha"]
        return _below((1.0 + x["e_w"] - a * x["rho"], x["g_w"] - a * x["g_a"],
                       x["h_w"] - a * x["h_a"]))
    if series_id == "exponential" and (kind != "pareto_sym" or x["alpha"] > 2.0):
        if x["rho"] > 0.5:
            return True
        if x["rho"] < 0.5:
            return _below((x["e_w"], x["g_w"], x["h_w"]))
    return None


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def test_seeded_power_log_verdicts_follow_the_rules():
    rng = random.Random(25)
    failures, undetermined, ran, checked, q_one = [], Counter(), 0, 0, 0
    for _ in range(CASES):
        argv, kind, x = scenario(rng)
        code, out, err, caught = _run(argv)
        shown = shlex.join(["cclab", *argv])
        if code == cli.EXIT_CONFIG and "normalizer decreases" in err:
            continue  # the paper asks for a nondecreasing a(n)
        if code not in (cli.EXIT_OK, cli.EXIT_CERT_FAILED) or caught:
            failures.append(f"exit {code}: {shown}\n  {err.strip()}")
            continue
        ran += 1
        report = json.loads(out)
        for r in report["regularity"]:
            if r["condition_id"].startswith("tail-domination"):
                q = r["constants"]["moment_power"] * x["rho"] - 1.0 - x["e_w"]
                if q == 1.0 and x["e_w"] > -2.0:
                    q_one += 1
                    if r["verdict"] == "CertifiedPass":
                        failures.append(f"{r['condition_id']} CertifiedPass at q == 1: {shown}")
        for s in report["series"]:
            sid, verdict = s["series_id"], s["verdict"]
            if verdict == "Undetermined":
                undetermined[kind, sid] += 1
                continue
            want = expected(sid, kind, x)
            checked += want is not None
            if want is not None and (verdict == "ConvergesCertified") != want:
                failures.append(f"{sid} {verdict}, rule says "
                                f"{'converges' if want else 'diverges'}: {shown}")
    assert not failures, "\n".join(failures)
    assert ran >= CASES // 2 and checked >= CASES and q_one
    over = {key: n for key, n in undetermined.items() if n > UNDETERMINED_AT_MOST.get(key, 0)}
    assert not over, (over, dict(undetermined))
