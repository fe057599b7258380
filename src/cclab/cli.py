"""Scenario runner: config parsing, presets, certified reports, CSV/JSON output.

Subcommands: check-conditions, counterexample, simulate, estimate,
report-merge.  Configs are INI files (flat key=value pairs under sections,
diffable, one file per scenario); flags override file keys.  Verdicts are
data inside the reports; exit codes only signal operational failures:

    0  ran to completion
    1  a divergence certificate failed (counterexample subcommand)
    2  config parse/validation error
    3  unsupported distribution or sequence family; also ``simulate
       --maximal`` on a law without an exact oracle (no atoms, atoms off
       any short decimal lattice, or a lattice too wide), since the
       running-maximum series is exact or absent
    4  sampling unavailable for the configured distribution; also a Monte
       Carlo sum whose steps overflow to both +inf and -inf (pareto_sym with
       a small alpha), since |S_n| then has no float value
    5  internal error: a check inside the program failed (for example a
       registered envelope violated); one line on stderr, no traceback

``counterexample --schedule FILE`` replays the schedule in FILE and needs
no preset, sequences or distribution.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__, convergence, counterexample, distmodel, mcengine, seqkit
from .convergence import (GeometricEnvelope, PowerEnvelope, PowerLowerBound,
                          RecurringBlocks, VanishingEnvelope)
from .seqkit import NormSeq, PowerLawFamily, SlowlyVarying, WeightSeq

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_CONFIG = 2
EXIT_FAMILY = 3
EXIT_SAMPLING = 4
EXIT_INTERNAL = 5


class ConfigError(Exception):
    pass


class UnsupportedFamily(Exception):
    pass


_ALLOWED_KEYS = {
    "scenario": {"preset", "eps", "theta", "horizon"},
    "distribution": {"kind", "alpha", "scale", "half_width", "atoms"},
    "weights": {"kind", "exponent", "coef", "slowly_varying"},
    "normalizer": {"kind", "exponent", "coef", "slowly_varying"},
    "mc": {"replicates", "seed", "workers"},
    "output": {"dir"},
}

_PRESET_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?$")


# ---------------------------------------------------------------------------
# Presets and families
# ---------------------------------------------------------------------------


def spataru_weights() -> WeightSeq:
    return seqkit.power_law_weights(-1.0, name="1/n")


def spataru_norms() -> NormSeq:
    fam = PowerLawFamily(exponent=0.5, sv=SlowlyVarying(logn=0.5))

    def fn(n: int) -> float:
        return 1.0 if n == 1 else math.sqrt(n * math.log(n))

    return NormSeq(fn=fn, name="(n log n)^(1/2)", family=fam)


def baum_katz_weights(r: float) -> WeightSeq:
    return seqkit.power_law_weights(r - 2.0, name=f"n^{r - 2:g}")


def baum_katz_norms(p: float) -> NormSeq:
    return seqkit.power_law_norms(1.0 / p, name=f"n^(1/{p:g})")


@dataclass
class ScenarioConfig:
    preset: str
    preset_args: tuple
    dist: Optional[distmodel.Dist]
    counter_depth: Optional[int]
    weights: WeightSeq
    norms: NormSeq
    eps: tuple[float, ...]
    theta: float
    horizon: int
    replicates: int
    seed: int
    workers: int
    maximal: bool
    out_dir: Optional[Path]
    config_sha256: str

    def provenance(self) -> dict:
        return {
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "preset": self.preset,
            "versions": {"cclab": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__},
        }


def _parse_preset(text: str) -> tuple[str, tuple]:
    m = _PRESET_RE.match(text.strip())
    if not m:
        raise ConfigError(f"malformed preset {text!r}")
    name, raw = m.group(1), m.group(2)
    args: tuple = ()
    if raw:
        try:
            args = tuple(float(x) for x in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"malformed preset arguments in {text!r}") from exc
    if name == "baum_katz":
        if len(args) != 2:
            raise ConfigError("baum_katz needs (r, p)")
        r, p = args
        if r < 1.0 or not 0.0 < p < 2.0:
            raise ConfigError("baum_katz requires r >= 1 and 0 < p < 2")
    elif name == "spataru":
        if args:
            raise ConfigError("spataru takes no arguments")
    elif name == "spataru_weak":
        if len(args) != 1 or args[0] <= 0.0:
            raise ConfigError("spataru_weak needs (delta) with delta > 0")
    elif name == "ms_counterexample":
        if len(args) != 1 or args[0] != int(args[0]) or not 1 <= args[0] <= 16:
            raise ConfigError("ms_counterexample needs an integer depth in 1..16")
    elif name == "custom":
        if args:
            raise ConfigError("custom takes no arguments")
    else:
        raise ConfigError(f"unknown preset {name!r}")
    return name, args


def _parse_sv(text: str) -> SlowlyVarying:
    kw = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            key, val = part.split(":")
            val = float(val)
        except ValueError as exc:
            raise ConfigError(f"malformed slowly_varying entry {part!r}") from exc
        if key == "log_power":
            kw["log2p"] = val
        elif key == "loglog_power":
            kw["loglog"] = val
        elif key == "plainlog_power":
            kw["logn"] = val
        else:
            raise UnsupportedFamily(f"unknown slowly varying factor {key!r}")
    return SlowlyVarying(**kw)


def _parse_atoms(text: str):
    atoms = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            v, w = part.split(":")
            atoms.append((float(v), float(w)))
        except ValueError as exc:
            raise ConfigError(f"malformed atom entry {part!r}") from exc
    return atoms


def _parse_distribution(section) -> distmodel.Dist:
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("distribution section needs a kind")
    try:
        if kind == "rademacher":
            return distmodel.rademacher()
        if kind == "uniform_sym":
            return distmodel.uniform_sym(float(section.get("half_width", 1.0)))
        if kind == "normal_std":
            return distmodel.normal_std()
        if kind == "pareto_sym":
            return distmodel.pareto_sym(float(section.get("alpha", 1.5)),
                                        float(section.get("scale", 1.0)))
        if kind == "atomic_sym":
            if "atoms" not in section:
                raise ConfigError("atomic_sym needs an atoms table")
            return distmodel.atomic_sym(_parse_atoms(section["atoms"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid distribution parameters: {exc}") from exc
    raise UnsupportedFamily(f"unsupported distribution kind {kind!r}")


def _parse_sequence(section, which: str):
    kind = section.get("kind", "power")
    if kind != "power":
        raise UnsupportedFamily(f"unsupported {which} family {kind!r}")
    try:
        exponent = float(section["exponent"])
        coef = float(section.get("coef", 1.0))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{which} section needs a numeric exponent") from exc
    sv = _parse_sv(section.get("slowly_varying", ""))
    if which == "weights":
        return seqkit.power_law_weights(exponent, coef=coef, sv=sv)
    return seqkit.power_law_norms(exponent, coef=coef, sv=sv)


def _canonical_text(parser: configparser.ConfigParser) -> str:
    """Stable rendering for hashing; execution-only keys are excluded so the
    hash (and hence all emitted bytes) is identical across worker counts."""
    lines = []
    for section in sorted(parser.sections()):
        for key in sorted(parser[section]):
            if section == "mc" and key == "workers":
                continue
            if section == "output":
                continue
            lines.append(f"{section}.{key}={parser[section][key]}")
    return "\n".join(lines)


def load_config(path: Optional[str], overrides: dict,
                require_sequences: bool = True,
                require_distribution: bool = True) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    for section, key, value in overrides.get("sets", ()):
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)

    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    given = {k: v for k, v in overrides.items() if v is not None}  # a flag of 0 counts
    scen = parser["scenario"] if parser.has_section("scenario") else {}
    preset_text = given.get("preset", scen.get("preset", "custom"))
    preset, args = _parse_preset(preset_text)

    eps_text = given.get("eps", scen.get("eps", "0.5,1.0"))
    try:
        eps = tuple(float(x) for x in str(eps_text).split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"malformed eps list {eps_text!r}") from exc
    if not eps or any(e <= 0.0 for e in eps):
        raise ConfigError("eps values must be positive")

    try:
        theta = float(scen.get("theta", 1.0))
        horizon = int(given.get("horizon", scen.get("horizon", 10_000)))
    except ValueError as exc:
        raise ConfigError("theta/horizon must be numeric") from exc
    if theta < 1.0:
        raise ConfigError("theta must be >= 1")
    if horizon < 4:
        raise ConfigError("horizon must be >= 4")

    mc = parser["mc"] if parser.has_section("mc") else {}
    try:
        replicates = int(given.get("replicates", mc.get("replicates", 10_000)))
        seed = int(given.get("seed", mc.get("seed", 20_240_801)))
        workers = int(given.get("workers", mc.get("workers", 1)))
    except ValueError as exc:
        raise ConfigError("mc keys must be integers") from exc
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if replicates < mcengine.MIN_REPLICATES:
        raise ConfigError(f"replicates must be >= {mcengine.MIN_REPLICATES}")

    counter_depth: Optional[int] = None
    if preset == "baum_katz":
        w, a = baum_katz_weights(args[0]), baum_katz_norms(args[1])
    elif preset in ("spataru", "spataru_weak"):
        w, a = spataru_weights(), spataru_norms()
    elif preset == "ms_counterexample":
        w, a = spataru_weights(), spataru_norms()
        counter_depth = int(args[0])
    else:
        have = parser.has_section("weights") and parser.has_section("normalizer")
        if not have and require_sequences:
            raise ConfigError("custom scenarios need [weights] and [normalizer] sections")
        if have:
            w = _parse_sequence(parser["weights"], "weights")
            a = _parse_sequence(parser["normalizer"], "normalizer")
        else:
            w, a = seqkit.power_law_weights(0.0), seqkit.power_law_norms(1.0)

    dist = None
    if parser.has_section("distribution"):
        dist = _parse_distribution(parser["distribution"])
    if dist is None and preset != "ms_counterexample" and require_distribution:
        raise ConfigError("a [distribution] section is required for this preset")

    out_dir = overrides.get("out") or (
        parser["output"].get("dir") if parser.has_section("output") else None)

    digest_src = _canonical_text(parser) + f"\npreset={preset_text}\neps={eps_text}"
    sha = hashlib.sha256(digest_src.encode()).hexdigest()
    return ScenarioConfig(preset=preset, preset_args=args, dist=dist,
                          counter_depth=counter_depth, weights=w, norms=a,
                          eps=eps, theta=theta, horizon=horizon,
                          replicates=replicates, seed=seed, workers=workers,
                          maximal=bool(overrides.get("maximal")),
                          out_dir=Path(out_dir) if out_dir else None,
                          config_sha256=sha)


# ---------------------------------------------------------------------------
# Certified envelopes for the structural cases the presets exercise
# ---------------------------------------------------------------------------


def _first_n(predicate, start: int, limit: int) -> Optional[int]:
    """Least n in [start, limit] where ``predicate`` (on an array of n) holds,
    searched in growing blocks."""
    size = 64
    while start <= limit:
        n = np.arange(start, min(start + size, limit + 1))
        hit = np.flatnonzero(predicate(n))
        if hit.size:
            return int(n[hit[0]])
        start, size = start + size, min(2 * size, 1 << 16)
    return None


def _envelope_single_tail(d, w: WeightSeq, a: NormSeq, eps: float, horizon: int):
    """Certificate for the n*w(n)*P(|X| >= eps a(n)) series, when structure permits."""
    bound = distmodel.support_bound(d)
    if bound is not None and a.tends_to_infinity():
        n0 = _first_n(lambda n: eps * a.values(n) > bound, 1, 1 << 40)
        return VanishingEnvelope(from_n=n0,
                                 description=f"bounded support {bound:g}: the tail is 0 once "
                                             f"eps*a(n) > {bound:g}")
    if d.kind == "pareto_sym" and w.family is not None and a.family is not None:
        alpha, scale = d.params
        wf, af = w.family, a.family
        n0 = _first_n(lambda n: eps * a.values(n) >= scale, 2, horizon)
        if n0 is None:
            return None
        coef = wf.coef * (scale / eps) ** alpha * af.coef ** (-alpha)
        q = alpha * af.exponent - 1.0 - wf.exponent
        sv = wf.sv.combine(af.sv, -alpha)
        if q > 1.0:
            delta = sv.growth_exponent_bound(n0)
            if q - delta > 1.0:
                return PowerEnvelope(coef=coef * sv.value(n0) * float(n0) ** delta,
                                     exponent=q - delta, from_n=n0,
                                     description="exact symmetric-Pareto tail term")
            return None
        delta = sv.decay_exponent_bound(n0)
        if q + delta <= 1.0:
            return PowerLowerBound(coef=coef * sv.value(n0) * float(n0) ** delta,
                                   exponent=q + delta, from_n=n0,
                                   description="exact symmetric-Pareto tail term stays "
                                               "above a divergent power")
        return None
    if d.kind == "normal_std" and w.family is not None and a.family is not None:
        wf = w.family
        if a.family.exponent < 0.5:
            return None
        delta = wf.sv.growth_exponent_bound(3)
        # The term is n*w(n)*erfc(x/sqrt(2)) <= n*w(n)*exp(-x^2/2) with
        # x = eps*a(n); exp(-x^2/2) <= n^-need makes it at most
        # coef * n^(1 + e + delta - need) = coef * n^-2, so the factor n
        # costs one power beyond the weight's own exponent e.
        need = 3.0 + wf.exponent + delta

        def ok(n: np.ndarray) -> np.ndarray:
            x2 = eps * eps * seqkit.libm(pow, a.values(n), 2.0)
            return x2 / 2.0 >= need * seqkit.libm(math.log, n)

        n0 = _first_n(ok, 3, horizon)
        if n0 is None or not ok(np.array([horizon // 2, horizon])).all():
            return None
        coef = wf.coef * wf.sv.value(n0) * float(n0) ** (-delta)
        return PowerEnvelope(coef=coef, exponent=2.0, from_n=n0,
                             description="Gaussian tail bound exp(-x^2/2) past the "
                                         f"crossover n={n0}")
    return None


def _spataru_shaped(a: NormSeq) -> bool:
    return (a.family is not None and a.family.exponent == 0.5
            and a.family.sv == SlowlyVarying(logn=0.5))


def _envelope_exp_term(d, w: WeightSeq, a: NormSeq, eps: float):
    """Certificate for the exponential/adaptive-exponent series."""
    vb = distmodel.second_moment_bound(d)
    if vb is None or w.family is None or a.family is None:
        return None
    wf, af = w.family, a.family
    if _spataru_shaped(a):
        q = eps * eps * af.coef ** 2 / vb - wf.exponent
        if q > 1.0 and wf.sv.is_trivial():
            return PowerEnvelope(coef=wf.coef, exponent=q, from_n=2,
                                 description=f"second moment <= {vb:g} caps the "
                                             "exponent at a summable power")
        return None
    if af.exponent >= 1.0 and af.sv.is_trivial() and wf.sv.is_trivial():
        kappa = 2.0 * af.exponent - 1.0
        c_exp = eps * eps * af.coef ** 2 / vb
        n0 = 4
        d_min = float(n0 + 1) ** kappa - float(n0) ** kappa
        ratio = math.exp(-c_exp * d_min) * (1.0 + 1.0 / n0) ** max(wf.exponent, 0.0)
        if ratio >= 1.0:
            return None
        coef = (wf.coef * float(n0) ** wf.exponent
                * math.exp(-c_exp * float(n0) ** kappa) / ratio ** n0)
        return GeometricEnvelope(coef=coef, ratio=ratio, from_n=n0,
                                 description=f"second moment <= {vb:g} gives a "
                                             "geometric decay bound")
    return None


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _thinned(n: np.ndarray, last: int) -> np.ndarray:
    """The rows a report shows: n <= 8, the powers of two, and the last n."""
    return (n <= 8) | ((n & (n - 1)) == 0) | (n == last)


def _series_with_envelope(series_id, n, terms, params, envelope, evidence=()):
    certificate = {}
    if isinstance(envelope, (PowerLowerBound, RecurringBlocks)):
        certificate["divergence"] = envelope
    elif envelope is not None:
        certificate["envelope"] = envelope
    return convergence.summarize_series(series_id, n, terms, params=params,
                                        evidence=evidence, emit=_thinned(n, int(n[-1])),
                                        **certificate)


def run_check_conditions(cfg: ScenarioConfig) -> dict:
    w, a, horizon = cfg.weights, cfg.norms, cfg.horizon
    n = np.arange(1, horizon + 1)
    values = seqkit.sequence_values(w, a, horizon)
    tau, av = values.w, values.a
    seqkit.require_nondecreasing(av[:4096])
    regularity = [
        seqkit.check_dyadic_regularity(w, horizon=horizon),
        seqkit.check_tail_domination(w, a, theta=cfg.theta, moment_power=3.0,
                                     horizon=horizon, values=values),
        seqkit.check_tail_domination(w, a, theta=cfg.theta, moment_power=2.0,
                                     horizon=horizon, values=values),
        seqkit.check_inf_growth(w, a, power=3.0, horizon=horizon, values=values),
        seqkit.check_inf_growth(w, a, power=2.0, horizon=horizon, values=values),
    ]
    series = []
    moments = []

    if cfg.preset == "ms_counterexample":
        schedule = counterexample.build_schedule(cfg.counter_depth)
        report = counterexample.verify_counterexample(schedule)
        dist = counterexample.CounterexampleDistribution(schedule)
        d = dist.to_dist()
        mom = distmodel.weighted_second_moment(d, "inv_logplus")
        moments.append({"form": "inv_logplus", "finite": mom.finite,
                        "value": mom.value, "reason": mom.reason,
                        "note": "finite inverse-growth moment "
                                f"{report.moment.value!r} certifies this"})
        floor = min(c.block_lower_bound for c in report.certificates) if \
            report.certificates else 0.0
        blocks = RecurringBlocks(
            floor=floor,
            blocks=tuple(c.m for c in report.certificates),
            description="each cutoff block of the adaptive-exponent series "
                        "is certified >= 1 in the log domain")
        grid = np.arange(2, min(horizon, 512) + 1)
        terms = convergence.adaptive_exponent_terms(d, 1.0, grid)
        if report.divergence_certified:
            series.append(_series_with_envelope(
                "adaptive-exponent", grid, terms, {"eps": 1.0}, blocks,
                evidence=("terms vanish on any double-range horizon; divergence "
                          "lives at the cutoff scales recorded in the certificates",)))
        else:
            series.append(_series_with_envelope(
                "adaptive-exponent", grid, terms, {"eps": 1.0}, None,
                evidence=("block certificates incomplete",)))
        out = {
            "provenance": cfg.provenance(),
            "regularity": [r.to_json_dict() for r in regularity],
            "series": [s.to_json_dict() for s in series],
            "moments": moments,
            "counterexample": report.to_json_dict(),
            "schedule": schedule.to_json_list(),
        }
        return out

    d = cfg.dist
    mom = distmodel.weighted_second_moment(d, "inv_logplus")
    moments.append({"form": "inv_logplus", "finite": mom.finite,
                    "value": mom.value, "reason": mom.reason})
    if cfg.preset == "spataru_weak":
        delta = cfg.preset_args[0]
        mom2 = distmodel.weighted_second_moment(d, "loglog_delta", delta=delta)
        moments.append({"form": "loglog_delta", "delta": delta,
                        "finite": mom2.finite, "value": mom2.value,
                        "reason": mom2.reason})

    for eps in cfg.eps:
        series.append(_series_with_envelope(
            "single-tail", n, convergence.single_tail_terms(d, tau, av, eps, n),
            {"eps": eps}, _envelope_single_tail(d, w, a, eps, horizon)))
        env_iii = _envelope_exp_term(d, w, a, eps)
        series.append(_series_with_envelope(
            "exponential", n, convergence.exp_terms(d, tau, av, eps, n),
            {"eps": eps}, env_iii))
        if cfg.preset in ("spataru", "spataru_weak"):
            series.append(_series_with_envelope(
                "adaptive-exponent", n[1:],
                convergence.adaptive_exponent_terms(d, eps, n[1:]), {"eps": eps}, env_iii))

    return {
        "provenance": cfg.provenance(),
        "regularity": [r.to_json_dict() for r in regularity],
        "series": [s.to_json_dict() for s in series],
        "moments": moments,
    }


def run_counterexample(cfg: ScenarioConfig,
                       schedule_path: Optional[str] = None) -> tuple[int, dict]:
    if schedule_path is not None:
        with open(schedule_path) as fh:
            payload = json.load(fh)
        items = payload["schedule"] if isinstance(payload, dict) else payload
        schedule = counterexample.CutoffSchedule.from_json_list(items)
    else:
        depth = cfg.counter_depth or 9
        schedule = counterexample.build_schedule(depth)
    report = counterexample.verify_counterexample(schedule)
    failures = [c for c in report.certificates if not c.ok]
    out = {
        "provenance": cfg.provenance(),
        "schedule": schedule.to_json_list(),
        "report": report.to_json_dict(),
    }
    if failures:
        out["first_failure"] = {"m": failures[0].m,
                                "failed_step": failures[0].failed_step}
        return EXIT_CERT_FAILED, out
    return EXIT_OK, out


def run_simulate(cfg: ScenarioConfig) -> tuple[dict, dict]:
    if cfg.preset == "ms_counterexample" or cfg.dist is None:
        raise distmodel.SamplingUnavailable(
            "the cutoff counterexample distribution cannot be sampled")
    d = cfg.dist
    grid = [2 ** j for j in range(1, 11) if 2 ** j <= max(cfg.horizon, 2)]
    reports = {}
    csvs = {}
    if cfg.maximal:
        # Exact or absent: a law without an oracle stops here, before any
        # Monte Carlo runs.
        max_grid = [n for n in grid if n <= mcengine.MAX_MAXIMAL_N]
        wv, av = cfg.weights.values(max_grid).tolist(), cfg.norms.values(max_grid).tolist()
        for eps in cfg.eps:
            terms = [wn * mcengine.exact_max_tail(d, n, eps * an)
                     for n, wn, an in zip(max_grid, wv, av)]
            max_rep = convergence.summarize_series(
                "running-maximum", max_grid, terms, params={"eps": eps},
                evidence=("exact absorbing-threshold dynamic program",))
            reports[f"max:{eps}"] = max_rep
            csvs[f"simulate_max_eps{eps:g}.csv"] = max_rep.to_csv()
    empirical = mcengine.empirical_series(
        d, cfg.weights, cfg.norms, cfg.eps, grid, cfg.replicates, cfg.seed,
        workers=cfg.workers)
    for eps, rep in zip(cfg.eps, empirical):
        reports[eps] = rep
        csvs[f"simulate_eps{eps:g}.csv"] = rep.to_csv()
    payload = {
        "provenance": cfg.provenance(),
        "series": {str(k): v.to_json_dict() for k, v in reports.items()},
    }
    return payload, csvs


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _emit(payload: dict, out_dir: Optional[Path], name: str,
          extra_files: Optional[dict] = None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text + "\n")
        for fname, content in (extra_files or {}).items():
            (out_dir / fname).write_text(content)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cclab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--preset", default=None)
        p.add_argument("--eps", default=None)
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--maximal", action="store_true")
        p.add_argument("--out", default=None)
        p.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a single config key")

    for name in ("check-conditions", "counterexample", "simulate", "estimate"):
        p = sub.add_parser(name)
        common(p)
        if name == "counterexample":
            p.add_argument("--schedule", default=None,
                           help="replay and certify a schedule JSON instead of building one")
        if name == "estimate":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--threshold", type=float, required=True)

    p = sub.add_parser("report-merge")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    return parser


def _overrides_from_args(args) -> dict:
    sets = []
    for item in args.set:
        try:
            target, value = item.split("=", 1)
            section, key = target.split(".", 1)
        except ValueError as exc:
            raise ConfigError(f"malformed --set {item!r}") from exc
        sets.append((section, key, value))
    return {
        "preset": args.preset, "eps": args.eps, "horizon": args.horizon,
        "replicates": args.replicates, "seed": args.seed,
        "workers": args.workers, "maximal": args.maximal, "out": args.out,
        "sets": sets,
    }


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report-merge":
            merged = {"reports": []}
            for path in args.inputs:
                try:
                    with open(path) as fh:
                        merged["reports"].append({"path": path, "report": json.load(fh)})
                except (OSError, json.JSONDecodeError) as exc:
                    raise ConfigError(f"cannot read report {path}: {exc}") from exc
            text = json.dumps(merged, sort_keys=True, indent=2)
            Path(args.out).write_text(text + "\n")
            print(text)
            return EXIT_OK

        # A replayed schedule is the whole scenario, so it needs neither
        # sequences nor a distribution.
        replay = args.command == "counterexample" and args.schedule is not None
        cfg = load_config(args.config, _overrides_from_args(args),
                          require_sequences=args.command != "estimate" and not replay,
                          require_distribution=not replay)
        if args.command == "check-conditions":
            payload = run_check_conditions(cfg)
            _emit(payload, cfg.out_dir, "check_conditions.json")
            return EXIT_OK
        if args.command == "counterexample":
            code, payload = run_counterexample(cfg, schedule_path=args.schedule)
            _emit(payload, cfg.out_dir, "counterexample.json")
            return code
        if args.command == "simulate":
            payload, csvs = run_simulate(cfg)
            _emit(payload, cfg.out_dir, "simulate.json", extra_files=csvs)
            return EXIT_OK
        if args.command == "estimate":
            if args.n < 1:
                raise ConfigError("--n must be >= 1")
            if not math.isfinite(args.threshold):
                raise ConfigError("--threshold must be finite")
            if cfg.dist is None:
                raise distmodel.SamplingUnavailable(
                    "no samplable distribution configured")
            est = mcengine.estimate_tail(cfg.dist, args.n, args.threshold,
                                         cfg.replicates, cfg.seed,
                                         workers=cfg.workers)
            payload = {"estimate": est.to_json_dict(),
                       "provenance": cfg.provenance()}
            _emit(payload, cfg.out_dir, "estimate.json")
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedFamily as exc:
        print(f"unsupported family: {exc}", file=sys.stderr)
        return EXIT_FAMILY
    except distmodel.SamplingUnavailable as exc:
        print(f"sampling unavailable: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except mcengine.OracleUnavailable as exc:
        print(f"unsupported distribution: {exc}", file=sys.stderr)
        return EXIT_FAMILY
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
