"""Scenario runner: config parsing, presets, certified reports, CSV/JSON output.

Subcommands: check-conditions, counterexample, simulate, estimate,
report-merge.  Configs are INI files (flat key=value pairs under sections,
diffable, one file per scenario); flags override file keys.  Verdicts are
data inside the reports; exit codes only signal operational failures:

    0  ran to completion
    1  a divergence certificate failed (counterexample subcommand)
    2  config parse/validation error, non-finite numbers included; also a
       ``counterexample --schedule`` file that cannot be read, is not JSON or
       is not a schedule of 1 to MAX_DEPTH cutoffs at levels 0 and 1
       numbered m = 1..len, or holds a cutoff for which the integral bound
       certifies no block end; weights or a normalizer that are negative,
       non-finite, decreasing or overflow doubles; configured magnitudes
       whose powers overflow; an exponential or adaptive-exponent term
       whose exponent is NaN because its parts left the doubles (any NaN T
       counts as such); a least cutoff eps * a(1) that underflows to 0;
       ``counterexample`` without ``--schedule`` under any preset but
       ``ms_counterexample(d)``, a replay under any preset but
       ``ms_counterexample(d)`` of the schedule's depth d, and
       ``counterexample`` given a key it does not read (a [distribution],
       [weights] or [normalizer] section, ``scenario.eps``, ``horizon`` or
       ``theta``, or ``mc.replicates``); a distribution key that the
       configured kind does not read;
       an ``--out`` path that cannot be written; a size (such as
       ``--horizon``) whose arrays cannot be allocated; and an option the
       command does not take (only ``simulate`` takes ``--maximal``), as
       argparse's usage error
    3  unsupported distribution or sequence family; also ``simulate
       --maximal`` on a law without an exact oracle (no atoms, atoms off
       any short decimal lattice, or a lattice too wide), since the
       running-maximum series is exact or absent
    4  sampling unavailable for the configured distribution; also a Monte
       Carlo sum whose steps overflow to both +inf and -inf (pareto_sym with
       a small alpha), since |S_n| then has no float value; and uniform_sym
       at n >= 2^36, past its bit planes, before any draw
    5  internal error: a check inside the program failed (for example a
       registered envelope violated); one line on stderr, no traceback

A reader that closes stdout early (``| head -1``) leaves the exit code as
it is above.

``counterexample --schedule FILE`` replays the schedule in FILE and needs
no preset; without ``--schedule`` it builds ``ms_counterexample(d)`` and
nothing else.  Of a config it reads the preset and ``mc.seed``, which its
provenance prints, and refuses the keys that only other commands read.

check-conditions keeps its law-independent half (``_sequence_half``) for the
2 most recent (weights, normalizer, horizon, theta), at horizons up to 2^17.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, convergence, counterexample, distmodel, mcengine, seqkit
from .convergence import RecurringBlocks
from .reports import json_text
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


# The keys each distribution kind reads besides its kind; any other is refused.
_DISTRIBUTION_KEYS = {"rademacher": (), "uniform_sym": ("half_width",), "normal_std": (),
                      "pareto_sym": ("alpha", "scale"), "atomic_sym": ("atoms",)}

_ALLOWED_KEYS = {
    "scenario": {"preset", "eps", "theta", "horizon"},
    "distribution": {"kind"}.union(*_DISTRIBUTION_KEYS.values()),
    "weights": {"kind", "exponent", "coef", "slowly_varying"},
    "normalizer": {"kind", "exponent", "coef", "slowly_varying"},
    "mc": {"replicates", "seed", "workers"},
    "output": {"dir"},
}

# The config key each flag sets.  Flags are applied after the --set entries,
# so they win, and the hash sees every key however it was given.
_FLAG_KEYS = {
    "preset": ("scenario", "preset"), "eps": ("scenario", "eps"),
    "horizon": ("scenario", "horizon"), "replicates": ("mc", "replicates"),
    "seed": ("mc", "seed"), "workers": ("mc", "workers"), "out": ("output", "dir"),
}

_PRESET_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?$")
_MEMO_MAX_HORIZON = 1 << 17  # so _sequence_half's two entries keep at most 4 MiB of columns


# ---------------------------------------------------------------------------
# Presets and families
# ---------------------------------------------------------------------------

# Equal arguments give one shared sequence object: _sequence_half's key is what it is.
_shared = functools.lru_cache(maxsize=16)


@_shared
def spataru_weights() -> WeightSeq:
    return seqkit.power_law_weights(-1.0, name="1/n")


@_shared
def spataru_norms() -> NormSeq:
    """(n log n)^(1/2), with a(1) = 1."""
    fam = PowerLawFamily(exponent=0.5, sv=SlowlyVarying(logn=0.5))
    return NormSeq(fn=lambda n: np.where(n == 1, 1.0, np.sqrt(n * seqkit.libm(math.log, n))),
                   name="(n log n)^(1/2)", family=fam)


@_shared
def baum_katz_weights(r: float) -> WeightSeq:
    return seqkit.power_law_weights(r - 2.0, name=f"n^{r - 2:g}")


@_shared
def baum_katz_norms(p: float) -> NormSeq:
    return seqkit.power_law_norms(1.0 / p, name=f"n^(1/{p:g})")


@dataclass
class ScenarioConfig:
    preset: str
    preset_args: tuple
    dist: Optional[distmodel.Dist]
    weights: WeightSeq
    norms: NormSeq
    eps: tuple[float, ...]
    theta: float
    horizon: int
    replicates: int
    seed: int
    workers: int
    out_dir: Optional[Path]
    config_sha256: str
    given: frozenset  # the (section, key) pairs the config and flags set

    def provenance(self) -> dict:
        return {
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "preset": self.preset,
            "versions": {"cclab": __version__, "numpy": np.__version__},
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
        if not (1.0 <= r < math.inf and 0.0 < p < 2.0):
            raise ConfigError("baum_katz requires finite r >= 1 and 0 < p < 2")
    elif name in ("spataru", "custom"):
        if args:
            raise ConfigError(f"{name} takes no arguments")
    elif name == "spataru_weak":
        if len(args) != 1 or not 0.0 < args[0] < math.inf:
            raise ConfigError("spataru_weak needs (delta) with finite delta > 0")
    elif name == "ms_counterexample":
        if len(args) != 1 or args[0] not in range(1, 17):
            raise ConfigError("ms_counterexample needs an integer depth in 1..16")
    else:
        raise ConfigError(f"unknown preset {name!r}")
    return name, args


_SV_FACTORS = {"log_power": "log2p", "loglog_power": "loglog", "plainlog_power": "logn"}


def _entries(text: str, what: str, key=str):
    """The ``key:value`` entries of the comma-separated list ``text``, as
    (key(k), float(v)), each parsed as it is taken."""
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k, v = part.split(":")
            entry = key(k), float(v)
        except ValueError as exc:
            raise ConfigError(f"malformed {what} entry {part!r}") from exc
        yield entry


def _parse_sv(text: str) -> SlowlyVarying:
    kw = {}
    for key, val in _entries(text, "slowly_varying"):
        if key not in _SV_FACTORS:
            raise UnsupportedFamily(f"unknown slowly varying factor {key!r}")
        kw[_SV_FACTORS[key]] = val
    return SlowlyVarying(**kw)


def _parse_distribution(section) -> distmodel.Dist:
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("distribution section needs a kind")
    if kind not in _DISTRIBUTION_KEYS:
        raise UnsupportedFamily(f"unsupported distribution kind {kind!r}")
    unread = sorted(set(section) - {"kind", *_DISTRIBUTION_KEYS[kind]})
    if unread:
        raise ConfigError(f"distribution kind {kind!r} reads no key {unread[0]!r}")
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
        if "atoms" not in section:  # the one kind left, atomic_sym
            raise ConfigError("atomic_sym needs an atoms table")
        return distmodel.atomic_sym(_entries(section["atoms"], "atom", key=float))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid distribution parameters: {exc}") from exc


def _parse_sequence(section, which: str):
    return _power_sequence(which, section.get("kind", "power"), section.get("exponent"),
                           section.get("coef", "1"), section.get("slowly_varying", ""))


@_shared  # keyed by the text, so "-0" and "0" stay apart
def _power_sequence(which: str, kind: str, exponent: Optional[str], coef: str, sv: str):
    if kind != "power":
        raise UnsupportedFamily(f"unsupported {which} family {kind!r}")
    try:
        exponent, coef = float(exponent), float(coef)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{which} section needs a numeric exponent") from exc
    sv = _parse_sv(sv)
    if which == "weights":
        return seqkit.power_law_weights(exponent, coef=coef, sv=sv)
    return seqkit.power_law_norms(exponent, coef=coef, sv=sv)


def _canonical_text(parser: configparser.ConfigParser) -> str:
    """Stable rendering for hashing; execution-only keys are excluded so the
    hash (and hence all emitted bytes) is identical across worker counts."""
    lines = []
    for section in sorted(parser.sections()):
        for key in sorted(parser[section]):
            if section == "output" or (section, key) == ("mc", "workers"):
                continue
            lines.append(f"{section}.{key}={parser[section][key]}")
    return "\n".join(lines)


def load_config(path: Optional[str], sets: list,
                require_sequences: bool = True,
                require_distribution: bool = True) -> ScenarioConfig:
    """The scenario in the config file at ``path`` (if any), with ``sets``,
    a list of (section, key, value), applied in order."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    for section, key, value in sets:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)

    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    scen = parser["scenario"] if parser.has_section("scenario") else {}
    preset, args = _parse_preset(scen.get("preset", "custom"))

    eps_text = scen.get("eps", "0.5,1.0")
    try:
        eps = tuple(float(x) for x in str(eps_text).split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"malformed eps list {eps_text!r}") from exc
    if not eps or not all(0.0 < e < math.inf for e in eps):
        raise ConfigError("eps values must be finite and positive")

    try:
        theta = float(scen.get("theta", 1.0))
        horizon = int(scen.get("horizon", 10_000))
    except ValueError as exc:
        raise ConfigError("theta/horizon must be numeric") from exc
    if not 1.0 <= theta < math.inf:
        raise ConfigError("theta must be finite and >= 1")
    if horizon < 4:
        raise ConfigError("horizon must be >= 4")

    mc = parser["mc"] if parser.has_section("mc") else {}
    try:
        replicates = int(mc.get("replicates", 10_000))
        seed = int(mc.get("seed", 20_240_801))
        workers = int(mc.get("workers", 1))
    except ValueError as exc:
        raise ConfigError("mc keys must be integers") from exc
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if replicates < mcengine.MIN_REPLICATES:
        raise ConfigError(f"replicates must be >= {mcengine.MIN_REPLICATES}")

    if preset == "baum_katz":
        w, a = baum_katz_weights(args[0]), baum_katz_norms(args[1])
    elif preset in ("spataru", "spataru_weak", "ms_counterexample"):
        w, a = spataru_weights(), spataru_norms()
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

    out_dir = parser["output"].get("dir") if parser.has_section("output") else None
    sha = hashlib.sha256(_canonical_text(parser).encode()).hexdigest()
    return ScenarioConfig(preset=preset, preset_args=args, dist=dist, weights=w, norms=a,
                          eps=eps, theta=theta, horizon=horizon,
                          replicates=replicates, seed=seed, workers=workers,
                          out_dir=Path(out_dir) if out_dir else None,
                          config_sha256=sha,
                          given=frozenset((s, k) for s in parser.sections() for k in parser[s]))


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def _sequence_half(w: WeightSeq, a: NormSeq, horizon: int, theta: float) -> tuple:
    """The law-independent half of check-conditions: the read-only w and a
    columns over 1..horizon and the regularity reports, kept for the 2 most
    recent keys up to _MEMO_MAX_HORIZON; T_n is freed."""
    try:  # past the double range, numpy gives inf silently and Python raises
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = seqkit.sequence_values(w, a, horizon)
            regularity = (
                seqkit.check_dyadic_regularity(w, values),
                seqkit.check_tail_domination(w, a, values, theta=theta, moment_power=3.0),
                seqkit.check_tail_domination(w, a, values, theta=theta, moment_power=2.0),
                seqkit.check_inf_growth(w, a, values, power=3.0),
                seqkit.check_inf_growth(w, a, values, power=2.0),
            )
    except OverflowError as exc:
        raise ConfigError(f"the weights or normalizer overflow doubles: {exc}") from exc
    if not math.isfinite(values.t[-1]):
        k = int(np.argmin(np.isfinite(values.t))) + 1
        raise ConfigError(f"T_n = sum k w(k) overflows doubles at n={k}")
    for r in regularity:
        for key, v in r.constants.items():
            if not math.isfinite(v):
                raise ConfigError(f"{r.condition_id} constant {key} = {v!r} is not finite")
    values.w.flags.writeable = values.a.flags.writeable = False
    return values.w, values.a, regularity


def run_check_conditions(cfg: ScenarioConfig) -> dict:
    w, a, horizon = cfg.weights, cfg.norms, cfg.horizon
    n = np.arange(1, horizon + 1)
    try:  # past the horizon budget, or with an unhashable field, computed and never kept
        hash((w, a))
        half = _sequence_half if horizon <= _MEMO_MAX_HORIZON else _sequence_half.__wrapped__
    except TypeError:
        half = _sequence_half.__wrapped__
    tau, av, regularity = half(w, a, horizon, cfg.theta)
    series, moments, extra = [], [], {}
    if cfg.preset == "ms_counterexample":
        schedule = counterexample.build_schedule(int(cfg.preset_args[0]))
        report = counterexample.verify_counterexample(schedule)
        dist = counterexample.CounterexampleDistribution(schedule)
        moments.append({"form": "inv_logplus", "finite": True,
                        "value": dist.weighted_second_moment(), "reason": "",
                        "note": f"finite inverse-growth moment {report.moment_value!r} "
                                "certifies this"})
        floor = min((c.block_lower_bound for c in report.certificates), default=0.0)
        blocks = RecurringBlocks(
            floor=floor,
            blocks=tuple(c.m for c in report.certificates),
            description="each cutoff block of the adaptive-exponent series "
                        "is certified >= 1 in the log domain")
        grid = np.arange(2, min(horizon, 512) + 1)
        certified = report.divergence_certified
        series.append(convergence.summarize_series(
            "adaptive-exponent", grid, convergence.adaptive_exponent_terms(
                1.0, grid, dist.truncated_second_moments(a.values(grid))),
            {"eps": 1.0}, blocks if certified else None,
            evidence=("terms vanish on any double-range horizon; divergence lives at "
                      "the cutoff scales recorded in the certificates" if certified
                      else "block certificates incomplete",)))
        extra = {"counterexample": report.to_json_dict(), "schedule": schedule.to_json_list()}
    else:
        # a is nondecreasing, so a(1) gives the least cutoff
        least, a1 = min(cfg.eps), float(av[0])  # Python floats: no warning on overflow
        if not least * a1 > 0.0:
            raise ConfigError(f"the cutoff eps * a(1) = {least!r} * {a1!r} underflows to 0")
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
            series.append(convergence.summarize_series(
                "single-tail", n, convergence.single_tail_terms(d, tau, av, eps, n),
                {"eps": eps}, convergence.single_tail_certificate(d, w, a, eps, horizon)))
            # The exp and adaptive series share T and the envelope, evaluated
            # after the terms so that fewer columns are live.  The adaptive cut
            # eps (n log n)^(1/2) is eps * a(n) bit for bit on these presets.
            env_iii = convergence.exp_certificate(d, w, a, eps)
            with np.errstate(over="ignore"):  # at an inf cutoff T is E X^2
                cut = eps * av
            t = distmodel.truncated_second_moments(d, cut)
            series.append(convergence.summarize_series(
                "exponential", n, convergence.exp_terms(tau, av, eps, n, t), {"eps": eps},
                env_iii, bound=(bound := None if env_iii is None else env_iii.values_at(n))))
            if cfg.preset in ("spataru", "spataru_weak"):
                series.append(convergence.summarize_series(
                    "adaptive-exponent", n[1:],
                    convergence.adaptive_exponent_terms(eps, n[1:], t[1:]),
                    {"eps": eps}, env_iii,
                    bound=None if bound is None else bound[1:]))
            del t, cut, bound  # before the next eps allocates its columns

    return {
        "provenance": cfg.provenance(),
        "regularity": [r.to_json_dict() for r in regularity],
        "series": [s.to_json_dict() for s in series],
        "moments": moments,
        **extra,
    }


def _read_schedule(path: str) -> counterexample.CutoffSchedule:
    """The schedule in a counterexample report, or a bare schedule list, at ``path``."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read schedule {path}: {exc}") from exc
    try:
        items = payload["schedule"] if isinstance(payload, dict) else payload
        return counterexample.CutoffSchedule.from_json_list(items)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed schedule {path}: {type(exc).__name__} {exc}") from exc


# What counterexample reads of a config: its preset, the seed its provenance
# prints, and the keys that change no byte of a report.
_COUNTEREXAMPLE_KEYS = {("scenario", "preset"), ("mc", "seed"), ("mc", "workers"),
                        ("output", "dir")}


def run_counterexample(cfg: ScenarioConfig,
                       schedule_path: Optional[str] = None) -> tuple[int, dict]:
    if schedule_path is not None:
        schedule = _read_schedule(schedule_path)
        depth = schedule.m_max
        if cfg.preset != "custom" and (cfg.preset, cfg.preset_args) != ("ms_counterexample",
                                                                         (depth,)):
            given = ",".join(f"{x:g}" for x in cfg.preset_args)
            raise ConfigError(f"a replayed schedule of depth {depth} takes no preset or "
                              f"'ms_counterexample({depth})', not "
                              f"{cfg.preset + (f'({given})' if given else '')!r}")
    elif cfg.preset == "ms_counterexample":
        schedule = counterexample.build_schedule(int(cfg.preset_args[0]))
    else:
        raise ConfigError("counterexample needs --preset 'ms_counterexample(d)' or --schedule, "
                          f"not preset {cfg.preset!r}")
    unread = sorted(cfg.given - _COUNTEREXAMPLE_KEYS)
    if unread:
        section, key = unread[0]
        if section in ("distribution", "weights", "normalizer"):
            raise ConfigError(f"counterexample reads no [{section}] section")
        raise ConfigError(f"counterexample reads no {section}.{key}")
    try:
        report = counterexample.verify_counterexample(schedule)
    except counterexample.BlockEndUnavailable as exc:
        if schedule_path is None:
            raise
        raise ConfigError(f"cutoff past the block-end route's range in schedule "
                          f"{schedule_path}: {exc}") from exc
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


def run_simulate(cfg: ScenarioConfig, maximal: bool) -> tuple[dict, dict]:
    if cfg.preset == "ms_counterexample" or cfg.dist is None:
        raise distmodel.SamplingUnavailable(
            "the cutoff counterexample distribution cannot be sampled")
    d = cfg.dist
    grid = [2 ** j for j in range(1, 11) if 2 ** j <= max(cfg.horizon, 2)]
    seqkit.require_nondecreasing(cfg.norms.values(np.arange(1, grid[-1] + 1)))
    reports, tables = {}, {}  # tables: CSV file name -> report
    if maximal:
        # Exact or absent: a law without an oracle stops here, before any
        # Monte Carlo runs.
        max_grid = [n for n in grid if n <= mcengine.MAX_MAXIMAL_N]
        wv, av = cfg.weights.values(max_grid).tolist(), cfg.norms.values(max_grid).tolist()
        for eps in cfg.eps:
            terms = [wn * mcengine.max_tail_profile(d, n, eps * an)[-1]
                     for n, wn, an in zip(max_grid, wv, av)]
            max_rep = convergence.summarize_series(
                "running-maximum", max_grid, terms, params={"eps": eps},
                evidence=("exact absorbing-threshold dynamic program",))
            reports[f"max:{eps}"] = tables[f"simulate_max_eps{eps:g}.csv"] = max_rep
    empirical = mcengine.empirical_series(
        d, cfg.weights, cfg.norms, cfg.eps, grid, cfg.replicates, cfg.seed,
        workers=cfg.workers)
    for eps, rep in zip(cfg.eps, empirical):
        reports[eps] = tables[f"simulate_eps{eps:g}.csv"] = rep
    payload = {
        "provenance": cfg.provenance(),
        "series": {str(k): v.to_json_dict() for k, v in reports.items()},
    }
    # CSV text is only written with --out
    csvs = {} if cfg.out_dir is None else {k: v.to_csv() for k, v in tables.items()}
    return payload, csvs


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _print_stdout(text: str) -> None:
    """Print ``text``.  If the reader closed stdout early, fd 1 is pointed at
    devnull, so that the flush at exit cannot raise again."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(payload: dict, out_dir: Optional[Path], name: str,
          extra_files: Optional[dict] = None) -> None:
    """Print the report, after writing it and ``extra_files`` under ``out_dir``."""
    text = json_text(payload)
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / name).write_text(text + "\n")
            for fname, content in (extra_files or {}).items():
                (out_dir / fname).write_text(content)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out_dir}: {exc}") from exc
    _print_stdout(text)


_COMMANDS = ("check-conditions", "counterexample", "simulate", "estimate", "report-merge")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of all five commands, built once per process."""
    parser = argparse.ArgumentParser(prog="cclab")
    sub = parser.add_subparsers(dest="command", required=True)

    # the shared options, built once, and simulate's, which add --maximal in
    # their midst; argparse copies the --set list before appending
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None)
    common.add_argument("--preset", default=None)
    common.add_argument("--eps", default=None)
    common.add_argument("--horizon", type=int, default=None)
    common.add_argument("--replicates", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--workers", type=int, default=None)
    with_maximal = argparse.ArgumentParser(add_help=False, parents=[common])
    with_maximal.add_argument("--maximal", action="store_true")
    for options in (common, with_maximal):
        options.add_argument("--out", default=None)
        options.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                             help="override a single config key")

    for name in _COMMANDS:
        if name == "report-merge":
            p = sub.add_parser(name)
            p.add_argument("inputs", nargs="+")
            p.add_argument("--out", required=True)
            continue
        p = sub.add_parser(name, parents=[with_maximal if name == "simulate" else common])
        if name == "counterexample":
            p.add_argument("--schedule", default=None,
                           help="replay and certify a schedule JSON instead of building one")
        if name == "estimate":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--threshold", type=float, required=True)
    return parser


def _sets_from_args(args) -> list:
    sets = []
    for item in args.set:
        try:
            target, value = item.split("=", 1)
            section, key = target.split(".", 1)
        except ValueError as exc:
            raise ConfigError(f"malformed --set {item!r}") from exc
        sets.append((section, key, value))
    for flag, (section, key) in _FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is not None:  # a flag of 0 counts
            sets.append((section, key, str(value)))
    return sets


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    try:
        if args.command == "report-merge":
            merged = {"reports": []}
            for path in args.inputs:
                try:
                    with open(path) as fh:
                        merged["reports"].append({"path": path, "report": json.load(fh)})
                except (OSError, json.JSONDecodeError) as exc:
                    raise ConfigError(f"cannot read report {path}: {exc}") from exc
            text = json_text(merged)
            try:
                Path(args.out).write_text(text + "\n")
            except OSError as exc:
                raise ConfigError(f"cannot write --out {args.out}: {exc}") from exc
            _print_stdout(text)
            return EXIT_OK

        # counterexample reads neither sequences nor a distribution: its
        # preset or its replayed schedule is the whole scenario.
        cfg = load_config(args.config, _sets_from_args(args),
                          require_sequences=args.command in ("check-conditions", "simulate"),
                          require_distribution=args.command != "counterexample")
        if args.command == "check-conditions":
            payload = run_check_conditions(cfg)
            _emit(payload, cfg.out_dir, "check_conditions.json")
            return EXIT_OK
        if args.command == "counterexample":
            code, payload = run_counterexample(cfg, schedule_path=args.schedule)
            _emit(payload, cfg.out_dir, "counterexample.json")
            return code
        if args.command == "simulate":
            payload, csvs = run_simulate(cfg, args.maximal)
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
            (est,) = mcengine.estimate_tail(cfg.dist, args.n, [args.threshold],
                                            cfg.replicates, cfg.seed, workers=cfg.workers)
            payload = {"estimate": est.to_json_dict(),
                       "provenance": cfg.provenance()}
            _emit(payload, cfg.out_dir, "estimate.json")
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, seqkit.SequenceError, MemoryError) as exc:
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
    except OverflowError as exc:  # a configured magnitude whose powers leave doubles
        print(f"config error: a value past the double range: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
