"""Scenario runner: config parsing, presets, certified reports, CSV/JSON output.

Subcommands: check-conditions, counterexample, simulate, estimate,
report-merge.  Configs are INI files (flat key=value pairs under sections,
diffable, one file per scenario); flags override file keys.  Verdicts are
data inside the reports; exit codes only signal operational failures, each
from 2 on with one line on stderr and no traceback:

    0  ran to completion; also ``-h`` or ``--help``, which print the usage
    1  a divergence certificate failed (counterexample subcommand)
    2  a malformed command line: no or an unknown command, an option the command
       does not take (a prefix included), an option without its value, a value for
       ``--maximal``, a word no option takes, ``report-merge`` without reports or
       ``--out``; a config parse/validation error, non-finite numbers included; also
       a config file or ``report-merge`` input that cannot be read or is not UTF-8,
       and a ``counterexample --schedule`` file that cannot be read, is not JSON or
       is not a schedule of 1 to MAX_DEPTH cutoffs at levels 0 and 1 numbered
       m = 1..len, or holds a cutoff for which the integral bound certifies no block
       end; weights or a normalizer that are negative, non-finite, decreasing or
       overflow doubles; configured magnitudes whose powers overflow; an exponential
       or adaptive-exponent term whose exponent is NaN because its parts left the
       doubles (any NaN T counts as such); a least cutoff eps * a(1) that underflows
       to 0; ``counterexample`` without ``--schedule`` under any preset but
       ``ms_counterexample(d)``, a replay under any preset but
       ``ms_counterexample(d)`` of the schedule's depth d; ``simulate`` under
       ``ms_counterexample(d)``, whose law has no sampler; a key the command does
       not read (``check-conditions --seed`` included), a required key it is not
       given (``estimate`` without ``--n``) and a value its row refuses (a
       ``--horizon`` past 2^53 included); an unwritable ``--out`` path; and a
       ``--horizon`` whose arrays cannot be allocated
    3  unsupported distribution kind or slowly varying factor; also
       ``simulate --maximal`` on a law without an exact oracle (no atoms,
       atoms off any short decimal lattice, or a lattice too wide), since
       the running-maximum series is exact or absent
    4  sampling unavailable for the configured distribution; also a Monte
       Carlo sum whose + and - parts both overflow, or a walk whose running
       sum meets +inf and -inf (pareto_sym with a small alpha), since |S_n|
       then has no float value; and uniform_sym at n >= 2^36, past its bit
       planes, before any draw
    5  internal error: a check inside the program failed (for example a
       registered envelope violated)

A reader that closes stdout early (``| head -1``) leaves the exit code as
it is above.

Each command refuses any key outside its read-set in ``_READS`` (a named
preset fixes the sequences, ``ms_counterexample(d)`` the law and eps too,
and a distribution kind its own keys) and parses each key it reads by its
row in ``_ROWS``.  ``config_sha256`` hashes the values read, as parsed, so
runs that read equal values print one hash, and the provenance prints the
seed and the preset only where they are read.  A ``[DEFAULT]`` section is
an ordinary section.  ``counterexample --schedule FILE`` replays
the schedule in FILE and needs no preset.

check-conditions keeps its law-independent half (``_sequence_half``) for the
2 most recent (weights, normalizer, horizon, theta), at horizons up to 2^17.
"""

from __future__ import annotations

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


# Each distribution kind's constructor and the keys it reads besides its kind,
# in argument order.
_LAWS = {"rademacher": (distmodel.rademacher, ()),
         "uniform_sym": (distmodel.uniform_sym, ("half_width",)),
         "normal_std": (distmodel.normal_std, ()),
         "pareto_sym": (distmodel.pareto_sym, ("alpha", "scale")),
         "atomic_sym": (distmodel.atomic_sym, ("atoms",))}
_LAW_KEYS = frozenset(("distribution", k) for k in {"kind"}.union(*(k for _, k in _LAWS.values())))
_POWER_KEYS = ("exponent", "coef", "slowly_varying")
_SEQUENCE_KEYS = frozenset((s, k) for s in ("weights", "normalizer") for k in _POWER_KEYS)
_MC_KEYS = frozenset(("mc", k) for k in ("replicates", "seed", "workers"))
# Keys that change no byte of a report: the hash leaves them out, so the bytes
# are identical across worker counts.  Every command takes output.dir.
_EXECUTION_KEYS = frozenset({("mc", "workers"), ("output", "dir")})

# The (section, key) pairs each command reads; only the commands that draw read [mc].
_READS = {command: frozenset(keys) | {("output", "dir")} for command, keys in {
    "check-conditions": {("scenario", "preset"), ("scenario", "eps"), ("scenario", "theta"),
                         ("scenario", "horizon"), *_SEQUENCE_KEYS, *_LAW_KEYS},
    "simulate": {("scenario", "preset"), ("scenario", "eps"), ("scenario", "horizon"),
                 ("scenario", "maximal"), *_MC_KEYS, *_SEQUENCE_KEYS, *_LAW_KEYS},
    "estimate": {("scenario", "n"), ("scenario", "threshold"), *_MC_KEYS, *_LAW_KEYS},
    "counterexample": {("scenario", "preset")},
}.items()}

# The config key each flag sets to its text (--maximal: "true").  Flags are applied
# after the --set entries, so they win, and the hash sees every key however given.
_FLAG_KEYS = {
    "preset": ("scenario", "preset"), "eps": ("scenario", "eps"),
    "horizon": ("scenario", "horizon"), "n": ("scenario", "n"),
    "threshold": ("scenario", "threshold"), "maximal": ("scenario", "maximal"),
    "replicates": ("mc", "replicates"), "seed": ("mc", "seed"), "workers": ("mc", "workers"),
    "out": ("output", "dir"),
}
_COMMANDS = ("check-conditions", "counterexample", "simulate", "estimate", "report-merge")
_USAGE = "\n".join((
    "usage: cclab COMMAND [--config FILE] [--set SECTION.KEY=VALUE]... [--FLAG VALUE]...",
    "       cclab report-merge REPORT... --out FILE",
    f"commands: {', '.join(_COMMANDS)}; counterexample also takes --schedule FILE",
    "flags, each setting its key after the --set entries (--maximal takes no value):",
    *(f"  --{flag:<12}{s}.{k}" for flag, (s, k) in _FLAG_KEYS.items())))

_PRESET_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?$")
_MEMO_MAX_HORIZON = 1 << 17  # so _sequence_half's two entries keep at most 4 MiB of columns


# ---------------------------------------------------------------------------
# Presets and families
# ---------------------------------------------------------------------------


def _shared(fn):
    """Equal arguments give one shared object, so _sequence_half's key is what it
    is.  The arguments' repr is part of the key, which keeps -0.0 and 0.0 apart."""
    cached = functools.lru_cache(maxsize=16)(lambda key, *args: fn(*args))
    return functools.wraps(fn)(lambda *args: cached(repr(args), *args))


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
    preset: Optional[str]  # the text of scenario.preset, stripped; "custom" if not given
    preset_name: str
    preset_args: tuple
    dist: Optional[distmodel.Dist]
    weights: Optional[WeightSeq]
    norms: Optional[NormSeq]
    out_dir: Optional[Path]
    config_sha256: str
    seed: Optional[int] = None
    workers: Optional[int] = None
    eps: Optional[tuple[float, ...]] = None
    theta: Optional[float] = None
    horizon: Optional[int] = None
    n: Optional[int] = None
    threshold: Optional[float] = None
    maximal: Optional[bool] = None
    replicates: Optional[int] = None  # None: a scalar key the command does not read

    def provenance(self) -> dict:
        """The hash, and the seed and preset where the command reads them."""
        read = {"seed": self.seed, "preset": self.preset}
        return {"config_sha256": self.config_sha256,
                **{key: value for key, value in read.items() if value is not None},
                "versions": {"cclab": __version__, "numpy": np.__version__}}


# Each preset's argument count, the rule on its arguments and the rule's words.
_PRESETS = {
    "custom": (0, lambda: True, "custom with no arguments"),
    "spataru": (0, lambda: True, "spataru with no arguments"),
    "spataru_weak": (1, lambda delta: 0.0 < delta < math.inf,
                     "spataru_weak(delta) with finite delta > 0"),
    "baum_katz": (2, lambda r, p: 1.0 <= r < math.inf and 0.0 < p < 2.0,
                  "baum_katz(r, p) with finite r >= 1 and 0 < p < 2"),
    "ms_counterexample": (1, lambda d: d in range(1, counterexample.MAX_DEPTH + 1),
                          "ms_counterexample(d) with an integer d in "
                          f"1..{counterexample.MAX_DEPTH}"),
}


def _parse_preset(text: str) -> tuple[str, tuple]:
    m = _PRESET_RE.match(text)
    name, raw = m.groups() if m else (None, None)
    count, rule, words = _PRESETS.get(name, (None, None, f"one of {', '.join(_PRESETS)}"))
    try:
        args = tuple(float(x) for x in raw.split(",")) if raw else ()
    except ValueError:
        args = None
    if args is None or len(args) != count or not rule(*args):
        raise ConfigError(f"scenario.preset must be {words}, not {text!r}")
    return name, args


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
    fields, kw = {row.name: row.field for row in seqkit.SV_FACTORS}, {}
    for key, val in _entries(text, "slowly_varying"):
        if key not in fields:
            raise UnsupportedFamily(f"unknown slowly varying factor {key!r}")
        kw[fields[key]] = val
    return SlowlyVarying(**kw)


def _parse_kind(text: str) -> str:
    if text not in _LAWS:
        raise UnsupportedFamily(f"unsupported distribution kind {text!r}")
    return text


def _any(value) -> bool:
    return True


@_shared
def _power_sequence(which: str, exponent: float, coef: float, sv: SlowlyVarying):
    if which == "weights":
        return seqkit.power_law_weights(exponent, coef=coef, sv=sv)
    return seqkit.power_law_norms(exponent, coef=coef, sv=sv)


# One row per key a command reads, in the order they are read: its parse, its
# default text (None: the key is required), the rule on the parsed value and
# the rule's words.  A parse may refuse in its own words (a preset, an entry, a kind).
_ROWS = {
    ("scenario", "preset"): (_parse_preset, "custom", _any, f"one of {', '.join(_PRESETS)}"),
    ("scenario", "eps"): (lambda text: tuple(float(x) for x in text.split(",") if x.strip()),
                          "0.5,1.0", lambda eps: eps and len(set(eps)) == len(eps)
                          and all(0.0 < e < math.inf for e in eps),
                          "a list of distinct finite numbers > 0"),
    ("scenario", "theta"): (float, "1.0", lambda t: 1.0 <= t < math.inf, "a finite number >= 1"),
    ("scenario", "horizon"): (int, "10000", lambda h: 4 <= h <= 2 ** 53,  # n exact as doubles
                              "an integer from 4 to 2^53"),
    ("scenario", "n"): (int, None, lambda n: n >= 1, "an integer >= 1"),
    ("scenario", "threshold"): (float, None, math.isfinite, "a finite number"),
    ("scenario", "maximal"): (lambda text: {"true": True, "false": False}[text], "false",
                              _any, "true or false"),
    ("mc", "replicates"): (int, "10000", lambda r: r >= mcengine.MIN_REPLICATES,
                           f"an integer >= {mcengine.MIN_REPLICATES}"),
    ("mc", "seed"): (int, "20240801", lambda s: s >= 0, "an integer >= 0"),
    ("mc", "workers"): (int, "1", lambda w: w >= 1, "an integer >= 1"),
    **{(section, key): row for section in ("weights", "normalizer") for key, row in zip(
        _POWER_KEYS, ((float, None, _any, "a number"), (float, "1", _any, "a number"),
                      (_parse_sv, "", _any, "a list of factor:power entries")))},
    ("distribution", "kind"): (_parse_kind, None, _any, f"one of {', '.join(_LAWS)}"),
    ("distribution", "half_width"): (float, "1.0", _any, "a number"),
    ("distribution", "alpha"): (float, "1.5", _any, "a number"),
    ("distribution", "scale"): (float, "1.0", _any, "a number"),
    ("distribution", "atoms"): (lambda text: tuple(sorted(_entries(text, "atom", key=float),
                                                          key=lambda atom: atom[0])),
                                None, _any, "a list of x:mass entries"),
    ("output", "dir"): (lambda text: Path(text) if text else None, "", _any, "a directory"),
}


def load_config(path: Optional[str], sets: list, command: str) -> ScenarioConfig:
    """The scenario ``command`` reads in the config file at ``path`` (if any),
    with ``sets``, a list of (section, key, value), applied in order.  A
    given key that the command does not read is refused; each key it reads is
    parsed by its row, and the hash is that of the parsed values."""
    # A default section named by what no file line or --set section can
    # spell, so a [DEFAULT] section is an ordinary one, refused like any other.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n.")
    if path is not None:
        try:
            found = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            # configparser's messages span lines, and a refusal is one line
            raise ConfigError(f"malformed config file {path}: {' '.join(str(exc).split())}") from exc
        if not found:
            raise ConfigError(f"cannot read config file {path}")
    for section, key, value in sets:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())  # as a config file's values are

    values = {}

    def read(section: str, key: str):
        """The value of the key, given or its default, parsed and checked by its row."""
        parse, default, rule, words = _ROWS[section, key]
        text = parser.get(section, key, fallback=default)
        if text is None:
            raise ConfigError(f"{command} needs {section}.{key}, {words}")
        try:
            values[section, key] = parse(text)
            ok = rule(values[section, key])
        except (KeyError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"{section}.{key} must be {words}, not {text!r}")
        return values[section, key]

    reads, preset_text = _READS[command], None
    preset, args = "custom", ()
    if ("scenario", "preset") in reads:
        preset_text = parser.get("scenario", "preset", fallback="custom")
        preset, args = read("scenario", "preset")
    if command == "simulate" and preset == "ms_counterexample":
        raise ConfigError(f"simulate cannot sample the law of preset {preset_text!r}")
    # Each key the command reads and this scenario does not, with what fixes it.
    kind = parser.get("distribution", "kind", fallback=None)
    why = dict.fromkeys(_LAW_KEYS - {("distribution", k) for k in ("kind", *_LAWS[kind][1])},
                        f"kind {kind!r}") if kind in _LAWS else {}
    if preset != "custom":  # a named preset fixes the sequences
        why |= dict.fromkeys(_SEQUENCE_KEYS, f"preset {preset_text!r}")
    if preset == "ms_counterexample":  # and this one the law and eps as well
        why |= dict.fromkeys(_LAW_KEYS | {("scenario", "eps")}, f"preset {preset_text!r}")
    why = {key: words for key, words in why.items() if key in reads}
    reads -= why.keys()
    unread = sorted({(s, k) for s in parser.sections() for k in parser[s]} - reads)
    if unread:
        section, key = unread[0]
        # a flag's key by name; a section none of whose keys are read, whole
        whole = section not in ("scenario", "mc") and all(s != section for s, _ in reads)
        name = f"[{section}] section" if whole else f"{section}.{key}"
        under = f" under {why[unread[0]]}" if unread[0] in why else ""
        raise ConfigError(f"{command} reads no {name}{under}")

    for key in _ROWS:
        if key in reads and key not in values:
            read(*key)
    if ("weights", "exponent") in reads:
        w, a = (_power_sequence(s, *(values[s, k] for k in _POWER_KEYS))
                for s in ("weights", "normalizer"))
    elif preset == "baum_katz":
        w, a = baum_katz_weights(args[0]), baum_katz_norms(args[1])
    elif preset != "custom":
        w, a = spataru_weights(), spataru_norms()
    else:
        w = a = None

    dist = None
    if ("distribution", "kind") in reads:
        law, keys = _LAWS[values["distribution", "kind"]]
        try:
            dist = law(*(values["distribution", k] for k in keys))
        except ValueError as exc:
            raise ConfigError(f"invalid distribution parameters: {exc}") from exc

    # The sha256 of every read value as parsed, the execution-only keys left out,
    # so the hash (and hence all emitted bytes) is identical across worker counts.
    sha = hashlib.sha256("\n".join(f"{s}.{k}={v!r}" for (s, k), v in sorted(values.items())
                                   if (s, k) not in _EXECUTION_KEYS).encode()).hexdigest()
    return ScenarioConfig(preset=preset_text, preset_name=preset, preset_args=args,
                          dist=dist, weights=w, norms=a, out_dir=values["output", "dir"],
                          config_sha256=sha, **{k: v for (s, k), v in values.items()
                                                if s in ("scenario", "mc") and k != "preset"})


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
    if cfg.preset_name == "ms_counterexample":
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
        rows = slice(1, min(horizon, 512))  # n = 2..min(horizon, 512)
        certified = report.divergence_certified
        series.append(convergence.summarize_series(
            "adaptive-exponent", n[rows], convergence.exp_terms(
                tau[rows], av[rows], 1.0, n[rows], dist.truncated_second_moments(av[rows])),
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
        mom = distmodel.weighted_second_moment(d)
        moments.append({"form": "inv_logplus", "finite": mom.finite,
                        "value": mom.value, "reason": mom.reason})
        if cfg.preset_name == "spataru_weak":
            delta = cfg.preset_args[0]
            mom2 = distmodel.weighted_second_moment(d, 1.0 + delta)
            moments.append({"form": "loglog_delta", "delta": delta,
                            "finite": mom2.finite, "value": mom2.value,
                            "reason": mom2.reason})

        for eps in cfg.eps:
            series.append(convergence.summarize_series(
                "single-tail", n, convergence.single_tail_terms(d, tau, av, eps, n),
                {"eps": eps}, convergence.single_tail_certificate(d, w, a, eps, horizon)))
            # The envelope is evaluated after the terms so that fewer columns are live
            env_iii = convergence.exp_certificate(d, w, a, eps, horizon)
            with np.errstate(over="ignore"):  # at an inf cutoff T is E X^2
                cut = eps * av
            terms = convergence.exp_terms(tau, av, eps, n,
                                          distmodel.truncated_second_moments(d, cut))
            # spataru's w(n) = 1/n and a(n) = (n log n)^(1/2) make the exponential
            # term the adaptive-exponent term n^(-1 - eps^2/T) from n = 2 on
            series.extend(convergence.exponential_reports(
                n, terms, eps, env_iii, adaptive=cfg.preset_name in ("spataru", "spataru_weak")))
            del terms, cut  # before the next eps allocates its columns

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


def run_counterexample(cfg: ScenarioConfig,
                       schedule_path: Optional[str] = None) -> tuple[int, dict]:
    if schedule_path is not None:
        schedule = _read_schedule(schedule_path)
        depth = schedule.m_max
        if cfg.preset_name != "custom" and (cfg.preset_name, cfg.preset_args) != (
                "ms_counterexample", (depth,)):
            raise ConfigError(f"a replayed schedule of depth {depth} takes no preset or "
                              f"'ms_counterexample({depth})', not {cfg.preset!r}")
    elif cfg.preset_name == "ms_counterexample":
        schedule = counterexample.build_schedule(int(cfg.preset_args[0]))
    else:
        raise ConfigError("counterexample needs --preset 'ms_counterexample(d)' or --schedule, "
                          f"not preset {cfg.preset!r}")
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


def run_simulate(cfg: ScenarioConfig) -> tuple[dict, dict]:
    d = cfg.dist
    grid = [2 ** j for j in range(1, 11) if 2 ** j <= cfg.horizon]
    # each evaluated once, with numpy's overflow silent as in _sequence_half
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        av = cfg.norms.values(np.arange(1, grid[-1] + 1))
        seqkit.require_nondecreasing(av)
        wv, av = cfg.weights.values(grid), av[np.array(grid) - 1]
    reports, tables = {}, {}  # tables: CSV file name -> report
    if cfg.maximal:
        # Exact or absent: a law without an oracle stops here, before any
        # Monte Carlo runs.
        max_grid = [n for n in grid if n <= mcengine.MAX_MAXIMAL_N]
        for eps in cfg.eps:
            terms = [wn * mcengine.max_tail_profile(d, n, eps * an)[-1]
                     for n, wn, an in zip(max_grid, wv.tolist(), av.tolist())]
            max_rep = convergence.summarize_series(
                "running-maximum", max_grid, terms, params={"eps": eps},
                evidence=("exact absorbing-threshold dynamic program",))
            reports[f"max:{eps}"] = tables[f"simulate_max_eps{eps}.csv"] = max_rep
    empirical = mcengine.empirical_series(
        d, cfg.weights, cfg.norms, cfg.eps, grid, cfg.replicates, cfg.seed,
        workers=cfg.workers, columns=(wv, av))
    for eps, rep in zip(cfg.eps, empirical):
        reports[eps] = tables[f"simulate_eps{eps}.csv"] = rep
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


def _read_command_line(words: list) -> tuple:
    """(command, options, reports, sets) from the command line's words, command
    None where they ask for the usage.  An option's value is its text after "="
    or else the next word, "-1e3" included; ``sets`` holds the --set entries in
    order, then the flags' keys, so that the flags win."""
    command = words[0] if words else None
    if command in ("-h", "--help"):
        return None, {}, [], []
    if command not in _COMMANDS:
        raise ConfigError(f"cclab needs a command, one of {', '.join(_COMMANDS)}"
                          + (f", not {command!r}" if words else ""))
    options, reports, sets, rest = {}, [], [], iter(words[1:])
    takes = {"--out"} if command == "report-merge" else {
        "--config", "--set", *(f"--{flag}" for flag in _FLAG_KEYS)} | (
        {"--schedule"} if command == "counterexample" else set())
    for word in rest:
        name, eq, value = word.partition("=")
        if word in ("-h", "--help"):
            return None, {}, [], []
        if command == "report-merge" and not word.startswith("-"):
            reports.append(word)
            continue
        if name not in takes or name == "--maximal" and eq:  # --maximal takes no value
            raise ConfigError(f"{command} takes no {'option' if word[:1] == '-' else 'argument'} "
                              f"{word!r}")
        if name == "--maximal":
            value = "true"
        elif not eq and (value := next(rest, None)) is None:
            raise ConfigError(f"{name} needs a value")
        if name == "--set":
            target, eq, text = value.partition("=")
            section, dot, key = target.partition(".")
            if not (eq and dot):
                raise ConfigError(f"malformed --set {value!r}")
            sets.append((section, key, text))
        options[name] = value
    if command == "report-merge" and not (reports and "--out" in options):
        raise ConfigError("report-merge needs one or more reports and --out, a file")
    return command, options, reports, sets + [
        (*key, options[f"--{flag}"]) for flag, key in _FLAG_KEYS.items() if f"--{flag}" in options]


def main(argv=None) -> int:
    try:
        command, options, reports, sets = _read_command_line(
            sys.argv[1:] if argv is None else list(argv))
        if command is None:
            _print_stdout(_USAGE)
            return EXIT_OK
        if command == "report-merge":
            merged = {"reports": []}
            for path in reports:
                try:
                    with open(path) as fh:
                        merged["reports"].append({"path": path, "report": json.load(fh)})
                except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ConfigError(f"cannot read report {path}: {exc}") from exc
            text = json_text(merged)
            try:
                Path(options["--out"]).write_text(text + "\n")
            except OSError as exc:
                raise ConfigError(f"cannot write --out {options['--out']}: {exc}") from exc
            _print_stdout(text)
            return EXIT_OK

        cfg = load_config(options.get("--config"), sets, command)
        if command == "check-conditions":
            _emit(run_check_conditions(cfg), cfg.out_dir, "check_conditions.json")
            return EXIT_OK
        if command == "counterexample":
            code, payload = run_counterexample(cfg, schedule_path=options.get("--schedule"))
            _emit(payload, cfg.out_dir, "counterexample.json")
            return code
        if command == "simulate":
            payload, csvs = run_simulate(cfg)
            _emit(payload, cfg.out_dir, "simulate.json", extra_files=csvs)
            return EXIT_OK
        ((est,),) = mcengine.estimate_tail(cfg.dist, [(cfg.n, [cfg.threshold])],  # estimate
                                           cfg.replicates, cfg.seed, (0, cfg.n),
                                           workers=cfg.workers)
        _emit({"estimate": est.to_json_dict(), "provenance": cfg.provenance()},
              cfg.out_dir, "estimate.json")
        return EXIT_OK
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


if __name__ == "__main__":
    sys.exit(main())
