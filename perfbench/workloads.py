"""The benchmark's workloads: README CLI paths as argv lists, with their checks.

Each op is one ``cli.main(argv)`` call.  ``check(payload, ctx)`` verifies
the parsed report against the references in ``checks`` and returns the
op's units of useful work (series terms, draws, or exact values), or
raises ``CheckFailed``.  ``ctx`` carries the pass's Monte Carlo seed, the
scratch directory, the stdout of ops already run in this pass, and the
imported ``cclab`` package; a coverage check sets ``ctx.coverage_missed``
when the report's 99% interval misses the exact value.

Ops are grouped; a pass runs every group once, in an order drawn from the
benchmark seed, and the ops of a group in their listed order (a replay
follows its build, a ``--workers 2`` run follows the ``--workers 1`` run
whose bytes it must reproduce).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

from checks import (CheckFailed, RefLaw, check_estimate, check_oracle_lattice,
                    check_series, check_series_terms, check_simulate_rows,
                    integer_atoms_tail, normal_sum_tail, parse_atoms,
                    preset_sequences, rademacher_tail, series_terms, step_law)


@dataclass(frozen=True)
class Op:
    name: str
    argv: Callable[[SimpleNamespace], list[str]]
    check: Callable[[dict, SimpleNamespace], int]
    workers: int = 1
    coverage: bool = False   # the check tests the report's 99% interval against an exact value


@dataclass(frozen=True)
class KnownDefect:
    label: str
    fragment: str   # text the failure message contains


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    groups: list[list[Op]]
    pass_s: float   # nominal wall time of one untraced pass, checks included, on 2 shared CPUs
    reference: str  # the ``hostspeed`` kernel mix whose speed tracks this workload's ops
    known: dict[str, KnownDefect] = field(default_factory=dict)

    @property
    def ops(self) -> list[Op]:
        return [op for group in self.groups for op in group]


def _sets(**dist: str) -> list[str]:
    out = []
    for key, value in dist.items():
        out += ["--set", f"distribution.{key}={value}"]
    return out


# ---------------------------------------------------------------------------
# certify: check-conditions at horizon 2e4, plus the cutoff counterexample
# ---------------------------------------------------------------------------

HORIZON = 20_000
COUNTER_PRESET = "ms_counterexample(16)"


def _analytic_op(preset: str, **dist: str) -> Op:
    w, a = preset_sequences(preset)
    law = RefLaw(dist["kind"], alpha=float(dist.get("alpha", 1.5)), atoms=dist.get("atoms", ""))

    def check(payload, ctx) -> int:
        for series in payload["series"]:
            check_series(series)
            check_series_terms(series, w, a, law)
        return series_terms(payload)

    argv = ["check-conditions", "--preset", preset, "--horizon", str(HORIZON)] + _sets(**dist)
    return Op(f"{preset}+{dist['kind']}", lambda ctx: argv, check)


def _counter_conditions_op(depth: int) -> Op:
    def check(payload, ctx) -> int:
        for series in payload["series"]:
            check_series(series)
            if series["verdict"] != "DivergesCertified":
                raise CheckFailed(f"{series['series_id']}: verdict {series['verdict']}")
        if not payload["counterexample"]["divergence_certified"]:
            raise CheckFailed("block certificates incomplete")
        return series_terms(payload)

    preset = f"ms_counterexample({depth})"
    argv = ["check-conditions", "--preset", preset, "--horizon", str(HORIZON)]
    return Op(f"check-conditions {preset}", lambda ctx: argv, check)


def _schedule_path(ctx) -> str:
    return str(ctx.workdir / "counterexample.json")


def _build_check(payload, ctx) -> int:
    report = payload["report"]
    if not report["divergence_certified"] or not all(c["ok"] for c in report["certificates"]):
        raise CheckFailed("a block certificate failed")
    with open(_schedule_path(ctx), "w") as fh:
        json.dump(payload, fh)
    return 0


def _replay_check(payload, ctx) -> int:
    built = json.loads(ctx.outputs["counterexample build"])
    if payload["schedule"] != built["schedule"] or payload["report"] != built["report"]:
        raise CheckFailed("replayed schedule does not recertify to the built report")
    return 0


CERTIFY = Workload(
    name="certify",
    unit="series terms",
    groups=[
        [_analytic_op("baum_katz(2,1)", kind="rademacher")],
        [_analytic_op("spataru", kind="uniform_sym")],
        [_analytic_op("spataru", kind="pareto_sym", alpha="3")],
        [_analytic_op("spataru_weak(0.5)", kind="atomic_sym", atoms="1:0.5,3:0.25")],
        [_analytic_op("spataru", kind="normal_std")],
        [_counter_conditions_op(9)],
        [_counter_conditions_op(16)],
        [Op("counterexample build",
            lambda ctx: ["counterexample", "--preset", COUNTER_PRESET], _build_check),
         Op("counterexample replay",
            lambda ctx: ["counterexample", "--preset", COUNTER_PRESET,
                         "--schedule", _schedule_path(ctx)], _replay_check),
         # The replay exactly as the README writes it, without a preset.
         Op("counterexample replay (README form)",
            lambda ctx: ["counterexample", "--schedule", _schedule_path(ctx)], _replay_check)],
    ],
    pass_s=5.0,
    reference="python+numpy",
    known={
        "spataru+normal_std": KnownDefect("F1", "registered envelope violated"),
        "check-conditions ms_counterexample(16)":
            KnownDefect("depth", "schedule too deep for a log-atomic view"),
        "counterexample replay (README form)":
            KnownDefect("replay", "custom scenarios need [weights] and [normalizer] sections"),
    },
)


# ---------------------------------------------------------------------------
# montecarlo: estimate at n = 1024 for every samplable kind
# ---------------------------------------------------------------------------

MC_N = 1024
MC_REPLICATES = 50_000
MC_ATOMS = "1:0.5,3:0.25"


def _estimate_op(kind: str, threshold: float, exact=None, workers: int = 1,
                 same_as: str = "", **dist: str) -> Op:
    want = None if exact is None else exact(MC_N, threshold)

    def argv(ctx) -> list[str]:
        return (["estimate", "--n", str(MC_N), "--threshold", repr(threshold),
                 "--replicates", str(MC_REPLICATES), "--seed", str(ctx.mc_seed),
                 "--workers", str(workers), "--set", f"distribution.kind={kind}"]
                + _sets(**dist))

    def check(payload, ctx) -> int:
        if same_as and ctx.stdout != ctx.outputs[same_as]:
            raise CheckFailed(f"--workers {workers} bytes differ from {same_as}")
        ctx.coverage_missed = not check_estimate(payload, MC_N, threshold, MC_REPLICATES, want)
        return MC_N * MC_REPLICATES

    name = kind if workers == 1 else f"{kind} --workers {workers}"
    return Op(name, argv, check, workers=workers, coverage=want is not None)


MONTECARLO = Workload(
    name="montecarlo",
    unit="draws",
    groups=[
        [_estimate_op("rademacher", 64.0, rademacher_tail)],
        [_estimate_op("uniform_sym", 37.0)],
        [_estimate_op("pareto_sym", 400.0, alpha="1.5")],
        [_estimate_op("atomic_sym", 106.0, lambda n, t: integer_atoms_tail(MC_ATOMS, n, t),
                      atoms=MC_ATOMS)],
        [_estimate_op("normal_std", 64.0, normal_sum_tail),
         _estimate_op("normal_std", 64.0, workers=2, same_as="normal_std")],
    ],
    pass_s=7.5,
    reference="numpy",
)


# ---------------------------------------------------------------------------
# oracle: simulate --maximal with few replicates, so exact oracles dominate
# ---------------------------------------------------------------------------


def _simulate_op(preset: str, kind: str, atoms: str = "", horizon: int = 0) -> Op:
    w, a = preset_sequences(preset)
    step = step_law(parse_atoms(atoms) if atoms else parse_atoms("1:1"))

    def argv(ctx) -> list[str]:
        out = ["simulate", "--preset", preset, "--maximal", "--replicates", "1000",
               "--seed", str(ctx.mc_seed)]
        if horizon:
            out += ["--horizon", str(horizon)]
        return out + _sets(kind=kind, **({"atoms": atoms} if atoms else {}))

    def check(payload, ctx) -> int:
        check_simulate_rows(payload, step, w, a)
        dm, mc = ctx.cclab.distmodel, ctx.cclab.mcengine
        d = dm.atomic_sym([(float(v), float(p)) for v, p in parse_atoms(atoms)]) \
            if atoms else dm.rademacher()
        check_oracle_lattice(lambda n, t: mc.exact_tail(mc.exact_walk_oracle(d, n), t), step)
        return sum(1 for key, series in payload["series"].items() for row in series["rows"]
                   if key.startswith("max:") or row.get("exact") is not None)

    name = f"{preset}+{kind}" + (f" {atoms}" if atoms else "") + (f" h={horizon}" if horizon else "")
    return Op(name, argv, check)


_OFF_LATTICE = _simulate_op("spataru", "atomic_sym", "0.1:0.5,0.3:0.25", horizon=16)

ORACLE = Workload(
    name="oracle",
    unit="exact values",
    groups=[
        [_simulate_op("spataru", "atomic_sym", "1:0.5,3:0.25", horizon=512)],
        [_simulate_op("baum_katz(2,1)", "rademacher")],
        [_OFF_LATTICE],
    ],
    pass_s=2.5,
    reference="python+numpy",
    known={_OFF_LATTICE.name: KnownDefect("F3", "differs from Fraction enumeration")},
)

WORKLOADS = {w.name: w for w in (CERTIFY, MONTECARLO, ORACLE)}
