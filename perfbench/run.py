"""cclab benchmark: run one workload in-process and print its metrics as JSON.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run it from the root of a cclab checkout; cclab is imported from ``src``.
Ops are the README's CLI paths, called through ``cli.main(argv)`` with
stdout captured, and checked against independent references (``checks``).
An op that raises, exits nonzero, or fails a check counts as failed and the
workload goes on.  A run is a fixed number of passes over the ops, each pass
in an order drawn from the seed: ``--seconds`` divided by the workload's
nominal pass time (``Workload.pass_s``), at least one.  The work done, and so
``attempted`` and ``failed``, depends only on the arguments, never on how
fast the machine happens to be.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, with
every time scaled to a nominal host speed (``hostspeed``).
``--trace 1`` runs half as many passes (at least one), each op once untraced
and then once with the layer wrappers of ``tracer`` installed, and reports
per-layer metrics per pass, the tracing overhead, and how many reports changed bytes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when an op
fails other than by a known defect listed in ``workloads``, when the 99%
intervals miss their exact values more often than a binomial bound allows,
or when tracing changed a report's bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from checks import CheckFailed, coverage_miss_limit
from hostspeed import HostClock
from tracer import Tracer, installed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SAMPLED_KINDS = ("rademacher", "uniform_sym", "normal_std", "pareto_sym", "atomic_sym")


@dataclass
class Call:
    """One timed cli.main call."""

    wall: float
    stdout: str
    error: str | None   # exception or unexpected exit, before any check


@dataclass
class OpStats:
    attempted: int = 0
    walls: list = field(default_factory=list)   # scaled wall times of the runs that passed
    units: int = 0
    errors: list = field(default_factory=list)


def measure_setup() -> float:
    """Median scaled wall time of ``import cclab.cli`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import cclab.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    clock = HostClock("python+numpy")
    times, before = [], clock.read()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        after = clock.read()
        times.append(clock.scale(float(proc.stdout.split()[-1]), before, after))
        before = after
    return statistics.median(times)


def invoke(cli, argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a failing op is recorded and the workload goes on
        return Call(time.perf_counter() - t0, out.getvalue(), f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    return Call(wall, out.getvalue(), None if code == 0 else f"exit {code}: {err.getvalue().strip()}")


def evaluate(op, call: Call, ctx) -> tuple[str | None, int]:
    """(failure text or None, units of work) after checking the op's report."""
    ctx.coverage_missed = False
    if call.error is not None:
        return call.error, 0
    ctx.stdout = call.stdout
    try:
        return None, op.check(json.loads(call.stdout), ctx)
    except json.JSONDecodeError as exc:
        return f"report does not parse: {exc}", 0
    except CheckFailed as exc:
        return f"{type(exc).__name__}: {exc}", 0


class Runner:
    def __init__(self, workload, seed: int, seconds: float, cclab, workdir: Path, tracer=None):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cclab, self.workdir, self.tracer = cclab, workdir, tracer
        self.clock = HostClock(workload.reference)
        self.stats = {op.name: OpStats() for op in workload.ops}
        self.unexpected: list[str] = []
        self.coverage_trials = self.coverage_misses = 0
        self.passes = 0
        # traced runs only
        self.untraced_wall = self.traced_wall = 0.0
        self.byte_mismatches = 0
        self.traced_bytes = 0
        self.busy_2w = self.capacity_2w = 0.0
        self.draws_2w = 0
        self.wall_2w = 0.0   # untraced wall of the multi-worker ops that passed
        self.plain = None    # untraced call of the op just traced

    def pass_count(self) -> int:
        """Passes that fill ``seconds`` at the nominal pass time; a traced pass costs about twice."""
        passes = max(1, round(self.seconds / self.workload.pass_s))
        return max(1, passes // 2) if self.tracer is not None else passes

    def run(self) -> None:
        for _ in range(self.pass_count()):
            rng = random.Random(f"{self.seed}/{self.passes}")
            ctx = SimpleNamespace(mc_seed=rng.randrange(1, 2 ** 31), workdir=self.workdir,
                                  outputs={}, cclab=self.cclab, stdout="")
            groups = list(self.workload.groups)
            rng.shuffle(groups)
            before = self.clock.read() if self.tracer is None else 0.0
            for op in (op for group in groups for op in group):
                call = self.call(op, ctx)
                wall = call.wall
                if self.tracer is None:
                    after = self.clock.read()
                    wall = self.clock.scale(call.wall, before, after)
                    before = after
                ctx.outputs[op.name] = call.stdout
                self.record(op, wall, *evaluate(op, call, ctx))
                self.coverage_misses += ctx.coverage_missed
            self.passes += 1

    def call(self, op, ctx) -> Call:
        argv = op.argv(ctx)
        if self.tracer is None:
            return invoke(self.cclab.cli, argv)
        plain = invoke(self.cclab.cli, argv)
        before, _ = self.tracer.snapshot()
        with installed(self.tracer):
            traced = invoke(self.cclab.cli, argv)
        after, _ = self.tracer.snapshot()
        self.untraced_wall += plain.wall
        self.traced_wall += traced.wall
        if (plain.stdout, plain.error) != (traced.stdout, traced.error):
            self.byte_mismatches += 1
        self.traced_bytes += len(traced.stdout.encode())
        if op.workers > 1:
            sample = ("distmodel.sample", (0, 0.0, 0.0))
            self.busy_2w += after.get(*sample)[1] - before.get(*sample)[1]
            self.capacity_2w += op.workers * traced.wall
        self.plain = plain
        return traced

    def record(self, op, wall: float, error: str | None, units: int) -> None:
        st = self.stats[op.name]
        st.attempted += 1
        self.coverage_trials += op.coverage
        if error is None:
            st.walls.append(wall)
            st.units = units
            if self.tracer is not None and op.workers > 1:
                self.draws_2w += units
                self.wall_2w += self.plain.wall
            return
        st.errors.append(error)
        known = self.workload.known.get(op.name)
        if known is None or known.fragment not in error:
            self.unexpected.append(f"{op.name}: {error}")

    # -- results ------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(st.attempted for st in self.stats.values())

    @property
    def failed(self) -> int:
        return sum(len(st.errors) for st in self.stats.values())

    def correct(self) -> bool:
        return (not self.unexpected and self.byte_mismatches == 0
                and self.coverage_misses <= coverage_miss_limit(self.coverage_trials))

    def ok_share(self) -> float:
        """Share of runs that passed, averaged over ops."""
        return statistics.fmean(len(st.walls) / st.attempted
                                for st in self.stats.values() if st.attempted)

    def work_per_s(self) -> float:
        """Units per second over one pass of the ops that passed: sum of units / sum of median walls."""
        done = [st for st in self.stats.values() if st.walls]
        wall = sum(statistics.median(st.walls) for st in done)
        return sum(st.units for st in done) / wall if wall > 0 else 0.0

    def end_to_end(self, setup_s: float) -> dict:
        return {
            "work_per_s": (self.work_per_s(), "1/s"),
            "ok_share": (self.ok_share(), "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }

    def per_layer(self) -> dict:
        spans, counts = self.tracer.snapshot()
        p = self.passes

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0] / p

        def total(name):
            return spans.get(name, (0, 0.0, 0.0))[1] / p

        def self_s(*names):
            return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names) / p

        def ratio(a, b):
            return a / b if b > 0 else 0.0

        out = {
            "seqkit.seq_calls": (calls("seqkit.seq"), "count"),
            "seqkit.seq_self_s": (self_s("seqkit.seq"), "s"),
            "seqkit.checks_s": (total("seqkit.checks"), "s"),
            "distmodel.tail_calls": (calls("distmodel.tail"), "count"),
            "distmodel.moment_calls": (calls("distmodel.truncated_moment"), "count"),
            "distmodel.analytic_self_s": (self_s("distmodel.tail", "distmodel.truncated_moment",
                                                 "distmodel.analytic"), "s"),
            "distmodel.sample_draws": (counts["distmodel.sample_draws"] / p, "count"),
            "distmodel.sample_s": (total("distmodel.sample"), "s"),
        }
        for kind in SAMPLED_KINDS:
            out[f"distmodel.sample_draws_per_s.{kind}"] = (
                ratio(counts["sample_draws." + kind], counts["sample_s." + kind]), "1/s")
        out.update({
            "convergence.terms": (calls("convergence.term"), "count"),
            "convergence.term_self_s": (self_s("convergence.term"), "s"),
            "convergence.summarize_self_s": (self_s("convergence.summarize"), "s"),
            "counterexample.build_s": (total("counterexample.build"), "s"),
            "counterexample.verify_s": (total("counterexample.verify"), "s"),
            "counterexample.blocks_certified": (counts["counterexample.blocks_certified"] / p, "count"),
            "mcengine.estimate_self_s": (self_s("mcengine.estimate"), "s"),
            "mcengine.batches": (counts["mcengine.batches"] / p, "count"),
            "mcengine.worker_busy_share": (ratio(self.busy_2w, self.capacity_2w), "share"),
            "mcengine.draws_per_s_2w": (ratio(self.draws_2w, self.wall_2w), "1/s"),
            "mcengine.oracle_s": (total("mcengine.oracle"), "s"),
            "mcengine.oracle_calls": (calls("mcengine.oracle"), "count"),
            "mcengine.oracle_support": (counts["mcengine.oracle_support"] / p, "count"),
            "mcengine.maxdp_s": (total("mcengine.maxdp"), "s"),
            "seeding.streams": (calls("seeding.stream"), "count"),
            "seeding.stream_s": (total("seeding.stream"), "s"),
            "reports.emit_s": (total("reports.emit"), "s"),
            "reports.bytes": (self.traced_bytes / p, "B"),
            "cli.config_s": (total("cli.config"), "s"),
            "trace.overhead_share": (ratio(self.traced_wall, self.untraced_wall) - 1.0, "share"),
            "trace.byte_mismatches": (self.byte_mismatches, "count"),
        })
        return out

    def summary(self) -> list[str]:
        lines = [f"{'op':<44} {'runs':>4} {'ok':>3} {'median_s':>9} {'units':>11}  failure"]
        for op in self.workload.ops:
            st = self.stats[op.name]
            med = f"{statistics.median(st.walls):9.3f}" if st.walls else f"{'-':>9}"
            known = self.workload.known.get(op.name)
            note = ""
            if st.errors:
                tag = known.label if known and known.fragment in st.errors[-1] else "unexpected"
                note = f"[{tag}] {st.errors[-1][:110]}"
            lines.append(f"{op.name:<44} {st.attempted:>4} {len(st.walls):>3} {med} "
                         f"{st.units:>11}  {note}")
        if self.clock.readings:
            slowdown = statistics.median(self.clock.readings) / self.clock.nominal
            lines.append(f"host reference ({self.workload.reference}) ran {slowdown:.3f}x "
                         f"its nominal time; median_s and work_per_s are scaled by its inverse")
        lines.append(f"units={self.workload.unit} passes={self.passes} "
                     f"attempted={self.attempted} failed={self.failed} "
                     f"failed_share={1.0 - self.ok_share():.4f} "
                     f"coverage_misses={self.coverage_misses}/{self.coverage_trials}")
        return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cclab" / "cli.py").is_file():
        print(f"perfbench: no cclab sources at {SRC}; run from the root of a cclab checkout",
              file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import cclab  # the package imports every submodule

    tracer = Tracer() if args.trace else None
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds, cclab, workdir, tracer)
    try:
        runner.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    metrics = runner.per_layer() if tracer else runner.end_to_end(setup_s)
    for line in runner.summary() + [f"unexpected failure: {u}" for u in runner.unexpected]:
        print(line)
    print(" ".join(f"{name}={value:.6g} {unit}"
                   for name, (value, unit) in metrics.items()
                   if not name.startswith("distmodel.sample_draws_per_s")))
    print(json.dumps({
        "correct": runner.correct(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
