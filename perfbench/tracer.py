"""Outside-in tracing: wrap cclab's public functions at their point of use.

Nothing in ``src/cclab`` is edited.  ``installed(tracer)`` swaps module and
class attributes for timing wrappers and restores the originals on exit.
Each wrapper records a span (calls, total time, self time) under a layer
name such as ``seqkit.seq``; self time is the span minus the part of its
interval that child spans cover.  Spans are kept per thread, and spans that
run in the thread pool ``mcengine.estimate_tail`` starts are attributed to
the span that submitted them, so ``--workers 2`` is measured correctly.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import threading
from collections import Counter
from time import perf_counter


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Frame:
    __slots__ = ("covered", "remote")

    def __init__(self) -> None:
        self.covered = 0.0   # time of same-thread child spans
        self.remote = []     # (start, end) of child spans in other threads


class Tracer:
    """Span and counter store; safe to record into from several threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []   # (span stats, counters) of every thread that recorded

    def _state(self):
        local = self._local
        try:
            return local.stack, local.stats, local.counts
        except AttributeError:
            local.stack, local.stats, local.counts = [], {}, Counter()
            local.inherited = None
            with self._lock:
                self._threads.append((local.stats, local.counts))
            return local.stack, local.stats, local.counts

    def current_frame(self):
        stack, _, _ = self._state()
        return stack[-1] if stack else self._local.inherited

    def run_as_child(self, parent, fn, *args, **kwargs):
        """Run fn in this thread with ``parent`` (a frame from another thread) as its parent span."""
        self._state()
        self._local.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.inherited = None

    def wrap(self, name: str, fn, count=None):
        """Wrapper that records a span ``name``; ``count(counts, args, kwargs, result, dur)`` adds counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats, counts = tracer._state()
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                covered = frame.covered
                if frame.remote:
                    with tracer._lock:
                        covered += _union_length(frame.remote)
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += max(0.0, dur - covered)
                if stack:
                    stack[-1].covered += dur
                elif tracer._local.inherited is not None:
                    with tracer._lock:
                        tracer._local.inherited.remote.append((t0, t1))
            if count is not None:
                count(counts, args, kwargs, result, dur)
            return result

        return wrapper

    def snapshot(self) -> tuple[dict, Counter]:
        """Merged {name: (calls, total_s, self_s)} and counters over all threads."""
        spans: dict = {}
        counts: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
        for stats, cnt in threads:
            for name, (calls, total, self_s) in list(stats.items()):
                c, t, s = spans.get(name, (0, 0.0, 0.0))
                spans[name] = (c + calls, t + total, s + self_s)
            counts.update(dict(cnt))
        return spans, counts


# ---------------------------------------------------------------------------
# Counters recorded at layer boundaries
# ---------------------------------------------------------------------------


def _count_sample(counts, args, kwargs, result, dur) -> None:
    d = args[0] if args else kwargs["d"]
    counts["distmodel.sample_draws"] += len(result)
    counts["sample_draws." + d.kind] += len(result)
    counts["sample_s." + d.kind] += dur


def _count_blocks(counts, args, kwargs, result, dur) -> None:
    counts["counterexample.blocks_certified"] += sum(1 for c in result.certificates if c.ok)


def _count_oracle(counts, args, kwargs, result, dur) -> None:
    counts["mcengine.oracle_support"] += len(result.values)


def _batch_counter(estimate_tail):
    sig = inspect.signature(estimate_tail)

    def count(counts, args, kwargs, result, dur) -> None:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["mcengine.batches"] += math.ceil(bound.arguments["replicates"]
                                                / bound.arguments["batch_size"])

    return count


def _traced_pool(tracer: Tracer, pool_cls):
    """The executor class mcengine uses, with submitted work attributed to the submitting span."""

    class TracedPool(pool_cls):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_as_child, tracer.current_frame(), fn,
                                  *args, **kwargs)

    return TracedPool


def _targets(tracer: Tracer):
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    from cclab import cli, convergence, counterexample, distmodel, mcengine, reports, seeding, seqkit

    out = [
        (seqkit.WeightSeq, "__call__", "seqkit.seq", None),
        (seqkit.NormSeq, "__call__", "seqkit.seq", None),
        (distmodel, "tail", "distmodel.tail", None),
        (distmodel, "truncated_moment", "distmodel.truncated_moment", None),
        # convergence imported truncated_moment by name, so wrap that binding too.
        (convergence, "truncated_moment", "distmodel.truncated_moment", None),
        (distmodel, "sample", "distmodel.sample", _count_sample),
        (convergence, "summarize_series", "convergence.summarize", None),
        (counterexample, "build_schedule", "counterexample.build", None),
        (counterexample, "verify_counterexample", "counterexample.verify", _count_blocks),
        (mcengine, "estimate_tail", "mcengine.estimate", _batch_counter(mcengine.estimate_tail)),
        (mcengine, "exact_walk_oracle", "mcengine.oracle", _count_oracle),
        (mcengine, "max_tail_profile", "mcengine.maxdp", None),
        (seeding, "stream", "seeding.stream", None),
        (reports.SeriesReport, "to_json_dict", "reports.emit", None),
        (cli, "_emit", "reports.emit", None),
        (cli, "load_config", "cli.config", None),
    ]
    out += [(seqkit, f, "seqkit.checks", None)
            for f in ("check_dyadic_regularity", "check_tail_domination", "check_inf_growth")]
    out += [(distmodel, f, "distmodel.analytic", None)
            for f in ("weighted_second_moment", "truncated_second_moment",
                      "support_bound", "second_moment_bound")]
    out += [(convergence, f, "convergence.term", None)
            for f in ("single_tail_term", "exp_term", "adaptive_exponent_term", "weighted_term")]
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore the originals."""
    from cclab import mcengine

    saved = []
    try:
        for owner, attr, name, count in _targets(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        saved.append((mcengine, "ThreadPoolExecutor", mcengine.ThreadPoolExecutor))
        mcengine.ThreadPoolExecutor = _traced_pool(tracer, mcengine.ThreadPoolExecutor)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
