"""One workload process: set up, say ``ready``, measure, print one JSON line.

Started by ``run.py``, never by hand.  With ``--setup-only`` it exits right
after ``ready``, so the parent can time set-up in fresh processes.  The
untraced passes give the end-to-end numbers.  With ``--trace 1`` it also
runs traced passes and reads the layer numbers back from the span file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PROBES = 5  # runs of each CLI reference probe


class Pass:
    def __init__(self):
        self.times_ns: list = []   # raw job times
        self.refs_ns: list = []    # reference loop times, around every job
        self.outputs: list = []
        self.misses: list = []

    @property
    def scale(self) -> float:
        return hostspeed.factor(self.refs_ns)

    @property
    def scaled_ns(self) -> list:
        f = self.scale
        return [t * f for t in self.times_ns]


def between_jobs() -> int:
    """Untimed: a full collection, so no job pays for garbage left by the
    jobs before it and job times do not depend on the seeded order; then
    the host-speed reference loop."""
    gc.collect()
    return hostspeed.reference_ns()


def run_pass(jobs, index, tracer=None) -> Pass:
    """Run every job once; checks and outputs are taken between jobs."""
    p = Pass()
    p.refs_ns.append(between_jobs())
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (index, i)
        t0 = perf_counter_ns()
        try:
            result = job.run()
            error = None
        except Exception as exc:  # a failed job is counted, never dropped
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.job = None
        p.times_ns.append(t1 - t0)
        if error is not None:
            p.outputs.append(None)
            p.misses.append([error])
        else:
            try:
                p.misses.append(job.check(result))
                p.outputs.append(job.output(result))
            except Exception as exc:
                p.outputs.append(None)
                p.misses.append([f"check raised {type(exc).__name__}: {exc}"])
        p.refs_ns.append(between_jobs())
    return p


def run_for(jobs, budget_s, first_index, tracer=None, on_pass=None) -> list:
    """Passes until another one would overrun ``budget_s``; at least one."""
    passes = []
    start = perf_counter()
    while True:
        t = perf_counter()
        if tracer is not None:
            tracer.counts.clear()
        passes.append(run_pass(jobs, first_index + len(passes), tracer))
        if on_pass is not None:
            on_pass(passes[-1])
        took = perf_counter() - t
        if perf_counter() - start + took > budget_s:
            return passes


def tail(values) -> tuple:
    """(value, percentile, samples beyond): the highest percentile that
    still has at least ten samples beyond it, or the maximum when there
    are not that many samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def probe_ms(cmd) -> float:
    """Median raw time of a short command, in ms.  Like set-up time it is
    not scaled: process start does not follow the reference loop."""
    times = []
    for _ in range(PROBES):
        t0 = perf_counter_ns()
        workloads.run_process(cmd, ROOT).check_returncode()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


class Ledger:
    """Failures, attempts and output consistency across every pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.notes: list = []

    def add(self, p: Pass, jobs) -> None:
        if self.reference is None:
            self.reference = list(p.outputs)
        for job, out, miss, ref in zip(jobs, p.outputs, p.misses, self.reference):
            self.attempted += 1
            if not miss and out != ref:
                miss = ["output differs from the first pass"]
            if miss:
                self.failed += 1
                if len(self.notes) < 20:
                    self.notes.append(f"{job.name}: {'; '.join(miss)}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.reference:
            h.update((out or "<failed>\n").encode())
        return h.hexdigest()


def end_to_end(passes, jobs, rss_kib) -> tuple:
    """Timings are scaled to the nominal host (see hostspeed.py)."""
    walls = [sum(p.scaled_ns) / 1e9 for p in passes]
    per_job = [
        statistics.median(p.scaled_ns[i] for p in passes) / 1e6
        for i in range(len(jobs))
    ]
    tail_ms, pct, beyond = tail(per_job)
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_ms": statistics.median(per_job),
        "job_tail_ms": tail_ms,
        "top_pair_s": max(per_job) / 1e3,
        "peak_rss_mib": rss_kib / 1024,
    }
    slowest = jobs[per_job.index(max(per_job))].name
    info = {"passes": len(passes), "jobs": len(jobs), "tail_percentile": pct,
            "tail_beyond": beyond, "top_job": slowest,
            "raw_wall_s": statistics.median(sum(p.times_ns) for p in passes) / 1e9,
            "ref_ms": ref_ms(passes)}
    return metrics, info


def ref_ms(passes) -> float:
    return statistics.median(r for p in passes for r in p.refs_ns) / 1e6


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    M = workloads.load_library()
    if not Path(M.graphs.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"plumbcalc imported from {M.graphs.__file__}, not from this checkout")
    catalog = sorted(M.invariants.group_catalog().items())
    workdir = BUILD / f"{args.workload}-{args.seed}"
    jobs = workloads.WORKLOADS[args.workload](M, catalog, args.seed, workdir)
    min((job for job in jobs if job.key), key=lambda job: job.key).run()  # warm-up
    print("ready", flush=True)
    if args.setup_only:
        return 0

    is_cli = args.workload == "cli"
    ledger = Ledger()
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_for(jobs, budget, 0, on_pass=lambda p: ledger.add(p, jobs))
    usage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    metrics, info = end_to_end(plain, jobs, resource.getrusage(usage).ru_maxrss)
    result = {"digest": ledger.digest(), "info": info}

    if args.trace:
        layers = trace_run(args, M, jobs, plain, ledger, workdir)
        result["trace"] = layers.pop("_check")
        metrics = layers
    result.update(metrics=metrics, attempted=ledger.attempted,
                  failed=ledger.failed, notes=ledger.notes)
    print(json.dumps(result), flush=True)
    return 0


def trace_run(args, M, jobs, plain, ledger, workdir) -> dict:
    """Traced passes on the same jobs; the layer numbers come from the
    span file.  For ``cli`` the traced passes call ``cli.main`` in this
    process, compared with the same calls untraced."""
    cli_metrics = {
        "cli.floor_ms": probe_ms([sys.executable, "-c", "pass"]),
        "cli.import_ms": probe_ms([sys.executable, "-c", "import plumbcalc.cli"]),
        "cli.main_ms": 0.0,
        "cli.stdout_bytes": 0,
    }
    for sub in workloads.CLI_SUBCOMMANDS:
        cli_metrics[f"cli.{sub}.process_ms"] = 0.0

    traced_jobs, first, budget = jobs, len(plain), args.seconds / 2
    base_wall = statistics.median(sum(p.scaled_ns) for p in plain) / 1e9
    if args.workload == "cli":
        for sub in workloads.CLI_SUBCOMMANDS:
            cli_metrics[f"cli.{sub}.process_ms"] = statistics.median(
                t / 1e6
                for p in plain
                for job, t in zip(jobs, p.scaled_ns)
                if job.key[0] == sub
            )
        cli_metrics["cli.stdout_bytes"] = sum(
            len(out.encode()) for out in ledger.reference if out)
        traced_jobs = [workloads.inprocess(M, job, workdir) for job in jobs]
        budget = args.seconds / 4
        untraced = run_for(traced_jobs, budget, first,
                           on_pass=lambda p: ledger.add(p, traced_jobs))
        first += len(untraced)
        cli_metrics["cli.main_ms"] = statistics.median(
            statistics.median(p.scaled_ns[i] for p in untraced)
            for i in range(len(jobs))) / 1e6
        base_wall = statistics.median(sum(p.scaled_ns) for p in untraced) / 1e9

    tracer = tracing.Tracer()
    tracer.install(vars(M))
    pass_info = []

    def record(p):
        ledger.add(p, traced_jobs)
        pass_info.append({"pass": first + len(pass_info),
                          "counts": dict(tracer.counts),
                          "scale": p.scale,
                          "wall_ns": sum(p.scaled_ns)})

    try:
        run_for(traced_jobs, budget, first, tracer, record)
    finally:
        tracer.uninstall()
    span_file = BUILD / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(span_file, pass_info)
    layers = tracing.layer_metrics(span_file)

    out = dict(layers["metrics"])
    out.update(cli_metrics)
    traced_wall = layers["traced_wall_s"]
    overhead = traced_wall - base_wall
    uncovered = traced_wall - layers["top_span_s"]
    out["trace.overhead_frac"] = traced_wall / base_wall - 1
    out["host.ref_ms"] = ref_ms(plain)
    out["trace.uncovered_frac"] = uncovered / traced_wall
    out["_check"] = {
        "counts_stable": layers["counts_stable"],
        "passes": len(pass_info),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": base_wall,
        "top_span_self_s": layers["top_span_s"],
        "coverage_ok": uncovered <= max(overhead, 0.0) + 0.01 * traced_wall,
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return out


if __name__ == "__main__":
    sys.exit(main())
