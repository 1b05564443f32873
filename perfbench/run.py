"""plumbcalc benchmark entry point.

    python3 perfbench/run.py --workload {ladder,sweep,search,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up time is the median over several
fresh worker processes, timed from their start to their ``ready`` line;
then one more worker measures.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failure to run exits non-zero without
printing that object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("ladder", "sweep", "search", "cli")
SETUP_SAMPLES = 7    # set-up-only worker processes
DEADLINE_S = 170     # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def fail(msg: str) -> int:
    print(f"benchmark failed: {msg}", file=sys.stderr)
    return 1


def start_worker(args, env, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    return proc, setup, line.strip() == "ready"


def finish(proc, timeout) -> tuple:
    """Wait for the worker, killing it at the deadline; (exit code, stdout)."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, ""
    return proc.returncode, out


def main() -> int:
    start = monotonic()
    ap = argparse.ArgumentParser(description="plumbcalc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        return fail("--seconds must be between 1 and 60")

    BUILD.mkdir(exist_ok=True)
    env = child_env()
    # warm the bytecode cache: users do not pay compilation on every run
    warm = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    if warm.returncode != 0:
        return fail("could not compile the sources")

    # set-up time stays raw: process start does not follow the host-speed
    # reference loop (their correlation measured -0.05 over 40 samples)
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, setup, ready = start_worker(args, env, setup_only=True)
        code, _ = finish(proc, DEADLINE_S - (monotonic() - start))
        if not ready or code != 0:
            return fail("set-up failed")
        setups.append(setup)

    proc, _, ready = start_worker(args, env, setup_only=False)
    code, out = finish(proc, DEADLINE_S - (monotonic() - start))
    if not ready or code != 0:
        return fail(f"worker exited with {code}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return fail("worker printed no result")

    # BENCHMARK.json names the metrics and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    report(args, result, setups)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    correct = result["failed"] == 0
    if args.trace:
        correct = correct and result["trace"]["counts_stable"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def report(args, result, setups) -> None:
    info = result["info"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"passes {info['passes']} x {info['jobs']} jobs; slowest job {info['top_job']}")
    print(f"host reference loop {info['ref_ms']:.3f} ms (nominal"
          f" {hostspeed.NOMINAL_NS / 1e6:g} ms); raw wall_s {info['raw_wall_s']:.4f}")
    print(f"job_tail_ms is p{info['tail_percentile']:.1f}"
          f" ({info['tail_beyond']} jobs beyond it)")
    print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setups))
    print(f"output digest sha256 {result['digest']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"fail_frac {fail_frac:.6g} ratio ({result['failed']} of {result['attempted']} jobs)")
    for note in result["notes"]:
        print(f"  failed: {note}")
    if args.trace:
        t = result["trace"]
        print(f"{t['passes']} traced passes; traced wall {t['traced_wall_s']:.4f} s,"
              f" untraced {t['untraced_wall_s']:.4f} s,"
              f" top-level span time {t['top_span_self_s']:.4f} s;"
              f" coverage {'ok' if t['coverage_ok'] else 'MISS'};"
              f" counts stable across traced passes: {t['counts_stable']};"
              f" spans in {t['span_file']}")


if __name__ == "__main__":
    sys.exit(main())
