"""The tangles benchmark.

    python3 bench/run.py --workload invariants|rewrite|segal --seed N \
        --seconds S --trace 0|1

Runs one workload in fresh interpreters, as a closed loop with one client
on one thread: each op is sent only after the previous one returned.  The
op list of a workload is one pass (see workloads.py); after one untimed
warm-up pass, passes repeat in a seeded order until S seconds are measured.
Every output is checked.

With --trace 0 the last line of stdout reports the end-to-end metrics.
Op latencies are given at a reference CPU speed (see calibration.py): a
fixed calibration loop is timed before each op, and each latency is scaled
by the loop times nearest to it.  An op's latency is the median of its
repeats in the run.  Set-up time is wall-clock time: scaling it by a loop
timed in the new interpreter made it no steadier.

    setup_s        median, over 9 fresh interpreters, of the time from launch
                   until the first op can be issued
    ops_per_s      ops per second at those latencies: ops in a pass over the
                   sum of their latencies
    verb1_ms.p50   median latency over the ops of the workload's first kind:
                   invariant | normalize | seg (seg complete and star enum)
    verb2_ms.p50   median latency over the ops of its second kind:
                   eval | equal | colimit (segal.colimit_truncated)
    op_ms.tail     latency at the highest of the percentiles 50, 90, 95, 99,
                   99.9 that has at least 10 samples beyond it, each op
                   counted once per repeat at its latency (nearest rank)
    peak_rss_mb    peak resident set size of the workload process

With --trace 1 a warm-up pass, an untraced pass and a traced pass run, and
the last line reports the per-layer metrics of tracing.METRICS, with
trace.overhead the traced pass's time in ops over the untraced pass's.

The line before the last holds the details: per-kind medians under their
own names, the fail ratio, the tail percentile and sample count, the
median loop time and scale, the same figures in wall-clock time, per-size
best and median latency of every fixed series, and the op counts per pass
that a seed must not change.
It is also written to .bench_out/, and the worker's raw samples beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("invariants", "rewrite", "segal")
KINDS = {
    "invariants": ("invariant", "eval"),
    "rewrite": ("normalize", "equal"),
    "segal": ("seg", "colimit"),
}
SETUP_PROBES = 8  # set-up only interpreters, besides the one that runs the ops
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _launch(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it reported ready."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # set and dict orders repeat across runs
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (exit status {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least 10 samples beyond it, and its
    nearest-rank count."""
    best = PERCENTILES[0]
    for q in PERCENTILES:
        if len(values) - math.ceil(q / 100.0 * len(values)) >= 10:
            best = q
    return best, len(values) - math.ceil(best / 100.0 * len(values))


def summarize(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """(end-to-end metrics, details) of an untraced run."""
    ops = result["ops"]  # (kind, series, size) of each op of a pass
    samples = result["samples"]  # in the order the ops ran
    scales = calibration.local_scales([cal for _, _, cal in samples])
    repeats: dict[int, list[float]] = {}  # latencies at the reference speed
    wall: dict[int, list[float]] = {}
    for (index, dt, _), factor in zip(samples, scales):
        repeats.setdefault(index, []).append(dt * 1000.0 * factor)
        wall.setdefault(index, []).append(dt * 1000.0)
    median = {index: statistics.median(v) for index, v in repeats.items()}
    wall_median = {index: statistics.median(v) for index, v in wall.items()}
    by_kind: dict[str, list[float]] = {}
    by_kind_wall: dict[str, list[float]] = {}
    by_series: dict[str, dict[int, list[float]]] = {}
    for index, (kind, series, size) in enumerate(ops):
        by_kind.setdefault(kind, []).append(median[index])
        by_kind_wall.setdefault(kind, []).append(wall_median[index])
        if series:
            by_series.setdefault(series, {}).setdefault(size, []).extend(repeats[index])
    # every repeat of an op, read at the op's latency (its median)
    op_ms = [median[index] for index, v in repeats.items() for _ in v]
    q, beyond = tail(op_ms)
    first, second = KINDS[result["workload"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (1000.0 * len(ops) / sum(median.values()), "1/s"),
        "verb1_ms.p50": (statistics.median(by_kind[first]), "ms"),
        "verb2_ms.p50": (statistics.median(by_kind[second]), "ms"),
        "op_ms.tail": (nearest_rank(op_ms, q), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    details = {
        "p50_ms": {f"{k}_ms.p50": statistics.median(v) for k, v in sorted(by_kind.items())},
        "calibration_ms": 1000.0 * statistics.median(cal for _, _, cal in samples),
        "scale": statistics.median(scales),
        "tail": {"percentile": q, "samples": len(op_ms), "beyond": beyond, "ms": nearest_rank(op_ms, q),
                 "single_repeats_ms": nearest_rank([ms for v in repeats.values() for ms in v], q)},
        "wall_clock": {
            "ops_per_s": 1000.0 * len(ops) / sum(wall_median.values()),
            "p50_ms": {f"{k}_ms.p50": statistics.median(v) for k, v in sorted(by_kind_wall.items())},
            "tail_ms": nearest_rank([wall_median[index] for index, v in wall.items() for _ in v], q),
        },
        "setup_samples_s": setups,
        "series_ms": {
            name: {str(size): {"best": min(v), "p50": statistics.median(v)} for size, v in sorted(sizes.items())}
            for name, sizes in sorted(by_series.items())
        },
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tangles" / "__init__.py").is_file():
        print(f"error: no tangles source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, ready = _launch([args.workload, "setup"])
                _finish(proc, deadline - time.perf_counter())
                setups.append(ready)
        run_args = [args.workload, "run", str(args.seed), str(args.seconds), str(args.trace)]
        proc, ready = _launch(run_args)
        setups.append(ready)
        result = json.loads(_finish(proc, deadline - time.perf_counter()).splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], len(result["failures"])
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": result["passes"],
        "measured_s": result["measured_s"],
        "fail_ratio": failed / attempted,
        "failures": result["failures"][:20],
        "load_per_pass": result["load"],
    }
    if args.trace:
        metrics = result["per_layer"]
        details["spans_file"] = result["spans_file"]
    else:
        metrics, more = summarize(result, setups)
        details.update(more)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / f"result-{name}").write_text(json.dumps({"details": details, "metrics": metrics}, indent=1))
    (out_dir / f"samples-{name}").write_text(json.dumps(result))
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
