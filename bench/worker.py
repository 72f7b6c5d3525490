"""One workload in a fresh interpreter; started by run.py.

    worker.py WORKLOAD setup
        import the program, build the workload's set-up, print 'ready', exit
    worker.py WORKLOAD run SEED SECONDS TRACE
        the same, then run the workload and print its result as one JSON line

Everything before the 'ready' line is the set-up that setup_s times: the
interpreter, the imports of the program and of the workload definitions,
and the objects the workload's ops reuse.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports the program from this checkout's source)
from calibration import calibrate  # noqa: E402


def main(argv: list[str]) -> int:
    workload, mode = argv[0], argv[1]
    state = workloads.setup(workload)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"

    import gc
    import json
    import random
    import resource

    expected = workloads.load_expected()
    ops = workloads.build(workload, seed, state, expected)
    order = random.Random(seed)

    # (index of the op in the pass, seconds, seconds of the calibration run just before it)
    samples: list[tuple[int, float, float]] = []
    failures: list[str] = []
    attempted = 0

    def run_pass(tracer=None, timed=True) -> float:
        """Every op once, in a seeded order; returns the seconds spent in ops.

        Each op starts on a collected heap, as a CLI call in a fresh process
        does, so that it does not pay for the garbage of the ops before it."""
        nonlocal attempted
        todo = list(range(len(ops)))
        order.shuffle(todo)
        busy = 0.0
        for index in todo:
            op = ops[index]
            gc.collect()
            cal = 0.0 if trace else calibrate()
            t0 = time.perf_counter()
            try:
                out = tracer.run_op(op.kind, op.call) if tracer else op.call()
                error = None
            except Exception as exc:  # a failing op is counted, and the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            busy += dt
            attempted += 1
            if timed:
                samples.append((index, dt, cal))
            if error is None:
                error = check(op, out, expected)
            if error is not None:
                failures.append(f"{op.key[:120]}: {error}")
        return busy

    result: dict = {"workload": workload, "seed": seed, "load": workloads.load(ops)}
    run_pass(timed=False)  # warm-up: fills what ops share (the simplicial data's caches)
    gc.freeze()  # the collections before each op then scan only what later ops made
    if trace:
        import tracing

        untraced = run_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(tracer)
        finally:
            tracer.uninstall()
        invariant_ops = sum(1 for op in ops if op.kind == "invariant")
        result["per_layer"] = {
            name: {"value": value, "unit": tracing.METRICS[name]}
            for name, value in tracer.per_layer(invariant_ops, traced / untraced).items()
        }
        spans = ROOT / ".bench_out" / f"spans-{workload}.bin"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["passes"] = 2
        result["measured_s"] = untraced + traced
    else:
        # Passes are whole; stop at the pass count that ends nearest to SECONDS.
        passes, start, last = 0, time.perf_counter(), 0.0
        while passes == 0 or time.perf_counter() - start + last / 2 < seconds:
            begun = time.perf_counter()
            run_pass()
            last = time.perf_counter() - begun
            passes += 1
        result["passes"] = passes
        result["measured_s"] = time.perf_counter() - start
    result["ops"] = [(op.kind, op.series, op.size) for op in ops]
    result["samples"] = samples
    result["failures"] = failures
    result["attempted"] = attempted
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


def check(op: "workloads.Op", out: str, expected: dict) -> str | None:
    """None when the output matches the recorded one and its identity."""
    want = expected.get(op.key)
    if want is None:
        return "no recorded output for this op"
    if workloads.fingerprint(out) != want:
        return "output differs from the recorded output"
    if op.identity is not None:
        try:
            return op.identity(out)
        except (KeyError, ValueError) as exc:  # output lacks a field the identity reads
            return f"identity could not be checked: {exc!r}"
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
