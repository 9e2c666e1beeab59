"""One fresh process running an in-process workload (``algebra`` or
``likelihood``).  Started by ``run.py``; prints one JSON line.

Set-up is timed from the parent's clock reading just before it started
this interpreter (``--t0``, CLOCK_MONOTONIC is shared between processes) to
the end of the warm-up: interpreter start, the imports of the ``phylo``
modules the workload uses, and one small operation of each class.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time


def run_ops(ops, tracer, stats) -> list:
    """Time each call; return (op, output) for those that did not raise."""
    done = []
    for op in ops:
        if tracer is not None:
            tracer.active = True
            tracer.begin_op(op.cls)
        t = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation, counted and reported
            out = exc
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.end_op()
            tracer.active = False
        stats["attempted"] += 1
        stats["busy_s"] += dt
        if isinstance(out, Exception):
            key = f"{op.cls}: {type(out).__name__}"
            stats["errors"][key] = stats["errors"].get(key, 0) + 1
        else:
            stats["samples_ms"].append(dt * 1e3)
            done.append((op, out))
    return done


def check_all(done, r: int) -> str | None:
    for op, out in done:
        try:
            op.check(out)
        except Exception as exc:  # any wrong output names its operation
            return f"round {r}, operation {op.cls}: {type(exc).__name__}: {exc}"
    return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-rounds", type=int, default=0)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    workload = importlib.import_module(args.workload)
    for op in workload.warmup_ops():
        try:
            op.check(op.run())
        except Exception as exc:  # a wrong or failed warm-up output
            sys.exit(f"warm-up operation {op.cls}: {type(exc).__name__}: {exc}")
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace_rounds:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    stats = {"attempted": 0, "busy_s": 0.0, "samples_ms": [], "errors": {}}
    traced = {}
    deadline = time.monotonic() + args.seconds
    mismatch = None
    r = 0
    while True:
        ops = workload.round_ops(args.seed, r)
        done = run_ops(ops, tracer if r < args.trace_rounds else None, stats)
        mismatch = check_all(done, r)
        r += 1
        if tracer is not None and r == args.trace_rounds:
            traced = {"layers": spans.layer_metrics(tracer.totals()),
                      "completed": len(stats["samples_ms"]),
                      "busy_s": stats["busy_s"]}
            tracer.write(args.trace_file)
            tracer.spans.clear()
        if mismatch or (time.monotonic() >= deadline and r >= args.trace_rounds):
            break
    stats.update(setup_s=setup_s, rounds=r, mismatch=mismatch, traced=traced,
                 rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(stats))


if __name__ == "__main__":
    main()
