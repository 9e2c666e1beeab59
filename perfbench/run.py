"""Benchmark for phylo: one command per workload, every output checked.

    python3 perfbench/run.py --workload {algebra,likelihood,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; nothing needs installing.  The program
is imported from ``src`` (``PYTHONPATH=src``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Details, spans and command outputs go to
``.perfbench_out/``.  A wrong output makes the command exit 1 and names
the operation on standard error.
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

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("algebra", "likelihood", "cli")
# Percentile of op_tail_ms: the highest with at least ten samples beyond it
# in a run of BENCHMARK.json's length.  algebra fails 2 of 66 operations a
# round, and those must stay fewer than the samples beyond its percentile.
TAIL = {"algebra": 0.95, "likelihood": 0.99, "cli": 0.90}
# Rounds in the traced run: a fixed amount of work, so that counts repeat
# exactly for a seed.
TRACE_ROUNDS = {"algebra": 10, "likelihood": 20, "cli": 2}
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
# One BLAS thread: a single caller in a single process, on two cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(xs: list[float], q: float) -> float:
    """Nearest rank: the smallest sample with at least a share q at or below it."""
    ys = sorted(xs)
    return ys[max(0, math.ceil(q * len(ys)) - 1)]


def metric_block(specs: list[dict], values: dict[str, float]) -> dict:
    return {s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]}
            for s in specs}


# ---------------------------------------------------------------------------
# in-process workloads: a fresh worker process per set-up sample
# ---------------------------------------------------------------------------

def run_worker(args, env: dict, extra: list[str]) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)] + extra
    t0 = time.monotonic()
    p = subprocess.run(argv + ["--t0", repr(t0)], env=env, capture_output=True,
                       text=True, timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"worker exited {p.returncode}: {p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_in_process(args, env: dict, out_dir: str) -> dict:
    if args.trace:
        trace_file = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
        rep = run_worker(args, env, ["--trace-rounds",
                                     str(TRACE_ROUNDS[args.workload]),
                                     "--trace-file", trace_file])
        t = rep["traced"]       # empty when a wrong output ended the run early
        rep["layers"] = t.get("layers", {})
        if t:
            rep["traced_ops_per_s"] = t["completed"] / t["busy_s"]
        return rep
    setups = [run_worker(args, env, ["--setup-only"])["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    rep = run_worker(args, env, [])
    setups.append(rep["setup_s"])
    rep["setup_samples_s"] = setups
    rep["setup_s"] = statistics.median(setups)
    return rep


# ---------------------------------------------------------------------------
# the cli workload: subprocesses from this process
# ---------------------------------------------------------------------------

def run_cli(args, env: dict, out_dir: str) -> dict:
    sys.path.insert(0, env["PYTHONPATH"])
    import cli_calls

    work = os.path.join(out_dir, "cli")
    os.makedirs(work, exist_ok=True)
    stdout_path = os.path.join(work, "stdout")
    stderr_path = os.path.join(work, "stderr")

    def bare(code: str) -> float:
        rc, dt, _ = cli_calls.spawn([sys.executable, "-c", code], env,
                                    stdout_path, stderr_path)
        if rc != 0:
            raise BenchError(f"python -c {code!r} exited {rc}")
        return dt

    rep: dict = {"attempted": 0, "busy_s": 0.0, "samples_ms": [], "errors": {}}
    by_class: dict[str, list[float]] = {}
    layer = {"numpy_s": [], "phylo_s": [], "exec_s": []}
    if args.trace:
        interpreter_s = statistics.median(bare("pass") for _ in range(SETUP_REPEATS))
    else:
        setups = [bare("import phylo.cli") for _ in range(SETUP_REPEATS)]
        rep["setup_samples_s"] = setups
        rep["setup_s"] = statistics.median(setups)
    peak = 0.0
    mismatch = None
    traced_s = 0.0
    deadline = time.monotonic() + args.seconds
    r = 0
    while mismatch is None:
        traced = bool(args.trace) and r < TRACE_ROUNDS["cli"]
        for call in cli_calls.round_calls(args.seed, r, work):
            rc, dt, rss = cli_calls.spawn(cli_calls.cli_argv(call.argv, traced),
                                          env, stdout_path, stderr_path)
            peak = max(peak, rss)
            rep["attempted"] += 1
            rep["busy_s"] += dt
            with open(stderr_path, encoding="utf-8") as fh:
                err = fh.read()
            if rc != 0:
                key = f"{call.cls}: exit {rc}"
                rep["errors"][key] = rep["errors"].get(key, 0) + 1
                rep.setdefault("stderr", err[-500:])
                continue
            rep["samples_ms"].append(dt * 1e3)
            by_class.setdefault(call.cls, []).append(dt * 1e3)
            if traced:
                traced_s += dt
                numpy_s, phylo_s = cli_calls.import_times(err)
                layer["numpy_s"].append(numpy_s)
                layer["phylo_s"].append(phylo_s)
                layer["exec_s"].append(dt - interpreter_s - numpy_s - phylo_s)
            with open(stdout_path, encoding="utf-8") as fh:
                out = fh.read()
            try:
                call.check(out)
            except Exception as exc:  # any wrong output names its operation
                mismatch = f"round {r}, command {call.cls}: {type(exc).__name__}: {exc}"
                break
        r += 1
        if time.monotonic() >= deadline and (not args.trace or r >= TRACE_ROUNDS["cli"]):
            break
    rep.update(rounds=r, mismatch=mismatch, rss_mb=peak,
               median_ms_by_command={c: statistics.median(v) for c, v in by_class.items()})
    if args.trace and layer["exec_s"]:
        rep["layers"] = {"cli.interpreter_s": interpreter_s,
                         **{"cli.import." + k: statistics.fmean(layer[k])
                            for k in ("numpy_s", "phylo_s")},
                         "cli.exec_s": statistics.fmean(layer["exec_s"])}
        rep["traced_ops_per_s"] = len(layer["exec_s"]) / traced_s
    rep.setdefault("layers", {})
    return rep


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "phylo", "cli.py"))
            and os.path.isfile(spec_path)):
        print("perfbench: run from the root of a phylo checkout "
              "(no src/phylo/cli.py or BENCHMARK.json here)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.environ.update(BLAS_ENV)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)

    try:
        if args.workload == "cli":
            rep = run_cli(args, env, out_dir)
        else:
            rep = run_in_process(args, env, out_dir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    samples = rep["samples_ms"]
    completed = len(samples)
    if not completed:
        print(f"perfbench: no operation completed: {rep['errors']}", file=sys.stderr)
        return 1
    failed = rep["attempted"] - completed
    if args.trace:
        values = rep["layers"]
        specs = spec["per_layer"]
    else:
        values = {"ops_per_s": completed / rep["busy_s"],
                  "op_p50_ms": statistics.median(samples),
                  "op_tail_ms": percentile(samples, TAIL[args.workload]),
                  "setup_s": rep["setup_s"],
                  "peak_rss_mb": rep["rss_mb"]}
        specs = spec["end_to_end"]
    result = {"correct": rep["mismatch"] is None, "attempted": rep["attempted"],
              "failed": failed, "metrics": metric_block(specs, values)}

    detail = dict(rep, samples_ms=None, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, result=result,
                  tail_percentile=TAIL[args.workload])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if rep["errors"]:
        print(f"perfbench: failed operations: {rep['errors']}", file=sys.stderr)
    if rep["mismatch"]:
        print(f"perfbench: WRONG OUTPUT in {rep['mismatch']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
