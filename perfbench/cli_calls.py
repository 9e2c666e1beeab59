"""The ``cli`` workload: ``python -m phylo.cli`` subprocesses, one at a time.

A call costs interpreter start, the imports of ``phylo.cli`` (numpy
included) and the command itself, so start-up and import changes show
only here.  Seven of the ten calls in a round are tree-only commands, three
need numpy, so a lazy import would show on the first group and leave the
second alone.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gen
import markov_oracle as mo
import oracle
from oracle import Mismatch, read_newick, summary

SIM_SAMPLES = 20000
TOPOLOGY_N = 5


@dataclass
class Call:
    """One ``phylo`` command line and the check of its standard output."""

    cls: str
    argv: list[str]
    check: Callable[[str], Any]


def _files(workdir: str, tag: str, **docs) -> dict[str, str]:
    paths = {}
    for name, content in docs.items():
        path = os.path.join(workdir, f"{tag}-{name}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))
        paths[name] = path
    return paths


def round_calls(seed: int, r: int, workdir: str) -> list[Call]:
    """One round: ten commands with fixed sizes, seeded contents."""
    rng = random.Random(f"cli:{seed}:{r}")
    calls: list[Call] = []

    def add(cls: str, argv: list[str], check) -> None:
        calls.append(Call(cls, argv, check))

    t = gen.random_phylo(rng, 200)
    twin = gen.newick(t, rng)
    f = _files(workdir, "canon", tree=gen.newick(t, rng))
    want_canon = summary(t)

    def check_canon(out: str) -> None:
        oracle.expect_equal(summary(read_newick(out)), want_canon, "canon")
        if in_process_canon(twin) != out.strip():
            raise Mismatch("canon differs from the in-process form of a shuffled twin")

    add("canon", ["canon", f["tree"]], check_canon)

    a, b = gen.random_phylo(rng, 100), gen.random_phylo(rng, 101)
    i = rng.randint(1, a.n)
    f = _files(workdir, "compose", a=gen.newick(a, rng), b=gen.newick(b, rng))
    want_graft = oracle.graft(summary(a), i, summary(b))
    add("compose", ["compose", "--at", str(i), f["a"], f["b"]],
        lambda out: oracle.expect_equal(summary(read_newick(out)), want_graft, "compose"))

    t = gen.random_phylo(rng, 200)
    sigma = gen.perm(rng, 200)
    f = _files(workdir, "act", tree=gen.newick(t, rng))
    want_act = oracle.act(summary(t), sigma)
    add("act", ["act", "--perm", ",".join(map(str, sigma)), f["tree"]],
        lambda out: oracle.expect_equal(summary(read_newick(out)), want_act, "act"))

    w = gen.weighted(rng, 100, unary=25, zero=0.3)
    f = _files(workdir, "reduce", tree=gen.weighted_json(w))
    want_nf = summary(w, reduce=True)
    add("reduce", ["reduce", f["tree"]],
        lambda out: oracle.expect_equal(summary(read_newick(out)), want_nf, "reduce"))

    t = gen.random_phylo(rng, 200)
    f = _files(workdir, "decompose", tree=gen.newick(t, rng))
    want_dec = summary(t)

    def check_decompose(out: str) -> None:
        doc = json.loads(out)
        oracle.expect_equal(summary(read_newick(doc["metric"])),
                            oracle.metric_part(want_dec), "decompose")
        if doc["external"] != [want_dec.root, *want_dec.leaf]:
            raise Mismatch("decompose: external lengths differ")

    add("decompose", ["decompose", f["tree"]], check_decompose)

    x, y = gen.metric_pair(rng, 100, compatible=True)
    f = _files(workdir, "dist", x=gen.newick(x, rng), y=gen.newick(y, rng))
    sx, sy = summary(x), summary(y)

    def check_dist(out: str) -> None:
        d = json.loads(out)["distance"]
        # symmetry needs a second call; the algebra workload checks it
        oracle.check_distance(d, d, sx, sy)

    add("dist", ["dist", "--mode", "cone", f["x"], f["y"]], check_dist)
    add("topologies", ["topologies", "--n", str(TOPOLOGY_N)], check_topologies)

    model, _ = gen.reversible_model(rng)
    P = mo.Transitions(model["rows"])
    root = gen.distribution(rng, 4, gen.STATES4)
    t = gen.random_phylo(rng, 5)
    idx = [tuple(rng.randrange(4) for _ in range(5)) for _ in range(8)]
    f = _files(workdir, "evaluate", model=model, root=root, tree=gen.newick(t, rng))

    def check_evaluate(out: str) -> None:
        doc = json.loads(out)
        data = np.array(doc["data"]).reshape((4,) * doc["n"])
        mo.check_tensor(data, t, P, np.array(root["p"]), idx)

    add("evaluate", ["evaluate", "--model", f["model"], "--root", f["root"],
                     f["tree"]], check_evaluate)

    lim = gen.random_model(rng)
    f = _files(workdir, "limit", model=lim)
    add("limit", ["limit", "--model", f["model"]],
        lambda out: mo.check_limit(np.array(json.loads(out)["rows"]), lim["rows"]))

    mu = 0.5
    jc = gen.jc_model(mu)
    sim_root = gen.distribution(rng, 4, gen.STATES4)
    ts = gen.random_phylo(rng, 4)
    sim_seed = rng.randrange(2 ** 31)
    f = _files(workdir, "simulate", model=jc, root=sim_root, tree=gen.newick(ts, rng))

    def check_simulate(out: str) -> None:
        counts = np.array(json.loads(out)["counts"]).reshape((4,) * ts.n)
        mo.check_counts(counts, ts, mo.Transitions(jc["rows"], mu=mu),
                        np.array(sim_root["p"]), SIM_SAMPLES)

    add("simulate", ["simulate", "--model", f["model"], "--root", f["root"],
                     "--seed", str(sim_seed), "--samples", str(SIM_SAMPLES),
                     f["tree"]], check_simulate)
    rng.shuffle(calls)
    return calls


_FAMILIES = oracle.binary_families(TOPOLOGY_N)


def check_topologies(out: str) -> None:
    doc = json.loads(out)
    got = [frozenset(c for c in oracle.clusters_of(read_newick(s + ";")).values()
                     if 2 <= len(c) < TOPOLOGY_N) for s in doc["topologies"]]
    if doc["count"] != len(_FAMILIES) or set(got) != _FAMILIES or len(got) != len(set(got)):
        raise Mismatch(f"topologies: {doc['count']} listed, want {len(_FAMILIES)} distinct")


def in_process_canon(text: str) -> str:
    """The library's canonical text for ``text``: a property check needs
    the program twice, and the second time need not be a subprocess."""
    from phylo import newick
    return newick.serialize_newick(newick.parse_newick(text))


CALL_TIMEOUT_S = 60.0


def spawn(argv: list[str], env: dict, out_path: str, err_path: str
          ) -> tuple[int, float, float]:
    """Run one command; return (exit code, seconds, peak RSS in MB).  The
    wait blocks in wait4, which also gives the child's own peak RSS; a
    timer kills a call that hangs."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CALL_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        dt = time.perf_counter() - t
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, dt, usage.ru_maxrss / 1024.0


def cli_argv(args: list[str], importtime: bool) -> list[str]:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, "-m", "phylo.cli", *args]


def import_times(stderr: str) -> tuple[float, float]:
    """(numpy, phylo) seconds from ``-X importtime`` output.  numpy is its
    top-most entry's cumulative time; phylo is the cumulative time of the
    top-level ``phylo`` entries less the numpy nested inside them."""
    numpy_us = phylo_us = 0
    numpy_nested = False
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue        # the header line
        name = parts[2]
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        name = name.strip()
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
            numpy_nested = level > 0
        if level == 0 and name.split(".")[0] == "phylo":
            phylo_us += cumulative
    if numpy_nested:
        phylo_us -= numpy_us
    return numpy_us / 1e6, phylo_us / 1e6
