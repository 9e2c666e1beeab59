"""Reference figures from the files a traced and an untraced run leave in
``.perfbench_out/``: the baseline probes of ROADMAP.md and the tracing
overhead.  Run every workload with ``--trace 0`` and ``--trace 1`` on one
seed first, then:

    python3 perfbench/reference.py --seed N
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

OUT = ".perfbench_out"


def spans(workload: str) -> list[list]:
    with open(os.path.join(OUT, f"spans-{workload}.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def detail(workload: str, seed: int, trace: int) -> dict:
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(OUT, name), encoding="utf-8") as fh:
        return json.load(fh)


def span_ms(rows: list[list], name: str, op_cls: str, keep) -> float:
    """Mean duration (children included) of ``name`` spans inside
    operations of class ``op_cls`` whose measure passes ``keep``."""
    ops = {r[4]: r[0] for r in rows if r[0].startswith("op.")}
    ms = [(r[2] - r[1]) * 1e3 for r in rows
          if r[0] == name and ops.get(r[4]) == "op." + op_cls and keep(r[5])]
    return statistics.fmean(ms)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    seed = ap.parse_args().seed
    alg, lik = spans("algebra"), spans("likelihood")
    for n in (8, 32, 128):
        ms = span_ms(alg, "operads.compose", "compose", lambda m, n=n: m == n)
        print(f"phylo_compose n={n}: {ms:.3f} ms/op")
    for n in (8, 9):
        ms = span_ms(lik, "coalgebra.evaluate", "evaluate_jc",
                     lambda m, n=n: m[2] == n and m[3] == 4)
        print(f"evaluate JC k=4 n={n}: {ms:.2f} ms")
    for w, rows in (("algebra", alg), ("likelihood", lik)):
        by_class: dict[str, float] = {}
        for r in rows:
            if r[0].startswith("op."):
                by_class[r[0][3:]] = by_class.get(r[0][3:], 0.0) + r[2] - r[1]
        total = sum(by_class.values())
        print(f"{w} time share: " + ", ".join(
            f"{c} {t / total:.0%}" for c, t in sorted(by_class.items(), key=lambda x: -x[1])))
    cli0, cli1 = detail("cli", seed, 0), detail("cli", seed, 1)
    print("cli median ms by command: " + ", ".join(
        f"{c} {ms:.0f}" for c, ms in sorted(cli0["median_ms_by_command"].items())))
    print(f"phylo canon call: {cli0['median_ms_by_command']['canon']:.1f} ms (median)")
    layers = {k: v["value"] for k, v in cli1["result"]["metrics"].items()}
    numpy_s, phylo_s = layers["cli.import.numpy_s"], layers["cli.import.phylo_s"]
    print(f"import of phylo.cli: {(numpy_s + phylo_s) * 1e3:.0f} ms, "
          f"numpy {numpy_s * 1e3:.0f} ms ({numpy_s / (numpy_s + phylo_s):.0%})")
    for w in ("algebra", "likelihood", "cli"):
        plain = detail(w, seed, 0)["result"]["metrics"]["ops_per_s"]["value"]
        traced = detail(w, seed, 1)["traced_ops_per_s"]
        print(f"tracing overhead {w}: traced {traced:.2f} vs untraced "
              f"{plain:.2f} ops/s ({traced / plain - 1:+.1%})")


if __name__ == "__main__":
    main()
