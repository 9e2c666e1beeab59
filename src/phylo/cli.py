"""Command-line interface: thin wrappers over the library.

Tree-valued results print as canonical Newick text; structured results
print as JSON.  Diagnostics go to stderr.  Exit codes: 0 success, 1 bad
input (a malformed command line included), 2 internal invariant
violation.

Each command imports the layers it calls, so the tree-only commands start
without numpy: only evaluate, limit, jc, simulate and wcheck load the Markov
layers, and only decompose, recompose, topologies and dist load tree space.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, NoReturn, Sequence

from . import newick, operads
from .operads import MalformedLabelling, PhyloTree, WeightedTree
from .trees import PhyloError, PlanarTree, TreeError, _freeze


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str) -> Any:
    text = _read(path)
    try:
        return json.loads(text)
    except RecursionError:
        # the decoder recurses once per nesting level
        raise json.JSONDecodeError("JSON nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # int() refuses to read more than sys.get_int_max_str_digits() digits
        raise json.JSONDecodeError("JSON integer has too many digits",
                                   text, 0) from None


def _load_tree(path: str, allow_infinite: bool = False) -> PhyloTree:
    return newick.parse_newick(_read(path).strip(), allow_infinite=allow_infinite)


def _emit_json(doc: Any) -> None:
    print(json.dumps(doc))


def _weighted_from_json(doc: Any) -> WeightedTree:
    kids: dict[int, list[int]] = {}
    lengths: dict[int, Any] = {}
    leaves: list[int] = []
    root = 0
    stack = [(doc, 0)]  # (node, id of the vertex it hangs from; 0 at the root)
    while stack:
        node, parent = stack.pop()
        if not isinstance(node, dict) or "length" not in node:
            raise MalformedLabelling("each node needs a 'length'")
        if "leaf" in node:
            u = node["leaf"]
            if isinstance(u, bool) or not isinstance(u, int):
                raise MalformedLabelling(f"leaf label {u!r} is not an integer")
            leaves.append(u)
        elif isinstance(node.get("children"), list):
            u = -(len(kids) + 1)
            kids[u] = []
            stack.extend((c, u) for c in reversed(node["children"]))
        else:
            raise MalformedLabelling("each node needs 'leaf' or a list of 'children'")
        lengths[u] = node["length"]
        if parent:
            kids[parent].append(u)
        else:
            root = u
    n = len(leaves)
    if sorted(leaves) != list(range(1, n + 1)):
        raise MalformedLabelling(f"leaf labels must be 1..{n}")
    return WeightedTree.make(PlanarTree(n, root, _freeze(kids)), lengths)


def _shape_string(shape: PlanarTree) -> str:
    text: dict[int, str] = {}
    for u in reversed(shape.preorder):
        text[u] = str(u) if u > 0 else (
            "(" + ",".join([text.pop(c) for c in shape.child_map[u]]) + ")")
    return text[shape.root]


def _perm_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise TreeError(f"bad permutation {text!r}") from exc


# -- subcommand bodies -------------------------------------------------------

def _cmd_validate(args: argparse.Namespace) -> int:
    t = _load_tree(args.tree)
    # the tree as built: counting edges needs no canonical form
    _emit_json({"valid": True, "n": t.n,
                "internal_edges": len(t._rep.internal_edge_sources())})
    return 0


def _cmd_canon(args: argparse.Namespace) -> int:
    print(newick.serialize_newick(_load_tree(args.tree)))
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    outer = _load_tree(args.outer)
    inner = _load_tree(args.inner)
    print(newick.serialize_newick(operads.phylo_compose(outer, args.at, inner)))
    return 0


def _cmd_act(args: argparse.Namespace) -> int:
    t = _load_tree(args.tree)
    print(newick.serialize_newick(operads.phylo_act(t, _perm_arg(args.perm))))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    w = _weighted_from_json(_read_json(args.tree))
    print(newick.serialize_newick(operads.to_phylo(operads.normal_form(w))))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from . import treespace
    m, ext = treespace.decompose(_load_tree(args.tree))
    _emit_json({"metric": newick.serialize_newick(m.tree),
                "external": list(ext.values)})
    return 0


def _cmd_recompose(args: argparse.Namespace) -> int:
    from . import treespace
    doc = _read_json(args.factors)
    if not (isinstance(doc, dict) and isinstance(doc.get("metric"), str)
            and isinstance(doc.get("external"), list)):
        raise TreeError('factors JSON needs "metric" Newick text and an '
                        '"external" list of numbers')
    m = treespace.MetricTree(newick.parse_newick(doc["metric"].strip()))
    out = treespace.recompose(m, treespace.ExternalLengths(tuple(doc["external"])))
    print(newick.serialize_newick(out))
    return 0


def _cmd_topologies(args: argparse.Namespace) -> int:
    from . import treespace
    tops = treespace.enumerate_binary_topologies(args.n)
    strings = sorted(_shape_string(o.shape) for o in tops)
    _emit_json({"n": args.n, "count": len(strings), "topologies": strings})
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    from . import treespace
    x = treespace.MetricTree(_load_tree(args.x))
    y = treespace.MetricTree(_load_tree(args.y))
    d = treespace.bhv_distance(x, y, mode=args.mode)
    _emit_json({"mode": args.mode, "distance": d})
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from . import coalgebra, markov
    g = markov.generator_from_json(_read_json(args.model))
    f = markov.distribution_from_json(_read_json(args.root))
    t = _load_tree(args.tree, allow_infinite=args.extended)
    _emit_json(coalgebra.tensor_to_json(coalgebra.evaluate(t, g, f)))
    return 0


def _cmd_limit(args: argparse.Namespace) -> int:
    from . import markov
    g = markov.generator_from_json(_read_json(args.model))
    p = markov.limit_operator(g)
    _emit_json(markov.matrix_to_json(p.states, p.M))
    return 0


def _cmd_jc(args: argparse.Namespace) -> int:
    from . import markov
    g = markov.jukes_cantor(args.mu, args.k)
    _emit_json(markov.matrix_to_json(g.states, g.H))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import markov
    g = markov.generator_from_json(_read_json(args.model))
    f = markov.distribution_from_json(_read_json(args.root))
    t = _load_tree(args.tree)
    counts = markov.simulate_branching(t, g, f, seed=args.seed,
                                       samples=args.samples)
    _emit_json({"states": list(g.states.labels), "n": t.n,
                "samples": args.samples,
                "counts": counts.ravel().tolist()})
    return 0


def _cmd_wcheck(args: argparse.Namespace) -> int:
    from . import coalgebra
    t = _load_tree(args.tree, allow_infinite=True)
    _emit_json({"w_member": coalgebra.w_membership(t)})
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a malformed command line, like any other bad input; 2
    stays for internal faults.  Subcommand parsers take this class too."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="phylo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a Newick tree")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("canon", help="canonical Newick form")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("compose", help="graft B onto leaf i of A")
    p.add_argument("--at", type=int, required=True, metavar="I")
    p.add_argument("outer", metavar="A.nwk")
    p.add_argument("inner", metavar="B.nwk")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("act", help="relabel leaves by a permutation")
    p.add_argument("--perm", required=True, help='e.g. "2,3,1"')
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_act)

    p = sub.add_parser("reduce", help="normal form of a labelled-tree JSON file")
    p.add_argument("tree", metavar="TREE.json")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("decompose", help="split into metric tree + external lengths")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("recompose", help="rebuild a tree from decompose output")
    p.add_argument("factors", metavar="FACTORS.json")
    p.set_defaults(fn=_cmd_recompose)

    p = sub.add_parser("topologies", help="enumerate binary topologies")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_topologies)

    p = sub.add_parser("dist", help="tree-space distance between metric trees")
    p.add_argument("--mode", choices=["exact4", "cone", "auto"], default="auto")
    p.add_argument("x", metavar="X.nwk")
    p.add_argument("y", metavar="Y.nwk")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("evaluate", help="joint leaf tensor of a tree under a model")
    p.add_argument("--model", required=True, metavar="H.json")
    p.add_argument("--root", required=True, metavar="f.json")
    p.add_argument("--extended", action="store_true",
                   help="accept 'inf' lengths and use the limit matrix")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("limit", help="infinite-time transition matrix")
    p.add_argument("--model", required=True, metavar="H.json")
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("jc", help="uniform-rate substitution generator")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(fn=_cmd_jc)

    p = sub.add_parser("simulate", help="seeded joint leaf-state counts")
    p.add_argument("--model", required=True, metavar="H.json")
    p.add_argument("--root", required=True, metavar="f.json")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("wcheck", help="are all external edges infinite?")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_wcheck)

    return ap


_INPUT_ERRORS = (PhyloError, json.JSONDecodeError, UnicodeDecodeError, OSError)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violation, report as a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
