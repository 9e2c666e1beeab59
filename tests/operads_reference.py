"""The reference rewrite system of ``phylo.operads.normal_form``, kept as a
test-only oracle: single moves, each removing one unary vertex or
contracting one zero-length internal edge.  Applied in any order until none
is left, they reach the one normal form that ``normal_form`` computes in a
single pass.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from phylo.operads import WeightedTree
from phylo.trees import PlanarTree, _freeze


def applicable_moves(w: WeightedTree) -> tuple[tuple[str, int], ...]:
    """Rewrite moves available on ``w``: ("unary", v) removes the arity-1
    vertex v, summing its two edge lengths; ("zero", v) contracts the
    zero-length internal edge out of v, merging v into its parent."""
    moves: list[tuple[str, int]] = []
    for v in w.shape.vertices:
        if w.shape.arity(v) == 1:
            moves.append(("unary", v))
        if w.shape.is_internal_edge(v) and w.length(v) == 0.0:
            moves.append(("zero", v))
    return tuple(moves)


def apply_move(w: WeightedTree, move: tuple[str, int]) -> WeightedTree:
    kind, v = move
    lens = dict(w.length_map)
    if kind == "unary":
        (c,) = w.shape.child_map[v]
        lens[c] = lens[c] + lens.pop(v)
        kids = {x: tuple(c if y == v else y for y in cs)
                for x, cs in w.shape.children if x != v}
        root = c if w.shape.root == v else w.shape.root
        return WeightedTree.make(PlanarTree(w.n, root, _freeze(kids)), lens)
    if kind == "zero":
        lens.pop(v)
        return WeightedTree.make(w.shape.contract_edges((v,)), lens)
    raise ValueError(f"unknown move {move!r}")
