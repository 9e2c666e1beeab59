"""Test-only oracles for ``phylo.operads``.

The reference rewrite system of ``normal_form``: single moves, each
removing one unary vertex or contracting one zero-length internal edge.
Applied in any order until none is left, they reach the one normal form
that ``normal_form`` computes in a single pass.

The operad law suite: ``operad_law_suite`` checks associativity, the two
unit laws and both equivariance laws of an ``Operad`` on seeded random
draws, and ``expand_outer_perm`` / ``expand_inner_perm`` give the block
permutations the equivariance laws compare against.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

from phylo.operads import Operad, WeightedTree
from phylo.trees import PlanarTree, _freeze
from sampling import random_perm


def applicable_moves(w: WeightedTree) -> tuple[tuple[str, int], ...]:
    """Rewrite moves available on ``w``: ("unary", v) removes the arity-1
    vertex v, summing its two edge lengths; ("zero", v) contracts the
    zero-length internal edge out of v, merging v into its parent."""
    moves: list[tuple[str, int]] = []
    for v in w.shape.vertices:
        if w.shape.arity(v) == 1:
            moves.append(("unary", v))
        if w.shape.is_internal_edge(v) and w.length_map[v] == 0.0:
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



def expand_outer_perm(sigma: Sequence[int], i: int, n: int) -> tuple[int, ...]:
    """The block permutation with (f . sigma) o_i g = (f o_{sigma(i)} g) . result."""
    sigma = tuple(sigma)
    m = len(sigma)
    si = sigma[i - 1]
    out = []
    for x in range(1, m + n):
        if i <= x <= i + n - 1:
            out.append(si + x - i)
        else:
            q = x if x < i else x - n + 1
            sq = sigma[q - 1]
            out.append(sq if sq < si else sq + n - 1)
    return tuple(out)


def expand_inner_perm(tau: Sequence[int], i: int, m: int) -> tuple[int, ...]:
    """The block permutation with f o_i (g . tau) = (f o_i g) . result."""
    tau = tuple(tau)
    n = len(tau)
    out = []
    for x in range(1, m + n):
        if i <= x <= i + n - 1:
            out.append(i - 1 + tau[x - i])
        else:
            out.append(x)
    return tuple(out)


class LawReport:
    def __init__(self, law: str) -> None:
        self.law = law
        self.checked = 0
        self.failures: list = []

    @property
    def passed(self) -> bool:
        return not self.failures


def operad_law_suite(operad: Operad,
                     sample: Callable[[random.Random], Any],
                     trials: int = 100,
                     seed: int = 0) -> list[LawReport]:
    """Property-check associativity, units, and equivariance on random draws.

    ``sample`` draws a random operation of the instance.  Returns one report
    per law, with counterexamples (the offending operands) on failure.
    """
    rng = random.Random(seed)
    reports = {name: LawReport(name) for name in
               ("associativity", "left unit", "right unit",
                "equivariance outer", "equivariance inner")}

    def draw_positive() -> Any:
        for _ in range(1000):
            f = sample(rng)
            if operad.arity(f) >= 1:
                return f
        raise RuntimeError("sampler never produced an operation of arity >= 1")

    def check(rep: LawReport, sides: Callable[[], tuple[Any, Any]],
              witness: tuple) -> None:
        # an exception while forming either side is itself a counterexample
        try:
            lhs, rhs = sides()
            ok = lhs == rhs
        except Exception as exc:  # noqa: BLE001
            rep.failures.append(witness + (repr(exc),))
            return
        if not ok:
            rep.failures.append(witness)

    for _ in range(trials):
        f, g, h = draw_positive(), draw_positive(), draw_positive()
        m, n = operad.arity(f), operad.arity(g)
        i = rng.randint(1, m)
        j = rng.randint(1, n)
        sigma = random_perm(rng, m)
        tau = random_perm(rng, n)

        rep = reports["associativity"]
        rep.checked += 1
        check(rep,
              lambda: (operad.compose(operad.compose(f, i, g), i - 1 + j, h),
                       operad.compose(f, i, operad.compose(g, j, h))),
              ("nested", f, i, g, j, h))
        if m >= 2:
            i2 = rng.randint(1, m - 1)
            j2 = rng.randint(i2 + 1, m)
            check(rep,
                  lambda: (operad.compose(operad.compose(f, i2, g), j2 + n - 1, h),
                           operad.compose(operad.compose(f, j2, h), i2, g)),
                  ("disjoint", f, i2, j2, g, h))

        rep = reports["left unit"]
        rep.checked += 1
        check(rep, lambda: (operad.compose(operad.identity, 1, f), f), (f,))

        rep = reports["right unit"]
        rep.checked += 1
        check(rep, lambda: (operad.compose(f, i, operad.identity), f), (f, i))

        rep = reports["equivariance outer"]
        rep.checked += 1
        check(rep,
              lambda: (operad.compose(operad.act(f, sigma), i, g),
                       operad.act(operad.compose(f, sigma[i - 1], g),
                                  expand_outer_perm(sigma, i, n))),
              (f, sigma, i, g))

        rep = reports["equivariance inner"]
        rep.checked += 1
        check(rep,
              lambda: (operad.compose(f, i, operad.act(g, tau)),
                       operad.act(operad.compose(f, i, g),
                                  expand_inner_perm(tau, i, m))),
              (f, i, g, tau))

    return list(reports.values())
