"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from itertools import permutations

import numpy as np
from hypothesis import settings

from phylo.operads import Operad
from phylo.trees import PlanarTree

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")


def brute_force_isomorphic(t1: PlanarTree, t2: PlanarTree,
                           planar: bool = False) -> bool:
    """Try every vertex bijection; the oracle the canonical forms must match."""
    if t1.n != t2.n or t1.num_vertices != t2.num_vertices:
        return False
    fixed = {j: j for j in range(0, t1.n + 1)}
    for image in permutations(t2.vertices):
        f = dict(zip(t1.vertices, image))
        f.update(fixed)
        ok = all(t2.parent.get(f[u]) == f[t1.parent[u]] for u in t1.nodes)
        if ok and planar:
            ok = all(tuple(f[c] for c in t1.child_map[v]) == t2.child_map[f[v]]
                     for v in t1.vertices)
        if ok:
            return True
    return False


def caterpillar(depth: int) -> PlanarTree:
    """Vertex -k holds leaf k and vertex -(k+1); the deepest holds two leaves."""
    kids = {-k: (k, -(k + 1)) for k in range(1, depth)}
    kids[-depth] = (depth, depth + 1)
    return PlanarTree(depth + 1, -1, tuple(sorted(kids.items())))


def caterpillar_newick(depth: int) -> str:
    """Newick text of ``caterpillar(depth)`` with leaf edges 0.5, internal
    edges 1 and root edge 0, written without the (recursive) serializer."""
    head = "".join(f"({k}:0.5," for k in range(1, depth))
    return head + f"({depth}:0.5,{depth + 1}:0.5)" + ":1)" * (depth - 1) + ":0;"


def balanced_newick(n: int) -> str:
    """Newick text of a tree on leaves 1..n that pairs neighbouring blocks
    level by level: depth about log2(n), leaf edges 0.5, internal edges 1."""
    parts = [f"{k}:0.5" for k in range(1, n + 1)]
    while len(parts) > 1:
        paired = [f"({a},{b}):1" for a, b in zip(parts[::2], parts[1::2])]
        parts = paired + parts[len(paired) * 2:]
    return parts[0].removesuffix(":1").removesuffix(":0.5") + ":0;"


def expm_taylor(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Plain truncated exponential series, no scaling: the expm oracle."""
    total = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        total = total + term
    return total


def random_reducible(rng, s_max: int = 12, span: float = 12) -> np.ndarray:
    """Up to s_max states, 30% of the rates present, each 10^U(-span, span):
    most chains have several closed classes and transient states."""
    s = rng.randint(1, s_max)
    h = np.array([[10.0 ** rng.uniform(-span, span)
                   if x != y and rng.random() < 0.3 else 0.0
                   for x in range(s)] for y in range(s)])
    return h - np.diag(h.sum(axis=0))


def _formal_arity(f) -> int:
    if f[0] == "id":
        return 1
    if f[0] == "op":
        return f[2]
    _, g, _, h = f
    return _formal_arity(g) + _formal_arity(h) - 1


# composition recorded as a syntax tree, for checking which slots were used
FORMAL = Operad(
    "formal",
    arity=_formal_arity,
    compose=lambda f, i, g: ("comp", f, i, g),
    identity=("id",),
    contains=lambda f: isinstance(f, tuple),
)


def formal_op(name: str, arity: int):
    return ("op", name, arity)
