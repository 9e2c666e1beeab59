"""Seeded random generators for trees, used by the tests and the operad law
suite.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import random

from phylo.operads import PhyloTree, WeightedTree
from phylo.trees import PlanarTree, _freeze
from phylo.treespace import MetricTree, metric_tree, node_clusters


def random_shape(rng: random.Random, n: int) -> PlanarTree:
    """A random shape on leaves 1..n with no unary or 0-ary vertices: leaf
    blocks are shuffled and cut, visited in preorder, left to right."""
    kids: dict[int, list[int]] = {}
    stack = [(list(range(1, n + 1)), 0)]  # (block, vertex it hangs from)
    while stack:
        leaves, parent = stack.pop()
        u = leaves[0] if len(leaves) == 1 else -len(kids) - 1
        if parent:
            kids[parent].append(u)
        if u > 0:
            continue
        kids[u] = []
        rng.shuffle(leaves)
        parts = rng.randint(2, len(leaves))
        cuts = sorted(rng.sample(range(1, len(leaves)), parts - 1))
        bounds = list(zip([0] + cuts, cuts + [len(leaves)]))
        stack.extend((leaves[a:b], u) for a, b in reversed(bounds))
    return PlanarTree(n, -1 if kids else 1, _freeze(kids))


def random_length(rng: random.Random, zero_prob: float = 0.0,
                  lo: float = 0.05, hi: float = 2.0) -> float:
    """Dyadic lengths (multiples of 1/1024), so float sums are exact and the
    algebraic laws hold as bitwise equalities."""
    if rng.random() < zero_prob:
        return 0.0
    return rng.randint(max(1, round(lo * 1024)), round(hi * 1024)) / 1024.0


def random_phylo(rng: random.Random, n: int | None = None,
                 max_leaves: int = 6, zero_external_prob: float = 0.3
                 ) -> PhyloTree:
    if n is None:
        n = rng.randint(1, max_leaves)
    shape = random_shape(rng, n)
    lens = {}
    for u in shape.nodes:
        if shape.is_internal_edge(u):
            lens[u] = random_length(rng)
        else:
            lens[u] = random_length(rng, zero_prob=zero_external_prob)
    return PhyloTree.make(shape, lens)


def random_metric(rng: random.Random, n: int) -> MetricTree:
    t = random_phylo(rng, n, zero_external_prob=1.0)
    return MetricTree(t)


def random_metric_on_grid(rng: random.Random, n: int, step: float,
                          max_steps: int, clusters: int | None = None
                          ) -> MetricTree:
    """Metric tree whose internal lengths are positive multiples of ``step``."""
    t = random_phylo(rng, n, zero_external_prob=1.0)
    mask = node_clusters(t.shape)
    fam = [mask[v] for v in t.shape.internal_edge_sources()]
    if clusters is not None:
        fam = fam[:clusters]
    return metric_tree(n, {c: step * rng.randint(1, max_steps) for c in fam})


def random_weighted(rng: random.Random, n: int | None = None,
                    max_leaves: int = 6) -> WeightedTree:
    """A mixed tree for the rewrite engine: random shape with extra unary
    vertices inserted and a fair share of exact zero lengths."""
    if n is None:
        n = rng.randint(1, max_leaves)
    shape = random_shape(rng, n)
    for _ in range(rng.randint(0, 4)):
        shape = shape.insert_vertex(rng.choice(shape.nodes))
    lens = {u: random_length(rng, zero_prob=0.4) for u in shape.nodes}
    return WeightedTree.make(shape, lens)


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)
