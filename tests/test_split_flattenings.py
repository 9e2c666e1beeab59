"""Split flattenings: a leaf tensor knows its tree.

Take a cluster A of t.  The joint leaf tensor ``evaluate(t)``, flattened to
an s^|A| x s^(n-|A|) matrix, factors through the state atop A's edge, so
its rank is at most s; across an infinite edge the two sides are
independent under an irreducible model, and the rank is 1 (Allman &
Rhodes 2008, Adv. Appl. Math. 40:127-148).  The operator is the same with
the root state as one more axis, on A's complement.  A cluster below a
zero-length internal edge keeps the bound, though ``normal_form`` merges
its vertex into the one above.

The check reads leaf labels and tensor axes only, so it holds for any
child order and any way of folding the root: it watches the axis
bookkeeping of the pruning pass, and a wrong final axis permutation fails
it.
"""

import math
import random

import numpy as np
import pytest

from phylo.coalgebra import evaluate, evaluate_operator
from phylo.markov import Distribution, validate_generator
from phylo.operads import PhyloTree, WeightedTree, normal_form
from phylo.treespace import node_clusters
from phylo.trees import PlanarTree, _freeze
from sampling import random_shape

# the largest sigma_(s+1) / sigma_1 of a split, and sigma_2 / sigma_1 across
# an infinite edge; at most 4e-16 on the seeded trees below
SPLIT_TOL = 1e-12
# the smallest ratio a non-split must show for the check to tell it apart;
# the mixed-up tensors below stay above 2e-3
NON_SPLIT_FLOOR = 1e-6


def random_model(rng, s):
    h = np.array([[rng.uniform(0.1, 2) for _ in range(s)] for _ in range(s)])
    np.fill_diagonal(h, 0.0)
    g = validate_generator(h - np.diag(h.sum(axis=0)))
    p = np.array([rng.uniform(0.1, 1) for _ in range(s)])
    return g, Distribution.make(g.states, p / p.sum())


def binary_shape(rng, n):
    """A random binary shape on leaves 1..n: join two random roots until one
    is left."""
    roots, kids = list(range(1, n + 1)), {}
    while len(roots) > 1:
        rng.shuffle(roots)
        v = -len(kids) - 1
        kids[v] = (roots.pop(), roots.pop())
        roots.append(v)
    return PlanarTree(n, roots[0], _freeze(kids))


def seeded_case(seed, special=True):
    """A tree on 4..7 leaves (fewer as s grows), its model, and {cluster
    mask: length} for every internal edge of the shape it was drawn on.
    With ``special`` the shape has multifurcations, and any length may be 0
    and an internal one inf; ``normal_form`` contracts the zero internal
    edges.  Without, the shape is binary and every length in [0.05, 0.6]."""
    rng = random.Random(seed)
    s = rng.choice((2, 3, 4))
    n = rng.randint(4, {2: 7, 3: 6, 4: 5}[s])
    shape = random_shape(rng, n) if special else binary_shape(rng, n)
    lens = {}
    for u in shape.nodes:
        r = rng.random() if special else 1.0
        internal = u < 0 and shape.parent[u] < 0
        lens[u] = (0.0 if r < 0.2 else math.inf if internal and r < 0.35
                   else rng.uniform(0.05, 0.6))
    w = normal_form(WeightedTree.make(shape, lens))
    t = PhyloTree.make(w.shape, w.length_map, extended=True)
    mask = node_clusters(shape)
    clusters = {mask[v]: lens[v] for v in shape.internal_edge_sources()}
    return t, s, clusters, random_model(rng, s)


def ratios(data, s, n, clusters):
    """{cluster: sigma_(k+1) / sigma_1} for the tensor ``data`` with leaf j
    on axis j - 1 and any further axis on the complement's side; k is 1
    across an infinite edge and s otherwise."""
    out = {}
    for c, length in clusters.items():
        side = [j - 1 for j in range(1, n + 1) if c >> (j - 1) & 1]
        rest = [a for a in range(data.ndim) if a not in side]
        m = data.transpose(side + rest).reshape(s ** len(side), -1)
        sv = np.linalg.svd(m, compute_uv=False)
        k = 1 if length == math.inf else s
        out[c] = sv[k] / sv[0] if len(sv) > k else 0.0
    return out


def tensors(t, s, g, f):
    """The vector tensor, axes leaf 1..n, and the operator, axes leaf 1..n
    and then the root state."""
    return (evaluate(t, g, f).data,
            evaluate_operator(t, g).reshape((s,) * (t.n + 1)))


def misplaced(data, t):
    """``data`` as the pruning pass would return it with the permutation and
    its inverse mixed up in the final axis order, in the vector's transpose
    or the operator's einsum alike: axis i then holds leaf p(p(i)) + 1,
    where p(i) + 1 is the i-th leaf of ``t.shape``'s leaf order."""
    p = [j - 1 for j in t.shape.leaf_order()]
    return data.transpose([p[p[i]] for i in range(t.n)] + [*range(t.n, data.ndim)])


SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_cluster_flattens_to_rank_at_most_s(seed):
    t, s, clusters, (g, f) = seeded_case(seed)
    for data in tensors(t, s, g, f):
        assert max(ratios(data, s, t.n, clusters).values(), default=0.0) < SPLIT_TOL


def test_the_cases_cover_what_the_check_is_for():
    cases = [seeded_case(seed) for seed in SEEDS]
    lengths = [x for _, _, clusters, _ in cases for x in clusters.values()]
    assert {s for _, s, _, _ in cases} == {2, 3, 4}
    assert 0.0 in lengths and math.inf in lengths
    assert any(t.shape.arity(v) > 2 for t, *_ in cases for v in t.shape.vertices)


def test_a_wrong_final_axis_permutation_fails_the_check():
    # on a binary tree with generic lengths and rates, a leaf set B flattens
    # to rank at most s only when B is a cluster, a leaf or, for the vector,
    # the complement of one
    caught = 0
    for seed in SEEDS:
        t, s, clusters, (g, f) = seeded_case(seed, special=False)
        full, p = (1 << t.n) - 1, [j - 1 for j in t.shape.leaf_order()]
        low = {*clusters, *(1 << i for i in range(t.n))}
        moved = {sum(1 << p[p[i]] for i in range(t.n) if c >> i & 1)
                 for c in clusters}
        for data, splits in zip(tensors(t, s, g, f),
                                (low | {full ^ c for c in low}, low)):
            if moved <= splits:
                continue  # the mix-up lands every cluster on a split
            assert max(ratios(misplaced(data, t), s, t.n,
                              clusters).values()) > NON_SPLIT_FLOOR
            caught += 1
    assert caught >= 80
