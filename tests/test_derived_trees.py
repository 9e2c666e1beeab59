"""Trees the library derives from valid trees skip ``PlanarTree``'s checks;
these seeded properties re-run the full validation on every such tree.

``canonical``, ``graft`` (``_grafted``), ``permute_leaves``,
``contract_edges``, ``parse_newick`` and ``normal_form`` (its unary-free
shape) build their results unchecked.
Rebuilding each result through the public constructor must give an equal
tree, on binary, multifurcating and caterpillar trees up to 2,000 leaves
and, where the operation allows them, trees with unary vertices.
"""

import random

import pytest

from conftest import caterpillar, caterpillar_newick
from phylo import newick
from phylo.operads import PhyloTree, WeightedTree, normal_form
from phylo.trees import (
    MultipleRootEdges,
    PlanarTree,
    SourceNotBijective,
    TreeError,
    UnreachableRoot,
    _freeze,
)


def random_tree(rng: random.Random, n: int, max_arity: int,
                unary: float = 0.0) -> PlanarTree:
    """Groups of 2..max_arity neighbours merge under fresh vertices until one
    node is left; with probability ``unary`` a step adds a unary vertex
    instead.  Vertex ids are scattered negative ints."""
    pool = list(range(1, n + 1))
    rng.shuffle(pool)
    ids = iter(rng.sample(range(1, 10 * n + 10), 4 * n + 4))
    kids: dict[int, tuple[int, ...]] = {}
    while True:
        if rng.random() < unary and len(kids) < 3 * n:
            k = 1
        elif len(pool) == 1:
            break
        else:
            k = rng.randint(2, min(max_arity, len(pool)))
        at = rng.randint(0, len(pool) - k)
        v = -next(ids)
        kids[v] = tuple(pool[at:at + k])
        pool[at:at + k] = [v]
    return PlanarTree(n, pool[0], _freeze(kids))


def trees(seed: int, unary: float) -> list[PlanarTree]:
    rng = random.Random(seed)
    out = [random_tree(rng, rng.randint(1, 40), 2, unary) for _ in range(60)]
    out += [random_tree(rng, rng.randint(2, 40), 6, unary) for _ in range(60)]
    out += [random_tree(rng, n, rng.choice((2, 5)), unary) for n in (500, 2000)]
    out += [caterpillar(d) for d in (1, 2, 30, 1999)]
    return out


def assert_revalidates(t: PlanarTree) -> None:
    assert PlanarTree(t.n, t.root, t.children) == t


@pytest.mark.parametrize("unary", [0.0, 0.2], ids=["no-unary", "unary"])
def test_canonical_representatives_revalidate(unary):
    rng = random.Random(31)
    for t in trees(30, unary):
        lengths = {u: rng.choice((0.5, 1.0, 2.0)) for u in t.nodes}
        for mode in ("unordered", "planar"):
            for labels in (None, lengths):
                rep, _, _ = t.canonical(mode, labels)
                assert_revalidates(rep)


@pytest.mark.parametrize("unary", [0.0, 0.2], ids=["no-unary", "unary"])
def test_grafts_permutations_and_contractions_revalidate(unary):
    rng = random.Random(41)
    pool = trees(40, unary)
    for t in pool:
        inner = rng.choice(pool[:120])
        assert_revalidates(t.graft(rng.randint(1, t.n), inner))
        assert_revalidates(inner.graft(rng.randint(1, inner.n), t))
        sigma = list(range(1, t.n + 1))
        rng.shuffle(sigma)
        assert_revalidates(t.permute_leaves(sigma))
        internal = list(t.internal_edge_sources())
        for share in (0.0, 0.5, 1.0):
            gone = [v for v in internal if rng.random() < share]
            assert_revalidates(t.contract_edges(gone))


def test_normal_forms_revalidate():
    rng = random.Random(61)
    for t in trees(60, 0.3):
        lengths = {u: rng.choice((0.0, 0.5, 1.0)) for u in t.nodes}
        assert_revalidates(normal_form(WeightedTree.make(t, lengths)).shape)


def _newick(t: PlanarTree, rng: random.Random) -> str:
    """Text of a shape without unary vertices, written without recursion."""
    text: dict[int, str] = {}
    for u in reversed(t.preorder):
        sub = str(u) if u > 0 else "(" + ",".join(
            [text.pop(c) for c in t.child_map[u]]) + ")"
        text[u] = sub + ":" + str(rng.randint(1, 9))
    return text[t.root] + ";"


def test_parsed_shapes_revalidate(monkeypatch):
    shapes = []
    make = PhyloTree.make

    def recording(shape, lengths, extended=False):
        shapes.append(shape)
        return make(shape, lengths, extended)

    monkeypatch.setattr(PhyloTree, "make", staticmethod(recording))
    rng = random.Random(51)
    texts = [_newick(t, rng) for t in trees(50, 0.0)]
    texts.append(caterpillar_newick(1999))
    for text in texts:
        newick.parse_newick(text)
    assert len(shapes) == len(texts)
    for shape in shapes:
        assert_revalidates(shape)


@pytest.mark.parametrize("n, root, children, error", [
    (2, -1, ((-1, (1, 1)),), SourceNotBijective),
    (2, -1, ((-1, (1, 2, -1)),), MultipleRootEdges),
    (3, -1, ((-1, (1, 2)),), SourceNotBijective),
    (2, -1, ((-1, (1, 2)), (-1, ())), TreeError),
    (2, 1, ((1, (2,)),), TreeError),
    (2, -1, ((-1, (1, 2, -2)),), UnreachableRoot),
    (2, -1, ((-1, (1, 2)), (-2, (-3,)), (-3, (-2,))), UnreachableRoot),
], ids=["repeated-leaf", "root-is-a-child", "missing-leaf", "duplicate-vertex",
        "non-negative-vertex", "unlisted-vertex", "detached-cycle"])
def test_public_constructor_still_checks(n, root, children, error):
    with pytest.raises(error):
        PlanarTree(n, root, children)
