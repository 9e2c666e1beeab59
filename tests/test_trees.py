import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from conftest import FORMAL, brute_force_isomorphic, caterpillar, formal_op
from phylo.newick import serialize_newick
from phylo.operads import PhyloTree, normal_form, phylo_act, phylo_compose, to_phylo
from phylo.sampling import random_perm, random_phylo, random_shape, random_weighted
from phylo.trees import (
    EmptyEdgeSet,
    TreeError,
    LabelledTree,
    LeafIndexOutOfRange,
    MultipleRootEdges,
    NoRootEdge,
    NotInternalEdge,
    PermutationSizeMismatch,
    PlanarTree,
    SourceNotBijective,
    UnknownVertex,
    UnreachableRoot,
    _freeze,
    corolla,
    invert_perm,
    make_tree,
    unit_tree,
    validate,
)


def seeds():
    return st.integers(0, 10 ** 9)


# -- validation --------------------------------------------------------------

class TestValidate:
    def test_bare_edge_is_a_one_tree(self):
        t = validate(1, vertices=[], edges=["e"], source={"e": 1}, target={"e": 0})
        assert t.n == 1 and t.num_vertices == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_corollas_valid_for_every_arity(self, n):
        edges = {f"e{j}": (j, "v") for j in range(1, n + 1)}
        edges["root"] = ("v", 0)
        t = validate(n, ["v"], edges, {e: s for e, (s, _) in edges.items()},
                     {e: tg for e, (_, tg) in edges.items()})
        assert t.num_vertices == 1 and t.arity(t.root) == n

    def test_two_root_edges_rejected(self):
        with pytest.raises(MultipleRootEdges):
            validate(2, [], ["a", "b"], {"a": 1, "b": 2}, {"a": 0, "b": 0})

    def test_no_root_edge_rejected(self):
        with pytest.raises(NoRootEdge):
            validate(1, ["v"], ["e", "f"], {"e": 1, "f": "v"},
                     {"e": "v", "f": "v"})

    def test_cycle_unreachable(self):
        with pytest.raises(UnreachableRoot):
            validate(1, ["a", "b"], ["e", "f", "g"],
                     {"e": 1, "f": "a", "g": "b"},
                     {"e": 0, "f": "b", "g": "a"})

    def test_duplicate_source_rejected(self):
        with pytest.raises(SourceNotBijective):
            validate(1, ["v"], ["e", "f"], {"e": 1, "f": 1},
                     {"e": "v", "f": 0})

    def test_missing_source_rejected(self):
        with pytest.raises(SourceNotBijective):
            validate(2, ["v"], ["e", "root"], {"e": 1, "root": "v"},
                     {"e": "v", "root": 0})

    def test_empty_edge_set_rejected(self):
        with pytest.raises(EmptyEdgeSet):
            validate(0, [], [], {}, {})

    def test_pair_order_does_not_change_the_tree(self):
        # one tree, its (vertex, children) pairs listed in both orders
        a = PlanarTree(3, -1, ((-1, (1, -2)), (-2, (2, 3))))
        b = PlanarTree(3, -1, ((-2, (2, 3)), (-1, (1, -2))))
        assert a == b and hash(a) == hash(b)
        assert a.children == b.children == ((-2, (2, 3)), (-1, (1, -2)))
        assert a.vertices == b.vertices == (-2, -1)
        assert a.permute_leaves((1, 2, 3)) == a


# -- arity -------------------------------------------------------------------

class TestArity:
    def test_corolla(self):
        assert corolla(3).arity(-1) == 3

    def test_terminus_has_arity_zero(self):
        # 3-tree with two termini hanging off the spine
        t = make_tree(3, "a", {"a": [1, "t1", "b"], "b": ["t2", 3, 2],
                               "t1": [], "t2": []})
        termini = [v for v in t.vertices if t.arity(v) == 0]
        assert len(termini) == 2

    def test_unary_vertex(self):
        t = make_tree(2, "a", {"a": ["b"], "b": [2, 1]})
        assert t.arity(t.root) == 1

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            corolla(2).arity(-9)


# -- grafting ----------------------------------------------------------------

class TestGraft:
    def test_graft_at_first_label(self):
        # outer corolla drawn with leaves (2, 1); graft at label 1
        f = make_tree(2, "v", {"v": [2, 1]})
        g = corolla(2)
        r = f.graft(1, g)
        assert r.n == 3
        assert r.leaf_order() == (3, 1, 2)
        expected = make_tree(3, "f", {"f": [3, "g"], "g": [1, 2]})
        assert r.canonical("planar")[1] == expected.canonical("planar")[1]

    def test_graft_at_second_label(self):
        f = make_tree(2, "v", {"v": [2, 1]})
        r = f.graft(2, corolla(2))
        assert r.leaf_order() == (2, 3, 1)
        expected = make_tree(3, "f", {"f": ["g", 1], "g": [2, 3]})
        assert r.canonical("planar")[1] == expected.canonical("planar")[1]

    def test_unit_laws(self):
        rng = random.Random(7)
        for _ in range(25):
            t = random_shape(rng, rng.randint(1, 6))
            i = rng.randint(1, t.n)
            key = t.canonical("planar")[1]
            assert t.graft(i, unit_tree()).canonical("planar")[1] == key
            assert unit_tree().graft(1, t).canonical("planar")[1] == key

    @given(seeds(), seeds())
    def test_leaf_count_arithmetic(self, s1, s2):
        rng = random.Random(s1)
        outer = random_shape(rng, rng.randint(1, 6))
        inner = random_shape(random.Random(s2), rng.randint(1, 6))
        i = rng.randint(1, outer.n)
        assert outer.graft(i, inner).n == outer.n + inner.n - 1

    def test_zero_leaf_inner_tree_allowed(self):
        outer = corolla(2)
        inner = corolla(0)
        r = outer.graft(1, inner)
        assert r.n == 1 and r.num_vertices == 2

    def test_out_of_range(self):
        with pytest.raises(LeafIndexOutOfRange):
            corolla(2).graft(3, corolla(2))

    def test_associativity_random_triples(self):
        rng = random.Random(11)
        for _ in range(60):
            a = random_shape(rng, rng.randint(1, 4))
            b = random_shape(rng, rng.randint(1, 4))
            c = random_shape(rng, rng.randint(1, 4))
            i = rng.randint(1, a.n)
            j = rng.randint(1, b.n)
            lhs = a.graft(i, b).graft(i - 1 + j, c)
            rhs = a.graft(i, b.graft(j, c))
            assert lhs.canonical("planar")[1] == rhs.canonical("planar")[1]

    def test_renaming_agrees_with_graft(self):
        rng = random.Random(19)
        shapes = [random_shape(rng, rng.randint(1, 6)) for _ in range(30)]
        shapes += [unit_tree(), caterpillar(4)]
        for outer in shapes:
            # the unit tree is the one inner tree rooted at a leaf
            for inner in rng.sample(shapes, 4) + [unit_tree(), corolla(0)]:
                for i in {1, outer.n, rng.randint(1, outer.n)}:
                    out, into = outer.graft_renaming(i, inner)
                    grafted = outer.graft(i, inner)
                    assert out[i] == into[inner.root]
                    assert grafted.root == out[outer.root]
                    for tree, ren in ((outer, out), (inner, into)):
                        for v, cs in tree.children:
                            assert grafted.child_map[ren[v]] == tuple(ren[c] for c in cs)
                    assert set(out.values()) | set(into.values()) == set(grafted.nodes)
                    assert len(out) + len(into) - 1 == len(grafted.nodes)


# -- leaf relabelling --------------------------------------------------------

class TestPermuteLeaves:
    def test_identity(self):
        t = make_tree(3, "a", {"a": [2, "b"], "b": [3, 1]})
        assert t.permute_leaves((1, 2, 3)) == t

    def test_cyclic_relabelling_sorts_leaves(self):
        # leaves in planar order (2, 3, 1); the cycle 1->2->3->1 sorts them
        t = make_tree(3, "a", {"a": ["b", 1], "b": [2, 3]})
        moved = t.permute_leaves((2, 3, 1))
        assert moved.leaf_order() == (1, 2, 3)

    @given(seeds())
    def test_action_inverse(self, seed):
        rng = random.Random(seed)
        t = random_shape(rng, rng.randint(1, 6))
        sigma = random_perm(rng, t.n)
        assert t.permute_leaves(sigma).permute_leaves(invert_perm(sigma)) == t

    @given(seeds())
    def test_action_composition(self, seed):
        rng = random.Random(seed)
        t = random_shape(rng, rng.randint(1, 6))
        sigma, tau = random_perm(rng, t.n), random_perm(rng, t.n)
        sigma_tau = tuple(sigma[k - 1] for k in tau)  # k -> sigma(tau(k))
        assert (t.permute_leaves(sigma).permute_leaves(tau)
                == t.permute_leaves(sigma_tau))

    def test_size_mismatch(self):
        with pytest.raises(PermutationSizeMismatch):
            corolla(3).permute_leaves((1, 2))


# -- contraction -------------------------------------------------------------

class TestContractEdge:
    def test_contract_splices_children_in_place(self):
        # 4-leaf tree with a terminus; contract the edge between the spine
        # vertices M and S: S's children (terminus, leaf 1) replace S in place
        t = make_tree(4, "B", {"B": [4, "M", 2], "M": [3, "S"],
                               "S": ["T", 1], "T": []})
        s_id = [v for v in t.vertices if t.child_map[v] and
                all(c < 0 or c == 1 for c in t.child_map[v]) and t.arity(v) == 2
                and any(c < 0 and t.arity(c) == 0 for c in t.child_map[v])][0]
        r = t.contract_edges((s_id,))
        expected = make_tree(4, "B", {"B": [4, "X", 2], "X": [3, "T", 1],
                                      "T": []})
        assert r.canonical("planar")[1] == expected.canonical("planar")[1]

    def test_binary_three_tree_contracts_to_corolla(self):
        t = make_tree(3, "a", {"a": [1, "b"], "b": [2, 3]})
        (e,) = t.internal_edge_sources()
        got = t.contract_edges((e,))
        assert brute_force_isomorphic(got, corolla(3))
        assert got.canonical()[1] == corolla(3).canonical()[1]

    def test_arity_bookkeeping_random(self):
        rng = random.Random(3)
        done = 0
        while done < 200:
            t = random_shape(rng, rng.randint(2, 7))
            internals = t.internal_edge_sources()
            if not internals:
                continue
            u = rng.choice(internals)
            k1, k2 = t.arity(t.parent[u]), t.arity(u)
            merged = t.contract_edges((u,))
            # the surviving vertex keeps the parent's id
            assert merged.arity(t.parent[u]) == k1 + k2 - 1
            done += 1

    def test_leaf_edge_rejected(self):
        with pytest.raises(NotInternalEdge):
            corolla(2).contract_edges((1,))

    def test_root_edge_rejected(self):
        with pytest.raises(NotInternalEdge):
            corolla(2).contract_edges((-1,))


class TestSubtree:
    """Contracting a subtree, a connected set of vertices: one
    ``contract_edges`` call on the internal edges among them."""

    def host(self):
        # root vertex f with children (g, h); h has children (k, 4, 3); g (2, 1)
        return make_tree(4, "f", {"f": ["g", "h"], "g": [2, 1],
                                  "h": ["k", 4, 3], "k": []})

    def ids(self, t):
        f = t.root
        g, h = t.child_map[f]
        k = t.child_map[h][0]
        return f, g, h, k

    def test_no_internal_edges_is_identity(self):
        # the one-vertex subtree {g} has no internal edge to contract
        t = self.host()
        assert t.contract_edges(()) == t

    def test_labelled_green_ellipse_contraction(self):
        # the subtree {f, h, k} has the internal edges out of h and k
        t = self.host()
        f, g, h, k = self.ids(t)
        lab = LabelledTree.make(t, {f: formal_op("f", 2), g: formal_op("g", 2),
                                    h: formal_op("h", 3), k: formal_op("k", 0)})
        out = lab.contract_edges((h, k), FORMAL.compose)
        assert out.shape.num_vertices == 2
        merged = out.label(out.shape.root)
        assert merged == ("comp", formal_op("f", 2), 2,
                          ("comp", formal_op("h", 3), 1, formal_op("k", 0)))

    def test_labelled_sibling_contraction_nests_right_to_left(self):
        t = self.host()
        f, g, h, k = self.ids(t)
        ops = {f: formal_op("f", 2), g: formal_op("g", 2),
               h: formal_op("h", 3), k: formal_op("k", 0)}
        out = LabelledTree.make(t, ops).contract_edges((g, h), FORMAL.compose)
        assert out.shape.child_map[out.shape.root] == (2, 1, k, 4, 3)
        assert out.label(out.shape.root) == (
            "comp", ("comp", ops[f], 2, ops[h]), 1, ops[g])

    def test_labelled_single_edge_merges_into_the_parent(self):
        rng = random.Random(37)
        for _ in range(40):
            t = random_shape(rng, rng.randint(2, 7))
            lab = LabelledTree.make(
                t, {v: formal_op(f"f{-v}", t.arity(v)) for v in t.vertices})
            for u in t.internal_edge_sources():
                p = t.parent[u]
                out = lab.contract_edges((u,), FORMAL.compose)
                assert out.shape == t.contract_edges((u,))
                assert out.label(p) == ("comp", lab.label(p),
                                        t.child_map[p].index(u) + 1, lab.label(u))
            for u in (0, -99) + tuple(range(1, t.n + 1)) + (t.root,):
                with pytest.raises(NotInternalEdge):
                    lab.contract_edges((u,), FORMAL.compose)

    def test_contraction_order_independent(self):
        rng = random.Random(5)
        for _ in range(30):
            t = random_shape(rng, rng.randint(3, 7))
            internals = list(t.internal_edge_sources())
            if len(internals) < 2:
                continue
            keys = {t.contract_edges(internals).canonical("planar")[1]}
            for order in permutations(internals):
                cur = t
                for u in order:
                    cur = cur.contract_edges((u,))
                keys.add(cur.canonical("planar")[1])
            assert len(keys) == 1


# -- canonical forms ---------------------------------------------------------

class TestCanonicalForm:
    def test_five_leaf_redraw_same_class(self):
        # same tree drawn twice: planar order and the labels of two leaves swapped
        a = make_tree(5, "a", {"a": [3, 1, "w"], "w": [4, 5, 2]})
        b = make_tree(5, "b", {"b": [1, 3, "w"], "w": [4, 5, 2]})
        assert a.canonical("unordered")[1] == b.canonical("unordered")[1]

    def test_planar_vs_unordered_three_trees(self):
        a = make_tree(3, "v", {"v": [1, "w"], "w": [2, 3]})
        b = make_tree(3, "v", {"v": [1, "w"], "w": [3, 2]})
        assert a.canonical()[1] == b.canonical()[1]
        assert a.canonical("planar")[1] != b.canonical("planar")[1]

    @given(seeds())
    def test_shuffled_ids_invariance(self, seed):
        rng = random.Random(seed)
        t = random_shape(rng, rng.randint(1, 6))
        relabel = {v: f"x{j}" for j, v in enumerate(t.vertices)}
        shuffled = make_tree(
            t.n, relabel.get(t.root, t.root),
            {relabel[v]: [relabel.get(c, c) for c in cs]
             for v, cs in t.children})
        assert t.canonical("planar")[1] == shuffled.canonical("planar")[1]
        assert t.canonical()[1] == shuffled.canonical()[1]

    def test_agrees_with_brute_force(self):
        rng = random.Random(13)
        trees = [random_shape(rng, rng.randint(2, 4)) for _ in range(40)]
        for a in trees[:20]:
            for b in trees[20:]:
                assert ((a.canonical()[1] == b.canonical()[1])
                        == brute_force_isomorphic(a, b))
                assert ((a.canonical("planar")[1] == b.canonical("planar")[1])
                        == brute_force_isomorphic(a, b, planar=True))

    def test_canonical_rep_is_isomorphic_to_input(self):
        rng = random.Random(17)
        for _ in range(20):
            t = random_shape(rng, rng.randint(1, 6))
            rep, _, _ = t.canonical()
            assert brute_force_isomorphic(rep, t)


    def test_deep_caterpillar(self):
        t = caterpillar(5000)
        assert t.leaf_order() == tuple(range(1, 5002))
        rep, _, _ = t.canonical()
        assert rep.leaf_order()[:3] == (5000, 5001, 4999)

    def test_labels_follow_the_representative(self):
        rng = random.Random(23)
        for _ in range(200):
            t = random_phylo(rng, max_leaves=7)
            # the same class drawn with fresh vertex ids and shuffled children
            ids = dict(zip(t.shape.vertices,
                           rng.sample(range(-3 * t.n, 0), t.shape.num_vertices)))
            kids = {ids[v]: tuple(rng.sample([ids.get(c, c) for c in cs], len(cs)))
                    for v, cs in t.shape.children}
            drawn = PlanarTree(t.n, ids.get(t.shape.root, t.shape.root), _freeze(kids))
            lens = {ids.get(u, u): x for u, x in t.length_map().items()}
            rep, key, labels = drawn.canonical(labels=lens)
            assert PhyloTree.make(rep, labels) == t
            assert rep.canonical(labels=labels) == (rep, key, labels)


def test_outputs_are_pinned():
    # canonical bytes and packed lengths of compose, act and normal_form on
    # a seeded corpus; a refactor of the node bookkeeping must keep them
    rng = random.Random(20260)
    h = hashlib.sha256()
    for _ in range(350):
        a = random_phylo(rng, max_leaves=8, zero_external_prob=0.5)
        b = random_phylo(rng, max_leaves=8, zero_external_prob=0.5)
        nf = normal_form(random_weighted(rng, max_leaves=8))
        for t in (phylo_compose(a, rng.randint(1, a.n), b),
                  phylo_act(a, random_perm(rng, a.n)), to_phylo(nf)):
            h.update(serialize_newick(t).encode() + repr(t.lengths).encode())
        h.update(repr(nf.lengths).encode())
    assert h.hexdigest() == (
        "e046172fcaebf366a9d62904e29ad953629f9cb5ad6df2cd7feea7b4807dc5fa")


class TestValidateChildOrder:
    def test_child_order_fixes_planar_structure(self):
        edges = {"e1": (1, "v"), "e2": (2, "v"), "root": ("v", 0)}
        src = {e: s for e, (s, _) in edges.items()}
        tgt = {e: t for e, (_, t) in edges.items()}
        a = validate(2, ["v"], edges, src, tgt, child_order={"v": ["e2", "e1"]})
        b = validate(2, ["v"], edges, src, tgt, child_order={"v": ["e1", "e2"]})
        assert a.leaf_order() == (2, 1)
        assert b.leaf_order() == (1, 2)
        with pytest.raises(TreeError):
            validate(2, ["v"], edges, src, tgt, child_order={"v": ["e1"]})
