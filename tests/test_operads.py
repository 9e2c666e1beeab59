import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from conftest import FORMAL, caterpillar, formal_op
from operads_reference import applicable_moves, apply_move, operad_law_suite
from phylo.operads import (
    ArityLabelMismatch,
    COM,
    COM_PLUS,
    EXTENDED_HALF_LINE,
    HALF_LINE,
    MalformedLabelling,
    NotReduced,
    PHYL,
    PLANAR_TREES,
    PhyloInvariantError,
    PhyloTree,
    WeightedTree,
    counit_equivalent,
    counit_eval,
    ctree,
    free_compose,
    from_phylo,
    normal_form,
    phylo_act,
    phylo_compose,
    to_phylo,
    unit_phylo,
)
from phylo.trees import (
    LabelledTree,
    LeafIndexOutOfRange,
    PlanarTree,
    UnknownVertex,
    _freeze,
    corolla,
    invert_perm,
    make_tree,
    unit_tree,
)
from sampling import random_perm, random_phylo, random_shape, random_weighted


def seeds():
    return st.integers(0, 10 ** 9)


def com_labels(shape):
    return {v: shape.arity(v) for v in shape.vertices}


# -- built-in instances ------------------------------------------------------

class TestLawSuites:
    def sampler_for(self, operad):
        if operad is COM:
            return lambda rng: rng.randint(1, 5)
        if operad is COM_PLUS:
            return lambda rng: rng.randint(0, 5)
        if operad is HALF_LINE:
            return lambda rng: rng.randint(0, 3072) / 1024.0
        if operad is EXTENDED_HALF_LINE:
            return lambda rng: math.inf if rng.random() < 0.2 else rng.randint(0, 3072) / 1024.0
        raise AssertionError

    @pytest.mark.parametrize("operad", [COM, COM_PLUS, HALF_LINE, EXTENDED_HALF_LINE],
                             ids=lambda o: o.name)
    def test_small_instances(self, operad):
        for rep in operad_law_suite(operad, self.sampler_for(operad), trials=60):
            assert rep.passed, rep

    def test_planar_tree_instance(self):
        def sample(rng):
            return random_shape(rng, rng.randint(1, 4)).canonical("planar")[0]

        for rep in operad_law_suite(PLANAR_TREES, sample, trials=500, seed=2):
            assert rep.passed, (rep.law, rep.failures[:1])

    def test_phylo_instance(self):
        def sample(rng):
            return random_phylo(rng, rng.randint(1, 4))

        for rep in operad_law_suite(PHYL, sample, trials=60, seed=3):
            assert rep.passed, (rep.law, rep.failures[:1])


# -- free operad and counit --------------------------------------------------

class TestFreeOperad:
    def test_graft_onto_identity_tree_is_identity(self):
        t = ctree(FORMAL, corolla(2), {-1: formal_op("f", 2)})
        left = free_compose(FORMAL, ctree(FORMAL, unit_tree(), {}), 1, t)
        assert left.canonical()[1] == t.canonical()[1]

    def test_free_composition_keeps_levels(self):
        # composing a corolla with three corollas stays a two-level tree
        f = ctree(COM, corolla(3), {-1: 3})
        out = f
        for slot, k in ((3, 1), (2, 2), (1, 2)):
            out = free_compose(COM, out, slot, ctree(COM, corolla(k), {-1: k}))
        assert out.shape.num_vertices == 4
        assert out.n == 5

    def test_label_arity_checked(self):
        with pytest.raises(ArityLabelMismatch):
            ctree(COM, corolla(2), {-1: 3})

    def test_counit_on_corolla_is_the_label(self):
        assert counit_eval(FORMAL, LabelledTree.make(
            corolla(3), {-1: formal_op("f", 3)})) == formal_op("f", 3)

    def test_counit_three_block_composite(self):
        # root f with children g1, g2, g3 evaluates to f o (g1, g2, g3)
        shape = make_tree(4, "f", {"f": ["g1", "g2", "g3"], "g1": [1, 2],
                                   "g2": [3], "g3": [4]})
        lt = LabelledTree.make(shape, {
            shape.root: formal_op("f", 3),
            shape.child_map[shape.root][0]: formal_op("g1", 2),
            shape.child_map[shape.root][1]: formal_op("g2", 1),
            shape.child_map[shape.root][2]: formal_op("g3", 1)})
        got = counit_eval(FORMAL, lt)
        f, g1, g2, g3 = (formal_op(x, k) for x, k in
                         (("f", 3), ("g1", 2), ("g2", 1), ("g3", 1)))
        assert got == ("comp", ("comp", ("comp", f, 3, g3), 2, g2), 1, g1)

    def test_counit_deep_caterpillar(self):
        t = caterpillar(5000)
        lt = LabelledTree.make(t, {v: 2 for v in t.vertices})
        assert counit_eval(COM, lt) == 5001

    def test_counit_additive_path(self):
        shape = make_tree(1, "a", {"a": ["b"], "b": [1]})
        lt = LabelledTree.make(shape, {-1: 1.5, -2: 2.5})
        assert counit_eval(HALF_LINE, lt) == 4.0

    def test_counit_com_arity_arithmetic(self):
        rng = random.Random(23)
        for _ in range(30):
            shape = random_shape(rng, rng.randint(1, 6))
            lt = LabelledTree.make(shape, com_labels(shape))
            assert counit_eval(COM, lt) == shape.n

    def test_counit_order_independence(self):
        rng = random.Random(29)
        for _ in range(25):
            shape = random_shape(rng, rng.randint(2, 6))
            labels = {v: random_phylo(rng, shape.arity(v))
                      for v in shape.vertices}
            lt = LabelledTree.make(shape, labels)
            want = counit_eval(PHYL, lt)
            internals = list(shape.internal_edge_sources())
            for _ in range(4):
                order = internals[:]
                rng.shuffle(order)
                cur = lt
                for u in order:
                    cur = cur.contract_edges((u,), PHYL.compose)
                assert counit_eval(PHYL, cur) == want

    def test_counit_matches_contracting_the_tree(self):
        # the reference: build the fully contracted tree, read its root
        # label and undo its leaf order
        rng = random.Random(43)
        for _ in range(40):
            shape = random_shape(rng, rng.randint(2, 8))
            labels = {v: formal_op(f"f{-v}", shape.arity(v)) for v in shape.vertices}
            lt = LabelledTree.make(shape, labels)
            flat = lt.contract_edges(shape.internal_edge_sources(), FORMAL.compose)
            root = flat.label(flat.shape.root)
            order = flat.shape.leaf_order()
            want = (root if order == tuple(range(1, shape.n + 1))
                    else FORMAL.act(root, invert_perm(order)))
            assert counit_eval(FORMAL, lt) == want


class TestCounitEquivalent:
    def test_identity_vertex_insertion(self):
        rng = random.Random(31)
        for _ in range(20):
            shape = random_shape(rng, rng.randint(1, 5))
            lt = LabelledTree.make(
                shape, {v: random_phylo(rng, shape.arity(v))
                        for v in shape.vertices})
            u = rng.choice(shape.nodes)
            padded = lt.insert_vertex(u, PHYL.identity)
            assert counit_equivalent(PHYL, lt, padded)

    def test_label_action_move(self):
        rng = random.Random(37)
        for _ in range(20):
            k = rng.randint(2, 4)
            f = random_phylo(rng, k)
            sigma = random_perm(rng, k)
            blocks = [random_phylo(rng, rng.randint(1, 2)) for _ in range(k)]
            # corolla labelled f.sigma over the blocks, vs label f with the
            # blocks permuted by sigma
            kids = {"v": [f"b{j}" for j in range(k)]}
            labels = {}
            base = 0
            for j, b in enumerate(blocks):
                kids[f"b{j}"] = list(range(base + 1, base + 1 + b.n))
                base += b.n
            shape = make_tree(base, "v", kids)
            vid = shape.root
            bl = {shape.child_map[vid][j]: blocks[j] for j in range(k)}
            t1 = LabelledTree.make(shape, {vid: phylo_act(f, sigma), **bl})
            t2 = t1.relabel(vid, f).permute_children(vid, sigma)
            assert counit_equivalent(PHYL, t1, t2)

    def test_distinguishes_different_values(self):
        a = LabelledTree.make(corolla(1), {-1: 1.0})
        b = LabelledTree.make(corolla(1), {-1: 2.0})
        assert not counit_equivalent(HALF_LINE, a, b)

    def test_distinguishes_different_arities(self):
        a = LabelledTree.make(corolla(2), {-1: 2})
        b = LabelledTree.make(corolla(3), {-1: 3})
        assert not counit_equivalent(COM, a, b)


# -- the rewrite engine ------------------------------------------------------

def weighted(n, spec_kids, lengths):
    shape = make_tree(n, "root", spec_kids)
    # lengths given against the construction names via leaf ints / name order
    return shape, lengths


class TestNormalForm:
    def running_example(self):
        # eight leaves; unary chain above leaf 7; zero lengths play the role
        # of unlabelled edges.  f5=-1, f3=-2, f4=-3, f1=-4, f2=-5, u=-6
        from phylo.trees import PlanarTree, _freeze
        shape = PlanarTree(8, -1, _freeze({
            -1: (-2, -5, -6),
            -2: (-3, 2, -4),
            -3: (4, 1, 3),
            -4: (8,),
            -5: (6, 5),
            -6: (7,),
        }))
        lens = {j: 0.0 for j in range(1, 9)}
        lens[7] = 0.3
        lens.update({-1: 0.9, -2: 0.7, -3: 0.0, -4: 0.0, -5: 0.0, -6: 0.4})
        return WeightedTree.make(shape, lens)

    def test_running_example_normal_form(self):
        got = normal_form(self.running_example())
        expected_shape = make_tree(8, "r", {"r": ["a", 6, 5, 7], "a": [4, 1, 3, 2, 8]})
        elens = {j: 0.0 for j in range(1, 9)}
        elens[7] = 0.7
        elens[-1] = 0.9   # root vertex of make_tree is -1
        elens[-2] = 0.7
        expected = WeightedTree.make(expected_shape, elens).canonical()[0]
        assert got == expected

    def test_root_edge_example(self):
        # corolla with a bare unary vertex between it and the root
        shape = make_tree(3, "u", {"u": ["f"], "f": [1, 2, 3]})
        w = WeightedTree.make(shape, {u: 0.0 for u in shape.nodes})
        got = normal_form(w)
        want = WeightedTree.make(corolla(3), {u: 0.0 for u in corolla(3).nodes})
        assert got == want.canonical()[0]

    def test_normal_form_is_fixed_point(self):
        rng = random.Random(41)
        for _ in range(40):
            w = normal_form(random_weighted(rng))
            assert not applicable_moves(w)
            assert normal_form(w) == w

    def test_confluence_random_orders(self):
        rng = random.Random(43)
        for _ in range(40):
            w = random_weighted(rng)
            want = normal_form(w)
            for _ in range(6):
                cur = w
                while True:
                    moves = applicable_moves(cur)
                    if not moves:
                        break
                    cur = apply_move(cur, rng.choice(list(moves)))
                assert cur.canonical()[0] == want

    def test_sums_group_from_the_innermost_vertex(self):
        # Non-dyadic lengths make the order of float additions visible.  The
        # reference rewrites in random order, except that a unary vertex goes
        # only once its child is not unary; adding an exact zero changes no
        # bits, so the zero moves may come at any time.
        rng = random.Random(53)
        pool = (0.0, 0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1e-17, 1e17)
        for _ in range(150):
            shape = random_shape(rng, rng.randint(1, 7))
            for u in shape.nodes:
                if rng.random() < 0.4:
                    for _ in range(rng.randint(3, 4)):
                        shape = shape.insert_vertex(u)
                        u = shape.parent[u]
            cur = w = WeightedTree.make(
                shape, {u: rng.choice(pool) for u in shape.nodes})
            while moves := [
                    (kind, v) for kind, v in applicable_moves(cur)
                    if kind == "zero"
                    or len(cur.shape.child_map.get(cur.shape.child_map[v][0], ())) != 1]:
                cur = apply_move(cur, rng.choice(moves))
            assert not applicable_moves(cur)
            assert normal_form(w) == cur.canonical()[0]

    def test_deep_caterpillar_with_unary_vertices(self):
        # a unary vertex above every vertex of a 5000-deep caterpillar and
        # zero internal lengths: the normal form is the 5001-leaf corolla.
        # Both calls together took 0.12 s on a 2-vCPU x86-64 host.
        depth = 5000
        cat = caterpillar(depth)
        kids = {v: tuple(c - depth if c < 0 else c for c in cs)
                for v, cs in cat.children}
        kids.update({v - depth: (v,) for v in cat.vertices})
        shape = PlanarTree(cat.n, cat.root - depth, _freeze(kids))
        lens = {u: 0.5 if u > 0 else 0.0 for u in shape.nodes}
        labels = {v: len(kids[v]) for v in shape.vertices}
        t0 = time.perf_counter()
        got = normal_form(WeightedTree.make(shape, lens))
        arity = counit_eval(COM, LabelledTree.make(shape, labels))
        elapsed = time.perf_counter() - t0
        star = corolla(depth + 1)
        assert got == WeightedTree.make(
            star, {u: 0.5 if u > 0 else 0.0 for u in star.nodes}).canonical()[0]
        assert arity == depth + 1
        assert elapsed < 1.0

    def test_termination_step_bound(self):
        rng = random.Random(47)
        for _ in range(40):
            w = random_weighted(rng)
            steps = 0
            cur = w
            while True:
                moves = applicable_moves(cur)
                if not moves:
                    break
                cur = apply_move(cur, moves[0])
                steps += 1
            assert steps <= w.shape.num_vertices

    def test_rejects_termini(self):
        shape = make_tree(1, "v", {"v": [1, "t"], "t": []})
        with pytest.raises(MalformedLabelling):
            normal_form(WeightedTree.make(shape, {u: 0.0 for u in shape.nodes}))

    def test_rejects_negative_lengths(self):
        with pytest.raises(MalformedLabelling):
            normal_form(WeightedTree.make(corolla(2), {1: 0.0, 2: -0.5, -1: 0.0}))

    def test_rejects_a_tree_without_leaves(self):
        with pytest.raises(MalformedLabelling, match="no leaves have no normal form"):
            normal_form(WeightedTree.make(corolla(0), {-1: 0.0}))

    def test_rejects_lengths_not_covering_the_edges(self):
        with pytest.raises(MalformedLabelling, match="cover every edge exactly once"):
            WeightedTree.make(corolla(2), {1: 0.0, -1: 0.0})


class TestPhyloBijection:
    def test_zero_length_edge_is_the_identity(self):
        w = WeightedTree.make(unit_tree(), {1: 0.0})
        assert to_phylo(w) == PHYL.identity

    def test_five_leaf_example_round_trip(self):
        shape = make_tree(5, "a", {"a": [3, 1, "w"], "w": [4, 5, 2]})
        lens = {3: 0.1, 1: 0.2, 4: 0.3, 5: 0.4, 2: 0.5, -2: 0.7, -1: 0.6}
        p = PhyloTree.make(shape, lens)
        assert to_phylo(from_phylo(p)) == p

    @given(seeds())
    def test_round_trip_random(self, seed):
        p = random_phylo(random.Random(seed))
        assert to_phylo(from_phylo(p)) == p
        w = from_phylo(p)
        assert from_phylo(to_phylo(w)) == w

    def test_deep_caterpillar(self):
        t = caterpillar(5000)
        mirror = PlanarTree(t.n, t.root,
                            tuple((v, cs[::-1]) for v, cs in t.children))
        lens = {u: 0.25 for u in t.nodes}
        p = PhyloTree.make(t, lens)
        assert p == PhyloTree.make(mirror, lens)
        assert p.shape.num_vertices == 5000 and p.lengths == (0.25,) * 10001

    def test_not_reduced_rejected(self):
        shape = make_tree(2, "u", {"u": ["f"], "f": [1, 2]})
        w = WeightedTree.make(shape, {u: 1.0 for u in shape.nodes})
        with pytest.raises(NotReduced):
            to_phylo(w)

    @pytest.mark.parametrize("shape, lens, message", [
        (make_tree(2, "u", {"u": ["f"], "f": [1, 2]}),
         {1: 1.0, 2: 1.0, -1: 1.0, -2: 1.0}, "vertex -1 has arity 1"),
        (make_tree(3, "a", {"a": ["b", 3], "b": [1, 2]}),
         {1: 1.0, 2: 1.0, 3: 1.0, -1: 1.0, -2: 0.0},
         "internal edge out of -2 has length zero"),
    ], ids=["unary vertex", "zero internal edge"])
    def test_make_is_the_one_reducedness_check(self, shape, lens, message):
        with pytest.raises(NotReduced, match=message):
            PhyloTree.make(shape, lens)
        with pytest.raises(NotReduced, match=message):
            to_phylo(WeightedTree.make(shape, lens))
        assert issubclass(NotReduced, PhyloInvariantError)

    @pytest.mark.parametrize("u", [4, 0, -3, -99, 1.5, None, [1]])
    def test_length_of_a_non_node_refused(self, u):
        # 4 and 0 used to read the root's and leaf 3's lengths, -3 to raise
        # a bare IndexError
        p = PhyloTree.make(make_tree(3, "a", {"a": ["b", 3], "b": [1, 2]}),
                           {1: 0.125, 2: 0.5, 3: 0.25, -1: 0.75, -2: 1.0})
        assert sorted(map(p.length, p.shape.nodes)) == [0.125, 0.25, 0.5, 0.75, 1.0]
        with pytest.raises(UnknownVertex):
            p.length(u)

    def test_with_external_takes_one_value_per_external_edge(self):
        cherry = PhyloTree.make(corolla(2), {1: 0.5, 2: 0.25, -1: 1.0})
        assert cherry.with_external((0.0, 1.0, 2.0)) == \
            PhyloTree.make(corolla(2), {1: 1.0, 2: 2.0, -1: 0.0})
        assert unit_phylo(0.5).with_external((2.0,)) == unit_phylo(2.0)
        for t, values in ((cherry, (0.0, 1.0)), (unit_phylo(0.5), (1.0, 1.0)),
                          (unit_phylo(0.5), ())):
            with pytest.raises(PhyloInvariantError):
                t.with_external(values)

    def test_invariants_enforced(self):
        with pytest.raises(PhyloInvariantError):
            PhyloTree.make(make_tree(2, "u", {"u": ["f"], "f": [1, 2]}),
                           {1: 0.0, 2: 0.0, -1: 1.0, -2: 1.0})
        shape = make_tree(3, "a", {"a": [1, "b"], "b": [2, 3]})
        with pytest.raises(PhyloInvariantError):
            PhyloTree.make(shape, {1: 0.0, 2: 0.0, 3: 0.0, -1: 0.0, -2: 0.0})
        with pytest.raises(PhyloInvariantError, match="at least one leaf"):
            PhyloTree.make(corolla(0), {-1: 0.0})


class TestPhyloCompose:
    def test_one_trees_add(self):
        assert phylo_compose(unit_phylo(1.25), 1, unit_phylo(2.5)) == unit_phylo(3.75)

    def test_zero_corollas_merge(self):
        c2 = PhyloTree.make(corolla(2), {1: 0.0, 2: 0.0, -1: 0.0})
        got = phylo_compose(c2, 1, c2)
        want = PhyloTree.make(corolla(3), {1: 0.0, 2: 0.0, 3: 0.0, -1: 0.0})
        assert got == want

    def test_unit_laws_exact(self):
        rng = random.Random(53)
        for _ in range(40):
            t = random_phylo(rng)
            i = rng.randint(1, t.n)
            assert phylo_compose(t, i, unit_phylo()) == t
            assert phylo_compose(unit_phylo(), 1, t) == t

    @given(seeds())
    def test_agrees_with_rewrite_engine(self, seed):
        # independent route: graft the weighted trees with a bare unary
        # vertex carrying each edge half, then reduce
        rng = random.Random(seed)
        outer = random_phylo(rng, rng.randint(1, 4))
        inner = random_phylo(rng, rng.randint(1, 4))
        i = rng.randint(1, outer.n)
        direct = phylo_compose(outer, i, inner)

        wo = from_phylo(outer)
        shape = wo.shape.insert_vertex(i)
        new_v = min(shape.vertices)
        lens = dict(wo.length_map)
        lens[new_v] = lens.pop(i)
        lens[i] = 0.0
        padded = WeightedTree.make(shape, lens)
        grafted_shape = padded.shape.graft(i, inner.shape)
        shift = min(padded.shape.vertices, default=0)
        glens = {}
        for v in padded.shape.vertices:
            glens[v] = padded.length_map[v]
        for j in range(1, padded.n + 1):
            if j != i:
                glens[j if j < i else j + inner.n - 1] = padded.length_map[j]
        for v in inner.shape.vertices:
            glens[v + shift] = inner.length(v)
        for j in range(1, inner.n + 1):
            glens[j + i - 1] = inner.leaf_length(j)
        x = inner.shape.root + (i - 1 if inner.shape.root > 0 else shift)
        glens[x] = inner.root_length
        engine = to_phylo(normal_form(WeightedTree.make(grafted_shape, glens)))
        assert engine == direct

    def test_validity_closure(self):
        rng = random.Random(59)
        for _ in range(60):
            a = random_phylo(rng, rng.randint(1, 5))
            b = random_phylo(rng, rng.randint(1, 5))
            t = phylo_compose(a, rng.randint(1, a.n), b)
            for v in t.shape.vertices:
                assert t.shape.arity(v) >= 2
            for v in t.shape.internal_edge_sources():
                assert t.length(v) > 0


class TestPhyloAct:
    def test_identity_noop(self):
        t = random_phylo(random.Random(61), 5)
        assert phylo_act(t, (1, 2, 3, 4, 5)) == t

    def test_redrawn_five_leaf_trees_match(self):
        shape_a = make_tree(5, "a", {"a": [3, 1, "w"], "w": [4, 5, 2]})
        lens_a = {3: 0.1, 1: 0.2, 4: 0.3, 5: 0.4, 2: 0.5, -2: 0.7, -1: 0.6}
        shape_b = make_tree(5, "a", {"a": [1, 3, "w"], "w": [4, 5, 2]})
        lens_b = {1: 0.1, 3: 0.2, 4: 0.3, 5: 0.4, 2: 0.5, -2: 0.7, -1: 0.6}
        swapped = phylo_act(PhyloTree.make(shape_a, lens_a), (3, 2, 1, 4, 5))
        assert swapped == PhyloTree.make(shape_b, lens_b)

    @given(seeds())
    def test_action_inverse(self, seed):
        from phylo.trees import invert_perm
        rng = random.Random(seed)
        t = random_phylo(rng)
        sigma = random_perm(rng, t.n)
        assert phylo_act(phylo_act(t, sigma), invert_perm(sigma)) == t


class TestCollections:
    def test_membership(self):
        # a label is an operation of the vertex's arity: the terminus t
        # has arity 0, which COM_PLUS has and COM has not
        assert ctree(COM, corolla(3), {-1: 3})
        with pytest.raises(ArityLabelMismatch):
            ctree(COM, corolla(2), {-1: 3})
        shape = make_tree(1, "v", {"v": [1, "t"], "t": []})
        labels = {shape.root: 2, shape.child_map[shape.root][1]: 0}
        assert ctree(COM_PLUS, shape, labels)
        with pytest.raises(ArityLabelMismatch):
            ctree(COM, shape, labels)

    @pytest.mark.parametrize("operad", [COM, COM_PLUS, HALF_LINE, EXTENDED_HALF_LINE],
                             ids=lambda o: o.name)
    @pytest.mark.parametrize("x", [True, False])
    def test_a_bool_is_no_operation(self, operad, x):
        assert not operad.contains(x)
        with pytest.raises(ArityLabelMismatch):
            ctree(operad, make_tree(1, "v", {"v": [1]}), {-1: x})

    @pytest.mark.parametrize("x, finite, extended", [
        (0, True, True), (2.5, True, True),
        pytest.param(10 ** 400, False, False, id="huge-int"),
        (math.inf, False, True), (-0.5, False, False), (math.nan, False, False),
        (-math.inf, False, False), ("1", False, False), (None, False, False),
    ])
    def test_half_line_lengths(self, x, finite, extended):
        assert HALF_LINE.contains(x) is finite
        assert EXTENDED_HALF_LINE.contains(x) is extended

    def test_equality_is_an_equivalence_on_samples(self):
        rng = random.Random(67)
        ops = [random_phylo(rng, rng.randint(1, 3)) for _ in range(12)]
        for a in ops:
            assert a == a
        for a in ops:
            for b in ops:
                assert (a == b) == (b == a)
                for c in ops:
                    if a == b and b == c:
                        assert a == c

    def test_free_compose_leaf_index(self):
        t = ctree(COM, corolla(2), {-1: 2})
        with pytest.raises(LeafIndexOutOfRange):
            free_compose(COM, t, 3, t)


class TestLawSuiteReporting:
    def test_counterexamples_recorded_for_a_broken_instance(self):
        from phylo.operads import Operad

        broken = Operad(
            "broken",
            arity=lambda f: f,
            compose=lambda f, i, g: f + g,   # off by one: not operadic
            identity=1,
            contains=lambda f: isinstance(f, int) and f >= 1,
        )
        reports = operad_law_suite(broken, lambda rng: rng.randint(1, 4),
                                   trials=30, seed=1)
        by_law = {r.law: r for r in reports}
        assert not by_law["right unit"].passed
        assert by_law["right unit"].failures
        assert by_law["right unit"].checked == 30
