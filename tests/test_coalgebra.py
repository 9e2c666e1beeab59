import collections
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import markov_reference
from phylo import coalgebra
from phylo.coalgebra import (
    BadArity,
    DomainError,
    IndexOutOfRange,
    LeafTensor,
    ParameterOutOfRange,
    duplicate,
    duplicate_matrix,
    evaluate,
    evaluate_extended,
    evaluate_operator,
    from_unit,
    homotopy_retract,
    marginal,
    star,
    tensor_to_json,
    to_unit,
    w_membership,
)
from phylo.markov import (
    Distribution,
    MarkovError,
    SizeCap,
    StateSpace,
    _transitions,
    expm,
    jukes_cantor,
    site_product,
    validate_generator,
)
from phylo.newick import parse_newick
from phylo.operads import PhyloTree, phylo_act, phylo_compose, unit_phylo
from phylo.trees import corolla, invert_perm
from phylo.treespace import cluster_lengths
from sampling import random_length, random_perm, random_phylo, random_shape

FLIP = validate_generator([[-1.0, 1.0], [1.0, -1.0]], ("a", "b"))
BITS = FLIP.states


def dist(*p):
    return Distribution.make(BITS, np.array(p))


def corolla2(root, l1, l2):
    return PhyloTree.make(corolla(2), {1: l1, 2: l2, -1: root})


class TestDuplicate:
    def test_two_fold_diagonal(self):
        lt = duplicate(2, dist(0.3, 0.7))
        want = np.array([[0.3, 0.0], [0.0, 0.7]])
        assert np.array_equal(lt.data, want)

    def test_unary_is_identity(self):
        f = dist(0.25, 0.75)
        assert np.array_equal(duplicate(1, f).data, f.p)

    def test_basis_vector_cubes(self):
        lt = duplicate(3, dist(0.0, 1.0))
        want = np.zeros((2, 2, 2))
        want[1, 1, 1] = 1.0
        assert np.array_equal(lt.data, want)

    def test_coassociativity_exact(self):
        for s in (2, 3):
            states = StateSpace(tuple(f"s{i}" for i in range(s)))
            d2 = duplicate_matrix(states, 2)
            d3 = duplicate_matrix(states, 3)
            d4 = duplicate_matrix(states, 4)
            eye = np.eye(s)
            assert np.array_equal(np.kron(d2, eye) @ d2, d3)
            assert np.array_equal(np.kron(eye, d2) @ d2, d3)
            # every bracketing of iterated two-fold duplication agrees
            assert np.array_equal(np.kron(d2, np.eye(s ** 2)) @ d3, d4)
            assert np.array_equal(np.kron(np.eye(s ** 2), d2) @ d3, d4)
            assert np.array_equal(np.kron(np.kron(eye, d2), eye) @ d3, d4)

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            duplicate(0, dist(0.5, 0.5))


class TestEvaluate:
    def test_single_edge_is_the_transition_matrix(self):
        f = dist(0.3, 0.7)
        out = evaluate(unit_phylo(0.9), FLIP, f)
        assert np.array_equal(out.data, expm(FLIP, 0.9).M @ f.p)

    def test_zero_corolla_is_duplication(self):
        f = dist(0.3, 0.7)
        out = evaluate(corolla2(0.0, 0.0, 0.0), FLIP, f)
        assert np.array_equal(out.data, duplicate(2, f).data)

    def test_two_corolla_matrix_oracle(self):
        r, a, b = 0.2, 1.0, 0.5
        f = dist(0.5, 0.5)
        got = evaluate(corolla2(r, a, b), FLIP, f)
        ma, mb = expm(FLIP, a).M, expm(FLIP, b).M
        w = expm(FLIP, r).M @ f.p
        want = np.einsum("ix,jx,x->ij", ma, mb, w)
        assert np.abs(got.data - want).max() < 1e-12

    def test_operator_of_identity_tree(self):
        assert np.array_equal(evaluate_operator(unit_phylo(0.0), FLIP), np.eye(2))

    def test_operator_of_zero_corolla_is_duplication_matrix(self):
        op = evaluate_operator(corolla2(0.0, 0.0, 0.0), FLIP)
        assert np.array_equal(op, duplicate_matrix(BITS, 2))

    def test_operator_columns_are_point_evaluations(self):
        rng = random.Random(3)
        t = random_phylo(rng, 3)
        op = evaluate_operator(t, FLIP)
        for x, label in enumerate(BITS.labels):
            col = evaluate(t, FLIP, Distribution.point(BITS, label))
            assert np.abs(op[:, x] - col.flat).max() < 1e-12

    def test_composition_compatibility(self):
        rng = random.Random(5)
        s = 2
        for _ in range(40):
            outer = random_phylo(rng, rng.randint(1, 3))
            inner = random_phylo(rng, rng.randint(1, 3))
            i = rng.randint(1, outer.n)
            big = evaluate_operator(phylo_compose(outer, i, inner), FLIP)
            a = evaluate_operator(outer, FLIP)
            b = evaluate_operator(inner, FLIP)
            slotted = np.kron(np.kron(np.eye(s ** (i - 1)), b),
                              np.eye(s ** (outer.n - i))) @ a
            assert np.abs(big - slotted).max() < 1e-10

    def test_equivariance_exact(self):
        # relabelled tree = axes permuted: new axis j reads old axis sigma(j)
        rng = random.Random(7)
        for _ in range(30):
            t = random_phylo(rng, rng.randint(2, 4))
            sigma = random_perm(rng, t.n)
            op = evaluate_operator(t, FLIP).reshape((2,) * t.n + (2,))
            want = np.transpose(op, tuple(s - 1 for s in sigma)
                                + (t.n,)).reshape(2 ** t.n, 2)
            got = evaluate_operator(phylo_act(t, sigma), FLIP)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("text, vector_tol", [
        ("((1:0.125,2:0.375):0.75,(3:0.125,4:0.625):0.5):0.25;", 0.0),
        ("((1:0.125,2:0.375):0.75,(3:0.125,4:0.375):0.75):0.25;", 0.0),
        ("(((1:0.125,2:0.375):0.75,(3:0.125,4:0.375):0.75):0.5,5:1):0.25;", 0.0),
        ("((1:0.125,2:0.375):0.5,(3:0.125,4:0.125):0.5):0.25;", 1e-16),
    ], ids=["no tie", "tied siblings", "tied below the root",
            "labels order the root's children"])
    def test_equivariance_over_every_permutation(self, text, vector_tol):
        # each entry of a binary vertex's product is one float product, so
        # swapping two children moves the operator's entries and changes no
        # bit.  The vector folds the root law into the root's last child:
        # where the leaf labels order two different children there, a
        # relabelling regroups that product, to roundoff.
        t = parse_newick(text)
        n = t.n
        f = dist(0.3, 0.7)
        op = evaluate_operator(t, FLIP).reshape((2,) * n + (2,))
        vec = evaluate(t, FLIP, f).data
        for sigma in itertools.permutations(range(1, n + 1)):
            axes = tuple(s - 1 for s in sigma)
            u = phylo_act(t, sigma)
            assert np.array_equal(evaluate_operator(u, FLIP),
                                  np.transpose(op, axes + (n,)).reshape(2 ** n, 2))
            gap = np.abs(evaluate(u, FLIP, f).data - np.transpose(vec, axes)).max()
            assert gap <= vector_tol

    def test_well_defined_on_composition_routes(self):
        rng = random.Random(9)
        for _ in range(20):
            a = random_phylo(rng, 2)
            b = random_phylo(rng, 2)
            c = random_phylo(rng, 2)
            i = rng.randint(1, 2)
            t1 = phylo_compose(phylo_compose(a, i, b), i, c)
            t2 = phylo_compose(a, i, phylo_compose(b, 1, c))
            assert t1 == t2  # dyadic lengths make both routes land exactly
            assert np.abs(evaluate_operator(t1, FLIP)
                          - evaluate_operator(t2, FLIP)).max() < 1e-10

    def test_normalized_output(self):
        rng = random.Random(11)
        for _ in range(20):
            t = random_phylo(rng, rng.randint(1, 4))
            out = evaluate(t, FLIP, dist(0.3, 0.7))
            assert abs(float(out.data.sum()) - 1.0) < 1e-10
            assert float(out.data.min()) >= -1e-12

    def test_takes_infinite_lengths(self):
        # evaluate acts on all of Com + [0, inf]: these are the bits of the
        # separate evaluate_extended it replaced, whose name stays an alias
        t = PhyloTree.make(corolla(2), {1: math.inf, 2: 0.5, -1: 0.25},
                           extended=True)
        got = evaluate(t, FLIP, dist(0.3, 0.7)).data
        want = [float.fromhex(x) for x in ("0x1.d24d8daf876cap-3",
                                           "0x1.16d939283c49bp-2")] * 2
        assert got.reshape(-1).tolist() == want
        assert evaluate_extended is evaluate

    def test_long_edges_converge_to_infinite_ones(self):
        # the paper's reason Markov coalgebras extend to Com + [0, inf]: an
        # edge of length T gives the tensor of an infinite one, to 1e-12,
        # once T times the least exit rate is 60
        rng = random.Random(53)
        for _ in range(40):
            g = random_generator(rng, rng.randint(2, 8))
            f = random_root(rng, g.states)
            shape = random_shape(rng, rng.randint(1, 4))
            lens = {u: random_length(rng) for u in shape.nodes}
            edge = rng.choice(shape.nodes)
            T = 60.0 / float(-np.diag(g.H).max())
            near = evaluate(PhyloTree.make(shape, {**lens, edge: T}), g, f)
            far = evaluate(PhyloTree.make(shape, {**lens, edge: math.inf},
                                          extended=True), g, f)
            assert np.abs(near.data - far.data).max() <= 1e-12


def random_generator(rng, k):
    h = np.array([[rng.uniform(0, 2) for _ in range(k)] for _ in range(k)])
    np.fill_diagonal(h, 0.0)
    h -= np.diag(h.sum(axis=0))
    return validate_generator(h)


def random_root(rng, states):
    p = np.array([rng.uniform(0.1, 1) for _ in range(states.size)])
    return Distribution.make(states, p / p.sum())


def brute_force(t, g, f):
    """The joint leaf law as a sum over the states of the vertices of the
    product of one transition entry per edge."""
    shape = t.shape
    a = {u: np.asarray(expm(g, t.length(u)).M) for u in shape.preorder}
    w = a[shape.root] @ f.p
    inner = [u for u in shape.preorder if u < 0]
    if not inner:
        return w
    out = np.zeros((g.size,) * t.n)
    for xs in itertools.product(range(g.size), repeat=len(inner)):
        x = dict(zip(inner, xs))
        weight = w[x[shape.root]]
        for u in inner[1:]:
            weight *= a[u][x[u], x[shape.parent[u]]]
        legs = np.ones(())
        for j in range(1, t.n + 1):
            legs = np.multiply.outer(legs, a[j][:, x[shape.parent[j]]])
        out += weight * legs
    return out


class TestPushOracle:
    def test_matches_brute_force(self):
        rng = random.Random(23)
        for s in (2, 3):
            for _ in range(25):
                g = random_generator(rng, s)
                f = random_root(rng, g.states)
                t = random_phylo(rng, rng.randint(1, 5))
                got = evaluate(t, g, f).data
                assert np.abs(got - brute_force(t, g, f)).max() < 1e-12

    def test_matches_brute_force_on_site_pairs(self):
        rng = random.Random(29)
        for _ in range(6):
            g = site_product(random_generator(rng, 4), 2)
            f = random_root(rng, g.states)
            t = random_phylo(rng, rng.randint(1, 3))
            got = evaluate(t, g, f).data
            assert np.abs(got - brute_force(t, g, f)).max() < 1e-12

    def test_matches_the_top_down_push(self):
        # the kernel against the one it replaced, on shapes with
        # multifurcations, zero external lengths and infinite ones
        rng = random.Random(43)
        extended_trees = 0
        for s, most in ((2, 7), (3, 7), (4, 7), (16, 4)):
            for trial in range(60):
                g = random_generator(rng, s)
                f = random_root(rng, g.states)
                shape = random_shape(rng, rng.randint(1, most))
                extended = trial % 3 == 0
                lens = {u: random_length(rng) if shape.is_internal_edge(u)
                        else rng.choice((0.0, 0.0, random_length(rng),
                                         math.inf if extended else 0.5))
                        for u in shape.nodes}
                t = PhyloTree.make(shape, lens, extended=extended)
                got = evaluate(t, g, f).data
                assert np.abs(got - markov_reference.push(t, g, f.p)).max() <= 1e-15
                want = markov_reference.push(t, g, np.eye(s)).reshape(s ** t.n, s)
                assert np.abs(evaluate_operator(t, g) - want).max() <= 1e-15
                extended_trees += t.is_extended
        assert extended_trees > 40

    def test_one_stack_per_push(self, monkeypatch):
        builds = []

        def recording(g, times):
            builds.append(list(times))
            return _transitions(g, times)

        monkeypatch.setattr(coalgebra, "_transitions", recording)
        g = jukes_cantor(1.0, 4)
        f = Distribution.uniform(g.states)
        t = parse_newick("((1:0.5,2:0.5):0.25,(3:0.5,4:0.25):0.5,5:1):0.25;")
        evaluate(t, g, f)
        evaluate_operator(t, g)
        # one build per push, each distinct finite length exactly once
        assert [sorted(b) for b in builds] == [[0.25, 0.5, 1.0]] * 2
        builds.clear()
        t = parse_newick("((1:inf,2:0.5):0.5,3:inf):0.5;", allow_infinite=True)
        evaluate(t, g, f)
        assert builds == [[0.5]]
        builds.clear()
        t = parse_newick("(1:inf,2:inf):inf;", allow_infinite=True)
        evaluate(t, g, f)
        assert builds == []

    def test_size_cap_before_any_allocation(self, monkeypatch):
        def refuse(g, times):
            raise AssertionError("transition matrices built past the cap")

        monkeypatch.setattr(coalgebra, "_transitions", refuse)
        g = jukes_cantor(1.0, 4)
        f = Distribution.uniform(g.states)
        t = parse_newick("(((1:1,2:1):1,(3:1,4:1):1):1,((5:1,6:1):1,"
                         "(7:1,8:1):1):1,(9:1,10:1):1):1;")
        tracemalloc.start()
        try:
            with pytest.raises(SizeCap):
                evaluate(t, g, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the tensor alone would take 8 * 4**10 bytes
        assert peak < 100_000

    def test_wide_vertex_allocates_no_more_than_its_output(self):
        # a 2-leaf vertex over 200 states: the output has 200**2 entries,
        # the s**3 product tensor of the two child edges would take 64 MB
        g = jukes_cantor(1.0, 200)
        f = random_root(random.Random(37), g.states)
        t = parse_newick("(1:0.25,2:0.5):0.125;")
        tracemalloc.start()
        try:
            got = evaluate(t, g, f).data
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        p = expm(g, 0.125).M @ f.p
        want = expm(g, 0.25).M @ np.diag(p) @ expm(g, 0.5).M.T
        assert np.abs(got - want).max() < 1e-15
        # a stack of 200-state matrices runs one matrix at a time
        times = [0.125, 0.25, 0.5, 2.0, 8.0]
        tracemalloc.start()
        try:
            stack = _transitions(g, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert all(np.array_equal(m, expm(g, t).M) for t, m in zip(times, stack))


# 9 leaves over 4 states: the root's big child first, the root's big child
# last after a leaf, and a balanced root, the last two with leaf labels out
# of t.shape's leaf order; with whether the root's first and last children
# are leaves
NINE_LEAVES = {
    "big-first": ("((((((((1:0.125,2:0.25):0.125,3:0.375):0.125,4:0.5):0.125,"
                  "5:0.625):0.125,6:0.75):0.125,7:0.875):0.125,8:1):0.125,"
                  "9:1.125):0.25;", (False, True)),
    "big-last": ("(5:0.0625,(9:0.125,(2:0.25,(7:0.375,(4:0.5,(1:0.625,"
                 "(6:0.75,(3:0.875,8:1):0.125):0.125):0.125):0.125):0.125):"
                 "0.125):0.5):0.25;", (True, False)),
    "balanced": ("(((4:0.125,2:0.25):0.125,(3:0.375,1:0.5):0.125):0.125,"
                 "((5:0.625,9:0.75):0.125,(7:0.875,(8:1,6:1.125):0.125):0.125):"
                 "0.125):0.25;", (False, False)),
}


class TestOneBuffer:
    """An evaluation holds one array of the result's size: each vertex's
    partial is multiplied by its edge's matrix where it lies, the root's
    product is written over a factor or straight into the result, and the
    result is checked without a copy."""

    def test_matches_the_copying_pass_bitwise(self):
        # the pass that writes over its own partials against the one that
        # made a new array per step, with tolerance 0: roots whose first or
        # last child is a leaf, multifurcating roots, zero lengths and
        # infinite ones
        rng = random.Random(47)
        seen = collections.Counter()
        for s, most in ((2, 9), (3, 7), (4, 7), (16, 4)):
            for trial in range(60):
                g = random_generator(rng, s)
                f = random_root(rng, g.states)
                shape = random_shape(rng, rng.randint(1, most))
                extended = trial % 3 == 0
                lens = {u: random_length(rng) if shape.is_internal_edge(u)
                        else rng.choice((0.0, random_length(rng),
                                         math.inf if extended else 0.5))
                        for u in shape.nodes}
                t = PhyloTree.make(shape, lens, extended=extended)
                want = markov_reference.prune(t, g, f.p)
                assert np.array_equal(evaluate(t, g, f).data, want)
                want = markov_reference.prune(t, g, None).reshape(s ** t.n, s)
                assert np.array_equal(evaluate_operator(t, g), want)
                kids = t.shape.child_map.get(t.shape.root, ())
                seen["leaf first"] += bool(kids) and kids[0] > 0
                seen["leaf last"] += bool(kids) and kids[-1] > 0
                seen["multifurcating root"] += len(kids) > 2
                seen["infinite"] += t.is_extended
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("name", NINE_LEAVES)
    def test_peak_is_below_1_3_outputs(self, name):
        text, leaves = NINE_LEAVES[name]
        t = parse_newick(text)
        kids = t.shape.child_map[t.shape.root]
        assert (kids[0] > 0, kids[-1] > 0) == leaves
        g = jukes_cantor(1.0, 4)
        f = random_root(random.Random(53), g.states)
        for run, size in ((lambda: evaluate(t, g, f).data, 4 ** 9),
                          (lambda: evaluate_operator(t, g), 4 ** 10)):
            tracemalloc.start()
            try:
                out = run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.size == size and peak < 1.3 * 8 * size

    def test_shared_matrices_are_never_written(self):
        g = jukes_cantor(1.0, 4)
        f = random_root(random.Random(59), g.states)
        limit = g.limit.M
        before = limit.copy()
        for text in ("((1:inf,2:0.5):0.5,(3:inf,4:inf):0.25):0.5;",
                     "(1:inf,(2:inf,3:0.5):0.25):inf;", "(1:inf,2:inf):0.5;"):
            t = parse_newick(text, allow_infinite=True)
            lt = evaluate(t, g, f)
            evaluate_operator(t, g)
            assert not lt.data.flags.writeable
            assert g.limit.M is limit and not limit.flags.writeable
            assert np.array_equal(limit, before)
        # a one-leaf tree's operator is its edge's matrix itself
        op = evaluate_operator(unit_phylo(0.5), g)
        assert np.array_equal(op, expm(g, 0.5).M) and not op.flags.writeable
        t = parse_newick("1:inf;", allow_infinite=True)
        op = evaluate_operator(t, g)
        assert np.shares_memory(op, limit) and not op.flags.writeable


class TestMarginal:
    def test_single_leaf_is_the_tensor(self):
        f = dist(0.4, 0.6)
        lt = evaluate(unit_phylo(0.3), FLIP, f)
        assert np.array_equal(marginal(lt, 1).p, lt.data)

    def test_duplication_marginals(self):
        f = dist(0.3, 0.7)
        lt = duplicate(2, f)
        assert np.array_equal(marginal(lt, 1).p, f.p)
        assert np.array_equal(marginal(lt, 2).p, f.p)

    def test_path_length_law(self):
        rng = random.Random(13)
        f = dist(0.25, 0.75)
        for _ in range(25):
            t = random_phylo(rng, rng.randint(1, 4))
            lt = evaluate(t, FLIP, f)
            for leaf in range(1, t.n + 1):
                length = t.leaf_length(leaf)
                u = leaf
                while t.shape.parent[u] != 0:
                    u = t.shape.parent[u]
                    length += t.length(u)
                want = expm(FLIP, length).M @ f.p
                assert np.abs(marginal(lt, leaf).p - want).max() < 1e-10

    def test_equal_entries_in_any_layout_give_equal_bits(self):
        # evaluate's buffer is laid out in its pruning order, so a marginal
        # must not depend on the memory layout of the entries it sums
        rng = random.Random(21)
        tensors = []
        for _ in range(30):
            g = random_generator(rng, rng.randint(2, 4))
            t = random_phylo(rng, rng.randint(2, 6))
            tensors.append(evaluate(t, g, random_root(rng, g.states)))
            s, n = rng.randint(2, 4), rng.randint(2, 7)
            x = np.array([rng.random() for _ in range(s ** n)]).reshape((s,) * n)
            tensors.append(LeafTensor.make(jukes_cantor(1.0, s).states, n, x / x.sum()))
        layouts = 0
        for lt in tensors:
            perm = rng.sample(range(lt.n), lt.n)
            for data in (np.ascontiguousarray(lt.data), np.asfortranarray(lt.data),
                         np.ascontiguousarray(lt.data.transpose(perm))
                         .transpose(np.argsort(perm))):
                other = LeafTensor.make(lt.states, lt.n, data)
                assert np.array_equal(other.data, lt.data)
                layouts += other.data.strides != lt.data.strides
                for leaf in range(1, lt.n + 1):
                    want = marginal(lt, leaf).p
                    assert marginal(other, leaf).p.tobytes() == want.tobytes()
        assert layouts >= 100

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            marginal(duplicate(2, dist(0.5, 0.5)), 3)


class TestEvaluateExtended:
    def test_infinite_single_edge_reaches_uniform(self):
        g = jukes_cantor(1.0, 4)
        f = Distribution.point(g.states, "A")
        out = evaluate(unit_phylo(math.inf), g, f)
        assert np.abs(out.data - 0.25).max() < 1e-12

    def test_finite_then_infinite_collapses(self):
        t1 = phylo_compose(unit_phylo(0.8), 1, unit_phylo(math.inf))
        t2 = unit_phylo(math.inf)
        f = dist(0.9, 0.1)
        a = evaluate(t1, FLIP, f)
        b = evaluate(t2, FLIP, f)
        assert np.abs(a.data - b.data).max() < 1e-8

    def test_matches_evaluate_on_finite_trees(self):
        rng = random.Random(17)
        t = random_phylo(rng, 3)
        f = dist(0.6, 0.4)
        assert np.array_equal(evaluate(t, FLIP, f).data,
                              evaluate(t, FLIP, f).data)

    def test_limit_spot_check_against_large_time(self):
        f = dist(1.0, 0.0)
        near = evaluate(unit_phylo(50.0), FLIP, f)
        far = evaluate(unit_phylo(math.inf), FLIP, f)
        assert np.abs(near.data - far.data).max() < 1e-6


class TestWMembership:
    def all_inf_tree(self):
        return PhyloTree.make(corolla(2),
                              {1: math.inf, 2: math.inf, -1: math.inf},
                              extended=True)

    def test_all_external_infinite(self):
        assert w_membership(self.all_inf_tree())

    def test_identity_tree_excluded(self):
        assert not w_membership(unit_phylo(0.0))

    def test_composition_closure(self):
        a, b = self.all_inf_tree(), self.all_inf_tree()
        c = phylo_compose(a, 2, b)
        assert w_membership(c)
        # the identified edge became internal with infinite length
        assert any(math.isinf(x) for x in cluster_lengths(c).values())


class TestUnitIntervalMonoid:
    def test_endpoints(self):
        assert to_unit(0.0) == 0.0
        assert to_unit(math.inf) == 1.0
        assert from_unit(0.0) == 0.0
        assert from_unit(1.0) == math.inf

    def test_half_point(self):
        assert abs(to_unit(math.log(2)) - 0.5) < 1e-12

    def test_homomorphism(self):
        rng = random.Random(19)
        for _ in range(200):
            s = math.inf if rng.random() < 0.1 else rng.uniform(0, 5)
            t = math.inf if rng.random() < 0.1 else rng.uniform(0, 5)
            assert abs(to_unit(s + t) - star(to_unit(s), to_unit(t))) < 1e-12

    def test_round_trip_away_from_the_endpoint(self):
        rng = random.Random(21)
        for _ in range(100):
            t = rng.uniform(0, 5)
            assert abs(from_unit(to_unit(t)) - t) < 1e-12 * max(1.0, t)
            u = rng.uniform(0, 0.999)
            assert abs(to_unit(from_unit(u)) - u) < 1e-12

    def test_domains(self):
        with pytest.raises(DomainError):
            to_unit(-0.1)
        with pytest.raises(DomainError):
            from_unit(1.5)

    @pytest.mark.parametrize("x", [True, False, "0.5", None, math.nan, -math.inf])
    def test_non_numbers_rejected(self, x):
        with pytest.raises(DomainError):
            to_unit(x)
        with pytest.raises(DomainError):
            from_unit(x)


class TestHomotopyRetract:
    def tree(self):
        return PhyloTree.make(corolla(2).graft(1, corolla(2)),
                              {1: 0.5, 2: 0.0, 3: 1.5, -1: 0.25, -2: 0.75})

    def test_parameter_zero_is_identity(self):
        t = self.tree()
        assert homotopy_retract(t, 0.0) is t

    def test_parameter_one_lands_in_infinite_externals(self):
        out = homotopy_retract(self.tree(), 1.0)
        assert w_membership(out)

    def test_internal_lengths_fixed(self):
        t = self.tree()
        internal = cluster_lengths(t)
        for s in (0.0, 0.3, 0.7, 1.0):
            out = homotopy_retract(t, s)
            assert cluster_lengths(out) == internal

    def test_linear_in_unit_coordinates(self):
        t = self.tree()
        for s in (0.1, 0.5, 0.9):
            out = homotopy_retract(t, s)
            for j in range(1, t.n + 1):
                want = (1 - s) * to_unit(t.leaf_length(j)) + s
                assert abs(to_unit(out.leaf_length(j)) - want) < 1e-12

    def test_parameter_range(self):
        with pytest.raises(ParameterOutOfRange):
            homotopy_retract(self.tree(), 1.5)

    @pytest.mark.parametrize("s", [True, False, math.nan, -0.5, "0.5", None])
    def test_non_numbers_rejected(self, s):
        with pytest.raises(ParameterOutOfRange):
            homotopy_retract(self.tree(), s)


class TestTensorJson:
    def test_round_trip(self):
        # the document the command line prints names every field of the tensor
        lt = duplicate(2, dist(0.3, 0.7))
        doc = tensor_to_json(lt)
        assert doc == {"states": list(lt.states.labels), "n": 2,
                       "data": [0.3, 0.0, 0.0, 0.7]}
        back = LeafTensor.make(StateSpace(tuple(doc["states"])), doc["n"], doc["data"])
        assert back.states == lt.states and back.n == lt.n
        assert np.array_equal(back.data, lt.data)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(MarkovError):
            LeafTensor.make(BITS, 1, [math.inf, 0.0])


class TestCaps:
    def test_tensor_cap_enforced(self):
        from phylo.markov import SizeCap
        g = jukes_cantor(1.0, 4)
        shape = corolla(10)
        lens = {u: 0.0 for u in shape.nodes}
        big = PhyloTree.make(shape, lens)
        with pytest.raises(SizeCap):
            evaluate_operator(big, g)

    def test_tensor_and_duplication_caps_before_any_data(self):
        # 4^10 entries are past the cap; the data is not read at all
        states = jukes_cantor(1.0, 4).states
        with pytest.raises(SizeCap, match="4\\^10 tensor entries exceed the cap"):
            LeafTensor.make(states, 10, None)
        with pytest.raises(SizeCap, match="4\\^10 exceeds the cap"):
            duplicate_matrix(states, 10)

    def test_extended_length_monoid(self):
        assert math.inf + 1.5 == math.inf
        assert 1.5 + math.inf == math.inf
        assert math.inf + math.inf == math.inf
