import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

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
    NonFiniteTime,
    SizeCap,
    StateSpace,
    expm,
    jukes_cantor,
    site_product,
    validate_generator,
)
from phylo.newick import parse_newick
from phylo.operads import PhyloTree, phylo_act, phylo_compose, unit_phylo
from phylo.sampling import random_perm, random_phylo
from phylo.trees import corolla, invert_perm

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

    def test_rejects_infinite_lengths(self):
        t = PhyloTree.make(corolla(2), {1: math.inf, 2: 0.0, -1: 0.0},
                           extended=True)
        with pytest.raises(NonFiniteTime):
            evaluate(t, FLIP, dist(0.5, 0.5))


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

    def test_one_expm_per_distinct_length(self, monkeypatch):
        calls = []

        def counting(g, x):
            calls.append(x)
            return expm(g, x)

        monkeypatch.setattr(coalgebra, "expm", counting)
        g = jukes_cantor(1.0, 4)
        f = Distribution.uniform(g.states)
        t = parse_newick("((1:0.5,2:0.5):0.25,(3:0.5,4:0.25):0.5,5:1):0.25;")
        evaluate(t, g, f)
        assert sorted(calls) == [0.25, 0.5, 1.0]
        calls.clear()
        evaluate_operator(t, g)
        assert sorted(calls) == [0.25, 0.5, 1.0]
        calls.clear()
        t = parse_newick("((1:inf,2:0.5):0.5,3:inf):0.5;", allow_infinite=True)
        evaluate_extended(t, g, f)
        assert calls == [0.5]

    def test_size_cap_before_any_allocation(self, monkeypatch):
        def refuse(g, x):
            raise AssertionError("expm called past the cap")

        monkeypatch.setattr(coalgebra, "expm", refuse)
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

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            marginal(duplicate(2, dist(0.5, 0.5)), 3)


class TestEvaluateExtended:
    def test_infinite_single_edge_reaches_uniform(self):
        g = jukes_cantor(1.0, 4)
        f = Distribution.point(g.states, "A")
        out = evaluate_extended(unit_phylo(math.inf), g, f)
        assert np.abs(out.data - 0.25).max() < 1e-12

    def test_finite_then_infinite_collapses(self):
        t1 = phylo_compose(unit_phylo(0.8), 1, unit_phylo(math.inf))
        t2 = unit_phylo(math.inf)
        f = dist(0.9, 0.1)
        a = evaluate_extended(t1, FLIP, f)
        b = evaluate_extended(t2, FLIP, f)
        assert np.abs(a.data - b.data).max() < 1e-8

    def test_matches_evaluate_on_finite_trees(self):
        rng = random.Random(17)
        t = random_phylo(rng, 3)
        f = dist(0.6, 0.4)
        assert np.array_equal(evaluate_extended(t, FLIP, f).data,
                              evaluate(t, FLIP, f).data)

    def test_limit_spot_check_against_large_time(self):
        f = dist(1.0, 0.0)
        near = evaluate(unit_phylo(50.0), FLIP, f)
        far = evaluate_extended(unit_phylo(math.inf), FLIP, f)
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
        assert any(math.isinf(x) for _, x in c.internal_items())


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
        internal = dict(t.internal_items())
        for s in (0.0, 0.3, 0.7, 1.0):
            out = homotopy_retract(t, s)
            assert dict(out.internal_items()) == internal

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

    def test_extended_length_monoid(self):
        assert math.inf + 1.5 == math.inf
        assert 1.5 + math.inf == math.inf
        assert math.inf + math.inf == math.inf
