import hashlib
import math
import random

import numpy as np
import pytest
import scipy.linalg

from conftest import expm_taylor
from phylo.markov import (
    BadAlphabet,
    BadRate,
    ColumnSumNonzero,
    Distribution,
    MarkovError,
    NegativeOffDiagonal,
    NegativeTime,
    NonFiniteTime,
    ShapeMismatch,
    SizeCap,
    StateSpace,
    StateSpaceMismatch,
    StochasticMatrix,
    expm,
    jukes_cantor,
    limit_operator,
    semigroup_defect,
    simulate_branching,
    site_product,
    validate_generator,
)
from phylo.newick import parse_newick
from phylo.operads import PhyloTree, unit_phylo
from phylo.trees import PhyloError, corolla

FLIP = validate_generator([[-1.0, 1.0], [1.0, -1.0]], ("a", "b"))


def random_generator(rng, k=4, scale=1.0):
    h = np.array([[rng.uniform(0, scale) for _ in range(k)] for _ in range(k)])
    np.fill_diagonal(h, 0.0)
    h -= np.diag(h.sum(axis=0))
    return validate_generator(h)


class TestValidateGenerator:
    def test_symmetric_flip_valid(self):
        assert FLIP.size == 2

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(NegativeOffDiagonal):
            validate_generator([[0.1, -0.1], [-0.1, 0.1]])

    def test_column_sums_checked(self):
        with pytest.raises(ColumnSumNonzero):
            validate_generator([[-1.0, 1.0], [0.9, -1.0]])

    def test_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            validate_generator([[0.0, 0.0]])
        with pytest.raises(ShapeMismatch):
            validate_generator(np.zeros((2, 2)), ("a", "b", "c"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(MarkovError):
            validate_generator([[bad, 1.0], [1.0, -1.0]])
        with pytest.raises(MarkovError):
            validate_generator([[-bad, 1.0], [bad, -1.0]])
        with pytest.raises(MarkovError):
            Distribution.make(FLIP.states, [bad, 1.0])
        with pytest.raises(MarkovError):
            StochasticMatrix.make(FLIP.states, [[bad, 0.0], [0.0, 1.0]])

    def test_huge_rates_rejected_by_expm(self):
        g = validate_generator([[-1e302, 1e302], [1e302, -1e302]])
        with pytest.raises(SizeCap):
            expm(g, 1.0)

    def test_jukes_cantor_is_valid(self):
        g = jukes_cantor(0.7, 4)
        assert g.states.labels == ("A", "T", "C", "G")


class TestExpm:
    def test_time_zero_is_identity(self):
        assert np.array_equal(expm(FLIP, 0.0).M, np.eye(2))

    def test_flip_closed_form(self):
        t = 0.7
        m = expm(FLIP, t).M
        stay = (1 + math.exp(-2 * t)) / 2
        move = (1 - math.exp(-2 * t)) / 2
        assert np.allclose(m, [[stay, move], [move, stay]], atol=1e-14)
        assert np.abs(m - expm_taylor(t * np.asarray(FLIP.H))).max() < 1e-12

    def test_jukes_cantor_closed_form(self):
        mu, t = 1.0, 0.3
        g = jukes_cantor(mu, 4)
        m = expm(g, t).M
        diag = 0.25 + 0.75 * math.exp(-4 * mu * t)
        off = 0.25 - 0.25 * math.exp(-4 * mu * t)
        want = np.full((4, 4), off)
        np.fill_diagonal(want, diag)
        assert np.abs(m - want).max() < 1e-13
        assert np.abs(m - expm_taylor(t * np.asarray(g.H))).max() < 1e-12

    def test_taylor_oracle_random(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_generator(rng)
            t = rng.uniform(0, 2.0 / max(1e-9, float(np.abs(g.H).sum(axis=0).max())))
            assert np.abs(expm(g, t).M - expm_taylor(t * np.asarray(g.H))).max() < 1e-12

    def test_bad_times(self):
        with pytest.raises(NegativeTime):
            expm(FLIP, -0.1)
        with pytest.raises(NonFiniteTime):
            expm(FLIP, math.inf)

    @pytest.mark.parametrize("s", [2, 3, 4, 16])
    def test_time_zero_is_identity_bitwise(self, s):
        g = random_generator(random.Random(s), s)
        assert np.array_equal(expm(g, 0.0).M, np.eye(s))

    @pytest.mark.parametrize("t", [50.0, 1e3])
    @pytest.mark.parametrize("k", [4, 16])
    def test_jukes_cantor_closed_form_after_many_squarings(self, t, k):
        m = expm(jukes_cantor(1.0, k), t).M
        e = math.exp(-k * t)
        want = np.full((k, k), (1 - e) / k)
        np.fill_diagonal(want, (1 + (k - 1) * e) / k)
        assert np.abs(m - want).max() < 1e-12

    def test_preserves_distributions(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_generator(rng, 3)
            p = np.array([rng.random() for _ in range(3)])
            f = Distribution.make(g.states, p / p.sum())
            out = expm(g, rng.uniform(0, 5)).apply(f)
            assert abs(float(out.p.sum()) - 1.0) < 1e-10
            assert float(out.p.min()) >= 0.0


def power_of_two_generator(rng, s, k):
    """A generator whose 1-norm is exactly 2**k: integer rates, one column
    topped up to a power of two, then scaled by a power of two."""
    h = np.array([[float(rng.randint(0, 7)) for _ in range(s)] for _ in range(s)])
    np.fill_diagonal(h, 0.0)
    sums = h.sum(axis=0)
    top = 2.0 ** math.ceil(math.log2(max(float(sums.max()), 1.0)))
    h[1, 0] += top - sums[0]
    h -= np.diag(h.sum(axis=0))
    return validate_generator(h * 2.0 ** (k - 1) / top)


class TestExpmScipyOracle:
    """``expm`` against scipy.linalg.expm, which the package never imports."""

    @pytest.mark.parametrize("s", [2, 3, 4, 16])
    def test_times_across_nine_decades(self, s):
        rng = random.Random(41 + s)
        for _ in range(30):
            g = random_generator(rng, s)
            t = 10 ** rng.uniform(-6, 3)
            want = scipy.linalg.expm(t * np.asarray(g.H))
            assert np.abs(expm(g, t).M - want).max() < 1e-12

    @pytest.mark.parametrize("s", [2, 3, 4, 16])
    def test_norms_at_powers_of_two(self, s):
        rng = random.Random(53 + s)
        for k in range(-20, 11):
            g = power_of_two_generator(rng, s, k)
            assert float(np.abs(g.H).sum(axis=0).max()) == 2.0 ** k
            want = scipy.linalg.expm(np.asarray(g.H))
            assert np.abs(expm(g, 1.0).M - want).max() < 1e-12


class TestSemigroup:
    def test_law_random(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_generator(rng, k=rng.choice([2, 3, 4]))
            s, t = rng.uniform(0, 3), rng.uniform(0, 3)
            assert semigroup_defect(g, s, t) < 1e-10

    def test_semigroup_type(self):
        assert np.array_equal(expm(FLIP, 0.0).M, np.eye(2))


class TestLimitOperator:
    def test_zero_generator(self):
        g = validate_generator(np.zeros((3, 3)))
        assert np.array_equal(limit_operator(g).M, np.eye(3))

    def test_flip_limit(self):
        p = limit_operator(FLIP).M
        assert np.abs(p - 0.5).max() < 1e-10
        # large-time oracle
        assert np.abs(p - expm(FLIP, 100.0).M).max() < 1e-10

    def test_jukes_cantor_limit(self):
        p = limit_operator(jukes_cantor(1.0, 4)).M
        assert np.abs(p - 0.25).max() < 1e-8
        assert np.abs(p - expm(jukes_cantor(1.0, 4), 100.0).M).max() < 1e-10

    def test_limit_laws(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_generator(rng, k=rng.choice([2, 3]))
            p = limit_operator(g).M
            a = expm(g, rng.uniform(0.1, 3.0)).M
            assert np.abs(a @ p - p).max() < 1e-8
            assert np.abs(p @ a - p).max() < 1e-8
            assert np.abs(p @ p - p).max() < 1e-8

    def test_reducible_chain_converges(self):
        # one absorbing state: block-triangular generator
        g = validate_generator([[-1.0, 0.0], [1.0, 0.0]])
        p = limit_operator(g).M
        assert np.abs(p - [[0.0, 0.0], [1.0, 1.0]]).max() < 1e-10

    def test_cached_on_generator(self):
        g = jukes_cantor(2.0, 3)
        assert g.limit is g.limit


class TestJukesCantor:
    def test_entries(self):
        g = jukes_cantor(1.0, 4)
        h = np.asarray(g.H)
        assert np.all(np.diag(h) == -3.0)
        assert h[0, 1] == 1.0

    def test_column_sums_zero_sampled(self):
        rng = random.Random(17)
        for _ in range(10):
            g = jukes_cantor(rng.uniform(0.1, 3), rng.choice([2, 3, 4, 6]))
            assert np.abs(np.asarray(g.H).sum(axis=0)).max() < 1e-12

    def test_bad_inputs(self):
        with pytest.raises(BadRate):
            jukes_cantor(0.0, 4)
        with pytest.raises(BadAlphabet):
            jukes_cantor(1.0, 1)

    def test_small_alphabet_labels(self):
        assert jukes_cantor(1.0, 2).states.labels == ("S0", "S1")


class TestSiteProduct:
    def test_single_site_is_same(self):
        assert site_product(FLIP, 1) is FLIP

    def test_two_site_factorization(self):
        g2 = site_product(FLIP, 2)
        t = 0.8
        left = expm(g2, t).M
        single = expm(FLIP, t).M
        assert np.abs(left - np.kron(single, single)).max() < 1e-10

    def test_column_sums_zero(self):
        g2 = site_product(jukes_cantor(0.5, 4), 2)
        assert np.abs(np.asarray(g2.H).sum(axis=0)).max() < 1e-12

    def test_labels(self):
        assert site_product(FLIP, 2).states.labels == ("aa", "ab", "ba", "bb")

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            site_product(jukes_cantor(1.0, 4), 4)

    @pytest.mark.parametrize("sites", [True, False, 2.0, "2", None, 0])
    def test_non_count_sites_rejected(self, sites):
        with pytest.raises(MarkovError, match="site count must be an int"):
            site_product(FLIP, sites)


class TestSimulate:
    def test_zero_length_tree_reproduces_root_draw(self):
        f = Distribution.point(FLIP.states, "b")
        counts = simulate_branching(unit_phylo(0.0), FLIP, f, seed=1, samples=500)
        assert counts[0] == 0 and counts[1] == 500

    def test_zero_corolla_keeps_leaves_equal(self):
        t = PhyloTree.make(corolla(2), {1: 0.0, 2: 0.0, -1: 0.0})
        f = Distribution.uniform(FLIP.states)
        counts = simulate_branching(t, FLIP, f, seed=2, samples=2000)
        assert counts[0, 1] == 0 and counts[1, 0] == 0
        assert counts.sum() == 2000

    def test_deterministic_given_seed(self):
        t = PhyloTree.make(corolla(2), {1: 1.0, 2: 0.5, -1: 0.2})
        f = Distribution.uniform(FLIP.states)
        a = simulate_branching(t, FLIP, f, seed=7, samples=3000)
        b = simulate_branching(t, FLIP, f, seed=7, samples=3000)
        assert np.array_equal(a, b)
        c = simulate_branching(t, FLIP, f, seed=8, samples=3000)
        assert not np.array_equal(a, c)

    def test_total_variation_to_analytic(self):
        from phylo.coalgebra import evaluate
        t = PhyloTree.make(corolla(2), {1: 1.0, 2: 0.5, -1: 0.2})
        f = Distribution.uniform(FLIP.states)
        counts = simulate_branching(t, FLIP, f, seed=11, samples=20000)
        emp = counts / counts.sum()
        exact = evaluate(t, FLIP, f).data
        assert 0.5 * np.abs(emp - exact).sum() < 0.05

    def test_size_cap_checked_before_sampling(self):
        g = jukes_cantor(1.0, 4)
        t = PhyloTree.make(corolla(14), {u: 0.0 for u in corolla(14).nodes})
        with pytest.raises(SizeCap):
            simulate_branching(t, g, Distribution.uniform(g.states),
                               seed=0, samples=1)

    @pytest.mark.parametrize("samples", [2.5, "3", None, True])
    def test_non_int_samples_rejected(self, samples):
        f = Distribution.uniform(FLIP.states)
        with pytest.raises(MarkovError, match="samples must be an int"):
            simulate_branching(unit_phylo(0.0), FLIP, f, seed=0, samples=samples)

    @pytest.mark.parametrize("seed", [True, False, 1.0, "1", None, -1])
    def test_non_count_seed_rejected(self, seed):
        f = Distribution.uniform(FLIP.states)
        with pytest.raises(MarkovError, match="seed must be an int"):
            simulate_branching(unit_phylo(0.0), FLIP, f, seed=seed, samples=1)

    def test_state_space_mismatch(self):
        f = Distribution.uniform(StateSpace(("x", "y")))
        with pytest.raises(StateSpaceMismatch):
            simulate_branching(unit_phylo(0.0), FLIP, f, seed=0, samples=1)

    def test_counts_pinned_for_fixed_seed(self):
        # the counts a seed gives are part of its contract, so a change to
        # the draws or to their order shows here
        g = validate_generator([[-1.5, 0.5, 2.0], [1.0, -1.0, 1.0],
                                [0.5, 0.5, -3.0]], ("x", "y", "z"))
        f = Distribution.make(g.states, [0.2, 0.5, 0.3])
        t = parse_newick("((1:0.5,2:0.25):0.125,3:0.75):0.25;")
        counts = simulate_branching(t, g, f, seed=2026, samples=300)
        assert counts.tolist() == [
            [[18, 17, 6], [11, 15, 6], [4, 9, 2]],
            [[17, 17, 6], [35, 51, 21], [5, 16, 1]],
            [[10, 3, 2], [6, 9, 3], [5, 5, 0]]]

    def test_counts_pinned_with_an_absorbing_state(self):
        # state w is never left; every edge runs several jump rounds
        g = validate_generator([[-2.0, 1.0, 0.5, 0.0], [1.0, -2.5, 1.0, 0.0],
                                [0.5, 1.0, -2.0, 0.0], [0.5, 0.5, 0.5, 0.0]],
                               ("a", "b", "c", "w"))
        f = Distribution.make(g.states, [0.4, 0.3, 0.2, 0.1])
        t = parse_newick(
            "(((1:0.75,2:1.5):0.5,3:1.25):0.25,(4:2.0,5:0.625):1.0):0.5;")
        counts = simulate_branching(t, g, f, seed=1313, samples=400)
        assert counts.shape == (4,) * 5 and counts.dtype == np.int64
        leaf_counts = [counts.sum(axis=tuple(a for a in range(5) if a != k)).tolist()
                       for k in range(5)]
        assert leaf_counts == [[49, 34, 50, 267], [25, 36, 27, 312],
                               [48, 45, 43, 264], [21, 26, 23, 330],
                               [47, 39, 49, 265]]
        assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == (
            "69375a3a737052ad660998161ff8330cc968c16e9825b54032537bf6e85dff62")


class TestStateSpace:
    def test_unknown_label_is_a_markov_error(self):
        with pytest.raises(MarkovError) as info:
            Distribution.point(jukes_cantor(1.0).states, "Z")
        assert isinstance(info.value, PhyloError)
        assert "'Z'" in str(info.value) and "'A'" in str(info.value)

    def test_index(self):
        assert jukes_cantor(1.0).states.index("C") == 2


class TestSiteProductLabels:
    def test_multicharacter_labels_use_separator(self):
        g = site_product(jukes_cantor(1.0, 2), 2)
        assert g.states.labels == ("S0|S0", "S0|S1", "S1|S0", "S1|S1")
