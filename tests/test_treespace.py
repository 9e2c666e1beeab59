import math
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import caterpillar
from phylo.operads import PhyloTree
from phylo.sampling import (
    random_metric,
    random_metric_on_grid,
    random_phylo,
    random_shape,
)
from phylo.trees import make_tree
from phylo.treespace import (
    ArityMismatch,
    ArityTooLarge,
    BasicOpenSet,
    ExactUnsupported,
    ExternalLengths,
    MetricTree,
    Orthant,
    TreeSpaceError,
    WrongArity,
    axis_order,
    bhv_distance,
    cluster_key,
    cluster_lengths,
    compatible,
    decompose,
    decompose1,
    enumerate_binary_topologies,
    enumerate_strata,
    is_laminar,
    leaves,
    metric_tree,
    neighborhood_contains,
    orthant_of,
    recompose,
    recompose1,
    shape_clusters,
    tree_from_clusters,
    unit_metric_tree,
)


def seeds():
    return st.integers(0, 10 ** 9)


def fs(*xs):
    return sum(1 << (x - 1) for x in xs)


class TestDecompose:
    def test_already_metric_tree(self):
        m0 = random_metric(random.Random(1), 4)
        m, ext = decompose(m0.tree)
        assert m == m0
        assert ext.values == (0.0,) * 5

    def test_five_leaf_example_extraction(self):
        # shape: root vertex a over (leaf 3, leaf 1, w), w over (4, 5, 2);
        # one internal edge of length 0.7 above the cluster {2, 4, 5}
        shape = make_tree(5, "a", {"a": [3, 1, "w"], "w": [4, 5, 2]})
        lens = {3: 0.1, 1: 0.2, 4: 0.3, 5: 0.4, 2: 0.5, -2: 0.7, -1: 0.6}
        t = PhyloTree.make(shape, lens)
        m, ext = decompose(t)
        assert cluster_lengths(m.tree) == {fs(2, 4, 5): 0.7}
        # root first, then leaf edges in leaf order
        assert ext.values == (0.6, 0.2, 0.5, 0.1, 0.3, 0.4)
        assert recompose(m, ext) == t

    @given(seeds())
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        t = random_phylo(rng, rng.randint(2, 6))
        m, ext = decompose(t)
        assert recompose(m, ext) == t

    def test_one_leaf_factors(self):
        m, length = decompose1(recompose1(2.5))
        assert m == unit_metric_tree()
        assert length == 2.5
        assert recompose1(length) == recompose1(2.5)

    def test_wrong_arities(self):
        with pytest.raises(WrongArity):
            decompose(recompose1(1.0))
        with pytest.raises(WrongArity):
            decompose1(random_phylo(random.Random(0), 3))
        with pytest.raises(WrongArity):
            recompose(unit_metric_tree(), ExternalLengths((0.0, 0.0)))


class TestTopologyEnumeration:
    def test_small_counts(self):
        assert len(enumerate_binary_topologies(2)) == 1
        assert len(enumerate_binary_topologies(3)) == 3
        assert len(enumerate_binary_topologies(4)) == 15
        assert len(enumerate_binary_topologies(5)) == 105

    def test_double_factorial_recursion_oracle(self):
        # inserting leaf n onto any of the 2n-3 edges of an (n-1)-leaf tree
        expected = {2: 1}
        for n in range(3, 7):
            expected[n] = expected[n - 1] * (2 * n - 3)
        for n in range(2, 7):
            assert len(enumerate_binary_topologies(n)) == expected[n]

    def test_deduplicated(self):
        tops = enumerate_binary_topologies(5)
        assert len({o.clusters for o in tops}) == 105

    def test_cap(self):
        with pytest.raises(ArityTooLarge):
            enumerate_binary_topologies(8)
        with pytest.raises(ArityTooLarge):
            enumerate_binary_topologies(1)

    def test_strata_census_n4(self):
        strata = enumerate_strata(4)
        assert {k: len(v) for k, v in strata.items()} == {2: 15, 1: 10, 0: 1}


class TestOrthants:
    def test_binary_tree_coordinates(self):
        x = metric_tree(4, {fs(1, 2): 1.0, fs(3, 4): 1.0})
        pos = orthant_of(x)
        assert pos.is_binary
        assert pos.coords == (1.0, 1.0)
        assert pos.orthant.dimension == 2
        assert [leaves(c) for c in pos.axes] == [(1, 2), (3, 4)]

    def test_star_is_the_cone_point(self):
        pos = orthant_of(metric_tree(4, {}))
        assert not pos.is_binary
        assert len(pos.adjacent) == 15

    def test_single_edge_tree_meets_three_quadrants(self):
        pos = orthant_of(metric_tree(4, {fs(1, 2): 0.5}))
        assert not pos.is_binary
        assert len(pos.adjacent) == 3
        for o in pos.adjacent:
            assert fs(1, 2) in o.clusters

    def test_binary_dimension_rule(self):
        for n in (2, 3, 4, 5):
            for o in enumerate_binary_topologies(n):
                assert o.dimension == n - 2


class TestClusters:
    def test_laminar_matches_the_pairwise_check(self):
        rng = random.Random(29)
        seen = set()
        for k in range(2000):
            n = rng.randint(2, 10)
            if k % 2:
                fam = [fs(*rng.sample(range(1, n + 1), rng.randint(0, n)))
                       for _ in range(rng.randint(0, 6))]
            else:  # the union of two trees' clusters, as the cone distance takes
                fam = list(shape_clusters(random_shape(rng, n))
                           | shape_clusters(random_shape(rng, n)))
            want = all(compatible(a, b) for a, b in combinations(fam, 2))
            assert is_laminar(fam) == want
            seen.add(want)
        assert seen == {True, False}

    def test_clusters_order_by_leaf_tuple_not_mask_value(self):
        assert leaves(fs(1, 4)) == (1, 4) and leaves(0) == ()
        assert fs(1, 4) > fs(2, 3)
        assert axis_order([fs(2, 3), fs(1, 4)]) == (fs(1, 4), fs(2, 3))
        masks = range(1 << 9)
        assert sorted(masks, key=cluster_key) == sorted(masks, key=leaves)

    def test_tree_from_clusters_inverts_shape_clusters(self):
        rng = random.Random(31)
        for _ in range(300):
            shape = random_shape(rng, rng.randint(2, 12))
            rebuilt = tree_from_clusters(shape.n, shape_clusters(shape))
            assert rebuilt.canonical()[1] == shape.canonical()[1]

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(TreeSpaceError):
            tree_from_clusters(4, [fs(1, 2), fs(2, 3)])

    @pytest.mark.parametrize("bad", [frozenset({1, 2}), (1, 2), 0.5, -3,
                                     fs(1, 5), fs(1), 0, fs(1, 2, 3, 4)])
    def test_bad_masks_rejected(self, bad):
        with pytest.raises(TreeSpaceError):
            tree_from_clusters(4, [fs(1, 2), bad])
        with pytest.raises(TreeSpaceError):
            Orthant(3, frozenset({bad}))

    @pytest.mark.parametrize("n", [-1, 0, 1, 2.0])
    def test_bad_leaf_counts_rejected(self, n):
        with pytest.raises(TreeSpaceError):
            tree_from_clusters(n, [])

    def test_cone_distance_on_a_deep_caterpillar(self):
        # 2000 leaves; both trees have one topology, so the answer is the
        # Euclidean one.  Took about 0.1 s and peaked at 2.7 MB on a 2-vCPU
        # x86-64 host; one frozenset of leaves per cluster peaked at 268 MB.
        shape = caterpillar(1999)

        def metric(x):
            return MetricTree(PhyloTree.make(shape, {
                u: x if shape.is_internal_edge(u) else 0.0 for u in shape.nodes}))

        t0 = time.perf_counter()
        assert bhv_distance(metric(1.0), metric(2.0), "cone") == math.sqrt(1998)
        assert time.perf_counter() - t0 < 1.0
        x, y = metric(1.0), metric(2.0)
        tracemalloc.start()
        try:
            assert bhv_distance(x, y, "cone") == math.sqrt(1998)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    @pytest.mark.parametrize("op", ["orthant_of", "tree_from_clusters", "metric_tree"])
    def test_cluster_order_on_a_deep_caterpillar(self, op):
        # 2000 leaves, 1998 clusters.  On a 2-vCPU x86-64 host orthant_of
        # sorts them by cluster_key in 0.05 s at a 4.7 MB peak; the other two
        # order them by size and lowest leaf in 0.06 s at 2.9 MB.  Leaf
        # tuples as keys took about 0.4 s and peaked near 70 MB.
        shape = caterpillar(1999)
        tree = PhyloTree.make(shape, {
            u: 1.0 if shape.is_internal_edge(u) else 0.0 for u in shape.nodes})
        lengths = cluster_lengths(tree)
        run = {"orthant_of": lambda: orthant_of(MetricTree(tree)),
               "tree_from_clusters": lambda: tree_from_clusters(2000, lengths),
               "metric_tree": lambda: metric_tree(2000, lengths)}[op]
        t0 = time.perf_counter()
        run()
        assert time.perf_counter() - t0 < 1.0
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < {"orthant_of": 10, "tree_from_clusters": 5,
                       "metric_tree": 5}[op] * 2 ** 20


class TestBhvDistance:
    def test_identical_trees(self):
        x = metric_tree(4, {fs(1, 2): 1.0, fs(1, 2, 3): 0.25})
        assert bhv_distance(x, x) == 0.0

    def test_same_quadrant_euclidean(self):
        x = metric_tree(4, {fs(1, 2): 1.0, fs(3, 4): 1.0})
        y = metric_tree(4, {fs(1, 2): 0.5, fs(3, 4): 1.0})
        assert bhv_distance(x, y, "exact4") == pytest.approx(0.5, abs=1e-15)

    def test_adjacent_quadrants_unfold(self):
        # both trees sit at 45 degrees from the shared ray {1,2}; unfolding
        # the two quadrants about that ray puts them at (1, 1) and (1, -1)
        a = metric_tree(4, {fs(1, 2): 1.0, fs(1, 2, 3): 1.0})
        b = metric_tree(4, {fs(1, 2): 1.0, fs(1, 2, 4): 1.0})
        assert bhv_distance(a, b, "exact4") == pytest.approx(2.0, abs=1e-12)

    def test_far_quadrants_go_through_the_cone_point(self):
        a = metric_tree(4, {fs(1, 2): 1.0, fs(3, 4): 1.0})
        b = metric_tree(4, {fs(1, 3): 1.0, fs(2, 4): 1.0})
        d = bhv_distance(a, b, "exact4")
        assert d == pytest.approx(a.norm + b.norm, abs=1e-12)

    def test_cone_upper_bound_and_symmetry(self):
        rng = random.Random(71)
        for _ in range(120):
            x = random_metric(rng, 4)
            y = random_metric(rng, 4)
            d = bhv_distance(x, y, "exact4")
            assert d == bhv_distance(y, x, "exact4")
            assert d <= bhv_distance(x, y, "cone") + 1e-15

    @pytest.mark.parametrize("n", range(2, 9))
    def test_euclidean_lower_bound(self, n):
        # a path in tree space moves each cluster's coordinate from x_c to
        # y_c (a missing cluster reads 0) at the same length, so no path is
        # shorter than the straight line between the coordinate vectors
        rng = random.Random(7 + n)
        modes = ("cone", "exact4") if n <= 4 else ("cone",)
        for _ in range(150):
            for x, y in ((random_metric(rng, n), random_metric(rng, n)),
                         (random_metric_on_grid(rng, n, 0.05, 12),
                          random_metric_on_grid(rng, n, 0.05, 12))):
                cx, cy = x.clusters, y.clusters
                bound = math.sqrt(sum((cx.get(c, 0.0) - cy.get(c, 0.0)) ** 2
                                      for c in cx.keys() | cy.keys()))
                for mode in modes:
                    assert bhv_distance(x, y, mode) >= bound * (1 - 1e-12)

    def test_triangle_inequality(self):
        rng = random.Random(73)
        for _ in range(100):
            x, y, z = (random_metric(rng, 4) for _ in range(3))
            dxz = bhv_distance(x, z, "exact4")
            dxy = bhv_distance(x, y, "exact4")
            dyz = bhv_distance(y, z, "exact4")
            assert dxz <= dxy + dyz + 1e-9

    def test_zero_distance_implies_equality(self):
        rng = random.Random(79)
        for _ in range(60):
            x = random_metric(rng, 4)
            y = random_metric(rng, 4)
            if bhv_distance(x, y, "exact4") == 0.0:
                assert x == y

    def test_nested_topologies_share_an_orthant_closure(self):
        x = metric_tree(4, {fs(1, 2): 0.6})
        y = metric_tree(4, {fs(1, 2): 0.2, fs(3, 4): 0.4})
        want = math.hypot(0.4, 0.4)
        assert bhv_distance(x, y, "exact4") == pytest.approx(want, abs=1e-15)
        assert bhv_distance(x, y, "cone") == pytest.approx(want, abs=1e-15)

    def test_exact_unsupported_above_four(self):
        x = random_metric(random.Random(3), 5)
        with pytest.raises(ExactUnsupported):
            bhv_distance(x, x, "exact4")
        assert bhv_distance(x, x, "auto") == 0.0

    def test_unknown_mode_is_a_tree_space_error(self):
        x = random_metric(random.Random(3), 4)
        with pytest.raises(TreeSpaceError, match="unknown mode"):
            bhv_distance(x, x, mode="bogus")
        assert issubclass(TreeSpaceError, ValueError)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            bhv_distance(random_metric(random.Random(5), 3),
                         random_metric(random.Random(6), 4))

    def test_grid_oracle_smoke(self):
        from gridoracle import GridComplex
        rng = random.Random(83)
        grid = GridComplex(radius=0.9, step=0.05)
        src = [random_metric_on_grid(rng, 4, 0.05, 12) for _ in range(4)]
        tgt = [random_metric_on_grid(rng, 4, 0.05, 12) for _ in range(6)]
        oracle = grid.distances(src, tgt)
        for i, x in enumerate(src):
            for j, y in enumerate(tgt):
                exact = bhv_distance(x, y, "exact4")
                assert exact <= oracle[i, j] + 1e-9
                assert abs(exact - oracle[i, j]) < 0.1


class TestNeighborhoods:
    def base_set(self, radius):
        base = tree_from_clusters(4, [fs(1, 2)])
        return BasicOpenSet(
            base,
            internal_windows=((0.5, 1.5),),
            external_windows=tuple((-1.0, 0.5) for _ in range(5)),
            radii=radius,
        )

    def test_center_is_inside(self):
        u = self.base_set(0.7)
        z = metric_tree(4, {fs(1, 2): 1.0}).tree
        assert neighborhood_contains(u, z)

    def test_collapsing_family_radius_rule(self):
        z = metric_tree(4, {fs(1, 2): 1.0, fs(3, 4): 0.5}).tree
        assert neighborhood_contains(self.base_set(0.7), z)
        assert not neighborhood_contains(self.base_set(0.4), z)

    def test_non_refining_topology_excluded(self):
        z = metric_tree(4, {fs(1, 3): 1.0, fs(1, 2, 3): 0.1}).tree
        assert not neighborhood_contains(self.base_set(0.7), z)

    def test_external_windows_checked(self):
        u = self.base_set(0.7)
        shape = tree_from_clusters(4, [fs(1, 2)])
        lens = {n: 0.0 for n in shape.nodes}
        for v in shape.internal_edge_sources():
            lens[v] = 1.0
        lens[1] = 2.0  # outside the external window
        assert not neighborhood_contains(u, PhyloTree.make(shape, lens))

    def test_intermediate_refinement_excluded(self):
        # a non-binary proper refinement is not among the resolved topologies
        base = tree_from_clusters(5, [fs(1, 2)])
        u = BasicOpenSet(base, ((0.5, 1.5),),
                         tuple((-1.0, 0.5) for _ in range(6)), radii=1.0)
        z = metric_tree(5, {fs(1, 2): 1.0, fs(3, 4): 0.2}).tree
        assert not neighborhood_contains(u, z)
        zb = metric_tree(5, {fs(1, 2): 1.0, fs(3, 4): 0.2, fs(3, 4, 5): 0.2}).tree
        assert neighborhood_contains(u, zb)

    def test_convergence_to_the_limit(self):
        # shrinking one internal edge: eventually inside every neighborhood
        # of the limit, and the distance to it is monotone decreasing to 0
        limit = metric_tree(4, {fs(1, 2): 1.0})
        last = math.inf
        for s in (0.5, 0.25, 0.1, 0.05, 0.01):
            z = metric_tree(4, {fs(1, 2): 1.0, fs(3, 4): s})
            d = bhv_distance(z, limit, "exact4")
            assert d == pytest.approx(s, abs=1e-12)
            assert d < last
            last = d
            assert neighborhood_contains(self.base_set(2 * s), z.tree)

    def test_window_shape_validation(self):
        with pytest.raises(TreeSpaceError):
            BasicOpenSet(tree_from_clusters(4, [fs(1, 2)]),
                         internal_windows=(),
                         external_windows=tuple((-1.0, 0.5) for _ in range(5)))


class TestMetricTreeValidation:
    def test_nonzero_external_rejected(self):
        t = random_phylo(random.Random(2), 4)
        while all(x == 0.0 for x in t.external_lengths()):
            t = random_phylo(random.Random(3), 4)
        with pytest.raises(TreeSpaceError):
            MetricTree(t)

    def test_recompose_length_mismatch(self):
        m = random_metric(random.Random(4), 3)
        with pytest.raises(ArityMismatch):
            recompose(m, ExternalLengths((0.0, 0.0, 0.0)))

    def test_negative_external_rejected(self):
        with pytest.raises(TreeSpaceError):
            ExternalLengths((0.0, -1.0))


class TestResolutions:
    def test_five_leaf_star_resolves_to_every_binary_topology(self):
        star = metric_tree(5, {})
        pos = orthant_of(star)
        assert len(pos.adjacent) == 105
        assert {o.clusters for o in pos.adjacent} == \
            {o.clusters for o in enumerate_binary_topologies(5)}

    def test_resolutions_refine_the_base(self):
        base = metric_tree(5, {fs(1, 2, 3): 0.4})
        for o in orthant_of(base).adjacent:
            assert fs(1, 2, 3) in o.clusters
