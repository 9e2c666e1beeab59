import hashlib
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import expm_taylor, random_reducible
from markov_reference import (
    expm_one,
    limit_by_doubling,
    limit_exact,
    semigroup_defect,
    site_sum,
)
from phylo import markov
from phylo.coalgebra import LeafTensor
from phylo.markov import (
    _PS_TABLES,
    COLUMN_SUM_TOL,
    DISTRIBUTION_SUM_TOL,
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
    _expm_core,
    _series_degree,
    _transitions,
    expm,
    jukes_cantor,
    limit_operator,
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


def uniform_rates(s, scale):
    """s states with U(0, 1) rates from a fixed seed, times ``scale``."""
    h = np.random.default_rng(s).random((s, s))
    np.fill_diagonal(h, 0.0)
    return (h - np.diag(h.sum(axis=0))) * scale


class TestValidateGenerator:
    def test_symmetric_flip_valid(self):
        assert FLIP.size == 2

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(NegativeOffDiagonal):
            validate_generator([[0.1, -0.1], [-0.1, 0.1]])

    def test_column_sums_checked(self):
        with pytest.raises(ColumnSumNonzero):
            validate_generator([[-1.0, 1.0], [0.9, -1.0]])

    @pytest.mark.parametrize("rows, valid", [
        # exact decimal input, off by 8.7e-12 in absolute terms
        ([[-123456.889, 0, 0], [123456.789, 0, 0], [0.1, 0, 0]], True),
        # 1,000 states with U(0, 1) rates, each column off by about 1e-12
        (uniform_rates(1000, 1.0), True),
        # a small generator scaled up: its roundoff scales with it
        (uniform_rates(4, 2.0 ** 40), True),
        (uniform_rates(4, 2.0 ** -40), True),
        # a leak as large as the column's own rates, however small
        ([[-1e-13, 0.0], [0.0, 0.0]], False),
        ([[-1.0, 0.0], [1.0 + 1e-11, 0.0]], False),
        ([[-1.0, 0.0], [1.0 + 1e-15, 0.0]], True),
        (np.zeros((3, 3)), True),
        # near the float range, where the absolute sums overflow unscaled
        ([[-1e308, 1e308], [1e308, -1e308]], True),
        ([[-1e308, 0, 0], [1e308, 0, 0], [1e308, 0, 0]], False),
    ], ids=["decimal", "s1000", "scaled-up", "scaled-down", "tiny-leak",
            "relative-leak", "roundoff", "zero", "float-range", "float-range-leak"])
    def test_column_sum_rule_is_relative(self, rows, valid):
        """|sum_y H[y, x]| <= GENERATOR_SUM_TOL * sum_y |H[y, x]|."""
        if valid:
            validate_generator(rows)
        else:
            with pytest.raises(ColumnSumNonzero):
                validate_generator(rows)

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


# constructor, a valid array, its sum tolerance, and the flat index of an
# entry that shares a sum with entry 0
PROBABILITY_RULE = {
    "Distribution": (lambda a: Distribution.make(FLIP.states, a).p,
                     [0.5, 0.5], DISTRIBUTION_SUM_TOL, 1),
    "StochasticMatrix": (lambda a: StochasticMatrix.make(FLIP.states, a).M,
                         [[0.5, 0.25], [0.5, 0.75]], COLUMN_SUM_TOL, 2),
    "LeafTensor": (lambda a: LeafTensor.make(FLIP.states, 2, a).data,
                   [[0.25, 0.125], [0.125, 0.5]], COLUMN_SUM_TOL, 1),
}


def perturbed(base, partner, first, shift=0.0):
    """``base`` with entry 0 set to ``first`` and its mass moved to the
    partner entry, then ``shift`` added to entry 0."""
    arr = np.array(base, dtype=float)
    flat = arr.reshape(-1)
    flat[partner] += flat[0] - first
    flat[0] = first + shift
    return arr


@pytest.mark.parametrize("kind", PROBABILITY_RULE)
class TestProbabilityRule:
    """One rule for every probability array: a NaN, an entry below
    -NEGATIVE_CLAMP or a sum off by more than its tolerance is refused with
    MarkovError; a roundoff negative becomes 0."""

    def test_valid_array_is_read_only(self, kind):
        make, base, _, _ = PROBABILITY_RULE[kind]
        out = make(base)
        assert np.array_equal(out, base) and not out.flags.writeable

    def test_nan_refused(self, kind):
        make, base, _, partner = PROBABILITY_RULE[kind]
        with pytest.raises(MarkovError, match="has a NaN or infinite entry"):
            make(perturbed(base, partner, math.nan))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_entry_refused(self, kind, bad):
        make, base, _, partner = PROBABILITY_RULE[kind]
        with pytest.raises(MarkovError, match="has a NaN or infinite entry"):
            make(perturbed(base, partner, bad))

    def test_finite_entries_whose_sum_overflows_refused(self, kind):
        make, base, _, _ = PROBABILITY_RULE[kind]
        with pytest.raises(MarkovError, match="sum deviates from 1 by inf"):
            make(np.full_like(np.array(base), 1e308))

    def test_entry_below_the_clamp_refused(self, kind):
        make, base, _, partner = PROBABILITY_RULE[kind]
        with pytest.raises(MarkovError, match="below the roundoff clamp"):
            make(perturbed(base, partner, -1e-11))

    def test_roundoff_negative_becomes_zero(self, kind):
        make, base, _, partner = PROBABILITY_RULE[kind]
        out = make(perturbed(base, partner, -1e-13))
        assert out.reshape(-1)[0] == 0.0 and out.min() == 0.0

    def test_sum_tolerance(self, kind):
        make, base, tol, partner = PROBABILITY_RULE[kind]
        first = np.array(base).reshape(-1)[0]
        make(perturbed(base, partner, first, tol / 2))
        with pytest.raises(MarkovError, match="deviates from 1"):
            make(perturbed(base, partner, first, 2 * tol))

    def test_wrong_shape_refused(self, kind):
        make, base, _, _ = PROBABILITY_RULE[kind]
        with pytest.raises(ShapeMismatch):
            make(np.append(np.array(base).reshape(-1), 0.0))


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
        # t = inf is not a bad time: it gives the cached limit
        assert expm(FLIP, math.inf) is FLIP.limit

    def test_long_times_converge_to_infinite_time(self):
        # the paper's reason Markov coalgebras extend to Com + [0, inf]:
        # exp(TH) reaches the limit once T times the least exit rate is 60
        rng = random.Random(31)
        for _ in range(40):
            g = random_generator(rng, k=rng.randint(2, 8),
                                 scale=10.0 ** rng.uniform(-2, 2))
            T = 60.0 / float(-np.diag(g.H).max())
            assert np.abs(expm(g, T).M - expm(g, math.inf).M).max() <= 1e-12

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
            out = Distribution.make(f.states, expm(g, rng.uniform(0, 5)).M @ f.p)
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


def stack_generator(rng, s, kind):
    """An s-state rate matrix: dense U(0, 1) rates scaled by 10^U(-3, 3), a
    site product of two 4-state ones (s = 16), or random_reducible's sparse
    pattern, 30% of the rates present, each 10^U(-12, 12)."""
    if kind == "sparse":
        h = np.array([[10.0 ** rng.uniform(-12, 12)
                       if x != y and rng.random() < 0.3 else 0.0
                       for x in range(s)] for y in range(s)])
        return h - np.diag(h.sum(axis=0))
    if kind == "site_product":
        return np.asarray(site_product(random_generator(rng, 4), 2).H)
    return np.asarray(random_generator(rng, s, 10.0 ** rng.uniform(-3, 3)).H)


def stack_plan(a):
    """The squarings and block table shape the one-matrix reference picks."""
    norm = float(np.abs(a).sum(axis=0).max())
    frac, exp = math.frexp(norm)
    squarings = max(0, exp - (frac == 0.5))
    return squarings, _PS_TABLES[_series_degree(norm / 2.0 ** squarings)].shape


class TestExpmStack:
    """Every slice of the stacked ``_expm_core`` against ``expm_one``, the
    one-matrix core it replaced, bit for bit."""

    @pytest.mark.parametrize("s, kind", [
        (2, "dense"), (3, "dense"), (4, "dense"), (16, "dense"),
        (16, "site_product"), (2, "sparse"), (4, "sparse"), (16, "sparse")])
    def test_slices_equal_the_one_matrix_core(self, s, kind):
        rng = random.Random(f"{s} {kind}")
        shapes, squarings = set(), set()
        for _ in range(12):
            h = stack_generator(rng, s, kind)
            norm = float(np.abs(h).sum(axis=0).max()) or 1.0
            times = [0.0] + [
                rng.randint(0, 4096) / 1024 if r < 0.3
                else 10.0 ** rng.uniform(-6, 2) if r < 0.8
                # t * H with norm from 2^-40 up to near 2^1000
                else 2.0 ** rng.uniform(-40, 999.9) / norm
                for r in (rng.random() for _ in range(rng.randint(1, 40)))]
            A = np.multiply.outer(times, h)
            # hundreds of squarings blow the roundoff up past the float
            # range; the bits must agree there too
            with np.errstate(over="ignore", invalid="ignore"):
                for a, m in zip(A, _expm_core(A)):
                    assert np.array_equal(m, expm_one(a), equal_nan=True)
            plans = [stack_plan(a) for a in A]
            shapes.update(p[1] for p in plans)
            squarings.update(p[0] for p in plans)
        assert len(shapes) >= 3 and len(squarings) >= 10

    @pytest.mark.parametrize("big", [2.0 ** 998, 1e308])
    def test_overflow_is_a_size_cap(self, big):
        # norm 6 * 2^998 of t * H, past 2^1000; then an infinite one
        g = jukes_cantor(1.0, 4)
        with np.errstate(over="ignore"):
            with pytest.raises(SizeCap) as want:
                expm_one(big * np.asarray(g.H))
            with pytest.raises(SizeCap) as got:
                _transitions(g, [0.5, big, 2.0])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("times", [[1e308], [0.5, 1e308]])
    def test_overflow_is_a_size_cap_without_a_warning(self, times):
        # t * H overflows under jukes_cantor(1, 4); under the flip model t * H
        # is finite and its norm overflows.  Both printed a numpy
        # RuntimeWarning on the way to SizeCap.
        flip = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in (jukes_cantor(1.0, 4), flip):
                with pytest.raises(SizeCap):
                    _transitions(g, times)
                with pytest.raises(SizeCap):
                    expm(g, times[-1])

    @pytest.mark.parametrize("bad", [
        [[math.nan, 0.5], [0.5, 0.5]], [[math.inf, 0.5], [0.5, 0.5]],
        [[1.5, 0.5], [-0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5 + 1e-9]]])
    def test_check_messages_are_those_of_stochastic_matrix(self, bad,
                                                           monkeypatch):
        good = np.asarray(expm(FLIP, 0.5).M)
        with pytest.raises(MarkovError) as want:
            StochasticMatrix.make(FLIP.states, bad)
        monkeypatch.setattr(markov, "_expm_core",
                            lambda A: np.array([good, bad, good]))
        with pytest.raises(MarkovError) as got:
            _transitions(FLIP, [0.5, 1.0, 2.0])
        assert (type(got.value), str(got.value)) == (type(want.value),
                                                     str(want.value))

    def test_stack_is_read_only(self):
        assert not _transitions(FLIP, [0.5, 1.0]).flags.writeable


@pytest.mark.parametrize("bad", [
    [[math.nan, 0.5], [0.5, 0.5]], [[0.5, math.inf], [0.5, 0.5]],
    [[-math.inf, 0.5], [0.5, 0.5]], [[1e308, 0.5], [1e308, 0.5]]])
def test_stack_finiteness_is_read_from_the_rule(bad, monkeypatch):
    # the rule sees a non-finite entry in its min or its sums and only then
    # makes the full pass; finite entries whose sum overflows deviate by inf
    good = np.asarray(expm(FLIP, 0.5).M)
    monkeypatch.setattr(markov, "_expm_core", lambda A: np.array([good, bad]))
    with pytest.raises(MarkovError) as got:
        _transitions(FLIP, [0.5, 1.0])
    want = ("stochastic matrix column sum deviates from 1 by inf"
            if np.isfinite(bad).all() else
            "stochastic matrix has a NaN or infinite entry")
    assert type(got.value) is MarkovError and str(got.value) == want


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

    def test_transient_state_splits_exactly(self):
        g = validate_generator([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, -3.0]])
        p = limit_operator(g).M
        assert np.array_equal(p, [[1.0, 0.0, 1 / 3], [0.0, 1.0, 2 / 3],
                                  [0.0, 0.0, 0.0]])

    def test_two_state_closed_form(self):
        rng = random.Random(17)
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-12, 12), 10.0 ** rng.uniform(-12, 12)
            p = limit_operator(validate_generator([[-a, b], [a, -b]])).M
            want = np.array([b, a]) / (a + b)
            np.testing.assert_allclose(p, np.column_stack([want, want]),
                                       rtol=1e-15, atol=0)

    def test_laws_on_random_reducible_generators(self):
        # H P = 0, P H = 0 and P^2 = P, each entry to roundoff relative to
        # the sum of the magnitudes it is made of, and limit(c H) = limit(H)
        # bitwise for c a power of 2
        rng = random.Random(19)
        for _ in range(300):
            h = random_reducible(rng)
            p = limit_operator(validate_generator(h)).M
            assert (np.abs(h @ p) <= 1e-14 * (np.abs(h) @ p)).all()
            assert (np.abs(p @ h) <= 1e-14 * (p @ np.abs(h))).all()
            assert (np.abs(p @ p - p) <= 1e-14 * (p @ p)).all()
            c = 2.0 ** rng.randint(-960, 960)
            assert np.array_equal(limit_operator(validate_generator(c * h)).M, p)

    def test_rare_exit_through_a_slow_rate(self):
        # state 2 leaves only at rate 1e-300, to state 3, which goes on to
        # state 1 with probability 1e-30: the rerouted rate, 1e-330, is
        # below the float range, the rerouted jump probability is not
        h = [[0.0, 0.0, 1e-30], [0.0, -1e-300, 1.0], [0.0, 1e-300, -1.0]]
        p = limit_operator(validate_generator(h)).M
        assert np.array_equal(p, [[1.0] * 3, [0.0] * 3, [0.0] * 3])

    def test_escape_probability_below_the_float_range(self):
        # draw 353 of random_reducible(random.Random(1), span=150): an
        # escape probability of about 6e-382 once underflowed to 0 and the
        # elimination divided 0 by 0
        h = np.array([
            [0.0, 8.36255516417806e-31, 0.0, 1.7654233988474146e-121, 0.0,
             4.770333223239854e-55],
            [7.397303242568406e-128, 0.0, 0.0, 0.0, 4.981712144504997e+130,
             5.0853040767522695e-130],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.227436961751166e-135],
            [3.915887357879221e+94, 3.466997620892866e-110, 0.0, 0.0,
             2.6218516663564262e-20, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 8.996011433579514e+52],
            [0.0, 0.020505567473191395, 0.0, 0.0, 0.0, 0.0]])
        h -= np.diag(h.sum(axis=0))
        p = limit_operator(validate_generator(h)).M
        assert (p >= 0).all()
        assert np.abs(p.sum(axis=0) - 1.0).max() <= COLUMN_SUM_TOL
        assert (np.abs(h @ p) <= 1e-14 * (np.abs(h) @ p)).all()

    def test_matches_exact_rationals_across_the_exponent_range(self):
        # rates 2^k with k from -1100 to 1000: a rate below 2^-1074 rounds to
        # 0 and is absent, and above 2^1000 a column's sum could overflow.
        # Products of jump probabilities fall far below the float range,
        # where limit_exact keeps every bit
        rng = random.Random(37)
        for _ in range(300):
            s = rng.randint(2, 4)
            h = np.array([[math.ldexp(1.0, rng.randint(-1100, 1000))
                           if x != y and rng.random() < 0.6 else 0.0
                           for x in range(s)] for y in range(s)])
            h -= np.diag(h.sum(axis=0))
            want = np.array(limit_exact(h), dtype=float)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = limit_operator(validate_generator(h)).M
            assert np.abs(got - want).max() <= 1e-15, h.tolist()

    def test_agrees_with_doubling_on_well_mixed_generators(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_generator(rng, k=rng.randint(2, 8),
                                 scale=10.0 ** rng.uniform(-1, 1))
            assert np.abs(limit_operator(g).M - limit_by_doubling(g)).max() < 1e-12


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

    @pytest.mark.parametrize("s", [2, 3, 4, 8])
    def test_bits_of_the_per_site_sum(self, s):
        # every site count from 2 up to the cap (one site gives g itself), on
        # seeded generators and on one with -0.0 entries, which the per-site
        # sum from 0 turns into 0.0
        rng = random.Random(4100 + s)
        H0 = np.where(np.eye(s, dtype=bool), -0.0, 0.0)
        H0[:, 0] = -0.0
        H0[1, 0], H0[0, 0] = 0.5, -0.5
        for H in [np.asarray(random_generator(rng, s).H) for _ in range(10)] + [H0]:
            g = validate_generator(H)
            sites = 2
            while s ** sites <= 64:
                assert site_product(g, sites).H.tobytes() == \
                    site_sum(np.asarray(g.H), sites).tobytes()
                sites += 1

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

    def test_extended_tree_refused(self):
        f = Distribution.uniform(FLIP.states)
        t = parse_newick("(1:inf,2:1):0;", allow_infinite=True)
        with pytest.raises(NonFiniteTime, match="needs finite edge lengths"):
            simulate_branching(t, FLIP, f, seed=0, samples=1)

    def test_jump_lookup_memory_is_bounded(self):
        # 256 states and 100,000 samples: a lookup of every moving sample at
        # once took 255 x ~39,000 x 9 bytes (float and bool), about 90 MB; in
        # blocks of TENSOR_CAP table entries it takes about 9 MB
        g = jukes_cantor(2.0 ** -8, 256)
        f = Distribution.uniform(g.states)
        t = parse_newick("(1:0.5,2:0.5):0.5;")
        tracemalloc.start()
        try:
            counts = simulate_branching(t, g, f, seed=5, samples=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000
        assert counts.sum() == 100_000

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

    def test_repeated_label_refused(self):
        with pytest.raises(MarkovError, match="state labels must be distinct"):
            StateSpace(("a", "b", "a"))

    def test_empty_space_refused(self):
        with pytest.raises(MarkovError, match="at least one state"):
            StateSpace(())


class TestSiteProductLabels:
    def test_multicharacter_labels_use_separator(self):
        g = site_product(jukes_cantor(1.0, 2), 2)
        assert g.states.labels == ("S0|S0", "S0|S1", "S1|S0", "S1|S1")
