"""Every library entry point that reads a length, a time or a rate refuses
every non-length with its own ``PhyloError`` subclass: never a bare
``TypeError`` or ``OverflowError``, and never by reading a bool or a
string as a number."""

import math

import pytest

from phylo.coalgebra import (
    DomainError,
    ParameterOutOfRange,
    from_unit,
    homotopy_retract,
    to_unit,
)
from phylo.markov import (
    BadRate,
    NegativeTime,
    expm,
    jukes_cantor,
    validate_generator,
)
from phylo.operads import (
    MalformedLabelling,
    PhyloInvariantError,
    PhyloTree,
    WeightedTree,
    _length,
    unit_phylo,
)
from phylo.trees import PhyloError, corolla
from phylo.treespace import (
    BasicOpenSet,
    ExternalLengths,
    MetricTree,
    TreeSpaceError,
    metric_tree,
    recompose,
)

FLIP = validate_generator([[-1.0, 1.0], [1.0, -1.0]], ("a", "b"))
CHERRY = PhyloTree.make(corolla(2), {1: 0.5, 2: 0.5, -1: 0.5})
NON_LENGTHS = [True, False, "0.5", None, math.nan, -0.5, -math.inf, 10 ** 400]
NON_LENGTH_IDS = ["true", "false", "str", "none", "nan", "negative",
                  "minus-inf", "huge-int"]

# (reader, error class, whether an infinite value is a valid input)
READERS = {
    "PhyloTree.make": (
        lambda x: PhyloTree.make(corolla(2), {1: x, 2: 0.5, -1: 0.5}),
        PhyloInvariantError, False),
    "WeightedTree.make": (
        lambda x: WeightedTree.make(corolla(2), {1: x, 2: 0.5, -1: 0.5}),
        MalformedLabelling, True),
    "with_external": (lambda x: CHERRY.with_external((0.5, x, 0.5)),
                      PhyloInvariantError, True),
    "unit_phylo": (unit_phylo, PhyloInvariantError, True),
    "recompose": (lambda x: recompose(MetricTree(unit_phylo()), ExternalLengths((x,))),
                  TreeSpaceError, False),
    "ExternalLengths": (lambda x: ExternalLengths((0.5, x, 0.5)),
                        TreeSpaceError, False),
    "metric_tree": (lambda x: metric_tree(3, {0b011: x}),
                    PhyloInvariantError, False),
    "BasicOpenSet": (
        lambda x: BasicOpenSet(corolla(2), (), ((-1.0, 1.0),) * 3, radii=x),
        TreeSpaceError, False),
    "to_unit": (to_unit, DomainError, True),
    "from_unit": (from_unit, DomainError, False),
    "homotopy_retract": (lambda x: homotopy_retract(CHERRY, x),
                         ParameterOutOfRange, False),
    "expm": (lambda x: expm(FLIP, x), NegativeTime, True),
    "jukes_cantor": (jukes_cantor, BadRate, False),
}


@pytest.mark.parametrize("x", NON_LENGTHS, ids=NON_LENGTH_IDS)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_refuses_a_non_length(reader, x):
    read, error, _ = READERS[reader]
    assert issubclass(error, PhyloError)
    with pytest.raises(error):
        read(x)


@pytest.mark.parametrize("reader", [r for r, (_, _, inf_ok) in READERS.items()
                                    if not inf_ok])
def test_finite_readers_refuse_inf(reader):
    read, error, _ = READERS[reader]
    with pytest.raises(error):
        read(math.inf)


@pytest.mark.parametrize("reader", [r for r, (_, _, inf_ok) in READERS.items()
                                    if inf_ok])
def test_extended_readers_take_inf(reader):
    READERS[reader][0](math.inf)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("x", [1, 0.5])
def test_every_reader_takes_an_int_and_a_float(reader, x):
    READERS[reader][0](x)


@pytest.mark.parametrize("x, finite, extended", [
    (0, 0.0, 0.0), (-0.0, 0.0, 0.0), (3, 3.0, 3.0), (2.5, 2.5, 2.5),
    (math.inf, None, math.inf), (10 ** 300, 1e300, 1e300),
    (True, None, None), ("1", None, None), (math.nan, None, None),
])
def test_the_rule(x, finite, extended):
    for allow_inf, want in ((False, finite), (True, extended)):
        got = _length(x, allow_inf)
        assert got == want and (got is None or type(got) is float)
        if got == 0:
            assert math.copysign(1.0, got) == 1.0
