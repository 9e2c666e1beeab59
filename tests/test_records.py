"""Value semantics of every frozen value class: construction by position or
keyword, equality and hashing over the tuple of fields, the
``Name(field=value!r, ...)`` repr, and immutability."""

import pytest

from phylo.coalgebra import LeafTensor, evaluate
from phylo.markov import (
    Distribution,
    MarkovGenerator,
    StateSpace,
    StochasticMatrix,
    expm,
    validate_generator,
)
from phylo.newick import parse_newick
from phylo.operads import PhyloTree, WeightedTree
from phylo.trees import LabelledTree, PlanarTree, SourceNotBijective, corolla
from phylo.treespace import (
    BasicOpenSet,
    ExternalLengths,
    MetricTree,
    Orthant,
    OrthantPosition,
    decompose,
    enumerate_binary_topologies,
    orthant_of,
)


def _instances() -> dict[type, object]:
    tree = parse_newick("((1:0,2:0):1,3:0):0;")
    metric, external = decompose(parse_newick("((1:0.5,2:0):1,3:0.25):0.5;"))
    states = StateSpace(("a", "b"))
    g = validate_generator([[-1.0, 1.0], [1.0, -1.0]], states)
    f = Distribution.uniform(states)
    made = [
        corolla(3),
        LabelledTree.make(corolla(2), {-1: "f"}),
        WeightedTree.make(corolla(2), {1: 0.5, 2: 0.25, -1: 0.0}),
        tree,
        external,
        metric,
        enumerate_binary_topologies(3)[0],
        orthant_of(metric),
        BasicOpenSet(tree.shape, ((0.5, 2.0),), ((-1.0, 1.0),) * 4),
        states,
        g,
        expm(g, 0.5),
        f,
        evaluate(tree, g, f),
    ]
    return {type(x): x for x in made}


INSTANCES = _instances()
CLASSES = [PlanarTree, LabelledTree, WeightedTree, PhyloTree,
           ExternalLengths, MetricTree, Orthant, OrthantPosition, BasicOpenSet,
           StateSpace, MarkovGenerator, StochasticMatrix, Distribution, LeafTensor]


def test_every_value_class_has_an_instance():
    assert set(INSTANCES) == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_value_semantics(cls):
    a = INSTANCES[cls]
    names = list(cls.__annotations__)
    values = [getattr(a, k) for k in names]

    b = cls(*values)
    assert b is not a and a == b and not a != b
    assert cls(**dict(zip(names, values))) == a
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == a
    try:
        expected = hash(tuple(values))
    except TypeError:  # some field holds a numpy array
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected

    twin = type(cls.__name__, (cls,), {})(*values)
    assert a != twin and twin != a
    assert a != tuple(values)

    inner = ", ".join(f"{k}={v!r}" for k, v in zip(names, values))
    assert repr(a) == f"{cls.__name__}({inner})"

    for k in names:
        with pytest.raises(AttributeError):
            setattr(a, k, values[0])
        with pytest.raises(AttributeError):
            delattr(a, k)
    assert [getattr(a, k) for k in names] == values


def test_bad_calls_raise_type_error():
    with pytest.raises(TypeError):
        PlanarTree(1, 1, (), None)
    with pytest.raises(TypeError):
        PlanarTree(1, 1)
    with pytest.raises(TypeError):
        PlanarTree(1, 1, children=(), width=2)
    with pytest.raises(TypeError):
        PlanarTree(1, 1, (), root=1)


def test_defaults_and_post_init():
    base, inner, outer = INSTANCES[BasicOpenSet].base, ((0.5, 2.0),), ((-1.0, 1.0),) * 4
    assert BasicOpenSet(base, inner, outer).radii == 1.0
    assert BasicOpenSet(base, inner, outer, radii=0.5).radii == 0.5
    with pytest.raises(SourceNotBijective):
        PlanarTree(2, -1, ((-1, (1, 1)),))
    with pytest.raises(SourceNotBijective):
        PlanarTree(n=2, root=-1, children=((-1, (1, 1)),))


def test_cached_properties_fill_on_a_frozen_instance():
    t = PlanarTree(3, -1, ((-1, (1, 2, 3)),))
    assert t.child_map == {-1: (1, 2, 3)} and t.preorder == (-1, 1, 2, 3)
    assert "preorder" in vars(t)
