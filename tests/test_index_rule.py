"""Every library entry point that reads a slot, a leaf index, an arity or
a permutation refuses anything but ints with its own ``PhyloError``
subclass: a float or a bool is never read as the int it equals, and
nothing ends in a bare ``KeyError`` or ``TypeError``."""

import pytest

from phylo.coalgebra import (
    BadArity,
    IndexOutOfRange,
    duplicate,
    duplicate_matrix,
    marginal,
)
from phylo.markov import Distribution, StateSpace
from phylo.newick import parse_newick
from phylo.operads import COM, PHYL, PLANAR_TREES, phylo_act, phylo_compose
from phylo.trees import (
    LabelledTree,
    LeafIndexOutOfRange,
    PermutationSizeMismatch,
    corolla,
    invert_perm,
)

A = parse_newick("(1:0.5,2:0.25):1;")
B = parse_newick("(1:1,2:2):0.5;")
F = Distribution.make(StateSpace(("a", "b")), [0.25, 0.75])

# reader of an index, and the error it raises on a bad one
READERS = {
    "graft_renaming": (lambda i: corolla(2).graft_renaming(i, corolla(2)),
                       LeafIndexOutOfRange),
    "PlanarTree.graft": (lambda i: corolla(2).graft(i, corolla(2)),
                         LeafIndexOutOfRange),
    "phylo_compose": (lambda i: phylo_compose(A, i, B), LeafIndexOutOfRange),
    "PHYL.compose": (lambda i: PHYL.compose(A, i, B), LeafIndexOutOfRange),
    "PLANAR_TREES.compose": (
        lambda i: PLANAR_TREES.compose(corolla(2), i, corolla(2)),
        LeafIndexOutOfRange),
    "COM.compose": (lambda i: COM.compose(2, i, 2), LeafIndexOutOfRange),
    "leaf_length": (lambda i: A.leaf_length(i), LeafIndexOutOfRange),
    "marginal": (lambda i: marginal(duplicate(2, F), i), IndexOutOfRange),
    "duplicate_matrix": (lambda k: duplicate_matrix(F.states, k), BadArity),
    "duplicate": (lambda k: duplicate(k, F), BadArity),
}


@pytest.mark.parametrize("index", [1.0, 2.0, 1.5, True, False, "1", None])
@pytest.mark.parametrize("name", READERS)
def test_a_non_int_index_is_refused(name, index):
    # 2.0 used to compose into a tree that printed leaf "2.0", 1.5 to raise
    # a bare KeyError, and True to read slot or leaf 1
    read, error = READERS[name]
    with pytest.raises(error):
        read(index)


@pytest.mark.parametrize("name", READERS)
def test_an_int_index_is_read(name):
    read, _ = READERS[name]
    assert read(1) is not None and read(2) is not None


C = parse_newick("((1:0,2:0.5):1,3:0.25):0;")

# reader of a permutation of 1..3; each raises PermutationSizeMismatch on a
# bad one
PERM_READERS = {
    "invert_perm": invert_perm,
    "PlanarTree.permute_leaves": corolla(3).permute_leaves,
    "PlanarTree.permute_children": lambda s: corolla(3).permute_children(-1, s),
    "LabelledTree.permute_leaves":
        LabelledTree.make(corolla(3), {-1: 3}).permute_leaves,
    "phylo_act": lambda s: phylo_act(C, s),
    "PHYL.act": lambda s: PHYL.act(C, s),
    "COM.act": lambda s: COM.act(3, s),
    "PLANAR_TREES.act": lambda s: PLANAR_TREES.act(corolla(3), s),
}


@pytest.mark.parametrize("sigma", [
    (True, 2, 3), (2.0, 1.0, 3.0), (2, 1, 3.0), (None, 2, 3), ("2", "1", "3"),
    (1, 1, 3), 5, None,
], ids=repr)
@pytest.mark.parametrize("name", PERM_READERS)
def test_a_non_int_permutation_is_refused(name, sigma):
    # (True, 2, 3), (2.0, 1.0, 3.0) and (2, 1, 3.0) were read as the ints
    # they equal; (None, 2, 3) and 5 ended in a bare TypeError
    with pytest.raises(PermutationSizeMismatch):
        PERM_READERS[name](sigma)


@pytest.mark.parametrize("name", PERM_READERS)
def test_an_int_permutation_is_read(name):
    # each reader reads sigma once, so an iterator is a permutation too
    read = PERM_READERS[name]
    assert read((2, 3, 1)) is not None and read([1, 2, 3]) is not None
    assert read(iter((2, 3, 1))) == read((2, 3, 1))
