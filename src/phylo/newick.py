"""Newick reading and writing for phylogenetic trees.

Grammar (whitespace insignificant outside tokens):

    tree    := branch ';'
    branch  := subtree ':' length
    subtree := integer | '(' branch (',' branch)+ ')'
    length  := decimal | 'inf'

Leaves are the integers 1..n, each exactly once; interior vertices are
anonymous and at least binary by the grammar.  Serialization emits the
canonical child order with shortest round-tripping decimals, so it is
constant on isomorphism classes and byte-stable under re-parsing.
"""

from __future__ import annotations

import math
import re

from .operads import PhyloTree
from .trees import PhyloError, PlanarTree, _freeze


class NewickError(PhyloError):
    pass


class NewickSyntaxError(NewickError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LeafLabelError(NewickError):
    pass


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|inf")
_INT = re.compile(r"\d+")
_DELIMITERS = re.compile(r"([(),:;])")
# what each parser state was waiting for, as the error message names it
_EXPECTED = {
    "subtree": "expected a leaf number or '('",
    "colon": "expected ':'",
    "length": "expected a branch length",
    "next": "expected ')'",
    "last": "expected ';'",
    "end": "trailing characters after ';'",
}


def parse_newick(text: str, allow_infinite: bool = False) -> PhyloTree:
    """Parse one Newick tree.  Raises NewickSyntaxError (with a position),
    LeafLabelError, or PhyloInvariantError.  One loop reads the tokens with
    a stack of open groups, so any depth parses; vertices are numbered -1,
    -2, ... as their groups close."""
    kids: dict[int, tuple[int, ...]] = {}
    lengths: dict[int, float] = {}
    leaves: list[int] = []
    groups: list[list[int]] = []
    node, state, pos = 0, "subtree", 0
    # a leaf number is at most the leaf count, which is below len(text)
    most_digits = len(str(len(text)))
    for piece in _DELIMITERS.split(text):
        tok = piece.strip()
        at = pos + len(piece) - len(piece.lstrip())
        pos += len(piece)
        if not tok:
            continue
        if state == "subtree" and tok == "(":
            groups.append([])
        elif state == "subtree" and _INT.fullmatch(tok):
            node = (int(tok) if len(tok) <= most_digits
                    else _long_label(tok, most_digits))
            leaves.append(node)
            state = "colon"
        elif state == "colon" and tok == ":":
            state = "length"
        elif state == "length" and _NUMBER.fullmatch(tok):
            if tok == "inf" and not allow_infinite:
                raise NewickSyntaxError("'inf' lengths are not accepted here", at)
            lengths[node] = float(tok)
            state = "next" if groups else "last"
        elif state == "next" and tok == ",":
            groups[-1].append(node)
            state = "subtree"
        elif state == "next" and tok == ")":
            children = groups.pop() + [node]
            if len(children) < 2:
                raise NewickSyntaxError(
                    "interior vertices need at least two children", at)
            node = -len(kids) - 1
            kids[node] = tuple(children)
            state = "colon"
        elif state == "last" and tok == ";":
            state = "end"
        else:
            raise NewickSyntaxError(_EXPECTED[state], at)
    if state != "end":
        raise NewickSyntaxError(_EXPECTED[state], len(text))
    n = len(leaves)
    if sorted(leaves) != list(range(1, n + 1)):
        raise LeafLabelError(
            f"leaf labels must be exactly 1..{n}, got {sorted(leaves)}")
    shape = PlanarTree(n, node, _freeze(kids))
    return PhyloTree.make(shape, lengths, extended=allow_infinite)


def _long_label(tok: str, most_digits: int) -> int:
    """The number of a leaf label longer than any leaf number: its leading
    zeros dropped, in any script (a decimal digit's zero is its code point
    less its value), or LeafLabelError when more than ``most_digits``
    digits are left."""
    zeros = "".join({chr(ord(c) - int(c)) for c in set(tok)})
    digits = tok.lstrip(zeros)
    if len(digits) > most_digits:
        raise LeafLabelError(
            f"leaf label of {len(digits)} digits exceeds every leaf number")
    return int(digits or "0")


def format_length(x: float) -> str:
    if math.isinf(x):
        return "inf"
    r = repr(float(x))
    return r[:-2] if r.endswith(".0") else r


def serialize_newick(t: PhyloTree) -> str:
    """Canonical Newick text: isomorphic trees serialize identically and the
    output re-parses to an equal tree."""

    def render(node: int) -> str:
        tail = ":" + format_length(t.length(node))
        if node > 0:
            return str(node) + tail
        inner = ",".join(render(c) for c in t.shape.child_map[node])
        return "(" + inner + ")" + tail

    return render(t.shape.root) + ";"
