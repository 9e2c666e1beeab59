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
from typing import NoReturn

from .operads import PhyloTree
from .trees import PhyloError, _derived


class NewickError(PhyloError):
    pass


class NewickSyntaxError(NewickError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LeafLabelError(NewickError):
    pass


_LENGTH = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|inf"
_NUMBER = re.compile(_LENGTH)
_INT = re.compile(r"\d+")
# One edge: the groups it opens and its leaf number, or the ')' that closes
# a group; then ':', the length and what follows: ',' or ';', or a ')' left
# for the next edge to read.
_EDGE = re.compile(r"\s*(?:((?:\(\s*)*)(\d+)|(\)))\s*:\s*(" + _LENGTH
                   + r")\s*(?:([,;])|(?=\)))")
_DELIMITER = re.compile(r"[(),:;]")
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
    LeafLabelError, or PhyloInvariantError.  One regex match reads each
    edge, and a stack of open groups nests them, so any depth parses;
    vertices are numbered -1, -2, ... as their groups close.  An edge the
    pattern rejects, or one that breaks a rule the pattern cannot see,
    goes to ``_diagnose``, which names the error."""
    kids: list[tuple[int, tuple[int, ...]]] = []
    lengths: dict[int, float] = {}
    leaves: list[int] = []
    groups: list[list[int]] = []
    # a leaf number is at most the leaf count, which is below len(text)
    most_digits = len(str(len(text)))
    edge = _EDGE.match
    pos, closing, node = 0, False, 0
    while True:
        m = edge(text, pos)
        if m is None:
            _diagnose(text, pos, closing, groups, allow_infinite, most_digits)
        opens, leaf, close, length, sep = m.groups()
        # an edge must fit the text before it: a ')' only where the last
        # edge left one (the leaf branch cannot match there) and closing a
        # group that holds a child already, ';' only at depth 0 and ',' or
        # ')' only inside a group
        if close:
            fits = closing and groups[-1] and (sep == ";") == (len(groups) == 1)
        else:
            fits = (sep == ";") == (not groups and not opens)
        if not fits or (length == "inf" and not allow_infinite):
            _diagnose(text, pos, closing, groups, allow_infinite, most_digits)
        if close:
            children = groups.pop()
            children.append(node)
            node = -len(kids) - 1
            kids.append((node, tuple(children)))
        else:
            if opens:
                groups += [[] for _ in range(opens.count("("))]
            node = (int(leaf) if len(leaf) <= most_digits
                    else _long_label(leaf, most_digits))
            leaves.append(node)
        lengths[node] = float(length)
        pos = m.end()
        if sep == ",":
            groups[-1].append(node)
            closing = False
        elif sep:
            break
        else:
            closing = True
    rest = text[pos:].lstrip()
    if rest:
        raise NewickSyntaxError(_EXPECTED["end"], len(text) - len(rest))
    n = len(leaves)
    if sorted(leaves) != list(range(1, n + 1)):
        raise LeafLabelError(
            f"leaf labels must be exactly 1..{n}, got {sorted(leaves)}")
    # the grammar made every node but the root one vertex's child and the
    # check above made the leaves 1..n, so the shape is a valid tree; ids
    # were given as groups closed, so reversed they ascend
    shape = _derived(n, node, tuple(reversed(kids)))
    return PhyloTree.make(shape, lengths, extended=allow_infinite)


def _diagnose(text: str, pos: int, closing: bool, groups: list[list[int]],
              allow_infinite: bool, most_digits: int) -> NoReturn:
    """Raise the error of the edge at ``pos``, which ``_EDGE`` rejected or
    which does not fit the text before it.  The token rules run from the
    edge's start, with the open groups as the accepted text left them:
    tokens are the delimiters ( ) , : ; and the stripped text between them,
    and the first token that does not fit names the error and its
    position."""
    state = "next" if closing else "subtree"
    while True:
        d = _DELIMITER.search(text, pos)
        stop = d.start() if d else len(text)
        piece = text[pos:stop]
        tok = piece.strip()
        if tok:
            at = pos + len(piece) - len(piece.lstrip())
        elif d:
            tok, at, stop = d.group(), stop, stop + 1
        else:
            raise NewickSyntaxError(_EXPECTED[state], len(text))
        pos = stop
        if state == "subtree" and tok == "(":
            groups.append([])
        elif state == "subtree" and _INT.fullmatch(tok):
            if len(tok) > most_digits:
                _long_label(tok, most_digits)
            state = "colon"
        elif state == "colon" and tok == ":":
            state = "length"
        elif state == "length" and _NUMBER.fullmatch(tok):
            if tok == "inf" and not allow_infinite:
                raise NewickSyntaxError("'inf' lengths are not accepted here", at)
            state = "next" if groups else "last"
        elif state == "next" and tok == ",":
            groups[-1].append(0)  # only how many children a group has counts
            state = "subtree"
        elif state == "next" and tok == ")":
            if len(groups.pop()) < 1:
                raise NewickSyntaxError(
                    "interior vertices need at least two children", at)
            state = "colon"
        elif state == "last" and tok == ";":
            state = "end"
        else:
            raise NewickSyntaxError(_EXPECTED[state], at)


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
    """Canonical Newick text: trees of one isomorphism class serialize
    identically and the output re-parses to an equal tree."""

    def render(node: int) -> str:
        tail = ":" + format_length(t.length(node))
        if node > 0:
            return str(node) + tail
        inner = ",".join(render(c) for c in t.shape.child_map[node])
        return "(" + inner + ")" + tail

    return render(t.shape.root) + ";"
