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


class _Parser:
    def __init__(self, text: str, allow_infinite: bool):
        self.text = text
        self.pos = 0
        self.allow_infinite = allow_infinite
        self.kids: dict[int, tuple[int, ...]] = {}
        self.lengths: dict[int, float] = {}
        self.leaves: list[int] = []
        self.next_vertex = -1

    def error(self, message: str) -> NewickSyntaxError:
        return NewickSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_length(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise self.error("expected a branch length")
        tok = m.group(0)
        self.pos = m.end()
        if tok == "inf":
            if not self.allow_infinite:
                raise self.error("'inf' lengths are not accepted here")
            return math.inf
        return float(tok)

    def parse_branch(self) -> int:
        node = self.parse_subtree()
        self.expect(":")
        self.lengths[node] = self.parse_length()
        return node

    def parse_subtree(self) -> int:
        if self.peek() == "(":
            self.pos += 1
            children = [self.parse_branch()]
            while self.peek() == ",":
                self.pos += 1
                children.append(self.parse_branch())
            self.expect(")")
            if len(children) < 2:
                raise self.error("interior vertices need at least two children")
            v = self.next_vertex
            self.next_vertex -= 1
            self.kids[v] = tuple(children)
            return v
        self.skip_ws()
        m = _INT.match(self.text, self.pos)
        if not m:
            raise self.error("expected a leaf number or '('")
        self.pos = m.end()
        leaf = int(m.group(0))
        self.leaves.append(leaf)
        return leaf

    def parse(self) -> PhyloTree:
        root = self.parse_branch()
        self.expect(";")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing characters after ';'")
        n = len(self.leaves)
        if sorted(self.leaves) != list(range(1, n + 1)):
            raise LeafLabelError(
                f"leaf labels must be exactly 1..{n}, got {sorted(self.leaves)}")
        shape = PlanarTree(n, root, _freeze(self.kids))
        return PhyloTree.make(shape, self.lengths,
                              extended=self.allow_infinite)


def parse_newick(text: str, allow_infinite: bool = False) -> PhyloTree:
    """Parse one Newick tree.  Raises NewickSyntaxError (with a position),
    LeafLabelError, or PhyloInvariantError."""
    return _Parser(text, allow_infinite).parse()


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
