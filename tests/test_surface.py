"""Every public name of ``src/phylo`` has a caller outside the tests.

The surface guard reads the sources with ``ast`` and imports nothing but
``phylo``.  A definition is a public module-level name of ``src/phylo`` or
a public method or property of one of its classes; a caller is a read of
that identifier, as a name or an attribute, anywhere in ``src/phylo``,
``perfbench/*.py`` or ``scripts/`` outside the definition's own body.
Raising, catching or subclassing an error class reads its name, so counts.
Identifiers are matched by name alone, so a method counts as called when
any attribute of its name is read; a method that shares its name with one
that has readers needs a check by hand, and ``SHARED`` lists those checked.
Strings count in ``perfbench``, whose traced run patches library names by
string.  A method that overrides one of a base class, such as
``cli._Parser.error``, is called by that base.

The exceptions are the paper's constructions, which only the tests call.
Their one list is the "Public surface" paragraph of README.md.

No library module but the CLI imports a sibling inside a function, where
an import cycle would hide.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "phylo"
CALLERS = [*sorted(LIBRARY.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           *sorted((ROOT / "scripts").rglob("*.py"))]


def definitions() -> dict[str, tuple[Path, ast.AST]]:
    """'module.name' and 'module.Class.method' -> (file, defining node) for
    every public module-level name and public method or property."""
    found = {}
    for path in sorted(LIBRARY.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            found.update((f"{module}.{name}", (path, node))
                         for name in names if not name.startswith("_"))
            if isinstance(node, ast.ClassDef):
                found.update((f"{module}.{node.name}.{item.name}", (path, item))
                             for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return found


def reads() -> dict[str, list[tuple[Path, int]]]:
    """Identifier -> (file, line) of each read of it in the callers."""
    found: dict[str, list[tuple[Path, int]]] = {}
    for path in CALLERS:
        strings = path.parent.name == "perfbench"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                name = node.attr
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            found.setdefault(name, []).append((path, node.lineno))
    return found


def overrides(qualified: str) -> bool:
    """True for a method whose name a base class of its class defines."""
    parts = qualified.split(".")
    if len(parts) != 3:
        return False
    module, cls, method = parts
    owner = getattr(importlib.import_module(f"phylo.{module}"), cls)
    return any(method in vars(base) for base in owner.__mro__[1:])


def allowlist() -> set[str]:
    """The dotted names of the "Public surface" paragraph of README.md."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Public surface\n(.*?)^## ", text, re.S | re.M)
    assert match, "README.md has no '## Public surface' section"
    modules = {path.stem for path in LIBRARY.glob("*.py")}
    return {name for name in re.findall(r"`([\w.]+)`", match.group(1))
            if name.split(".")[0] in modules and "." in name}


def uncalled() -> list[str]:
    found = reads()
    out = []
    for qualified, (path, node) in definitions().items():
        name = qualified.rsplit(".", 1)[1]
        if not any(p != path or not node.lineno <= line <= node.end_lineno
                   for p, line in found.get(name, ())):
            out.append(qualified)
    return sorted(out)


def test_every_public_name_has_a_caller():
    missing = [q for q in uncalled() if q not in allowlist() and not overrides(q)]
    assert missing == []


def test_the_allowlist_names_public_library_names():
    # a removed or renamed construction must leave README's list too
    names = allowlist()
    assert {"operads.COM", "trees.validate", "operads.PHYL"} <= names
    assert sorted(names - set(definitions())) == []


def test_the_guard_tells_called_names_from_uncalled_ones():
    # a called name is not reported, an allowlisted construction is, and
    # the CLI parser's error hook is called by argparse
    assert "operads.normal_form" not in uncalled()
    assert "cli._Parser.error" in uncalled() and overrides("cli._Parser.error")
    assert "trees.corolla" in uncalled() and "trees.corolla" in allowlist()


def shared_method_names() -> set[str]:
    """The public method names that another definition, or a field of a
    class of ``src/phylo``, also has: a read of one is counted for all."""
    fields = set()
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                fields.update(item.target.id for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
    defs = definitions()
    names = [q.rsplit(".", 1)[1] for q in defs]
    methods = {q.rsplit(".", 1)[1] for q in defs if q.count(".") == 2}
    return {m for m in methods if names.count(m) > 1 or m in fields}


# Each shared name, with a caller of each of its methods that is not on the
# allowlist, found by hand.  A method named like an unrelated read passes
# the guard uncalled, so a new shared name fails here until it is checked.
SHARED = {
    "arity": "operads.check_ctree: Operad; BasicOpenSet.__post_init__: PlanarTree",
    "axes": "treespace.neighborhood_contains: BasicOpenSet",
    "canonical": "operads.normal_form: WeightedTree; operads._planar_canon: "
                 "PlanarTree",
    "clusters": "treespace.orthant_of: MetricTree",
    "contract_edges": "operads.normal_form: PlanarTree",
    "graft": "operads.PLANAR_TREES compose: PlanarTree",
    "insert_vertex": "trees.LabelledTree.insert_vertex: PlanarTree",
    "length_map": "operads.normal_form: WeightedTree; coalgebra._evaluate: PhyloTree",
    "make": "coalgebra.duplicate: LeafTensor; markov.limit_operator: "
            "StochasticMatrix; markov.distribution_from_json: Distribution; "
            "operads.from_phylo: WeightedTree; newick.parse_newick: PhyloTree; "
            "operads.ctree: LabelledTree",
    "n": "operads._check_weighted: WeightedTree; markov.simulate_branching: "
         "PhyloTree; operads.counit_equivalent: LabelledTree; "
         "treespace.recompose: MetricTree",
    "permute_children": "trees.LabelledTree.permute_children: PlanarTree",
    "permute_leaves": "operads.phylo_act: PlanarTree",
    "shape": "cli._cmd_topologies: Orthant",
    "size": "coalgebra.LeafTensor.make: StateSpace; coalgebra.evaluate_operator: "
            "MarkovGenerator",
}


def test_every_shared_method_name_was_checked_by_hand():
    assert sorted(shared_method_names()) == sorted(SHARED)


def imports_a_sibling(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "phylo"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "phylo" for alias in node.names)


def test_no_library_module_defers_a_sibling_import():
    # a sibling imported inside a function hides an import cycle; the one
    # exception is the CLI, whose per-command imports keep numpy out of the
    # tree-only commands
    deferred = set()
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "cli.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred.update((path.name, node.lineno) for node in ast.walk(fn)
                                if imports_a_sibling(node))
    assert sorted(deferred) == []
