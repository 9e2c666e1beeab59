import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import phylo
from conftest import balanced_newick, caterpillar_newick
from phylo.cli import main
from phylo.markov import expm, validate_generator
from phylo.newick import parse_newick
from phylo.trees import PhyloError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def flip_model(tmp_path):
    return write(tmp_path, "H.json",
                 json.dumps({"states": ["a", "b"],
                             "rows": [[-1.0, 1.0], [1.0, -1.0]]}))


@pytest.fixture
def uniform_root(tmp_path):
    return write(tmp_path, "f.json",
                 json.dumps({"states": ["a", "b"], "p": [0.5, 0.5]}))


class TestTreeCommands:
    def test_validate_ok(self, capsys, tmp_path):
        path = write(tmp_path, "t.nwk", "((1:0,2:0):1.5,3:0.25):0;")
        code, out, err = run(capsys, "validate", path)
        assert code == 0
        assert json.loads(out) == {"valid": True, "n": 3, "internal_edges": 1}

    def test_validate_bad_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, "t.nwk", "(1:0,1:0):0;")
        code, out, err = run(capsys, "validate", path)
        assert code == 1 and "error" in err

    def test_canon_idempotent_and_deterministic(self, capsys, tmp_path):
        path = write(tmp_path, "t.nwk", "( 3:0.25 , (2:0,1:0):1.5 ) : 0;")
        code, out1, _ = run(capsys, "canon", path)
        assert code == 0
        path2 = write(tmp_path, "t2.nwk", out1.strip())
        _, out2, _ = run(capsys, "canon", path2)
        assert out1 == out2

    def test_compose_zero_corollas(self, capsys, tmp_path):
        a = write(tmp_path, "a.nwk", "(1:0,2:0):0;")
        code, out, _ = run(capsys, "compose", "--at", "1", a, a)
        assert code == 0
        assert parse_newick(out.strip()).n == 3
        assert out.strip() == "(1:0,2:0,3:0):0;"

    def test_act(self, capsys, tmp_path):
        path = write(tmp_path, "t.nwk", "((1:0,2:0):1.5,3:0.25):0;")
        code, out, _ = run(capsys, "act", "--perm", "2,3,1", path)
        assert code == 0
        t = parse_newick(out.strip())
        assert t == parse_newick("((3:0,1:0):1.5,2:0.25):0;")

    def test_reduce(self, capsys, tmp_path):
        doc = {"children": [
            {"children": [{"leaf": 1, "length": 0.5}], "length": 0.25},
            {"leaf": 2, "length": 0.0},
        ], "length": 0.0}
        path = write(tmp_path, "w.json", json.dumps(doc))
        code, out, _ = run(capsys, "reduce", path)
        assert code == 0
        assert parse_newick(out.strip()) == parse_newick("(1:0.75,2:0):0;")
        assert out.strip() == "(2:0,1:0.75):0;"

    def test_decompose_recompose_round_trip(self, capsys, tmp_path):
        text = "((1:0.5,2:0):1.5,3:0.25):0.125;"
        path = write(tmp_path, "t.nwk", text)
        code, out, _ = run(capsys, "decompose", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["external"] == [0.125, 0.5, 0.0, 0.25]
        fpath = write(tmp_path, "f.json", json.dumps(doc))
        code, out2, _ = run(capsys, "recompose", fpath)
        assert code == 0
        assert parse_newick(out2.strip()) == parse_newick(text)

    def test_wcheck(self, capsys, tmp_path):
        yes = write(tmp_path, "y.nwk", "(1:inf,2:inf):inf;")
        no = write(tmp_path, "n.nwk", "(1:inf,2:0):inf;")
        assert json.loads(run(capsys, "wcheck", yes)[1]) == {"w_member": True}
        assert json.loads(run(capsys, "wcheck", no)[1]) == {"w_member": False}

    def test_inf_rejected_outside_wcheck(self, capsys, tmp_path):
        path = write(tmp_path, "t.nwk", "1:inf;")
        code, _, err = run(capsys, "canon", path)
        assert code == 1


class TestSpaceCommands:
    def test_topologies_four(self, capsys):
        code, out, _ = run(capsys, "topologies", "--n", "4")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 15
        assert len(doc["topologies"]) == 15
        assert "((1,2),(3,4))" in doc["topologies"]

    def test_topologies_overflow(self, capsys):
        code, _, err = run(capsys, "topologies", "--n", "9")
        assert code == 1

    def test_dist(self, capsys, tmp_path):
        x = write(tmp_path, "x.nwk", "((1:0,2:0):1,(3:0,4:0):1):0;")
        y = write(tmp_path, "y.nwk", "((1:0,2:0):0.5,(3:0,4:0):1):0;")
        code, out, _ = run(capsys, "dist", "--mode", "exact4", x, y)
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(0.5)

    def test_dist_requires_metric_tree(self, capsys, tmp_path):
        x = write(tmp_path, "x.nwk", "((1:0.5,2:0):1,(3:0,4:0):1):0;")
        code, _, err = run(capsys, "dist", "--mode", "cone", x, x)
        assert code == 1


class TestModelCommands:
    def test_jc(self, capsys):
        code, out, _ = run(capsys, "jc", "--mu", "1.0", "--k", "4")
        doc = json.loads(out)
        assert doc["states"] == ["A", "T", "C", "G"]
        assert doc["rows"][0][0] == -3.0 and doc["rows"][0][1] == 1.0

    def test_limit(self, capsys, tmp_path):
        model = write(tmp_path, "H.json", json.dumps(
            {"states": list("ATCG"),
             "rows": [[-3.0 if i == j else 1.0 for j in range(4)]
                      for i in range(4)]}))
        code, out, _ = run(capsys, "limit", "--model", model)
        doc = json.loads(out)
        assert np.abs(np.array(doc["rows"]) - 0.25).max() < 1e-8

    def test_evaluate_matches_oracle(self, capsys, tmp_path, flip_model,
                                     uniform_root):
        tree = write(tmp_path, "t.nwk", "(1:1,2:0.5):0.2;")
        code, out, _ = run(capsys, "evaluate", "--model", flip_model,
                           "--root", uniform_root, tree)
        assert code == 0
        doc = json.loads(out)
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]], ("a", "b"))
        ma, mb = expm(g, 1.0).M, expm(g, 0.5).M
        w = expm(g, 0.2).M @ np.array([0.5, 0.5])
        want = np.einsum("ix,jx,x->ij", ma, mb, w).reshape(-1)
        assert np.abs(np.array(doc["data"]) - want).max() < 1e-12

    def test_evaluate_extended(self, capsys, tmp_path, flip_model,
                               uniform_root):
        tree = write(tmp_path, "t.nwk", "1:inf;")
        code, out, _ = run(capsys, "evaluate", "--model", flip_model,
                           "--root", uniform_root, "--extended", tree)
        assert code == 0
        assert np.allclose(json.loads(out)["data"], [0.5, 0.5], atol=1e-8)
        code, _, _ = run(capsys, "evaluate", "--model", flip_model,
                         "--root", uniform_root, tree)
        assert code == 1

    def test_wide_vertex_under_address_space_limit(self, tmp_path):
        # 600 states at a 2-leaf vertex: the output has 600**2 entries, a
        # product tensor of the child edges would need 1.61 GiB
        resource = pytest.importorskip("resource")
        s = 600
        labels = [f"S{i}" for i in range(s)]
        rows = [[1.0 - s * (i == j) for j in range(s)] for i in range(s)]
        write(tmp_path, "H.json", json.dumps({"states": labels, "rows": rows}))
        write(tmp_path, "f.json", json.dumps({"states": labels, "p": [1 / s] * s}))
        write(tmp_path, "t.nwk", "(1:0.1,2:0.1):0.1;")

        def limit():
            cap = 1_500_000 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        # one BLAS thread keeps the address space independent of the cores
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "phylo.cli", "evaluate", "--model", "H.json",
             "--root", "f.json", "t.nwk"], cwd=tmp_path, env=env,
            preexec_fn=limit, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["n"] == 2 and len(doc["data"]) == s * s
        assert abs(math.fsum(doc["data"]) - 1.0) < 1e-10

    def test_simulate_deterministic(self, capsys, tmp_path, flip_model,
                                    uniform_root):
        tree = write(tmp_path, "t.nwk", "(1:1,2:0.5):0.2;")
        args = ("simulate", "--model", flip_model, "--root", uniform_root,
                "--seed", "42", "--samples", "500", tree)
        code, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert code == 0 and out1 == out2
        doc = json.loads(out1)
        assert sum(doc["counts"]) == 500


class TestErrorChannels:
    def test_exit_three_on_nonconvergence(self, capsys, tmp_path, monkeypatch,
                                          flip_model):
        from phylo import markov

        def boom(g):
            raise markov.NoConvergence("stuck")

        monkeypatch.setattr(markov, "limit_operator", boom)
        code, _, err = run(capsys, "limit", "--model", flip_model)
        assert code == 3 and "stuck" in err

    def test_exit_two_on_internal_error(self, capsys, tmp_path, monkeypatch,
                                        flip_model):
        from phylo import markov

        for error in (RuntimeError, KeyError):  # a stray KeyError is a bug too
            def boom(g):
                raise error("bug")

            monkeypatch.setattr(markov, "limit_operator", boom)
            code, _, err = run(capsys, "limit", "--model", flip_model)
            assert code == 2 and "internal error" in err

    def test_every_error_class_is_a_phylo_error(self):
        classes = []
        for info in pkgutil.iter_modules(phylo.__path__):
            module = importlib.import_module(f"phylo.{info.name}")
            classes += [c for _, c in inspect.getmembers(module, inspect.isclass)
                        if issubclass(c, BaseException)
                        and c.__module__ == module.__name__]
        assert [c for c in classes if not issubclass(c, PhyloError)] == []
        assert issubclass(PhyloError, ValueError)
        assert {c.__name__ for c in classes if c.exit_code != 1} == {"NoConvergence"}


class TestOneLeafAndBadInputs:
    def test_decompose_recompose_single_leaf(self, capsys, tmp_path):
        path = write(tmp_path, "t.nwk", "1:2.5;")
        code, out, _ = run(capsys, "decompose", path)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"metric": "1:0;", "external": [2.5]}
        fpath = write(tmp_path, "f.json", json.dumps(doc))
        code, out2, _ = run(capsys, "recompose", fpath)
        assert code == 0 and out2.strip() == "1:2.5;"

    def test_reduce_bad_json_exit_one(self, capsys, tmp_path):
        path = write(tmp_path, "w.json", "{not json")
        assert run(capsys, "reduce", path)[0] == 1

    def test_recompose_missing_key_exit_one(self, capsys, tmp_path):
        path = write(tmp_path, "f.json", json.dumps({"external": [1.0]}))
        assert run(capsys, "recompose", path)[0] == 1

    def test_missing_file_exit_one(self, capsys):
        assert run(capsys, "canon", "/nonexistent/tree.nwk")[0] == 1

    def test_perm_garbage_exit_one(self, capsys, tmp_path):
        path = write(tmp_path, "t.nwk", "(1:0,2:0):0;")
        assert run(capsys, "act", "--perm", "a,b", path)[0] == 1


@pytest.mark.parametrize("argv, message", [
    (["topologies", "--n", "abc"], "invalid int value: 'abc'"),
    (["compose", "a.nwk", "b.nwk"], "the following arguments are required: --at"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
], ids=["bad-int", "missing-flag", "unknown-command"])
def test_usage_errors_exit_one(capsys, argv, message):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    err = capsys.readouterr().err
    assert stop.value.code == 1
    assert err.startswith("usage: phylo") and message in err


@pytest.mark.parametrize("argv", [["--help"], ["canon", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0 and "usage: phylo" in capsys.readouterr().out


def exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


TREE = "(1:1,2:0.5):0.2;"
FLIP_DOC = {"states": ["a", "b"], "rows": [[-1.0, 1.0], [1.0, -1.0]]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=10)
numbers = st.integers() | st.floats()
state_names = json_values | st.just(["a", "b"])


class TestMalformedModelInputs:
    @pytest.mark.parametrize("rows", [
        [[math.nan, 1.0], [1.0, -1.0]],
        [[-math.inf, 1.0], [math.inf, -1.0]],
        [[-math.inf, math.inf], [math.inf, -math.inf]],
    ])
    def test_non_finite_model_exit_one(self, tmp_path, uniform_root, rows):
        model = write(tmp_path, "H.json",
                      json.dumps({"states": ["a", "b"], "rows": rows}))
        tree = write(tmp_path, "t.nwk", TREE)
        assert exit_code("limit", "--model", model) == 1
        assert exit_code("evaluate", "--model", model, "--root", uniform_root,
                         tree) == 1

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_nan_root_exit_one(self, capsys, tmp_path, flip_model, command):
        root = write(tmp_path, "f.json",
                     json.dumps({"states": ["a", "b"], "p": [math.nan, 1.0]}))
        tree = write(tmp_path, "t.nwk", TREE)
        extra = ["--seed", "1", "--samples", "10"] if command == "simulate" else []
        code, out, _ = run(capsys, command, "--model", flip_model, "--root", root,
                           *extra, tree)
        assert code == 1 and out == ""

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"states": ["a"], "rows": [["x"]]},
        {"states": ["a", "b"], "rows": [[-1.0, 1.0], [1.0]]},
        {"states": [["a"], "b"], "rows": [[-1.0, 1.0], [1.0, -1.0]]},
        {"rows": [[0.0]]},
    ])
    def test_malformed_model_exit_one(self, tmp_path, doc):
        model = write(tmp_path, "H.json", json.dumps(doc))
        assert exit_code("limit", "--model", model) == 1

    @pytest.mark.parametrize("doc", [
        {"metric": "(1:0,2:0):0;", "external": 5},
        {"metric": "(1:0,2:0):0;", "external": "123"},
        {"metric": "(1:0,2:0):0;", "external": [True, "0.5", 1]},
        {"metric": "(1:0,2:0):0;", "external": [0, 0.5, "1"]},
        {"metric": "(1:0,2:0):0;", "external": {"0": 0, "1": 0, "2": 0}},
        {"metric": "(1:0,2:0):0;", "external": [0, 0, 10 ** 400]},
        {"metric": ["(1:0,2:0):0;"], "external": [0, 0, 0]},
        [["metric", "(1:0,2:0):0;"], ["external", [0, 0, 0]]],
    ], ids=["non-list", "string", "bool-and-string", "string-entry", "object",
            "too-large", "non-string-metric", "non-object"])
    def test_malformed_factors_exit_one(self, capsys, tmp_path, doc):
        code, out, _ = run(capsys, "recompose", write(tmp_path, "f.json", json.dumps(doc)))
        assert code == 1 and out == ""

    def test_simulate_size_cap_exit_one(self, capsys, tmp_path):
        model = write(tmp_path, "H.json", json.dumps({
            "states": list("ATCG"),
            "rows": [[-3.0 if i == j else 1.0 for j in range(4)] for i in range(4)]}))
        root = write(tmp_path, "f.json",
                     json.dumps({"states": list("ATCG"), "p": [0.25] * 4}))
        tree = write(tmp_path, "t.nwk",
                     "(" + ",".join(f"{j}:0.5" for j in range(1, 15)) + "):0;")
        code, _, err = run(capsys, "simulate", "--model", model, "--root", root,
                           "--seed", "1", "--samples", "1", tree)
        assert code == 1 and "cap" in err

    @pytest.mark.parametrize("argv", [
        "jc --mu 1 --k 100000",
        "simulate --seed 1 --samples 1000000000 {tree}",
        "simulate --seed 1 --samples 5 {huge}",
        "simulate --seed -1 --samples 5 {tree}",
    ])
    def test_oversized_request_exit_one(self, capsys, tmp_path, flip_model,
                                        uniform_root, argv):
        paths = {"tree": write(tmp_path, "t.nwk", TREE),
                 "huge": write(tmp_path, "h.nwk", "(1:1e308,2:1e308):1e308;")}
        argv = [a.format(**paths) for a in argv.split()]
        if argv[0] == "simulate":
            argv[1:1] = ["--model", flip_model, "--root", uniform_root]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: ")

    @given(json_values | st.fixed_dictionaries({
        "states": state_names,
        "rows": json_values | st.lists(st.lists(numbers, max_size=3), max_size=3)}))
    def test_any_model_json_exits_zero_or_one(self, doc):
        with tempfile.TemporaryDirectory() as d:
            model = write(Path(d), "H.json", json.dumps(doc))
            assert exit_code("limit", "--model", model) in (0, 1)

    @given(json_values | st.fixed_dictionaries({
        "states": state_names,
        "p": json_values | st.lists(numbers, max_size=3)}))
    def test_any_root_json_exits_zero_or_one(self, doc):
        with tempfile.TemporaryDirectory() as d:
            model = write(Path(d), "H.json", json.dumps(FLIP_DOC))
            root = write(Path(d), "f.json", json.dumps(doc))
            tree = write(Path(d), "t.nwk", TREE)
            assert exit_code("evaluate", "--model", model, "--root", root,
                             tree) in (0, 1)


def unary_chain(depth: int) -> str:
    """Leaf 1 (length 0.5) under ``depth`` unary vertices of length 0.25."""
    return ('{"children": [' * depth + '{"leaf": 1, "length": 0.5}'
            + '], "length": 0.25}' * depth)


tree_json = st.recursive(
    st.fixed_dictionaries({"leaf": json_values | st.integers(1, 3),
                           "length": json_values | numbers}),
    lambda inner: st.fixed_dictionaries({
        "children": json_values | st.lists(inner, max_size=3),
        "length": json_values | numbers}),
    max_leaves=6)


class TestMalformedTreeInputs:
    @pytest.mark.parametrize("doc", [
        {"leaf": "x", "length": 0},
        {"leaf": 1.0, "length": 0},
        {"leaf": True, "length": 0},
        {"children": 5, "length": 0},
        {"leaf": 1, "length": "0.5"},
        {"leaf": 1, "length": None},
        {"leaf": 1, "length": 10 ** 400},
        {"children": [{"leaf": 1, "length": 0}, {"leaf": 1, "length": 0}],
         "length": 0},
        {"leaf": 1, "length": math.inf},
        {"leaf": 1, "length": math.nan},
        {"children": [{"leaf": 1, "length": math.inf}, {"leaf": 2, "length": 0}],
         "length": 0},
        {"children": [{"leaf": 1, "length": 0}, {"leaf": 2, "length": math.nan}],
         "length": 0},
    ])
    def test_malformed_reduce_exit_one(self, capsys, tmp_path, doc):
        code, out, err = run(capsys, "reduce",
                             write(tmp_path, "w.json", json.dumps(doc)))
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("length", [math.inf, math.nan, True, "1"])
    @pytest.mark.parametrize("metric, rest", [("1:0;", []),
                                              ("(1:0,2:0):0;", [0.5, 0.5])],
                             ids=["1-leaf", "2-leaf"])
    def test_recompose_non_length_exit_one(self, capsys, tmp_path, length,
                                           metric, rest):
        doc = {"metric": metric, "external": [length, *rest]}
        code, out, err = run(capsys, "recompose",
                             write(tmp_path, "f.json", json.dumps(doc)))
        assert code == 1 and out == "" and err.startswith("error:")

    def test_compose_whose_graft_sums_to_inf_exit_one(self, capsys, tmp_path):
        outer = write(tmp_path, "o.nwk", "(1:1e308,2:0):0;")
        inner = write(tmp_path, "i.nwk", "1:1e308;")
        code, out, err = run(capsys, "compose", "--at", "1", outer, inner)
        assert code == 1 and out == "" and err.startswith("error:")

    @given(json_values | tree_json)
    def test_any_reduce_json_exits_zero_or_one(self, doc):
        with tempfile.TemporaryDirectory() as d:
            path = write(Path(d), "w.json", json.dumps(doc))
            assert exit_code("reduce", path) in (0, 1)

    def test_deep_unary_chain_reduces(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reduce",
                           write(tmp_path, "w.json", unary_chain(300)))
        assert code == 0 and out == "1:75.5;\n"

    def test_too_deep_json_exit_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "reduce",
                             write(tmp_path, "w.json", unary_chain(5000)))
        assert code == 1 and out == "" and "nested too deeply" in err

    @pytest.mark.parametrize("command, doc", [
        (("reduce",), '{"leaf": ' + "1" * 5000 + ', "length": 0}'),
        (("limit", "--model"), "[" + "1" * 5000 + "]"),
    ], ids=["reduce", "limit"])
    def test_overlong_json_integer_exit_one(self, capsys, tmp_path, command, doc):
        # more digits than Python converts to int by default
        code, out, err = run(capsys, *command, write(tmp_path, "d.json", doc))
        assert (code, out) == (1, "") and "too many digits" in err

    def test_undecodable_bytes_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xff\xfe(1:0,2:0):0;")
        assert run(capsys, "canon", str(path))[0] == 1
        assert run(capsys, "limit", "--model", str(path))[0] == 1


NEWICK_CHARS = st.sampled_from("(),:;.0123456789eE+-inf \t\n")
newick_junk = st.text(NEWICK_CHARS | st.characters(blacklist_categories=("Cs",)),
                      max_size=30)
newick_texts = newick_junk | st.builds(
    lambda tree, k, junk: tree[:k] + junk + tree[k:],
    st.sampled_from([TREE, "((1:0,2:0):1.5,3:0.25):0;", "1:inf;"]),
    st.integers(0, 25), newick_junk)


class TestNewickInputs:
    @given(newick_texts)
    def test_any_tree_text_exits_zero_or_one(self, text):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.nwk"
            path.write_text(text, encoding="utf-8")
            assert exit_code("validate", str(path)) in (0, 1)
            assert exit_code("canon", str(path)) in (0, 1)

    # each call took about 0.1 s on a 2-vCPU x86-64 host
    @pytest.mark.parametrize("text", [caterpillar_newick(4999), balanced_newick(5000)],
                             ids=["caterpillar", "balanced"])
    def test_validate_5000_leaves(self, capsys, tmp_path, text):
        path = write(tmp_path, "t.nwk", text)
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "validate", path)
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        assert json.loads(out) == {"valid": True, "n": 5000, "internal_edges": 4998}

    def test_balanced_round_trips_through_canon(self, capsys, tmp_path):
        text = balanced_newick(5000)
        code, out, _ = run(capsys, "canon", write(tmp_path, "t.nwk", text))
        assert code == 0 and parse_newick(out) == parse_newick(text)
        assert run(capsys, "canon", write(tmp_path, "c.nwk", out)) == (0, out, "")

    @pytest.mark.parametrize("command", ["validate", "canon"])
    def test_overlong_leaf_label_exit_one(self, capsys, tmp_path, command):
        # more digits than Python converts to int by default
        path = write(tmp_path, "t.nwk", "(" + "1" * 5000 + ":0,2:0):0;")
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, "") and "leaf label" in err

    @pytest.mark.xfail(strict=True, reason="serialize_newick recurses once per "
                       "nesting level, so writing a 5000-deep tree exits 2")
    def test_caterpillar_round_trips_through_canon(self, capsys, tmp_path):
        text = caterpillar_newick(4999)
        code, out, _ = run(capsys, "canon", write(tmp_path, "t.nwk", text))
        assert code == 0 and parse_newick(out) == parse_newick(text)


# -- import boundary ----------------------------------------------------------

SRC = Path(phylo.__file__).resolve().parent.parent
# dataclasses pulls in inspect, ast, dis and tokenize: a cost on every call
WATCHED = ("numpy", "phylo.markov", "phylo.coalgebra", "phylo.treespace",
           "dataclasses", "inspect")
METRIC = "((1:0,2:0):1,(3:0,4:0):1):0;"


def modules_after(code: str, *argv: str, cwd=None,
                  watched: tuple[str, ...] = WATCHED) -> set[str]:
    """The modules in ``watched`` that ``code`` loads in a fresh interpreter."""
    probe = code + f"\nprint(' '.join(m for m in {watched!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_phylo_loads_no_numpy():
    assert modules_after("import sys, phylo") == set()


def test_no_layer_imports_dataclasses():
    code = "import sys, phylo.markov, phylo.coalgebra, phylo.treespace, phylo.sampling"
    assert modules_after(code, watched=("dataclasses",)) == set()


@pytest.mark.parametrize("argv, tree_space", [
    ("validate m.nwk", False),
    ("canon m.nwk", False),
    ("compose --at 1 m.nwk m.nwk", False),
    ("act --perm 2,1,3,4 m.nwk", False),
    ("reduce w.json", False),
    ("decompose m.nwk", True),
    ("recompose f.json", True),
    ("topologies --n 4", True),
    ("dist m.nwk m.nwk", True),
], ids=lambda v: v.split()[0] if isinstance(v, str) else None)
def test_tree_only_commands_skip_numpy(tmp_path, argv, tree_space):
    write(tmp_path, "m.nwk", METRIC)
    write(tmp_path, "w.json", json.dumps(
        {"children": [{"leaf": 1, "length": 0.5}, {"leaf": 2, "length": 0}],
         "length": 0}))
    write(tmp_path, "f.json", json.dumps({"metric": METRIC, "external": [0.0] * 5}))
    loaded = modules_after("import sys\nfrom phylo.cli import main\n"
                           "assert main(sys.argv[1:]) == 0",
                           *argv.split(), cwd=tmp_path)
    assert loaded == ({"phylo.treespace"} if tree_space else set())


@pytest.mark.parametrize("argv", [
    "evaluate --model H.json --root f.json m.nwk",
    "limit --model H.json",
    "jc --mu 1 --k 4",
], ids=lambda v: v.split()[0])
def test_model_commands_skip_scipy(tmp_path, argv):
    # scipy is a test-only oracle; the runtime must not reach for it
    write(tmp_path, "m.nwk", METRIC)
    write(tmp_path, "H.json", json.dumps(
        {"states": ["a", "b"], "rows": [[-1.0, 1.0], [1.0, -1.0]]}))
    write(tmp_path, "f.json", json.dumps({"states": ["a", "b"], "p": [0.5, 0.5]}))
    loaded = modules_after("import sys\nfrom phylo.cli import main\n"
                           "assert main(sys.argv[1:]) == 0",
                           *argv.split(), cwd=tmp_path, watched=("numpy", "scipy"))
    assert loaded == {"numpy"}


def test_traced_benchmark_patches_existing_names():
    # perfbench/spans.py wraps library functions and methods by name, so a
    # deleted or renamed one must fail here and not only in a traced run
    code = ("import importlib, pkgutil, phylo, spans\n"
            "for info in pkgutil.iter_modules(phylo.__path__):\n"
            "    importlib.import_module('phylo.' + info.name)\n"
            "spans.install(spans.Tracer())\n")
    path = os.pathsep.join([str(SRC), str(SRC.parent / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["algebra", "likelihood"])
def test_benchmark_warmup_ops_run_and_check(workload):
    # the benchmark workloads call library names directly, so a deleted or
    # renamed one must fail here and not only in a benchmark run
    code = (f"import {workload}\n"
            f"for op in {workload}.warmup_ops():\n"
            "    op.check(op.run())\n")
    path = os.pathsep.join([str(SRC), str(SRC.parent / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path,
                                   PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
