"""Inputs are checked once, at the public boundary, and the per-layer trace
can still find every function it wraps."""

import ast
import contextlib
import io
import pathlib
from collections import Counter

import pytest

import cfckit
from cfckit import classify, cli, conjecture, perms, rings, tables, words

from oracles import definition, single_commutation_class, stembridge_scan

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
COUNTED = (
    (classify, "require_cfc"),
    (words, "require_reduced"),
    (words, "check_word"),
    (perms, "to_permutation"),
    (perms, "word_from_permutation"),
)


def _count(monkeypatch, counted_names):
    counts = Counter()
    for module, name in counted_names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def calls(monkeypatch):
    return _count(monkeypatch, COUNTED)


def test_witness_checks_each_input_once(calls):
    cert = rings.conjugacy_witness((3, 1, 2, 5, 4, 7, 10, 9), (4, 5, 3, 2, 1, 10, 7, 8), 10)
    assert cert.verified
    assert (cert.source, cert.target) == ((1, 3, 2, 5, 4, 7, 10, 9), (4, 3, 2, 1, 5, 7, 8, 10))
    assert calls["check_word"] == 0
    # two per input (reducedness, then the pattern test) and three to verify
    assert calls["to_permutation"] == 7


def test_classify_command_never_rechecks_letters(calls):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["classify", "--rank", "5", "--word", "31245"]) == 0
    assert calls["check_word"] == 0


def test_class_table_trusts_the_elements_it_generates(calls):
    # enumerate_cfc builds CFC words, so grouping them and listing their
    # reduced expressions checks none of them again
    assert tables.class_table(5).element_count() == 89
    assert calls["require_cfc"] == calls["require_reduced"] == calls["to_permutation"] == 0


def test_conjecture_sweep_stays_on_permutations(calls):
    assert conjecture.check_conjecture(3).agree
    assert calls == Counter()


def test_enumerate_fc_writes_words_without_permutations(monkeypatch):
    counts = _count(monkeypatch, [(perms, "to_permutation"), (perms, "word_from_permutation")])
    assert len(classify.enumerate_fc(8)) == 4862
    assert counts == Counter()


@pytest.mark.parametrize("rank, fibonacci", [(3, 13), (4, 34), (5, 89), (6, 233), (7, 610)])
def test_conjecture_check_scans_only_the_predicate_permutations(monkeypatch, rank, fibonacci):
    # the CFC permutations are CFC by construction; each of the F(2*rank+1)
    # predicate permutations gets one 321 scan and, avoiding 321, one 3412 scan
    counts = _count(monkeypatch, [(perms, "find_321"), (perms, "find_3412")])
    assert conjecture.check_conjecture(rank).agree
    assert counts == Counter(find_321=fibonacci, find_3412=fibonacci)


@pytest.mark.parametrize(
    "call, expected",
    [
        # one boundary check, then one reducedness test per shift of each
        # of the 16 reduced expressions
        pytest.param(lambda: definition((1, 3, 5, 2, 4), 5), 81, id="is_cfc-definition"),
        pytest.param(
            lambda: classify.is_cyclically_reduced((1, 3, 5, 2, 4), 5), 81, id="is_cyclically_reduced"
        ),
        # the word-level routes walk the checked word without checking again
        pytest.param(lambda: stembridge_scan((1, 3, 5, 2, 4), 5), 1, id="is_fc-stembridge"),
        pytest.param(lambda: single_commutation_class((2, 1, 3, 2), 3), 1, id="is_fc-class"),
        pytest.param(
            lambda: words.commutation_classes((1, 2, 3, 2, 4), 4), 1, id="commutation_classes"
        ),
    ],
)
def test_closure_routes_check_each_input_once(calls, call, expected):
    call()
    assert calls["check_word"] == 0
    assert calls["to_permutation"] == expected


def test_words_holds_the_only_closure_walk():
    # the cap decisions live in words, in the closure walk and the
    # commutation-class builder: no other module raises ClosureTooLarge or
    # keeps a breadth-first queue of its own
    paths = sorted((ROOT / "src" / "cfckit").glob("*.py"))
    assert "words.py" in {path.name for path in paths}
    for path in paths:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        called = {
            getattr(n.func, "id", getattr(n.func, "attr", None))
            for n in nodes
            if isinstance(n, ast.Call)
        }
        imported = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        imported |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        owner = path.name == "words.py"
        assert ("ClosureTooLarge" in called) == owner, path.name
        assert ("deque" in imported) == owner, path.name


def test_no_function_takes_a_route_knob():
    # each answer has one route in the package; alternative routes are test
    # oracles, so no parameter may select between routes
    for path in sorted((ROOT / "src" / "cfckit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert not names & {"mode", "method"}, (path.name, getattr(node, "name", "lambda"))


def test_no_module_sweeps_the_symmetric_group():
    # enumerations generate their elements; full sweeps live in tests/oracles.py
    for path in sorted((ROOT / "src" / "cfckit").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        swept = [
            n
            for n in nodes
            if (isinstance(n, ast.Attribute) and n.attr == "permutations")
            or (
                isinstance(n, ast.ImportFrom)
                and n.module == "itertools"
                and any(a.name == "permutations" for a in n.names)
            )
        ]
        assert not swept, path.name


def test_traced_functions_resolve():
    tree = ast.parse(SPANS.read_text())
    names = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets)
    )
    assert names
    for name in names:
        module, attr = name.split(".")
        assert callable(getattr(getattr(cfckit, module), attr)), name
