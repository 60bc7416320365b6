"""Inputs are checked once, at the public boundary, and the per-layer trace
can still find every function it wraps."""

import ast
import contextlib
import inspect
import io
import pathlib
from collections import Counter

import pytest

import cfckit
from cfckit import classify, cli, conjecture, heaps, perms, rings, tables, words

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


def _package_trees():
    """(file name, every ast node) for each module under src/cfckit."""
    paths = sorted((ROOT / "src" / "cfckit").glob("*.py"))
    return [(path.name, list(ast.walk(ast.parse(path.read_text())))) for path in paths]


def _called(nodes):
    """The names called among the nodes, bare or as an attribute."""
    return {
        getattr(n.func, "id", getattr(n.func, "attr", None)) for n in nodes if isinstance(n, ast.Call)
    }


@pytest.fixture
def calls(monkeypatch):
    return _count(monkeypatch, COUNTED)


def test_witness_checks_each_input_once(calls):
    cert = rings.conjugacy_witness((3, 1, 2, 5, 4, 7, 10, 9), (4, 5, 3, 2, 1, 10, 7, 8), 10)
    assert cert.verified
    assert (cert.source, cert.target) == ((1, 3, 2, 5, 4, 7, 10, 9), (4, 3, 2, 1, 5, 7, 8, 10))
    assert calls["check_word"] == 0
    # one per input, handed from the boundary check to the pattern test and
    # the verification, and one for the conjugator
    assert calls["to_permutation"] == 3


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: classify.is_fc((2, 1, 3, 2), 3), 1, id="is_fc"),
        pytest.param(lambda: classify.is_fc((3, 2, 1, 3), 3), 1, id="is_fc-witness"),
        pytest.param(lambda: classify.is_cfc((1, 2, 4, 3), 4), 1, id="is_cfc"),
        pytest.param(lambda: classify.is_cfc((2, 1, 3, 2, 4), 4), 1, id="is_cfc-witness"),
        pytest.param(lambda: rings.rings_of((1, 2, 3, 5, 6), 6), 1, id="rings_of"),
        pytest.param(
            lambda: heaps.cylindrical_canonical((2, 3, 1), 4), 1, id="cylindrical_canonical"
        ),
        pytest.param(
            lambda: rings.is_conjugate_cfc((1, 2, 3, 5, 6), (3, 4, 7, 8, 9), 9),
            2,
            id="is_conjugate_cfc",
        ),
        # ring sizes that differ leave no conjugator to image (the conjugate
        # case is test_witness_checks_each_input_once)
        pytest.param(
            lambda: rings.conjugacy_witness((1, 2), (1, 3), 3), 2, id="conjugacy_witness-none"
        ),
    ],
)
def test_each_public_call_images_each_input_once(calls, call, expected):
    # the boundary check hands its image on, so no verdict, ring or
    # certificate builds an input's image a second time
    call()
    assert calls["to_permutation"] == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        # is_fc and is_cfc, one boundary check each
        pytest.param(["classify", "--rank", "5", "--word", "31245"], 2, id="classify"),
        pytest.param(["conj", "--rank", "9", "--w", "12356", "--y", "34789"], 2, id="conj"),
        pytest.param(["witness", "--rank", "7", "--w", "3456", "--y", "4567"], 3, id="witness"),
    ],
)
def test_text_requests_image_each_input_once(calls, argv, expected):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["--format", "text", *argv]) == 0
    assert calls["to_permutation"] == expected


def test_classify_command_never_rechecks_letters(calls):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["classify", "--rank", "5", "--word", "31245"]) == 0
    assert calls["check_word"] == 0


def test_class_table_trusts_the_elements_it_generates(calls):
    # the leaf pass builds the reduced words of the CFC elements, so grouping
    # the leaves by their first words checks none of them again
    assert tables.class_table(5).element_count() == 89
    assert calls["require_cfc"] == calls["require_reduced"] == calls["to_permutation"] == 0


def test_class_table_builds_its_leaves_in_one_pass(monkeypatch):
    # every element is one leaf of words.distinct_letter_classes, already
    # sorted, so no element is built a second time, by enumerate_cfc or as
    # its own commutation class
    counted = [
        (words, "linear_extensions"),
        (classify, "enumerate_cfc"),
        (words, "distinct_letter_classes"),
    ]
    counts = _count(monkeypatch, counted)
    assert tables.class_table(5).element_count() == 89
    assert counts == Counter(distinct_letter_classes=1)


def test_counts_build_no_element(monkeypatch):
    # counts are closed forms; only a listing runs the walk, once, through
    # the ordered enumeration and not through the frozenset enumerators
    kinds = ("fc", "cfc", "coxeter")
    counted = [(classify, f"enumerate_{kind}") for kind in kinds]
    counts = _count(monkeypatch, [*counted, (classify, "enumerate_sorted"), (classify, "_run_words")])
    with contextlib.redirect_stdout(io.StringIO()):
        for kind in kinds:
            for rank in range(1, 10):
                for fmt in ((), ("--format", "text")):
                    assert cli.run([*fmt, "counts", "--kind", kind, "--rank", str(rank)]) == 0
        assert counts == Counter()
        for kind in kinds:
            assert cli.run(["enumerate", "--kind", kind, "--rank", "3"]) == 0
    assert counts == Counter(enumerate_sorted=3, _run_words=3)


def test_conjecture_sweep_stays_on_permutations(calls):
    # one image per Coxeter word of rank k-1 for each interval size k in
    # 2..rank+1, 2^rank - 1 in all, and no input check or canonical word:
    # the words are Coxeter elements by construction and the cycle side is
    # built from cycles
    for rank in range(3, 8):
        calls.clear()
        assert conjecture.check_conjecture(rank).agree
        assert calls == Counter(to_permutation=2**rank - 1)


def test_enumerate_fc_writes_words_without_permutations(monkeypatch):
    counts = _count(monkeypatch, [(perms, "to_permutation"), (perms, "word_from_permutation")])
    assert len(classify.enumerate_fc(8)) == 4862
    assert counts == Counter()


@pytest.mark.parametrize("rank, fibonacci", [(3, 13), (4, 34), (5, 89), (6, 233), (7, 610)])
def test_conjecture_check_scans_only_the_predicate_permutations(monkeypatch, rank, fibonacci):
    # the check compares interval blocks: the Coxeter images are CFC by
    # construction and the cycle blocks are built as the predicate's, so no
    # permutation gets a pattern scan or a canonical word
    counted = [(perms, "find_321"), (perms, "find_3412"), (perms, "word_from_permutation")]
    counts = _count(monkeypatch, counted)
    assert conjecture.check_conjecture(rank).agree
    assert counts == Counter()
    # one block per part of a composition of 1..rank+1 makes up the
    # F(2*rank+1) predicate permutations: ways[j] of them on 1..j
    ways = [1]
    for j in range(1, rank + 2):
        blocks = [len(list(conjecture._cycle_blocks(1, k))) for k in range(1, j + 1)]
        ways.append(sum(size * ways[j - k] for k, size in enumerate(blocks, 1)))
    assert ways[-1] == fibonacci


@pytest.mark.parametrize(
    "call, expected",
    [
        # one boundary check, then one reducedness test per shift of each
        # of the 16 reduced expressions
        pytest.param(lambda: definition((1, 3, 5, 2, 4), 5), 81, id="is_cfc-definition"),
        # the same, less the last shift of each, which is the expression itself
        pytest.param(
            lambda: classify.is_cyclically_reduced((1, 3, 5, 2, 4), 5), 65, id="is_cyclically_reduced"
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
    trees = _package_trees()
    assert "words.py" in {name for name, _ in trees}
    for name, nodes in trees:
        called = _called(nodes)
        imported = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        imported |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        owner = name == "words.py"
        assert ("ClosureTooLarge" in called) == owner, name
        assert ("deque" in imported) == owner, name


def test_pattern_scans_serve_only_the_verdicts():
    # perms defines the 321/3412 scans and classify's verdicts alone call
    # them; the loaders and the conjecture sweep read CFC off a canonical word
    scans = {"find_321", "find_3412", "cfc_pattern"}
    verdicts = {"is_fc", "is_cfc", "require_cfc"}
    trees = _package_trees()
    assert {"classify.py", "conjecture.py", "perms.py", "serialize.py"} <= {name for name, _ in trees}
    for name, nodes in trees:
        called = _called(nodes)
        defined = {n.name for n in nodes if isinstance(n, ast.FunctionDef)}
        if name == "perms.py":
            assert {"find_321", "find_3412"} <= defined
        elif name != "classify.py":
            assert not called & scans, name
        if name in ("serialize.py", "conjecture.py"):
            assert not called & verdicts, name


def test_no_function_takes_a_route_knob():
    # each answer has one route in the package; alternative routes are test
    # oracles, so no parameter may select between routes
    for name, nodes in _package_trees():
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert not names & {"mode", "method"}, (name, getattr(node, "name", "lambda"))


def test_no_module_sweeps_the_symmetric_group():
    # enumerations generate their elements; full sweeps live in tests/oracles.py
    for name, nodes in _package_trees():
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
        assert not swept, name


def test_one_reader_for_integer_text():
    # words.ascii_int alone turns outside text into an int: a bare int() or
    # argparse's type=int would also read a sign, an underscore or another
    # script's digits
    trees = dict(_package_trees())
    reader = next(
        n for n in trees["words.py"] if isinstance(n, ast.FunctionDef) and n.name == "ascii_int"
    )
    inside = {id(n) for n in ast.walk(reader)}
    assert "int" in _called(ast.walk(reader))
    for name, nodes in trees.items():
        outside = [n for n in nodes if id(n) not in inside]
        assert "int" not in _called(outside), name
        typed = [n for n in outside if isinstance(n, ast.keyword) and n.arg == "type"]
        assert not [n for n in typed if getattr(n.value, "id", None) == "int"], name


def _traced_functions():
    """The names that perfbench/spans.py wraps, as module.function."""
    tree = ast.parse(SPANS.read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets)
    )


def test_traced_functions_resolve():
    names = _traced_functions()
    assert names
    for name in names:
        module, attr = name.split(".")
        assert callable(getattr(getattr(cfckit, module), attr)), name


def test_every_exported_function_serves_an_answer_or_shows_its_use():
    # an exported function is referred to inside the package, traced by the
    # benchmark, or carries a doctest; anything else is a wrapper that no
    # answer needs
    used = set()
    for path in sorted((ROOT / "src" / "cfckit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            nodes = list(ast.walk(statement))
            names = {n.id for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            # a definition's own body is no use of it
            names.discard(getattr(statement, "name", None))
            used |= names
    used |= {name.split(".")[1] for name in _traced_functions()}
    exported = {name: getattr(cfckit, name) for name in cfckit.__all__}
    functions = {name: f for name, f in exported.items() if inspect.isfunction(f)}
    assert {"is_conjugate_cfc", "slide_equivalent", "render"} <= set(functions)
    unneeded = [
        name for name, f in functions.items() if name not in used and ">>>" not in (f.__doc__ or "")
    ]
    assert unneeded == []
