"""Inputs are checked once, at the public boundary, and the per-layer trace
can still find every function it wraps."""

import ast
import contextlib
import io
import pathlib
from collections import Counter

import pytest

import cfckit
from cfckit import cli, conjecture, perms, rings, words

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
COUNTED = (
    (words, "check_word"),
    (perms, "to_permutation"),
    (perms, "word_from_permutation"),
)


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for module, name in COUNTED:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


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


def test_conjecture_sweep_stays_on_permutations(calls):
    assert conjecture.check_conjecture(3).agree
    assert calls == Counter()


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
