import json
import pathlib
import shlex
import sys
import time

import pytest

from cfckit import classify, cli, serialize, tables
from cfckit.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_example(capsys):
    code, out, _ = invoke(capsys, "classify", "--rank", "4", "--word", "21324")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_fc"] is True
    assert payload["is_cfc"] is False


def test_classify_rejects_non_reduced(capsys):
    code, out, err = invoke(capsys, "classify", "--rank", "2", "--word", "11")
    assert code == 1
    assert json.loads(out)["code"] == "not_reduced"
    assert "error" in err


def test_conj_example(capsys):
    code, out, _ = invoke(capsys, "conj", "--rank", "7", "--w", "3456", "--y", "4567")
    assert code == 0
    assert json.loads(out)["conjugate"] is True


def test_conj_domain_error(capsys):
    code, out, _ = invoke(capsys, "conj", "--rank", "3", "--w", "2132", "--y", "123")
    assert code == 1
    assert json.loads(out)["code"] == "not_cfc"


def test_witness_round_trips_through_cli(capsys):
    code, out, _ = invoke(capsys, "witness", "--rank", "6", "--w", "12356", "--y", "12456")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    code, out, _ = invoke(capsys, "witness", "--rank", "3", "--w", "12", "--y", "13")
    assert code == 0
    assert json.loads(out)["conjugate"] is False


def test_counts_example(capsys):
    code, out, _ = invoke(capsys, "counts", "--kind", "fc", "--rank", "3")
    assert code == 0
    assert json.loads(out)["count"] == 14


def test_counts_answer_past_the_enumerable_ranks(capsys):
    # Catalan(21) FC elements: 2.4e10 words, counted without building one
    argv = ("counts", "--kind", "fc", "--rank", "20", "--max-rank", "20")
    code, out, err = invoke(capsys, "--format", "text", *argv)
    assert (code, out) == (0, "24466267020\n")
    assert "raising rank cap to 20" in err
    code, out, _ = invoke(capsys, *argv)
    assert json.loads(out) == {"rank": 20, "kind": "fc", "count": 24466267020}


@pytest.mark.parametrize("fmt", [(), ("--format", "text")])
@pytest.mark.parametrize("rank", ["20000", "1000000000"])
@pytest.mark.parametrize("kind", ["fc", "cfc", "coxeter"])
def test_counts_past_the_printable_size_are_rank_errors(capsys, kind, rank, fmt):
    # no count of such a rank fits sys.get_int_max_str_digits() digits; the
    # rank alone shows it, so even rank 10**9 answers at once
    argv = (*fmt, "counts", "--kind", kind, "--rank", rank, "--max-rank", rank)
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    elapsed = time.perf_counter() - start
    digits = sys.get_int_max_str_digits()
    message = f"count at rank {rank} has more than {digits} digits, the limit for printing an integer"
    assert (code, json.loads(out)) == (1, {"code": "rank_too_large", "message": message})
    assert err.endswith(f"error: {message}\n") and "Traceback" not in err
    if rank == "1000000000":
        assert elapsed < 0.1


def test_enumerate_sorted_and_deterministic(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--kind", "cfc", "--rank", "3")
    assert code == 0
    payload = json.loads(out)
    elements = [tuple(w) for w in payload["elements"]]
    assert len(elements) == 13
    assert elements == sorted(elements, key=lambda w: (len(w), w))
    code, out2, _ = invoke(capsys, "enumerate", "--kind", "cfc", "--rank", "3")
    assert out == out2


@pytest.mark.parametrize("rank", range(1, 10))
@pytest.mark.parametrize("kind", ["fc", "cfc", "coxeter"])
def test_enumerate_prints_the_sorted_enumerator_set(capsys, kind, rank):
    # the listing is filed by length as the walk writes it; it must print
    # what sorting the enumerator's set by length, then lexicographically, gives
    expected = sorted(sorted(getattr(classify, f"enumerate_{kind}")(rank)), key=len)
    code, out, _ = invoke(capsys, "enumerate", "--kind", kind, "--rank", str(rank))
    assert (code, out) == (0, json.dumps({"rank": rank, "kind": kind, "elements": expected}) + "\n")
    code, out, _ = invoke(capsys, "--format", "text", "enumerate", "--kind", kind, "--rank", str(rank))
    assert (code, out) == (0, "".join(serialize.format_word_text(w, rank) + "\n" for w in expected))


@pytest.mark.parametrize("kind", ["fc", "cfc", "coxeter"])
def test_enumerate_past_the_cap_answers_before_any_listing(capsys, kind):
    # the rank is checked before the listing makes its rank*(rank+1)/2
    # buckets, which at this rank would not fit in memory
    code, out, _ = invoke(capsys, "enumerate", "--kind", kind, "--rank", "1000000000")
    assert (code, json.loads(out)) == (
        1,
        {"code": "rank_too_large", "message": "rank 1000000000 exceeds cap 9"},
    )


def test_render_ascii_to_stdout(capsys):
    code, out, _ = invoke(capsys, "render", "--rank", "5", "--word", "2354")
    assert code == 0
    assert "[2]" in out and out.count("[") == 4


def test_render_svg_to_file(tmp_path, capsys):
    target = tmp_path / "heap.svg"
    code, out, _ = invoke(
        capsys, "render", "--rank", "5", "--word", "2354",
        "--format", "svg", "--out", str(target),
    )
    assert code == 0
    assert json.loads(out)["written"] == str(target)
    assert target.read_text().startswith("<svg ")


def test_render_to_unwritable_path_is_a_domain_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.svg"
    code, out, err = invoke(capsys, "render", "--rank", "3", "--word", "12", "--out", str(target))
    assert code == 1
    assert json.loads(out)["code"] == "write_failed"
    assert str(target) in err
    assert not target.exists()


def test_classtable_smoke(capsys):
    code, out, _ = invoke(capsys, "classtable", "--rank", "4")
    assert code == 0
    payload = json.loads(out)
    total = sum(
        len(cyc["commutation_classes"])
        for group in payload["conjugacy_classes"]
        for cyc in group["cyclic_classes"]
    )
    assert total == 34


@pytest.mark.parametrize("rank", range(1, 8))
def test_classtable_output_loads_back_to_the_table(capsys, rank):
    # the CLI encodes the table's tuples, the loader reads the lists of the text
    code, out, _ = invoke(capsys, "classtable", "--rank", str(rank))
    assert code == 0
    assert serialize.class_table_from_obj(json.loads(out)) == tables.class_table(rank)


@pytest.mark.parametrize(
    "argv",
    [
        ("classtable", "--rank", "4"),
        ("enumerate", "--kind", "cfc", "--rank", "4"),
        ("classify", "--rank", "4", "--word", "21324"),
        ("classify", "--rank", "2", "--word", "11"),
    ],
)
def test_json_prints_as_json_dumps_writes_it(capsys, argv):
    out = invoke(capsys, *argv)[1]
    assert out == json.dumps(json.loads(out)) + "\n"


def test_conjecture_check_exits_zero(capsys):
    code, out, _ = invoke(capsys, "conjecture-check", "--rank", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True and payload["elements_checked"] == 24


def test_usage_error_exits_two(capsys):
    code, _, _ = invoke(capsys, "classify", "--rank", "4")
    assert code == 2
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 2


def test_usage_error_leaves_the_parser_as_it_was(capsys):
    good = ("classify", "--rank", "5", "--word", "21324")
    before = invoke(capsys, *good)
    assert invoke(capsys, "classify", "--rank", "5", "--word")[0] == 2
    after = invoke(capsys, *good)
    assert before[:2] == after[:2] and before[0] == 0
    # the parser is built once per process
    assert cli._build_parser() is cli._build_parser()


def test_non_positive_max_rank_is_a_usage_error(capsys):
    for bad in ("-5", "0"):
        code, out, err = invoke(capsys, "counts", "--rank", "3", "--kind", "fc", "--max-rank", bad)
        assert code == 2
        assert out == ""
        assert "must be a positive integer" in err


@pytest.mark.parametrize("bad", ["\u0663", "\uff13", "1_0", "+3", "-1", " "])
def test_rank_that_is_not_ascii_digits_is_a_usage_error(capsys, bad):
    code, out, err = invoke(capsys, "counts", "--kind", "cfc", "--rank", bad)
    assert code == 2
    assert out == ""
    assert "--rank" in err
    assert err.splitlines()[-1] == (
        f"cfckit counts: error: argument --rank: must be an unsigned integer, got {bad!r}"
    )


@pytest.mark.parametrize("bad", ["+1_0", "1_0", "\u0663", "abc", "+10"])
def test_max_rank_that_is_not_ascii_digits_is_a_usage_error(capsys, bad):
    code, out, err = invoke(capsys, "counts", "--kind", "cfc", "--rank", "10", "--max-rank", bad)
    assert code == 2
    assert out == ""
    assert "must be a positive integer" in err


def test_rank_options_read_surrounding_whitespace_and_zero(capsys):
    code, out, _ = invoke(capsys, "counts", "--kind", "cfc", "--rank", " 3 ", "--max-rank", "09")
    assert (code, json.loads(out)["count"]) == (0, 13)
    # a rank of 0 is read, and answered as a domain error
    code, out, err = invoke(capsys, "counts", "--kind", "cfc", "--rank", "0")
    assert code == 1
    assert json.loads(out)["code"] == "invalid_generator"
    assert "rank must be >= 1" in err


def test_listings_build_text_only_when_asked(capsys, monkeypatch):
    calls = []
    original = serialize.format_word_text
    monkeypatch.setattr(
        serialize, "format_word_text", lambda *args: calls.append(args) or original(*args)
    )
    for argv in (["enumerate", "--kind", "cfc", "--rank", "5"], ["classtable", "--rank", "4"]):
        assert invoke(capsys, *argv)[0] == 0
    assert calls == []
    code, out, _ = invoke(capsys, "--format", "text", "enumerate", "--kind", "cfc", "--rank", "5")
    assert code == 0
    assert len(calls) == len(out.splitlines()) == 89


def test_text_listings_never_build_the_json_object(capsys, monkeypatch):
    calls = []
    original = serialize.class_table_to_obj
    monkeypatch.setattr(
        serialize, "class_table_to_obj", lambda *args: calls.append(args) or original(*args)
    )
    code, out, _ = invoke(capsys, "--format", "text", "classtable", "--rank", "4")
    assert code == 0
    assert out.startswith("ring sizes ")
    assert calls == []
    assert invoke(capsys, "classtable", "--rank", "4")[0] == 0
    assert len(calls) == 1


def test_max_rank_warning(capsys):
    code, out, err = invoke(
        capsys, "counts", "--kind", "cfc", "--rank", "3", "--max-rank", "12"
    )
    assert code == 0
    assert "warning" in err


def test_text_format(capsys):
    code, out, _ = invoke(
        capsys, "--format", "text", "classify", "--rank", "4", "--word", "21324"
    )
    assert code == 0
    assert "FC=True" in out and "CFC=False" in out


def test_bad_closure_cap_is_a_domain_error(capsys, monkeypatch):
    for raw in ("abc", "0", "-3"):
        monkeypatch.setenv("CFC_MAX_CLOSURE", raw)
        code, out, err = invoke(capsys, "classtable", "--rank", "2")
        assert code == 1
        assert json.loads(out)["code"] == "invalid_setting"
        assert "CFC_MAX_CLOSURE" in err


def test_closure_cap_that_is_not_ascii_digits_is_a_domain_error(capsys, monkeypatch):
    for raw in ("\u0665", "\uff15", "+5", "1_0"):
        monkeypatch.setenv("CFC_MAX_CLOSURE", raw)
        code, out, err = invoke(capsys, "classtable", "--rank", "2")
        assert code == 1
        assert json.loads(out)["code"] == "invalid_setting"
        assert "CFC_MAX_CLOSURE" in err


def test_closure_cap_reads_surrounding_whitespace(capsys, monkeypatch):
    monkeypatch.setenv("CFC_MAX_CLOSURE", " 5 ")
    code, out, err = invoke(capsys, "classify", "--rank", "5", "--word", "13524")
    assert code == 1
    assert json.loads(out)["code"] == "closure_too_large"
    assert "past the cap of 5" in err


def test_classify_past_the_closure_cap_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("CFC_MAX_CLOSURE", "5")
    code, out, err = invoke(capsys, "classify", "--rank", "5", "--word", "13524")
    assert code == 1
    assert json.loads(out)["code"] == "closure_too_large"
    assert "is_cyclically_reduced" in err


def test_text_classify_skips_the_cyclic_walk(capsys, monkeypatch):
    monkeypatch.setenv("CFC_MAX_CLOSURE", "5")
    calls = []
    original = classify.is_cyclically_reduced
    monkeypatch.setattr(
        classify, "is_cyclically_reduced", lambda *args: calls.append(args) or original(*args)
    )
    code, out, _ = invoke(capsys, "--format", "text", "classify", "--rank", "5", "--word", "13524")
    assert code == 0
    assert out == "word 13524 (rank 5): FC=True CFC=True\n"
    assert calls == []


def test_word_above_rank_nine_is_comma_separated(capsys):
    code, out, _ = invoke(capsys, "classify", "--rank", "12", "--word", "12")
    assert code == 0
    assert json.loads(out)["word"] == [12]
    code, out, _ = invoke(capsys, "conj", "--rank", "12", "--w", "12", "--y", "1")
    assert code == 0
    assert json.loads(out)["conjugate"] is True


def test_readme_cli_lines_run(capsys, tmp_path):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("cfckit ")]
    assert len(lines) == 8
    for argv in lines:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert invoke(capsys, *argv[1:])[0] == 0, argv
