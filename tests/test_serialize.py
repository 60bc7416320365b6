import copy
import json
import time

import pytest

from cfckit import conjecture, heaps, rings, serialize, tables
from cfckit.errors import InvalidGenerator, InvalidObject


def test_parse_word_text_forms():
    assert serialize.parse_word_text("12342", 4) == (1, 2, 3, 4, 2)
    assert serialize.parse_word_text("1,2,11", 11) == (1, 2, 11)
    assert serialize.parse_word_text("e", 3) == ()
    assert serialize.parse_word_text("", 3) == ()
    with pytest.raises(InvalidGenerator):
        serialize.parse_word_text("1a2", 3)
    # only ASCII digits, commas and e: int() would read these three
    for text, rank in (("1_2", 12), ("1_0,2", 12), ("\u0661\u0662", 3)):
        with pytest.raises(InvalidGenerator) as info:
            serialize.parse_word_text(text, rank)
        assert str(info.value) == f"cannot parse word {text!r}"
    # other forms int() reads keep their parse
    assert serialize.parse_word_text(" 1, 2 ", 3) == (1, 2)
    assert serialize.parse_word_text("+1,2", 3) == (1, 2)


def test_word_text_round_trip():
    for word in [(), (1,), (1, 2, 3, 4, 2), (10, 2, 11)]:
        rank = max(word, default=1)
        assert serialize.parse_word_text(serialize.format_word_text(word, rank), rank) == word


def test_word_text_is_rank_aware():
    assert serialize.parse_word_text("12", 9) == (1, 2)
    assert serialize.parse_word_text("12", 12) == (12,)
    assert serialize.format_word_text((1, 2), 12) == "1,2"
    for rank in (1, 2, 9, 10, 12, 30):
        for word in [(), (rank,), (1, rank), tuple(range(rank, 0, -1))]:
            assert serialize.parse_word_text(serialize.format_word_text(word, rank), rank) == word


def test_word_obj_round_trip():
    obj = serialize.word_to_obj((1, 2, 3), 4)
    assert obj == {"rank": 4, "word": [1, 2, 3]}
    assert serialize.word_from_obj(json.loads(json.dumps(obj))) == ((1, 2, 3), 4)


def test_perm_obj_round_trip():
    obj = serialize.perm_to_obj((2, 4, 3, 5, 1))
    assert obj == {"one_line": [2, 4, 3, 5, 1]}
    assert serialize.perm_from_obj(json.loads(json.dumps(obj))) == (2, 4, 3, 5, 1)


def test_cycle_text_round_trip_and_normalization():
    assert serialize.cycle_to_text((1, 2, 4, 5)) == "(1 2 4 5)"
    assert serialize.cycle_from_text("(4 5 1 2)") == (1, 2, 4, 5)
    assert serialize.cycle_from_text("(1 2 4 5)") == (1, 2, 4, 5)


@pytest.mark.parametrize("text", ["(1 1 2)", "(3 0 -2)", "(a b)", "(1 2.5)"])
def test_cycle_from_text_rejects_bad_text(text):
    with pytest.raises(InvalidObject):
        serialize.cycle_from_text(text)


def test_heap_obj_round_trip():
    heap = heaps.build_heap((2, 1, 3, 2, 4, 5), 5)
    obj = json.loads(json.dumps(serialize.heap_to_obj(heap)))
    assert serialize.heap_from_obj(obj) == heap
    assert obj["blocks"][0] == {"gen": 2, "level": 4}


def test_verdict_objects():
    from cfckit import classify

    fc = classify.is_fc((3, 2, 1, 3), 3)
    obj = serialize.fc_verdict_to_obj(fc)
    assert obj["is_fc"] is False and obj["witness"]["kind"] == "321"
    cfc = classify.is_cfc((2, 1, 3, 2), 3)
    obj = serialize.cfc_verdict_to_obj(cfc)
    assert obj["is_cfc"] is False
    assert obj["method"] == "pattern_321_3412"
    assert "positions" in obj["witness"]


def test_certificate_round_trip():
    cert = rings.conjugacy_witness((3, 4, 5, 6), (4, 5, 6, 7), 7)
    obj = json.loads(json.dumps(serialize.certificate_to_obj(cert)))
    assert serialize.certificate_from_obj(obj) == cert
    assert obj["verified"] is True


def test_certificate_loader_rechecks_conjugation():
    obj = {"source": [1], "target": [2], "conjugator": [], "verified": True}
    with pytest.raises(InvalidObject) as info:
        serialize.certificate_from_obj(obj)
    assert serialize.error_to_obj(info.value)["code"] == "invalid_object"
    # the largest letter fixes the degree: 1 -> 2 under conjugation by 1,2
    obj["conjugator"] = [1, 2]
    assert serialize.certificate_from_obj(obj).verified


def test_heap_loader_rejects_mismatched_levels_and_covers():
    obj = serialize.heap_to_obj(heaps.build_heap((2, 1, 3, 2, 4, 5), 5))
    moved = json.loads(json.dumps(obj))
    moved["blocks"][0]["level"] = 7
    with pytest.raises(InvalidObject):
        serialize.heap_from_obj(moved)
    uncovered = json.loads(json.dumps(obj))
    uncovered["covers"].pop()
    with pytest.raises(InvalidObject) as info:
        serialize.heap_from_obj(uncovered)
    assert serialize.error_to_obj(info.value)["code"] == "invalid_object"


HEAP = {"rank": 2, "blocks": [{"gen": 1, "level": 2}, {"gen": 2, "level": 1}], "covers": [[0, 1]]}
REPORT = {"rank": 2, "elements_checked": 6, "agree": True, "counterexamples": []}
TABLE = {"rank": 1, "conjugacy_classes": []}
MALFORMED = {
    "certificate-missing-key": (serialize.certificate_from_obj, {"source": [1]}),
    "certificate-wrong-type": (
        serialize.certificate_from_obj,
        {"source": ["a"], "target": [1], "conjugator": []},
    ),
    "certificate-letter-below-one": (
        serialize.certificate_from_obj,
        {"source": [0], "target": [0], "conjugator": []},
    ),
    "heap-missing-covers": (serialize.heap_from_obj, {"rank": 2, "blocks": []}),
    "heap-rank-not-integer": (serialize.heap_from_obj, {**HEAP, "rank": "x"}),
    "heap-letter-outside-rank": (
        serialize.heap_from_obj,
        {"rank": 1, "blocks": [{"gen": 3, "level": 1}], "covers": []},
    ),
    "perm-not-a-permutation": (serialize.perm_from_obj, {"one_line": [1, 1]}),
    "perm-wrong-type": (serialize.perm_from_obj, {"one_line": "21"}),
    "word-letter-outside-rank": (serialize.word_from_obj, {"rank": 2, "word": [7]}),
    "word-missing-rank": (serialize.word_from_obj, {"word": [1]}),
    "report-wrong-type": (serialize.report_from_obj, {**REPORT, "agree": "yes"}),
    "report-bad-counterexample": (
        serialize.report_from_obj,
        {
            **REPORT,
            "counterexamples": [
                {"word": [1], "one_line": [1, 1, 3], "predicate_verdict": True, "cfc_verdict": False}
            ],
        },
    ),
    "table-missing-key": (serialize.class_table_from_obj, {"rank": 1}),
    "table-letter-outside-rank": (
        serialize.class_table_from_obj,
        {
            **TABLE,
            "conjugacy_classes": [
                {
                    "ring_size_multiset": [1],
                    "cyclic_classes": [{"canonical_word": [2], "commutation_classes": [[[2]]]}],
                }
            ],
        },
    ),
    "not-an-object": (serialize.word_from_obj, [1, 2]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_loaders_reject_malformed_objects(case):
    load, obj = MALFORMED[case]
    with pytest.raises(InvalidObject) as info:
        load(obj)
    assert serialize.error_to_obj(info.value)["code"] == "invalid_object"
    assert load.__name__ in str(info.value)


def test_loader_fixtures_are_well_formed():
    assert serialize.heap_from_obj(HEAP) == heaps.build_heap((1, 2), 2)
    assert serialize.report_from_obj(REPORT) == conjecture.check_conjecture(2)
    assert serialize.class_table_from_obj(TABLE) == tables.ClassTable(1, ())


def test_report_round_trip():
    report = conjecture.check_conjecture(3)
    obj = json.loads(json.dumps(serialize.report_to_obj(report)))
    assert serialize.report_from_obj(obj) == report


def test_report_carries_counterexamples(monkeypatch):
    # a disagreement, should one ever appear, must survive serialization;
    # the loader recomputes both verdicts, so the predicate is made to disagree
    predicate = conjecture.conjecture_predicate
    monkeypatch.setattr(
        conjecture, "conjecture_predicate", lambda p: p != (2, 3, 1, 4) and predicate(p)
    )
    report = conjecture.check_conjecture(3)
    assert report.counterexamples == (((1, 2), (2, 3, 1, 4), False, True),)
    obj = json.loads(json.dumps(serialize.report_to_obj(report)))
    rebuilt = serialize.report_from_obj(obj)
    assert rebuilt == report
    assert rebuilt.counterexamples[0][1] == (2, 3, 1, 4)


def test_class_table_round_trip():
    table = tables.class_table(3)
    obj = json.loads(json.dumps(serialize.class_table_to_obj(table)))
    assert serialize.class_table_from_obj(obj) == table


def test_reports_and_tables_round_trip_across_ranks():
    for rank in range(1, 6):
        report = conjecture.check_conjecture(rank)
        assert serialize.report_from_obj(serialize.report_to_obj(report)) == report
    for rank in range(1, 5):
        table = tables.class_table(rank)
        assert serialize.class_table_from_obj(serialize.class_table_to_obj(table)) == table


def _report(*entries, **fields):
    counterexamples = [
        {"word": w, "one_line": p, "predicate_verdict": a, "cfc_verdict": b}
        for w, p, a, b in entries
    ]
    obj = {"rank": 3, "elements_checked": 24, "agree": not entries}
    return {**obj, "counterexamples": counterexamples, **fields}


def _table(edit):
    obj = copy.deepcopy(serialize.class_table_to_obj(tables.class_table(3)))
    groups = {tuple(g["ring_size_multiset"]): g for g in obj["conjugacy_classes"]}
    edit(groups)
    return obj


def _leaves(groups, canonical):
    for group in groups.values():
        for cyc in group["cyclic_classes"]:
            if cyc["canonical_word"] == canonical:
                return cyc
    raise LookupError(canonical)


CONTRADICTED = {
    "report-agree-with-counterexample": (
        serialize.report_from_obj,
        _report(([1], [1, 2, 3], True, True), agree=True),
        "agree contradicts",
    ),
    "report-wrong-count": (serialize.report_from_obj, _report(elements_checked=23), "checks 24"),
    "report-wrong-degree": (
        serialize.report_from_obj,
        _report(([1], [2, 1, 3], True, False)),
        "rank-3 image",
    ),
    "report-not-the-image": (
        serialize.report_from_obj,
        _report(([1], [1, 3, 2, 4], True, False)),
        "rank-3 image",
    ),
    "report-not-canonical": (
        serialize.report_from_obj,
        _report(([2, 1, 2], [3, 2, 1, 4], True, False)),
        "canonical word",
    ),
    "report-wrong-verdict": (
        serialize.report_from_obj,
        _report(([1], [2, 1, 3, 4], False, True)),
        "recomputation",
    ),
    "report-verdicts-agree": (
        serialize.report_from_obj,
        _report(([1], [2, 1, 3, 4], True, True)),
        "no counterexample",
    ),
    "report-unsorted": (
        serialize.report_from_obj,
        _report(([1], [2, 1, 3, 4], True, False), ([2], [1, 3, 2, 4], True, False)),
        "sorted",
    ),
    "table-non-cfc-leaf": (
        serialize.class_table_from_obj,
        {
            "rank": 2,
            "conjugacy_classes": [
                {
                    "ring_size_multiset": [5],
                    "cyclic_classes": [
                        {"canonical_word": [1, 2], "commutation_classes": [[[1, 2, 1]]]}
                    ],
                }
            ],
        },
        "not CFC",
    ),
    "table-partial-leaf": (
        serialize.class_table_from_obj,
        _table(lambda g: _leaves(g, [1, 3])["commutation_classes"][0].pop()),
        "commutation class",
    ),
    "table-unsorted-leaf": (
        serialize.class_table_from_obj,
        _table(lambda g: _leaves(g, [1, 3])["commutation_classes"][0].reverse()),
        "commutation class",
    ),
    "table-empty-leaf": (
        serialize.class_table_from_obj,
        _table(lambda g: _leaves(g, [1, 3])["commutation_classes"].append([])),
        "no expressions",
    ),
    "table-wrong-canonical-word": (
        serialize.class_table_from_obj,
        _table(lambda g: _leaves(g, [1, 2]).update(canonical_word=[2, 1])),
        "sorted support",
    ),
    "table-empty-cyclic-class": (
        serialize.class_table_from_obj,
        {
            "rank": 3,
            "conjugacy_classes": [
                {
                    "ring_size_multiset": [7],
                    "cyclic_classes": [{"canonical_word": [3, 1], "commutation_classes": []}],
                }
            ],
        },
        "lists no element",
    ),
    "table-empty-conjugacy-class": (
        serialize.class_table_from_obj,
        _table(lambda g: g[(2,)].update(cyclic_classes=[])),
        "no cyclic class",
    ),
    "table-repeated-leaf": (
        serialize.class_table_from_obj,
        {
            "rank": 1,
            "conjugacy_classes": [
                {
                    "ring_size_multiset": [1],
                    "cyclic_classes": [
                        {"canonical_word": [1], "commutation_classes": [[[1]], [[1]]]}
                    ],
                }
            ],
        },
        "listed twice",
    ),
    "table-element-in-two-classes": (
        serialize.class_table_from_obj,
        _table(lambda g: g[(2,)]["cyclic_classes"].append(g[(2,)]["cyclic_classes"][0])),
        "listed twice",
    ),
    "table-wrong-ring-sizes": (
        serialize.class_table_from_obj,
        _table(lambda g: g[(2,)].update(ring_size_multiset=[1, 1])),
        "chunk sizes",
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRADICTED))
def test_loaders_reject_contradicted_content(case):
    load, obj, reason = CONTRADICTED[case]
    with pytest.raises(InvalidObject, match=reason):
        load(obj)


@pytest.mark.parametrize("rank", [10**6, 10**9])
def test_report_loader_rejects_a_huge_rank_quickly(rank):
    obj = {"rank": rank, "elements_checked": 1, "agree": True, "counterexamples": []}
    start = time.perf_counter()
    with pytest.raises(InvalidObject, match=f"rank-{rank} sweep checks"):
        serialize.report_from_obj(obj)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("rank", [10**6, 10**9])
def test_table_loader_cost_follows_the_leaves_not_the_rank(rank):
    # a leaf is checked in the degree of its largest letter
    leaf = {"canonical_word": [1], "commutation_classes": [[[1]]]}
    obj = {"rank": rank, "conjugacy_classes": [{"ring_size_multiset": [1], "cyclic_classes": [leaf]}]}
    start = time.perf_counter()
    table = serialize.class_table_from_obj(obj)
    assert time.perf_counter() - start < 0.1
    cyclic = tables.CyclicClassGroup((1,), (((1,),),))
    assert table == tables.ClassTable(rank, (tables.ConjugacyClassGroup((1,), (cyclic,)),))


def test_error_objects_have_stable_codes():
    from cfckit.errors import NotCFC, NotReduced

    assert serialize.error_to_obj(NotReduced("nope"))["code"] == "not_reduced"
    assert serialize.error_to_obj(NotCFC("nope"))["code"] == "not_cfc"
