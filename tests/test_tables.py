import time

import pytest

from cfckit import classify, perms, tables, words
from cfckit.errors import ClosureTooLarge, RankTooLarge

from oracles import class_table_by_oracles


def test_rank_one_table():
    table = tables.class_table(1)
    assert table.element_count() == 2
    assert len(table.conjugacy_classes) == 2
    assert table.conjugacy_classes[0].ring_sizes == ()
    assert table.conjugacy_classes[1].ring_sizes == (1,)


def test_rank_four_table_reproduces_known_grouping():
    table = tables.class_table(4)
    assert table.element_count() == 34

    by_sizes = {g.ring_sizes: g for g in table.conjugacy_classes}
    assert set(by_sizes) == {(), (1,), (1, 1), (2,), (2, 1), (3,), (4,)}

    # the eight Coxeter elements form one conjugacy class with one cyclic class
    coxeter = by_sizes[(4,)]
    assert len(coxeter.cyclic_classes) == 1
    assert len(coxeter.cyclic_classes[0].commutation_classes) == 8
    assert coxeter.cyclic_classes[0].canonical_word == (1, 2, 3, 4)

    # the conjugacy class of 123 splits into the cyclic classes of 123 and 234
    chunk3 = by_sizes[(3,)]
    assert [c.canonical_word for c in chunk3.cyclic_classes] == [(1, 2, 3), (2, 3, 4)]
    first = chunk3.cyclic_classes[0]
    assert [cls[0] for cls in first.commutation_classes] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)
    ]


def test_leaves_partition_all_reduced_expressions():
    for rank in (2, 3, 4):
        table = tables.class_table(rank)
        seen = set()
        for group in table.conjugacy_classes:
            for cyc in group.cyclic_classes:
                for cls in cyc.commutation_classes:
                    block = set(cls)
                    assert not (block & seen)
                    seen |= block
        expected = set()
        for w in classify.enumerate_cfc(rank):
            expected |= words.reduced_expressions(w, rank)
        assert seen == expected


def test_conjugacy_grouping_matches_cycle_types():
    for rank in (2, 3, 4, 5):
        table = tables.class_table(rank)
        for group in table.conjugacy_classes:
            types = {
                perms.cycle_type(perms.to_permutation(cls[0], rank))
                for cyc in group.cyclic_classes
                for cls in cyc.commutation_classes
            }
            assert len(types) == 1
        all_types = [
            perms.cycle_type(perms.to_permutation(g.cyclic_classes[0].commutation_classes[0][0], rank))
            for g in table.conjugacy_classes
        ]
        assert len(all_types) == len(set(all_types))


def test_table_rank_cap():
    with pytest.raises(RankTooLarge):
        tables.class_table(3, max_rank=2)


@pytest.mark.parametrize(
    "rank, max_rank, largest, budget_s", [(5, 9, 16, 10.0), (10, 10, 1000, 1.0)]
)
def test_table_stops_at_the_closure_cap(monkeypatch, rank, max_rank, largest, budget_s):
    # past the cap, the leaf pass stops before any element is grouped; at
    # rank 5 the largest leaf holds 16 words, so a cap of 16 lets it through
    monkeypatch.setenv(words.CLOSURE_CAP_ENV, str(largest - 1))
    start = time.perf_counter()
    with pytest.raises(ClosureTooLarge) as info:
        tables.class_table(rank, max_rank=max_rank)
    assert time.perf_counter() - start < budget_s
    assert str(info.value) == (
        f"commutation_class: visited {largest} reduced words, past the cap of {largest - 1}"
    )
    if rank == 5:
        monkeypatch.setenv(words.CLOSURE_CAP_ENV, str(largest))
        table = tables.class_table(rank)
        leaves = [
            cls
            for group in table.conjugacy_classes
            for cyc in group.cyclic_classes
            for cls in cyc.commutation_classes
        ]
        assert (len(leaves), max(map(len, leaves))) == (89, largest)


@pytest.mark.parametrize("rank", range(1, 8))
def test_table_matches_the_oracle_table(rank):
    assert tables.class_table(rank) == class_table_by_oracles(rank)
