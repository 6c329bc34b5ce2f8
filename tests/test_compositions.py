from math import factorial

import pytest

from ncsf import (
    DescentSet,
    comp_of,
    compositions_of,
    partitions_of,
    refines,
    reversal,
    set_of,
    underlying_partition,
    z_stat,
)
from ncsf.compositions import coarsenings, refinements
from ncsf.errors import InvalidSubsetError

from oracles import coarsenings_by_comp_of, refines_by_blocks


def test_compositions_of_zero():
    assert compositions_of(0) == ((),)


def test_compositions_of_three_as_set():
    assert set(compositions_of(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}


def test_composition_counts():
    assert len(compositions_of(8)) == 128
    for n in range(1, 9):
        assert len(compositions_of(n)) == 2 ** (n - 1)
        assert len(set(compositions_of(n))) == 2 ** (n - 1)


def test_canonical_order_starts_with_single_part():
    for n in range(1, 8):
        assert compositions_of(n)[0] == (n,)
        assert compositions_of(n)[-1] == (1,) * n


def test_set_of():
    assert set_of((2, 4, 1, 2)) == DescentSet(9, (2, 6, 7))
    assert set_of((7,)).elements == ()
    assert set_of((1, 1, 1)).elements == (1, 2)
    with pytest.raises(ValueError):
        set_of(())


def test_comp_of():
    assert comp_of({2, 6, 7}, 9) == (2, 4, 1, 2)
    assert comp_of(set(), 5) == (5,)
    assert comp_of({1, 3, 4, 6}, 9) == (1, 2, 1, 2, 3)


def test_comp_of_rejects_out_of_range():
    with pytest.raises(InvalidSubsetError):
        comp_of({9}, 9)
    with pytest.raises(InvalidSubsetError):
        comp_of({0}, 4)
    with pytest.raises(InvalidSubsetError):
        DescentSet(4, (4,))


def test_comp_of_set_of_round_trip():
    for n in range(1, 9):
        for alpha in compositions_of(n):
            assert comp_of(set_of(alpha).elements, n) == alpha
    for n in range(1, 7):
        for subset_comp in compositions_of(n):
            elems = set_of(subset_comp).elements
            assert set_of(comp_of(elems, n)).elements == elems


def test_underlying_partition():
    assert underlying_partition((2, 4, 1, 2)) == (4, 2, 2, 1)
    assert underlying_partition(()) == ()
    assert underlying_partition((1, 3)) == (3, 1)


def test_orbit_sizes_sum_to_composition_count():
    for n in range(1, 9):
        total = sum(
            sum(1 for alpha in compositions_of(n) if underlying_partition(alpha) == lam)
            for lam in partitions_of(n)
        )
        assert total == 2 ** (n - 1)


def test_reversal():
    assert reversal((2, 4, 1, 2)) == (2, 1, 4, 2)
    assert reversal((6,)) == (6,)
    for alpha in compositions_of(6):
        assert reversal(reversal(alpha)) == alpha


def test_refines():
    assert refines((2, 1, 1, 3, 1, 1), (2, 1, 4, 2))
    assert not refines((1, 2), (2, 1))
    for alpha in compositions_of(5):
        assert refines(alpha, (5,))
    assert not refines((2,), (3,))


def test_refines_is_a_partial_order():
    for n in range(0, 7):
        comps = compositions_of(n)
        for a in comps:
            assert refines(a, a)
            for b in comps:
                if refines(a, b) and refines(b, a):
                    assert a == b
                for c in comps:
                    if refines(a, b) and refines(b, c):
                        assert refines(a, c)


def test_refines_matches_the_block_walk():
    comps = [alpha for n in range(7) for alpha in compositions_of(n)]
    for beta in comps:
        for alpha in comps:
            assert refines(beta, alpha) == refines_by_blocks(beta, alpha), (beta, alpha)


def test_refinements_and_coarsenings_agree_with_refines():
    for n in range(0, 7):
        comps = compositions_of(n)
        for alpha in comps:
            assert set(refinements(alpha)) == {b for b in comps if refines_by_blocks(b, alpha)}
            assert set(coarsenings(alpha)) == {b for b in comps if refines_by_blocks(alpha, b)}


def test_coarsenings_match_the_comp_of_listing_in_order():
    for n in range(11):
        for alpha in compositions_of(n):
            assert coarsenings(alpha) == coarsenings_by_comp_of(alpha), alpha


def test_z_stat():
    assert z_stat((1, 1, 1)) == 6
    assert z_stat((2, 1)) == 2
    for n in range(1, 9):
        assert z_stat((n,)) == n


def test_class_sizes_partition_the_group():
    for n in range(1, 9):
        assert sum(factorial(n) // z_stat(mu) for mu in partitions_of(n)) == factorial(n)


def test_partitions_of():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(8)) == 22
