import random
from itertools import permutations

import pytest

from ncsf import (
    SYCT,
    SYT,
    compositions_of,
    descent_composition_syct,
    descent_composition_syt,
    dhat_matrix,
    enumerate_syct,
    enumerate_syt,
    is_valid_syct,
    kostka_counts,
    partitions_of,
    rho_bar,
    underlying_partition,
)
from ncsf.errors import DegreeMismatchError, MalformedFillingError, ResourceLimitError
from ncsf.tableaux import (
    CompositionDiagram,
    _chains,
    _count_chains,
    _is_chain,
    _syct_uncovers,
    _syt_uncovers,
    dhat_row,
)
from ncsf.linalg import from_rows

from oracles import (
    INVOLUTIONS,
    brute_force_syct_rows,
    _covers,
    descent_composition_by_rows,
    dhat_by_covers,
    dhat_by_enumeration,
    hook_length_count,
    invert,
    invert_unitriangular,
    kostka_by_backtracking,
    syct_conditions_hold,
    syct_rows_by_backtracking,
    syt_conditions_hold,
)

# the running example: shape (2,4,1,2), descent composition (1,2,1,2,3)
EXAMPLE_ROWS = ((1, 4), (2, 3, 6, 9), (5,), (7, 8))


def _filling(shape, rows):
    return {
        (i + 1, j + 1): rows[i][j]
        for i in range(len(shape))
        for j in range(len(rows[i]))
    }


def test_diagram_cells():
    assert CompositionDiagram((2, 1)).cells == ((1, 1), (1, 2), (2, 1))


def test_is_valid_syct_example():
    assert is_valid_syct((2, 4, 1, 2), _filling((2, 4, 1, 2), EXAMPLE_ROWS))


def test_is_valid_syct_triple_condition_failure():
    # (2,1) wants a cell at (2,2) once the triple condition fires
    assert not is_valid_syct((2, 1), _filling((2, 1), ((1, 3), (2,))))


def test_is_valid_syct_single_cell():
    assert is_valid_syct((1,), {(1, 1): 1})


def test_is_valid_syct_malformed_raises():
    with pytest.raises(MalformedFillingError):
        is_valid_syct((2, 1), {(1, 1): 1, (1, 2): 2})
    with pytest.raises(MalformedFillingError):
        is_valid_syct((2, 1), {(1, 1): 1, (1, 2): 1, (2, 1): 3})


def test_is_valid_syct_matches_the_three_conditions_on_every_filling():
    for n in range(7):
        for alpha in compositions_of(n):
            cells = CompositionDiagram(alpha).cells
            for perm in permutations(range(1, n + 1)):
                filling = dict(zip(cells, perm))
                assert is_valid_syct(alpha, filling) == syct_conditions_hold(alpha, filling)


def test_syt_chain_test_matches_the_row_and_column_conditions_on_every_filling():
    for n in range(7):
        for lam in partitions_of(n):
            cells = CompositionDiagram(lam).cells
            for perm in permutations(range(1, n + 1)):
                filling = dict(zip(cells, perm))
                assert _is_chain(lam, filling, _syt_uncovers) == syt_conditions_hold(lam, filling)


def test_listed_tableaux_equal_their_checked_copies():
    for n in range(8):
        for kind, lister, shapes in (
            (SYCT, enumerate_syct, compositions_of),
            (SYT, enumerate_syt, partitions_of),
        ):
            for shape in shapes(n):
                for t in lister(shape):
                    copy = kind(t.shape, t.rows)
                    assert type(t) is kind
                    assert (copy, hash(copy), repr(copy)) == (t, hash(t), repr(t))


def test_syt_descents_by_the_column_rule_are_the_row_rule():
    assert descent_composition_syt is descent_composition_syct
    for n in range(9):
        for lam in partitions_of(n):
            for t in enumerate_syt(lam):
                assert descent_composition_syt(t) == descent_composition_by_rows(t)


def test_tableaux_of_equal_rows_differ_by_kind():
    syct, syt = SYCT((2, 1), ((1, 2), (3,))), SYT((2, 1), ((1, 2), (3,)))
    assert syct != syt
    assert repr(syt) == "SYT(shape=(2, 1), rows=((1, 2), (3,)))"
    assert not hasattr(syt, "entry") and syct.entry(2, 1) == 3


def test_enumerators_accept_lists():
    assert enumerate_syct([2, 1]) is enumerate_syct((2, 1))
    assert enumerate_syt([2, 1]) is enumerate_syt((2, 1))


def test_enumerate_syct_examples():
    assert [t.rows for t in enumerate_syct((1, 3))] == [((1,), (2, 3, 4))]
    assert [t.rows for t in enumerate_syct((3, 1))] == [
        ((1, 2, 3), (4,)),
        ((1, 2, 4), (3,)),
    ]
    two = enumerate_syct((2, 2))
    assert len(two) == 2
    assert {descent_composition_syct(t) for t in two} == {(2, 2), (1, 2, 1)}


def test_enumerate_syct_matches_brute_force():
    for n in range(0, 7):
        for alpha in compositions_of(n):
            assert {t.rows for t in enumerate_syct(alpha)} == brute_force_syct_rows(alpha)


def test_descent_composition_syct():
    assert descent_composition_syct(SYCT((2, 4, 1, 2), EXAMPLE_ROWS)) == (1, 2, 1, 2, 3)
    assert descent_composition_syct(SYCT((5,), ((1, 2, 3, 4, 5),))) == (5,)
    assert descent_composition_syct(SYCT((1, 1, 1), ((1,), (2,), (3,)))) == (1, 1, 1)


def test_rho_bar_example():
    image = rho_bar(SYCT((2, 4, 1, 2), EXAMPLE_ROWS))
    assert image.shape == (4, 2, 2, 1)
    assert image.rows == ((1, 3, 6, 9), (2, 4), (5, 8), (7,))


def test_rho_bar_fixes_single_row():
    tableau = SYCT((4,), ((1, 2, 3, 4),))
    assert rho_bar(tableau).rows == tableau.rows


def test_rho_bar_bijection_onto_syt():
    for n in range(1, 7):
        for lam in partitions_of(n):
            images = []
            for alpha in compositions_of(n):
                if underlying_partition(alpha) != lam:
                    continue
                images.extend(rho_bar(t) for t in enumerate_syct(alpha))
            assert len(images) == len({t.rows for t in images})
            assert {t.rows for t in images} == {t.rows for t in enumerate_syt(lam)}


def test_rho_bar_preserves_descent_compositions():
    # observed property, checked empirically; not a library contract
    for n in range(1, 7):
        for alpha in compositions_of(n):
            for t in enumerate_syct(alpha):
                assert descent_composition_syt(rho_bar(t)) == descent_composition_syct(t)


def test_enumerate_syt_counts():
    assert len(enumerate_syt((2, 1))) == 2
    for n in range(1, 8):
        assert len(enumerate_syt((n,))) == 1
    assert sum(len(enumerate_syt(lam)) for lam in partitions_of(4)) == 10


def test_enumerate_syt_matches_hook_lengths():
    for n in range(0, 8):
        for lam in partitions_of(n):
            assert len(enumerate_syt(lam)) == hook_length_count(lam)


def test_total_tableau_counts_are_involution_numbers():
    for n in range(1, 8):
        syct_total = sum(len(enumerate_syct(a)) for a in compositions_of(n))
        syt_total = sum(len(enumerate_syt(l)) for l in partitions_of(n))
        assert syct_total == syt_total == INVOLUTIONS[n - 1]


def test_dhat_matrix_degree_three_is_identity():
    assert dhat_matrix(3) == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


def test_dhat_matrix_degree_four_entry():
    comps = compositions_of(4)
    dhat = dhat_matrix(4)
    assert dhat[comps.index((3, 1))][comps.index((2, 2))] == 1


def test_dhat_matrix_unit_diagonal_and_row_sums():
    for n in range(1, 7):
        dhat = dhat_matrix(n)
        comps = compositions_of(n)
        for i, beta in enumerate(comps):
            assert dhat[i][i] == 1
            assert sum(dhat[i]) == len(enumerate_syct(beta))


def test_dhat_matrix_invertible():
    for n in range(1, 8):
        invert(tuple(tuple(x for x in row) for row in dhat_matrix(n)))


def _dhat(n):
    """D = ``dhat_matrix(n)``, stored, from its rows."""
    return from_rows(map(dhat_row, compositions_of(n)))


def test_dhat_matrix_refuses_degree_zero():
    with pytest.raises(ValueError, match="positive"):
        dhat_matrix(0)


@pytest.mark.parametrize("n", range(1, 10))
def test_chain_count_equals_syct_enumeration(n):
    assert _dhat(n) == dhat_by_enumeration(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_dhat_rows_walked_down_equal_the_forward_walk_by_covers(n):
    assert _dhat(n) == dhat_by_covers(n)


@pytest.mark.parametrize("n", range(9))
def test_syct_count_per_shape_equals_the_enumeration_and_the_dhat_row_sum(n):
    for alpha in compositions_of(n):
        row_sum = sum(dhat_row(alpha).values())
        assert _count_chains(alpha, _syct_uncovers) == len(enumerate_syct(alpha)) == row_sum


@pytest.mark.parametrize("n", (10, 11))
def test_chain_count_at_degrees_beyond_the_enumeration(n):
    """Each SYT of shape lam is rho_bar of exactly one SYCT whose shape
    rearranges lam, so the row sums over those shapes give f^lam."""
    by_shape = {}
    for beta in compositions_of(n):
        lam = underlying_partition(beta)
        by_shape[lam] = by_shape.get(lam, 0) + sum(dhat_row(beta).values())
    assert by_shape == {lam: hook_length_count(lam) for lam in partitions_of(n)}
    invert_unitriangular(_dhat(n))


def _without_last_cell(shape, row):
    """``shape`` less the last cell of row ``row`` (from 1), an emptied row dropped."""
    return tuple(part for i, k in enumerate(shape) if (part := k - (i == row - 1)))


def test_syct_uncovers_undo_the_covers_with_the_same_column():
    for n in range(1, 10):
        covers = {
            (bigger, shape, col)
            for shape in compositions_of(n - 1)
            for bigger, col in _covers(shape)
        }
        uncovers = set()
        for bigger in compositions_of(n):
            for shape, (row, col) in _syct_uncovers(bigger):
                assert bigger[row - 1] == col
                assert shape == _without_last_cell(bigger, row)
                uncovers.add((bigger, shape, col))
        assert uncovers == covers


def test_syt_uncovers_remove_the_corners():
    for n in range(1, 11):
        for lam in partitions_of(n):
            corners = []
            for i, k in enumerate(lam):
                rest = lam[:i] + (k - 1,) + lam[i + 1 :]
                if all(a >= b for a, b in zip(rest, rest[1:])):
                    corners.append((_without_last_cell(lam, i + 1), (i + 1, k)))
            assert list(_syt_uncovers(lam)) == corners


@pytest.mark.parametrize("n", range(15))
def test_syt_chain_counts_are_hook_lengths(n):
    for lam in partitions_of(n):
        assert _count_chains(lam, _syt_uncovers) == hook_length_count(lam)


@pytest.mark.parametrize("n", range(13))
def test_syct_chain_counts_over_the_rearrangements_of_a_partition_are_hook_lengths(n):
    by_shape = {}
    for alpha in compositions_of(n):
        lam = underlying_partition(alpha)
        by_shape[lam] = by_shape.get(lam, 0) + _count_chains(alpha, _syct_uncovers)
    assert by_shape == {lam: hook_length_count(lam) for lam in partitions_of(n)}


@pytest.mark.parametrize("n", range(10))
def test_enumerate_syct_equals_the_backtracker(n):
    for alpha in compositions_of(n):
        assert [t.rows for t in enumerate_syct(alpha)] == syct_rows_by_backtracking(alpha)


def test_chain_count_below_the_shape_bound():
    # the staircase (1, ..., 9) has 409,113 shapes below it
    assert _count_chains(tuple(range(1, 10)), _syct_uncovers) == 5293344082635598724390


def test_chain_count_refuses_a_shape_with_too_many_shapes_below():
    # (12^12) contains binomial(24, 12) = 2,704,156 partitions; the
    # staircase (1, ..., 10) is refused through the CLI
    with pytest.raises(ResourceLimitError):
        _count_chains((12,) * 12, _syt_uncovers)


def test_chains_of_shapes_longer_than_the_recursion_limit():
    # one row or one column of 2000 cells holds exactly one tableau of each kind
    entries = tuple(range(1, 2001))
    for shape, rows in (((2000,), (entries,)), ((1,) * 2000, tuple((x,) for x in entries))):
        for uncovers in (_syct_uncovers, _syt_uncovers):
            assert _count_chains(shape, uncovers) == 1
            assert _chains(shape, uncovers) == [rows]


def test_kostka_counts():
    assert kostka_counts((2, 1), (2, 1)) == 1
    assert kostka_counts((2, 1), (1, 1, 1)) == 2
    assert kostka_counts((5, 4, 3, 2, 1), (1,) * 15) == hook_length_count((5, 4, 3, 2, 1)) == 292864
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert kostka_counts((n,), mu) == 1
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert kostka_counts(lam, lam) == 1


@pytest.mark.parametrize("n", range(9))
def test_kostka_counts_by_horizontal_strips_equal_the_backtracker(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            assert kostka_counts(lam, mu) == kostka_by_backtracking(lam, mu), (lam, mu)


def test_kostka_counts_of_shapes_longer_than_the_recursion_limit():
    assert kostka_counts((1000,), (1000,)) == 1
    assert kostka_counts((1000, 1000), (1000, 1000)) == 1


def test_kostka_counts_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        kostka_counts((2, 1), (2, 2))


def test_enumerated_syct_pass_validity():
    for n in range(1, 7):
        for alpha in compositions_of(n):
            for t in enumerate_syct(alpha):
                assert is_valid_syct(alpha, _filling(alpha, t.rows))


def test_randomized_swaps_are_detected():
    # swapping two entries almost always breaks a condition; when it does
    # not, the result must be another enumerated SYCT of the same shape
    rng = random.Random(20240917)
    rejected = 0
    for n in range(2, 7):
        for alpha in compositions_of(n):
            valid_rows = {t.rows for t in enumerate_syct(alpha)}
            cells = CompositionDiagram(alpha).cells
            for t in enumerate_syct(alpha):
                for _ in range(4):
                    c1, c2 = rng.sample(cells, 2)
                    mutated = _filling(alpha, t.rows)
                    mutated[c1], mutated[c2] = mutated[c2], mutated[c1]
                    if is_valid_syct(alpha, mutated):
                        rows = tuple(
                            tuple(mutated[(i + 1, j + 1)] for j in range(alpha[i]))
                            for i in range(len(alpha))
                        )
                        assert rows in valid_rows and rows != t.rows
                    else:
                        rejected += 1
    assert rejected > 100


def test_invalid_syct_constructor_raises():
    with pytest.raises(ValueError):
        SYCT((2, 1), ((1, 3), (2,)))
    with pytest.raises(MalformedFillingError):
        SYCT((2, 1), ((1, 2, 3), ()))


def test_syt_constructor_validates():
    with pytest.raises(ValueError):
        SYT((2, 1), ((2, 3), (1,)))
    with pytest.raises(ValueError):
        SYT((2, 2), ((1, 4), (2, 3)))
    with pytest.raises(ValueError):
        SYT((1, 2), ((1,), (2, 3)))
    with pytest.raises(MalformedFillingError):
        SYT((2, 1), ((1, 2, 3), ()))
    with pytest.raises(MalformedFillingError):
        SYT((2, 1), ((1, 1), (3,)))
