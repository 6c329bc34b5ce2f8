"""The integer-exact matrix builders against the slow paths they replace.

At every degree n <= 7: the substitution inverse against Fraction
Gauss-Jordan on each matrix it inverts, the closed-form M -> F matrix
against the inverse of F -> M, the pruned Jacobi-Trudi expansion against
the full permutation sum, and the memoized block count against a count of
every assignment.  Then the substitution inverse's guards.
"""

import pytest

from ncsf import nsym, qsym, sym
from ncsf.compositions import partitions_of
from ncsf.errors import InternalConsistencyError
from ncsf.linalg import identity, invert, invert_unitriangular, matmul
from ncsf.tableaux import dhat_matrix

from oracles import block_count_by_assignments, jacobi_trudi_by_permutations

DEGREES = range(1, 8)


def _unitriangular(n):
    """Every matrix the builders invert by substitution, by name."""
    return {
        "dhat": dhat_matrix(n),
        "QS -> F": qsym._to_f_matrix("QS", n),
        "R in S": nsym._r_in_schur_matrix("S", n),
        "R in YS": nsym._r_in_schur_matrix("YS", n),
        "s -> h": sym._to_h_matrix("s", n),
    }


def _is_integer(m) -> bool:
    return all(type(x) is int for row in m for x in row)


@pytest.mark.parametrize("n", DEGREES)
def test_substitution_inverse_matches_gauss_jordan(n):
    for name, m in _unitriangular(n).items():
        assert _is_integer(m), name
        inverse = invert_unitriangular(m)
        assert _is_integer(inverse), name
        assert inverse == invert(m), name


@pytest.mark.parametrize("n", DEGREES)
def test_builders_use_the_exact_inverses(n):
    assert qsym._from_f_matrix("QS", n) == invert(qsym._to_f_matrix("QS", n))
    assert qsym._from_f_matrix("YQS", n) == invert(qsym._to_f_matrix("YQS", n))
    assert sym._from_h_matrix("s", n) == invert(sym._to_h_matrix("s", n))
    for basis in ("S", "YS"):
        expected = matmul(invert(nsym._r_in_schur_matrix(basis, n)), nsym._to_h_matrix("R", n))
        assert nsym._to_h_matrix(basis, n) == expected


@pytest.mark.parametrize("n", DEGREES)
def test_closed_form_m_to_f_is_the_inverse_of_f_to_m(n):
    m_to_f = qsym._to_f_matrix("M", n)
    assert _is_integer(m_to_f)
    assert m_to_f == invert(qsym._from_f_matrix("M", n))


@pytest.mark.parametrize("n", range(8))
def test_pruned_jacobi_trudi_matches_permutation_sum(n):
    for lam in partitions_of(n):
        assert sym._jacobi_trudi_h(lam) == jacobi_trudi_by_permutations(lam), lam


@pytest.mark.parametrize("n", DEGREES)
def test_memoized_block_count_matches_assignments(n):
    for mu in partitions_of(n):
        for lam in partitions_of(n):
            assert sym._ordered_block_count(mu, lam) == block_count_by_assignments(mu, lam)


@pytest.mark.parametrize(
    "m",
    [
        ((2,),),
        ((1, 0), (0, -1)),
        ((0, 1), (1, 0)),
        ((1, 1), (1, 1)),
        ((1, 2, 0), (0, 1, 3), (4, 0, 1)),  # the cycle 0 -> 1 -> 2 -> 0
    ],
    ids=["scalar", "diagonal", "swap", "two-cycle", "three-cycle"],
)
def test_substitution_inverse_refuses_non_unitriangular(m):
    with pytest.raises(InternalConsistencyError):
        invert_unitriangular(m)


def test_substitution_inverse_small_cases():
    assert invert_unitriangular(()) == ()
    assert invert_unitriangular(identity(3)) == identity(3)
    assert invert_unitriangular(((1, 0), (5, 1))) == ((1, 0), (-5, 1))
    m = ((1, 0, 2), (3, 1, 4), (0, 0, 1))  # upper unitriangular in the order 1, 0, 2
    assert matmul(invert_unitriangular(m), m) == identity(3)
