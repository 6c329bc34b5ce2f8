"""The sparse integer matrices and their builders against the dense slow
paths they replace.

At every degree n <= 7: the whole substitution inverse, kept as the oracle
``oracles.invert_unitriangular``, against Fraction Gauss-Jordan on each
unitriangular matrix the spaces build, NSym's to-R and from-R builders
against each other's Gauss-Jordan inverse and S -> H and YS -> H against
the inverse ribbon expansions times the old R -> H sums, the closed-form
M -> F matrix against the inverse of F -> M, sparse products, transposes
and products with substitution inverses against their dense oracles, and
the pruned Jacobi-Trudi oracle against the full permutation sum.  Up
to n = 10, Sym's ``m`` matrices, built by Hall duality from the Schur
ones, against the power-sum route they replace: the block counts of p in
m (every assignment of parts to blocks up to n = 7, a memo per entry up
to n = 10) solved densely against p -> h.
Every cached builder stores sparse rows of nonzero ints over the least
denominator, and building every transition matrix, ``dhat`` and each
substitution inverse from cold caches makes no Fraction.  Then
``from_rows``'s least denominator and the guards of the substitution
inverse, which refuses a matrix that is not integer.
"""

from fractions import Fraction
from math import gcd

import pytest

from ncsf._linear import dense_rows, transition_matrix
from ncsf.compositions import compositions_of, partitions_of
from ncsf.errors import InternalConsistencyError
from ncsf.linalg import Matrix, from_rows, matmul, transpose
from ncsf.nsym import NSYM
from ncsf.qsym import QSYM
from ncsf.sym import SYM
from ncsf.tableaux import _chain_ends, dhat_row

import oracles
from oracles import (
    block_count_by_assignments,
    identity,
    invert,
    invert_unitriangular,
    jacobi_trudi_by_permutations,
    jacobi_trudi_h,
    stored,
)

DEGREES = range(1, 8)


def _unitriangular(n):
    """Every matrix the builders invert by substitution, by name."""
    return {
        "dhat": from_rows(map(dhat_row, compositions_of(n))),
        "QS -> F": transition_matrix(QSYM, "QS", "F", n),
        "R in S": transition_matrix(NSYM, "R", "S", n),
        "R in YS": transition_matrix(NSYM, "R", "YS", n),
        "s -> h": transition_matrix(SYM, "s", "h", n),
    }


def _is_integer(m) -> bool:
    return m.den == 1 and all(type(x) is int for _, vals in m.rows for x in vals)


def _builders(n):
    """Every cached matrix of each space at degree n, by space and name."""
    built = {
        space.name: {
            f"{basis} {way}": transition_matrix(space, *pair, n)
            for basis in space.bases
            if basis != space.hub
            for way, pair in (("to hub", (basis, space.hub)), ("from hub", (space.hub, basis)))
        }
        for space in (SYM, QSYM, NSYM)
    }
    unitriangular = _unitriangular(n)
    built["Sym"]["s -> h"] = unitriangular.pop("s -> h")
    built["QSym"] |= {name: unitriangular.pop(name) for name in ("dhat", "QS -> F")}
    built["NSym"] |= unitriangular
    return built


@pytest.mark.parametrize("n", DEGREES)
def test_substitution_inverse_matches_gauss_jordan(n):
    for name, m in _unitriangular(n).items():
        assert _is_integer(m), name
        inverse = invert_unitriangular(m)
        assert _is_integer(inverse), name
        assert dense_rows(inverse) == invert(dense_rows(m)), name


@pytest.mark.parametrize("n", DEGREES)
def test_builders_use_the_exact_inverses(n):
    for basis in ("QS", "YQS"):
        want = invert(dense_rows(transition_matrix(QSYM, basis, "F", n)))
        assert dense_rows(transition_matrix(QSYM, "F", basis, n)) == want
    h_in_s, s_in_h = (transition_matrix(SYM, *pair, n) for pair in (("h", "s"), ("s", "h")))
    assert dense_rows(h_in_s) == invert(dense_rows(s_in_h))
    for basis in ("E", "H", "S", "YS"):
        want = invert(dense_rows(transition_matrix(NSYM, "R", basis, n)))
        assert dense_rows(transition_matrix(NSYM, basis, "R", n)) == want, basis
    for basis in ("S", "YS"):
        expected = oracles.matmul(
            invert(dense_rows(transition_matrix(NSYM, "R", basis, n))),
            dense_rows(oracles.nsym_to_h_matrix("R", n)),
        )
        assert dense_rows(transition_matrix(NSYM, basis, "H", n)) == expected


def _p_in_m(n):
    """The dense p -> m matrix of the block counts: each entry by one memo
    per entry, and up to n = 7 also by every assignment of parts to blocks."""
    parts = partitions_of(n)
    p_in_m = tuple(tuple(oracles.ordered_block_count(mu, lam) for lam in parts) for mu in parts)
    if n <= 7:
        assert p_in_m == tuple(
            tuple(block_count_by_assignments(mu, lam) for lam in parts) for mu in parts
        )
    return p_in_m


@pytest.mark.parametrize("n", range(1, 11))
def test_monomial_matrices_equal_the_power_sum_route(n):
    p_in_m = _p_in_m(n)
    p_to_h, h_to_p = (
        dense_rows(transition_matrix(SYM, *pair, n)) for pair in (("p", "h"), ("h", "p"))
    )
    m_to_h, h_to_m = transition_matrix(SYM, "m", "h", n), transition_matrix(SYM, "h", "m", n)
    assert _is_integer(m_to_h) and _is_integer(h_to_m)
    assert dense_rows(m_to_h) == oracles.matmul(invert(p_in_m), p_to_h)
    assert dense_rows(h_to_m) == oracles.matmul(h_to_p, p_in_m)
    assert oracles.is_identity(oracles.matmul(dense_rows(m_to_h), dense_rows(h_to_m)))


@pytest.mark.parametrize("n", DEGREES)
def test_closed_form_m_to_f_is_the_inverse_of_f_to_m(n):
    m_to_f = transition_matrix(QSYM, "M", "F", n)
    assert _is_integer(m_to_f)
    assert dense_rows(m_to_f) == invert(dense_rows(transition_matrix(QSYM, "F", "M", n)))


@pytest.mark.parametrize("n", DEGREES)
def test_sparse_operations_equal_their_dense_oracles(n):
    built = _builders(n)
    dense = {(space, name): dense_rows(m) for space in built for name, m in built[space].items()}
    for space, group in built.items():
        for a_name, a in group.items():
            assert dense_rows(transpose(a)) == oracles.transpose(dense[space, a_name]), a_name
            for b_name, b in group.items():
                want = oracles.matmul(dense[space, a_name], dense[space, b_name])
                assert dense_rows(matmul(a, b)) == want, (space, a_name, b_name)
    for a_name, a in _unitriangular(n).items():
        inverse = invert(dense_rows(a))
        for (space, b_name), b in dense.items():
            if len(b) == len(a.rows):
                got = matmul(invert_unitriangular(a), built[space][b_name])
                assert dense_rows(got) == oracles.matmul(inverse, b), (a_name, space, b_name)


@pytest.mark.parametrize("n", DEGREES)
def test_cached_builders_store_sparse_rows_of_nonzero_ints(n):
    for space, built in _builders(n).items():
        for name, m in built.items():
            assert type(m) is Matrix and type(m.rows) is tuple, (space, name)
            for cols, vals in m.rows:
                assert type(cols) is tuple and type(vals) is tuple, (space, name)
                assert len(cols) == len(vals) and list(cols) == sorted(set(cols)), (space, name)
                assert all(0 <= j < len(m.rows) for j in cols), (space, name)
                assert all(type(x) is int and x for x in vals), (space, name)
            assert m.den >= 1 and gcd(m.den, *(x for _, vals in m.rows for x in vals)) == 1


def test_building_the_matrices_makes_no_fraction(monkeypatch):
    for space in (SYM, QSYM, NSYM):
        space.to_hub.cache_clear()
        space.from_hub.cache_clear()
    _chain_ends.cache_clear()
    made, new = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for n in range(1, 7):
        for space in (SYM, QSYM, NSYM):
            for source in space.bases:
                for target in space.bases:
                    transition_matrix(space, source, target, n)
        for m in _unitriangular(n).values():  # D's rows among them
            invert_unitriangular(m)
    assert made == []


@pytest.mark.parametrize("n", range(8))
def test_pruned_jacobi_trudi_matches_permutation_sum(n):
    for lam in partitions_of(n):
        assert jacobi_trudi_h(lam) == jacobi_trudi_by_permutations(lam), lam


@pytest.mark.parametrize(
    "m, guard",
    [
        (((2,),), "diagonal entry"),
        (((0,),), "diagonal entry"),
        (((1, 0), (0, -1)), "diagonal entry"),
        (((0, 1), (1, 0)), "diagonal entry"),
        (((1, 1), (1, 1)), "cycle"),
        (((1, 2, 0), (0, 1, 3), (4, 0, 1)), "cycle"),  # the cycle 0 -> 1 -> 2 -> 0
        (((2, 1), (1, 2)), "diagonal entry"),
        (((1, 2, 0), (0, 3, 3), (4, 0, 5)), "diagonal entry"),
    ],
    ids=[
        "scalar", "zero", "diagonal", "swap", "two-cycle", "three-cycle",
        "two-cycle-diagonal-2", "three-cycle-diagonal-1-3-5",
    ],
)
def test_substitution_inverse_refuses_non_unitriangular(m, guard):
    with pytest.raises(InternalConsistencyError, match=guard):
        invert_unitriangular(stored(m))


def test_from_rows_reduces_to_the_least_denominator():
    assert from_rows([{0: 2, 1: -6}, {1: 4}], 4) == Matrix((((0, 1), (1, -3)), ((1,), (2,))), 2)
    assert from_rows([{0: 0}, {}], 6) == Matrix((((), ()), ((), ())), 1)
    assert from_rows([{1: 3, 0: 0}, {0: 4}], 2) == Matrix((((1,), (3,)), ((0,), (4,))), 2)


def _inverse(m):
    return dense_rows(invert_unitriangular(stored(m)))


def test_substitution_inverse_small_cases():
    assert _inverse(()) == ()
    assert _inverse(identity(3)) == identity(3)
    assert _inverse(((1, 0), (5, 1))) == ((1, 0), (-5, 1))
    with pytest.raises(InternalConsistencyError, match="over 2") as refused:
        _inverse(((1, 0), (Fraction(1, 2), 1)))
    assert "diagonal entry" not in str(refused.value)
    m = ((1, 0, 2), (3, 1, 4), (0, 0, 1))  # upper unitriangular in the order 1, 0, 2
    assert oracles.matmul(_inverse(m), m) == identity(3)
