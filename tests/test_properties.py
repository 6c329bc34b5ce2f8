"""Property tests for the one conversion path shared by Sym, QSym and NSym,
and for the substitution inverse its matrix builders use.

For every ordered basis pair of every space, on random elements of mixed
degree at most 5: conversion round trips, conversion is linear, and each
row of a transition matrix is the conversion of one basis element.  On
random integer matrices: the substitution inverse of a unitriangular
matrix with permuted indices is its inverse, equal to the Gauss-Jordan
one, and on any matrix it either refuses or returns the inverse.  The
examples are derandomized, so every run draws the same ones.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsf import (
    NSYM_BASES,
    QSYM_BASES,
    SYM_BASES,
    NSymElement,
    QSymElement,
    SymElement,
    nsym_convert,
    qsym_convert,
    sym_convert,
)
from ncsf.compositions import compositions_of, partitions_of
from ncsf.errors import InternalConsistencyError
from ncsf.linalg import identity, invert, invert_unitriangular, matmul
from ncsf.nsym import transition_matrix as nsym_transition_matrix
from ncsf.qsym import transition_matrix as qsym_transition_matrix
from ncsf.sym import transition_matrix as sym_transition_matrix

TOP = 5

SPACES = {
    "sym": (SymElement, sym_convert, sym_transition_matrix, SYM_BASES, partitions_of),
    "qsym": (QSymElement, qsym_convert, qsym_transition_matrix, QSYM_BASES, compositions_of),
    "nsym": (NSymElement, nsym_convert, nsym_transition_matrix, NSYM_BASES, compositions_of),
}

PAIRS = [
    (space, source, target)
    for space, (_, _, _, bases, _) in SPACES.items()
    for source in bases
    for target in bases
]

EXAMPLES = settings(derandomize=True, deadline=None, max_examples=15, database=None)

coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


TERMS = {
    space: st.dictionaries(
        st.sampled_from([idx for n in range(TOP + 1) for idx in of_degree(n)]),
        coefficients,
        max_size=5,
    )
    for space, (_, _, _, _, of_degree) in SPACES.items()
}


@pytest.mark.parametrize("space,source,target", PAIRS)
@EXAMPLES
@given(data=st.data())
def test_convert_round_trips_and_is_linear(space, source, target, data):
    cls, convert, _, _, _ = SPACES[space]
    x = cls(source, data.draw(TERMS[space]))
    y = cls(source, data.draw(TERMS[space]))
    c = data.draw(coefficients)
    there = convert(x, target)
    assert type(there) is cls and there.basis == target
    assert convert(there, source) == x
    assert convert(x * c + y, target) == there * c + convert(y, target)


@pytest.mark.parametrize("space,source,target", PAIRS)
def test_transition_matrix_rows_are_conversions(space, source, target):
    cls, convert, transition_matrix, _, of_degree = SPACES[space]
    for n in range(TOP + 1):
        order = of_degree(n)
        for index, row in zip(order, transition_matrix(source, target, n)):
            expected = convert(cls(source, {index: Fraction(1)}), target)
            assert {idx: c for idx, c in zip(order, row) if c} == expected.terms


MATRICES = settings(derandomize=True, deadline=None, max_examples=200, database=None)


@MATRICES
@given(data=st.data())
def test_substitution_inverse_of_permuted_unitriangular(data):
    k = data.draw(st.integers(0, 8))
    upper = [
        [1 if i == j else data.draw(st.integers(-5, 5)) if i < j else 0 for j in range(k)]
        for i in range(k)
    ]
    order = data.draw(st.permutations(range(k)))
    m = tuple(tuple(upper[order[i]][order[j]] for j in range(k)) for i in range(k))
    inverse = invert_unitriangular(m)
    assert matmul(inverse, m) == identity(k)
    assert inverse == invert(m)


@MATRICES
@given(data=st.data())
def test_substitution_inverse_refuses_or_is_right(data):
    k = data.draw(st.integers(1, 4))
    m = tuple(
        tuple(
            data.draw(st.sampled_from((1, 1, 1, 0, 2, -1)) if i == j else st.integers(-2, 2))
            for j in range(k)
        )
        for i in range(k)
    )
    try:
        inverse = invert_unitriangular(m)
    except InternalConsistencyError:
        return
    assert matmul(inverse, m) == identity(k)
    assert matmul(m, inverse) == identity(k)
