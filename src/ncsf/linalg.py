"""Sparse exact linear algebra for transition matrices.

A ``Matrix`` is stored only as sparse rows over one denominator ``den``:
row i is a pair of tuples ``(cols, vals)``, the increasing positions of its
nonzero entries and those entries as ints, each meaning ``val / den``.
``den`` is the least one, so it is 1 for an integer matrix.  Every
operation stays in ``int``: a transpose keeps ``den``, a product sums
``int`` products over the product of the two denominators, and the one
inverse, of an integer unitriangular matrix, is a back substitution that
never divides.  Matrices are square.
"""

from graphlib import CycleError, TopologicalSorter
from math import gcd
from typing import NamedTuple

from .errors import InternalConsistencyError

__all__ = ["Matrix", "from_rows", "identity", "invert_unitriangular", "matmul", "transpose"]


class Matrix(NamedTuple):
    rows: tuple  # of (cols, vals)
    den: int = 1


def from_rows(rows, den: int = 1) -> Matrix:
    """The matrix ``rows``, dicts {column: int}, over ``den``, without its
    zero entries, with rows and ``den`` divided by their gcd."""
    rows = [sorted((j, x) for j, x in row.items() if x) for row in rows]
    g = gcd(den, *(x for row in rows for _, x in row)) if den != 1 else 1
    pairs = ((tuple(j for j, _ in row), tuple(x // g for _, x in row)) for row in rows)
    return Matrix(tuple(pairs), den // g)


def identity(k: int) -> Matrix:
    return Matrix(tuple(((i,), (1,)) for i in range(k)))


def transpose(m: Matrix) -> Matrix:
    rows = [{} for _ in m.rows]
    for i, row in enumerate(m.rows):
        for j, x in zip(*row):
            rows[j][i] = x
    return from_rows(rows, m.den)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for row in a.rows:
        out = {}
        for j, x in zip(*row):
            for col, y in zip(*b.rows[j]):
                out[col] = out.get(col, 0) + x * y
        rows.append(out)
    return from_rows(rows, a.den * b.den)


def invert_unitriangular(m: Matrix) -> Matrix:
    """The inverse of an integer matrix with unit diagonal and an acyclic
    off-diagonal pattern (triangular in some order of its indices).  By back
    substitution in a topological order, row i of the inverse is the
    identity row e_i minus the sum of m[i][j] times row j of the inverse
    over j != i.  No diagonal entry divides, so the inverse is integer."""
    k = len(m.rows)
    if m.den != 1:
        raise InternalConsistencyError(f"{k}x{k} matrix is over {m.den}, not an integer matrix")
    after = [dict(zip(*row)) for row in m.rows]
    if any(row.pop(i, 0) != 1 for i, row in enumerate(after)):
        raise InternalConsistencyError(f"{k}x{k} matrix has a diagonal entry other than 1")
    try:
        order = tuple(TopologicalSorter(dict(enumerate(after))).static_order())
    except CycleError:
        raise InternalConsistencyError(f"{k}x{k} matrix has a cycle off the diagonal") from None
    x = [None] * k
    for i in order:  # each row after the rows it needs
        row = {i: 1}
        for j, c in after[i].items():
            for col, y in x[j].items():
                row[col] = row.get(col, 0) - c * y
        x[i] = row
    return from_rows(x)
