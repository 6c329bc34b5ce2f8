"""Sparse exact linear algebra for transition matrices.

A ``Matrix`` is stored only as sparse rows over one denominator ``den``:
row i is a pair of tuples ``(cols, vals)``, the increasing positions of its
nonzero entries and those entries as ints, each meaning ``val / den``.
``den`` is the least one, so it is 1 for an integer matrix.  Every operation
stays in ``int``: a transpose keeps ``den`` and a product sums ``int``
products over the product of the two denominators.  Matrices are square.
"""

from math import gcd
from typing import NamedTuple

__all__ = ["Matrix", "from_rows", "identity", "matmul", "transpose"]


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
