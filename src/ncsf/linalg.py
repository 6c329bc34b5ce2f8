"""Dense exact linear algebra for transition matrices; entries are int or
Fraction."""

from fractions import Fraction

from .errors import InternalConsistencyError

__all__ = [
    "Matrix", "identity", "matmul", "invert", "invert_unitriangular", "is_identity", "transpose",
]

Matrix = tuple[tuple[int | Fraction, ...], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for row in a:
        out = [0] * (len(b[0]) if b else 0)
        for coeff, brow in zip(row, b):
            if not coeff:
                continue
            for j, entry in enumerate(brow):
                if entry:
                    out[j] += coeff * entry
        rows.append(tuple(out))
    return tuple(rows)


def invert(m: Matrix) -> Matrix:
    """Gauss-Jordan inverse; exact, no pivoting heuristics needed over Q."""
    k = len(m)
    aug = [
        [Fraction(x) for x in row] + [_ONE if i == j else _ZERO for j in range(k)]
        for i, row in enumerate(m)
    ]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise InternalConsistencyError(
                f"singular {k}x{k} matrix; a claimed basis is not a basis"
            )
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        if scale != 1:
            aug[col] = [x / scale for x in aug[col]]
        for r in range(k):
            if r == col or not aug[r][col]:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)


def invert_unitriangular(m: Matrix) -> Matrix:
    """The inverse of a matrix with unit diagonal whose off-diagonal pattern
    is acyclic, i.e. unitriangular in some order of its indices.  Row i of
    the inverse is e_i minus the sum of m[i][j] times row j over j != i, so
    rows are solved by back substitution in a topological order; no
    division, so integer entries give an integer inverse."""
    k = len(m)
    if any(m[i][i] != 1 for i in range(k)):
        raise InternalConsistencyError(f"{k}x{k} matrix has a diagonal entry other than 1")
    after = [{j: x for j, x in enumerate(row) if x and j != i} for i, row in enumerate(m)]
    before = [[] for _ in range(k)]
    for i, row in enumerate(after):
        for j in row:
            before[j].append(i)
    unsolved = [len(row) for row in after]
    order = [i for i in range(k) if not unsolved[i]]
    inverse = [None] * k
    for i in order:  # grows as rows become solvable
        row = {i: 1}
        for j, x in after[i].items():
            for col, y in inverse[j].items():
                row[col] = row.get(col, 0) - x * y
        inverse[i] = row
        for p in before[i]:
            unsolved[p] -= 1
            if not unsolved[p]:
                order.append(p)
    if len(order) < k:
        raise InternalConsistencyError(
            f"{k}x{k} matrix has a cycle off the diagonal; it is not unitriangular in any order"
        )
    return tuple(tuple(row.get(col, 0) for col in range(k)) for row in inverse)


def is_identity(m: Matrix) -> bool:
    return all(
        entry == (1 if i == j else 0)
        for i, row in enumerate(m)
        for j, entry in enumerate(row)
    )
