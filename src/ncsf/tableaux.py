"""Composition diagrams, standard Young composition tableaux, and standard
Young tableaux.

Coordinates are shared across the package: rows are indexed from the bottom
starting at 1, and cell (i, j) is the j-th cell from the left in row i.  A
standard Young composition tableau (SYCT) of shape alpha is a bijective
filling of the diagram of alpha in which

1. every row increases left to right,
2. the first column increases bottom to top,
3. for rows i < j, if the entry at (j, k) is smaller than the entry at
   (i, k+1), then (j, k+1) exists and its entry is also smaller.

SYTs use the matching convention (columns increase bottom to top), so the
column-sorting map ``rho_bar`` lands on valid SYTs without re-indexing.

SYCTs of shape alpha are the saturated chains from () to alpha in the
composition poset (Bessenrodt, Luoto and van Willigenburg, Adv. Math. 226,
2011), entry m being the cell added at step m.  Here a cover adds a new top
row of length 1, or a cell to the highest-index row of each distinct length
k, in column k+1; taking the lowest-index row gives wrong counts from n=3.
SYTs of shape lam are likewise the saturated chains from () to lam in
Young's lattice, a cover adding a corner.  Both kinds are listed
(``_chains``) and counted (``_count_chains``) from their cover rule undone,
without recursion, so no shape is too long for Python's recursion limit.
An SYCT is validated on the chain too (``is_valid_syct``): the three
conditions above are the definition, checked against the chain test in the
tests.  i is a descent of an SYCT when i+1 is in the column of i or further
left.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache

from ._linear import dense_rows
from .compositions import (
    Composition,
    Partition,
    check_composition,
    check_partition,
    comp_of,
    compositions_of,
    underlying_partition,
)
from .errors import DegreeMismatchError, MalformedFillingError
from .linalg import Matrix, from_rows

__all__ = [
    "CompositionDiagram",
    "SYCT",
    "SYT",
    "is_valid_syct",
    "enumerate_syct",
    "descent_composition_syct",
    "rho_bar",
    "enumerate_syt",
    "descent_composition_syt",
    "dhat_matrix",
    "kostka_counts",
]


@dataclass(frozen=True)
class CompositionDiagram:
    """Left-justified array of cells, row i (from the bottom) of length shape[i-1]."""

    shape: Composition

    def __post_init__(self):
        object.__setattr__(self, "shape", check_composition(self.shape))

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i + 1, j + 1)
            for i, length in enumerate(self.shape)
            for j in range(length)
        )


def is_valid_syct(shape: Composition, filling) -> bool:
    """Check that a filling of the diagram of ``shape`` is an SYCT: a
    saturated chain, so for m = n, ..., 1 the cell holding m is one that a
    cover undone (``_syct_uncovers``) removes from the shape left so far.

    ``filling`` maps cells (row, col), rows from the bottom, to entries.
    Raises MalformedFillingError unless it is a bijection from the cells of
    ``shape`` onto {1, ..., n}; returns False only for condition failures.
    """
    shape = check_composition(shape)
    n = sum(shape)
    if set(filling) != set(CompositionDiagram(shape).cells):
        raise MalformedFillingError("filling does not cover exactly the cells of the shape")
    if sorted(filling.values()) != list(range(1, n + 1)):
        raise MalformedFillingError(f"filling values are not a bijection onto [{n}]")
    for last in sorted(filling, key=filling.get, reverse=True):
        for smaller, cell in _syct_uncovers(shape):
            if cell == last:
                shape = smaller
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SYCT:
    """Standard Young composition tableau; ``rows`` are bottom row first."""

    shape: Composition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = check_composition(self.shape)
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        if tuple(len(row) for row in rows) != shape:
            raise MalformedFillingError(f"rows {rows} do not fill shape {shape}")
        filling = {(i + 1, j + 1): x for i, row in enumerate(rows) for j, x in enumerate(row)}
        if not is_valid_syct(shape, filling):
            raise ValueError(f"not a valid SYCT of shape {shape}: {rows}")

    @property
    def size(self) -> int:
        return sum(self.shape)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def reading_word(self) -> tuple[int, ...]:
        return tuple(x for row in self.rows for x in row)


@dataclass(frozen=True)
class SYT:
    """Standard Young tableau of partition shape; ``rows`` are bottom row first,
    so columns increase bottom to top."""

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = check_partition(self.shape)
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        if tuple(len(row) for row in rows) != shape:
            raise MalformedFillingError(f"rows {rows} do not fill shape {shape}")
        n = sum(shape)
        if sorted(x for row in rows for x in row) != list(range(1, n + 1)):
            raise MalformedFillingError(f"filling values are not a bijection onto [{n}]")
        for row in rows:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"rows must increase left to right: {rows}")
        for i in range(len(rows) - 1):
            for j in range(len(rows[i + 1])):
                if rows[i][j] >= rows[i + 1][j]:
                    raise ValueError(f"columns must increase bottom to top: {rows}")

    @property
    def size(self) -> int:
        return sum(self.shape)

    def reading_word(self) -> tuple[int, ...]:
        return tuple(x for row in self.rows for x in row)


def enumerate_syct(alpha) -> tuple[SYCT, ...]:
    """All SYCTs of shape ``alpha``, ordered lexicographically by reading word."""
    return _enumerate_syct(check_composition(alpha))


@cache
def _enumerate_syct(alpha: Composition) -> tuple[SYCT, ...]:
    return tuple(SYCT(alpha, rows) for rows in _chains(alpha, _syct_uncovers))


enumerate_syct.cache_info = _enumerate_syct.cache_info


def descent_composition_syct(tableau: SYCT) -> Composition:
    """comp of { i : i+1 sits in the same column as i or further left }."""
    n = tableau.size
    if n == 0:
        return ()
    col = {value: j for row in tableau.rows for j, value in enumerate(row)}
    descents = [i for i in range(1, n) if col[i + 1] <= col[i]]
    return comp_of(descents, n)


def descent_composition_syt(tableau: SYT) -> Composition:
    """comp of { i : i+1 sits in a higher row than i }."""
    n = tableau.size
    if n == 0:
        return ()
    row_of = {
        value: i for i, row in enumerate(tableau.rows) for value in row
    }
    descents = [i for i in range(1, n) if row_of[i + 1] > row_of[i]]
    return comp_of(descents, n)


def rho_bar(tableau: SYCT) -> SYT:
    """Sort each column increasingly bottom to top and bottom-justify.

    The result is an SYT whose shape is the underlying partition of the
    SYCT's shape.
    """
    shape = tableau.shape
    lam = underlying_partition(shape)
    n_cols = max(shape, default=0)
    columns = []
    for j in range(n_cols):
        columns.append(sorted(row[j] for row in tableau.rows if len(row) > j))
    rows = tuple(
        tuple(columns[j][i] for j in range(lam[i]))
        for i in range(len(lam))
    )
    return SYT(lam, rows)


def enumerate_syt(lam) -> tuple[SYT, ...]:
    """All SYTs of shape ``lam``, ordered lexicographically by reading word."""
    return _enumerate_syt(check_partition(lam))


@cache
def _enumerate_syt(lam: Partition) -> tuple[SYT, ...]:
    return tuple(SYT(lam, rows) for rows in _chains(lam, _syt_uncovers))


def _covers(shape: Composition):
    """The covers of ``shape``, each with the column of its new cell."""
    yield shape + (1,), 1
    for i, k in enumerate(shape):
        if k not in shape[i + 1 :]:
            yield shape[:i] + (k + 1,) + shape[i + 1 :], k + 1


def _syct_uncovers(shape: Composition):
    """The shapes ``shape`` covers, each with the cell (row, column) it lacks:
    ``_covers`` undone."""
    if shape and shape[-1] == 1:
        yield shape[:-1], (len(shape), 1)
    for i, k in enumerate(shape):
        if k > 1 and k - 1 not in shape[i + 1 :]:
            yield shape[:i] + (k - 1,) + shape[i + 1 :], (i + 1, k)


def _syt_uncovers(lam: Partition):
    """The partitions ``lam`` covers, each with the corner (row, column) it lacks."""
    for i, k in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < k:
            yield lam[:i] + ((k - 1,) if k > 1 else ()) + lam[i + 1 :], (i + 1, k)


def _count_chains(shape, uncovers) -> int:
    """The saturated chains from () to ``shape``: the shapes below it are
    collected level by level, then counts are summed upward from ()."""
    below, level = {}, {shape}
    for _ in range(sum(shape)):
        for s in level:
            below[s] = [t for t, _ in uncovers(s)]
        level = {t for s in level for t in below[s]}
    count = {(): 1}
    for s in reversed(below):
        count[s] = sum(count[t] for t in below[s])
    return count[shape]


def _chains(shape, uncovers) -> list:
    """The saturated chains from () to ``shape`` as sorted row tuples, entry
    m in the cell added at step m, by a depth-first walk down from ``shape``.

    Steps are taken last in, first out, so when a step is taken the cells
    of the larger entries still hold the chain it extends."""
    rows, found = [[0] * k for k in shape], [] if shape else [()]
    below = cache(lambda s: [(t, cell, sum(s)) for t, cell in uncovers(s)])
    steps = list(below(shape))
    while steps:
        smaller, (i, j), m = steps.pop()
        rows[i - 1][j - 1] = m
        if smaller:
            steps.extend(below(smaller))
        else:
            found.append(tuple(map(tuple, rows)))
    return sorted(found)


@cache
def dhat_rows(n: int) -> Matrix:
    """``dhat_matrix(n)`` as a stored sparse matrix, by counting chains.

    A state (shape, column of the last cell) counts chains by descent mask,
    bit i-1 for descent i; in canonical order a mask is its column's index.
    """
    if n < 1:
        raise ValueError(f"degree must be positive: {n}")
    level = {((1,), 1): {0: 1}}
    for m in range(2, n + 1):
        step = {}
        for (shape, col), counts in level.items():
            for state in _covers(shape):
                bit = 1 << (m - 2) if state[1] <= col else 0
                out = step.setdefault(state, {})
                for mask, c in counts.items():
                    out[mask | bit] = out.get(mask | bit, 0) + c
        level = step
    rows = {}
    for (shape, _), counts in level.items():
        rows.setdefault(shape, Counter()).update(counts)
    return from_rows(map(rows.__getitem__, compositions_of(n)))


def dhat_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry [shape][descent composition] counts SYCTs, both indices in
    canonical composition order."""
    return dense_rows(dhat_rows(n))


def kostka_counts(lam: Partition, mu: Partition) -> int:
    """Number of semistandard fillings of ``lam`` with content ``mu``.

    Rows weakly increase left to right and columns strictly increase bottom
    to top; entry k is used exactly mu[k-1] times.  Counted level by level:
    a state is the shape filled with the entries up to k, and entry k+1
    adds a horizontal strip of mu[k] cells inside ``lam``, row i growing to
    at most min(lam[i], row i-1 before the strip), listed row by row.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise DegreeMismatchError(f"degrees differ: {lam} vs {mu}")
    level = {(0,) * len(lam): 1}
    for m in mu:
        step = {}
        for shape, count in level.items():
            strips = [((), m)]  # (rows so far, cells left to add)
            for i, (old, top) in enumerate(zip(shape, lam)):
                cap = min(top, shape[i - 1]) if i else top
                strips = [
                    (rows + (old + g,), left - g)
                    for rows, left in strips
                    for g in range(min(cap - old, left) + 1)
                ]
            for rows, left in strips:
                if not left:
                    step[rows] = step.get(rows, 0) + count
        level = step
    return level.get(lam, 0)
