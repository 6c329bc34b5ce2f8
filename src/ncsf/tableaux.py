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
Young's lattice, a cover adding a corner.  So both are one kind of tableau
(``_Tableau``), each naming its shape checker and its cover rule undone,
the one form of that rule here, with one validator (``_is_chain``), one
lister (``_chains``), one counter (``_count_chains``) and one descent rule:
i is a descent when i+1 is in the column of i or further left, on an SYT
exactly when it is in a higher row.  None of those three recurses, so no
shape is too long for the recursion limit.  D = ``dhat_matrix``, the SYCT
counts by descent composition, is built row by row (``dhat_row``) by a
walk down from each shape that shares every shape below it (cached in
``_chain_ends``), so a whole degree n counts each of the 2^n shapes of
degree <= n once and keeps only those of degree < n.  It recurses to
depth n; its callers first list all 2^(n-1) compositions of n, so n
stays far below the limit.
The constructors check everything; the listers build what the chain walk
made valid without a second check (``_Tableau._of``).  The tests check the
chain test against the conditions of the definitions.  Semistandard fillings
are counted by one walk, ``strip_counts``, for ``kostka_counts`` and h -> s.
"""

from dataclasses import dataclass
from functools import cache

from .compositions import (
    Composition,
    Partition,
    check_composition,
    check_partition,
    comp_of,
    compositions_of,
    underlying_partition,
)
from .errors import DegreeMismatchError, MalformedFillingError, ResourceLimitError

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


def _syct_uncovers(shape: Composition):
    """The shapes ``shape`` covers, each with the cell (row, column) it lacks:
    the cover rule of the composition poset, undone."""
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


def _is_chain(shape, filling, uncovers) -> bool:
    """Whether ``filling`` is a saturated chain from () to ``shape``: for
    m = n, ..., 1 the cell holding m is one that a cover undone
    (``uncovers``) removes from the shape left so far.

    ``filling`` maps cells (row, col), rows from the bottom, to entries.
    Raises MalformedFillingError unless it is a bijection from the cells of
    ``shape`` onto {1, ..., n}.
    """
    n = sum(shape)
    if set(filling) != set(CompositionDiagram(shape).cells):
        raise MalformedFillingError("filling does not cover exactly the cells of the shape")
    if sorted(filling.values()) != list(range(1, n + 1)):
        raise MalformedFillingError(f"filling values are not a bijection onto [{n}]")
    for last in sorted(filling, key=filling.get, reverse=True):
        for smaller, cell in uncovers(shape):
            if cell == last:
                shape = smaller
                break
        else:
            return False
    return True


def is_valid_syct(shape: Composition, filling) -> bool:
    """Whether a filling {(row, col): entry} of the diagram of ``shape`` is
    an SYCT, a saturated chain of the composition poset; raises
    MalformedFillingError as ``_is_chain`` does."""
    return _is_chain(check_composition(shape), filling, _syct_uncovers)


@dataclass(frozen=True)
class _Tableau:
    """A standard tableau, a saturated chain from () to ``shape``; ``rows``
    are bottom row first.  A subclass names its shape checker and its cover
    rule undone."""

    shape: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = self._check_shape(self.shape)
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        if tuple(len(row) for row in rows) != shape:
            raise MalformedFillingError(f"rows {rows} do not fill shape {shape}")
        filling = {(i + 1, j + 1): x for i, row in enumerate(rows) for j, x in enumerate(row)}
        if not _is_chain(shape, filling, self._uncovers):
            raise ValueError(f"not a valid {type(self).__name__} of shape {shape}: {rows}")

    @classmethod
    def _of(cls, shape: tuple[int, ...], rows: tuple[tuple[int, ...], ...]):
        """The tableau of a checked shape and a chain's rows, built as is."""
        t = object.__new__(cls)
        object.__setattr__(t, "shape", shape)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def size(self) -> int:
        return sum(self.shape)

    def reading_word(self) -> tuple[int, ...]:
        return tuple(x for row in self.rows for x in row)


class SYCT(_Tableau):
    """Standard Young composition tableau; ``rows`` are bottom row first."""

    _check_shape = staticmethod(check_composition)
    _uncovers = staticmethod(_syct_uncovers)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]


class SYT(_Tableau):
    """Standard Young tableau of partition shape; ``rows`` are bottom row first,
    so columns increase bottom to top."""

    _check_shape = staticmethod(check_partition)
    _uncovers = staticmethod(_syt_uncovers)


def descent_composition_syct(tableau: _Tableau) -> Composition:
    """comp of { i : i+1 sits in the same column as i or further left }; on
    an SYT, of { i : i+1 sits in a higher row than i }."""
    n = tableau.size
    if n == 0:
        return ()
    col = {value: j for row in tableau.rows for j, value in enumerate(row)}
    descents = [i for i in range(1, n) if col[i + 1] <= col[i]]
    return comp_of(descents, n)


descent_composition_syt = descent_composition_syct


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


def enumerate_syct(alpha) -> tuple[SYCT, ...]:
    """All SYCTs of shape ``alpha``, ordered lexicographically by reading word."""
    return _listing(SYCT, check_composition(alpha))


def enumerate_syt(lam) -> tuple[SYT, ...]:
    """All SYTs of shape ``lam``, ordered lexicographically by reading word."""
    return _listing(SYT, check_partition(lam))


@cache
def _listing(kind: type[_Tableau], shape: tuple[int, ...]) -> tuple:
    """The tableaux of ``kind`` and checked ``shape``, built from their chains
    without a second check."""
    return tuple(kind._of(shape, rows) for rows in _chains(shape, kind._uncovers))


enumerate_syct.cache_info = _listing.cache_info


# the shapes ``_count_chains`` may reach: below (1, ..., 9) lie 409,113,
# below (1, ..., 10) 4,037,913
_MAX_SHAPES = 500_000


def _count_chains(shape, uncovers) -> int:
    """The saturated chains from () to ``shape``, counted level by level down
    from ``shape``, each shape of a level holding the number of chains from
    it up to ``shape``.  Only one level is kept; ResourceLimitError once
    more than ``_MAX_SHAPES`` shapes have been reached."""
    level, reached = {shape: 1}, 1
    for _ in range(sum(shape)):
        step = {}
        for s, count in level.items():
            if reached + len(step) > _MAX_SHAPES:
                raise ResourceLimitError(
                    f"more than {_MAX_SHAPES} shapes lie below {shape}; too many to count through"
                )
            for t, _ in uncovers(s):
                step[t] = step.get(t, 0) + count
        level, reached = step, reached + len(step)
    return level[()]


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


def _ends(shape: Composition) -> dict:
    """The saturated chains from () to ``shape``, counted by (column of the
    cell holding |shape|, descent mask), bit i-1 of the mask set for descent
    i: a walk down from ``shape`` through ``_chain_ends``, the cache of the
    same walk, so each shape below it is walked once; ``shape`` is not kept."""
    if not shape:
        return {(0, 0): 1}
    m, ends = sum(shape), {}
    for smaller, (_, col) in _syct_uncovers(shape):
        for (last, mask), count in _chain_ends(smaller).items():
            key = (col, mask | 1 << (m - 2) if col <= last else mask)
            ends[key] = ends.get(key, 0) + count
    return ends


_chain_ends = cache(_ends)


def dhat_row(alpha: Composition) -> dict:
    """Row ``alpha`` of ``dhat_matrix``, {descent mask: SYCTs of shape
    ``alpha``}; in canonical order a mask is its column's index."""
    row = {}
    for (_, mask), count in _ends(alpha).items():
        row[mask] = row.get(mask, 0) + count
    return row


def dhat_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry [shape][descent composition] counts SYCTs, both indices in
    canonical composition order."""
    if n < 1:
        raise ValueError(f"degree must be positive: {n}")
    comps = compositions_of(n)
    return tuple(tuple(row.get(j, 0) for j in range(len(comps))) for row in map(dhat_row, comps))


@cache
def _strips(shape: Partition, m: int, top: tuple) -> tuple:
    """The shapes inside ``top`` that add a horizontal m-strip to ``shape``."""
    strips = [((), m)]  # (rows so far, cells left to add)
    for old, cap in zip(shape + (0,), map(min, top, top[:1] + shape)):  # min(top[i], row i-1)
        strips = [
            (rows + (old + g,), left - g)
            for rows, left in strips
            for g in range(min(cap - old, left) + 1)
        ]
    return tuple(rows if rows[-1] else rows[:-1] for rows, left in strips if not left)


def strip_counts(top: tuple, mu: Partition) -> dict:
    """The semistandard fillings of content ``mu`` inside ``top``, by shape."""
    level = {(): 1}
    for m in mu:
        step = {}
        for shape, count in level.items():
            for new in _strips(shape, m, top):
                step[new] = step.get(new, 0) + count
        level = step
    return level


def kostka_counts(lam: Partition, mu: Partition) -> int:
    """Number of semistandard fillings of ``lam`` with content ``mu``: rows
    weakly increase left to right, columns strictly bottom to top, and entry
    k is used mu[k-1] times."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise DegreeMismatchError(f"degrees differ: {lam} vs {mu}")
    return strip_counts(lam, mu).get(lam, 0)
