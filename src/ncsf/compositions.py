"""Compositions, partitions, and descent sets.

A composition is a tuple of positive integers; a partition is a weakly
decreasing one.  The empty tuple is the unique composition/partition of 0.
These tuples index every basis in the package, so the enumeration orders
fixed here are the canonical row/column orders used everywhere:

* compositions of n: subsets of {1, ..., n-1} read off a binary counter
  (bit i-1 of the counter holds element i), mapped through ``comp_of``, so
  the list starts at (n) and ends at (1, ..., 1);
* partitions of n: reverse lexicographic, from (n) down to (1, ..., 1).

A composition of n is its cut set, its proper partial sums, so refinement
is cut-set inclusion: beta refines alpha when both have the same sum and
the cut set of beta contains that of alpha.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, product
from math import factorial

from .errors import InvalidSubsetError

__all__ = [
    "Composition",
    "Partition",
    "DescentSet",
    "check_composition",
    "check_partition",
    "compositions_of",
    "composition_index",
    "format_composition",
    "partitions_of",
    "partition_index",
    "set_of",
    "comp_of",
    "underlying_partition",
    "reversal",
    "refines",
    "refinements",
    "coarsenings",
    "z_stat",
]

Composition = tuple[int, ...]
Partition = tuple[int, ...]


def check_composition(parts) -> Composition:
    """Return ``parts`` as a composition tuple, or raise ValueError."""
    alpha = tuple(parts)
    for part in alpha:
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"composition parts must be positive integers: {alpha}")
    return alpha


def check_partition(parts) -> Partition:
    """Return ``parts`` as a partition tuple, or raise ValueError."""
    lam = check_composition(parts)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


@dataclass(frozen=True)
class DescentSet:
    """A subset of {1, ..., n-1}, stored sorted ascending."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"degree must be nonnegative: {self.n}")
        elems = tuple(self.elements)
        if any(elems[i] >= elems[i + 1] for i in range(len(elems) - 1)):
            raise InvalidSubsetError(f"elements must be strictly increasing: {elems}")
        for j in elems:
            if not 1 <= j <= self.n - 1:
                raise InvalidSubsetError(f"element {j} outside [{self.n - 1}]")
        object.__setattr__(self, "elements", elems)

    def __iter__(self):
        return iter(self.elements)


def set_of(alpha: Composition) -> DescentSet:
    """The proper partial sums of a nonempty composition, as a DescentSet."""
    alpha = check_composition(alpha)
    if not alpha:
        raise ValueError("set_of requires a nonempty composition")
    sums = tuple(accumulate(alpha))
    return DescentSet(sums[-1], sums[:-1])


def comp_of(subset, n: int) -> Composition:
    """The composition of n whose partial sums are the given subset of [n-1].

    >>> comp_of({2, 6, 7}, 9)
    (2, 4, 1, 2)
    """
    if n < 1:
        raise ValueError(f"degree must be positive: {n}")
    elems = sorted(set(subset))
    for j in elems:
        if not 1 <= j <= n - 1:
            raise InvalidSubsetError(f"element {j} outside [{n - 1}]")
    bounds = [0] + elems + [n]
    return tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


@cache
def compositions_of(n: int) -> tuple[Composition, ...]:
    """All compositions of n in canonical (subset-counter) order."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative: {n}")
    if n == 0:
        return ((),)
    out = []
    for counter in range(1 << (n - 1)):
        subset = [i + 1 for i in range(n - 1) if counter >> i & 1]
        out.append(comp_of(subset, n))
    return tuple(out)


@cache
def composition_index(n: int) -> dict[Composition, int]:
    """Position of each composition of n in canonical order."""
    return {alpha: i for i, alpha in enumerate(compositions_of(n))}


def format_composition(alpha: Composition) -> str:
    """Parts joined by commas; the empty composition is ``0``."""
    return ",".join(str(part) for part in alpha) if alpha else "0"


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative: {n}")

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


@cache
def partition_index(n: int) -> dict[Partition, int]:
    """Position of each partition of n in reverse lexicographic order."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


def underlying_partition(alpha: Composition) -> Partition:
    """Parts of ``alpha`` sorted weakly decreasing."""
    return tuple(sorted(check_composition(alpha), reverse=True))


def reversal(alpha: Composition) -> Composition:
    """Parts of ``alpha`` in reverse order."""
    return tuple(reversed(check_composition(alpha)))


def refines(beta: Composition, alpha: Composition) -> bool:
    """True iff ``beta`` refines ``alpha``: equal sums, and every partial
    sum of ``alpha`` is one of ``beta``."""
    beta = check_composition(beta)
    alpha = check_composition(alpha)
    return sum(beta) == sum(alpha) and set(accumulate(alpha)) <= set(accumulate(beta))


@cache
def refinements(alpha: Composition) -> tuple[Composition, ...]:
    """All compositions refining ``alpha``, i.e. all beta with beta ⪯ alpha."""
    alpha = check_composition(alpha)
    out = []
    for pieces in product(*(compositions_of(part) for part in alpha)):
        out.append(tuple(x for piece in pieces for x in piece))
    return tuple(out)


@cache
def coarsenings(alpha: Composition) -> tuple[Composition, ...]:
    """All compositions that ``alpha`` refines (alpha ⪯ beta): those whose
    cut masks, their canonical positions, are submasks of the cut mask of
    ``alpha``, listed in increasing order."""
    alpha = check_composition(alpha)
    n = sum(alpha)
    comps = compositions_of(n)
    return tuple(map(comps.__getitem__, submasks(composition_index(n)[alpha])))


def submasks(mask: int) -> list[int]:
    """The submasks of ``mask``, in increasing order."""
    out, sub = [0], 0
    while sub != mask:
        sub = (sub - mask) & mask  # the next submask of mask
        out.append(sub)
    return out


def z_stat(mu: Partition) -> int:
    """The centralizer order prod_i i^{m_i} m_i! of a permutation of cycle type mu."""
    return _z(check_partition(mu))


def _z(mu: Partition) -> int:
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part**m * factorial(m)
    return z


@cache
def _z_table(n: int) -> tuple[int, ...]:
    """``z_stat`` of each partition of n, in canonical order."""
    return tuple(map(_z, partitions_of(n)))
