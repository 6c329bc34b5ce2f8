"""The algebra of symmetric functions over the rationals.

Elements are sparse rational combinations of partition-indexed basis
elements in one of five bases: elementary ``e``, complete homogeneous
``h``, power sum ``p``, monomial ``m``, and Schur ``s``.  The space is the
``SYM`` record of the graded-space core (``_linear``), with hub basis
``h``; conversions and transition matrices are the core's, applied to the
per-degree matrices built here once and cached:

* e <-> h by the alternating sums over compositions of each part,
* p <-> h by the Newton recurrences r*h_r = sum_k p_k h_{r-k},
* s -> h by the Jacobi-Trudi determinant, h -> s by inverting it by
  substitution (it is unitriangular in dominance order),
* m <-> h by Hall duality: h and m are dual bases and the Schur functions
  are orthonormal, so m in s is s in h transposed and s in m is h in s
  transposed; m -> h is (s -> h)^T (s -> h) and h -> m is (h -> s)(h -> s)^T.

Only the h -> p matrix has entries that are not integers.
"""

from fractions import Fraction
from functools import cache

from ._linear import Element, Space, convert, dense_rows, matrix_of, multiply, product_terms
from ._linear import transition_matrix as _transition_matrix
from .compositions import (
    Partition,
    check_partition,
    compositions_of,
    partition_index,
    partitions_of,
)
from .linalg import Matrix, invert_unitriangular, matmul, transpose

__all__ = [
    "SYM_BASES",
    "SymElement",
    "sym_element",
    "sym_basis_element",
    "sym_convert",
    "sym_multiply",
    "schur",
    "transition_matrix",
]

SYM_BASES = ("e", "h", "p", "m", "s")


def _merge(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


def _product_row(factors) -> dict:
    """Product of expansions over a multiplicative partition-indexed basis."""
    row = {(): 1}
    for factor in factors:
        row = product_terms(row, factor, _merge)
    return row


@cache
def _alternating_row(r: int) -> dict:
    """sum over compositions beta of r of (-1)^(len(beta)-r), collected by
    underlying partition.  Expands e_r in h, and equally h_r in e."""
    out = {}
    for beta in compositions_of(r):
        idx = tuple(sorted(beta, reverse=True))
        sign = -1 if (len(beta) - r) % 2 else 1
        out[idx] = out.get(idx, 0) + sign
    return {k: v for k, v in out.items() if v}


@cache
def _p_in_h(r: int) -> dict:
    """p_r = r*h_r - sum_{k<r} p_k h_{r-k}."""
    if r == 0:
        return {(): 1}
    out = {(r,): r}
    for k in range(1, r):
        for idx, c in _p_in_h(k).items():
            midx = _merge(idx, (r - k,))
            out[midx] = out.get(midx, 0) - c
    return {k: v for k, v in out.items() if v}


@cache
def _h_in_p(r: int) -> dict:
    """h_r = (1/r) sum_{k=1..r} p_k h_{r-k}."""
    if r == 0:
        return {(): Fraction(1)}
    out = {}
    for k in range(1, r + 1):
        for idx, c in _h_in_p(r - k).items():
            midx = _merge(idx, (k,))
            out[midx] = out.get(midx, Fraction(0)) + Fraction(c, r)
    return {k: v for k, v in out.items() if v}


@cache
def _jacobi_trudi_h(lam: Partition) -> dict:
    """det(h_{lam_i - i + j}) expanded as a signed sum over the permutations
    whose every h index is nonnegative, h-indexed.  Rows are assigned
    columns depth first; taking the free column of rank r flips the sign r
    times, once per smaller free column left for a later row.  Row k needs
    a column j >= k - lam[k], a bound that grows with k, so a branch that
    leaves a column free below the next row's bound is dropped: every
    branch taken ends in a term."""
    out = {}

    def expand(i, free, sign, exps):
        if i == len(lam):
            idx = tuple(sorted((e for e in exps if e), reverse=True))
            out[idx] = out.get(idx, 0) + sign
            return
        for rank, j in enumerate(free):
            rest = free[:rank] + free[rank + 1 :]
            if rest and rest[0] < i + 1 - lam[i + 1]:
                continue
            expand(i + 1, rest, -sign if rank % 2 else sign, exps + (lam[i] - i + j,))

    expand(0, tuple(range(len(lam))), 1, ())
    return {k: v for k, v in out.items() if v}


def _multiplicative(generator_row, n: int) -> Matrix:
    """Row lam: the product over the parts r of lam of ``generator_row(r)``."""
    rows = (_product_row(map(generator_row, lam)) for lam in partitions_of(n))
    return matrix_of(rows, partition_index(n))


@cache
def _to_h_matrix(basis: str, n: int) -> Matrix:
    if basis == "e":
        return _multiplicative(_alternating_row, n)
    if basis == "p":
        return _multiplicative(_p_in_h, n)
    if basis == "s":
        return matrix_of(map(_jacobi_trudi_h, partitions_of(n)), partition_index(n))
    s_in_h = _to_h_matrix("s", n)
    return matmul(transpose(s_in_h), s_in_h)  # m in s, then s in h


@cache
def _from_h_matrix(basis: str, n: int) -> Matrix:
    if basis == "e":
        return _to_h_matrix("e", n)
    if basis == "p":
        return _multiplicative(_h_in_p, n)
    if basis == "s":
        return invert_unitriangular(_to_h_matrix("s", n))
    h_in_s = _from_h_matrix("s", n)
    return matmul(h_in_s, transpose(h_in_s))  # h in s, then s in m


SYM = Space(
    "Sym", SYM_BASES, "h", check_partition, partitions_of, partition_index,
    _to_h_matrix, _from_h_matrix,
)


class SymElement(Element):
    """A rational combination of basis elements, indexed by partitions."""

    space = SYM


def sym_element(basis: str, terms) -> SymElement:
    return SymElement(basis, dict(terms))


def sym_basis_element(basis: str, lam) -> SymElement:
    return SymElement(basis, {check_partition(lam): 1})


def sym_convert(x: SymElement, target: str) -> SymElement:
    """Express ``x`` in the ``target`` basis, degree by degree."""
    return convert(x, target)


def sym_multiply(x: SymElement, y: SymElement) -> SymElement:
    """Product in Sym: indices merge in the multiplicative hub basis h."""
    return multiply(x, y, "h", _merge)


def schur(lam) -> SymElement:
    """The Schur function of shape ``lam``, in the h basis, via Jacobi-Trudi."""
    return SymElement("h", dict(_jacobi_trudi_h(check_partition(lam))))


def transition_matrix(source: str, target: str, n: int) -> tuple:
    """Row i expands the i-th degree-n ``source`` element in ``target``
    coordinates; rows and columns in reverse lexicographic partition order."""
    return dense_rows(_transition_matrix(SYM, source, target, n))
