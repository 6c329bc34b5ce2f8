"""The algebra of symmetric functions over the rationals.

Elements are sparse rational combinations of partition-indexed basis
elements in one of five bases: elementary ``e``, complete homogeneous
``h``, power sum ``p``, monomial ``m``, and Schur ``s``.  The space is the
``SYM`` record of the graded-space core (``_linear``), with hub basis
``h``; conversions and transition matrices are the core's, reading the
rows built here once and cached.  Row lam is built directly for

* e <-> h and p <-> h, the product over the parts r of lam of e_r in h
  (an alternating sum over compositions), p_r in h (the Newton recurrence
  r*h_r = sum_k p_k h_{r-k}) or h_r = sum over mu of p_mu / z_mu in p,
* h -> s, the Kostka column K_(. lam) by the Pieri rule, a strip per part
  (``tableaux.strip_counts``), and s -> h by substitution over the Pieri
  rows: K_(lam mu) is 0 unless lam dominates mu, so row lam is built over
  the rows of the partitions dominating lam (``_linear.substitution_rows``);

m <-> h are whole matrices, by Hall duality (h and m are dual, the Schur
functions orthonormal): m in s is s in h transposed, s in m is h in s
transposed, m -> h is (s -> h)^T (s -> h) and h -> m is (h -> s)(h -> s)^T.

Only the h -> p rows have entries that are not integers: r! h_r has
integer p coordinates, so they are stored over n!, the least denominator.

The e, h and p bases are multiplicative: a product in one of them merges
the indices, read from a cached table of positions per pair of degrees.
An m or s product is taken in h.  The e, p and h -> p rows are products
of their generators' rows under the same rule.
"""

from functools import cache
from math import factorial, prod

from ._linear import Element, Space, convert, dense_rows, multiply, served, stored_row
from ._linear import substitution_rows, transition_matrix as _transition_matrix
from .compositions import Partition, _z_table, check_partition, partition_index, partitions_of
from .linalg import matmul, transpose
from .tableaux import strip_counts

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


@cache
def _alternating_row(r: int) -> dict:
    """sum over compositions beta of r of (-1)^(len(beta)-r), collected by
    underlying partition lam, which len(lam)!/prod_i m_i(lam)! of them
    share, on the positions of lam.  Expands e_r in h, and equally h_r in e."""
    out = {}
    for i, lam in enumerate(partitions_of(r)):
        count = factorial(len(lam)) // prod(factorial(lam.count(part)) for part in set(lam))
        out[i] = -count if (len(lam) - r) % 2 else count
    return out


@cache
def _p_in_h(r: int) -> dict:
    """p_r = r*h_r - sum_{k<r} p_k h_{r-k}, on positions: (r,) is at 0."""
    out = {0: r}
    for k in range(1, r):
        for j, c in _merged(k, r - k, _p_in_h(k), {0: -1}).items():
            out[j] = out.get(j, 0) + c
    return out


@cache
def _h_in_p(r: int) -> dict:
    """r! h_r = sum over the partitions mu of r of (r!/z_mu) p_mu, on positions."""
    return {i: factorial(r) // z for i, z in enumerate(_z_table(r))}


def _multiplicative(generator_row, n: int, scale=lambda lam: 1):
    """The builder of row lam: ``scale(lam)`` times the product over the
    parts r of lam of ``generator_row(r)``, merged on positions."""
    parts = partitions_of(n)

    def row(i):
        vector, degree = {0: scale(parts[i])}, 0
        for r in parts[i]:
            vector = _merged(degree, r, vector, generator_row(r))
            degree += r
        return stored_row(vector)

    return row


def _to_h_rows(basis: str, n: int) -> tuple:
    if basis == "e":
        return 1, _multiplicative(_alternating_row, n)
    if basis == "p":
        return 1, _multiplicative(_p_in_h, n)
    if basis == "s":
        inverse = lambda: SYM.to_hub("s", n)
        return substitution_rows(SYM.from_hub("s", n), inverse, f"degree-{n} h -> s")
    s_in_h = _transition_matrix(SYM, "s", "h", n)
    return served(matmul(transpose(s_in_h), s_in_h))  # m in s, then s in h


def _from_h_rows(basis: str, n: int) -> tuple:
    if basis == "e":
        return 1, SYM.to_hub("e", n).__getitem__
    if basis == "p":  # n! h_lam = (n!/prod_i lam_i!) prod_i (lam_i! h_lam_i)
        scale = lambda lam: factorial(n) // prod(map(factorial, lam))
        return factorial(n), _multiplicative(_h_in_p, n, scale)
    if basis == "s":  # Pieri: row mu is the Kostka column K_(. mu), a strip per part
        mus, index, top = partitions_of(n), partition_index(n), (n,) * n
        return 1, lambda i: stored_row({index[s]: c for s, c in strip_counts(top, mus[i]).items()})
    h_in_s = _transition_matrix(SYM, "h", "s", n)
    return served(matmul(h_in_s, transpose(h_in_s)))  # h in s, then s in m


SYM = Space(
    "Sym", SYM_BASES, "h", check_partition, partitions_of, partition_index,
    _to_h_rows, _from_h_rows,
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


@cache
def _merged_positions(n1: int, n2: int, i: int) -> tuple:
    """Row i of the position table of (n1, n2): the position of partition i
    of n1 merged with each partition of n2, in order."""
    lam, index = partitions_of(n1)[i], partition_index(n1 + n2)
    return tuple(index[_merge(lam, mu)] for mu in partitions_of(n2))


def _merged(n1: int, n2: int, v1: dict, v2: dict) -> dict:
    """b_lam b_mu = b_(lam merged with mu) for b in e, h and p, on positions."""
    out = {}
    for i, a in v1.items():
        row = _merged_positions(n1, n2, i)
        for j, b in v2.items():
            k = row[j]
            out[k] = out.get(k, 0) + a * b
    return out


# the multiplicative bases; m and s multiply in the hub h
_RULES = dict.fromkeys("ehp", _merged)


def sym_multiply(x: SymElement, y: SymElement) -> SymElement:
    """Product in Sym, in the basis of ``x``: e, h and p indices merge, and
    m and s products are taken in h."""
    return multiply(x, y, _RULES)


def schur(lam) -> SymElement:
    """The Schur function of shape ``lam`` in the h basis: its s -> h row,
    substituted over the Pieri rows of h -> s."""
    return convert(sym_basis_element("s", lam), "h")


def transition_matrix(source: str, target: str, n: int) -> tuple:
    """Row i expands the i-th degree-n ``source`` element in ``target``
    coordinates; rows and columns in reverse lexicographic partition order."""
    return dense_rows(_transition_matrix(SYM, source, target, n))
