"""The free algebra of noncommutative symmetric functions.

Composition-indexed bases: noncommutative elementary ``E``, complete
homogeneous ``H``, ribbon ``R``, noncommutative Schur ``S``, and Young
noncommutative Schur ``YS``.  The space is the ``NSYM`` record of the
graded-space core (``_linear``), with hub basis ``R``, the dual of QSym's
hub ``F`` under the pairing <F_alpha, R_beta> = delta_{alpha beta}; the
per-degree matrices built here are cached:

* H, S and YS are dual to QSym's M, QS and YQS.  For such a basis b with
  dual b*, the R_beta coordinate of b_alpha is <F_beta, b_alpha>, the
  b*_alpha coordinate of F_beta: b -> R is QSym's F -> b* transposed, and
  R -> b is b* -> F transposed.
* E_alpha is the sum of R_beta over the beta refining alpha^c, the
  composition of n whose cut set is the complement of alpha's; in canonical
  order alpha^c sits at alpha's position counted from the end.  So E -> R
  is F -> M with row alpha moved to alpha^c, and R -> E, its Moebius
  inverse, is M -> F with column gamma moved to gamma^c: R_beta is the sum
  of (-1)^(len(beta^c) - len(gamma)) E_gamma over the coarsenings gamma of
  beta^c.

The dual pairing with quasisymmetric functions and the forgetful map onto
Sym live here as well.
"""

from fractions import Fraction
from functools import cache
from operator import add

from ._linear import Element, Space, convert, dense_rows, multiply
from ._linear import transition_matrix as _transition_matrix
from .compositions import (
    check_composition,
    composition_index,
    compositions_of,
    reversal,
    underlying_partition,
)
from .linalg import Matrix, from_rows, transpose
from .qsym import QSYM, QSymElement, qsym_convert
from .sym import SymElement

__all__ = [
    "NSYM_BASES",
    "NSymElement",
    "nsym_element",
    "nsym_basis_element",
    "nsym_convert",
    "nsym_multiply",
    "star_antiautomorphism",
    "forgetful_map",
    "duality_pairing",
    "transition_matrix",
]

NSYM_BASES = ("E", "H", "R", "S", "YS")

# the QSym basis dual to each NSym basis but E and the hub
_QSYM_DUAL = {"H": "M", "S": "QS", "YS": "YQS"}


@cache
def _to_r_matrix(basis: str, n: int) -> Matrix:
    if basis == "E":  # row alpha is row alpha^c of F -> M
        return Matrix(QSYM.from_hub("M", n).rows[::-1])
    return transpose(QSYM.from_hub(_QSYM_DUAL[basis], n))


@cache
def _from_r_matrix(basis: str, n: int) -> Matrix:
    if basis == "E":  # M -> F with column gamma moved to gamma^c
        last = len(compositions_of(n)) - 1
        return from_rows({last - j: x for j, x in zip(*row)} for row in QSYM.to_hub("M", n).rows)
    return transpose(QSYM.to_hub(_QSYM_DUAL[basis], n))


NSYM = Space(
    "NSym", NSYM_BASES, "R", check_composition, compositions_of, composition_index,
    _to_r_matrix, _from_r_matrix,
)


class NSymElement(Element):
    """A rational combination of basis elements, indexed by compositions."""

    space = NSYM


def nsym_element(basis: str, terms) -> NSymElement:
    return NSymElement(basis, dict(terms))


def nsym_basis_element(basis: str, alpha) -> NSymElement:
    return NSymElement(basis, {check_composition(alpha): 1})


def nsym_convert(x: NSymElement, target: str) -> NSymElement:
    """Express ``x`` in the ``target`` basis, degree by degree."""
    return convert(x, target)


def nsym_multiply(x: NSymElement, y: NSymElement) -> NSymElement:
    """Product in the free algebra: indices concatenate in the H basis."""
    return multiply(x, y, "H", add)


def star_antiautomorphism(x: NSymElement) -> NSymElement:
    """The involutive anti-automorphism sending each ribbon element to the
    one indexed by the reversed composition.  Carries S elements to YS
    elements; the image is returned in the R basis."""
    r = nsym_convert(x, "R")
    return NSymElement("R", {reversal(alpha): c for alpha, c in r.terms.items()})


def forgetful_map(x: NSymElement) -> SymElement:
    """The algebra map onto Sym determined by sending the degree-r complete
    homogeneous generator to h_r; returns an h-basis element."""
    xh = nsym_convert(x, "H")
    out = {}
    for alpha, c in xh.terms.items():
        lam = underlying_partition(alpha)
        out[lam] = out.get(lam, 0) + c
    return SymElement("h", out)


def duality_pairing(q: QSymElement, f: NSymElement) -> int | Fraction:
    """The bilinear pairing with <F_alpha, R_beta> = delta_{alpha beta}."""
    qf = qsym_convert(q, "F")
    fr = nsym_convert(f, "R")
    return sum(c * fr.terms[alpha] for alpha, c in qf.terms.items() if alpha in fr.terms)


def transition_matrix(source: str, target: str, n: int) -> tuple:
    """Row i expands the i-th degree-n ``source`` element in ``target``
    coordinates; rows and columns in canonical composition order."""
    return dense_rows(_transition_matrix(NSYM, source, target, n))
