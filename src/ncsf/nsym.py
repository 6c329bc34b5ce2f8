"""The free algebra of noncommutative symmetric functions.

Composition-indexed bases: noncommutative elementary ``E``, complete
homogeneous ``H``, ribbon ``R``, noncommutative Schur ``S``, and Young
noncommutative Schur ``YS``.  The space is the ``NSYM`` record of the
graded-space core (``_linear``), with hub basis ``H``; the per-degree
matrices built here are cached:

* E <-> H by the alternating sums over compositions of each part, with
  indices concatenated in order (the algebra is free, so products of the
  generators never collide);
* R -> H by the signed sum over coarsenings, H -> R by the unsigned one;
* R expands in YS and in S by the transposes of the F expansions of the
  dual QSym bases YQS and QS (SYCT counts); S -> H and YS -> H solve those
  unitriangular integer expansions against R -> H by substitution.

The dual pairing with quasisymmetric functions and the forgetful map onto
Sym live here as well.
"""

from fractions import Fraction
from functools import cache
from operator import add

from ._linear import Element, Space, convert, dense_rows, matrix_of, product_terms
from ._linear import transition_matrix as _transition_matrix
from .compositions import (
    check_composition,
    coarsenings,
    composition_index,
    compositions_of,
    refinements,
    reversal,
    underlying_partition,
)
from .linalg import Matrix, matmul, solve_triangular, transpose
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


_QSYM_DUAL = {"S": "QS", "YS": "YQS"}


@cache
def _r_in_schur_matrix(basis: str, n: int) -> Matrix:
    """Row gamma holds the ``basis`` (S or YS) coordinates of the ribbon
    element of gamma: the transpose of the F expansion of the dual QSym
    basis (QS or YQS), since R is dual to F."""
    return transpose(_transition_matrix(QSYM, _QSYM_DUAL[basis], "F", n))


@cache
def _to_h_matrix(basis: str, n: int) -> Matrix:
    comps = compositions_of(n)
    index = composition_index(n)
    if basis == "E":
        # alternating sums over refinements; the same matrix serves H -> E
        rows = (
            {gamma: -1 if (len(gamma) - n) % 2 else 1 for gamma in refinements(alpha)}
            for alpha in comps
        )
        return matrix_of(rows, index)
    if basis == "R":
        rows = (
            {beta: -1 if (len(alpha) - len(beta)) % 2 else 1 for beta in coarsenings(alpha)}
            for alpha in comps
        )
        return matrix_of(rows, index)
    # S, YS
    return solve_triangular(_r_in_schur_matrix(basis, n), _to_h_matrix("R", n))


@cache
def _from_h_matrix(basis: str, n: int) -> Matrix:
    if basis == "E":
        return _to_h_matrix("E", n)
    if basis == "R":
        # H_alpha is the unsigned sum of ribbon elements over coarsenings
        rows = (dict.fromkeys(coarsenings(alpha), 1) for alpha in compositions_of(n))
        return matrix_of(rows, composition_index(n))
    return matmul(_from_h_matrix("R", n), _r_in_schur_matrix(basis, n))  # S, YS


NSYM = Space(
    "NSym", NSYM_BASES, "H", check_composition, compositions_of, composition_index,
    _to_h_matrix, _from_h_matrix,
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
    xh, yh = nsym_convert(x, "H"), nsym_convert(y, "H")
    return nsym_convert(NSymElement._of("H", product_terms(xh.terms, yh.terms, add)), x.basis)


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
