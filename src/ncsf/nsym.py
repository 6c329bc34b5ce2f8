"""The free algebra of noncommutative symmetric functions.

Composition-indexed bases: noncommutative elementary ``E``, complete
homogeneous ``H``, ribbon ``R``, noncommutative Schur ``S``, and Young
noncommutative Schur ``YS``.  The space is the ``NSYM`` record of the
graded-space core (``_linear``), with hub basis ``R``, the dual of QSym's
hub ``F`` under the pairing <F_alpha, R_beta> = delta_{alpha beta}; the
rows built here are cached:

* H, S and YS are dual to QSym's M, QS and YQS.  For such a basis b with
  dual b*, the R_beta coordinate of b_alpha is <F_beta, b_alpha>, the
  b*_alpha coordinate of F_beta: b -> R is QSym's F -> b* transposed, and
  R -> b is b* -> F transposed, two whole matrices for YS.  Row alpha of
  H -> R is built directly, the coarsenings of alpha (its mask's
  submasks), signed for R -> H.  S_alpha is the star image of
  YS_(alpha reversed): S's hops are YS's with both indices reversed.
* E_alpha is the sum of R_beta over the beta refining alpha^c, the
  composition of n whose cut set is the complement of alpha's; in canonical
  order alpha^c sits at alpha's position counted from the end.  So row
  alpha of E -> R is row alpha^c of QSym's F -> M, and R -> E, its Moebius
  inverse, is M -> F with column gamma moved to gamma^c: row beta is row
  beta^c of R -> H.

A product is taken in the left factor's basis when that basis has a rule
of its own, on cut masks, the canonical positions: H and E indices
concatenate, and R_alpha R_beta = R_(alpha.beta) + R_(alpha.beta near)
(Gelfand et al. 1995, section 3).  S and YS products are taken in R.

The dual pairing with quasisymmetric functions and the forgetful map onto
Sym live here as well.
"""

from fractions import Fraction

from ._linear import Element, Space, canonical, convert, dense_rows, multiply, served
from ._linear import transition_matrix as _transition_matrix
from .compositions import check_composition, composition_index, compositions_of, submasks
from .linalg import transpose
from .qsym import QSYM, QSymElement, boolean_row, qsym_convert, reversed_rows
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

def _to_r_rows(basis: str, n: int) -> tuple:
    if basis == "H":
        return 1, lambda a: boolean_row(a, submasks(a), False)
    if basis == "E":
        last = len(compositions_of(n)) - 1
        return 1, lambda a: QSYM.from_hub("M", n)[last ^ a]
    if basis == "YS":
        return served(transpose(_transition_matrix(QSYM, "F", "YQS", n)))
    return reversed_rows(NSYM.to_hub("YS", n), n)


def _from_r_rows(basis: str, n: int) -> tuple:
    if basis == "H":
        return 1, lambda a: boolean_row(a, submasks(a), True)
    if basis == "E":
        last = len(compositions_of(n)) - 1
        return 1, lambda b: NSYM.from_hub("H", n)[last ^ b]
    if basis == "YS":
        return served(transpose(_transition_matrix(QSYM, "YQS", "F", n)))
    return reversed_rows(NSYM.from_hub("YS", n), n)


NSYM = Space(
    "NSym", NSYM_BASES, "R", check_composition, compositions_of, composition_index,
    _to_r_rows, _from_r_rows,
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


def _concatenated(n1: int, n2: int, v1: dict, v2: dict) -> dict:
    """H_alpha H_beta = H_(alpha.beta), and the same for E, on cut masks:
    alpha.beta has the mask i | 1 << (n1-1) | j << n1.  No two pairs meet."""
    cut = 1 << (n1 - 1)
    right = [(j << n1 | cut, b) for j, b in v2.items()]
    return {i | k: a * b for i, a in v1.items() for k, b in right}


def _ribbon(n1: int, n2: int, v1: dict, v2: dict) -> dict:
    """R_alpha R_beta = R_(alpha.beta) + R_(alpha.beta near), on cut masks:
    the near concatenation, which joins the last part of alpha to the first
    of beta, is the concatenation without the cut bit 1 << (n1-1).  No two
    terms meet: the cut bit tells the two kinds apart."""
    cut, out = 1 << (n1 - 1), {}
    right = [(j << n1, b) for j, b in v2.items()]
    for i, a in v1.items():
        for k, b in right:
            out[i | k] = out[i | k | cut] = a * b
    return out


# the bases with a product rule of their own; S and YS multiply in the hub R
_RULES = {"H": _concatenated, "E": _concatenated, "R": _ribbon}


def nsym_multiply(x: NSymElement, y: NSymElement) -> NSymElement:
    """Product in the free algebra, in the basis of ``x``: H and E indices
    concatenate, ribbons follow the ribbon rule, and S and YS products are
    taken in R."""
    return multiply(x, y, _RULES)


def star_antiautomorphism(x: NSymElement) -> NSymElement:
    """The involutive anti-automorphism sending each ribbon element to the
    one indexed by the reversed composition.  Carries S elements to YS
    elements; the image is returned in the R basis."""
    r = nsym_convert(x, "R")
    return NSymElement._of("R", {alpha[::-1]: c for alpha, c in r.terms.items()})


def forgetful_map(x: NSymElement) -> SymElement:
    """The algebra map onto Sym determined by sending the degree-r complete
    homogeneous generator to h_r; returns an h-basis element."""
    xh = nsym_convert(x, "H")
    out = {}
    for alpha, c in xh.terms.items():
        lam = tuple(sorted(alpha, reverse=True))
        out[lam] = out.get(lam, 0) + c
    return SymElement._of("h", canonical(out))


def duality_pairing(q: QSymElement, f: NSymElement) -> int | Fraction:
    """The bilinear pairing with <F_alpha, R_beta> = delta_{alpha beta}."""
    qf = qsym_convert(q, "F")
    fr = nsym_convert(f, "R")
    return sum(c * fr.terms[alpha] for alpha, c in qf.terms.items() if alpha in fr.terms)


def transition_matrix(source: str, target: str, n: int) -> tuple:
    """Row i expands the i-th degree-n ``source`` element in ``target``
    coordinates; rows and columns in canonical composition order."""
    return dense_rows(_transition_matrix(NSYM, source, target, n))
