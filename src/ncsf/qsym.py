"""The graded vector space of quasisymmetric functions.

Composition-indexed bases: monomial ``M``, fundamental ``F``, quasisymmetric
Schur ``QS``, and Young quasisymmetric Schur ``YQS``.  The space is the
``QSYM`` record of the graded-space core (``_linear``), with hub basis
``F``; the rows built here are cached:

* F -> M is the refinement sum F_alpha = sum over beta refining alpha of
  M_beta; M -> F is its Moebius inverse, the same sum with the sign
  (-1)^(len(beta) - len(alpha)); a row is built directly from the supersets
  of alpha's cut mask, its canonical position;
* D = YQS -> F has the SYCT counts: entry (alpha, beta) counts SYCTs of
  shape alpha with descent composition beta, each row alone by counting
  chains down from alpha in the composition poset (``tableaux.dhat_row``);
  F -> YQS substitutes over the rows D reaches (D is unitriangular in some
  order; ``_linear.substitution_rows``);
* QS_alpha is the reversal image of YQS_(alpha reversed): QS -> F and
  F -> QS are the YQS hops with both indices reversed (``reversed_rows``).

This module also holds the two bridges with Sym: the monomial embedding
and its partial inverse ``symmetric_part``.
"""

from functools import cache

from ._linear import Element, Space, convert, dense_rows, stored_row, substitution_rows
from ._linear import transition_matrix as _transition_matrix
from .compositions import (
    Composition,
    Partition,
    check_composition,
    check_partition,
    composition_index,
    compositions_of,
    reversal,
    submasks,
    underlying_partition,
)
from .sym import SymElement, sym_convert
from .tableaux import dhat_row

__all__ = [
    "QSYM_BASES",
    "QSymElement",
    "qsym_element",
    "qsym_basis_element",
    "qsym_convert",
    "reversal_automorphism",
    "symmetric_part",
    "embed_sym_in_qsym",
    "transition_matrix",
    "compositions_with_underlying",
]

QSYM_BASES = ("M", "F", "QS", "YQS")


def compositions_with_underlying(lam: Partition) -> tuple[Composition, ...]:
    """All compositions whose parts sort to ``lam``, in canonical order."""
    lam = check_partition(lam)
    return _rearrangements(sum(lam))[lam]


@cache
def _rearrangements(n: int) -> dict:
    """The compositions of n grouped by underlying partition, each group in
    canonical order."""
    groups = {}
    for alpha in compositions_of(n):
        groups.setdefault(underlying_partition(alpha), []).append(alpha)
    return {lam: tuple(group) for lam, group in groups.items()}


def boolean_row(mask: int, cols: list, signed: bool) -> tuple:
    """Row ``mask`` over the masks ``cols`` of a Boolean-lattice zeta matrix
    (entries 1) or, ``signed``, of its Moebius inverse ((-1)^|mask ^ col|)."""
    return tuple(cols), tuple(-1 if signed and (mask ^ col).bit_count() & 1 else 1 for col in cols)


def _refinement_rows(n: int, signed: bool):
    """Row alpha of F -> M, or ``signed`` of M -> F: its mask's supersets."""
    free = len(compositions_of(n)) - 1
    return lambda a: boolean_row(a, [a | sub for sub in submasks(free ^ a)], signed)


def reversed_rows(hop, n: int) -> tuple:
    """The denominator and row builder of the degree-n ``hop`` with both
    indices reversed: row alpha is row alpha^r of ``hop``, each column
    beta moved to beta^r."""
    index = composition_index(n)
    at = [index[reversal(alpha)] for alpha in compositions_of(n)]
    return hop.den, lambda a: stored_row({at[b]: x for b, x in zip(*hop[at[a]])})


def _to_f_rows(basis: str, n: int) -> tuple:
    if basis == "M":
        return 1, _refinement_rows(n, True)
    if basis == "YQS":
        comps = compositions_of(n)
        return 1, lambda a: stored_row(dhat_row(comps[a]))
    return reversed_rows(QSYM.to_hub("YQS", n), n)


def _from_f_rows(basis: str, n: int) -> tuple:
    if basis == "M":
        return 1, _refinement_rows(n, False)
    if basis == "YQS":
        inverse = lambda: QSYM.from_hub("YQS", n)
        return substitution_rows(QSYM.to_hub("YQS", n), inverse, f"degree-{n} YQS -> F")
    return reversed_rows(QSYM.from_hub("YQS", n), n)


QSYM = Space(
    "QSym", QSYM_BASES, "F", check_composition, compositions_of, composition_index,
    _to_f_rows, _from_f_rows,
)


class QSymElement(Element):
    """A rational combination of basis elements, indexed by compositions."""

    space = QSYM


def qsym_element(basis: str, terms) -> QSymElement:
    return QSymElement(basis, dict(terms))


def qsym_basis_element(basis: str, alpha) -> QSymElement:
    return QSymElement(basis, {check_composition(alpha): 1})


def qsym_convert(x: QSymElement, target: str) -> QSymElement:
    """Express ``x`` in the ``target`` basis, degree by degree."""
    return convert(x, target)


def reversal_automorphism(x: QSymElement) -> QSymElement:
    """The involution F_alpha -> F_(alpha reversed); carries YQS_alpha to
    QS_(alpha reversed).  The image is returned in the F basis."""
    f = qsym_convert(x, "F")
    return QSymElement._of("F", {alpha[::-1]: c for alpha, c in f.terms.items()})


def symmetric_part(x: QSymElement):
    """The Sym preimage of ``x`` under the monomial embedding, in the m
    basis, or None if ``x`` is not symmetric."""
    m = qsym_convert(x, "M")
    out = {tuple(sorted(alpha, reverse=True)): c for alpha, c in m.terms.items()}
    for lam, c in out.items():
        for beta in _rearrangements(sum(lam))[lam]:
            if m.terms.get(beta, 0) != c:
                return None
    return SymElement._of("m", out)


def embed_sym_in_qsym(x: SymElement) -> QSymElement:
    """m_mu -> sum of M_alpha over compositions alpha with underlying
    partition mu, extended linearly."""
    xm = sym_convert(x, "m")
    # each composition rearranges one partition: no two terms meet
    out = {alpha: c for lam, c in xm.terms.items() for alpha in _rearrangements(sum(lam))[lam]}
    return QSymElement._of("M", out)


def transition_matrix(source: str, target: str, n: int) -> tuple:
    """Row i expands the i-th degree-n ``source`` element in ``target``
    coordinates; rows and columns in canonical composition order."""
    return dense_rows(_transition_matrix(QSYM, source, target, n))
