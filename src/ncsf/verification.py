"""Named verification suites over a single degree.

Each suite returns a VerificationReport whose checks are exact identities:

* ``main-theorem``: theta of the descent-algebra preimage of each (Young)
  noncommutative Schur element equals the irreducible character of the
  underlying partition;
* ``duality``: the four dual-basis pairing matrices are identity matrices;
* ``solomon``: products of contained-descent-set sums stay in the descent
  span and theta takes them to pointwise products of Young characters.
  Closure is checked in S_n once per product of two equal-descent-set
  class sums, which ``convolve`` keeps, so the 4^(n-1) products form
  (n!)^2 permutation products in all;
* ``square``: the commuting square relating theta, psi, ch, and the
  forgetful map;
* ``all``: everything above, in that order.

Each suite is one check generator in a registry, so no suite computes
another's checks.
"""

from operator import mul

from .characters import (
    Check,
    VerificationReport,
    _theta_values,
    _witness,
    _young_values,
    character_checks,
    square_checks,
)
from .compositions import compositions_of, format_composition
from .descent import convolve, xi
from .errors import NotInDescentSpanError
from ._linear import dense_rows, transition_matrix
from .linalg import identity, matmul, transpose
from .nsym import NSYM
from .qsym import QSYM

__all__ = ["SUITES", "run_suite"]

_DUAL_PAIRS = (("M", "H"), ("F", "R"), ("QS", "S"), ("YQS", "YS"))


def duality_matrix(qsym_basis: str, nsym_basis: str, n: int):
    """The degree-n pairing matrix of two bases: entry (alpha, beta) is the
    pairing of the QSym element of alpha with the NSym element of beta.
    F and R are dual, so it is the product of the F expansion of one basis
    with the transposed R expansion of the other.  NSym's R expansions are
    QSym's from-F matrices transposed, so each check is that a QSym basis's
    to-F and from-F builders are inverses."""
    return matmul(
        transition_matrix(QSYM, qsym_basis, "F", n),
        transpose(transition_matrix(NSYM, nsym_basis, "R", n)),
    )


def _duality_checks(n: int):
    for qsym_basis, nsym_basis in _DUAL_PAIRS:
        pairing = duality_matrix(qsym_basis, nsym_basis, n)
        passed = pairing == identity(len(pairing.rows))
        witness = "" if passed else f"pairing matrix {dense_rows(pairing)}"
        yield Check(f"duality/{qsym_basis}:{nsym_basis}", passed, witness)


def _solomon_checks(n: int):
    """theta of each product xi_alpha xi_beta against the pointwise product
    of the Young characters of alpha and beta, compared as ``int`` values."""
    xis = {alpha: xi(alpha) for alpha in compositions_of(n)}
    young = {alpha: _young_values(alpha) for alpha in xis}
    for alpha, xi_alpha in xis.items():
        for beta, xi_beta in xis.items():
            name = f"solomon/{format_composition(alpha)};{format_composition(beta)}"
            try:
                got = _theta_values(convolve(xi_alpha, xi_beta))
            except NotInDescentSpanError:
                yield Check(name, False, "product left the descent span")
                continue
            want = tuple(map(mul, young[alpha], young[beta]))
            passed = got == want
            yield Check(name, passed, "" if passed else _witness(n, got, want))


_CHECKS = {
    "main-theorem": character_checks,
    "duality": _duality_checks,
    "solomon": _solomon_checks,
    "square": square_checks,
}

SUITES = (*_CHECKS, "all")


def run_suite(suite: str, n: int) -> VerificationReport:
    if suite == "all":
        generators = _CHECKS.values()
    elif suite in _CHECKS:
        generators = (_CHECKS[suite],)
    else:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    return VerificationReport(n, tuple(check for checks in generators for check in checks(n)))
