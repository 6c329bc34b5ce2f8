"""Class functions of symmetric groups and the character-level maps.

A class function of degree n stores one exact rational per partition of n
(the cycle types).  The characteristic map ``frobenius_ch`` sends it to
the z-weighted power-sum expansion; its inverse reads the values back off
the power-sum coordinates and insists they are integers, which catches
pipeline corruption early.  Young characters are read off the power sums
that way; irreducible characters are not: a memoized walk removes border
strips from the beta-set of the shape (the Murnaghan-Nakayama rule) and
reads no Sym row, so the expected value of the main theorem shares no
code with the ``theta`` side.  ``theta`` evaluates descent-algebra
elements as class functions through the ribbon characters, Moebius sums
of Young characters, and ``verify_main_theorem`` checks, for one degree,
that the preimages of the (Young) noncommutative Schur elements are
noncommutative irreducible characters, together with the commuting square
relating the four maps.  The checks compare ``int`` value vectors
(``_theta_values``); a ``ClassFunction`` is built only to print a failure
witness.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from ._linear import canonical
from .compositions import (
    Composition,
    _z_table,
    check_composition,
    check_partition,
    composition_index,
    compositions_of,
    format_composition,
    partitions_of,
    underlying_partition,
)
from .descent import GroupAlgebraElement, psi, psi_inverse, xi
from .errors import DegreeMismatchError, InternalConsistencyError
from .nsym import NSymElement, forgetful_map
from .sym import SymElement, sym_convert, sym_multiply

__all__ = [
    "ClassFunction",
    "class_function",
    "frobenius_ch",
    "ch_inverse",
    "young_character",
    "irreducible_character",
    "class_products",
    "theta",
    "noncommutative_character",
    "Check",
    "VerificationReport",
    "verify_main_theorem",
]


@dataclass(frozen=True)
class ClassFunction:
    """A map from the partitions of n (cycle types) to exact rationals.
    Unlike element coefficients, every value is stored as a ``Fraction``,
    even an integral one, so that dividing a value stays exact."""

    n: int
    values: dict

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"degree must be nonnegative: {self.n}")
        expected = partitions_of(self.n)
        out = {}
        for mu, value in dict(self.values).items():
            mu = check_partition(mu)
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"values must be exact (int or Fraction): {value!r}")
            out[mu] = Fraction(value)
        if set(out) != set(expected):
            raise ValueError(
                f"class function of degree {self.n} needs exactly one value per"
                f" partition of {self.n}"
            )
        object.__setattr__(self, "values", {mu: out[mu] for mu in expected})

    @classmethod
    def _of(cls, n: int, values: dict):
        """The class function of ``values``, a ``Fraction`` for each
        partition of n in canonical order, built from checked ones, as is."""
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "values", values)
        return f

    def __call__(self, mu) -> Fraction:
        mu = check_partition(mu)
        if sum(mu) != self.n:
            raise DegreeMismatchError(
                f"cycle type {mu} has degree {sum(mu)}; the class function has degree {self.n}"
            )
        return self.values[mu]


def class_function(n: int, values) -> ClassFunction:
    return ClassFunction(n, dict(values))


def frobenius_ch(f: ClassFunction) -> SymElement:
    """sum over cycle types mu of f(mu)/z_mu times the power sum of mu."""
    terms = {
        mu: Fraction(value, z) for (mu, value), z in zip(f.values.items(), _z_table(f.n))
    }
    return SymElement._of("p", canonical(terms))


def ch_inverse(g: SymElement) -> ClassFunction:
    """The class function whose characteristic is ``g``; requires ``g``
    homogeneous and raises InternalConsistencyError on non-integer values."""
    gp = sym_convert(g, "p")
    degrees = gp.degrees()
    if len(degrees) != 1:
        raise DegreeMismatchError(
            f"ch_inverse requires a homogeneous element; found degrees {sorted(degrees)}"
        )
    n = degrees.pop()
    values = {}
    for mu, z in zip(partitions_of(n), _z_table(n)):
        value = z * gp.terms.get(mu, 0)
        if value.denominator != 1:
            raise InternalConsistencyError(
                f"non-integral character value {value} at cycle type {mu}"
            )
        values[mu] = Fraction(value)
    return ClassFunction._of(n, values)


def _class_function(n: int, values) -> ClassFunction:
    """The class function of degree ``n`` whose values over the partitions
    of n, in order, are ``values``."""
    return ClassFunction._of(n, dict(zip(partitions_of(n), map(Fraction, values))))


def young_character(alpha) -> ClassFunction:
    """The character induced by the trivial character of the Young subgroup
    of ``alpha``; depends only on the underlying partition."""
    return _young_character(underlying_partition(alpha))


@cache
def _young_character(lam) -> ClassFunction:
    return ch_inverse(SymElement("h", {lam: 1}))


young_character.cache_info = _young_character.cache_info


def _young_values(alpha) -> tuple:
    """The integer values of ``young_character(alpha)``, in order."""
    return tuple(value.numerator for value in young_character(alpha).values.values())


def irreducible_character(lam) -> ClassFunction:
    """The irreducible character of shape ``lam``, by the
    Murnaghan-Nakayama rule (``_irreducible_values``)."""
    return _irreducible_character(check_partition(lam))


@cache
def _irreducible_character(lam) -> ClassFunction:
    return _class_function(sum(lam), _irreducible_values(lam))


@cache
def _irreducible_values(lam) -> tuple:
    """The values of the irreducible character of shape ``lam`` over the
    partitions of |lam|, in order, as ``int``s.  The shape is held as the
    bit mask of its beta-set, the beads lam_i + len(lam) - i."""
    beads = sum(1 << (part + len(lam) - i) for i, part in enumerate(lam, 1))
    return tuple(_strip_walk(beads, mu) for mu in partitions_of(sum(lam)))


@cache
def _strip_walk(beads: int, mu) -> int:
    """chi^nu(mu) for the shape nu of the beta-set ``beads`` whose lowest
    bead is not at 0, by the Murnaghan-Nakayama rule (Macdonald I.7):
    removing a border strip of length r = mu[0] moves a bead from x to an
    empty x - r, with sign (-1)^(beads strictly between).  The beads packed
    at 0, 1, ... are dropped, so a shape has one mask, and the empty shape
    is 0."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    between = (1 << (r - 1)) - 1
    total = 0
    for x in range(r, beads.bit_length()):
        if beads >> x & 1 and not beads >> (x - r) & 1:
            moved = beads ^ (1 << x) ^ (1 << (x - r))
            low = (moved + 1) & -(moved + 1)  # the lowest empty position
            value = _strip_walk(moved >> (low.bit_length() - 1), rest)
            total += -value if (beads >> (x - r + 1) & between).bit_count() & 1 else value
    return total


def class_products(f: ClassFunction, g: ClassFunction, mode: str) -> ClassFunction:
    """``pointwise`` multiplies values class by class (equal degrees);
    ``induction`` is the graded outer product, computed through ch."""
    if mode == "pointwise":
        if f.n != g.n:
            raise DegreeMismatchError(f"degrees differ: {f.n} vs {g.n}")
        return ClassFunction._of(f.n, {mu: f.values[mu] * g.values[mu] for mu in f.values})
    if mode == "induction":
        return ch_inverse(sym_multiply(frobenius_ch(f), frobenius_ch(g)))
    raise ValueError(f"mode must be 'pointwise' or 'induction': {mode!r}")


@cache
def _ribbon_characters(n: int) -> tuple:
    """theta of the equal-descent-set class sum of each composition of n,
    in canonical order, the ribbon characters, each as its integer values
    over the partitions of n in order: the Moebius sums of the Young
    characters over coarsenings.  A composition's canonical position is its
    cut mask, so this is one subset Moebius transform of the table of Young
    characters, a bit at a time."""
    table = [list(_young_values(alpha)) for alpha in compositions_of(n)]
    for bit in range(n - 1):
        bit = 1 << bit
        for mask, row in enumerate(table):
            if mask & bit:
                row[:] = [v - w for v, w in zip(row, table[mask ^ bit])]
    return tuple(map(tuple, table))


def _ribbon_character(beta: Composition) -> tuple:
    """The ribbon character of ``beta`` as in ``_ribbon_characters``."""
    n = sum(beta)
    return _ribbon_characters(n)[composition_index(n)[beta]]


def theta(d: GroupAlgebraElement) -> ClassFunction:
    """Evaluate a descent-span element as a class function (``_theta_values``)."""
    return _class_function(d.n, _theta_values(d))


def _theta_values(d: GroupAlgebraElement) -> tuple:
    """The values of theta(d) over the partitions of n, in order: the sum
    over the equal-descent-set coordinates c_beta of ``d``, the R
    coordinates of ``psi(d)``, of c_beta times the ribbon character of beta
    (``_ribbon_character``).  They are ``int``s when the coordinates are."""
    values = [0] * len(partitions_of(d.n))
    for beta, c in psi(d).terms.items():
        values = [v + c * r for v, r in zip(values, _ribbon_character(beta))]
    return tuple(values)


def noncommutative_character(alpha, family: str) -> GroupAlgebraElement:
    """The descent-algebra preimage of the noncommutative Schur element
    (``family="S"``) or Young noncommutative Schur element (``"YS"``) of
    ``alpha``; theta sends it to the irreducible character of the
    underlying partition."""
    if family not in ("S", "YS"):
        raise ValueError(f"family must be 'S' or 'YS': {family!r}")
    alpha = check_composition(alpha)
    return psi_inverse(NSymElement(family, {alpha: 1}))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class VerificationReport:
    n: int
    checks: tuple

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    @property
    def all_passed(self) -> bool:
        return not self.failures


def _witness(n: int, got, want) -> str:
    """The failure witness of two unequal value vectors of degree ``n``,
    printed as the values of their class functions."""
    return f"theta image {_class_function(n, got).values} != {_class_function(n, want).values}"


def character_checks(n: int):
    """For every composition of ``n`` and both Schur-like families, check
    that theta of the descent-algebra preimage is the irreducible character
    of the underlying partition, comparing their ``int`` values."""
    for family in ("S", "YS"):
        for alpha in compositions_of(n):
            got = _theta_values(noncommutative_character(alpha, family))
            want = _irreducible_values(underlying_partition(alpha))
            name = f"noncommutative-character/{family}/{format_composition(alpha)}"
            passed = got == want
            yield Check(name, passed, "" if passed else _witness(n, got, want))


def square_checks(n: int):
    """The commuting square ch(theta(xi)) = forgetful(psi(xi)) = h on the
    contained-descent-set sum xi of every composition of ``n``."""
    for alpha in compositions_of(n):
        xi_alpha = xi(alpha)
        lhs = sym_convert(frobenius_ch(theta(xi_alpha)), "h")
        rhs = forgetful_map(psi(xi_alpha))
        expected = SymElement("h", {underlying_partition(alpha): 1})
        passed = lhs == rhs == expected
        name = f"commuting-square/{format_composition(alpha)}"
        witness = "" if passed else f"ch.theta {lhs.terms} vs forgetful.psi {rhs.terms}"
        yield Check(name, passed, witness)


def verify_main_theorem(n: int) -> VerificationReport:
    """The main theorem at degree ``n``: ``character_checks``, then
    ``square_checks``."""
    return VerificationReport(n, (*character_checks(n), *square_checks(n)))
