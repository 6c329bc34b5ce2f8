"""The graded-space core shared by Sym, QSym and NSym.

Each of the three spaces is a ``Space`` record: its basis names, a hub
basis (``h``, ``F`` and ``R``), a checker and a canonical order for the
indices of each degree, and two per-degree row builders: the row, not the
degree's matrix, is what the core builds and caches.  ``to_hub(b, n)``, a
``Hop``, holds row i, the hub coordinates of the i-th degree-n element of
basis ``b``, built on first read and kept; ``from_hub(b, n)`` holds the
``b`` coordinates of each hub element.  Every conversion and transition
matrix takes the one route ``_route`` gives, through the hub: a conversion
reads only the rows of the support it carries, and ``transition_matrix``
assembles the same rows into a stored sparse ``linalg.Matrix``.  A space
module supplies only the row builders and its own operations, among
them the product rules of its bases (``multiply``); the rows of the
inverse of a unitriangular hop are the core's (``substitution_rows``).

Rows are applied in one place, in three steps: each degree's terms are put
over their least common denominator (``_integers``), the ``int`` vector is
carried through the hops (``_carry``), and each coordinate is divided once
at the end (``_divided``).  A conversion takes the three steps in a row.  A
product is taken in the left factor's basis when that basis has a rule of
its own, else in the hub: both factors are carried into that basis, the
rule multiplies their ``int`` vectors on canonical positions, and the
products landing in one degree are summed over a common denominator and
carried back before the one division: no ``Fraction`` is made between the
factors and the result.

An element is a frozen ``Element`` subclass that names its space; the
subclass is its own type, so elements of different spaces never compare
equal or add.  ``LinearCombinationOps`` gives +, -, unary - and exact
scalar multiples to any two-field element whose first field is a tag the
operands must share: the basis here, the degree in the group algebra.

Inputs are checked at the public constructors; a result the library built
from checked terms (a conversion, sum, multiple, product or the image of
one of the spaces' maps) is not.
"""

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Callable, ClassVar

from .errors import BasisMismatchError, InternalConsistencyError
from .linalg import Matrix, identity, matmul

_SCALARS = (int, Fraction)


def normalize_terms(terms, check_index) -> dict:
    """Canonicalize indices, sum the coefficients of equal indices and drop
    zeros.  Each coefficient is stored as an ``int`` when it is integral and
    as a ``Fraction`` (denominator > 1) otherwise; a ``bool`` becomes an
    ``int``."""
    out = {}
    for index, coeff in dict(terms).items():
        idx = check_index(index)
        if not isinstance(coeff, _SCALARS):
            raise TypeError(f"coefficients must be exact (int or Fraction): {coeff!r}")
        out[idx] = out[idx] + coeff if idx in out else coeff
    return canonical(out)


def canonical(terms: dict) -> dict:
    """``terms`` without zeros, each integral coefficient as an ``int``."""
    return {k: v.numerator if v.denominator == 1 else v for k, v in terms.items() if v}


def _ratio(v: int, den: int):
    """v / den as an ``int`` when ``den`` divides ``v``, else a ``Fraction``."""
    return v // den if v % den == 0 else Fraction(v, den)


def stored_row(vector: dict) -> tuple:
    """The stored row (cols, vals) of the sparse ``int`` vector
    {position: value}, zeros dropped."""
    pairs = sorted((j, c) for j, c in vector.items() if c)
    return tuple(j for j, _ in pairs), tuple(c for _, c in pairs)


def served(m: Matrix) -> tuple:
    """The denominator and row builder of a hop built as a whole matrix."""
    return m.den, m.rows.__getitem__


def dense_rows(m: Matrix) -> tuple:
    """The dense form of a stored matrix, a tuple of row tuples; an entry is
    an ``int`` when it is integral and a ``Fraction`` otherwise."""
    dense = [[0] * len(m.rows) for _ in m.rows]
    for out, (cols, vals) in zip(dense, m.rows):
        for j, x in zip(cols, vals):
            out[j] = _ratio(x, m.den)
    return tuple(map(tuple, dense))


class LinearCombinationOps:
    """Mixin: +, -, unary -, and exact scalar multiples for a frozen
    dataclass whose fields are a tag (named by ``_TAG``) and ``terms``."""

    _TAG = "basis"

    @classmethod
    def _of(cls, tag, terms: dict):
        """The element of canonical ``terms`` built from checked ones, as is."""
        x = object.__new__(cls)
        object.__setattr__(x, cls._TAG, tag)
        object.__setattr__(x, "terms", terms)
        return x

    def _mismatch(self, other):
        return BasisMismatchError(
            f"cannot combine {self.basis!r} terms with {other.basis!r} terms; convert first"
        )

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        tag = getattr(self, self._TAG)
        if getattr(other, self._TAG) != tag:
            raise self._mismatch(other)
        merged = dict(self.terms)
        for idx, c in other.terms.items():
            merged[idx] = merged.get(idx, 0) + sign * c
        return self._of(tag, canonical(merged))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        if not isinstance(scalar, _SCALARS):
            return NotImplemented
        terms = {idx: c * scalar for idx, c in self.terms.items()}
        return self._of(getattr(self, self._TAG), canonical(terms))

    __rmul__ = __mul__


class Hop(dict):
    """The degree-n rows of one basis in the hub, or of the hub in one basis,
    read as those of a stored matrix are: ``rows[i]`` is (cols, vals) over
    ``den``, built by ``build(i)`` on first read and kept."""

    __slots__ = ("den", "build")
    rows = property(lambda self: self)  # read where a stored matrix's rows are

    def __init__(self, den: int, build: Callable):
        super().__init__()
        self.den, self.build = den, build

    def __missing__(self, i):
        row = self[i] = self.build(i)
        return row


def substitution_rows(known: Hop, inverse: Callable, label: str) -> tuple:
    """The denominator and row builder of X, the inverse of the unitriangular
    hop ``known`` = K: row a is e_a less K[a][b] times row b of X for each
    b != a, read through X's own cached hop ``inverse()`` (read per row: it
    is not cached while it is made), so a row builds the rows of X that K
    reaches, once each.  A K with a diagonal entry other than 1 or a cycle
    off the diagonal raises ``InternalConsistencyError`` naming ``label``.
    Pending rows are per thread: a row another thread is building is no cycle."""
    held = threading.local()

    def row(a):
        pending = vars(held).setdefault("rows", set())
        if a in pending:
            raise InternalConsistencyError(f"{label} has a cycle off the diagonal")
        after = dict(zip(*known[a]))
        if after.pop(a, 0) != 1:
            raise InternalConsistencyError(f"{label} has a diagonal entry other than 1")
        out, x = {a: 1}, inverse()
        pending.add(a)
        try:
            for b, c in after.items():
                for col, y in zip(*x[b]):
                    out[col] = out.get(col, 0) - c * y
            return stored_row(out)
        finally:
            pending.discard(a)

    return 1, row


@dataclass(frozen=True)
class Space:
    """A graded space with a hub basis; see the module docstring.  The cached
    ``Hop``s of its row builders are ``to_hub(basis, n)`` and ``from_hub``."""

    name: str
    bases: tuple
    hub: str
    check_index: Callable
    indices: Callable  # n -> the degree-n indices in canonical order
    index: Callable  # n -> {index: position in canonical order}
    # (basis, n) -> (den, i -> row i), for basis != hub: the rows of basis
    # in the hub, and of the hub in basis
    to_hub_rows: Callable
    from_hub_rows: Callable

    def __post_init__(self):
        for way in ("to_hub", "from_hub"):
            rows = getattr(self, f"{way}_rows")
            object.__setattr__(self, way, cache(lambda basis, n, rows=rows: Hop(*rows(basis, n))))

    def check_basis(self, basis: str) -> str:
        if basis not in self.bases:
            raise ValueError(f"unknown {self.name} basis {basis!r}; expected one of {self.bases}")
        return basis


@dataclass(frozen=True)
class Element(LinearCombinationOps):
    """A rational combination of basis elements of the subclass's ``space``."""

    space: ClassVar[Space]
    basis: str
    terms: dict

    def __post_init__(self):
        self.space.check_basis(self.basis)
        object.__setattr__(self, "terms", normalize_terms(self.terms, self.space.check_index))

    def degrees(self) -> set[int]:
        return {sum(idx) for idx in self.terms}

    def is_zero(self) -> bool:
        return not self.terms


def _integers(terms: dict, index: dict) -> tuple:
    """``terms`` over their least common denominator: the sparse ``int``
    vector {position: numerator} (``index`` gives positions) and ``den``."""
    # a set: a tuple made from a generator on each call kept 0.4 MB more alive
    den = lcm(*{c.denominator for c in terms.values()})
    return {index[idx]: c.numerator * (den // c.denominator) for idx, c in terms.items()}, den


def _carry(vector: dict, den: int, matrices) -> tuple:
    """The image of the sparse ``int`` vector ``vector`` over ``den`` under
    the stored matrices or hops in turn, again over one denominator,
    reading only the rows of the support each carries; coordinates that
    cancel are kept as zeros."""
    for matrix in matrices:
        out, rows = {}, matrix.rows
        for i, c in vector.items():
            if c:  # a coefficient that cancelled builds no row
                for j, entry in zip(*rows[i]):
                    out[j] = out.get(j, 0) + c * entry
        vector = out
        den *= matrix.den
    return vector, den


def _divided(vector: dict, den: int, indices) -> dict:
    """The terms of the sparse ``int`` vector ``vector`` over ``den``,
    divided once per coordinate, in canonical order, zeros dropped."""
    return {indices[j]: _ratio(v, den) for j, v in sorted(vector.items()) if v}


def _route(space: Space, source: str, target: str, n: int) -> list:
    """The cached degree-n hops that take ``source`` coordinates to
    ``target`` ones, in order: through the hub, none when the bases agree."""
    route = [space.to_hub(source, n)] if source not in (target, space.hub) else []
    if target not in (source, space.hub):
        route.append(space.from_hub(target, n))
    return route


def _carried(space: Space, terms: dict, source: str, target: str) -> dict:
    """The ``source``-basis ``terms`` in ``target`` coordinates, degree by
    degree and still undivided: {n: (sparse ``int`` vector, den)}."""
    by_degree = {}
    for idx, c in terms.items():
        by_degree.setdefault(sum(idx), {})[idx] = c
    return {
        n: _carry(*_integers(part, space.index(n)), _route(space, source, target, n))
        for n, part in by_degree.items()
    }


def convert_terms(space: Space, terms: dict, source: str, target: str) -> dict:
    """The ``target`` coordinates of the ``source``-basis ``terms``, found
    degree by degree through the hub."""
    space.check_basis(target)
    if target == source:
        return terms
    converted = {}
    for n, carried in _carried(space, terms, source, target).items():
        converted.update(_divided(*carried, space.indices(n)))
    return converted


def convert(x: Element, target: str) -> Element:
    """Express ``x`` in the ``target`` basis of its space."""
    if target == x.basis:
        return x
    return x._of(target, convert_terms(x.space, x.terms, x.basis, target))


def _summed(parts: list) -> tuple:
    """The sum of sparse ``int`` vectors, each (vector, den), over the least
    common denominator."""
    if len(parts) == 1:
        return parts[0]
    den = lcm(*(d for _, d in parts))
    out = {}
    for vector, d in parts:
        for k, v in vector.items():
            out[k] = out.get(k, 0) + v * (den // d)
    return out, den


def _nonzero(carried: dict) -> list:
    """(n, vector, den) for each degree n of ``carried``, without the
    coordinates that cancelled on the way: they multiply nothing."""
    return [(n, {k: c for k, c in v.items() if c}, d) for n, (v, d) in carried.items()]


def _scaled(vector: dict, c: int) -> dict:
    return {k: c * v for k, v in vector.items()}


def multiply(x: Element, y: Element, rules: dict) -> Element:
    """The product of ``x`` and ``y``, in the basis of ``x``.

    ``rules`` maps each basis with a product rule of its own to the rule:
    ``rule(n1, n2, v1, v2)`` is the product of the sparse ``int`` vectors
    ``v1`` and ``v2`` of degrees n1, n2 >= 1, on canonical positions, as a
    degree-(n1 + n2) vector.  The product is taken in the basis of ``x``
    when it has a rule and in the hub otherwise; the degree-0 unit needs
    no rule.

    One ``int`` pass: each degree of each factor is carried into that
    basis over one denominator, the rule multiplies the vectors, and the
    products landing in one degree are summed over a common denominator,
    carried back and divided once per coordinate.  Both factors must be
    elements of one space: ``TypeError`` otherwise, as for ``+``."""
    if type(y) is not type(x):
        raise TypeError(f"cannot multiply {type(x).__name__} by {type(y).__name__}")
    space = x.space
    basis = x.basis if x.basis in rules else space.hub
    rule = rules[basis]
    left, right = (_nonzero(_carried(space, z.terms, z.basis, basis)) for z in (x, y))
    products = {}
    for n1, v1, d1 in left:
        for n2, v2, d2 in right:
            if n1 and n2:
                out = rule(n1, n2, v1, v2)
            else:  # the unit () sits at position 0 of degree 0
                out = _scaled(v2, v1.get(0, 0)) if n2 else _scaled(v1, v2.get(0, 0))
            products.setdefault(n1 + n2, []).append((out, d1 * d2))
    terms = {}
    for n, parts in products.items():
        carried = _carry(*_summed(parts), _route(space, basis, x.basis, n))
        terms.update(_divided(*carried, space.indices(n)))
    return x._of(x.basis, terms)


def transition_matrix(space: Space, source: str, target: str, n: int) -> Matrix:
    """The stored matrix whose row i expands the i-th degree-n ``source``
    element in ``target`` coordinates; rows and columns in the space's
    canonical index order, assembled from each hop's cached rows."""
    for basis in (source, target):
        space.check_basis(basis)
    k = len(space.indices(n))
    hops = _route(space, source, target, n)
    route = [Matrix(tuple(map(hop.__getitem__, range(k))), hop.den) for hop in hops]
    if len(route) == 2:
        return matmul(*route)
    return route[0] if route else identity(k)
