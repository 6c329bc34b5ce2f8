"""Group algebras of symmetric groups and their descent subalgebras.

Permutations are 1-based tuples in one-line notation, composed by
(sigma . tau)(i) = sigma(tau(i)).  The descent algebra of degree n is
spanned by the class sums over descent sets; ``xi`` and ``delta`` build
the two standard spanning families, and ``psi`` / ``psi_inverse`` realize
the linear isomorphism with NSym that sends the equal-descent-set class
sum of alpha to the ribbon element of alpha.

Inputs are checked at the public constructors; the elements built here
from checked ones (``xi``, ``delta``, ``convolve``, ``psi_inverse``, sums
and multiples) are not checked again.

``xi``, ``delta`` and ``psi_inverse`` build their elements from class-sum
coordinates, and those elements carry only the coordinates, which ``psi``
reads instead of scanning S_n.  So does the ``convolve`` product of two
such elements: it is the weighted sum of the products of their class sums,
and each of those is formed in S_n on its first use, checked to be
constant on every descent class and kept (``_class_product``).  A one-off
product so forms the |a.terms| * |b.terms| permutation products of the
product in S_n, and the products of all pairs of class-built elements of
one degree n form (n!)^2 in all.  The ``terms`` of a class-built element
are listed from the descent classes the first time they are read, and
kept, so ``==``, ``repr``, sums and the S_n path of ``convolve`` see every
term, while ``psi`` and ``theta`` list none.  Every other element (one
built by the public constructors, a sum, a multiple, or a product with a
factor that carries no coordinates) carries none, so ``psi`` finds its
coordinates by ``descent_span_coordinates``, which also checks that it
lies in the descent algebra.

Building a group algebra of degree above the configured bound (default 8,
override with the NCSF_MAX_N environment variable) raises
ResourceLimitError: degree 9 already means 362880 basis permutations.
"""

import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, permutations, repeat
from operator import gt, mul

from ._linear import LinearCombinationOps, canonical, normalize_terms
from .compositions import (
    Composition,
    Partition,
    check_composition,
    coarsenings,
    comp_of,
    composition_index,
    compositions_of,
)
from .errors import DegreeMismatchError, NotInDescentSpanError, ResourceLimitError
from .nsym import NSymElement, nsym_convert

__all__ = [
    "DEFAULT_MAX_DEGREE",
    "max_group_degree",
    "Permutation",
    "check_permutation",
    "compose",
    "cycle_type",
    "descent_set_perm",
    "descent_composition_perm",
    "GroupAlgebraElement",
    "group_algebra_element",
    "xi",
    "delta",
    "convolve",
    "descent_span_coordinates",
    "psi",
    "psi_inverse",
]

DEFAULT_MAX_DEGREE = 8

Permutation = tuple[int, ...]


def max_group_degree() -> int:
    """The configured degree bound, from NCSF_MAX_N when set."""
    value = os.environ.get("NCSF_MAX_N")
    if value is None or not value.strip():
        return DEFAULT_MAX_DEGREE
    try:
        bound = int(value)
    except ValueError:
        bound = -1
    if bound < 0:
        raise ValueError(f"NCSF_MAX_N must be a nonnegative integer: {value!r}")
    return bound


def _check_degree(n: int) -> None:
    """The degree guard of every group algebra and command-line job."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative: {n}")
    bound = max_group_degree()
    if n > bound:
        raise ResourceLimitError(
            f"degree {n} exceeds the configured bound {bound} (set NCSF_MAX_N to raise it)"
        )


def check_permutation(seq) -> Permutation:
    sigma = tuple(seq)
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError(f"not a permutation of [{len(sigma)}] in one-line notation: {sigma}")
    return sigma


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """(sigma . tau)(i) = sigma(tau(i))."""
    sigma, tau = check_permutation(sigma), check_permutation(tau)
    if len(sigma) != len(tau):
        raise DegreeMismatchError(f"cannot compose degrees {len(sigma)} and {len(tau)}")
    return tuple(sigma[t - 1] for t in tau)


def cycle_type(sigma: Permutation) -> Partition:
    sigma = check_permutation(sigma)
    seen = [False] * len(sigma)
    lengths = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = sigma[i] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def descent_set_perm(sigma: Permutation) -> tuple[int, ...]:
    sigma = check_permutation(sigma)
    return tuple(i + 1 for i in range(len(sigma) - 1) if sigma[i] > sigma[i + 1])


def descent_composition_perm(sigma: Permutation) -> Composition:
    # descent_set_perm checks sigma; () is the one permutation of degree 0
    return comp_of(descent_set_perm(sigma), len(sigma)) if sigma else ()


def descent_classes(n: int) -> dict[tuple[int, ...], tuple[Permutation, ...]]:
    """Permutations of [n] grouped by descent set.  The degree bound is
    checked on every call, cached or not."""
    _check_degree(n)
    return _descent_classes(n)


@cache
def _descent_classes(n: int) -> dict[tuple[int, ...], tuple[Permutation, ...]]:
    """Each permutation is keyed by its descent flags sigma(i) > sigma(i+1),
    found in C, and each key becomes its descent set once per class."""
    classes: dict[tuple[bool, ...], list[Permutation]] = {}
    for sigma in permutations(range(1, n + 1)):
        classes.setdefault(tuple(map(gt, sigma, sigma[1:])), []).append(sigma)
    return {
        tuple(i for i, flag in enumerate(key, 1) if flag): tuple(value)
        for key, value in classes.items()
    }


descent_classes.cache_info = _descent_classes.cache_info


@dataclass(frozen=True)
class GroupAlgebraElement(LinearCombinationOps):
    """A rational combination of permutations of a common degree; sums and
    differences need equal degrees."""

    n: int
    terms: dict
    # the class-sum coordinates, set only by ``_of_classes``
    _coords: dict = field(default=None, init=False, repr=False, compare=False)

    _TAG = "n"

    def __post_init__(self):
        _check_degree(self.n)
        object.__setattr__(self, "terms", normalize_terms(self.terms, self._check_permutation))

    def __getattr__(self, name):
        """The ``terms`` of an element built by ``_of_classes``, listed from
        its class coordinates on first read and kept.  Threads that read
        them at once each list equal terms."""
        if name != "terms" or self._coords is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        classes = _composition_classes(self.n)
        # distinct compositions have disjoint descent classes
        terms = {sigma: c for alpha, c in self._coords.items() for sigma in classes[alpha]}
        object.__setattr__(self, "terms", terms)
        return terms

    def _check_permutation(self, sigma) -> Permutation:
        sigma = check_permutation(sigma)
        if len(sigma) != self.n:
            raise DegreeMismatchError(f"permutation {sigma} does not have degree {self.n}")
        return sigma

    def _mismatch(self, other):
        return DegreeMismatchError(f"degrees differ: {self.n} vs {other.n}")


def group_algebra_element(n: int, terms) -> GroupAlgebraElement:
    return GroupAlgebraElement(n, dict(terms))


def _cut_points(alpha: Composition) -> tuple[int, ...]:
    return tuple(accumulate(alpha))[:-1] if alpha else ()


@cache
def _composition_classes(n: int) -> dict[Composition, tuple[Permutation, ...]]:
    """The descent classes of degree ``n`` keyed by composition: the class
    of alpha is that of its cut set.  Read it after ``descent_classes(n)``,
    which checks the degree bound."""
    classes = _descent_classes(n)
    return {alpha: classes[_cut_points(alpha)] for alpha in compositions_of(n)}


def _of_classes(n: int, coords: dict) -> GroupAlgebraElement:
    """The element of degree ``n`` whose coordinate over the class sum of
    each composition is given by ``coords`` (canonical, built from checked
    ones).  It carries only ``coords``, which ``psi`` reads; its ``terms``
    are listed on first read (``GroupAlgebraElement.__getattr__``)."""
    descent_classes(n)  # the degree guard; builds the classes on a first call
    x = object.__new__(GroupAlgebraElement)
    object.__setattr__(x, "n", n)
    object.__setattr__(x, "_coords", coords)
    return x


def xi(alpha) -> GroupAlgebraElement:
    """Sum of all permutations whose descent set is contained in the cut
    set of ``alpha``, the class sums of its coarsenings; equivalently the
    sum over the minimal-length left coset representatives of the Young
    subgroup of ``alpha``."""
    alpha = check_composition(alpha)
    return _of_classes(sum(alpha), dict.fromkeys(coarsenings(alpha), 1))


def delta(alpha) -> GroupAlgebraElement:
    """Sum of all permutations whose descent set equals the cut set of
    ``alpha``."""
    alpha = check_composition(alpha)
    return _of_classes(sum(alpha), {alpha: 1})


def _table(sigma: Permutation) -> bytes:
    """The 256-byte table (0, *sigma), which ``bytes.translate`` reads as
    sigma; bytes hold degrees below 256."""
    return bytes((0, *sigma)).ljust(256, b"\0")


def _count_products(tables, words, count: Counter) -> Counter:
    """``count`` updated with each product sigma . tau, over the
    permutations sigma given as tables (``_table``) and tau given as
    bytes: sigma . tau is ``tau.translate(table)``.  The products are
    counted in C, looping in Python over the smaller side only."""
    if len(tables) < len(words):
        for table in tables:
            count.update(map(bytes.translate, words, repeat(table)))
    else:
        for tau in words:
            count.update(map(tau.translate, tables))
    return count


@cache
def _class_bytes(n: int) -> tuple:
    """The byte encodings of the descent classes of degree ``n``, in the
    canonical order of their compositions: per class, its permutations as
    tables and as words for ``_count_products``; and a map from
    each word to the canonical position of its class.  Read it after
    ``descent_classes(n)``, which checks the degree bound."""
    tables, words, position = [], [], {}
    for i, sigmas in enumerate(_composition_classes(n).values()):
        tables.append(tuple(map(_table, sigmas)))
        words.append(tuple(map(bytes, sigmas)))
        position.update(dict.fromkeys(words[-1], i))
    return tuple(tables), tuple(words), position


@cache
def _class_product(n: int, d: Composition, e: Composition):
    """The coordinates of the product of the class sums of ``d`` and ``e``
    over the class sums of degree ``n``, a tuple in canonical order, or
    None when the product does not carry a constant coefficient on some
    descent class, the rule of ``descent_span_coordinates``.  It counts
    |class d| * |class e| permutation products, once per (n, d, e)."""
    tables, words, position = _class_bytes(n)
    index = composition_index(n)
    count = _count_products(tables[index[d]], words[index[e]], Counter())
    # how many members of each class carry each count: a class is constant
    # when one count covers all its members, or when no product reaches it
    tally = Counter(zip(map(position.__getitem__, count), count.values()))
    coords = [0] * len(words)
    for (i, k), members in tally.items():
        if coords[i] or members != len(words[i]):
            return None
        coords[i] = k
    return tuple(coords)


def _class_convolve(n: int, x: dict, y: dict):
    """The class coordinates, canonical, of the product of the elements of
    class coordinates ``x`` and ``y``, or None when some class product it
    needs leaves the descent span.  The weighted class products are summed
    position by position."""
    vectors = []
    for d, c in x.items():
        for e, c2 in y.items():
            vector = _class_product(n, d, e)
            if vector is None:
                return None
            weight = c * c2
            vectors.append(vector if weight == 1 else tuple(map(mul, vector, repeat(weight))))
    return canonical(dict(zip(compositions_of(n), map(sum, zip(*vectors)))))


def convolve(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """The group-ring product, extending permutation composition bilinearly.

    When both factors carry class coordinates, the product is the sum of
    c_d c_e times the product of the class sums of d and e over their
    coordinates, and it carries its coordinates.  Each class product is
    counted in S_n on its first use and kept (``_class_product``), so a
    one-off product counts the |a.terms| * |b.terms| permutation products
    that the S_n path counts, and a repeat counts none.  If some class
    product leaves the descent span, or a factor carries no coordinates,
    the product is taken in S_n: the terms of each pair of weights are
    counted by ``_count_products`` and each distinct product becomes a
    tuple once."""
    if a.n != b.n:
        raise DegreeMismatchError(f"degrees differ: {a.n} vs {b.n}")
    if a._coords is not None and b._coords is not None:
        coords = _class_convolve(a.n, a._coords, b._coords)
        if coords is not None:
            return _of_classes(a.n, coords)
    tables, words = defaultdict(list), defaultdict(list)
    for sigma, c in a.terms.items():
        tables[c].append(_table(sigma))
    for tau, c in b.terms.items():
        words[c].append(bytes(tau))
    counts = defaultdict(Counter)
    for c1, sigmas in tables.items():
        for c2, taus in words.items():
            _count_products(sigmas, taus, counts[c1 * c2])
    out = Counter()
    for weight, products in counts.items():
        out.update({product: weight * k for product, k in products.items()})
    return GroupAlgebraElement._of(a.n, canonical({tuple(p): c for p, c in out.items()}))


def descent_span_coordinates(a: GroupAlgebraElement):
    """Coordinates of ``a`` over the equal-descent-set class sums, or None
    if some descent class does not carry a constant coefficient; found by
    scanning every permutation of S_n."""
    coords = {}
    descent_classes(a.n)  # the degree guard; builds the classes on a first call
    for alpha, sigmas in _composition_classes(a.n).items():
        # a permutation without a term reads None; zeros are never stored
        values = set(map(a.terms.get, sigmas))
        if len(values) > 1:
            return None
        value = values.pop()
        if value:
            coords[alpha] = value
    return coords


def psi(d: GroupAlgebraElement) -> NSymElement:
    """The descent-span element ``d`` as an NSym element: the class sum of
    alpha maps to the ribbon element of alpha.  The coordinates are those
    ``d`` carries, or else those the scan finds; either way they come from
    a checked element, so they are taken as they are."""
    if d._coords is not None:
        return NSymElement._of("R", dict(d._coords))
    coords = descent_span_coordinates(d)
    if coords is None:
        raise NotInDescentSpanError(
            f"element of degree {d.n} is not constant on descent classes"
        )
    return NSymElement._of("R", coords)


def psi_inverse(f: NSymElement) -> GroupAlgebraElement:
    """Pull a homogeneous NSym element back to the descent algebra."""
    r = nsym_convert(f, "R")
    degrees = {sum(alpha) for alpha in r.terms}
    if not degrees:
        return GroupAlgebraElement(0, {})
    if len(degrees) > 1:
        raise DegreeMismatchError(
            f"psi_inverse requires a homogeneous element; found degrees {sorted(degrees)}"
        )
    return _of_classes(degrees.pop(), dict(r.terms))
