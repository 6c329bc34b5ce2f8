"""Property tests for the one conversion path shared by Sym, QSym and NSym,
and for the substitution inverse its matrix builders use.

For every ordered basis pair of every space, on random elements of mixed
degree at most 5: conversion round trips, conversion is linear, and each
row of a transition matrix is the conversion of one basis element.  On
random elements in random bases, the QSym-NSym duality pairing is linear
in each argument, and ``star`` and the QSym reversal are involutions.  For
every basis pair and degree at most 6, applying a stored sparse matrix to
random terms equals applying its dense form in Fraction arithmetic, and
the Sym and NSym products of factors in any two bases equal the product
taken through Fraction coefficients, also with the unit, an empty factor
and cross terms that cancel, and so do products of degree up to 14 in
the NSym bases with a rule of their own, 10 in S and YS and 12 in Sym.
On random integer matrices: the
substitution inverse of a unitriangular matrix with permuted indices is
its inverse, equal to the Gauss-Jordan one, and on any matrix it either
refuses or returns the inverse.  On
random group-algebra elements of degree at most 5: ``convolve`` and
``descent_span_coordinates`` equal their Fraction oracles, also where the
weights of a product cancel and with either factor the shorter, and theta
of a product of contained-descent-set sums is the pointwise product of
Young characters.  On products of random elements that carry class
coordinates (``xi``, ``delta`` and ``psi_inverse`` of ribbon terms, also
where coordinates cancel), ``convolve`` equals its Fraction oracle and the
coordinates it carries are those the scan finds.  On random descent-span
elements of degree at most 6, theta through the cached ribbon characters
equals the Moebius sum over Young characters.  Every stored coefficient is an ``int`` or a
``Fraction`` with denominator above 1, whatever operation made it, and
every result the library builds without checking, the images of the
maps between and within the spaces included, equals its checked copy.
The examples are derandomized, so every run draws the same ones.
"""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsf import (
    NSYM_BASES,
    QSYM_BASES,
    SYM_BASES,
    ClassFunction,
    GroupAlgebraElement,
    NSymElement,
    QSymElement,
    SymElement,
    ch_inverse,
    class_products,
    compose,
    convolve,
    delta,
    descent_span_coordinates,
    duality_pairing,
    embed_sym_in_qsym,
    forgetful_map,
    frobenius_ch,
    nsym_convert,
    nsym_multiply,
    psi_inverse,
    qsym_convert,
    reversal_automorphism,
    star_antiautomorphism,
    symmetric_part,
    sym_convert,
    sym_multiply,
    theta,
    xi,
    young_character,
)
from ncsf._linear import _carry, _divided, _integers, _route, dense_rows, transition_matrix
from ncsf.compositions import compositions_of, partitions_of
from ncsf.errors import InternalConsistencyError
from ncsf.linalg import Matrix
from ncsf.linalg import identity as stored_identity
from ncsf.linalg import matmul as stored_matmul
from ncsf.nsym import transition_matrix as nsym_transition_matrix
from ncsf.qsym import transition_matrix as qsym_transition_matrix
from ncsf.sym import transition_matrix as sym_transition_matrix

from oracles import (
    apply_matrix,
    convolve_by_fractions,
    descent_span_coordinates_by_fractions,
    identity,
    invert,
    invert_unitriangular,
    matmul,
    multiply_by_fractions,
    stored,
    theta_by_mobius,
)

TOP = 5

SPACES = {
    "sym": (SymElement, sym_convert, sym_transition_matrix, SYM_BASES, partitions_of),
    "qsym": (QSymElement, qsym_convert, qsym_transition_matrix, QSYM_BASES, compositions_of),
    "nsym": (NSymElement, nsym_convert, nsym_transition_matrix, NSYM_BASES, compositions_of),
}

PAIRS = [
    (space, source, target)
    for space, (_, _, _, bases, _) in SPACES.items()
    for source in bases
    for target in bases
]

EXAMPLES = settings(derandomize=True, deadline=None, max_examples=15, database=None)

coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
# ints, bools and Fractions, some of them integral
scalars = st.one_of(st.integers(-9, 9), st.booleans(), coefficients)


def _terms(values) -> dict:
    """Per space, random terms of mixed degree at most TOP."""
    return {
        space: st.dictionaries(
            st.sampled_from([idx for n in range(TOP + 1) for idx in of_degree(n)]),
            values,
            max_size=5,
        )
        for space, (_, _, _, _, of_degree) in SPACES.items()
    }


TERMS = _terms(coefficients)
MIXED_TERMS = _terms(scalars)


@pytest.mark.parametrize("space,source,target", PAIRS)
@EXAMPLES
@given(data=st.data())
def test_convert_round_trips_and_is_linear(space, source, target, data):
    cls, convert, _, _, _ = SPACES[space]
    x = cls(source, data.draw(TERMS[space]))
    y = cls(source, data.draw(TERMS[space]))
    c = data.draw(coefficients)
    there = convert(x, target)
    assert type(there) is cls and there.basis == target
    assert convert(there, source) == x
    assert convert(x * c + y, target) == there * c + convert(y, target)


def _element(data, space):
    """A random element of mixed degree at most TOP in a random basis."""
    cls, _, _, bases, _ = SPACES[space]
    return cls(data.draw(st.sampled_from(bases)), data.draw(TERMS[space]))


@EXAMPLES
@given(data=st.data())
def test_duality_pairing_is_bilinear(data):
    x, y = _element(data, "qsym"), _element(data, "nsym")
    x2 = qsym_convert(_element(data, "qsym"), x.basis)
    y2 = nsym_convert(_element(data, "nsym"), y.basis)
    a, b = data.draw(scalars), data.draw(scalars)
    pair = duality_pairing
    assert pair(a * x + b * x2, y) == a * pair(x, y) + b * pair(x2, y)
    assert pair(x, a * y + b * y2) == a * pair(x, y) + b * pair(x, y2)


@pytest.mark.parametrize(
    "space,involution,image_basis",
    [("nsym", star_antiautomorphism, "R"), ("qsym", reversal_automorphism, "F")],
    ids=["star", "reversal"],
)
@EXAMPLES
@given(data=st.data())
def test_star_and_reversal_are_involutions(space, involution, image_basis, data):
    x = _element(data, space)
    convert = SPACES[space][1]
    assert involution(involution(x)) == convert(x, image_basis)


@pytest.mark.parametrize("space,source,target", PAIRS)
def test_transition_matrix_rows_are_conversions(space, source, target):
    cls, convert, transition_matrix, _, of_degree = SPACES[space]
    for n in range(TOP + 1):
        order = of_degree(n)
        for index, row in zip(order, transition_matrix(source, target, n)):
            expected = convert(cls(source, {index: Fraction(1)}), target)
            assert {idx: c for idx, c in zip(order, row) if c} == expected.terms


KERNEL = settings(derandomize=True, deadline=None, max_examples=5, database=None)


def _apply_matrices(terms: dict, space, n: int, *matrices) -> dict:
    """The row kernel's three steps: degree-n ``terms`` over one
    denominator, carried through the matrices, divided once at the end."""
    return _divided(*_carry(*_integers(terms, space.index(n)), matrices), space.indices(n))


@pytest.mark.parametrize("space,source,target", PAIRS)
@KERNEL
@given(data=st.data())
def test_sparse_kernel_equals_the_dense_oracle(space, source, target, data):
    cls, _, _, _, of_degree = SPACES[space]
    for n in range(7):
        order = of_degree(n)
        terms = data.draw(st.dictionaries(st.sampled_from(order), scalars, max_size=4))
        matrix = transition_matrix(cls.space, source, target, n)
        got = _apply_matrices(terms, cls.space, n, matrix)
        assert got == apply_matrix(terms, dense_rows(matrix), order)
        assert _stored_exactly(got.values())
        if cls.space.hub not in (source, target):
            # the conversion route: both matrices, divided once at the end
            route = (cls.space.to_hub(source, n), cls.space.from_hub(target, n))
            assert _apply_matrices(terms, cls.space, n, *route) == got


@pytest.mark.parametrize("space,source,target", PAIRS)
def test_route_is_the_cached_hub_matrices_and_makes_the_transition_matrix(
    space, source, target
):
    graded = SPACES[space][0].space
    hub = graded.hub
    for n in range(TOP + 1):
        want = []
        if source not in (target, hub):
            want.append(graded.to_hub(source, n))
        if target not in (source, hub):
            want.append(graded.from_hub(target, n))
        route = _route(graded, source, target, n)
        assert len(route) == len(want)
        assert all(got is cached for got, cached in zip(route, want))
        k = len(graded.indices(n))
        stored = [Matrix(tuple(hop.rows[i] for i in range(k)), hop.den) for hop in want]
        matrix = transition_matrix(graded, source, target, n)
        if not want:
            assert matrix == stored_identity(k)
        elif len(want) == 1:  # the cached rows themselves, not copies
            assert matrix == stored[0]
            assert all(got is cached for got, cached in zip(matrix.rows, stored[0].rows))
        else:
            assert matrix == stored_matmul(*stored)


MATRICES = settings(derandomize=True, deadline=None, max_examples=200, database=None)


@MATRICES
@given(data=st.data())
def test_substitution_inverse_of_permuted_unitriangular(data):
    k = data.draw(st.integers(0, 8))
    upper = [
        [1 if i == j else data.draw(st.integers(-5, 5)) if i < j else 0 for j in range(k)]
        for i in range(k)
    ]
    order = data.draw(st.permutations(range(k)))
    m = tuple(tuple(upper[order[i]][order[j]] for j in range(k)) for i in range(k))
    inverse = dense_rows(invert_unitriangular(stored(m)))
    assert matmul(inverse, m) == identity(k)
    assert inverse == invert(m)


@MATRICES
@given(data=st.data())
def test_substitution_inverse_refuses_or_is_right(data):
    k = data.draw(st.integers(1, 4))
    m = tuple(
        tuple(
            data.draw(st.sampled_from((1, 1, 1, 0, 2, -1)) if i == j else st.integers(-2, 2))
            for j in range(k)
        )
        for i in range(k)
    )
    try:
        inverse = dense_rows(invert_unitriangular(stored(m)))
    except InternalConsistencyError:
        return
    assert matmul(inverse, m) == identity(k)
    assert matmul(m, inverse) == identity(k)


@st.composite
def group_elements(draw, n):
    """A combination of equal-descent-set class sums, so often in the
    descent span, plus up to three single permutations."""
    x = GroupAlgebraElement(n, {})
    for alpha in draw(st.lists(st.sampled_from(compositions_of(n)), max_size=3)):
        x = x + draw(scalars) * delta(alpha)
    sigmas = st.permutations(range(1, n + 1)).map(tuple)
    return x + GroupAlgebraElement(n, draw(st.dictionaries(sigmas, scalars, max_size=3)))


GROUP = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@GROUP
@given(data=st.data())
def test_group_algebra_fast_paths_equal_their_oracles(data):
    n = data.draw(st.integers(0, TOP))
    a, b = data.draw(group_elements(n)), data.draw(group_elements(n))
    product = convolve(a, b)
    assert product.terms == convolve_by_fractions(a, b)
    for x in (a, b, product):
        assert descent_span_coordinates(x) == descent_span_coordinates_by_fractions(x)
    if n:
        alpha, beta = (data.draw(st.sampled_from(compositions_of(n))) for _ in range(2))
        c = data.draw(scalars)
        pointwise = class_products(young_character(alpha), young_character(beta), "pointwise")
        want = ClassFunction(n, {mu: c * v for mu, v in pointwise.values.items()})
        assert theta(convolve(c * xi(alpha), xi(beta))) == want


@GROUP
@given(data=st.data())
def test_convolve_drops_weights_that_cancel(data):
    """a = w sigma - w rho and b = tau + rho^-1 sigma tau: the products
    (sigma, tau) and (rho, rho^-1 sigma tau) meet with weights w and -w."""
    n = data.draw(st.integers(0, TOP))
    sigma, rho, tau = (data.draw(st.permutations(range(1, n + 1)).map(tuple)) for _ in range(3))
    w = data.draw(scalars.filter(bool))
    rho_inverse = tuple(sorted(range(1, n + 1), key=lambda i: rho[i - 1]))
    a = GroupAlgebraElement(n, {sigma: w}) - GroupAlgebraElement(n, {rho: w})
    b = GroupAlgebraElement(n, {tau: 1}) + GroupAlgebraElement(
        n, {compose(rho_inverse, compose(sigma, tau)): 1}
    )
    product = convolve(a, b)
    assert product.terms == convolve_by_fractions(a, b)
    assert _stored_exactly(product.terms.values())


@GROUP
@given(data=st.data())
def test_convolve_by_translation_equals_the_fraction_oracle_on_either_side(data):
    """Terms share a few weights (int, Fraction, negative), one factor with
    few terms and one with many, taken in both orders: the loop over the
    smaller side runs over the left factor's tables and over the right
    factor's words."""
    n = data.draw(st.integers(0, TOP))
    weights = st.sampled_from(data.draw(st.lists(scalars.filter(bool), min_size=1, max_size=3)))
    sigmas = st.permutations(range(1, n + 1)).map(tuple)
    few, many = (
        GroupAlgebraElement(n, data.draw(st.dictionaries(sigmas, weights, max_size=size)))
        for size in (2, 12)
    )
    for a, b in ((few, many), (many, few)):
        product = convolve(a, b)
        assert product.terms == convolve_by_fractions(a, b)
        assert _stored_exactly(product.terms.values())


@st.composite
def class_built_elements(draw, n):
    """An element that carries class coordinates: ``xi`` or ``delta`` of a
    composition of n, or ``psi_inverse`` of ribbon terms with nonzero
    coefficients of either sign."""
    kind = draw(st.sampled_from(("xi", "delta", "R")))
    if kind == "R":
        comps = st.sampled_from(compositions_of(n))
        terms = draw(st.dictionaries(comps, scalars.filter(bool), min_size=1, max_size=4))
        return psi_inverse(NSymElement("R", terms))
    return (xi if kind == "xi" else delta)(draw(st.sampled_from(compositions_of(n))))


@GROUP
@given(data=st.data())
def test_convolve_of_class_built_elements_equals_the_fraction_oracle(data):
    n = data.draw(st.integers(0, TOP))
    a, b = data.draw(class_built_elements(n)), data.draw(class_built_elements(n))
    if n > 1 and data.draw(st.booleans()):
        # (e + c w0)(e - c w0) = (1 - c^2) e, w0 the longest permutation:
        # the coordinate over the class of w0 cancels
        c = data.draw(scalars.filter(bool))
        a, b = (psi_inverse(NSymElement("R", {(n,): 1, (1,) * n: s})) for s in (c, -c))
    product = convolve(a, b)
    assert product.terms == convolve_by_fractions(a, b)
    assert list(product._coords.items()) == list(descent_span_coordinates(product).items())
    assert _stored_exactly(product._coords.values())


@st.composite
def descent_span_elements(draw, n):
    x = GroupAlgebraElement(n, {})
    for alpha in draw(st.lists(st.sampled_from(compositions_of(n)), max_size=4)):
        x = x + draw(scalars) * delta(alpha)
    return x


@GROUP
@given(data=st.data())
def test_theta_equals_the_mobius_sum_over_young_characters(data):
    n = data.draw(st.integers(0, 6))
    d = data.draw(descent_span_elements(n))
    assert theta(d) == theta_by_mobius(d)


# space -> (product, multiplicative basis, product of its indices)
PRODUCTS = {
    "nsym": (nsym_multiply, "H", add),
    "sym": (sym_multiply, "h", lambda a, b: tuple(sorted(a + b, reverse=True))),
}

PRODUCT_PAIRS = [
    (space, left, right)
    for space in PRODUCTS
    for left in SPACES[space][3]
    for right in SPACES[space][3]
]


@pytest.mark.parametrize("space,left,right", PRODUCT_PAIRS)
@KERNEL
@given(data=st.data())
def test_products_equal_the_fraction_oracle(space, left, right, data):
    """Factors of mixed degree at most 3, so products of degree at most 6,
    with the unit and empty factors; in (x + c)(x - c) the cross terms cx
    and -xc meet from the degree pairs (0, n) and (n, 0) and cancel."""
    cls, convert, _, _, of_degree = SPACES[space]
    multiply, basis, combine = PRODUCTS[space]
    indices = st.sampled_from([idx for n in range(4) for idx in of_degree(n)])
    x = cls(left, data.draw(st.dictionaries(indices, scalars, max_size=4)))
    y = cls(right, data.draw(st.dictionaries(indices, scalars, max_size=4)))
    c = data.draw(scalars)
    unit = {(): 1}
    pairs = [
        (x, y),
        (y, x),
        (x, cls(right, {})),
        (cls(left, {}), y),
        (x, cls(right, unit)),
        (cls(left, unit), y),
        (x + cls(left, {(): c}), convert(x, right) - cls(right, {(): c})),
    ]
    for a, b in pairs:
        product = multiply(a, b)
        assert type(product) is cls and product.basis == a.basis
        assert product.terms == multiply_by_fractions(a, b, basis, combine)
        assert _stored_exactly(product.terms.values())
    assert multiply(x, cls(right, unit)) == x
    assert multiply(cls(left, unit), y) == convert(y, left)
    assert multiply(x, cls(right, {})).is_zero()


# (space, basis of the left factor, top degree of each factor): the bases
# with a rule of their own and those taken in the hub, with products up to
# degree 14 in NSym R, H and E, 10 in S and YS (their hops are whole
# matrices) and 12 in Sym
LARGE_PRODUCTS = [
    *(("nsym", left, 7) for left in ("R", "H", "E")),
    *(("nsym", left, 5) for left in ("S", "YS")),
    *(("sym", left, 6) for left in SYM_BASES),
]


@pytest.mark.parametrize("space,left,n", LARGE_PRODUCTS)
@KERNEL
@given(data=st.data())
def test_products_at_large_degree_equal_the_fraction_oracle(space, left, n, data):
    """Factors with terms of degrees n - 1 and n, the right one in the left
    factor's basis and in a drawn one."""
    cls, _, _, bases, of_degree = SPACES[space]
    multiply, basis, combine = PRODUCTS[space]
    indices = st.sampled_from([idx for k in (n - 1, n) for idx in of_degree(k)])
    draw = lambda b: cls(b, data.draw(st.dictionaries(indices, coefficients, min_size=1, max_size=4)))
    x = draw(left)
    for y in (draw(left), draw(data.draw(st.sampled_from(bases)))):
        product = multiply(x, y)
        assert product.basis == left
        assert product.terms == multiply_by_fractions(x, y, basis, combine)


def _stored_exactly(values) -> bool:
    return all(
        type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in values
    )


@EXAMPLES
@given(data=st.data())
def test_stored_coefficients_are_int_or_a_proper_fraction(data):
    c = data.draw(scalars)
    for space, (cls, convert, _, bases, _) in SPACES.items():
        source, target = (data.draw(st.sampled_from(bases)) for _ in range(2))
        x, y = (cls(source, data.draw(MIXED_TERMS[space])) for _ in range(2))
        for z in (x, x + y, x - y, -x, x * c, c * x, convert(x, target)):
            assert _stored_exactly(z.terms.values())
    n = data.draw(st.integers(1, TOP))
    a, b = data.draw(group_elements(n)), data.draw(group_elements(n))
    for z in (a, a + b, a - b, -a, a * c, convolve(a, b)):
        assert _stored_exactly(z.terms.values())
    basis = data.draw(st.sampled_from(NSYM_BASES))
    f = NSymElement(basis, {alpha: data.draw(scalars) for alpha in compositions_of(n)})
    assert _stored_exactly(psi_inverse(f).terms.values())
    # class-function values are Fractions, so that dividing one stays exact
    g = SymElement("s", {lam: data.draw(st.integers(1, 3)) for lam in partitions_of(n)})
    for values in (theta(psi_inverse(f)).values, ch_inverse(g).values):
        assert all(type(v) is Fraction for v in values.values())


@EXAMPLES
@given(data=st.data())
def test_results_built_unchecked_equal_their_checked_copies(data):
    c = data.draw(scalars)
    built = []
    for space, (cls, convert, _, bases, _) in SPACES.items():
        source, target = (data.draw(st.sampled_from(bases)) for _ in range(2))
        x, y = (cls(source, data.draw(MIXED_TERMS[space])) for _ in range(2))
        built += [convert(x, target), x + y, x - y, -x, x * c, c * x]
        if space != "qsym":
            built.append(PRODUCTS[space][0](x, y))
    x, y, z = (_element(data, space) for space in ("nsym", "qsym", "sym"))
    built += [star_antiautomorphism(x), forgetful_map(x), reversal_automorphism(y)]
    built += [embed_sym_in_qsym(z), symmetric_part(embed_sym_in_qsym(z))]
    if symmetric_part(y) is not None:
        built.append(symmetric_part(y))
    n = data.draw(st.integers(0, TOP))
    a, b = data.draw(group_elements(n)), data.draw(group_elements(n))
    alpha = data.draw(st.sampled_from(compositions_of(n)))
    basis = data.draw(st.sampled_from(NSYM_BASES))
    f = NSymElement(basis, {beta: data.draw(scalars) for beta in compositions_of(n)})
    built += [a + b, a - b, -a, a * c, c * a, convolve(a, b), xi(alpha), delta(alpha)]
    built.append(psi_inverse(f))
    values = {mu: data.draw(scalars) for mu in partitions_of(n)}
    built.append(frobenius_ch(ClassFunction(n, values)))
    for z in built:
        checked = type(z)(getattr(z, z._TAG), dict(z.terms))
        assert z.terms == checked.terms
        assert all(type(v) is type(checked.terms[k]) for k, v in z.terms.items())


@pytest.mark.parametrize(
    "cls,basis,index",
    [
        (SymElement, "h", (2, 1)),
        (QSymElement, "F", (1, 2)),
        (NSymElement, "R", (1, 2)),
        (GroupAlgebraElement, 3, (2, 3, 1)),
    ],
)
def test_integral_coefficients_are_stored_as_int(cls, basis, index):
    built = [cls(basis, {index: value}) for value in (3, Fraction(3), Fraction(6, 2))]
    assert built[0] == built[1] == built[2]
    assert all(x.terms == {index: 3} and type(x.terms[index]) is int for x in built)
    half = cls(basis, {index: Fraction(1, 2)})
    assert type((half + half).terms[index]) is int
    assert type(cls(basis, {index: True}).terms[index]) is int
    assert type((half * 2).terms[index]) is int
