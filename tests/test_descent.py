"""Permutations, descent classes and the group algebra: the descent-algebra
elements, their products and psi.  An element built from class coordinates
lists its terms on first read, and behaves then as the listing of S_n it
replaces, also when copied, pickled or read by two threads at once."""

import copy
import pickle
import sys
import threading
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from ncsf import (
    NSymElement,
    compose,
    compositions_of,
    convolve,
    cycle_type,
    delta,
    descent_composition_perm,
    descent_span_coordinates,
    group_algebra_element,
    max_group_degree,
    nsym_basis_element,
    nsym_convert,
    nsym_multiply,
    psi,
    psi_inverse,
    set_of,
    xi,
)
from ncsf import descent
from ncsf.descent import GroupAlgebraElement, descent_classes, descent_set_perm
from ncsf.errors import (
    DegreeMismatchError,
    NotInDescentSpanError,
    ResourceLimitError,
)


def test_descent_composition_perm():
    assert descent_composition_perm((3, 1, 2)) == (1, 2)
    for n in range(1, 7):
        assert descent_composition_perm(tuple(range(1, n + 1))) == (n,)
        assert descent_composition_perm(tuple(range(n, 0, -1))) == (1,) * n


def test_compose_convention():
    # (sigma . tau)(i) = sigma(tau(i))
    sigma = (2, 3, 1)
    tau = (2, 1, 3)
    assert compose(sigma, tau) == (3, 2, 1)


@pytest.mark.parametrize("sigma, tau", [((1, 1), (1, 2)), ((5, 9), (2, 1)), ((1, 2), (3, 1))])
def test_compose_refuses_a_factor_that_is_not_a_permutation(sigma, tau):
    with pytest.raises(ValueError, match="not a permutation"):
        compose(sigma, tau)


def test_compose_refuses_permutations_of_different_degrees():
    with pytest.raises(DegreeMismatchError):
        compose((1, 2), (1, 2, 3))


@pytest.mark.parametrize("descents", [descent_set_perm, descent_composition_perm])
def test_descents_refuse_a_sequence_that_is_not_a_permutation(descents):
    with pytest.raises(ValueError, match="not a permutation"):
        descents((3, 3, 1))


def test_cycle_type():
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 1, 3)) == (2, 1)
    assert cycle_type((2, 3, 1)) == (3,)


def test_xi_single_part_is_identity_permutation():
    assert xi((3,)).terms == {(1, 2, 3): 1}


def test_xi_one_two():
    assert sorted(xi((1, 2)).terms) == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]


def test_xi_term_counts_are_coset_counts():
    for n in range(1, 7):
        for alpha in compositions_of(n):
            expected = factorial(n)
            for part in alpha:
                expected //= factorial(part)
            assert len(xi(alpha).terms) == expected, alpha


def test_delta_one_two():
    assert sorted(delta((1, 2)).terms) == [(2, 1, 3), (3, 1, 2)]


def test_delta_single_part():
    for n in range(1, 7):
        assert delta((n,)).terms == {tuple(range(1, n + 1)): 1}


def test_delta_classes_partition_the_group():
    for n in range(1, 6):
        assert sum(len(delta(alpha).terms) for alpha in compositions_of(n)) == factorial(n)


def test_xi_is_sum_of_deltas_over_contained_cut_sets():
    for n in range(1, 7):
        for alpha in compositions_of(n):
            cuts = set(set_of(alpha).elements)
            total = None
            for beta in compositions_of(n):
                if set(set_of(beta).elements) <= cuts:
                    total = delta(beta) if total is None else total + delta(beta)
            assert total == xi(alpha), alpha


def test_convolve_identity_element():
    for n in range(1, 5):
        unit = xi((n,))
        x = delta(tuple([1] * n)) + 3 * xi((n,))
        assert convolve(unit, x) == x
        assert convolve(x, unit) == x


def test_convolve_transposition_squared():
    t = group_algebra_element(3, {(2, 1, 3): 1})
    assert convolve(t, t).terms == {(1, 2, 3): 1}


def test_convolve_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        convolve(xi((2,)), xi((3,)))


def test_descent_span_coordinates_of_xi():
    for n in range(1, 6):
        for alpha in compositions_of(n):
            coords = descent_span_coordinates(xi(alpha))
            cuts = set(set_of(alpha).elements)
            expected = {
                beta: Fraction(1)
                for beta in compositions_of(n)
                if set(set_of(beta).elements) <= cuts
            }
            assert coords == expected


def test_single_permutation_not_in_span():
    element = group_algebra_element(3, {(2, 1, 3): 1})
    assert descent_span_coordinates(element) is None
    with pytest.raises(NotInDescentSpanError):
        psi(element)


def test_solomon_closure():
    for n in range(1, 6):
        for alpha in compositions_of(n):
            xa = xi(alpha)
            for beta in compositions_of(n):
                product = convolve(xa, xi(beta))
                assert descent_span_coordinates(product) is not None, (alpha, beta)


def test_psi_sends_xi_to_complete_homogeneous():
    for n in range(1, 6):
        for alpha in compositions_of(n):
            assert nsym_convert(psi(xi(alpha)), "H").terms == {alpha: 1}


def test_psi_respects_graded_products_on_generators():
    for a in range(1, 6):
        for b in range(1, 7 - a):
            concatenated = psi(xi((a, b)))
            product = nsym_multiply(
                nsym_basis_element("H", (a,)), nsym_basis_element("H", (b,))
            )
            assert nsym_convert(concatenated, "H") == product


def test_psi_inverse_of_ribbon():
    assert psi_inverse(nsym_basis_element("R", (1, 2))) == delta((1, 2))


def test_psi_inverse_is_right_inverse():
    for n in range(1, 5):
        for alpha in compositions_of(n):
            for basis in ("H", "R", "S", "YS", "E"):
                x = nsym_basis_element(basis, alpha)
                assert psi(psi_inverse(x)) == nsym_convert(x, "R"), (basis, alpha)


def test_class_built_elements_carry_the_coordinates_the_scan_finds():
    for n in range(7):
        for alpha in compositions_of(n):
            built = {"xi": xi(alpha), "delta": delta(alpha)}
            for basis in ("E", "H", "R", "S", "YS"):
                built[basis] = psi_inverse(nsym_basis_element(basis, alpha))
            for name, d in built.items():
                assert d._coords is not None, (name, alpha)
                assert descent_span_coordinates(d) == d._coords, (name, alpha)


def test_psi_of_class_built_elements_does_not_scan(monkeypatch):
    def no_scan(a):
        raise AssertionError("scanned S_n")

    monkeypatch.setattr(descent, "descent_span_coordinates", no_scan)
    for alpha in compositions_of(4):
        assert nsym_convert(psi(xi(alpha)), "H").terms == {alpha: 1}
        assert psi(delta(alpha)).terms == {alpha: 1}
        x = nsym_basis_element("S", alpha)
        assert psi(psi_inverse(x)) == nsym_convert(x, "R")


def test_other_elements_carry_no_coordinates():
    x, y = xi((1, 2)), delta((2, 1))
    others = (
        group_algebra_element(3, x.terms),
        x + y,
        x - y,
        2 * x,
        -x,
        convolve(x + y, y),
        convolve(y, 2 * x),
    )
    for z in others:
        assert z._coords is None
    assert group_algebra_element(3, x.terms) == x
    assert "_coords" not in repr(x)
    # psi finds their coordinates by the scan
    assert psi(x + y) == psi(x) + psi(y)
    assert psi(convolve(x + y, y)).terms == descent_span_coordinates(convolve(x + y, y))
    with pytest.raises(NotInDescentSpanError):
        psi(x + group_algebra_element(3, {(2, 1, 3): 1}))


def test_products_of_class_built_elements_carry_the_coordinates_the_scan_finds():
    x, y = xi((1, 2)), delta((2, 1))
    for product in (convolve(x, y), convolve(y, x), convolve(x, x)):
        assert product._coords is not None
        assert list(product._coords.items()) == list(descent_span_coordinates(product).items())
    # (e + w0)(e - w0) = 0, w0 the longest permutation: every coordinate cancels
    plus, minus = (psi_inverse(NSymElement("R", {(3,): 1, (1, 1, 1): c})) for c in (1, -1))
    zero = convolve(plus, minus)
    assert zero.terms == {} and zero._coords == {}


@pytest.mark.parametrize("n", range(7))
def test_class_products_are_the_scanned_coordinates_of_class_sum_products(n):
    # class sums built by the constructor carry no coordinates, so their
    # product is taken in S_n and scanned
    sums = {
        alpha: group_algebra_element(n, dict.fromkeys(delta(alpha).terms, 1))
        for alpha in compositions_of(n)
    }
    assert all(delta_d._coords is None for delta_d in sums.values())
    for d, delta_d in sums.items():
        for e, delta_e in sums.items():
            want = descent_span_coordinates(convolve(delta_d, delta_e))
            vector = descent._class_product(n, d, e)
            assert len(vector) == len(sums)
            got = {alpha: k for alpha, k in zip(compositions_of(n), vector) if k}
            assert got == want, (d, e)


def test_a_one_off_class_product_counts_each_permutation_product_once(monkeypatch):
    formed = []
    count_products = descent._count_products

    def counting(tables, words, count):
        formed.append(len(tables) * len(words))
        return count_products(tables, words, count)

    monkeypatch.setattr(descent, "_count_products", counting)
    descent._class_product.cache_clear()
    a, b = xi((3, 4)), xi((2, 5))
    product = convolve(a, b)
    assert sum(formed) == len(a.terms) * len(b.terms)
    formed.clear()
    assert convolve(a, b) == product
    assert formed == []
    assert product.terms == convolve(group_algebra_element(7, a.terms), b).terms


def test_psi_inverse_requires_homogeneous():
    mixed = nsym_basis_element("H", (2,)) + nsym_basis_element("H", (1, 2))
    with pytest.raises(DegreeMismatchError):
        psi_inverse(mixed)


def test_descent_classes_group_permutations_by_descent_set_in_order():
    for n in range(8):
        grouping = {}
        for sigma in permutations(range(1, n + 1)):
            grouping.setdefault(descent_set_perm(sigma), []).append(sigma)
        classes = descent._descent_classes(n)
        assert list(classes) == list(grouping)
        assert classes == {key: tuple(sigmas) for key, sigmas in grouping.items()}
        by_composition = descent._composition_classes(n)
        assert list(by_composition) == list(compositions_of(n))
        for alpha, sigmas in by_composition.items():
            assert sigmas == classes[set_of(alpha).elements if n else ()]


def test_degree_bound_is_enforced(monkeypatch):
    monkeypatch.setenv("NCSF_MAX_N", "4")
    assert max_group_degree() == 4
    with pytest.raises(ResourceLimitError):
        xi((5,))
    monkeypatch.setenv("NCSF_MAX_N", "5")
    assert len(xi((5,)).terms) == 1


def test_degree_bound_is_checked_on_cached_calls(monkeypatch):
    monkeypatch.delenv("NCSF_MAX_N", raising=False)
    assert len(descent_classes(6)) == 32
    hits = descent_classes.cache_info().hits
    assert len(descent_classes(6)) == 32
    assert descent_classes.cache_info().hits == hits + 1
    monkeypatch.setenv("NCSF_MAX_N", "4")
    with pytest.raises(ResourceLimitError):
        descent_classes(6)


def test_default_degree_bound(monkeypatch):
    monkeypatch.delenv("NCSF_MAX_N", raising=False)
    assert max_group_degree() == 8
    with pytest.raises(ResourceLimitError):
        delta((9,))


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_degree_bound_must_be_a_nonnegative_integer(monkeypatch, value):
    monkeypatch.setenv("NCSF_MAX_N", value)
    with pytest.raises(ValueError, match="NCSF_MAX_N must be a nonnegative integer"):
        max_group_degree()
    with pytest.raises(ValueError, match="NCSF_MAX_N"):
        xi((1, 2))


def test_group_algebra_element_validation():
    with pytest.raises(ValueError):
        group_algebra_element(3, {(1, 1, 2): 1})
    with pytest.raises(DegreeMismatchError):
        group_algebra_element(3, {(1, 2): 1})
    assert group_algebra_element(3, {(1, 2, 3): 0}).terms == {}


def _class_built(n: int) -> dict:
    """Makers of the class-built elements of degree ``n``: from ``xi``,
    ``delta``, ``psi_inverse`` and a ``convolve`` of two of them, each
    building a new element on every call."""
    comps = compositions_of(n)
    alpha, beta = comps[len(comps) // 2], comps[-1]
    return {
        "xi": lambda: xi(alpha),
        "delta": lambda: delta(beta),
        "psi_inverse": lambda: psi_inverse(nsym_basis_element("S", alpha)),
        "convolve": lambda: convolve(xi(alpha), delta(beta)),
    }


def _listed(x) -> GroupAlgebraElement:
    """The element of ``x``'s class coordinates with its terms listed over
    S_n in the order of its coordinates, as elements were built before their
    terms were listed on demand, each class read by its descent set."""
    classes = descent._descent_classes(x.n)
    terms = {
        sigma: c
        for alpha, c in x._coords.items()
        for sigma in classes[descent._cut_points(alpha)]
    }
    return GroupAlgebraElement._of(x.n, terms)


@pytest.mark.parametrize("n", range(7))
def test_class_built_elements_list_their_terms_on_first_read(n):
    # the first permutation of each descent class: an element without coordinates
    firsts = {sigmas[0]: 1 for sigmas in descent._descent_classes(n).values()}
    other = group_algebra_element(n, firsts)
    assert other._coords is None
    for kind, make in _class_built(n).items():
        x = make()
        assert "terms" not in vars(x), kind
        want = _listed(x)
        # the listing is the scan of S_n by descent composition
        scan = {
            sigma: x._coords.get(descent_composition_perm(sigma), 0)
            for sigma in permutations(range(1, n + 1))
        }
        assert want.terms == {sigma: c for sigma, c in scan.items() if c}, kind
        assert make() == want and want == make(), kind
        assert repr(make()) == repr(want), kind
        assert make() + other == want + other and other + make() == other + want, kind
        assert make() - other == want - other, kind
        assert repr(make() + other) == repr(want + other), kind
        assert convolve(make(), other) == convolve(want, other), kind
        assert convolve(other, make()) == convolve(other, want), kind
        assert descent_span_coordinates(make()) == x._coords, kind
        # the first read keeps the terms
        assert x.terms is x.terms and vars(x)["terms"] == want.terms, kind


def test_copies_pickles_and_threads_read_the_listed_terms():
    x = xi((2, 1, 2))
    want = _listed(x)
    cold = (copy.copy(xi((2, 1, 2))), copy.deepcopy(xi((2, 1, 2))))
    cold += (pickle.loads(pickle.dumps(xi((2, 1, 2)))),)
    for y in cold:
        assert "terms" not in vars(y) and y._coords == x._coords
        assert y.terms == want.terms and y == want
    assert x.terms == want.terms
    warm = (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)))
    for y in warm:
        assert "terms" in vars(y) and y == want
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            y, read = xi((1, 1, 2, 1)), []
            threads = [threading.Thread(target=lambda: read.append(y.terms)) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert read == [_listed(y).terms] * 2
            assert y.terms == _listed(y).terms
    finally:
        sys.setswitchinterval(interval)


def test_other_attributes_are_missing_as_before():
    x = xi((1, 2))
    with pytest.raises(AttributeError, match="'GroupAlgebraElement' object has no attribute 'nope'"):
        x.nope
    assert not hasattr(x, "nope") and "terms" not in vars(x)
