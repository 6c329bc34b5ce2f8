from fractions import Fraction

import pytest

from ncsf import (
    SYM_BASES,
    kostka_counts,
    nsym_element,
    partitions_of,
    qsym_basis_element,
    schur,
    sym_basis_element,
    sym_convert,
    sym_element,
    sym_multiply,
)
from ncsf.errors import BasisMismatchError
from ncsf.sym import transition_matrix

from oracles import is_identity, matmul, p_inner_product, sym_multiply_through_p


def test_h2_in_e_basis():
    assert sym_convert(sym_basis_element("h", (2,)), "e").terms == {
        (1, 1): 1,
        (2,): -1,
    }


def test_h2_in_p_basis():
    assert sym_convert(sym_basis_element("h", (2,)), "p").terms == {
        (1, 1): Fraction(1, 2),
        (2,): Fraction(1, 2),
    }


def test_schur_21_in_h_basis():
    assert schur((2, 1)).terms == {(2, 1): 1, (3,): -1}


def test_degree_one_generator_is_shared():
    for basis in SYM_BASES:
        assert sym_convert(sym_basis_element("h", (1,)), basis).terms == {(1,): 1}


def test_schur_unit_and_single_row():
    assert schur(()).terms == {(): 1}
    for n in range(1, 7):
        assert schur((n,)).terms == {(n,): 1}


def test_schur_single_column_is_elementary():
    for r in range(1, 7):
        column = sym_convert(schur((1,) * r), "e")
        assert column.terms == {(r,): 1}


def test_multiplication():
    h2, h1 = sym_basis_element("h", (2,)), sym_basis_element("h", (1,))
    assert sym_multiply(h2, h1).terms == {(2, 1): 1}
    e1 = sym_basis_element("e", (1,))
    assert sym_multiply(e1, e1).terms == {(1, 1): 1}
    s1 = sym_basis_element("s", (1,))
    assert sym_multiply(s1, s1).terms == {(2,): 1, (1, 1): 1}


def test_multiplication_unit_and_commutativity():
    one = sym_element("h", {(): 1})
    x = sym_element("h", {(3, 1): 2, (2,): Fraction(1, 3)})
    assert sym_multiply(one, x) == x
    y = sym_basis_element("h", (2, 2))
    assert sym_convert(sym_multiply(x, y), "p") == sym_convert(sym_multiply(y, x), "p")


@pytest.mark.parametrize("n", range(7))
def test_product_through_h_equals_the_product_through_p(n):
    for a in SYM_BASES:
        for b in SYM_BASES:
            for i in range(n + 1):
                x = sym_element(a, {lam: k + 1 for k, lam in enumerate(partitions_of(i))})
                ys = enumerate(partitions_of(n - i))
                y = sym_element(b, {mu: Fraction(1, k + 2) for k, mu in ys})
                assert sym_multiply(x, y) == sym_multiply_through_p(x, y), (a, b, i, n - i)


def test_round_trips_all_basis_pairs():
    for n in range(0, 7):
        for b1 in SYM_BASES:
            for b2 in SYM_BASES:
                assert is_identity(
                    matmul(transition_matrix(b1, b2, n), transition_matrix(b2, b1, n))
                ), (b1, b2, n)


def test_conversions_are_multiplicative_on_generators():
    for target in SYM_BASES:
        for a in range(1, 4):
            for b in range(1, 7 - a):
                xa = sym_convert(sym_basis_element("h", (a,)), target)
                xb = sym_convert(sym_basis_element("h", (b,)), target)
                product = sym_multiply(xa, xb)
                direct = sym_convert(sym_basis_element("h", tuple(sorted((a, b), reverse=True))), target)
                assert product == direct, (target, a, b)


def test_jacobi_trudi_matches_kostka_expansion():
    # h -> m is the inverse Jacobi-Trudi matrix times its transpose, so the
    # Kostka numbers, counted as tableaux, are an independent check on both
    for n in range(0, 7):
        for lam in partitions_of(n):
            expanded = sym_convert(schur(lam), "m")
            expected = {
                mu: Fraction(kostka_counts(lam, mu))
                for mu in partitions_of(n)
                if kostka_counts(lam, mu)
            }
            assert expanded.terms == expected, lam


@pytest.mark.parametrize("n", range(10))
def test_schur_to_monomial_matrix_is_the_kostka_table(n):
    parts = partitions_of(n)
    want = tuple(tuple(kostka_counts(lam, mu) for mu in parts) for lam in parts)
    assert transition_matrix("s", "m", n) == want


@pytest.mark.parametrize("n", range(8))
def test_complete_and_monomial_bases_are_dual_under_power_sum_pairing(n):
    for lam in partitions_of(n):
        h = sym_basis_element("h", lam)
        for mu in partitions_of(n):
            assert p_inner_product(h, sym_basis_element("m", mu)) == (lam == mu), (lam, mu)


def test_schur_orthonormality_under_power_sum_pairing():
    for n in range(0, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = Fraction(1 if lam == mu else 0)
                assert p_inner_product(schur(lam), schur(mu)) == expected


def test_element_arithmetic_requires_matching_basis():
    with pytest.raises(BasisMismatchError):
        sym_basis_element("h", (2,)) + sym_basis_element("e", (2,))


def test_zero_coefficients_are_dropped():
    assert sym_element("h", {(2,): 0, (1, 1): 1}).terms == {(1, 1): 1}
    assert (sym_basis_element("h", (2,)) - sym_basis_element("h", (2,))).terms == {}


def test_mixed_degree_elements_convert_per_degree():
    x = sym_element("h", {(2,): 1, (1,): 1, (): 1})
    p = sym_convert(x, "p")
    assert p.terms == {
        (2,): Fraction(1, 2),
        (1, 1): Fraction(1, 2),
        (1,): 1,
        (): 1,
    }
    assert sym_convert(p, "h") == x


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sym_element("q", {})
    with pytest.raises(ValueError):
        sym_basis_element("h", (1, 2))
    with pytest.raises(TypeError):
        sym_element("h", {(1,): 0.5})
    # a factor of another space is refused, not read as a Sym element
    h1 = sym_basis_element("h", (1,))
    for other in (nsym_element("S", {(1,): 1}), qsym_basis_element("M", (2, 1))):
        with pytest.raises(TypeError):
            sym_multiply(sym_element("s", {(1,): 1}), other)
        with pytest.raises(TypeError):
            sym_multiply(h1, other)
