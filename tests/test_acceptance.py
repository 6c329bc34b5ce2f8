"""Acceptance suite: one test per criterion, every identity exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import functools
from fractions import Fraction
from math import factorial

from ncsf import (
    NSYM_BASES,
    QSYM_BASES,
    SYM_BASES,
    compositions_of,
    class_products,
    convolve,
    descent_span_coordinates,
    enumerate_syct,
    enumerate_syt,
    forgetful_map,
    frobenius_ch,
    irreducible_character,
    kostka_counts,
    noncommutative_character,
    partitions_of,
    psi,
    qsym_basis_element,
    qsym_convert,
    qsym_element,
    rho_bar,
    sym_convert,
    sym_element,
    theta,
    underlying_partition,
    xi,
    young_character,
    z_stat,
)
from ncsf.nsym import duality_pairing, nsym_basis_element
from ncsf.nsym import transition_matrix as nsym_tm
from ncsf.qsym import compositions_with_underlying
from ncsf.qsym import transition_matrix as qsym_tm
from ncsf.sym import transition_matrix as sym_tm

from oracles import (
    INVOLUTIONS,
    conjugacy_classes,
    hook_length_count,
    is_identity,
    matmul,
    murnaghan_nakayama,
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {number} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "noncommutative irreducible characters, n=1..6")
def test_criterion_1_main_theorem():
    checks = 0
    for n in range(1, 7):
        for alpha in compositions_of(n):
            expected = irreducible_character(underlying_partition(alpha))
            for family in ("S", "YS"):
                got = theta(noncommutative_character(alpha, family))
                assert got == expected, (alpha, family)
                checks += 1
    assert checks == 126


@criterion(2, "worked expansions and tableau counts")
def test_criterion_2_worked_example():
    assert qsym_convert(qsym_basis_element("YQS", (1, 3)), "F").terms == {(1, 3): 1}
    assert qsym_convert(qsym_basis_element("QS", (1, 3)), "F").terms == {
        (1, 3): 1,
        (2, 2): 1,
    }
    assert len(enumerate_syct((1, 3))) == 1
    assert len(enumerate_syct((3, 1))) == 2


@criterion(3, "dual-basis pairing matrices, n<=5")
def test_criterion_3_duality():
    pairs = (("M", "H"), ("F", "R"), ("QS", "S"), ("YQS", "YS"))
    for n in range(0, 6):
        comps = compositions_of(n)
        for qsym_basis, nsym_basis in pairs:
            pairing = tuple(
                tuple(
                    duality_pairing(
                        qsym_basis_element(qsym_basis, alpha),
                        nsym_basis_element(nsym_basis, beta),
                    )
                    for beta in comps
                )
                for alpha in comps
            )
            assert is_identity(pairing), (qsym_basis, nsym_basis, n)


@criterion(4, "orbit sums refine Schur functions, n<=6")
def test_criterion_4_refinement_identity():
    for n in range(1, 7):
        for lam in partitions_of(n):
            # independent expansion: Kostka counts drive the monomial side
            expected = {}
            for mu in partitions_of(n):
                count = kostka_counts(lam, mu)
                if count:
                    for alpha in compositions_with_underlying(mu):
                        expected[alpha] = expected.get(alpha, 0) + count
            expected_element = qsym_element("M", expected)
            for basis in ("QS", "YQS"):
                orbit = qsym_element(
                    basis,
                    {alpha: 1 for alpha in compositions_with_underlying(lam)},
                )
                assert qsym_convert(orbit, "M") == expected_element, (basis, lam)


@criterion(5, "commuting square on contained-descent sums, n<=6")
def test_criterion_5_commuting_square():
    for n in range(1, 7):
        for alpha in compositions_of(n):
            element = xi(alpha)
            lhs = sym_convert(frobenius_ch(theta(element)), "h")
            rhs = forgetful_map(psi(element))
            expected = sym_element("h", {underlying_partition(alpha): 1})
            assert lhs == rhs == expected, alpha


@criterion(6, "descent-span closure and pointwise products, n<=5")
def test_criterion_6_solomon():
    for n in range(1, 6):
        for alpha in compositions_of(n):
            xi_alpha = xi(alpha)
            for beta in compositions_of(n):
                product = convolve(xi_alpha, xi(beta))
                assert descent_span_coordinates(product) is not None, (alpha, beta)
                expected = class_products(
                    young_character(alpha), young_character(beta), "pointwise"
                )
                assert theta(product) == expected, (alpha, beta)


@criterion(7, "column-sorting bijection onto standard tableaux, n<=6")
def test_criterion_7_rho_bar_bijection():
    for n in range(1, 7):
        total = 0
        for lam in partitions_of(n):
            images = []
            for alpha in compositions_of(n):
                if underlying_partition(alpha) != lam:
                    continue
                images.extend(rho_bar(t) for t in enumerate_syct(alpha))
            image_rows = {t.rows for t in images}
            assert len(images) == len(image_rows), lam
            assert image_rows == {t.rows for t in enumerate_syt(lam)}, lam
            total += len(images)
        assert total == INVOLUTIONS[n - 1]


@criterion(8, "degree-5 character table against a brute-force oracle")
def test_criterion_8_character_oracle():
    n = 5
    parts = partitions_of(n)
    classes = conjugacy_classes(n)
    assert set(classes) == set(parts)
    for mu in parts:
        assert len(classes[mu]) == factorial(n) // z_stat(mu)
    table = {
        lam: {mu: murnaghan_nakayama(lam, mu) for mu in parts} for lam in parts
    }
    for lam in parts:
        assert table[lam][(1,) * n] == hook_length_count(lam)
    for lam in parts:
        for nu in parts:
            inner = sum(
                Fraction(len(classes[mu]) * table[lam][mu] * table[nu][mu], factorial(n))
                for mu in parts
            )
            assert inner == (1 if lam == nu else 0)
    for lam in parts:
        assert irreducible_character(lam).values == table[lam], lam


@criterion(9, "all conversion matrix pairs mutually inverse, n<=6")
def test_criterion_9_round_trips():
    spaces = (
        (SYM_BASES, sym_tm),
        (QSYM_BASES, qsym_tm),
        (NSYM_BASES, nsym_tm),
    )
    for n in range(0, 7):
        for bases, tm in spaces:
            for b1 in bases:
                for b2 in bases:
                    assert is_identity(matmul(tm(b1, b2, n), tm(b2, b1, n))), (b1, b2, n)
