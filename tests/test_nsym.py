import random
from fractions import Fraction
from itertools import product

import pytest

from ncsf import (
    NSYM_BASES,
    NSymElement,
    compositions_of,
    duality_pairing,
    forgetful_map,
    nsym_basis_element,
    nsym_convert,
    nsym_element,
    nsym_multiply,
    qsym_basis_element,
    qsym_convert,
    reversal,
    schur,
    star_antiautomorphism,
    sym_basis_element,
    sym_convert,
    underlying_partition,
)
from ncsf.nsym import transition_matrix
from ncsf.qsym import transition_matrix as qsym_transition_matrix
from ncsf.tableaux import dhat_matrix

from oracles import is_identity, matmul, nsym_matrix_through_h, transpose

# the QSym basis dual to each NSym basis under <F_alpha, R_beta> = delta
_QSYM_DUAL = {"H": "M", "R": "F", "S": "QS", "YS": "YQS"}


def test_h2_in_elementary_basis():
    assert nsym_convert(nsym_basis_element("H", (2,)), "E").terms == {
        (1, 1): 1,
        (2,): -1,
    }


def test_ribbon_single_part():
    for n in range(1, 7):
        assert nsym_convert(nsym_basis_element("R", (n,)), "H").terms == {(n,): 1}


def test_ribbon_one_one():
    assert nsym_convert(nsym_basis_element("R", (1, 1)), "H").terms == {
        (1, 1): 1,
        (2,): -1,
    }


def test_ribbon_in_schur_family_from_counts():
    comps = compositions_of(4)
    index = {alpha: i for i, alpha in enumerate(comps)}
    dhat = dhat_matrix(4)
    expansion = nsym_convert(nsym_basis_element("R", (2, 2)), "S").terms
    expected = {}
    for beta in comps:
        count = dhat[index[reversal(beta)]][index[reversal((2, 2))]]
        if count:
            expected[beta] = Fraction(count)
    assert expansion == expected
    assert expansion[(2, 2)] == 1


def test_multiplication_concatenates():
    x = nsym_multiply(nsym_basis_element("H", (2,)), nsym_basis_element("H", (1, 3)))
    assert x.terms == {(2, 1, 3): 1}
    y = nsym_multiply(nsym_basis_element("H", (1, 3)), nsym_basis_element("H", (2,)))
    assert y.terms == {(1, 3, 2): 1}
    assert x != y


def test_ribbon_product():
    r1 = nsym_basis_element("R", (1,))
    assert nsym_multiply(r1, r1).terms == {(2,): 1, (1, 1): 1}
    # the concatenation and the near concatenation, which joins 1 and 1
    x = nsym_multiply(nsym_basis_element("R", (2, 1)), nsym_basis_element("R", (1, 2)))
    assert x.terms == {(2, 1, 1, 2): 1, (2, 2, 2): 1}


def test_multiplication_is_associative():
    a = nsym_basis_element("R", (2,))
    b = nsym_basis_element("R", (1, 1))
    c = nsym_basis_element("R", (1,))
    left = nsym_multiply(nsym_multiply(a, b), c)
    right = nsym_multiply(a, nsym_multiply(b, c))
    assert left == right


def test_round_trips_all_basis_pairs():
    for n in range(0, 7):
        for b1 in NSYM_BASES:
            for b2 in NSYM_BASES:
                assert is_identity(
                    matmul(transition_matrix(b1, b2, n), transition_matrix(b2, b1, n))
                ), (b1, b2, n)


def test_star_on_ribbons_and_schur_families():
    assert star_antiautomorphism(nsym_basis_element("R", (2, 1))).terms == {(1, 2): 1}
    for n in range(1, 6):
        for alpha in compositions_of(n):
            image = star_antiautomorphism(nsym_basis_element("S", reversal(alpha)))
            assert image == nsym_convert(nsym_basis_element("YS", alpha), "R")


def test_star_is_an_involution():
    for n in range(0, 7):
        for basis in NSYM_BASES:
            for alpha in compositions_of(n):
                x = nsym_basis_element(basis, alpha)
                twice = star_antiautomorphism(star_antiautomorphism(x))
                assert twice == nsym_convert(x, "R")


def test_star_reverses_products():
    rng = random.Random(4721)
    comps = [alpha for n in range(1, 6) for alpha in compositions_of(n)]
    for _ in range(25):
        alpha, beta = rng.choice(comps), rng.choice(comps)
        if sum(alpha) + sum(beta) > 5:
            continue
        x = nsym_basis_element("H", alpha)
        y = nsym_basis_element("H", beta)
        left = star_antiautomorphism(nsym_multiply(x, y))
        right = nsym_convert(
            nsym_multiply(
                nsym_convert(star_antiautomorphism(y), "H"),
                nsym_convert(star_antiautomorphism(x), "H"),
            ),
            "R",
        )
        assert left == right


def test_forgetful_on_generators():
    assert forgetful_map(nsym_basis_element("H", (2, 1))).terms == {(2, 1): 1}


def test_forgetful_sends_schur_families_to_schur_functions():
    image = sym_convert(forgetful_map(nsym_basis_element("S", (1, 3))), "s")
    assert image.terms == {(3, 1): 1}
    for n in range(1, 6):
        for alpha in compositions_of(n):
            lam = underlying_partition(alpha)
            for basis in ("S", "YS"):
                got = sym_convert(forgetful_map(nsym_basis_element(basis, alpha)), "h")
                assert got == schur(lam), (basis, alpha)


def test_forgetful_is_multiplicative():
    rng = random.Random(90125)
    comps = [alpha for n in range(1, 7) for alpha in compositions_of(n)]
    from ncsf import sym_multiply

    for _ in range(25):
        alpha, beta = rng.choice(comps), rng.choice(comps)
        if sum(alpha) + sum(beta) > 6:
            continue
        x = nsym_basis_element("H", alpha)
        y = nsym_basis_element("H", beta)
        assert forgetful_map(nsym_multiply(x, y)) == sym_multiply(
            forgetful_map(x), forgetful_map(y)
        )


def test_duality_pairing_on_fundamental_and_ribbon():
    assert duality_pairing(
        qsym_basis_element("F", (2, 1)), nsym_basis_element("R", (2, 1))
    ) == 1
    assert duality_pairing(
        qsym_basis_element("F", (2, 1)), nsym_basis_element("R", (1, 2))
    ) == 0


def test_duality_pairing_degree_mismatch_is_zero():
    assert duality_pairing(
        qsym_basis_element("F", (2,)), nsym_basis_element("R", (2, 1))
    ) == 0


def test_dual_pairs_give_identity_matrices():
    for n in range(0, 6):
        comps = compositions_of(n)
        for qsym_basis, nsym_basis in (("M", "H"), ("F", "R"), ("QS", "S"), ("YQS", "YS")):
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


def test_pairing_is_basis_independent():
    pairs = (("M", "H"), ("F", "R"), ("QS", "S"), ("YQS", "YS"))
    for n in range(0, 6):
        comps = compositions_of(n)
        for qsym_basis, nsym_basis in pairs:
            for i, alpha in enumerate(comps):
                left = qsym_convert(qsym_basis_element("F", alpha), qsym_basis)
                for j, beta in enumerate(comps):
                    right = nsym_convert(nsym_basis_element("R", beta), nsym_basis)
                    expected = Fraction(1 if i == j else 0)
                    assert duality_pairing(left, right) == expected


def test_ribbon_to_young_schur_matrix_is_dual_to_fundamental_expansion():
    for n in range(1, 7):
        r_in_ys = transition_matrix("R", "YS", n)
        yqs_in_f = qsym_transition_matrix("YQS", "F", n)
        assert r_in_ys == transpose(yqs_in_f)


@pytest.mark.parametrize("n", range(8))
def test_nsym_matrices_are_transposed_qsym_matrices(n):
    for b1, b2 in product(_QSYM_DUAL, repeat=2):
        want = transpose(qsym_transition_matrix(_QSYM_DUAL[b2], _QSYM_DUAL[b1], n))
        assert transition_matrix(b1, b2, n) == want, (b1, b2)


@pytest.mark.parametrize("n", range(8))
def test_transition_matrices_equal_the_h_route_of_the_old_builders(n):
    for source, target in product(NSYM_BASES, repeat=2):
        want = nsym_matrix_through_h(source, target, n)
        assert transition_matrix(source, target, n) == want, (source, target)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nsym_element("Q", {})
    with pytest.raises(ValueError):
        NSymElement("R", {(1, 0): 1})
    # a factor of another space is refused, not read as an NSym element
    r1 = nsym_basis_element("R", (1,))
    for other in (sym_basis_element("h", (1,)), qsym_basis_element("M", (2, 1))):
        for left, right in ((r1, other), (other, r1)):
            with pytest.raises(TypeError):
                nsym_multiply(left, right)
