from itertools import permutations

import pytest

from ncsf import (
    QSYM_BASES,
    QSymElement,
    compositions_of,
    embed_sym_in_qsym,
    partitions_of,
    qsym_basis_element,
    qsym_convert,
    qsym_element,
    reversal,
    reversal_automorphism,
    schur,
    sym_basis_element,
    symmetric_part,
)
from ncsf.compositions import composition_index
from ncsf.qsym import compositions_with_underlying, transition_matrix

from oracles import hook_length_count, is_identity, matmul


def test_fundamental_in_monomial_basis():
    assert qsym_convert(qsym_basis_element("F", (2, 1)), "M").terms == {
        (2, 1): 1,
        (1, 1, 1): 1,
    }


def test_young_schur_expansion_of_one_three():
    assert qsym_convert(qsym_basis_element("YQS", (1, 3)), "F").terms == {(1, 3): 1}


def test_schur_like_expansion_of_one_three():
    assert qsym_convert(qsym_basis_element("QS", (1, 3)), "F").terms == {
        (1, 3): 1,
        (2, 2): 1,
    }


def test_young_schur_expansion_of_two_two():
    assert qsym_convert(qsym_basis_element("YQS", (2, 2)), "F").terms == {
        (2, 2): 1,
        (1, 2, 1): 1,
    }


def test_round_trips_all_basis_pairs():
    for n in range(0, 7):
        for b1 in QSYM_BASES:
            for b2 in QSYM_BASES:
                assert is_identity(
                    matmul(transition_matrix(b1, b2, n), transition_matrix(b2, b1, n))
                ), (b1, b2, n)


def test_reversal_automorphism_on_fundamental():
    image = reversal_automorphism(qsym_basis_element("F", (1, 3)))
    assert image.terms == {(3, 1): 1}


def test_reversal_automorphism_swaps_schur_families():
    for n in range(1, 7):
        for alpha in compositions_of(n):
            image = reversal_automorphism(qsym_basis_element("YQS", alpha))
            expected = qsym_convert(qsym_basis_element("QS", reversal(alpha)), "F")
            assert image == expected


def test_reversal_automorphism_is_an_involution():
    for n in range(0, 7):
        for basis in QSYM_BASES:
            for alpha in compositions_of(n):
                x = qsym_basis_element(basis, alpha)
                twice = reversal_automorphism(reversal_automorphism(x))
                assert twice == qsym_convert(x, "F")


def test_symmetric_part_of_orbit_sum():
    x = qsym_element("M", {(2, 1): 1, (1, 2): 1})
    assert symmetric_part(x).terms == {(2, 1): 1}


def test_symmetric_part_absent_for_partial_orbit():
    assert symmetric_part(qsym_element("M", {(2, 1): 1})) is None
    assert symmetric_part(qsym_element("M", {(2, 1): 1, (1, 2): 2})) is None


def test_schur_like_orbit_sums_are_schur_functions():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for basis in ("QS", "YQS"):
                orbit = qsym_element(
                    basis, {alpha: 1 for alpha in compositions_with_underlying(lam)}
                )
                assert symmetric_part(orbit) is not None
                assert qsym_convert(orbit, "M") == embed_sym_in_qsym(schur(lam)), (
                    basis,
                    lam,
                )


def test_embed_monomial_orbit():
    assert embed_sym_in_qsym(sym_basis_element("m", (2, 1))).terms == {
        (2, 1): 1,
        (1, 2): 1,
    }
    for n in range(1, 7):
        assert embed_sym_in_qsym(sym_basis_element("m", (n,))).terms == {(n,): 1}


def test_embed_schur_in_fundamental_matches_tableau_count():
    # s_(2,1) lands on F_(2,1) + F_(1,2); counts come from SYTs
    image = qsym_convert(embed_sym_in_qsym(schur((2, 1))), "F")
    assert image.terms == {(2, 1): 1, (1, 2): 1}
    for n in range(1, 6):
        for lam in partitions_of(n):
            image = qsym_convert(embed_sym_in_qsym(schur(lam)), "F")
            total = sum(image.terms.values())
            assert total == hook_length_count(lam)
            assert all(c > 0 and c.denominator == 1 for c in image.terms.values())


def test_symmetric_part_round_trips_embedding():
    x = sym_basis_element("m", (3, 1, 1))
    assert symmetric_part(embed_sym_in_qsym(x)) == x


def test_schur_like_matrices_nonnegative_with_unit_diagonal():
    for n in range(1, 7):
        comps = compositions_of(n)
        for basis in ("QS", "YQS"):
            matrix = transition_matrix(basis, "F", n)
            for i in range(len(comps)):
                assert matrix[i][i] == 1
                for entry in matrix[i]:
                    assert entry >= 0 and entry.denominator == 1


def test_reversal_conjugates_schur_family_matrices():
    for n in range(1, 7):
        comps = compositions_of(n)
        index = {alpha: i for i, alpha in enumerate(comps)}
        qs = transition_matrix("QS", "F", n)
        yqs = transition_matrix("YQS", "F", n)
        for alpha in comps:
            for beta in comps:
                assert (
                    qs[index[alpha]][index[beta]]
                    == yqs[index[reversal(alpha)]][index[reversal(beta)]]
                )


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qsym_element("Z", {})
    with pytest.raises(ValueError):
        QSymElement("F", {(0, 1): 1})


def test_underlying_orbit_listing():
    assert compositions_with_underlying((2, 1)) == ((1, 2), (2, 1))
    assert compositions_with_underlying(()) == ((),)
    for n in range(9):
        index = composition_index(n)
        for lam in partitions_of(n):
            want = tuple(sorted(set(permutations(lam)), key=index.__getitem__))
            assert compositions_with_underlying(lam) == want, lam
    assert compositions_with_underlying((1,) * 14) == ((1,) * 14,)
