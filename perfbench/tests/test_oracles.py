"""The benchmark's oracles on small values known by hand or from tables."""

from fractions import Fraction

import oracles


def test_enumerations():
    assert oracles.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert [len(oracles.partitions(n)) for n in range(1, 10)] == [1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [len(oracles.compositions(n)) for n in range(1, 9)] == [2 ** (n - 1) for n in range(1, 9)]
    assert oracles.compositions(3) == ((1, 1, 1), (1, 2), (2, 1), (3,))


def test_hook_lengths_and_involutions():
    assert oracles.hook_length_count((3, 2)) == 5
    assert oracles.hook_length_count((2, 2)) == 2
    assert oracles.hook_length_count((3, 2, 1)) == 16
    assert oracles.hook_length_count((4, 4, 4)) == 462
    # involutions of [n], OEIS A000085
    assert [oracles.involution_count(n) for n in range(1, 10)] == [1, 2, 4, 10, 26, 76, 232, 764, 2620]


def test_mobius_sign_sum():
    # M_(2,1) = F_(2,1) - F_(1,1,1); M_(3) = F_(3) - F_(2,1) - F_(1,2) + F_(1,1,1)
    assert oracles.mobius_m_in_f((2, 1), (2, 1)) == 1
    assert oracles.mobius_m_in_f((1, 1, 1), (2, 1)) == -1
    assert oracles.mobius_m_in_f((1, 2), (2, 1)) == 0
    assert [oracles.mobius_m_in_f(beta, (3,)) for beta in oracles.compositions(3)] == [1, -1, -1, 1]


def test_murnaghan_nakayama_table_s3_and_s4():
    mn = oracles.murnaghan_nakayama
    assert [mn((2, 1), mu) for mu in ((1, 1, 1), (2, 1), (3,))] == [2, 0, -1]
    assert [mn((3, 1), mu) for mu in oracles.partitions(4)] == [-1, 0, -1, 1, 3]
    assert [mn((2, 2), mu) for mu in oracles.partitions(4)] == [0, -1, 2, 0, 2]
    assert [mn((1, 1, 1, 1), mu) for mu in oracles.partitions(4)] == [-1, 1, 1, -1, 1]


def test_murnaghan_nakayama_orthogonality_and_degrees():
    for n in range(1, 8):
        parts = oracles.partitions(n)
        for lam in parts:
            assert oracles.murnaghan_nakayama(lam, (1,) * n) == oracles.hook_length_count(lam)
            for nu in parts:
                inner = sum(
                    Fraction(oracles.murnaghan_nakayama(lam, mu) * oracles.murnaghan_nakayama(nu, mu), oracles.z(mu))
                    for mu in parts
                )
                assert inner == (1 if lam == nu else 0)


def test_ordered_block_counts():
    # p_(1,1) = 2 m_(1,1) + m_(2); the Young character of (2,1) at the identity is 3
    assert oracles.ordered_block_count((1, 1), (1, 1)) == 2
    assert oracles.ordered_block_count((1, 1), (2,)) == 1
    assert oracles.ordered_block_count((1, 1, 1), (2, 1)) == 3
    assert oracles.ordered_block_count((2, 1), (1, 2)) == 1
    assert oracles.ordered_block_count((3,), (2, 1)) == 0
    # at the identity the Young character is a multinomial coefficient
    assert oracles.ordered_block_count((1,) * 7, (3, 2, 2)) == 210


def test_schur_in_monomials_is_kostka():
    s_in_m = oracles.schur_in_monomials(3)
    assert [s_in_m[(2, 1), kappa] for kappa in oracles.partitions(3)] == [0, 1, 2]
    assert [s_in_m[(3,), kappa] for kappa in oracles.partitions(3)] == [1, 1, 1]
    # Kostka numbers K_(3,2),mu for mu = (3,2), (2,2,1), (1^5)
    s_in_m = oracles.schur_in_monomials(5)
    assert (s_in_m[(3, 2), (3, 2)], s_in_m[(3, 2), (2, 2, 1)], s_in_m[(3, 2), (1,) * 5]) == (1, 2, 5)


def test_row_times_matrix():
    assert oracles.row_times_matrix([1, Fraction(1, 2)], [[2, 0], [4, Fraction(2, 3)]]) == [4, Fraction(1, 3)]
    assert oracles.row_times_matrix([0, 1], [[1, 1], [0, 1]]) == [0, 1]
