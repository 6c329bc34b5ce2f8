from fractions import Fraction
from math import factorial

import pytest

from ncsf import (
    ch_inverse,
    class_function,
    class_products,
    compositions_of,
    convolve,
    delta,
    enumerate_syt,
    frobenius_ch,
    irreducible_character,
    noncommutative_character,
    partitions_of,
    schur,
    sym_basis_element,
    sym_convert,
    theta,
    underlying_partition,
    verify_main_theorem,
    xi,
    young_character,
    z_stat,
)
from ncsf.errors import (
    DegreeMismatchError,
    InternalConsistencyError,
    NotInDescentSpanError,
)
from ncsf.characters import _ribbon_character
from ncsf.descent import group_algebra_element

from oracles import (
    irreducible_character_by_schur,
    murnaghan_nakayama,
    ribbon_character_by_coarsenings,
    young_character_by_cosets,
)


def test_ch_of_irreducible_is_schur():
    for lam in partitions_of(5):
        assert sym_convert(frobenius_ch(irreducible_character(lam)), "h") == schur(lam)


def test_ch_of_trivial_is_complete_homogeneous():
    for n in range(1, 7):
        image = sym_convert(frobenius_ch(young_character((n,))), "h")
        assert image.terms == {(n,): 1}


def test_ch_inverse_of_h21():
    values = ch_inverse(sym_basis_element("h", (2, 1))).values
    assert values == {(1, 1, 1): 3, (2, 1): 1, (3,): 0}


def test_ch_round_trip_on_characters():
    for n in range(1, 6):
        for lam in partitions_of(n):
            chi = irreducible_character(lam)
            assert ch_inverse(frobenius_ch(chi)) == chi


def test_ch_inverse_requires_homogeneous():
    mixed = sym_basis_element("h", (2,)) + sym_basis_element("h", (1,))
    with pytest.raises(DegreeMismatchError):
        ch_inverse(mixed)


def test_ch_inverse_rejects_non_integral_values():
    with pytest.raises(InternalConsistencyError):
        ch_inverse(Fraction(1, 2) * sym_basis_element("h", (2,)))


def test_young_character_values():
    assert young_character((2, 1)).values == {(1, 1, 1): 3, (2, 1): 1, (3,): 0}
    for n in range(1, 6):
        assert all(v == 1 for v in young_character((n,)).values.values())
        regular = young_character((1,) * n).values
        assert regular[(1,) * n] == factorial(n)
        assert all(v == 0 for mu, v in regular.items() if mu != (1,) * n)


def test_young_character_matches_coset_oracle():
    for n in range(1, 6):
        for alpha in compositions_of(n):
            assert young_character(alpha).values == young_character_by_cosets(alpha)


def test_young_character_depends_only_on_underlying_partition():
    for n in range(1, 7):
        for alpha in compositions_of(n):
            for beta in compositions_of(n):
                if underlying_partition(alpha) == underlying_partition(beta):
                    assert young_character(alpha) == young_character(beta)


def test_irreducible_character_values():
    for n in range(1, 7):
        assert all(v == 1 for v in irreducible_character((n,)).values.values())
    assert irreducible_character((1, 1, 1)).values[(2, 1)] == -1
    assert irreducible_character((2, 1)).values == {(1, 1, 1): 2, (2, 1): 0, (3,): -1}


@pytest.mark.parametrize("n", range(10))
def test_the_strip_walk_equals_the_schur_route_and_the_border_strip_recursion(n):
    for lam in partitions_of(n):
        chi = irreducible_character(lam)
        assert chi == irreducible_character_by_schur(lam), lam
        for mu in partitions_of(n):
            assert chi.values[mu] == murnaghan_nakayama(lam, mu), (lam, mu)


def test_character_dimensions_count_tableaux():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert irreducible_character(lam).values[(1,) * n] == len(enumerate_syt(lam))


def test_orthogonality_of_irreducible_characters():
    for n in range(1, 6):
        for lam in partitions_of(n):
            chi_lam = irreducible_character(lam)
            for nu in partitions_of(n):
                chi_nu = irreducible_character(nu)
                total = sum(
                    chi_lam.values[mu] * chi_nu.values[mu] / z_stat(mu)
                    for mu in partitions_of(n)
                )
                assert total == (1 if lam == nu else 0)


def test_class_products_pointwise():
    trivial = young_character((3,))
    f = irreducible_character((2, 1))
    assert class_products(trivial, f, "pointwise") == f
    sign = irreducible_character((1, 1, 1))
    assert class_products(sign, sign, "pointwise") == trivial


def test_class_products_pointwise_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        class_products(young_character((2,)), young_character((3,)), "pointwise")


def test_class_products_induction():
    for a in range(1, 4):
        for b in range(1, 4):
            left = class_products(young_character((a,)), young_character((b,)), "induction")
            assert left == young_character((a, b))


def test_theta_of_xi_is_young_character():
    for n in range(1, 6):
        for alpha in compositions_of(n):
            assert theta(xi(alpha)) == young_character(alpha)
    assert theta(xi((2, 1))).values == {(1, 1, 1): 3, (2, 1): 1, (3,): 0}


def test_theta_of_delta_one_two():
    got = theta(delta((1, 2)))
    assert got.values == {(1, 1, 1): 2, (2, 1): 0, (3,): -1}
    assert got == irreducible_character((2, 1))


def test_ribbon_character_at_the_identity_class_counts_the_descent_class():
    for n in range(9):
        identity_class = partitions_of(n).index((1,) * n)
        for beta in compositions_of(n):
            assert _ribbon_character(beta)[identity_class] == len(delta(beta).terms)


def test_ribbon_characters_match_the_signed_coarsening_sum():
    for n in range(10):
        for beta in compositions_of(n):
            assert _ribbon_character(beta) == ribbon_character_by_coarsenings(beta), beta


def test_young_character_is_cached_per_partition():
    young_character((1, 3, 2))
    hits = young_character.cache_info().hits
    assert young_character((2, 1, 3)) is young_character((3, 2, 1))
    assert young_character.cache_info().hits == hits + 2


def test_list_arguments_are_accepted_like_tuples():
    assert irreducible_character([2, 1]) is irreducible_character((2, 1))
    assert young_character([2, 1]) is young_character((2, 1))
    assert xi([2, 1]) == xi((2, 1))


def test_library_built_class_functions_hold_fractions():
    built = (
        theta(xi((2, 1))),
        ch_inverse(sym_basis_element("h", (2, 1))),
        class_products(young_character((2, 1)), young_character((1, 2)), "pointwise"),
        class_products(young_character((1,)), young_character((2,)), "induction"),
    )
    for f in built:
        assert list(f.values) == list(partitions_of(f.n))
        assert all(type(value) is Fraction for value in f.values.values())
        assert class_function(f.n, f.values) == f


def test_theta_requires_descent_span():
    with pytest.raises(NotInDescentSpanError):
        theta(group_algebra_element(3, {(2, 1, 3): 1}))


def test_theta_is_a_homomorphism_to_pointwise_products():
    for n in range(1, 5):
        for alpha in compositions_of(n):
            xa = xi(alpha)
            for beta in compositions_of(n):
                product = convolve(xa, xi(beta))
                expected = class_products(
                    young_character(alpha), young_character(beta), "pointwise"
                )
                assert theta(product) == expected, (alpha, beta)


def test_noncommutative_character_small_case():
    element = noncommutative_character((1, 2), "YS")
    assert element == delta((1, 2))
    assert theta(element) == irreducible_character((2, 1))


def test_noncommutative_character_trivial_image():
    for family in ("S", "YS"):
        for n in range(1, 5):
            element = noncommutative_character((n,), family)
            assert theta(element) == irreducible_character((n,))


def test_noncommutative_characters_at_degree_four():
    for family in ("S", "YS"):
        for alpha in compositions_of(4):
            got = theta(noncommutative_character(alpha, family))
            assert got == irreducible_character(underlying_partition(alpha))


def test_noncommutative_character_rejects_unknown_family():
    with pytest.raises(ValueError):
        noncommutative_character((2, 1), "X")


def test_class_function_validation():
    with pytest.raises(ValueError):
        class_function(3, {(3,): 1})
    with pytest.raises(TypeError):
        class_function(1, {(1,): 0.5})


def test_class_function_at_a_cycle_type_of_another_degree_names_both_degrees():
    chi = irreducible_character((2, 1))
    with pytest.raises(DegreeMismatchError, match=r"degree 2.*degree 3"):
        chi((2,))
    with pytest.raises(DegreeMismatchError):
        chi((2, 1, 1))
    assert chi((3,)) == -1


def test_verify_main_theorem_small_degrees():
    report = verify_main_theorem(1)
    assert report.all_passed
    assert len(report.checks) == 3

    report = verify_main_theorem(3)
    assert report.all_passed
    families = [c for c in report.checks if c.name.startswith("noncommutative-character/")]
    squares = [c for c in report.checks if c.name.startswith("commuting-square/")]
    assert len(families) == 8
    assert len(squares) == 4
