"""The verify suites: one registry, the duality suite's matrices against the
per-pair pairing, the command line's own degree check, the solomon suite
under a miscounting product kernel and without its class products, and the
exact failure witnesses of the main-theorem and solomon suites under a
ribbon character table that is wrong at one entry."""

import hashlib
import json

import pytest

from ncsf import (
    NSymElement,
    QSymElement,
    compositions_of,
    duality_pairing,
    run_suite,
    verify_main_theorem,
)
from ncsf import characters, descent
from ncsf._linear import dense_rows
from ncsf.characters import character_checks, square_checks
from ncsf.cli import main
from ncsf.verification import duality_matrix

DUAL_PAIRS = (("M", "H"), ("F", "R"), ("QS", "S"), ("YQS", "YS"))


@pytest.mark.parametrize("n", range(1, 5))
def test_duality_matrix_matches_pairing(n):
    comps = compositions_of(n)
    for qsym_basis, nsym_basis in DUAL_PAIRS:
        # a dual pair gives the identity, a mismatched pair does not
        for nsym_other in (nsym_basis, "E"):
            want = tuple(
                tuple(
                    duality_pairing(
                        QSymElement(qsym_basis, {alpha: 1}),
                        NSymElement(nsym_other, {beta: 1}),
                    )
                    for beta in comps
                )
                for alpha in comps
            )
            assert dense_rows(duality_matrix(qsym_basis, nsym_other, n)) == want


@pytest.mark.parametrize("n", range(1, 5))
def test_all_concatenates_the_suites_in_order(n):
    parts = [run_suite(suite, n).checks for suite in ("main-theorem", "duality", "solomon", "square")]
    assert run_suite("all", n).checks == sum(parts, ())


@pytest.mark.parametrize("n", range(1, 5))
def test_main_theorem_is_the_character_and_square_checks(n):
    checks = verify_main_theorem(n).checks
    assert checks == (*character_checks(n), *square_checks(n))
    assert run_suite("main-theorem", n).checks == tuple(character_checks(n))
    assert run_suite("square", n).checks == tuple(square_checks(n))


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything", 2)


def test_cli_refuses_duality_above_the_configured_bound(capsys, monkeypatch):
    # the duality suite never builds a symmetric group, so only the
    # command line's own degree check can refuse it
    monkeypatch.setenv("NCSF_MAX_N", "4")
    code = main(["verify", "duality", "-n", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "configured bound" in captured.err
    assert captured.out == ""


@pytest.fixture
def fresh_class_products():
    """The memo of class products, empty before the test and after it."""
    memo = descent._class_product
    memo.cache_clear()
    yield
    memo.cache_clear()


def test_solomon_catches_a_miscounting_kernel_on_both_paths(
    capsys, monkeypatch, fresh_class_products
):
    # (2, 1, 3) shares its descent class with (3, 1, 2): one extra count
    # leaves every class product, and every S_n product, off the span
    count_products = descent._count_products

    def miscounting(tables, words, count):
        count_products(tables, words, count)
        count[bytes((2, 1, 3))] += 1
        return count

    monkeypatch.setattr(descent, "_count_products", miscounting)
    assert len(descent.descent_classes(3)[(1,)]) == 2
    code = main(["verify", "solomon", "-n", "3", "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    assert len(checks) == 16
    for check in checks:
        assert not check["passed"]
        assert check["witness"] == "product left the descent span"


def test_solomon_without_class_products_takes_the_s_n_path(monkeypatch, fresh_class_products):
    want = run_suite("solomon", 4)
    monkeypatch.setattr(descent, "_class_product", lambda n, d, e: None)
    assert run_suite("solomon", 4) == want
    assert want.all_passed


# (exit code, SHA-256 of stdout) of each job under ``_one_wrong_ribbon_value``
WITNESS_DIGESTS = {
    "verify main-theorem -n 4": (1, "3910c895877715017380d948734444d697c10c87b456fe6c644072303e8e9a5c"),
    "verify main-theorem -n 4 --json": (1, "11223a22fbcd4d030e26772dd7a92b14d5548428bb091a80adff3fdb81259660"),
    "verify solomon -n 3": (1, "4623e4e9635464a0ddf5fa80f512ee4220033a06ce0b90b085c7dedcd149222b"),
    "verify solomon -n 3 --json": (1, "1648d3a72240ea00fda686f77f9e889d592f166d376cba612501fc604f2df5da"),
}


def _one_wrong_ribbon_value(ribbon_characters):
    """``ribbon_characters`` with the ribbon character of (1^n) one too
    large at the cycle type (n)."""

    def wrong(n):
        table = list(ribbon_characters(n))
        table[-1] = (table[-1][0] + 1, *table[-1][1:])
        return tuple(table)

    return wrong


def test_failure_witnesses_keep_their_exact_text(capsys, monkeypatch):
    wrong = _one_wrong_ribbon_value(characters._ribbon_characters)
    monkeypatch.setattr(characters, "_ribbon_characters", wrong)
    outputs = {}
    for key, (code, digest) in WITNESS_DIGESTS.items():
        got = main(key.split())
        out = capsys.readouterr().out
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), key
        outputs[key] = out
    witness = (
        "theta image {(4,): Fraction(0, 1), (3, 1): Fraction(1, 1), (2, 2): Fraction(1, 1),"
        " (2, 1, 1): Fraction(-1, 1), (1, 1, 1, 1): Fraction(1, 1)} != {(4,): Fraction(-1, 1),"
        " (3, 1): Fraction(1, 1), (2, 2): Fraction(1, 1), (2, 1, 1): Fraction(-1, 1),"
        " (1, 1, 1, 1): Fraction(1, 1)}"
    )
    assert outputs["verify main-theorem -n 4"] == (
        "suite main-theorem, n=4: 14/16 checks passed\n"
        f"FAIL noncommutative-character/S/1,1,1,1: {witness}\n"
        f"FAIL noncommutative-character/YS/1,1,1,1: {witness}\n"
    )
    assert outputs["verify solomon -n 3"].endswith(
        "FAIL solomon/1,1,1;1,1,1: theta image {(3,): Fraction(6, 1), (2, 1): Fraction(0, 1),"
        " (1, 1, 1): Fraction(36, 1)} != {(3,): Fraction(0, 1), (2, 1): Fraction(0, 1),"
        " (1, 1, 1): Fraction(36, 1)}\n"
    )
    # the JSON reports carry the same witnesses as the text reports
    for suite in ("main-theorem -n 4", "solomon -n 3"):
        checks = json.loads(outputs[f"verify {suite} --json"])["checks"]
        failed = [f"FAIL {c['name']}: {c['witness']}" for c in checks if not c["passed"]]
        assert failed == outputs[f"verify {suite}"].splitlines()[1:]
