"""Each workload check passes on the library's real output and rejects
one planted wrong value."""

import contextlib
import io
import json
import random
import types
from fractions import Fraction

import ncsf
import ncsf.cli

import algebra
import checks
import jobs


def cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ncsf.cli.main(list(argv)) in (0, 1)
    return out.getvalue()


def matrix(space, source, target, n):
    return checks.parse_matrix(cli("matrix", "--space", space, "--from", source, "--to", target, "-n", str(n)))


def perturbed(payload, i, j, delta=1):
    out = dict(payload, matrix=[list(row) for row in payload["matrix"]])
    out["matrix"][i][j] += delta
    return out


def test_mobius_check():
    good = matrix("qsym", "M", "F", 4)
    assert checks.check_mobius(good) == []
    assert checks.check_mobius(perturbed(good, 3, 5))


def test_hook_length_check():
    good = matrix("qsym", "YQS", "F", 5)
    assert checks.check_hook_lengths(good) == []
    assert checks.check_hook_lengths(perturbed(good, 0, 7))
    assert checks.check_hook_lengths(perturbed(good, 2, 9, Fraction(1, 2)))


def test_schur_in_power_sums_check():
    good = matrix("sym", "s", "p", 5)
    assert checks.check_schur_in_power_sums(good) == []
    assert checks.check_schur_in_power_sums(perturbed(good, 4, 2, Fraction(1, 5)))


def test_monomials_to_schur_check():
    good = matrix("sym", "m", "s", 5)
    every = range(len(good["order"]))
    assert checks.check_monomials_to_schur(good, every) == []
    assert checks.check_monomials_to_schur(perturbed(good, 1, 3), every)


def test_inverse_pair_check():
    forward, backward = matrix("nsym", "S", "H", 4), matrix("nsym", "H", "S", 4)
    every = range(len(forward["order"]))
    assert checks.check_inverse_pair(forward, backward, every) == []
    assert checks.check_inverse_pair(backward, forward, every) == []
    assert checks.check_inverse_pair(forward, perturbed(backward, 6, 2), every)


def test_check_round_pairs_jobs_and_skips_failed_ones():
    joblist = jobs.convert_jobs(short=True)
    outputs = [cli(*job.argv) for job in joblist]
    assert jobs.check_round(joblist, outputs, random.Random(0), None) == []
    k = next(k for k, job in enumerate(joblist) if job.argv[4:7] == ("F", "--to", "YQS"))
    payload = json.loads(outputs[k])
    payload["matrix"][0][0] = str(Fraction(payload["matrix"][0][0]) + 1)
    wrong = outputs[:k] + [json.dumps(payload)] + outputs[k + 1 :]
    assert jobs.check_round(joblist, wrong, random.Random(0), None)
    failed = outputs[:k] + [None] + outputs[k + 1 :]
    assert jobs.check_round(joblist, failed, random.Random(0), None) == []


def test_suite_check_counts_checks():
    report = cli("verify", "main-theorem", "-n", "3", "--json")
    assert checks.check_suite(report, "main-theorem", 3) == []
    assert checks.check_suite(cli("verify", "solomon", "-n", "3", "--json"), "solomon", 3) == []
    short = json.loads(report)
    short["checks"].pop()
    short["passed"] -= 1
    assert checks.check_suite(json.dumps(short), "main-theorem", 3)
    failing = json.loads(report)
    failing["checks"][0]["passed"] = False
    assert checks.check_suite(json.dumps(failing), "main-theorem", 3)


def test_character_checks_reject_a_flipped_sign():
    text = cli("char", "--irreducible", "3,1,1")
    assert checks.check_irreducible(text, (3, 1, 1)) == []
    payload = json.loads(text)
    term = next(t for t in payload["terms"] if t["coeff"] != "0")
    term["coeff"] = str(-Fraction(term["coeff"]))
    assert checks.check_irreducible(json.dumps(payload), (3, 1, 1))

    text = cli("char", "--young", "1,3,1")
    assert checks.check_young(text, (1, 3, 1)) == []
    payload = json.loads(text)
    term = next(t for t in payload["terms"] if t["coeff"] != "0")
    term["coeff"] = str(-Fraction(term["coeff"]))
    assert checks.check_young(json.dumps(payload), (1, 3, 1))


def _broken(lib):
    laws = algebra.instances(lib, random.Random(0), 4, 1)
    return [name for name, inputs in laws if (sides := algebra.run(lib, name, inputs))[0] != sides[1]]


def test_algebra_laws_hold_and_a_broken_law_shows():
    assert _broken(ncsf) == []
    lib = types.SimpleNamespace(**vars(ncsf))
    # the identity in place of star: star(xy) = star(y) star(x) fails
    lib.star_antiautomorphism = lambda x: ncsf.nsym_convert(x, "R")
    broken = set(_broken(lib))
    assert broken == {"star-reverses-products"}
