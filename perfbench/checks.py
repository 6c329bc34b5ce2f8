"""Checks on what the ``ncsf`` command printed, against ``oracles``.

Each check takes parsed CLI output and returns a list of problems; an
empty list means the output is right.  None of them compares against a
stored copy of earlier output.
"""

import json
from collections import defaultdict
from fractions import Fraction

import oracles


def _number(text: str):
    """An exact number from its text; most matrix entries are integers."""
    return Fraction(text) if "/" in text else int(text)


def parse_matrix(text: str) -> dict:
    """A ``matrix`` JSON payload with its order as tuples and its entries
    as exact numbers.  Entry [i][j] is the coefficient of target element
    order[i] in source element order[j]."""
    payload = json.loads(text)
    payload["order"] = [tuple(idx) for idx in payload["order"]]
    payload["matrix"] = [[_number(x) for x in row] for row in payload["matrix"]]
    return payload


def columns(payload) -> list:
    """Column j is the expansion of source element order[j] in the target basis."""
    return [list(col) for col in zip(*payload["matrix"])]


def _check_order(payload, expected) -> list:
    if sorted(payload["order"]) != sorted(expected):
        return [f"order of {payload['space']} n={payload['n']} is not every index once"]
    if len(payload["matrix"]) != len(expected):
        return [f"{len(payload['matrix'])} rows for {len(expected)} indices"]
    return []


def check_mobius(payload) -> list:
    """QSym M -> F: every entry is the Möbius sign sum over refinements."""
    order = payload["order"]
    problems = _check_order(payload, oracles.compositions(payload["n"]))
    for j, col in enumerate(columns(payload) if not problems else ()):
        for i, entry in enumerate(col):
            want = oracles.mobius_m_in_f(order[i], order[j])
            if entry != want:
                problems.append(f"M{order[j]} has F{order[i]} coefficient {entry}, want {want}")
    return problems


def check_hook_lengths(payload) -> list:
    """QSym YQS -> F: the SYCTs of all shapes that rearrange one partition
    are as many as the SYTs of that partition, so the column sums of the
    matrix, grouped by underlying partition, are hook-length counts."""
    order = payload["order"]
    problems = _check_order(payload, oracles.compositions(payload["n"]))
    sums = defaultdict(Fraction)
    for j, col in enumerate(columns(payload) if not problems else ()):
        if any(entry < 0 or entry.denominator != 1 for entry in col):
            problems.append(f"YQS{order[j]} has a coefficient that is no count")
        sums[tuple(sorted(order[j], reverse=True))] += sum(col)
    for lam, total in sums.items():
        want = oracles.hook_length_count(lam)
        if total != want:
            problems.append(f"shapes rearranging {lam} hold {total} tableaux, want {want}")
    return problems


def check_schur_in_power_sums(payload) -> list:
    """Sym s -> p: the coefficient of p_mu in s_lam is chi^lam(mu)/z_mu."""
    order = payload["order"]
    problems = _check_order(payload, oracles.partitions(payload["n"]))
    for j, col in enumerate(columns(payload) if not problems else ()):
        for i, entry in enumerate(col):
            want = Fraction(oracles.murnaghan_nakayama(order[j], order[i]), oracles.z(order[i]))
            if entry != want:
                problems.append(f"s{order[j]} has p{order[i]} coefficient {entry}, want {want}")
    return problems


def _unit_problems(label, product, j) -> list:
    if all(entry == (1 if i == j else 0) for i, entry in enumerate(product)):
        return []
    return [f"{label}: column {j} times the inverse is not unit vector {j}"]


def check_inverse_pair(forward, backward, picks) -> list:
    """``backward`` undoes ``forward`` on the columns ``picks``: the exact
    product of each picked column with the inverse matrix is a unit vector."""
    label = f"{forward['space']} {forward['from']}<->{forward['to']} n={forward['n']}"
    if forward["order"] != backward["order"]:
        return [f"{label}: the two matrices index in different orders"]
    inverse_rows = columns(backward)
    problems = []
    cols = columns(forward)
    for j in picks:
        problems += _unit_problems(label, oracles.row_times_matrix(cols[j], inverse_rows), j)
    return problems


def check_monomials_to_schur(payload, picks) -> list:
    """Sym m -> s: each picked column times the s -> m matrix built from
    Murnaghan-Nakayama and ordered-block counts is a unit vector."""
    order = payload["order"]
    problems = _check_order(payload, oracles.partitions(payload["n"]))
    if problems:
        return problems
    s_in_m = oracles.schur_in_monomials(payload["n"])
    inverse_rows = [[s_in_m[lam, kappa] for kappa in order] for lam in order]
    cols = columns(payload)
    for j in picks:
        problems += _unit_problems(f"sym m->s n={payload['n']}", oracles.row_times_matrix(cols[j], inverse_rows), j)
    return problems


# how many checks each suite makes at degree n
SUITE_SIZES = {
    "main-theorem": lambda n: 2 * 2 ** (n - 1),
    "square": lambda n: 2 ** (n - 1),
    "duality": lambda n: 4,
    "solomon": lambda n: 4 ** (n - 1),
}


def check_suite(text: str, suite: str, n: int) -> list:
    """A ``verify --json`` report: every check passed, and there are as many
    checks as the suite's closed form says."""
    report = json.loads(text)
    problems = []
    want = SUITE_SIZES[suite](n)
    if len(report["checks"]) != want or report["passed"] != want:
        problems.append(f"{suite} n={n}: {report['passed']}/{len(report['checks'])} passed, want {want}/{want}")
    problems += [f"{suite} n={n}: {c['name']} failed" for c in report["checks"] if not c["passed"]]
    if report["failed"]:
        problems.append(f"{suite} n={n}: reports {report['failed']} failures")
    return problems


def _class_function(text: str) -> dict:
    payload = json.loads(text)
    return {tuple(term["index"]): Fraction(term["coeff"]) for term in payload["terms"]}


def check_irreducible(text: str, lam) -> list:
    """``char --irreducible``: every value is Murnaghan-Nakayama's."""
    values = _class_function(text)
    mus = oracles.partitions(sum(lam))
    if sorted(values) != sorted(mus):
        return [f"chi^{lam} is not given at every cycle type"]
    return [
        f"chi^{lam}{mu} = {values[mu]}, want {oracles.murnaghan_nakayama(tuple(lam), mu)}"
        for mu in mus
        if values[mu] != oracles.murnaghan_nakayama(tuple(lam), mu)
    ]


def check_young(text: str, alpha) -> list:
    """``char --young``: every value counts ordered block fillings."""
    values = _class_function(text)
    mus = oracles.partitions(sum(alpha))
    if sorted(values) != sorted(mus):
        return [f"eta^{alpha} is not given at every cycle type"]
    return [
        f"eta^{alpha}{mu} = {values[mu]}, want {oracles.ordered_block_count(mu, alpha)}"
        for mu in mus
        if values[mu] != oracles.ordered_block_count(mu, alpha)
    ]
