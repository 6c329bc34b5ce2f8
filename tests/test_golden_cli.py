"""Byte-for-byte CLI outputs against recorded digests.

``golden_cli.json`` maps each command line (arguments joined by spaces) to
its exit code and the SHA-256 of its stdout.  Every command runs in-process
through ``ncsf.cli.main``.  The set covers ``matrix`` for every basis pair
of every space at n <= 5 (JSON and CSV), in JSON at the larger degrees of
``_LARGE`` and for every pair of distinct bases at the degrees of
``_DISTINCT_LARGE``, ``expand`` for every basis pair and index up to the
degree of ``_EXPAND_TOP`` and for every index of the hops into and out of
the Schur bases of ``_EXPAND_LARGE`` at larger degrees, ``char --young``/``--irreducible`` at n <= 5 and
for every partition of 6 and 7, ``char --irreducible`` for every partition
of 8, every ``verify`` suite at n <= 4 and at the
degrees of ``_VERIFY_LARGE`` (text and ``--json``), the QSym conversions of
``_CONVERT`` at the ``convert`` degree 8 in JSON, ``tableaux syct`` for
every composition of n <= 5 and n = 7 and ``tableaux syt`` for every
partition of n <= 8 (``--count`` and ``--list``), ``tableaux syct --list``
for every composition of 6, and a few refusals.  One more test checks QSym's M -> F
matrix at n = 10 entry by entry against the Moebius sign sum.

Every command line here is canonical, so ``main`` parses it without
argparse: the test runs them with ``ncsf.cli.build_parser`` made to raise.

To record the digests again (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import ncsf.cli
from ncsf.cli import main
from ncsf.compositions import compositions_of, partitions_of

from oracles import moebius_refinement

GOLDEN = Path(__file__).with_name("golden_cli.json")

_SPACES = {
    "sym": (("e", "h", "p", "m", "s"), partitions_of),
    "qsym": (("M", "F", "QS", "YQS"), compositions_of),
    "nsym": (("E", "H", "R", "S", "YS"), compositions_of),
}
_SUITES = ("main-theorem", "duality", "solomon", "square", "all")
# degrees above 5 at which every ``matrix`` basis pair is pinned, in JSON
_LARGE = {"sym": (6, 7), "qsym": (6,), "nsym": (6,)}
# further degrees at which every pair of distinct bases is pinned, in JSON
_DISTINCT_LARGE = {"sym": (8,), "qsym": (7,), "nsym": (7, 8)}
# the tableau-count conversions pinned in JSON at degree 8
_CONVERT = {"qsym": (("YQS", "F"), ("QS", "F"), ("F", "YQS"))}
# the largest degree at which ``expand`` is pinned for every basis pair and index
_EXPAND_TOP = {"sym": 5, "qsym": 5, "nsym": 6}
# (degrees, basis pairs) above ``_EXPAND_TOP`` at which ``expand`` is pinned
# for every index: the hops into the Schur bases, where they differ most,
# and the hops out of them: Sym's s -> h rows, and in QSym and NSym the rows
# that read the SYCT counts
_EXPAND_LARGE = {
    "sym": (
        (7, 8),
        (("h", "s"), ("m", "s"), ("e", "s"), ("p", "s"))
        + (("s", "h"), ("s", "m"), ("s", "p"), ("s", "e")),
    ),
    "qsym": ((6, 7), (("F", "YQS"), ("F", "QS"), ("YQS", "F"), ("QS", "F"))),
    "nsym": ((7,), (("R", "YS"), ("R", "S"), ("YS", "R"), ("S", "R"))),
}
# degrees above 4 at which each ``verify`` suite is pinned, text and JSON
_VERIFY_LARGE = {
    "main-theorem": (5, 6, 7, 8),
    "duality": (5, 6),
    "solomon": (5, 6),
    "square": (5, 6, 7, 8),
    "all": (5, 6),
}


def _label(index) -> str:
    return ",".join(map(str, index)) if index else "0"


def _commands() -> dict:
    """Command lines by group, in a fixed order."""
    groups = {}
    for space, (bases, indices) in _SPACES.items():
        groups[f"matrix-{space}"] = [
            ["matrix", "--space", space, "--from", a, "--to", b, "-n", str(n), "--format", fmt]
            for a in bases
            for b in bases
            for n in range(1, 6)
            for fmt in ("json", "csv")
        ]
        groups[f"matrix-{space}-large"] = [
            ["matrix", "--space", space, "--from", a, "--to", b, "-n", str(n), "--format", "json"]
            for a in bases
            for b in bases
            for n in _LARGE[space]
        ] + [
            ["matrix", "--space", space, "--from", a, "--to", b, "-n", str(n), "--format", "json"]
            for a in bases
            for b in bases
            if a != b
            for n in _DISTINCT_LARGE[space]
        ] + [
            ["matrix", "--space", space, "--from", a, "--to", b, "-n", "8", "--format", "json"]
            for a, b in _CONVERT.get(space, ())
        ]
        groups[f"expand-{space}"] = [
            ["expand", "--space", space, "--from", a, "--to", b, "--index", _label(index)]
            for a in bases
            for b in bases
            for n in range(_EXPAND_TOP[space] + 1)
            for index in indices(n)
        ] + [
            ["expand", "--space", space, "--from", a, "--to", b, "--index", _label(index)]
            for a, b in _EXPAND_LARGE[space][1]
            for n in _EXPAND_LARGE[space][0]
            for index in indices(n)
        ]
    groups["tableaux"] = [
        ["tableaux", kind, "--shape", _label(shape), mode]
        for kind, shapes, top in (("syct", compositions_of, 5), ("syt", partitions_of, 6))
        for n in range(top + 1)
        for shape in shapes(n)
        for mode in ("--count", "--list")
    ]
    groups["tableaux-large"] = [
        ["tableaux", "syct", "--shape", _label(alpha), "--list"] for alpha in compositions_of(6)
    ] + [
        ["tableaux", kind, "--shape", _label(shape), mode]
        for kind, shapes, n in (
            ("syct", compositions_of, 7),
            ("syt", partitions_of, 7),
            ("syt", partitions_of, 8),
        )
        for shape in shapes(n)
        for mode in ("--count", "--list")
    ]
    groups["char"] = [
        ["char", "--young", _label(alpha)] for n in range(6) for alpha in compositions_of(n)
    ] + [["char", "--irreducible", _label(lam)] for n in range(6) for lam in partitions_of(n)]
    groups["verify"] = [
        ["verify", suite, "-n", str(n)] + extra
        for suite in _SUITES
        for n in range(1, 5)
        for extra in ([], ["--json"])
    ]
    groups["char-large"] = [
        ["char", f"--{kind}", _label(lam)]
        for kind in ("young", "irreducible")
        for n in (6, 7)
        for lam in partitions_of(n)
    ] + [["char", "--irreducible", _label(lam)] for lam in partitions_of(8)]
    groups["verify-large"] = [
        ["verify", suite, "-n", str(n)] + extra
        for suite, degrees in _VERIFY_LARGE.items()
        for n in degrees
        for extra in ([], ["--json"])
    ]
    groups["refusals"] = [
        ["expand", "--space", "sym", "--from", "s", "--to", "h", "--index", "1,2"],
        ["expand", "--space", "qsym", "--from", "QS", "--to", "F", "--index", "1,x"],
        ["expand", "--space", "nsym", "--from", "QS", "--to", "R", "--index", "2"],
        ["matrix", "--space", "sym", "--from", "s", "--to", "h", "-n", "0"],
        ["char", "--irreducible", "1,2"],
        ["verify", "all", "-n", "0"],
    ]
    return groups


def _run(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def _record() -> None:
    golden = {" ".join(argv): _run(argv) for argvs in _commands().values() for argv in argvs}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(golden.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(golden)} commands in {GOLDEN}")


@pytest.mark.parametrize("group", sorted(_commands()))
def test_cli_output_matches_golden(group, monkeypatch):
    def no_argparse():
        raise AssertionError("a canonical command line was parsed by argparse")

    monkeypatch.delenv("NCSF_MAX_N", raising=False)
    monkeypatch.setattr(ncsf.cli, "build_parser", no_argparse)
    golden = json.loads(GOLDEN.read_text())
    mismatched = []
    for argv in _commands()[group]:
        key = " ".join(argv)
        assert key in golden, f"no recorded digest for {key!r}"
        got = _run(argv)
        if got != golden[key]:
            mismatched.append((key, got, golden[key]))
    assert not mismatched, f"{len(mismatched)} outputs differ, first: {mismatched[:3]}"


def test_golden_file_has_no_stale_commands():
    golden = json.loads(GOLDEN.read_text())
    expected = {" ".join(argv) for argvs in _commands().values() for argv in argvs}
    assert set(golden) == expected


def test_m_to_f_matrix_at_degree_ten_is_the_moebius_sign_sum(monkeypatch):
    monkeypatch.setenv("NCSF_MAX_N", "10")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["matrix", "--space", "qsym", "--from", "M", "--to", "F", "-n", "10"])
    assert code == 0
    payload = json.loads(out.getvalue())
    order = [tuple(idx) for idx in payload["order"]]
    assert order == list(compositions_of(10))
    # column alpha holds the F coordinates of M_alpha
    for beta, row in zip(order, payload["matrix"]):
        assert [int(x) for x in row] == [moebius_refinement(alpha, beta) for alpha in order]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_cli.py --record")
    _record()
