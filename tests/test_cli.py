import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ncsf.cli import _parse_direct, build_parser, main
from ncsf.errors import InternalConsistencyError
from ncsf.serialize import to_json
from ncsf.characters import Check, VerificationReport
from oracles import reference_parser


SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).with_name("golden_cli.json")


def _child_env(**overrides):
    """Environment for a ``python -m ncsf`` child that imports the in-tree package.

    The caller's environment is inherited, the repository's ``src`` directory
    is put in front of any inherited ``PYTHONPATH`` (so no install is needed),
    and ``overrides`` are applied last.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_qs_to_fundamental(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--space", "qsym", "--from", "QS", "--to", "F", "--index", "1,3"
    )
    assert code == 0
    assert json.loads(out) == {
        "space": "qsym",
        "basis": "F",
        "degree": 4,
        "terms": [
            {"index": [1, 3], "coeff": "1"},
            {"index": [2, 2], "coeff": "1"},
        ],
    }


def test_expand_ribbon_single_part(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--space", "nsym", "--from", "R", "--to", "H", "--index", "4"
    )
    assert code == 0
    assert json.loads(out)["terms"] == [{"index": [4], "coeff": "1"}]


def test_expand_schur_jacobi_trudi(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--space", "sym", "--from", "S", "--to", "H", "--index", "2,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [
        {"index": [3], "coeff": "-1"},
        {"index": [2, 1], "coeff": "1"},
    ]


def test_expand_unit_index(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--space", "qsym", "--from", "M", "--to", "F", "--index", "0"
    )
    assert code == 0
    assert json.loads(out) == {
        "space": "qsym",
        "basis": "F",
        "degree": 0,
        "terms": [{"index": [], "coeff": "1"}],
    }


def test_expand_json_round_trips_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--space", "qsym", "--from", "QS", "--to", "F", "--index", "1,3"
    )
    assert code == 0
    text = out.rstrip("\n")
    assert to_json(json.loads(text)) == text


def test_expand_rejects_bad_index(capsys):
    code, _, err = run_cli(
        capsys, "expand", "--space", "qsym", "--from", "QS", "--to", "F", "--index", "1,x"
    )
    assert code == 2
    assert err


def test_expand_rejects_unknown_basis(capsys):
    code, _, err = run_cli(
        capsys, "expand", "--space", "sym", "--from", "QS", "--to", "F", "--index", "2"
    )
    assert code == 2
    assert "basis" in err


def test_expand_rejects_non_partition_for_sym(capsys):
    code, _, err = run_cli(
        capsys, "expand", "--space", "sym", "--from", "s", "--to", "h", "--index", "1,2"
    )
    assert code == 2
    assert "partition" in err


def test_matrix_yqs_identity_at_degree_three(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--space", "qsym", "--from", "YQS", "--to", "F", "-n", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == [[3], [1, 2], [2, 1], [1, 1, 1]]
    assert payload["matrix"] == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]


def test_matrix_f_to_m_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "matrix", "--space", "qsym", "--from", "F", "--to", "M", "-n", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out == "2,1.1\n1,0\n1,1\n"


def test_matrix_degree_one(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--space", "nsym", "--from", "R", "--to", "H", "-n", "1"
    )
    assert code == 0
    assert json.loads(out)["matrix"] == [["1"]]


def test_matrix_out_of_bounds(capsys, monkeypatch):
    monkeypatch.setenv("NCSF_MAX_N", "4")
    code, _, err = run_cli(
        capsys, "matrix", "--space", "qsym", "--from", "F", "--to", "M", "-n", "5"
    )
    assert code == 2
    assert "bound" in err


def test_tableaux_counts(capsys):
    for shape, expected in (("3,1", "2"), ("1,3", "1")):
        code, out, _ = run_cli(capsys, "tableaux", "syct", "--shape", shape, "--count")
        assert code == 0
        assert out.strip() == expected
    code, out, _ = run_cli(capsys, "tableaux", "syt", "--shape", "2,1", "--count")
    assert code == 0
    assert out.strip() == "2"


def test_tableaux_list(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "syct", "--shape", "1,3", "--list")
    assert code == 0
    assert json.loads(out) == [
        {"rows": [[1], [2, 3, 4]], "descent_composition": [1, 3]}
    ]


def test_tableaux_of_a_shape_longer_than_the_recursion_limit(capsys):
    for kind in ("syct", "syt"):
        code, out, _ = run_cli(capsys, "tableaux", kind, "--shape", "2000", "--count")
        assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "tableaux", "syct", "--shape", "2000", "--list")
    assert code == 0
    assert json.loads(out) == [
        {"rows": [list(range(1, 2001))], "descent_composition": [2000]}
    ]


def test_tableaux_rejects_bad_shape(capsys):
    code, _, err = run_cli(capsys, "tableaux", "syct", "--shape", "3,0")
    assert code == 2
    assert err
    code, _, err = run_cli(capsys, "tableaux", "syt", "--shape", "1,3")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("tableaux", "syt", "--shape", "1,2", "--count"),
        ("expand", "--space", "sym", "--from", "s", "--to", "h", "--index", "1,2"),
        ("char", "--irreducible", "1,2"),
    ],
)
def test_a_shape_that_is_not_a_partition_is_refused_by_the_library(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("ncsf: ") and err.count("\n") == 1


def test_tableaux_count_refuses_a_shape_with_too_many_shapes_below(capsys):
    start = time.perf_counter()
    shape = ",".join(map(str, range(1, 11)))
    code, out, err = run_cli(capsys, "tableaux", "syct", "--shape", shape, "--count")
    assert (code, out) == (2, "")
    assert err.startswith("ncsf: ") and err.count("\n") == 1
    assert time.perf_counter() - start < 10


def test_tableaux_list_refuses_a_shape_with_too_many_tableaux(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "syt", "--shape", "4,4,4,4", "--list")
    assert code == 0 and len(json.loads(out)) == 24_024
    start = time.perf_counter()
    for kind in ("syt", "syct"):
        code, out, err = run_cli(capsys, "tableaux", kind, "--shape", "6,6,6,6", "--list")
        assert (code, out) == (2, "")
        assert err.startswith("ncsf: ") and "140229804 tableaux" in err
    assert time.perf_counter() - start < 1


def test_char_young(capsys):
    code, out, _ = run_cli(capsys, "char", "--young", "2,1")
    assert code == 0
    assert json.loads(out) == {
        "space": "class-function",
        "basis": "young",
        "degree": 3,
        "terms": [
            {"index": [3], "coeff": "0"},
            {"index": [2, 1], "coeff": "1"},
            {"index": [1, 1, 1], "coeff": "3"},
        ],
    }


def test_char_irreducible(capsys):
    code, out, _ = run_cli(capsys, "char", "--irreducible", "3")
    assert code == 0
    assert all(entry["coeff"] == "1" for entry in json.loads(out)["terms"])
    code, out, _ = run_cli(capsys, "char", "--irreducible", "2,1")
    assert json.loads(out)["terms"] == [
        {"index": [3], "coeff": "-1"},
        {"index": [2, 1], "coeff": "0"},
        {"index": [1, 1, 1], "coeff": "2"},
    ]


def test_verify_main_theorem_degree_three(capsys):
    code, out, _ = run_cli(capsys, "verify", "main-theorem", "-n", "3")
    assert code == 0
    assert "8/8" in out


def test_verify_duality_degree_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "duality", "-n", "1")
    assert code == 0
    assert "4/4" in out


def test_verify_all_degree_four_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "-n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    # 16 per family-pair, 4 duality, 64 solomon, 8 square
    assert payload["passed"] == 16 + 4 + 64 + 8
    assert all(check["passed"] for check in payload["checks"])


def test_verify_all_degree_five(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "-n", "5")
    assert code == 0
    assert "308/308" in out


def test_verify_failure_maps_to_exit_one(capsys, monkeypatch):
    import ncsf.cli as cli_module

    def fake_suite(suite, n):
        return VerificationReport(n, (Check("stub", False, "boom"),))

    monkeypatch.setattr(cli_module, "run_suite", fake_suite)
    code, out, _ = run_cli(capsys, "verify", "main-theorem", "-n", "2")
    assert code == 1
    assert "FAIL stub: boom" in out


def test_broken_invariant_exits_three(capsys, monkeypatch):
    import ncsf.cli as cli_module

    def broken_suite(suite, n):
        raise InternalConsistencyError("stub invariant failed")

    monkeypatch.setattr(cli_module, "run_suite", broken_suite)
    code, out, err = run_cli(capsys, "verify", "main-theorem", "-n", "2")
    assert code == 3
    assert out == ""
    assert err == "ncsf: stub invariant failed\n"


def test_verify_out_of_bounds(capsys, monkeypatch):
    monkeypatch.setenv("NCSF_MAX_N", "3")
    code, _, err = run_cli(capsys, "verify", "main-theorem", "-n", "4")
    assert code == 2
    assert "bound" in err


def test_negative_env_bound_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("NCSF_MAX_N", "-1")
    code, out, err = run_cli(capsys, "verify", "main-theorem", "-n", "3")
    assert code == 2
    assert out == ""
    assert "NCSF_MAX_N must be a nonnegative integer" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["expand", "--space", "plasma"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ncsf expand [-h] --space {sym,qsym,nsym}")
    assert "ncsf expand: error: argument --space: invalid choice: 'plasma'" in err


def test_an_abbreviated_option_is_parsed_by_argparse(capsys):
    assert run_cli(capsys, "char", "--irr", "2,1") == run_cli(capsys, "char", "--irreducible", "2,1")


# One canonical line per command: its command, then its positional and
# options as groups of tokens.
_CANONICAL = {
    "expand": [("--space", "qsym"), ("--from", "QS"), ("--to", "F"), ("--index", "1,3")],
    "matrix": [("--space", "qsym"), ("--from", "F"), ("--to", "M"), ("-n", "2"), ("--format", "csv")],
    "tableaux": [("syct",), ("--shape", "3,1"), ("--list",)],
    "char": [("--irreducible", "2,1")],
    "verify": [("main-theorem",), ("-n", "3"), ("--json",)],
}


def _line(command, groups) -> list:
    return [command, *itertools.chain.from_iterable(groups)]


def _variants(command, groups):
    """Lines near the canonical one, most of them not canonical: each group
    dropped, repeated, given a bad or dash-led value or none, abbreviated,
    joined by ``=``, or after ``--``; a stray token; and help."""
    for i, group in enumerate(groups):
        rest = groups[:i] + groups[i + 1 :]
        yield _line(command, rest)
        yield _line(command, groups + [group])
        yield from (_line(command, rest + [group[:-1] + (bad,)]) for bad in ("x", "-x", "-1"))
        yield _line(command, rest + [group[:1]])
        yield _line(command, [group[:1]] + rest)
        yield _line(command, groups[:i] + [("--",)] + groups[i:])
        if group[0].startswith("--"):
            yield _line(command, rest + [(group[0][:-1],) + group[1:]])
            yield _line(command, rest + [("=".join(group),)])
    yield from ([command, flag] for flag in ("-h", "--help"))
    yield _line(command, groups + [("-h",)])
    yield _line(command, groups + [("x",)])


# Lines that argparse refuses or reads as help, or that abbreviate an option
_NOT_CANONICAL = [
    [],
    ["-h"],
    ["--help"],
    ["plasma"],
    ["--", "char", "--young", "2"],
    ["char", "--young", "2,1", "--irreducible", "2,1"],
    ["tableaux", "syt", "--shape", "2,1", "--count", "--list"],
    ["tableaux", "syt", "--shape", "2,1", "--list", "--count"],
    ["char", "--irr", "2,1"],
]


def _outcome(parser, argv) -> tuple:
    """What ``parser`` makes of argv: its namespace (None where it exits, for
    help or an error), the exit code, and what it writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = parser.parse_args(argv), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def _argparse(parser, argv):
    """argparse's namespace for argv, or None where it exits (help or an error)."""
    return _outcome(parser, argv)[0]


@pytest.mark.parametrize("command", sorted(_CANONICAL))
def test_direct_parse_agrees_with_argparse_near_a_canonical_line(command):
    parser = build_parser()
    groups = _CANONICAL[command]
    for order in itertools.permutations(groups):
        argv = _line(command, order)
        assert _parse_direct(argv) == _argparse(parser, argv) is not None, argv
    for argv in _variants(command, groups):  # where argparse exits, only None agrees
        got = _parse_direct(argv)
        assert got is None or got == _argparse(parser, argv), argv


@pytest.mark.parametrize("argv", _NOT_CANONICAL)
def test_a_line_that_is_not_canonical_is_left_to_argparse(argv):
    assert _parse_direct(argv) is None


def test_direct_parse_agrees_with_argparse_on_every_golden_line():
    parser = build_parser()
    for argv in (key.split(" ") for key in json.loads(GOLDEN.read_text())):
        assert _parse_direct(argv) == _argparse(parser, argv) is not None, argv


def _subcommands(parser) -> dict:
    """The command -> subparser map of ``parser``."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_the_parser_is_the_reference_parser(monkeypatch):
    """``build_parser`` writes the help, usage, namespaces, exit codes and
    messages of the parser written out option by option, on every line the
    tests above read."""
    monkeypatch.setenv("COLUMNS", "80")
    built, reference = build_parser(), reference_parser()
    assert built.format_help() == reference.format_help()
    assert built.format_usage() == reference.format_usage()
    commands = _subcommands(reference)
    assert _subcommands(built).keys() == commands.keys()
    for command, p in _subcommands(built).items():
        assert p.format_help() == commands[command].format_help(), command
        assert p.format_usage() == commands[command].format_usage(), command
    lines = [*_NOT_CANONICAL, *(key.split(" ") for key in json.loads(GOLDEN.read_text()))]
    for command, groups in _CANONICAL.items():
        lines += [_line(command, order) for order in itertools.permutations(groups)]
        lines += _variants(command, groups)
    for argv in lines:
        assert _outcome(built, argv) == _outcome(reference, argv), argv


def test_a_reader_that_leaves_early_gets_exit_141_and_no_traceback():
    # the degree-9 matrix is about 350 kB of JSON, far more than a pipe holds
    argv = ["matrix", "--space", "qsym", "--from", "M", "--to", "F", "-n", "9"]
    child = subprocess.Popen(
        [sys.executable, "-m", "ncsf", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=_child_env(NCSF_MAX_N="9"),
    )
    assert child.stdout.read(20).startswith(b"{")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 141
    assert err == b""


def test_installed_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ncsf", "tableaux", "syct", "--shape", "3,1", "--count"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "2"


def test_env_bound_respected_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "ncsf", "verify", "main-theorem", "-n", "5"],
        capture_output=True,
        text=True,
        env=_child_env(NCSF_MAX_N="4"),
    )
    assert result.returncode == 2
    assert "bound" in result.stderr
