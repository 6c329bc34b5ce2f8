"""Command-line interface.

Subcommands: ``expand`` (change of basis for one basis element), ``matrix``
(a full degree-n transition matrix, JSON or CSV), ``tableaux`` (count or
list tableaux of one shape), ``char`` (Young or irreducible character
values), and ``verify`` (the named exact-identity suites).

Exit codes: 0 success / all checks passed, 1 some verification check
failed, 2 usage, parse, or resource errors, 3 a broken internal invariant
(``InternalConsistencyError``, a bug), and from ``run`` 141 when stdout's
reader leaves early.  Indices are comma-separated positive integers with
the empty composition spelled ``0``.  All numeric output is exact-rational
text.

``main`` parses a canonical command line by the table ``_GRAMMAR``.  The
rest (help, abbreviations, ``--opt=value``, ``--``, errors) goes to
``build_parser``, built from the same table, which writes all help and
usage text.  The tests hold the direct parse to ``build_parser``, and it
to the parser once written by hand, option by option.
"""

import argparse
import os
import sys

from . import serialize
from ._linear import convert_terms, dense_rows, transition_matrix
from .compositions import partitions_of
from .descent import _check_degree
from .errors import InternalConsistencyError, NcsfError, ResourceLimitError
from .characters import irreducible_character, young_character
from .nsym import NSYM
from .qsym import QSYM
from .sym import SYM
from .tableaux import SYCT, SYT, _count_chains, enumerate_syct, enumerate_syt
from .tableaux import descent_composition_syct as descents
from .verification import SUITES, run_suite

__all__ = ["main", "run", "build_parser"]

SPACES = {"sym": SYM, "qsym": QSYM, "nsym": NSYM}
# kind -> (tableau class, with its shape checker and cover rule undone; lister)
_TABLEAUX = {"syct": (SYCT, enumerate_syct), "syt": (SYT, enumerate_syt)}
_MAX_LISTED = 100_000  # tableaux --list: (4,4,4,4) has 24,024 SYTs, (5,5,5,5) 1,662,804


class UsageError(NcsfError):
    """Raised for bad command-line input; mapped to exit code 2."""


def _parse_index(text: str) -> tuple[int, ...]:
    if text == "0":
        return ()
    parts = text.split(",")
    try:
        index = tuple(int(part) for part in parts)
    except ValueError:
        raise UsageError(f"cannot parse index {text!r}: expected comma-separated integers") from None
    if any(part < 1 for part in index):
        raise UsageError(f"index parts must be positive: {text!r}")
    return index


def _space_and_bases(args) -> tuple:
    """The space of ``args`` and its ``--from`` and ``--to`` bases, named in any case."""
    space = SPACES[args.space]
    named = {basis.lower(): basis for basis in space.bases}
    for name in (args.source, args.target):
        if name.lower() not in named:
            raise UsageError(f"unknown {args.space} basis {name!r}; expected one of {space.bases}")
    return space, named[args.source.lower()], named[args.target.lower()]


def _checked_degree(n: int) -> int:
    if n < 1:
        raise UsageError(f"degree must be at least 1: {n}")
    _check_degree(n)
    return n


def _index_label(index) -> str:
    return ".".join(str(part) for part in index) if index else "0"


def _cmd_expand(args) -> int:
    space, source, target = _space_and_bases(args)
    index = _parse_index(args.index)
    n = sum(index)
    _check_degree(n)
    space.check_index(index)
    terms = convert_terms(space, {index: 1}, source, target)
    payload = serialize.element_payload(args.space, target, n, terms)
    print(serialize.to_json(payload))
    return 0


def _cmd_matrix(args) -> int:
    space, source, target = _space_and_bases(args)
    n = _checked_degree(args.n)
    order = space.indices(n)
    # row convention inside the library is "row = expansion of a source
    # element"; the emitted matrix maps coordinate vectors, so transpose
    entries = tuple(zip(*dense_rows(transition_matrix(space, source, target, n))))
    if args.format == "csv":
        print(",".join(_index_label(idx) for idx in order))
        for row in entries:
            print(",".join(serialize.format_coeff(x) for x in row))
    else:
        payload = serialize.matrix_payload(args.space, source, target, n, order, entries)
        print(serialize.to_json(payload))
    return 0


def _cmd_tableaux(args) -> int:
    kind, enumerate_shape = _TABLEAUX[args.kind]
    shape = kind._check_shape(_parse_index(args.shape))
    count = _count_chains(shape, kind._uncovers)
    if not args.list:
        print(count)
        return 0
    if count > _MAX_LISTED:
        raise ResourceLimitError(f"shape {shape} has {count} tableaux; --list prints {_MAX_LISTED}")
    payload = [
        {"rows": [list(row) for row in t.rows], "descent_composition": list(descents(t))}
        for t in enumerate_shape(shape)
    ]
    print(serialize.to_json(payload))
    return 0


def _cmd_char(args) -> int:
    kind = "young" if args.young is not None else "irreducible"
    index = _parse_index(getattr(args, kind))
    _check_degree(sum(index))
    character = young_character if kind == "young" else irreducible_character
    cf = character(index)
    payload = serialize.class_function_payload(kind, cf.n, cf.values, partitions_of(cf.n))
    print(serialize.to_json(payload))
    return 0


def _cmd_verify(args) -> int:
    n = _checked_degree(args.n)
    report = run_suite(args.suite, n)
    passed = len(report.checks) - len(report.failures)
    if args.json:
        payload = {
            "suite": args.suite,
            "n": n,
            "passed": passed,
            "failed": len(report.failures),
            "checks": [
                {"name": c.name, "passed": c.passed}
                | ({"witness": c.witness} if not c.passed else {})
                for c in report.checks
            ],
        }
        print(serialize.to_json(payload))
    else:
        print(f"suite {args.suite}, n={n}: {passed}/{len(report.checks)} checks passed")
        for check in report.failures:
            print(f"FAIL {check.name}: {check.witness}")
    return 0 if report.all_passed else 1


# The grammar.  By dest: choices, converters and metavars; the flags (they
# store True); help by command, by dest, and for ncsf itself.  By command:
# the positional's dest, option -> dest, every default (a dest with none is
# required), one-of groups -> how many are needed.
_CHOICES = {"space": tuple(SPACES), "format": ("json", "csv"), "kind": tuple(_TABLEAUX), "suite": SUITES}
_CONVERT, _FLAGS = {"n": int}, {"--count", "--list", "--json"}
_METAVARS = {"source": "BASIS", "target": "BASIS", "young": "COMPOSITION", "irreducible": "PARTITION"}
_HELP = {
    "ncsf": "Exact computations with symmetric, quasisymmetric, and noncommutative symmetric "
    "functions, descent algebras, and symmetric-group characters.",
    "expand": "expand one basis element in another basis",
    "matrix": "full degree-n transition matrix",
    "tableaux": "count or list tableaux of one shape",
    "char": "character values by cycle type",
    "verify": "run an exact verification suite",
    "index": "comma-separated parts; 0 for the unit",
    "json": "machine-readable report",
}
_BASES = {"--space": "space", "--from": "source", "--to": "target"}
_GRAMMAR = {
    "expand": (None, {**_BASES, "--index": "index"}, {"handler": _cmd_expand}, {}),
    "matrix": (None, {**_BASES, "-n": "n", "--format": "format"},
               {"handler": _cmd_matrix, "format": "json"}, {}),
    "tableaux": ("kind", {"--shape": "shape", "--count": "count", "--list": "list"},
                 {"handler": _cmd_tableaux, "count": True, "list": False}, {("count", "list"): 0}),
    "char": (None, {"--young": "young", "--irreducible": "irreducible"},
             {"handler": _cmd_char, "young": None, "irreducible": None}, {("young", "irreducible"): 1}),
    "verify": ("suite", {"-n": "n", "--json": "json"}, {"handler": _cmd_verify, "json": False}, {}),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_GRAMMAR``."""
    parser = argparse.ArgumentParser(prog="ncsf", description=_HELP["ncsf"])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (positional, options, defaults, groups) in _GRAMMAR.items():
        p = sub.add_parser(command, help=_HELP[command])
        if positional:
            p.add_argument(positional, choices=_CHOICES[positional])
        home = {}
        for dests, least in groups.items():
            group = p.add_mutually_exclusive_group(required=least == 1)
            for dest in dests:
                home[dest] = group
        for option, dest in options.items():
            where = home.get(dest, p)
            if option in _FLAGS:
                where.add_argument(option, dest=dest, action="store_true", help=_HELP.get(dest))
            else:
                where.add_argument(
                    option, dest=dest, type=_CONVERT.get(dest), choices=_CHOICES.get(dest),
                    metavar=_METAVARS.get(dest), required=dest not in defaults, help=_HELP.get(dest),
                )
        p.set_defaults(**defaults)
    return parser


def _parse_direct(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, when argv is
    canonical: the command first, each option in full and once, its value in
    the next token and not led by ``-``; None for any other argv."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    positional, options, defaults, groups = _GRAMMAR[argv[0]]
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in options:
            dest = options[token]
            value = True if token in _FLAGS else next(tokens, "-")  # a missing value reads as "-"
        else:
            dest, value = positional, token
        if dest is None or dest in given or (value is not True and value.startswith("-")):
            return None
        try:
            value = _CONVERT[dest](value) if dest in _CONVERT else value
        except ValueError:
            return None
        if value not in _CHOICES.get(dest, (value,)):
            return None
        given[dest] = value
    missing = {*options.values(), positional} - given.keys() - defaults.keys() - {None}
    if missing or any(not least <= len(given.keys() & group) <= 1 for group, least in groups.items()):
        return None
    return argparse.Namespace(command=argv[0], **{**defaults, **given})


def main(argv=None) -> int:
    args = _parse_direct(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (NcsfError, ValueError) as exc:
        print(f"ncsf: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InternalConsistencyError) else 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early: quiet the exit-time flush, exit 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
