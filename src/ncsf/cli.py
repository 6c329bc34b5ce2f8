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
``build_parser``, which writes all help and usage text; the tests hold the
direct parse to it.
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


def _resolve_basis(space: str, name: str) -> str:
    bases = SPACES[space].bases
    for basis in bases:
        if name.lower() == basis.lower():
            return basis
    raise UsageError(f"unknown {space} basis {name!r}; expected one of {bases}")


def _index_label(index) -> str:
    return ".".join(str(part) for part in index) if index else "0"


def _cmd_expand(args) -> int:
    space = SPACES[args.space]
    source = _resolve_basis(args.space, args.source)
    target = _resolve_basis(args.space, args.target)
    index = _parse_index(args.index)
    n = sum(index)
    _check_degree(n)
    space.check_index(index)
    terms = convert_terms(space, {index: 1}, source, target)
    payload = serialize.element_payload(args.space, target, n, terms, space.index(n))
    print(serialize.to_json(payload))
    return 0


def _cmd_matrix(args) -> int:
    space = SPACES[args.space]
    source = _resolve_basis(args.space, args.source)
    target = _resolve_basis(args.space, args.target)
    n = args.n
    if n < 1:
        raise UsageError(f"degree must be at least 1: {n}")
    _check_degree(n)
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
    if args.young is not None:
        index = _parse_index(args.young)
        _check_degree(sum(index))
        cf = young_character(index)
        kind = "young"
    else:
        index = _parse_index(args.irreducible)
        _check_degree(sum(index))
        cf = irreducible_character(index)
        kind = "irreducible"
    payload = serialize.class_function_payload(kind, cf.n, cf.values, partitions_of(cf.n))
    print(serialize.to_json(payload))
    return 0


def _cmd_verify(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError(f"degree must be at least 1: {n}")
    _check_degree(n)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsf",
        description="Exact computations with symmetric, quasisymmetric, and "
        "noncommutative symmetric functions, descent algebras, and "
        "symmetric-group characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand one basis element in another basis")
    p.add_argument("--space", required=True, choices=tuple(SPACES))
    p.add_argument("--from", dest="source", required=True, metavar="BASIS")
    p.add_argument("--to", dest="target", required=True, metavar="BASIS")
    p.add_argument("--index", required=True, help="comma-separated parts; 0 for the unit")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("matrix", help="full degree-n transition matrix")
    p.add_argument("--space", required=True, choices=tuple(SPACES))
    p.add_argument("--from", dest="source", required=True, metavar="BASIS")
    p.add_argument("--to", dest="target", required=True, metavar="BASIS")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("tableaux", help="count or list tableaux of one shape")
    p.add_argument("kind", choices=("syct", "syt"))
    p.add_argument("--shape", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", default=True)
    mode.add_argument("--list", action="store_true")
    p.set_defaults(handler=_cmd_tableaux)

    p = sub.add_parser("char", help="character values by cycle type")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--young", metavar="COMPOSITION")
    which.add_argument("--irreducible", metavar="PARTITION")
    p.set_defaults(handler=_cmd_char)

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=_cmd_verify)

    return parser


# ``build_parser`` as a table: choices and converters by dest, the flags (they
# store True), and by command: the positional's dest, option -> dest, every default
# argparse sets (a dest with none is required), one-of groups -> how many are needed
_CHOICES = {"space": tuple(SPACES), "format": ("json", "csv"), "kind": ("syct", "syt"), "suite": SUITES}
_CONVERT, _FLAGS = {"n": int}, {"--count", "--list", "--json"}
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
