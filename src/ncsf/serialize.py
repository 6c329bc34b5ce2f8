"""JSON forms for elements, class functions, and matrices.

Every number is rendered as an exact-rational string, "p" or "p/q"; the
dump settings are fixed so that parsing a payload and re-serializing it is
byte-identical.
"""

import json
from fractions import Fraction

__all__ = [
    "format_coeff",
    "element_payload",
    "class_function_payload",
    "matrix_payload",
    "to_json",
]


def format_coeff(value: Fraction) -> str:
    return str(Fraction(value))


def element_payload(space: str, basis: str, degree: int, terms) -> dict:
    """A sparse element as {space, basis, degree, terms}; ``terms`` are
    nonzero and in canonical order, as conversions return them."""
    return {
        "space": space,
        "basis": basis,
        "degree": degree,
        "terms": [
            {"index": list(idx), "coeff": format_coeff(c)}
            for idx, c in terms.items()
        ],
    }


def class_function_payload(kind: str, degree: int, values, order) -> dict:
    """A class function, dense: one entry per partition of the degree."""
    return {
        "space": "class-function",
        "basis": kind,
        "degree": degree,
        "terms": [
            {"index": list(mu), "coeff": format_coeff(values[mu])}
            for mu in order
        ],
    }


def matrix_payload(space: str, source: str, target: str, n: int, order, entries) -> dict:
    return {
        "space": space,
        "from": source,
        "to": target,
        "n": n,
        "order": [list(idx) for idx in order],
        "matrix": [[format_coeff(x) for x in row] for row in entries],
    }


def to_json(payload) -> str:
    return json.dumps(payload)
