"""The warm ``algebra`` session: element operations on cached matrices.

Set-up builds every conversion matrix up to degree ``top`` and draws the
seeded random sparse elements.  The timed phase then runs a fixed list of
law instances, each a few library calls whose two sides must agree:

* conversion round trips in QSym, NSym and Sym;
* associativity of ``nsym_multiply`` and ``sym_multiply``;
* ``star(xy) = star(y) star(x)``;
* ``forgetful_map(xy) = forgetful_map(x) forgetful_map(y)``;
* ``<q, f> = sum of q_a f_a`` for q and f in dual bases, which for F and R
  is ``<F_a, R_b> = delta_ab``;
* ``symmetric_part(embed_sym_in_qsym(x)) = x`` in the m basis.

Degrees and bases run through fixed cycles, so every seed does the same
mix of work; the seed picks only the indices and coefficients.  The
library is passed in as ``lib`` (the ``ncsf`` package), so a test can hand
in a copy with one function broken.
"""

from fractions import Fraction
from itertools import product

import oracles

DUAL_PAIRS = (("M", "H"), ("F", "R"), ("QS", "S"), ("YQS", "YS"))

# library calls per instance of each law
CALLS = {
    "qsym-round-trip": 2,
    "nsym-round-trip": 2,
    "sym-round-trip": 2,
    "nsym-associative": 4,
    "sym-associative": 4,
    "star-reverses-products": 5,
    "forgetful-multiplicative": 5,
    "dual-bases": 1,
    "symmetric-part": 3,
}


def warm_up(lib, top: int) -> None:
    """Build the matrices every conversion up to degree ``top`` applies, by
    converting one basis element of each basis into every other basis."""
    spaces = (
        (lib.qsym_basis_element, lib.qsym_convert, lib.QSYM_BASES),
        (lib.nsym_basis_element, lib.nsym_convert, lib.NSYM_BASES),
        (lib.sym_basis_element, lib.sym_convert, lib.SYM_BASES),
    )
    for n in range(1, top + 1):
        for make, convert, bases in spaces:
            for source, target in product(bases, repeat=2):
                convert(make(source, (n,)), target)


def _coefficient(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))


def _terms(rng, indices, size=3) -> dict:
    return {idx: _coefficient(rng) for idx in rng.sample(indices, min(size, len(indices)))}


def instances(lib, rng, top: int, repeats: int) -> list:
    """The session's law instances: (law, inputs), in a fixed order."""
    q = lambda basis, n: lib.qsym_element(basis, _terms(rng, oracles.compositions(n)))
    f = lambda basis, n: lib.nsym_element(basis, _terms(rng, oracles.compositions(n)))
    s = lambda basis, n: lib.sym_element(basis, _terms(rng, oracles.partitions(n)))
    degrees = range(1, top + 1)
    splits2 = [(a, b) for a in degrees for b in degrees if a + b <= top]
    splits3 = [(a, b, c) for a, b in splits2 for c in degrees if a + b + c <= top]
    out = []
    for _ in range(repeats):
        for law, make, bases in (
            ("qsym-round-trip", q, lib.QSYM_BASES),
            ("nsym-round-trip", f, lib.NSYM_BASES),
            ("sym-round-trip", s, lib.SYM_BASES),
        ):
            for n in degrees:
                for source in bases:
                    for target in bases:
                        if source != target:
                            out.append((law, (make(source, n), target)))
        for k, (a, b, c) in enumerate(splits3):
            nb, sb = lib.NSYM_BASES, lib.SYM_BASES
            out.append(("nsym-associative", (f(nb[k % 5], a), f(nb[(k + 1) % 5], b), f(nb[(k + 2) % 5], c))))
            out.append(("sym-associative", (s(sb[k % 5], a), s(sb[(k + 1) % 5], b), s(sb[(k + 2) % 5], c))))
        for k, (a, b) in enumerate(splits2):
            nb = lib.NSYM_BASES
            out.append(("star-reverses-products", (f(nb[k % 5], a), f(nb[(k + 2) % 5], b))))
            out.append(("forgetful-multiplicative", (f(nb[(k + 1) % 5], a), f(nb[(k + 3) % 5], b))))
        for n in degrees:
            for qb, fb in DUAL_PAIRS:
                out.append(("dual-bases", (q(qb, n), f(fb, n))))
            for basis in lib.SYM_BASES:
                out.append(("symmetric-part", (s(basis, n),)))
    return out


def run(lib, law: str, inputs):
    """One law instance: the library calls, returning the two sides."""
    if law in ("qsym-round-trip", "nsym-round-trip", "sym-round-trip"):
        convert = {"q": lib.qsym_convert, "n": lib.nsym_convert, "s": lib.sym_convert}[law[0]]
        x, target = inputs
        return convert(convert(x, target), x.basis), x
    if law in ("nsym-associative", "sym-associative"):
        multiply = lib.nsym_multiply if law[0] == "n" else lib.sym_multiply
        x, y, z = inputs
        return multiply(multiply(x, y), z), multiply(x, multiply(y, z))
    if law == "star-reverses-products":
        x, y = inputs
        star = lib.star_antiautomorphism
        return star(lib.nsym_multiply(x, y)), lib.nsym_multiply(star(y), star(x))
    if law == "forgetful-multiplicative":
        x, y = inputs
        forget = lib.forgetful_map
        return forget(lib.nsym_multiply(x, y)), lib.sym_multiply(forget(x), forget(y))
    if law == "dual-bases":
        q, f = inputs
        return lib.duality_pairing(q, f), sum(c * f.terms.get(a, 0) for a, c in q.terms.items())
    if law == "symmetric-part":
        (x,) = inputs
        return lib.symmetric_part(lib.embed_sym_in_qsym(x)), lib.sym_convert(x, "m")
    raise ValueError(f"unknown law {law!r}")


def calls(laws) -> int:
    """Library calls made by the given law instances."""
    return sum(CALLS[law] for law, _ in laws)
