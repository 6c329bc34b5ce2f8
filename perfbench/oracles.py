"""Values the benchmark checks the library against, computed without it.

Nothing here imports ``ncsf``: every expected value comes from a closed
form or a short combinatorial recursion, so a fault in the library cannot
also sit in the value it is compared with.
"""

from fractions import Fraction
from functools import cache
from math import factorial


@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of ``n``, largest first part first."""

    def gen(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


@cache
def compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """Compositions of ``n`` in lexicographic order."""
    if n == 0:
        return ((),)
    return tuple((first,) + tail for first in range(1, n + 1) for tail in compositions(n - first))


def cuts(alpha) -> frozenset[int]:
    """The partial sums of ``alpha`` short of its total: its descent set."""
    total, out = 0, set()
    for part in alpha[:-1]:
        total += part
        out.add(total)
    return frozenset(out)


def refines(beta, alpha) -> bool:
    """True when ``beta`` is ``alpha`` with some parts split further."""
    return sum(beta) == sum(alpha) and cuts(alpha) <= cuts(beta)


def mobius_m_in_f(beta, alpha) -> int:
    """Coefficient of F_beta in M_alpha: the Möbius function of the boolean
    lattice of descent sets, (-1)^(l(beta) - l(alpha)) when beta refines
    alpha and 0 otherwise."""
    if not refines(beta, alpha):
        return 0
    return -1 if (len(beta) - len(alpha)) % 2 else 1


def hook_length_count(lam) -> int:
    """Standard Young tableaux of shape ``lam``, by the hook-length formula."""
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            leg = sum(1 for lower in lam[i + 1 :] if lower > j)
            hooks *= row - j + leg
    return factorial(sum(lam)) // hooks


def involution_count(n: int) -> int:
    """Involutions of [n], as the sum of the hook-length counts (RSK)."""
    return sum(hook_length_count(lam) for lam in partitions(n))


def z(mu) -> int:
    """Size of the centralizer of a permutation of cycle type ``mu``."""
    out = 1
    for part in set(mu):
        mult = mu.count(part)
        out *= part**mult * factorial(mult)
    return out


@cache
def murnaghan_nakayama(lam, mu) -> int:
    """The irreducible character of shape ``lam`` at cycle type ``mu``.

    Border strips are removed on the beta-set (first-column hook lengths)
    of ``lam``: taking k from one bead is removing a k-strip, whose height
    is the number of beads jumped over.
    """
    if not mu:
        return 0 if lam else 1
    k, rest = mu[0], mu[1:]
    ell = len(lam)
    beads = [lam[i] + ell - 1 - i for i in range(ell)]
    total = 0
    for bead in beads:
        moved = bead - k
        if moved < 0 or moved in beads:
            continue
        height = sum(1 for other in beads if moved < other < bead)
        new_beads = sorted([b for b in beads if b != bead] + [moved], reverse=True)
        shape = tuple(b - (ell - 1 - i) for i, b in enumerate(new_beads))
        total += (-1) ** height * murnaghan_nakayama(tuple(p for p in shape if p), rest)
    return total


def ordered_block_count(mu, alpha) -> int:
    """Ways to put the parts of ``mu`` into blocks of sizes ``alpha`` (in
    order) so that every block is filled exactly: the Young character of
    ``alpha`` at cycle type ``mu``, and the coefficient of m_alpha in p_mu."""

    @cache
    def place(i, room):
        if i == len(mu):
            return 1
        return sum(
            place(i + 1, room[:j] + (free - mu[i],) + room[j + 1 :])
            for j, free in enumerate(room)
            if free >= mu[i]
        )

    return place(0, tuple(alpha))


@cache
def schur_in_monomials(n: int) -> dict:
    """Coefficient of m_kappa in s_lam for all partitions of ``n``, keyed by
    (lam, kappa): s_lam = sum over mu of chi^lam(mu)/z_mu p_mu, and
    p_mu = sum over kappa of ordered_block_count(mu, kappa) m_kappa."""
    parts = partitions(n)
    blocks = {(mu, kappa): ordered_block_count(mu, kappa) for mu in parts for kappa in parts}
    return {
        (lam, kappa): sum(
            Fraction(murnaghan_nakayama(lam, mu), z(mu)) * blocks[mu, kappa] for mu in parts
        )
        for lam in parts
        for kappa in parts
    }


def row_times_matrix(row, matrix) -> list:
    """The exact product of a row vector with a matrix, in Fraction."""
    out = [Fraction(0)] * (len(matrix[0]) if matrix else 0)
    for coeff, matrix_row in zip(row, matrix):
        if coeff:
            for j, entry in enumerate(matrix_row):
                out[j] += coeff * entry
    return out
