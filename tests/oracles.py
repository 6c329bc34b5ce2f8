"""Independent oracles used by the tests.

Everything here recomputes expected values by a route different from the
library code under test: hook lengths for tableau counts, border-strip
recursion for character values, the irreducible characters read off the
Schur functions by the inverse characteristic map
(``irreducible_character_by_schur``, the route the library took before
its border-strip walk), explicit coset counting for induced
characters, the three SYCT conditions of the definition checked cell by
cell (the reference for the library's chain test of SYCT validity, and the
filter of a brute-force tableau enumeration), the row and column conditions
of an SYT (the reference for the same chain test in Young's lattice), the
row rule for the descents of an SYT, a backtracker that places n,
n-1, ..., 1 under the same conditions (the reference for the library's
chain listing of SYCTs and for the ``dhat`` matrix), the forward walk up
the composition poset by its cover rule (the reference for the library's
walk down by that rule undone, and for its ``dhat`` rows), a block walk for
refinement (the reference for cut-set inclusion), a pruned signed
expansion of the Jacobi-Trudi determinant (the reference for Sym's s -> h
rows) and the full permutation sum it is checked against, every
assignment of parts to blocks (or a per-entry memoized count of them) for
monomial coefficients of power sums,
cut-set inclusion for the Moebius function of the refinement order,
whole-element conversions and Fraction products of coefficients for the
Sym and NSym products, Fraction arithmetic over one-line tuples for the
group-ring product and the descent-class coordinates, the Moebius
inversion of those coordinates to contained-descent-set coordinates for
theta, the signed sum of Young characters over the coarsenings of a
composition for each ribbon character, coarsenings listed through
``comp_of`` subset by subset, and dense Fraction-generic linear algebra (Gauss-Jordan inversion, products,
transposes and the application of a matrix to sparse terms) for the
library's sparse integer matrices, and the whole back-substitution inverse
of an integer unitriangular matrix in a topological order
(``invert_unitriangular``), the reference for Sym's Pieri rows of h -> s
and QSym's substitution rows of F -> YQS.  NSym's transition matrices are
checked against the builders it used when ``H`` was its hub: sums over
refinements and coarsenings, and Gauss-Jordan inverses and products with
the ribbon expansions of S and YS.  Sym's product is checked against the
product taken in the power sums.  Every row the spaces build is checked
against the whole-matrix builders they used before rows were built one at
a time (``WHOLE_MATRIX_BUILDERS``): Sym's products over compositions and
Newton recurrences in Fraction arithmetic, QSym's sums over refinements
and its forward walk for D (``dhat_by_covers``), and NSym's transposes
and moved rows of QSym's matrices.  The command line's ``argparse`` parser
as it was written by hand, option by option (``reference_parser``), is the
reference for the parser ``ncsf.cli`` builds from its grammar table.
"""

import argparse

from collections import Counter
from fractions import Fraction
from functools import cache
from graphlib import CycleError, TopologicalSorter
from itertools import accumulate, permutations, product
from math import factorial, lcm

from ncsf import (
    SYCT,
    ClassFunction,
    ch_inverse,
    comp_of,
    compositions_of,
    descent_composition_syct,
    partitions_of,
    schur,
    sym_convert,
    sym_element,
    young_character,
    z_stat,
)
from ncsf import linalg
from ncsf._linear import convert, dense_rows
from ncsf.cli import SPACES, _cmd_char, _cmd_expand, _cmd_matrix, _cmd_tableaux, _cmd_verify
from ncsf.compositions import composition_index, partition_index, refinements, reversal
from ncsf.errors import InternalConsistencyError
from ncsf.linalg import Matrix, from_rows
from ncsf.tableaux import CompositionDiagram
from ncsf.verification import SUITES

# number of involutions in S_n for n = 1..7
INVOLUTIONS = (1, 2, 4, 10, 26, 76, 232)


def hook_length_count(lam) -> int:
    """Number of standard Young tableaux of shape ``lam`` by hook lengths."""
    n = sum(lam)
    if n == 0:
        return 1
    product = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for other in lam[i + 1 :] if other > j)
            product *= arm + leg + 1
    return factorial(n) // product


@cache
def murnaghan_nakayama(lam, mu) -> int:
    """Character value at cycle type ``mu`` by border-strip recursion over
    beta-numbers: subtract mu[0] from one beta-number, keeping them distinct."""
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        new_lam = tuple(
            part
            for j, bb in enumerate(new_beta)
            if (part := bb - (ell - 1 - j)) > 0
        )
        sign = -1 if height % 2 else 1
        total += sign * murnaghan_nakayama(new_lam, rest)
    return total


def irreducible_character_by_schur(lam) -> ClassFunction:
    """The irreducible character of shape ``lam`` read off the Schur
    function: its h terms (Sym's s -> h row) carried to the power sums."""
    return ch_inverse(schur(lam))


def perm_cycle_type(sigma) -> tuple[int, ...]:
    seen = [False] * len(sigma)
    lengths = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = sigma[i] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def conjugacy_classes(n: int) -> dict:
    """Cycle type -> tuple of permutations, by explicit enumeration."""
    classes = {}
    for sigma in permutations(range(1, n + 1)):
        classes.setdefault(perm_cycle_type(sigma), []).append(sigma)
    return {mu: tuple(sigmas) for mu, sigmas in classes.items()}


@cache
def young_character_by_cosets(alpha) -> dict:
    """Induced-from-trivial character values by counting fixed cosets:
    the value at sigma is #{g : g^-1 sigma g in W} / |W| for the Young
    subgroup W of ``alpha``."""
    n = sum(alpha)
    blocks = []
    start = 1
    for part in alpha:
        blocks.append(frozenset(range(start, start + part)))
        start += part

    def in_subgroup(sigma):
        return all(
            any(sigma[i - 1] in block and i in block for block in blocks)
            for i in range(1, n + 1)
        )

    subgroup_order = 1
    for part in alpha:
        subgroup_order *= factorial(part)
    values = {}
    group = list(permutations(range(1, n + 1)))
    for mu, members in conjugacy_classes(n).items():
        sigma = members[0]
        fixed = 0
        for g in group:
            g_inv = tuple(g.index(i) + 1 for i in range(1, n + 1))
            conj = tuple(g_inv[sigma[g[i - 1] - 1] - 1] for i in range(1, n + 1))
            if in_subgroup(conj):
                fixed += 1
        values[mu] = Fraction(fixed, subgroup_order)
    return values


def p_inner_product(x, y) -> Fraction:
    """The pairing with <p_lam, p_mu> = z_lam delta, on p-expansions."""
    xp = sym_convert(x, "p")
    yp = sym_convert(y, "p")
    total = Fraction(0)
    for lam, c in xp.terms.items():
        other = yp.terms.get(lam)
        if other:
            total += z_stat(lam) * c * other
    return total


def syct_conditions_hold(shape, filling) -> bool:
    """The three SYCT conditions of the definition, checked cell by cell on
    a bijective filling {(row, col): entry} of the diagram of ``shape``."""
    ell = len(shape)
    entry = dict(filling)
    # (1) rows increase left to right
    for i in range(1, ell + 1):
        for j in range(1, shape[i - 1]):
            if entry[(i, j)] >= entry[(i, j + 1)]:
                return False
    # (2) the first column increases bottom to top
    for i in range(1, ell):
        if entry[(i, 1)] >= entry[(i + 1, 1)]:
            return False
    # (3) the triple condition
    for j in range(2, ell + 1):
        for i in range(1, j):
            for k in range(1, shape[j - 1] + 1):
                if (i, k + 1) not in entry:
                    continue
                if entry[(j, k)] < entry[(i, k + 1)]:
                    if (j, k + 1) not in entry:
                        return False
                    if entry[(j, k + 1)] >= entry[(i, k + 1)]:
                        return False
    return True


def syt_conditions_hold(shape, filling) -> bool:
    """The SYT conditions of the definition, checked cell by cell on a
    bijective filling {(row, col): entry} of the diagram of the partition
    ``shape``: rows increase left to right and columns bottom to top."""
    entry = dict(filling)
    for i in range(1, len(shape) + 1):
        for j in range(1, shape[i - 1] + 1):
            if j < shape[i - 1] and entry[(i, j)] >= entry[(i, j + 1)]:
                return False
            if i < len(shape) and j <= shape[i] and entry[(i, j)] >= entry[(i + 1, j)]:
                return False
    return True


def descent_composition_by_rows(tableau) -> tuple:
    """comp of { i : i+1 sits in a higher row than i } for an SYT."""
    n = tableau.size
    row_of = {value: i for i, row in enumerate(tableau.rows) for value in row}
    return comp_of([i for i in range(1, n) if row_of[i + 1] > row_of[i]], n) if n else ()


def brute_force_syct_rows(alpha) -> set:
    """All valid SYCT fillings of ``alpha`` by filtering every permutation
    through the three conditions."""
    n = sum(alpha)
    if n == 0:
        return {()}
    cells = CompositionDiagram(alpha).cells
    out = set()
    for perm in permutations(range(1, n + 1)):
        filling = dict(zip(cells, perm))
        if syct_conditions_hold(alpha, filling):
            out.add(
                tuple(
                    tuple(filling[(i + 1, j + 1)] for j in range(alpha[i]))
                    for i in range(len(alpha))
                )
            )
    return out


def syct_rows_by_backtracking(alpha) -> list:
    """The rows of every SYCT of ``alpha``, sorted, by placing n, n-1, ..., 1
    and checking the three conditions cell by cell as each value is placed.

    In each row the filled cells are always a suffix, so the row conditions
    hold by construction and only the first column and the triple condition
    need a check.
    """
    n = sum(alpha)
    if n == 0:
        return [()]
    ell = len(alpha)
    grid = [[0] * alpha[i] for i in range(ell)]
    rem = list(alpha)  # unfilled cells per row; next cell is column rem[i]-1
    found = []

    def place(value):
        if value == 0:
            found.append(tuple(tuple(row) for row in grid))
            return
        for i in range(ell):
            k = rem[i]
            if k == 0:
                continue
            c = k - 1
            if c == 0:
                # first-column entries must end up increasing bottom to top,
                # so rows above must be done and rows below must not be
                if any(rem[m] for m in range(i + 1, ell)):
                    continue
                if any(rem[m] == 0 for m in range(i)):
                    continue
            ok = True
            for m in range(i):
                # once (m, c+1) is filled the triple condition bites, since
                # the new entry is the smallest placed so far
                if alpha[m] >= c + 2 and rem[m] <= c + 1:
                    if alpha[i] < c + 2 or grid[i][c + 1] >= grid[m][c + 1]:
                        ok = False
                        break
            if not ok:
                continue
            grid[i][c] = value
            rem[i] = c
            place(value - 1)
            grid[i][c] = 0
            rem[i] = k

    place(n)
    found.sort()
    return found


def dhat_by_enumeration(n: int):
    """D = ``dhat_matrix(n)``, stored, by listing every SYCT of each shape
    by backtracking and reading off its descent composition."""
    index = composition_index(n)
    return from_rows(
        Counter(
            index[descent_composition_syct(SYCT(beta, rows))]
            for rows in syct_rows_by_backtracking(beta)
        )
        for beta in compositions_of(n)
    )


def _covers(shape):
    """The covers of ``shape`` in the composition poset, each with the column
    of its new cell: a new top row of length 1, or a cell added to the
    highest-index row of each distinct length k, in column k+1."""
    yield shape + (1,), 1
    for i, k in enumerate(shape):
        if k not in shape[i + 1 :]:
            yield shape[:i] + (k + 1,) + shape[i + 1 :], k + 1


def dhat_by_covers(n: int):
    """D = ``dhat_matrix(n)``, stored, by the forward walk the library used
    before its rows were built one shape at a time: level by level up from
    (1), a state (shape, column of the last cell) counts chains by descent
    mask, bit i-1 for descent i; in canonical order a mask is its column's
    index."""
    level = {((1,), 1): {0: 1}}
    for m in range(2, n + 1):
        step = {}
        for (shape, col), counts in level.items():
            for state in _covers(shape):
                bit = 1 << (m - 2) if state[1] <= col else 0
                out = step.setdefault(state, {})
                for mask, c in counts.items():
                    out[mask | bit] = out.get(mask | bit, 0) + c
        level = step
    rows = {}
    for (shape, _), counts in level.items():
        rows.setdefault(shape, Counter()).update(counts)
    return from_rows(map(rows.__getitem__, compositions_of(n)))


def sym_multiply_through_p(x, y):
    """The product in Sym taken in the multiplicative power sums, where
    indices merge, and returned in the basis of ``x``."""
    xp, yp = sym_convert(x, "p"), sym_convert(y, "p")
    terms = Counter()
    for lam, a in xp.terms.items():
        for mu, b in yp.terms.items():
            terms[tuple(sorted(lam + mu, reverse=True))] += a * b
    return sym_convert(sym_element("p", terms), x.basis)


def _perm_sign(sigma) -> int:
    inversions = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    return -1 if inversions % 2 else 1


def jacobi_trudi_by_permutations(lam) -> dict:
    """det(h_{lam_i - i + j}) expanded over all len(lam)! permutations,
    h-indexed; a term with a negative h index vanishes."""
    if not lam:
        return {(): 1}
    ell = len(lam)
    out = {}
    for sigma in permutations(range(ell)):
        exps = [lam[i] - (i + 1) + (sigma[i] + 1) for i in range(ell)]
        if any(e < 0 for e in exps):
            continue
        idx = tuple(sorted((e for e in exps if e > 0), reverse=True))
        out[idx] = out.get(idx, 0) + _perm_sign(sigma)
    return {k: v for k, v in out.items() if v}


def jacobi_trudi_h(lam) -> dict:
    """det(h_{lam_i - i + j}) expanded as a signed sum over the permutations
    whose every h index is nonnegative, h-indexed.  Rows are assigned
    columns depth first; taking the free column of rank r flips the sign r
    times, once per smaller free column left for a later row.  Row k needs
    a column j >= k - lam[k], a bound that grows with k, so a branch that
    leaves a column free below the next row's bound is dropped: every
    branch taken ends in a term.  The reference for Sym's s -> h rows,
    checked against the full permutation sum."""
    out = {}

    def expand(i, free, sign, exps):
        if i == len(lam):
            idx = tuple(sorted((e for e in exps if e), reverse=True))
            out[idx] = out.get(idx, 0) + sign
            return
        for rank, j in enumerate(free):
            rest = free[:rank] + free[rank + 1 :]
            if rest and rest[0] < i + 1 - lam[i + 1]:
                continue
            expand(i + 1, rest, -sign if rank % 2 else sign, exps + (lam[i] - i + j,))

    expand(0, tuple(range(len(lam))), 1, ())
    return {k: v for k, v in out.items() if v}


def dominates(lam, mu) -> bool:
    """Whether each partial sum of ``lam`` is at least that of ``mu``."""
    pad = max(len(lam), len(mu))
    sums = (accumulate(part + (0,) * (pad - len(part))) for part in (lam, mu))
    return all(a >= b for a, b in zip(*sums))


def block_count_by_assignments(mu, lam) -> int:
    """The coefficient of m_lam in p_mu: every map from the parts of mu to
    len(lam) labeled blocks, kept when block j sums to lam[j]."""
    target = list(lam)
    count = 0
    for blocks in product(range(len(lam)), repeat=len(mu)):
        sums = [0] * len(lam)
        for part, block in zip(mu, blocks):
            sums[block] += part
        count += sums == target
    return count


def ordered_block_count(mu, lam) -> int:
    """The coefficient of m_lam in p_mu for one pair alone: assignments of
    the parts of mu to len(lam) labeled blocks with block j summing to
    lam[j], memoized on the index of the next part and the capacities left
    in block order."""

    @cache
    def rec(i, remaining):
        if i == len(mu):
            return 1
        return sum(
            rec(i + 1, remaining[:j] + (cap - mu[i],) + remaining[j + 1 :])
            for j, cap in enumerate(remaining)
            if cap >= mu[i]
        )

    return rec(0, tuple(lam))


def refines_by_blocks(beta, alpha) -> bool:
    """True iff consecutive blocks of ``beta`` sum to the parts of ``alpha``
    in order, walking both from the left."""
    pos = 0
    for target in alpha:
        block = 0
        while block < target:
            if pos >= len(beta):
                return False
            block += beta[pos]
            pos += 1
        if block != target:
            return False
    return pos == len(beta)


def moebius_refinement(alpha, beta) -> int:
    """The Moebius function of the refinement order at (beta, alpha): the
    sign (-1)^(len(beta) - len(alpha)) when the cut set of beta contains
    that of alpha, else 0."""
    if not set(accumulate(alpha)) <= set(accumulate(beta)):
        return 0
    return -1 if (len(beta) - len(alpha)) % 2 else 1


def coarsenings_by_comp_of(alpha) -> tuple:
    """The compositions that ``alpha`` refines: the subsets of its cut set
    in binary-counter order over the cuts, each read through ``comp_of``."""
    if not alpha:
        return ((),)
    n = sum(alpha)
    cuts = tuple(accumulate(alpha))[:-1]
    out = []
    for mask in range(1 << len(cuts)):
        subset = [cuts[i] for i in range(len(cuts)) if mask >> i & 1]
        out.append(comp_of(subset, n))
    return tuple(out)


def ribbon_character_by_coarsenings(beta) -> tuple:
    """theta of the equal-descent-set class sum of ``beta`` as its integer
    values over the partitions of n in order: the sum over the coarsenings
    alpha of ``beta`` of (-1)^(len(beta) - len(alpha)) times the Young
    character of alpha."""
    values = [0] * len(partitions_of(sum(beta)))
    for alpha in coarsenings_by_comp_of(beta):
        for i, value in enumerate(young_character(alpha).values.values()):
            values[i] += (-1) ** (len(beta) - len(alpha)) * value.numerator
    return tuple(values)


def multiply_by_fractions(x, y, basis: str, combine) -> dict:
    """The terms of the product of ``x`` and ``y`` by the route products
    took before the integer pass and the product rules of each basis
    (``H`` or ``h``, passed as ``basis``): both factors converted to the
    multiplicative ``basis``, their coefficients multiplied pairwise as
    Fractions under ``combine`` of indices, and the product converted
    back to the basis of ``x``."""
    out = {}
    for a, c1 in convert(x, basis).terms.items():
        for b, c2 in convert(y, basis).terms.items():
            idx = combine(a, b)
            out[idx] = out.get(idx, Fraction(0)) + Fraction(c1) * Fraction(c2)
    product = type(x)(basis, {k: v for k, v in out.items() if v})
    return convert(product, x.basis).terms


def convolve_by_fractions(a, b) -> dict:
    """The terms of the group-ring product of ``a`` and ``b``, in Fraction
    arithmetic: (sigma . tau)(i) = sigma(tau(i)) on one-line tuples."""
    out = {}
    for sigma, c1 in a.terms.items():
        for tau, c2 in b.terms.items():
            product = tuple(sigma[t - 1] for t in tau)
            out[product] = out.get(product, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {k: v for k, v in out.items() if v}


def descent_span_coordinates_by_fractions(a):
    """Coordinates of ``a`` over the equal-descent-set class sums, keyed by
    descent composition, or None when some class of S_n (grouped here by
    enumeration) does not carry one constant Fraction coefficient."""
    n = a.n
    classes = {}
    for sigma in permutations(range(1, n + 1)):
        cuts = [i + 1 for i in range(n - 1) if sigma[i] > sigma[i + 1]]
        key = tuple(b - c for c, b in zip([0] + cuts, cuts + [n])) if n else ()
        classes.setdefault(key, []).append(sigma)
    coords = {}
    for key, sigmas in classes.items():
        values = {Fraction(a.terms.get(sigma, 0)) for sigma in sigmas}
        if len(values) > 1:
            return None
        value = values.pop()
        if value:
            coords[key] = value
    return coords


def theta_by_mobius(d) -> ClassFunction:
    """theta of a descent-span element: its class-sum coordinates are
    rewritten over the contained-descent-set sums by Moebius inversion over
    the subsets of each cut set, and the sum of alpha goes to the Young
    character of alpha."""
    coords = descent_span_coordinates_by_fractions(d)
    n = d.n
    if n == 0:
        return ClassFunction(0, {(): coords.get((), 0)})
    xi_coords = {}
    for beta, c in coords.items():
        cuts = [sum(beta[: i + 1]) for i in range(len(beta) - 1)]
        for mask in range(1 << len(cuts)):
            subset = [cuts[i] for i in range(len(cuts)) if mask >> i & 1]
            sign = -1 if (len(cuts) - len(subset)) % 2 else 1
            alpha = tuple(b - a for a, b in zip([0] + subset, subset + [n]))
            xi_coords[alpha] = xi_coords.get(alpha, 0) + sign * c
    values = {mu: Fraction(0) for mu in partitions_of(n)}
    for alpha, c in xi_coords.items():
        for mu, value in young_character(alpha).values.items():
            values[mu] += c * value
    return ClassFunction(n, values)


def identity(k: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def is_identity(m) -> bool:
    return all(
        entry == (1 if i == j else 0)
        for i, row in enumerate(m)
        for j, entry in enumerate(row)
    )


def transpose(m) -> tuple:
    return tuple(zip(*m)) if m else ()


def matmul(a, b) -> tuple:
    """The product of two dense matrices, scanning every entry."""
    rows = []
    for row in a:
        out = [0] * (len(b[0]) if b else 0)
        for coeff, brow in zip(row, b):
            if not coeff:
                continue
            for j, entry in enumerate(brow):
                if entry:
                    out[j] += coeff * entry
        rows.append(tuple(out))
    return tuple(rows)


def invert(m) -> tuple:
    """Gauss-Jordan inverse of a dense matrix, in Fractions."""
    k = len(m)
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(k)]
        for i, row in enumerate(m)
    ]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise InternalConsistencyError(f"singular {k}x{k} matrix")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        if scale != 1:
            aug[col] = [x / scale for x in aug[col]]
        for r in range(k):
            if r == col or not aug[r][col]:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)


def invert_unitriangular(m: Matrix) -> Matrix:
    """The inverse of an integer matrix with unit diagonal and an acyclic
    off-diagonal pattern (triangular in some order of its indices).  By back
    substitution in a topological order, row i of the inverse is the
    identity row e_i minus the sum of m[i][j] times row j of the inverse
    over j != i.  No diagonal entry divides, so the inverse is integer."""
    k = len(m.rows)
    if m.den != 1:
        raise InternalConsistencyError(f"{k}x{k} matrix is over {m.den}, not an integer matrix")
    after = [dict(zip(*row)) for row in m.rows]
    if any(row.pop(i, 0) != 1 for i, row in enumerate(after)):
        raise InternalConsistencyError(f"{k}x{k} matrix has a diagonal entry other than 1")
    try:
        order = tuple(TopologicalSorter(dict(enumerate(after))).static_order())
    except CycleError:
        raise InternalConsistencyError(f"{k}x{k} matrix has a cycle off the diagonal") from None
    x = [None] * k
    for i in order:  # each row after the rows it needs
        row = {i: 1}
        for j, c in after[i].items():
            for col, y in x[j].items():
                row[col] = row.get(col, 0) - c * y
        x[i] = row
    return from_rows(x)


def _over_lcm(rows):
    """The stored matrix of sparse rows {column: int or Fraction}: ``int``
    rows over the lcm of their denominators, as ``from_rows`` takes them."""
    rows = list(rows)
    den = lcm(*{x.denominator for row in rows for x in row.values()})
    return from_rows(
        ({j: x.numerator * (den // x.denominator) for j, x in row.items()} for row in rows), den
    )


def stored(m):
    """The library's sparse form of a dense matrix."""
    return _over_lcm({j: x for j, x in enumerate(row) if x} for row in m)


def apply_matrix(terms: dict, matrix, order) -> dict:
    """The image of index-keyed ``terms`` under a dense matrix whose rows and
    columns follow ``order``: row i holds the image of ``order[i]``."""
    index = {idx: i for i, idx in enumerate(order)}
    out = [0] * len(order)
    for idx, c in terms.items():
        for j, entry in enumerate(matrix[index[idx]]):
            if entry:
                out[j] += c * entry
    return {order[j]: v for j, v in enumerate(out) if v}


_SCHUR_DUAL = {"S": "QS", "YS": "YQS"}


def ribbon_in_schur_matrix(basis: str, n: int):
    """Row gamma holds the ``basis`` (S or YS) coordinates of the ribbon
    element of gamma: the transposed F expansion of the dual QSym basis."""
    return linalg.transpose(qsym_to_f_matrix(_SCHUR_DUAL[basis], n))


def matrix_of(rows, index: dict):
    """The stored matrix of rows {index: coefficient}; ``index`` gives columns."""
    return _over_lcm({index[idx]: c for idx, c in row.items()} for row in rows)


@cache
def nsym_to_h_matrix(basis: str, n: int):
    """The stored matrix of H coordinates of the degree-n ``basis`` elements
    (E, R, S or YS): alternating sums over refinements for E, signed sums
    over coarsenings for R, and for S and YS the Gauss-Jordan inverse of
    their ribbon expansions times R -> H."""
    comps, index = compositions_of(n), composition_index(n)
    if basis == "E":
        # the same matrix serves H -> E
        rows = (
            {gamma: -1 if (len(gamma) - n) % 2 else 1 for gamma in refinements(alpha)}
            for alpha in comps
        )
        return matrix_of(rows, index)
    if basis == "R":
        rows = (
            {
                beta: -1 if (len(alpha) - len(beta)) % 2 else 1
                for beta in coarsenings_by_comp_of(alpha)
            }
            for alpha in comps
        )
        return matrix_of(rows, index)
    ribbons = invert(dense_rows(ribbon_in_schur_matrix(basis, n)))
    return stored(matmul(ribbons, dense_rows(nsym_to_h_matrix("R", n))))


@cache
def nsym_from_h_matrix(basis: str, n: int):
    """The ``basis`` coordinates of the degree-n H elements: H_alpha is the
    unsigned sum of ribbon elements over the coarsenings of alpha."""
    if basis == "E":
        return nsym_to_h_matrix("E", n)
    if basis == "R":
        rows = (dict.fromkeys(coarsenings_by_comp_of(alpha), 1) for alpha in compositions_of(n))
        return matrix_of(rows, composition_index(n))
    return linalg.matmul(nsym_from_h_matrix("R", n), ribbon_in_schur_matrix(basis, n))


def nsym_matrix_through_h(source: str, target: str, n: int) -> tuple:
    """The dense degree-n NSym transition matrix from ``source`` to
    ``target``, the product of the two H-hub builders."""
    k = len(compositions_of(n))
    to_h = identity(k) if source == "H" else dense_rows(nsym_to_h_matrix(source, n))
    from_h = identity(k) if target == "H" else dense_rows(nsym_from_h_matrix(target, n))
    return matmul(to_h, from_h)


def kostka_by_backtracking(lam, mu) -> int:
    """The semistandard fillings of ``lam`` with content ``mu``, counted by
    placing values cell by cell, rows bottom to top, each cell at least its
    left neighbour and above the cell below it."""
    if not lam:
        return 1
    remaining = list(mu)
    grid = [[0] * length for length in lam]
    cells = [(i, j) for i, length in enumerate(lam) for j in range(length)]

    def fill(pos):
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        lo = grid[i][j - 1] if j > 0 else 1
        strict_lo = grid[i - 1][j] + 1 if i > 0 else 1
        total = 0
        for v in range(max(lo, strict_lo), len(mu) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[i][j] = v
            total += fill(pos + 1)
            grid[i][j] = 0
            remaining[v - 1] += 1
        return total

    return fill(0)


def alternating_row_by_compositions(r: int) -> dict:
    """e_r in h: the sum over all 2^(r-1) compositions beta of r of
    (-1)^(len(beta)-r), collected by underlying partition."""
    out = {}
    for beta in compositions_of(r):
        idx = tuple(sorted(beta, reverse=True))
        sign = -1 if (len(beta) - r) % 2 else 1
        out[idx] = out.get(idx, 0) + sign
    return {k: v for k, v in out.items() if v}


# The whole-matrix builders of each space, as they were before the spaces
# built their rows one at a time: (basis, n) -> stored matrix.


def _merge(a, b):
    return tuple(sorted(a + b, reverse=True))


@cache
def _p_in_h(r: int) -> dict:
    """p_r = r*h_r - sum_{k<r} p_k h_{r-k}."""
    out = {(r,): r} if r else {(): 1}
    for k in range(1, r):
        for idx, c in _p_in_h(k).items():
            out[_merge(idx, (r - k,))] = out.get(_merge(idx, (r - k,)), 0) - c
    return {k: v for k, v in out.items() if v}


@cache
def _h_in_p(r: int) -> dict:
    """h_r = (1/r) sum_{k=1..r} p_k h_{r-k}, in Fraction arithmetic."""
    if r == 0:
        return {(): Fraction(1)}
    out = {}
    for k in range(1, r + 1):
        for idx, c in _h_in_p(r - k).items():
            out[_merge(idx, (k,))] = out.get(_merge(idx, (k,)), Fraction(0)) + Fraction(c, r)
    return {k: v for k, v in out.items() if v}


def _multiplicative(generator_row, n: int):
    """Row lam: the product over the parts r of lam of ``generator_row(r)``."""
    rows = []
    for lam in partitions_of(n):
        row = {(): 1}
        for r in lam:
            out = {}
            for i1, c1 in row.items():
                for i2, c2 in generator_row(r).items():
                    out[_merge(i1, i2)] = out.get(_merge(i1, i2), 0) + c1 * c2
            row = out
        rows.append(row)
    return matrix_of(rows, partition_index(n))


@cache
def sym_to_h_matrix(basis: str, n: int):
    if basis == "e":
        return _multiplicative(alternating_row_by_compositions, n)
    if basis == "p":
        return _multiplicative(_p_in_h, n)
    if basis == "s":
        return matrix_of(map(jacobi_trudi_h, partitions_of(n)), partition_index(n))
    s_in_h = sym_to_h_matrix("s", n)
    return linalg.matmul(linalg.transpose(s_in_h), s_in_h)


@cache
def sym_from_h_matrix(basis: str, n: int):
    if basis == "e":
        return sym_to_h_matrix("e", n)
    if basis == "p":
        return _multiplicative(_h_in_p, n)
    if basis == "s":
        return invert_unitriangular(sym_to_h_matrix("s", n))
    h_in_s = sym_from_h_matrix("s", n)
    return linalg.matmul(h_in_s, linalg.transpose(h_in_s))


@cache
def qsym_to_f_matrix(basis: str, n: int):
    if basis == "M":
        rows = (
            {beta: -1 if (len(beta) - len(alpha)) % 2 else 1 for beta in refinements(alpha)}
            for alpha in compositions_of(n)
        )
        return matrix_of(rows, composition_index(n))
    if basis == "YQS":
        return dhat_by_covers(n) if n else linalg.identity(1)
    index = composition_index(n)
    yqs = qsym_to_f_matrix("YQS", n).rows
    reversed_at = [index[reversal(alpha)] for alpha in compositions_of(n)]
    return from_rows({reversed_at[b]: x for b, x in zip(*yqs[a])} for a in reversed_at)


@cache
def qsym_from_f_matrix(basis: str, n: int):
    if basis == "M":
        rows = (dict.fromkeys(refinements(alpha), 1) for alpha in compositions_of(n))
        return matrix_of(rows, composition_index(n))
    return invert_unitriangular(qsym_to_f_matrix(basis, n))


_QSYM_DUAL = {"H": "M", "S": "QS", "YS": "YQS"}


@cache
def nsym_to_r_matrix(basis: str, n: int):
    if basis == "E":  # row alpha is row alpha^c of F -> M
        return linalg.Matrix(qsym_from_f_matrix("M", n).rows[::-1])
    return linalg.transpose(qsym_from_f_matrix(_QSYM_DUAL[basis], n))


@cache
def nsym_from_r_matrix(basis: str, n: int):
    if basis == "E":  # M -> F with column gamma moved to gamma^c
        last = len(compositions_of(n)) - 1
        rows = qsym_to_f_matrix("M", n).rows
        return from_rows({last - j: x for j, x in zip(*row)} for row in rows)
    return linalg.transpose(qsym_to_f_matrix(_QSYM_DUAL[basis], n))


# space name -> (to-hub builder, from-hub builder)
WHOLE_MATRIX_BUILDERS = {
    "Sym": (sym_to_h_matrix, sym_from_h_matrix),
    "QSym": (qsym_to_f_matrix, qsym_from_f_matrix),
    "NSym": (nsym_to_r_matrix, nsym_from_r_matrix),
}


def reference_parser() -> argparse.ArgumentParser:
    """The ``ncsf`` command line's parser, written out option by option."""
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
