"""The rows the graded spaces build, one at a time, against the whole
matrices they replace.

For every space, basis and direction at n <= 8, each row read from a cold
cache equals that row of the whole matrix built the way the library built
it before rows were the unit (``oracles.WHOLE_MATRIX_BUILDERS``); a hop
built row by row holds only the rows read.  A conversion builds exactly
the rows of the support it carries, and ``transition_matrix`` builds each
row once and stores those same rows.  QS and S rows, read as reversed YQS
and YS rows, are checked against oracles that build QS on their own, by
reindexing and inverting, and QSym and NSym together invert one matrix
per degree.  At degrees whose whole h -> p matrix would take seconds,
the Young and irreducible characters read only the rows they name and
equal the block counts and the Murnaghan-Nakayama values.  Sym's e_r
rows, counted by multinomials, equal the sum over all compositions of r.
"""

import sys
from collections import Counter
from itertools import product

import pytest

from ncsf import (
    irreducible_character,
    nsym_basis_element,
    nsym_convert,
    partitions_of,
    schur,
    sym_basis_element,
    sym_convert,
    young_character,
)
from ncsf import characters, linalg
from ncsf._linear import transition_matrix
from ncsf.nsym import NSYM
from ncsf.qsym import QSYM
from ncsf.sym import SYM, _alternating_row

from oracles import (
    WHOLE_MATRIX_BUILDERS,
    alternating_row_by_compositions,
    murnaghan_nakayama,
    ordered_block_count,
)

SPACES = (SYM, QSYM, NSYM)
# the hops whose rows are built one at a time, not served by a whole matrix:
# directly, or as another hop's rows with both indices reversed (QS those
# of YQS, S those of YS)
DIRECT = {
    ("Sym", "to"): ("e", "p", "s"),
    ("Sym", "from"): ("e", "p"),
    ("QSym", "to"): ("M", "QS"),
    ("QSym", "from"): ("M", "QS"),
    ("NSym", "to"): ("E", "H", "S"),
    ("NSym", "from"): ("E", "H", "S"),
}


def _cold():
    """Forget every built row of every space."""
    for space in SPACES:
        space.to_hub.cache_clear()
        space.from_hub.cache_clear()


def _hops(space):
    """(direction, basis, the space's hop, the old whole-matrix builder)."""
    to_whole, from_whole = WHOLE_MATRIX_BUILDERS[space.name]
    for basis in space.bases:
        if basis != space.hub:
            yield "to", basis, space.to_hub, to_whole
            yield "from", basis, space.from_hub, from_whole


@pytest.mark.parametrize("space", SPACES, ids=lambda space: space.name)
@pytest.mark.parametrize("n", range(9))
def test_each_row_read_from_a_cold_cache_is_that_row_of_the_whole_matrix(space, n):
    k = len(space.indices(n))
    for way, basis, hop, whole in _hops(space):
        want = whole(basis, n)
        direct = basis in DIRECT[space.name, way]
        _cold()
        for read, i in enumerate(reversed(range(k)), 1):
            if direct:
                _cold()
            rows = hop(basis, n)
            assert rows[i] == want.rows[i], (way, basis, i)
            assert rows.den == want.den, (way, basis)
            assert len(rows) == (1 if direct else read), (way, basis)


def _counting(hop) -> Counter:
    """Count the rows ``hop`` builds from now on, by position."""
    built, build = Counter(), hop.build
    hop.build = lambda i: built.update([i]) or build(i)
    return built


def test_a_conversion_builds_the_rows_it_reads_and_no_other():
    _cold()
    built = _counting(SYM.from_hub("p", 7))
    sym_convert(sym_basis_element("h", (4, 3)), "p")
    assert len(built) == 1 and len(SYM.from_hub("p", 7)) == 1
    _cold()
    built = _counting(SYM.from_hub("p", 7))
    assert len(schur((4, 3)).terms) == 2  # h_43 - h_52
    sym_convert(schur((4, 3)), "p")
    assert sorted(built.values()) == [1, 1]
    _cold()
    built = _counting(NSYM.from_hub("H", 12))
    h = nsym_convert(nsym_basis_element("E", (12,)), "H")  # R_(1^12) in H
    assert len(h.terms) == 2**11
    assert built == Counter([2**11 - 1]) and len(NSYM.to_hub("E", 12)) == 1


@pytest.mark.parametrize("space", SPACES, ids=lambda space: space.name)
def test_a_transition_matrix_builds_each_row_once_and_stores_those_rows(space):
    n = 6
    k = len(space.indices(n))
    for way, basis, hop, _ in _hops(space):
        _cold()
        built = _counting(hop(basis, n))
        pair = (basis, space.hub) if way == "to" else (space.hub, basis)
        first, again = (transition_matrix(space, *pair, n) for _ in range(2))
        assert built == Counter(range(k)), (way, basis)
        for i, (row, same) in enumerate(zip(first.rows, again.rows)):
            assert row is same is hop(basis, n)[i], (way, basis, i)


def test_qsym_and_nsym_invert_one_matrix_per_degree(monkeypatch):
    # F -> YQS; QS, S and YS read its rows reversed, transposed or both
    sizes, invert = Counter(), linalg.invert_unitriangular

    def counting(m):
        sizes.update([len(m.rows)])
        return invert(m)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "ncsf" and getattr(module, "invert_unitriangular", None):
            monkeypatch.setattr(module, "invert_unitriangular", counting)
    _cold()
    for space in (QSYM, NSYM):
        for n in range(1, 7):
            for pair in product(space.bases, repeat=2):
                transition_matrix(space, *pair, n)
    assert sizes == Counter(2 ** (n - 1) for n in range(1, 7))


LARGE_CYCLE_TYPES = ((24,), (12, 12), (8, 8, 8), (4,) * 6, (1,) * 24)


def test_characters_past_any_whole_matrix_read_their_rows_only():
    _cold()
    characters._young_character.cache_clear()
    characters._irreducible_character.cache_clear()
    young = young_character((2, 10, 4, 8))
    assert len(SYM.from_hub("p", 24)) == 1  # of 1,575
    for mu in LARGE_CYCLE_TYPES:
        assert young(mu) == ordered_block_count(mu, (10, 8, 4, 2)), mu
    chi = irreducible_character((12, 8, 4, 2))
    assert len(SYM.from_hub("p", 26)) == len(schur((12, 8, 4, 2)).terms)  # of 2,436
    for mu in ((26,), (13, 13), (8, 8, 8, 2), (4,) * 6 + (2,), (1,) * 26):
        assert chi(mu) == murnaghan_nakayama((12, 8, 4, 2), mu), mu


@pytest.mark.parametrize("r", range(15))
def test_alternating_rows_by_multinomials_equal_the_sum_over_compositions(r):
    parts = partitions_of(r)  # the row is keyed by positions in this order
    by_partition = {parts[i]: c for i, c in _alternating_row(r).items()}
    assert by_partition == alternating_row_by_compositions(r)
