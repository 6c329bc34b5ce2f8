"""The rows the graded spaces build, one at a time, against the whole
matrices they replace.

For every space, basis and direction at n <= 8, each row read from a cold
cache equals that row of the whole matrix built the way the library built
it before rows were the unit (``oracles.WHOLE_MATRIX_BUILDERS``), and the
read builds what the hop's kind says, counted by the whole matrices built
(``transpose``, ``matmul``) and the rows held: a row alone builds no whole
matrix and holds one row (among them each row of D = YQS -> F, and of
QS -> F through it); a row over its closure builds no whole matrix, only
the substitution rows its hop reaches: for Sym s -> h the rows of the
partitions dominating its own, for QSym F -> YQS (and F -> QS through it)
the rows of D and of F -> YQS that D reaches; a hop served whole builds a
whole matrix on its first read.  A conversion builds exactly the rows of
the support it carries, and ``transition_matrix`` builds each row once and
stores those same rows.  No library module inverts a matrix, and QSym and
NSym together build two transposes per degree, both NSym's.  Sym's Pieri
rows of h -> s equal the inverse of the Jacobi-Trudi matrix at n <= 12,
its substitution rows of s -> h, each read from a cold cache, the
Jacobi-Trudi rows at n <= 12, and QSym's substitution rows of F -> YQS
the whole inverse of D at n <= 10.  A hop that a substitution inverts
that is not unitriangular (D, or Sym's Pieri rows) is refused, by the row
builder and by ``ncsf expand`` with exit code 3, and threads that read
one cold substitution hop at once meet no false cycle.  One h -> s row at
n = 20 builds no s -> h row, one F -> YQS row at n = 14 only the 1,433
rows of D it reaches, and the whole of D at n = 9 walks each of the 2^9
shapes of degree <= 9 once and keeps the 2^8 of degree < 9.
At degrees whose whole h -> p matrix would take seconds, a Young
character reads only the row it names and equals the block counts, and an
irreducible character, a walk that removes border strips, reads no Sym
row and equals the Murnaghan-Nakayama values.  Sym's e_r rows, counted by
multinomials, equal the sum over all compositions of r.
"""

import importlib
import pkgutil
import sys
import threading
from collections import Counter
from itertools import product

import pytest

import ncsf
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
from ncsf import characters
from ncsf._linear import Hop, stored_row, transition_matrix
from ncsf.cli import main
from ncsf.compositions import composition_index, reversal
from ncsf.errors import InternalConsistencyError
from ncsf.nsym import NSYM
from ncsf.qsym import QSYM
from ncsf.sym import SYM, _alternating_row
from ncsf.tableaux import _chain_ends

from oracles import (
    WHOLE_MATRIX_BUILDERS,
    alternating_row_by_compositions,
    dominates,
    hook_length_count,
    murnaghan_nakayama,
    ordered_block_count,
    qsym_from_f_matrix,
    qsym_to_f_matrix,
    sym_from_h_matrix,
    sym_to_h_matrix,
)

SPACES = (SYM, QSYM, NSYM)
# the hops that build each row alone, from no whole matrix
ALONE = {
    ("Sym", "to"): ("e", "p"),
    ("Sym", "from"): ("e", "p", "s"),
    ("QSym", "to"): ("M", "YQS", "QS"),
    ("QSym", "from"): ("M",),
    ("NSym", "to"): ("E", "H"),
    ("NSym", "from"): ("E", "H"),
}
# the hops that build a row over its closure: Sym s -> h and QSym F -> YQS by
# substitution, and F -> QS as the rows of F -> YQS with both indices
# reversed; every other hop is served by a whole matrix
CLOSURE = {("Sym", "to"): ("s",), ("QSym", "from"): ("YQS", "QS")}
WHOLE_BUILDERS = ("transpose", "matmul")


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


def _modules() -> list:
    """Every module of the library, imported."""
    names = [info.name for info in pkgutil.iter_modules(ncsf.__path__)]
    return [ncsf] + [importlib.import_module(f"ncsf.{name}") for name in names]


@pytest.fixture
def whole_builds(monkeypatch) -> Counter:
    """Count the whole matrices the library builds from now on, by (builder,
    rows): every binding of ``WHOLE_BUILDERS`` in an ``ncsf`` module counts."""
    built = Counter()

    def counted(name, build):
        def wrapper(*args):
            m = build(*args)
            built.update([(name, len(m.rows))])
            return m

        return wrapper

    for module in _modules():
        for name in WHOLE_BUILDERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return built


@pytest.fixture
def rows_built(monkeypatch) -> Counter:
    """Count the rows every hop builds from now on, by hop."""
    built, missing = Counter(), Hop.__missing__

    def counted(hop, i):
        built.update([id(hop)])
        return missing(hop, i)

    monkeypatch.setattr(Hop, "__missing__", counted)
    return built


def _closure(n: int, a: int) -> set:
    """The rows of D = YQS -> F that row ``a`` reaches through D's entries."""
    rows, reached, todo = qsym_to_f_matrix("YQS", n).rows, {a}, [a]
    while todo:
        for b in rows[todo.pop()][0]:
            if b not in reached:
                reached.add(b)
                todo.append(b)
    return reached


def _held_over_closure(space, basis: str, n: int, i: int) -> tuple:
    """The substitution hop that a cold read of row ``i`` of the ``basis``
    hop of a closure fills, and the rows it should then hold: for Sym s -> h
    the partitions dominating the i-th one, for QSym the rows D reaches."""
    if space is SYM:
        parts = partitions_of(n)
        return SYM.to_hub("s", n), {j for j, lam in enumerate(parts) if dominates(lam, parts[i])}
    a = i if basis == "YQS" else composition_index(n)[reversal(space.indices(n)[i])]
    return QSYM.from_hub("YQS", n), _closure(n, a)


@pytest.mark.parametrize("space", SPACES, ids=lambda space: space.name)
@pytest.mark.parametrize("n", range(9))
def test_each_row_read_from_a_cold_cache_is_that_row_of_the_whole_matrix(
    space, n, whole_builds, rows_built
):
    k = len(space.indices(n))
    for way, basis, hop, whole in _hops(space):
        want = whole(basis, n)
        alone = basis in ALONE.get((space.name, way), ())
        closure = basis in CLOSURE.get((space.name, way), ())
        _cold()
        for read, i in enumerate(reversed(range(k)), 1):
            if alone or closure:
                _cold()
            whole_builds.clear()
            rows_built.clear()
            rows = hop(basis, n)
            assert rows[i] == want.rows[i], (way, basis, i)
            assert rows.den == want.den, (way, basis)
            if alone:  # and at most one row of any other hop it reads
                assert len(rows) == 1 and not whole_builds, (way, basis, i)
                assert max(rows_built.values()) == 1, (way, basis, i)
            elif closure:
                held, want_held = _held_over_closure(space, basis, n, i)
                assert set(held) == want_held, (basis, i)
                assert len(rows) == 1 or rows is held, (basis, i)
                assert not whole_builds, (basis, i)
            else:  # served whole: built on the first read
                assert len(rows) == read, (way, basis)
                assert bool(whole_builds) == (read == 1)


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


def test_no_library_module_inverts_a_matrix():
    for module in _modules():
        assert not hasattr(module, "invert_unitriangular"), module.__name__
        for value in vars(module).values():
            origin = getattr(value, "__module__", None) or getattr(value, "__name__", None)
            assert origin != "graphlib", module.__name__


def test_each_degree_builds_two_nsym_transposes(whole_builds):
    # QSym builds D and F -> YQS row by row, QS reads those rows reversed;
    # YS transposes both whole matrices, and S reads YS's hops reversed
    _cold()
    for space in (QSYM, NSYM):
        for n in range(1, 7):
            for pair in product(space.bases, repeat=2):
                transition_matrix(space, *pair, n)
    # a product assembles a two-hop transition matrix; it builds no hop
    built = Counter({key: count for key, count in whole_builds.items() if key[0] != "matmul"})
    assert built == {("transpose", 2 ** (n - 1)): 2 for n in range(1, 7)}


def test_the_whole_of_d_walks_each_shape_below_its_degree_once():
    _cold()
    _chain_ends.cache_clear()
    transition_matrix(QSYM, "YQS", "F", 9)
    assert _chain_ends.cache_info().misses == 2**8  # degree 9 is walked, not kept


@pytest.mark.parametrize("n", range(13))
def test_pieri_rows_are_the_inverse_of_the_jacobi_trudi_matrix(n):
    _cold()
    want = sym_from_h_matrix("s", n)
    assert [SYM.from_hub("s", n)[i] for i in range(len(want.rows))] == list(want.rows)


@pytest.mark.parametrize("n", range(13))
def test_s_to_h_rows_read_from_a_cold_cache_are_the_jacobi_trudi_rows(n):
    want = sym_to_h_matrix("s", n)
    for i in range(len(want.rows)):
        _cold()
        assert SYM.to_hub("s", n)[i] == want.rows[i], i


@pytest.mark.parametrize("n", range(11))
def test_substitution_rows_are_the_whole_inverse_of_d(n):
    _cold()
    want = qsym_from_f_matrix("YQS", n)
    hop = QSYM.from_hub("YQS", n)
    for i in reversed(range(len(want.rows))):
        assert hop[i] == want.rows[i], i


# each substitution: the unitriangular hop it inverts, the hop it builds,
# their basis, and the ``expand`` arguments that read the hop it builds
SUBSTITUTIONS = {
    "QSym": (QSYM.to_hub, QSYM.from_hub, "YQS", "--space qsym --from F --to YQS".split()),
    "Sym": (SYM.from_hub, SYM.to_hub, "s", "--space sym --from s --to h".split()),
}


@pytest.mark.parametrize("space", (QSYM, SYM), ids=lambda space: space.name)
@pytest.mark.parametrize("guard", ("diagonal", "cycle"))
def test_substitution_rows_refuse_a_d_that_is_not_unitriangular(space, guard, capsys):
    known, inverse, basis, words = SUBSTITUTIONS[space.name]
    n = 4
    _cold()
    d = known(basis, n)  # D = YQS -> F, or Sym's Pieri rows of h -> s
    rows = [dict(zip(*d[k])) for k in range(len(space.indices(n)))]
    a, b = next((a, c) for a, row in enumerate(rows) for c in row if c != a)
    # a unit diagonal entry made 2, or the entry that closes the cycle a -> b -> a
    i, j, x = (a, a, 2) if guard == "diagonal" else (b, a, 1)
    bad, build = {i: stored_row(rows[i] | {j: x})}, d.build
    label = ",".join(map(str, space.indices(n)[a]))
    d.build = lambda k: bad.get(k) or build(k)
    d.clear()
    try:
        with pytest.raises(InternalConsistencyError, match=guard):
            inverse(basis, n)[a]
        assert main(["expand", *words, "--index", label]) == 3
        assert guard in capsys.readouterr().err
    finally:
        _cold()


@pytest.mark.parametrize("space, n", ((QSYM, 7), (SYM, 10)), ids=("QSym", "Sym"))
def test_threads_reading_a_substitution_hop_at_once_meet_no_false_cycle(space, n):
    """Two threads read halves of a cold substitution hop while a third reads
    it all in reverse, switching every microsecond: a row another thread is
    building is no cycle, and the rows are those of one thread's build."""
    _, inverse, basis, _ = SUBSTITUTIONS[space.name]
    k = len(space.indices(n))
    _cold()
    want = [inverse(basis, n)[i] for i in range(k)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            _cold()
            hop, errors = inverse(basis, n), []

            def read(indices):
                try:
                    for i in indices:
                        hop[i]
                except Exception as exc:
                    errors.append(exc)

            parts = (range(k // 2), range(k // 2, k), range(k)[::-1])
            threads = [threading.Thread(target=read, args=(part,)) for part in parts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert [hop[i] for i in range(k)] == want
    finally:
        sys.setswitchinterval(interval)
        _cold()


def test_one_h_to_s_row_builds_no_s_to_h_row():
    _cold()
    assert sym_convert(sym_basis_element("h", (20,)), "s").terms == {(20,): 1}
    assert len(SYM.from_hub("s", 20)) == 1 and not SYM.to_hub("s", 20)
    # h_(1^20) = sum over lam of f^lam s_lam: one row, 627 terms
    s = sym_convert(sym_basis_element("h", (1,) * 20), "s")
    assert s.terms == {lam: hook_length_count(lam) for lam in partitions_of(20)}
    assert len(SYM.from_hub("s", 20)) == 2 and not SYM.to_hub("s", 20)


def test_one_f_to_yqs_row_builds_only_the_rows_of_d_it_reaches():
    _cold()
    a = composition_index(14)[3, 2, 4, 1, 2, 2]
    hop, d = QSYM.from_hub("YQS", 14), QSYM.to_hub("YQS", 14)
    identity_row = Counter()  # row a of (F -> YQS)(YQS -> F)
    for b, x in zip(*hop[a]):
        for j, y in zip(*d[b]):
            identity_row[j] += x * y
    assert +identity_row == {a: 1}
    assert len(hop) == len(d) == 1433  # of 8,192


LARGE_CYCLE_TYPES = ((24,), (12, 12), (8, 8, 8), (4,) * 6, (1,) * 24)


def test_characters_past_any_whole_matrix_read_their_rows_only():
    _cold()
    characters._young_character.cache_clear()
    characters._irreducible_character.cache_clear()
    characters._irreducible_values.cache_clear()
    young = young_character((2, 10, 4, 8))
    assert len(SYM.from_hub("p", 24)) == 1  # of 1,575
    for mu in LARGE_CYCLE_TYPES:
        assert young(mu) == ordered_block_count(mu, (10, 8, 4, 2)), mu
    chi = irreducible_character((12, 8, 4, 2))
    assert not SYM.from_hub("p", 26) and not SYM.to_hub("s", 26)  # reads no Sym row
    for mu in ((26,), (13, 13), (8, 8, 8, 2), (4,) * 6 + (2,), (1,) * 26):
        assert chi(mu) == murnaghan_nakayama((12, 8, 4, 2), mu), mu


@pytest.mark.parametrize("r", range(15))
def test_alternating_rows_by_multinomials_equal_the_sum_over_compositions(r):
    parts = partitions_of(r)  # the row is keyed by positions in this order
    by_partition = {parts[i]: c for i, c in _alternating_row(r).items()}
    assert by_partition == alternating_row_by_compositions(r)
