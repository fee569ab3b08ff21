"""Subquotient tables: per-arrow class tables against the brute-force route.

Production builds one table per arrow matrix over classes of subspaces and
walks one subspace per vertex class through it.  The reference here is the
direct construction: for every tuple of subspaces, test stability vector by
vector, then build the restricted and the induced quotient representation
from scratch.  The oracle walks only the first member of each symmetry
orbit and carries its table to the rest, so its tables are compared with
the brute-force ones member by member.  To compare what the two routes hand
to ``identify``, the walk also runs on every member of a fresh oracle, and
the brute force on another; both record every representation handed over.
The class tables themselves are checked against ``literal_entry`` on every
pair of subspaces.
"""

import hashlib
import itertools
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from literal_tables import (
    coords_in_span,
    literal_entry,
    literal_semisimple_pairs,
    literal_subspaces,
)

from monobrick import fp, verify
from monobrick.diagrams import bit_indices
from monobrick.oracle import ZERO, Oracle, _frames, get_oracle
from monobrick.presets import PRESET_NAMES, Rep, direct_sum, get_preset
from monobrick.verify import run_checks

CASES = [(name, 2) for name in PRESET_NAMES] + [
    ("a2_linear", 3),
    ("nak2", 3),
    ("a3_source", 3),
    ("b3", 3),
]


class RecordingOracle(Oracle):
    def __init__(self, preset):
        self.handed: set[Rep] = set()
        super().__init__(preset)

    def identify(self, rep, strict=False):
        self.handed.add(rep)
        return super().identify(rep, strict)


def _sub_rep(arrows, p, rep, spaces):
    dims = tuple(len(basis) for basis, _ in spaces)
    mats = []
    for a, (s, t) in enumerate(arrows):
        basis_t, pivots_t = spaces[t]
        mats.append(tuple(
            coords_in_span(fp.vec_mat(u, rep.mats[a], p), basis_t, pivots_t, p)
            for u in spaces[s][0]
        ))
    return Rep(dims, tuple(mats))


def _quot_rep(arrows, p, rep, spaces):
    nonpivots = [
        tuple(c for c in range(d) if c not in spaces[v][1])
        for v, d in enumerate(rep.dims)
    ]
    mats = []
    for a, (s, t) in enumerate(arrows):
        basis_t, pivots_t = spaces[t]
        rows = []
        for c in nonpivots[s]:
            unit = tuple(1 if i == c else 0 for i in range(rep.dims[s]))
            image = fp.vec_mat(unit, rep.mats[a], p)
            reduced = fp.reduce_vec(image, basis_t, pivots_t, p)
            rows.append(tuple(reduced[c2] for c2 in nonpivots[t]))
        mats.append(tuple(rows))
    return Rep(tuple(len(n) for n in nonpivots), tuple(mats))


def _is_semisimple(rep):
    return all(fp.is_zero_matrix(m) for m in rep.mats)


# The brute force lists the subspaces at every vertex of every member.
_subspaces = lru_cache(maxsize=None)(fp.subspaces)


def brute_force_subquotients(oracle, member):
    """Every stable subspace tuple, scanned and built one by one."""
    rep = oracle.rep_of(member)
    if _is_semisimple(rep):
        return literal_semisimple_pairs(member)
    p, arrows = oracle.p, oracle.preset.arrows
    pairs = {(ZERO, member), (member, ZERO)}
    for spaces in itertools.product(*(_subspaces(d, p) for d in rep.dims)):
        if sum(len(basis) for basis, _ in spaces) in (0, rep.total_dim):
            continue
        if all(
            fp.in_span(fp.vec_mat(u, rep.mats[a], p), *spaces[t], p)
            for a, (s, t) in enumerate(arrows)
            for u in spaces[s][0]
        ):
            pairs.add((
                oracle.identify(_sub_rep(arrows, p, rep, spaces)),
                oracle.identify(_quot_rep(arrows, p, rep, spaces)),
            ))
    return frozenset(pairs)


@lru_cache(maxsize=None)
def _both_routes(name, p):
    preset = get_preset(name, p)
    table = Oracle(preset)
    walk, brute = RecordingOracle(preset), RecordingOracle(preset)
    tables = {m: table.subquotients(m) for m in table.members}
    # Tables travel along symmetries, so the walk runs on every member here.
    for m in walk.members:
        if not _is_semisimple(walk.rep_of(m)):
            walk._stable_pairs(m, walk.rep_of(m))
    brutes = {m: brute_force_subquotients(brute, m) for m in brute.members}
    return tables, brutes, walk.handed, brute.handed


@pytest.mark.parametrize("name,p", CASES)
def test_block_tables_match_brute_force(name, p):
    tables, brutes, _, _ = _both_routes(name, p)
    assert tables.keys() == brutes.keys()
    for member, pairs in tables.items():
        assert pairs == brutes[member], member


@pytest.mark.parametrize("name,p", CASES)
def test_both_routes_hand_identify_the_same_reps(name, p):
    _, _, from_tables, from_brute = _both_routes(name, p)
    assert from_tables
    assert from_tables == from_brute


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_semisimple_pairs_match_every_summand_choice(name):
    oracle = get_oracle(name)
    semisimple = [m for m in oracle.members if _is_semisimple(oracle.rep_of(m))]
    assert max(map(len, semisimple)) == oracle.dim_bound
    for member in semisimple:
        assert oracle._semisimple_pairs(member) == literal_semisimple_pairs(member)


@pytest.mark.parametrize(
    "d,p", [(d, p) for p in (2, 3, 5) for d in range(6)] + [(6, 2)]
)
def test_subspaces_match_the_literal_listing(d, p):
    assert fp.subspaces(d, p) == literal_subspaces(d, p)


@pytest.mark.parametrize("d,p", [(d, p) for p in (2, 3, 5) for d in range(6)])
def test_frames_carry_the_dimensions_and_the_shared_rows(d, p):
    # The distinct basis rows are the vectors whose first nonzero entry is
    # 1, one per line of F_p^d, and each basis names its rows by position.
    frames = _frames(d, p)
    spaces = fp.subspaces(d, p)
    assert frames.dims.typecode == "B"
    assert list(frames.dims) == [len(pivots) for _, pivots in spaces]
    assert len(frames.rows) == (p**d - 1) // (p - 1)
    assert set(frames.rows) == {u for basis, _ in spaces for u in basis}
    for (basis, _), row_ids in zip(spaces, frames.row_ids):
        assert tuple(frames.rows[k] for k in row_ids) == basis


def _block(oracle, entry):
    """The (sub block, quotient block) an arrow-table entry names by half
    ids, or None for an unstable pair."""
    return entry and tuple(map(oracle._half_mats.__getitem__, entry))


def test_arrow_table_layout_for_the_identity():
    # F_2^1 has the subspaces 0 and F, each its own class on both sides; the
    # identity maps F into 0 only when the pair is (F, 0), the one unstable
    # entry.
    oracle = Oracle(get_preset("a2_linear", 2))
    table = oracle._arrow_table(((1,),), 1, 1)
    assert list(table.source_class) == [0, 1]
    assert list(table.target_class) == [0, 1]
    assert table.n_targets == 2
    assert isinstance(table.entries, list) and len(table.entries) == 4
    assert table.entries[2] is None
    assert [_block(oracle, table.entries[k]) for k in (0, 1, 3)] == [
        ((), ((1,),)),
        ((), ((),)),
        (((1,),), ()),
    ]
    assert oracle._arrow_table(((1,),), 1, 1) is table


def assert_table_matches_the_literal_entry(oracle, mat, d_s, d_t, table):
    # Every pair of subspaces is computed on its own: all pairs in one pair
    # of classes must share one literal entry, and it must be the class
    # entry.
    p = oracle.p
    literal = {}
    for source, i in zip(fp.subspaces(d_s, p), table.source_class):
        for target, j in zip(fp.subspaces(d_t, p), table.target_class):
            entry = literal_entry(mat, source, target, p)
            literal.setdefault((i, j), set()).add(entry)
    assert len(literal) == len(table.entries)
    for (i, j), entries in literal.items():
        want = _block(oracle, table.entries[i * table.n_targets + j])
        assert entries == {want}, (mat, i, j)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_class_tables_match_the_literal_entry(name, p):
    # Every member's matrices, not only those of the members walked.
    oracle = Oracle(get_preset(name, p))
    for member in oracle.members:
        rep = oracle.rep_of(member)
        for mat, (s, t) in zip(rep.mats, oracle.preset.arrows):
            oracle._arrow_table(mat, rep.dims[s], rep.dims[t])
    assert oracle._arrow_tables
    for (mat, d_s, d_t), table in oracle._arrow_tables.items():
        assert_table_matches_the_literal_entry(oracle, mat, d_s, d_t, table)


@lru_cache(maxsize=None)
def _scratch_oracle(p):
    return Oracle(get_preset("a2_linear", p))


@st.composite
def arrow_matrices(draw):
    """A d_s x d_t matrix over F_3 or F_5 with entries anywhere in 0..p-1:
    rows with several nonzeros and entries other than 1, which no preset
    arrow has."""
    p = draw(st.sampled_from([3, 5]))
    d_s, d_t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, p - 1)] * d_t)
    return p, tuple(draw(st.lists(row, min_size=d_s, max_size=d_s))), d_s, d_t


@given(arrow_matrices())
@settings(max_examples=100, deadline=None)
def test_arrow_tables_of_any_matrix_match_the_literal_entry(case):
    p, mat, d_s, d_t = case
    oracle = _scratch_oracle(p)
    table = oracle._arrow_table(mat, d_s, d_t)
    assert_table_matches_the_literal_entry(oracle, mat, d_s, d_t, table)


_ARC = ["universe-size", "identification", "census", "arc-agreement"]
_TAIL = ["structural-identities", "left-schur-closure"]
EXPECTED_CHECKS = {
    "a2_linear": _ARC + _TAIL,
    "a3_linear": _ARC + ["closure-table"] + _TAIL,
    "a3_source": ["universe-size", "identification", "census", "closure-table"]
    + _TAIL,
    "nak2": _ARC + ["closure-table"] + _TAIL,
    "b3": _ARC + _TAIL,
}


@pytest.mark.parametrize(
    "name,p",
    [(name, p) for name in PRESET_NAMES for p in (2, 3)]
    + [("a2_linear", 5), ("a3_source", 5)],
)
def test_run_checks_verdicts_are_pinned(name, p):
    got = [(r.name, r.passed, r.detail) for r in run_checks(name, p)]
    assert got == [(check, True, "") for check in EXPECTED_CHECKS[name]]


class CountingOracle(Oracle):
    """Counts the hom systems solved for fingerprints and the calls to
    ``identify``, from construction on."""

    def __init__(self, preset, dim_bound):
        self.hom_systems = self.identified = 0
        super().__init__(preset, dim_bound)

    def _hom_dim_reps(self, x, y):
        self.hom_systems += 1
        return super()._hom_dim_reps(x, y)

    def identify(self, rep, strict=False):
        self.identified += 1
        return super().identify(rep, strict)


# (hom systems solved, identify calls) of run_checks(name, 3) on a fresh
# oracle: a change to what identification computes moves one of them, even
# when every verdict stays.  Only the first member of each symmetry orbit is
# walked; the identify calls include one per indecomposable per symmetry.
WORK_AT_P3 = {
    "a2_linear": (87, 355),
    "a3_linear": (628, 693),
    "a3_source": (520, 676),
    "nak2": (144, 419),
    "b3": (1034, 705),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_run_checks_work_is_pinned(name, monkeypatch):
    built = []

    def fresh_oracle(preset_name, dim_bound, p):
        built.append(CountingOracle(get_preset(preset_name, p), dim_bound))
        return built[-1]

    monkeypatch.setattr(verify, "get_oracle", fresh_oracle)
    assert all(r.passed for r in run_checks(name, 3))
    assert [(o.hom_systems, o.identified) for o in built] == [WORK_AT_P3[name]]


# direct_sum calls in run_checks(name, 3) on a fresh oracle.  Rows are
# summed, so construction builds none; a representation is built where
# matrices are read: the walk of each non-semisimple orbit source, the hom
# systems of the element route and the identification audit.
DIRECT_SUMS_AT_P3 = {
    "a2_linear": 41,
    "a3_linear": 142,
    "a3_source": 142,
    "nak2": 61,
    "b3": 197,
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_direct_sums_are_built_only_where_matrices_are_read(name, monkeypatch):
    built = []

    def counting_direct_sum(preset, reps):
        built.append(reps)
        return direct_sum(preset, reps)

    monkeypatch.setattr("monobrick.oracle.direct_sum", counting_direct_sum)
    oracle = Oracle(get_preset(name, 3))
    assert built == []
    monkeypatch.setattr(verify, "get_oracle", lambda preset_name, dim_bound, p: oracle)
    assert all(r.passed for r in run_checks(name, 3))
    assert len(built) == DIRECT_SUMS_AT_P3[name]


class ExpansionCountingOracle(Oracle):
    """Counts the hom spaces expanded, per ordered pair."""

    def __init__(self, preset, dim_bound):
        self.expanded = Counter()
        super().__init__(preset, dim_bound)

    def hom_elements(self, x, y):
        self.expanded[x, y] += 1
        return super().hom_elements(x, y)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_run_checks_expands_each_hom_space_once(name, monkeypatch):
    # is_brick, mono_ok (asked by the census, cofinal_closure and the census
    # audit's cross-check) and hom_kind (arc agreement) read the same pairs;
    # the element route expands each pair's hom space once per oracle.
    built = []

    def fresh_oracle(preset_name, dim_bound, p):
        built.append(ExpansionCountingOracle(get_preset(preset_name, p), dim_bound))
        return built[-1]

    monkeypatch.setattr(verify, "get_oracle", fresh_oracle)
    assert all(r.passed for r in run_checks(name, 3))
    [oracle] = built
    assert oracle.expanded
    assert max(oracle.expanded.values()) == 1


# Calls to ``bit_indices`` in run_checks(name, 3) on a fresh oracle: a
# second decode of one mask, or a decode per split mask, moves the count.
DECODES_AT_P3 = {
    "a2_linear": 42,
    "a3_linear": 182,
    "a3_source": 201,
    "nak2": 63,
    "b3": 622,
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_run_checks_decodes_are_pinned(name, monkeypatch):
    decoded = []

    def counting_bit_indices(mask):
        decoded.append(mask)
        return bit_indices(mask)

    monkeypatch.setattr("monobrick.oracle.bit_indices", counting_bit_indices)
    monkeypatch.setattr(
        verify, "get_oracle",
        lambda preset_name, dim_bound, p: Oracle(get_preset(preset_name, p), dim_bound),
    )
    assert all(r.passed for r in run_checks(name, 3))
    assert len(decoded) == DECODES_AT_P3[name]


# sha256 over every member's sorted subquotient table, one line per member
# in universe order.  Members are named, so the digest does not depend on
# the field.
TABLE_DIGESTS = {
    "a2_linear": "b23bce07013f706f13d923330da5dd897bea80098188eeb7f098f8225a0f54dc",
    "a3_linear": "fddc8b06d66f89808be2ee130db6c2759bfd208e1d2ed7d76912528b628edad0",
    "a3_source": "597e2c9b7141fa6ab953b8c2479e8be0dc4c846e13fecd1f8ffc73d532241db5",
    "nak2": "b8ffde08971e921b7b1adc86c5ce2204182154cb45687cd4dc433cd2ac93e91a",
    "b3": "5e4934c6299f93173f61bd716ee02ed65722f0aac349a6b7db7db8da93397c1b",
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_subquotient_tables_are_pinned(name, p):
    oracle = get_oracle(name, p=p)
    digest = hashlib.sha256()
    for member in oracle.members:
        line = repr((member, sorted(oracle.subquotients(member))))
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == TABLE_DIGESTS[name]
