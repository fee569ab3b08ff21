"""Checks for the finite-field module model."""

import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from literal_tables import literal_fingerprint, literal_identify

from monobrick.arcs import hom_kind
from monobrick.diagrams import DiagramKind, enumerate_diagrams
from monobrick.oracle import (
    ZERO,
    ClosureFlags,
    Oracle,
    OracleError,
    element_is_injective,
    get_oracle,
)
from monobrick.presets import PRESET_NAMES, direct_sum, get_preset
from monobrick.verify import schur_verdicts

ALL = list(PRESET_NAMES)
BRIDGED = ["a3_linear", "nak2", "b3"]


def members(oracle, *groups):
    return [tuple(sorted(g, key=oracle._order.__getitem__)) for g in groups]


# ---------------------------------------------------------------------------
# universe construction


@pytest.mark.parametrize(
    "name,size",
    [
        ("a2_linear", 50),
        ("a3_linear", 217),
        ("a3_source", 217),
        ("nak2", 80),
        ("b3", 361),
    ],
)
def test_universe_sizes(name, size):
    assert len(get_oracle(name).members) == size


def test_universe_anchor_counts():
    assert len(get_oracle("nak2", 2).members) == 8
    assert len(get_oracle("a3_linear", 3).members) == 29


def test_dim_bound_must_cover_indecomposables():
    with pytest.raises(ValueError, match="misses indecomposables"):
        get_oracle("a2_linear", 1)


def test_preset_without_a_simple_is_refused():
    preset = get_preset("a2_linear")
    keep = [i for i, name in enumerate(preset.indec_names) if name != "2"]
    broken = replace(
        preset,
        indec_names=tuple(preset.indec_names[i] for i in keep),
        indec_reps=tuple(preset.indec_reps[i] for i in keep),
    )
    with pytest.raises(OracleError, match="no unique simple at vertex 2"):
        Oracle(broken)


def test_unknown_preset_and_bad_field():
    with pytest.raises(KeyError):
        get_preset("nak5")
    with pytest.raises(ValueError, match="field"):
        get_preset("nak2", 7)


def test_zero_member_is_first():
    for name in ALL:
        assert get_oracle(name).members[0] == ZERO


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_dimension_examples():
    oracle = get_oracle("a3_linear")
    assert oracle.hom_dim(("1",), ("1",)) == 1
    assert oracle.hom_dim(("1",), ("2",)) == 0
    assert oracle.hom_dim(("2/1",), ("2",)) == 1
    assert oracle.hom_dim(("1",), ("2/1",)) == 1
    assert oracle.hom_dim(("3/2/1",), ("3/2",)) == 1
    assert oracle.hom_dim(("3/2/1",), ("1",)) == 0


def test_hom_dimension_is_additive():
    oracle = get_oracle("nak2")
    x, y = ("1", "2/1"), ("1/2", "2/1")
    expected = sum(
        oracle.hom_dim((a,), (b,)) for a in x for b in y
    )
    assert oracle.hom_dim(x, y) == expected
    basis = oracle.hom_basis(x, y)
    assert len(basis) == expected


def test_hom_elements_budget_guard():
    oracle = get_oracle("a3_linear")
    big = ("1",) * 6
    with pytest.raises(OracleError, match="too large"):
        next(oracle.hom_elements(big, big))


# ---------------------------------------------------------------------------
# identification


class IdentifyingOracle(Oracle):
    """Records every representation handed to ``identify`` with its answer."""

    def __init__(self, preset):
        self.identified = {}
        super().__init__(preset)

    def identify(self, rep, strict=False):
        member = self.identified[rep] = super().identify(rep, strict)
        return member


def identified_subquotients(name, p=2):
    """Every representation identified while building all tables of a
    fresh oracle over F_p, with its member."""
    oracle = IdentifyingOracle(get_preset(name, p))
    for member in oracle.members:
        oracle.subquotients(member)
    return oracle, dict(oracle.identified)


def test_identify_handles_every_cached_subquotient():
    for name in ["a2_linear", "nak2"]:
        oracle, identified = identified_subquotients(name)
        assert identified
        for rep, member in identified.items():
            assert oracle.identify(rep, strict=True) == member


def test_identify_exhaustive_isomorphism_audit():
    oracle, identified = identified_subquotients("nak2")
    checked = 0
    for rep, member in identified.items():
        if rep.total_dim <= 4:
            oracle.assert_isomorphic(rep, member)
            checked += 1
    assert checked > 20


def test_identify_rejects_out_of_universe():
    oracle = get_oracle("a3_linear")
    huge = direct_sum(
        oracle.preset, tuple(oracle.preset.rep_of_indec("1") for _ in range(7))
    )
    with pytest.raises(OracleError):
        oracle.identify(huge)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ALL)
def test_identify_agrees_with_the_fingerprint_route(name, p):
    # Arrow ranks narrow the candidates before any hom system is solved;
    # every representation a table build hands over must still land on the
    # member that dimensions and fingerprint alone pick.
    oracle, identified = identified_subquotients(name, p)
    assert identified
    for rep, member in identified.items():
        assert literal_identify(oracle, rep) == member


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("name", ALL)
def test_identify_refuses_a_stranger_like_the_fingerprint_route(name, strict):
    oracle = get_oracle(name, p=3)
    simple = oracle.preset.rep_of_indec(oracle.preset.indec_names[0])
    stranger = direct_sum(oracle.preset, (simple,) * (oracle.dim_bound + 1))
    with pytest.raises(OracleError) as literal:
        literal_identify(oracle, stranger, strict)
    with pytest.raises(OracleError) as got:
        oracle.identify(stranger, strict)
    assert str(got.value) == str(literal.value)
    assert "matches 0 members" in str(got.value)


def test_identify_refuses_a_rank_no_member_has():
    # Without "2/1" every member of a2_linear is semisimple, so the module
    # 2/1 has the dimensions of 1 + 2 but an arrow of rank 1.  The
    # fingerprint route stops at the one member of those dimensions.
    preset = get_preset("a2_linear")
    keep = [i for i, name in enumerate(preset.indec_names) if name != "2/1"]
    oracle = Oracle(replace(
        preset,
        indec_names=tuple(preset.indec_names[i] for i in keep),
        indec_reps=tuple(preset.indec_reps[i] for i in keep),
    ))
    uniserial = preset.rep_of_indec("2/1")
    assert literal_identify(oracle, uniserial) == ("1", "2")
    with pytest.raises(OracleError, match="matches 0 members"):
        oracle.identify(uniserial)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ALL)
def test_fingerprints_are_the_hom_dimensions(name, p):
    oracle = get_oracle(name, p=p)
    for member in oracle.members:
        assert oracle._fingerprints[member] == literal_fingerprint(oracle, member)


# ---------------------------------------------------------------------------
# subquotient tables


def test_uniserial_table():
    oracle = get_oracle("a3_linear")
    assert oracle.subquotients(("2/1",)) == {
        (ZERO, ("2/1",)),
        (("1",), ("2",)),
        (("2/1",), ZERO),
    }


def test_semisimple_table():
    oracle = get_oracle("a3_linear")
    assert oracle.subquotients(("1", "2")) == {
        (ZERO, ("1", "2")),
        (("1",), ("2",)),
        (("2",), ("1",)),
        (("1", "2"), ZERO),
    }


def test_subobjects_of_the_big_source_module():
    oracle = get_oracle("a3_source")
    assert oracle.subobjects(("13/2",)) == {
        ZERO,
        ("2",),
        ("1/2",),
        ("3/2",),
        ("13/2",),
    }
    assert oracle.quotient_objects(("13/2",)) == {
        ZERO,
        ("1", "3"),
        ("1",),
        ("3",),
        ("13/2",),
    }


def test_diagonal_subobject_of_a_square():
    oracle = get_oracle("a3_linear")
    pairs = oracle.subquotients(("2/1", "2/1"))
    subs = {a for a, _ in pairs}
    assert subs == {
        ZERO,
        ("1",),
        ("1", "1"),
        ("2/1",),
        ("1", "2/1"),
        ("2/1", "2/1"),
    }


# ---------------------------------------------------------------------------
# bricks and censuses


@pytest.mark.parametrize("name,count", [
    ("a2_linear", 3),
    ("a3_linear", 6),
    ("a3_source", 6),
    ("nak2", 4),
    ("b3", 9),
])
def test_every_indecomposable_is_a_brick(name, count):
    oracle = get_oracle(name)
    assert len(oracle.brick_members()) == count
    assert count == len(oracle.preset.indec_names)


def test_is_brick_rejects_zero_and_sums():
    oracle = get_oracle("a3_linear")
    assert not oracle.is_brick(ZERO)
    assert not oracle.is_brick(("1", "1"))
    assert not oracle.is_brick(("1",) * 6)  # large End space shortcut


@pytest.mark.parametrize("name,mono,semi", [
    ("a2_linear", 6, 5),
    ("a3_linear", 22, 14),
    ("a3_source", 26, 14),
    ("nak2", 8, 6),
    ("b3", 38, 20),
])
def test_census_counts(name, mono, semi):
    oracle = get_oracle(name)
    monos = oracle.monobricks()
    semis = oracle.semibricks()
    assert len(monos) == mono
    assert len(semis) == semi
    assert monos[0] == frozenset()
    assert set(semis) <= set(monos)


def test_mono_ok_element_and_factored_routes_agree():
    for name in ALL:
        oracle = get_oracle(name)
        bricks = oracle.brick_members()
        for x, y in product(bricks, repeat=2):
            assert oracle.mono_ok(x, y) == oracle.mono_ok_factored(x, y), (
                name,
                x,
                y,
            )


@pytest.mark.parametrize("name", BRIDGED)
def test_censuses_match_arc_enumeration(name):
    oracle = get_oracle(name)
    algebra = oracle.preset.arc_algebra
    for kind, census in [
        (DiagramKind.MONOBRICK, oracle.monobricks()),
        (DiagramKind.SEMIBRICK, oracle.semibricks()),
    ]:
        mapped = {
            frozenset(oracle.arc_member(a) for a in diagram.arcs)
            for diagram in enumerate_diagrams(algebra, kind)
        }
        assert mapped == set(census)


# ---------------------------------------------------------------------------
# subcategory calculus


def test_filt_of_linear_generators():
    oracle = get_oracle("a3_linear")
    e1 = oracle.filt([("1",), ("2",), ("2/1",), ("3/2/1",)])
    # every multiset over the four generators, and nothing else
    assert len(e1) == 64
    assert all(set(m) <= {"1", "2", "2/1", "3/2/1"} for m in e1)


def test_filt_glues_non_split_extensions():
    oracle = get_oracle("a3_linear")
    grown = oracle.filt([("1",), ("2",)])
    assert ("2/1",) in grown
    assert ("3/2/1",) not in grown


def test_filt_is_not_summand_closed_in_general():
    oracle = get_oracle("a3_source")
    e = oracle.filt([("2",), ("13/2",)])
    assert ("1/2", "3/2") in e
    assert ("1/2",) not in e and ("3/2",) not in e
    flags = oracle.closure_flags(e)
    assert flags.extensions and not flags.summands and not flags.kernels


def test_filt_requires_known_members():
    oracle = get_oracle("nak2")
    with pytest.raises(OracleError, match="outside"):
        oracle.filt([("2/1",) * 9])


def test_simp_of_the_four_generator_set():
    oracle = get_oracle("a3_linear")
    e1 = oracle.filt([("1",), ("2",), ("2/1",), ("3/2/1",)])
    assert oracle.simp(e1) == {("1",), ("2",), ("3/2/1",)}


def test_simp_then_filt_recovers_the_set():
    oracle = get_oracle("a3_linear")
    e1 = oracle.filt([("1",), ("2",), ("2/1",), ("3/2/1",)])
    assert oracle.filt(oracle.simp(e1)) == e1


def test_left_schur_examples():
    oracle = get_oracle("a3_linear")
    e1 = oracle.filt([("1",), ("2",), ("2/1",), ("3/2/1",)])
    e2 = oracle.filt([("2",), ("2/1",), ("3/2/1",)])
    assert oracle.is_left_schur(e1)
    assert not oracle.is_left_schur(e2)
    # the literal element-by-element reading agrees
    assert is_left_schur_elementwise(oracle, e1)
    assert not is_left_schur_elementwise(oracle, e2)


def is_left_schur_elementwise(oracle, e) -> bool:
    """Literal reading: every nonzero map out of a simple is injective.

    Only usable when the hom spaces involved are small; the factored
    ``Oracle.is_left_schur`` is the production route.
    """
    for m in oracle.simp(e):
        dims = oracle.dims_of(m)
        for x in e - {ZERO}:
            for el in oracle.hom_elements(m, x):
                if not element_is_injective(el, dims, oracle.p):
                    return False
    return True


def test_w_map_prunes_to_the_maximal_chain_end():
    oracle = get_oracle("a3_linear")
    chain = oracle.filt([("1",), ("2/1",)])
    assert oracle.w_map(chain) == oracle.filt([("2/1",)])


def test_f_map_adds_subobjects_then_closes():
    oracle = get_oracle("a3_linear")
    out = oracle.f_map([("3/2",)])
    assert out == oracle.filt([("2",), ("3/2",)])
    assert all(set(m) <= {"2", "3/2"} for m in out)


def test_closure_flags_of_the_whole_universe():
    oracle = get_oracle("nak2", 2)
    flags = oracle.closure_flags(set(oracle.members))
    assert flags.extensions and flags.subobjects and flags.quotients
    assert flags.summands and flags.kernels and flags.images and flags.cokernels
    # member dims are (0, 1, 1, 2, 2, 2, 2, 2): with five dim-2 members and
    # two dim-1 members, 5*2 + 2*5 + 5*5 ordered pairs overshoot the bound
    assert flags.skipped_extension_pairs == 45


@pytest.mark.parametrize("name", ["nak2", "b3"])
def test_skipped_extension_pairs_match_the_double_loop(name):
    oracle = get_oracle(name)
    rng = random.Random(f"skipped-{name}")
    for _ in range(12):
        size = rng.randrange(len(oracle.members) + 1)
        e = {ZERO} | set(rng.sample(oracle.members, size))
        literal = sum(
            1
            for s in e
            for q in e
            if oracle.dim_of(s) + oracle.dim_of(q) > oracle.dim_bound
        )
        assert oracle.closure_flags(e).skipped_extension_pairs == literal


def literal_closure_flags(oracle, e) -> ClosureFlags:
    """Every closure flag by its literal definition, as a second route.

    Subobjects and quotients are scanned member by member, summands over
    every sub-multiset, and extensions over every member of the universe
    outside the set.
    """
    e = frozenset(e)
    union_subs = set().union(*(oracle.subobjects(x) for x in e))
    union_quots = set().union(*(oracle.quotient_objects(x) for x in e))

    def sub_multisets(x):
        counts = Counter(x)
        names = sorted(counts, key=oracle._order.__getitem__)
        for sub_counts in product(*(range(counts[n] + 1) for n in names)):
            yield tuple(n for n, k in zip(names, sub_counts) for _ in range(k))

    dims = {x: oracle.dim_of(x) for x in e}
    return ClosureFlags(
        extensions=not any(
            any(a in e and q in e for a, q in oracle.subquotients(x))
            for x in oracle.members
            if x not in e
        ),
        subobjects=all(oracle.subobjects(x) <= e for x in e),
        quotients=all(oracle.quotient_objects(x) <= e for x in e),
        summands=all(part in e for x in e for part in sub_multisets(x)),
        kernels=all(
            a in e for x in e for a, q in oracle.subquotients(x) if q in union_subs
        ),
        images=all((oracle.quotient_objects(x) & union_subs) <= e for x in e),
        cokernels=all(
            c in e for y in e for b, c in oracle.subquotients(y) if b in union_quots
        ),
        skipped_extension_pairs=sum(
            1 for s in e for q in e if dims[s] + dims[q] > oracle.dim_bound
        ),
    )


@pytest.mark.parametrize("name", ALL)
def test_closure_flags_match_the_literal_scans_on_filt_closures(name):
    oracle = get_oracle(name, p=2)
    bricks = oracle.brick_members()
    closures = {
        oracle.filt(b for i, b in enumerate(bricks) if bits >> i & 1)
        for bits in range(1 << len(bricks))
    }
    for e in closures:
        assert oracle.closure_flags(e) == literal_closure_flags(oracle, e), sorted(
            oracle.simp(e)
        )


@pytest.mark.parametrize("name", ["nak2", "b3"])
def test_closure_flags_match_the_literal_scans_on_random_sets(name):
    oracle = get_oracle(name)
    rng = random.Random(f"flags-{name}")
    for _ in range(12):
        size = rng.randrange(len(oracle.members) + 1)
        e = {ZERO} | set(rng.sample(oracle.members, size))
        assert oracle.closure_flags(e) == literal_closure_flags(oracle, e)


def literal_splits_in(oracle, x, e) -> bool:
    return any(
        a != ZERO and q != ZERO and a in e and q in e
        for a, q in oracle.subquotients(x)
    )


def literal_filt(oracle, gens) -> frozenset:
    """The single pass over frozensets of (sub, quot) members, as a second
    route to the mask layer's ``filt``."""
    result = set(gens) | {ZERO}
    for x in oracle.members:
        if x not in result and literal_splits_in(oracle, x, result):
            result.add(x)
    return frozenset(result)


def literal_simp(oracle, e) -> frozenset:
    return frozenset(m for m in e - {ZERO} if not literal_splits_in(oracle, m, e))


def literal_is_left_schur(oracle, e) -> bool:
    union_subs = set().union(*(oracle.subobjects(x) for x in e))
    return not any(
        (oracle.quotient_objects(m) & union_subs) - {ZERO, m}
        for m in literal_simp(oracle, e)
    )


def literal_w_map(oracle, e) -> frozenset:
    bad_images = {b for x in e for b, c in oracle.subquotients(x) if c not in e}
    return frozenset(w for w in e if not oracle.quotient_objects(w) & bad_images)


@pytest.mark.parametrize("name", ALL)
def test_subcategory_layer_matches_the_frozenset_route(name):
    oracle = get_oracle(name, p=2)
    bricks = oracle.brick_members()
    for bits in range(1 << len(bricks)):
        gens = frozenset(b for i, b in enumerate(bricks) if bits >> i & 1)
        e = oracle.filt(gens)
        assert e == literal_filt(oracle, gens), sorted(gens)
        for s in (gens | {ZERO}, e):
            assert oracle.simp(s) == literal_simp(oracle, s), sorted(s)
            assert oracle.is_left_schur(s) == literal_is_left_schur(oracle, s)
            assert oracle.w_map(s) == literal_w_map(oracle, s), sorted(s)


@pytest.mark.parametrize("name,p", [(name, 2) for name in ALL] + [("b3", 3)])
def test_subset_closures_match_the_frozenset_route(name, p):
    oracle = get_oracle(name, p=p)
    bricks = oracle.brick_members()
    closures = oracle.subset_closures(bricks)
    assert len(closures) == 1 << len(bricks)
    for bits, e in enumerate(closures):
        gens = frozenset(b for i, b in enumerate(bricks) if bits >> i & 1)
        assert e == literal_filt(oracle, gens), sorted(gens)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_extend_filt_matches_filt_of_the_union(data):
    oracle = get_oracle("a3_linear")
    draw_members = st.lists(st.sampled_from(oracle.members), max_size=4)
    closed = oracle.filt(data.draw(draw_members))
    new = frozenset(data.draw(draw_members))
    got = oracle._extend_filt(oracle._mask_of(closed), oracle._mask_of(new))
    assert oracle._members_of(got) == literal_filt(oracle, closed | new)


def test_subset_closures_refuse_strangers():
    oracle = get_oracle("nak2")
    with pytest.raises(OracleError, match="outside"):
        oracle.subset_closures([("1",), ("2/1",) * 9])


def literal_schur_sweep(oracle):
    """The 2^k sweep with every closure built from scratch."""
    bricks = oracle.brick_members()
    verdicts = {}
    for bits in range(1 << len(bricks)):
        gens = frozenset(b for i, b in enumerate(bricks) if bits >> i & 1)
        e = oracle.filt(gens)
        if e in verdicts:
            continue
        flags = oracle.closure_flags(e)
        closed = flags.extensions and flags.kernels and flags.images
        verdicts[e] = (bits, oracle.is_left_schur(e), closed)
    return verdicts


@pytest.mark.parametrize("name,p", [(name, 2) for name in ALL] + [("b3", 3)])
def test_schur_verdicts_match_the_sweep_from_scratch(name, p):
    want = literal_schur_sweep(Oracle(get_preset(name, p)))
    oracle = Oracle(get_preset(name, p))
    got = schur_verdicts(oracle, oracle.brick_members())
    assert list(got.items()) == list(want.items())


def test_memoised_results_ignore_how_a_set_is_passed():
    oracle = get_oracle("a3_linear")
    gens = [("3/2",), ("1",), ZERO]
    e = oracle.filt(gens)
    ordered = sorted(e, key=oracle.index.__getitem__)
    forms = [
        lambda xs: list(xs),
        lambda xs: list(reversed(xs)),
        set,
        frozenset,
        lambda xs: iter(xs[::-1]),
    ]
    for form in forms:
        assert oracle.filt(form(gens)) == e
        assert oracle.filt(form(gens[:2])) == e
        assert oracle.filt(form(ordered)) == e
        assert oracle.simp(form(ordered)) == literal_simp(oracle, e)
        assert oracle.closure_flags(form(ordered)) == literal_closure_flags(oracle, e)
        assert oracle.is_left_schur(form(ordered)) == literal_is_left_schur(oracle, e)
        assert oracle.w_map(form(ordered)) == literal_w_map(oracle, e)


def test_memos_do_not_skip_validation():
    oracle = get_oracle("nak2")
    e = oracle.filt([("1",)])
    flags = oracle.closure_flags(e)
    stray = ("2/1",) * 9
    for method in (oracle.closure_flags, oracle.simp, oracle.is_left_schur, oracle.w_map):
        with pytest.raises(OracleError, match="zero"):
            method(e - {ZERO})
        with pytest.raises(OracleError, match="outside"):
            method(e | {stray})
    with pytest.raises(OracleError, match="outside"):
        oracle.filt(e | {stray})
    assert oracle.closure_flags(e) == flags
    assert oracle.filt(e) == e


def test_wide_and_torsion_free_verdicts_on_known_sets():
    oracle = get_oracle("a3_linear")
    # 1 and 3/2 are Hom-orthogonal: their filtration closure is wide, but
    # the subobject 2 of 3/2 is missing, so it is no torsion-free class
    wide = oracle.closure_flags(oracle.filt([("1",), ("3/2",)]))
    assert wide.wide and not wide.torsion_free
    # 2 embeds into 3/2, which makes the closure torsion-free but not wide
    tf = oracle.closure_flags(oracle.filt([("2",), ("3/2",)]))
    assert tf.torsion_free and not tf.wide
    whole = oracle.closure_flags(oracle.members)
    assert whole.wide and whole.torsion_free


def test_closure_flags_of_the_four_generator_set():
    oracle = get_oracle("a3_linear")
    e1 = oracle.filt([("1",), ("2",), ("2/1",), ("3/2/1",)])
    flags = oracle.closure_flags(e1)
    assert (
        flags.extensions,
        flags.subobjects,
        flags.quotients,
        flags.summands,
        flags.kernels,
        flags.images,
        flags.cokernels,
    ) == (True, True, False, True, True, True, False)


def test_subcat_sets_must_contain_zero():
    oracle = get_oracle("nak2")
    with pytest.raises(OracleError, match="zero"):
        oracle.simp({("1",)})


# ---------------------------------------------------------------------------
# brick poset and closure


def test_mmax_drops_embedded_bricks():
    oracle = get_oracle("a3_linear")
    mm = oracle.mmax([("1",), ("2",), ("3/2/1",)])
    assert mm == {("2",), ("3/2/1",)}


def test_cofinal_closure_adds_the_missing_socle():
    oracle = get_oracle("nak2")
    assert oracle.cofinal_closure([("2/1",)]) == {("1",), ("2/1",)}
    assert oracle.cofinal_closure([("1/2",)]) == {("2",), ("1/2",)}


def test_cofinal_closure_properties_over_all_monobricks():
    for name in ["nak2", "b3"]:
        oracle = get_oracle(name)
        monos = set(oracle.monobricks())
        closed = 0
        for mm in monos:
            grown = oracle.cofinal_closure(mm)
            assert mm <= grown
            assert grown in monos
            assert oracle.cofinal_closure(grown) == grown
            assert oracle.mmax(grown) == oracle.mmax(mm) or mm == frozenset()
            if grown == mm:
                closed += 1
        assert closed == len(oracle.semibricks())


# ---------------------------------------------------------------------------
# bridge to arc combinatorics


@pytest.mark.parametrize("name", BRIDGED)
def test_arc_hom_kinds_agree(name):
    oracle = get_oracle(name)
    algebra = oracle.preset.arc_algebra
    for a, b in product(algebra.arcs(), repeat=2):
        assert oracle.arc_hom_kind(a, b) is hom_kind(a, b, algebra), (a, b)


def test_arc_members_cover_all_bricks():
    for name in BRIDGED:
        oracle = get_oracle(name)
        algebra = oracle.preset.arc_algebra
        image = {oracle.arc_member(a) for a in algebra.arcs()}
        assert image == set(oracle.brick_members())


def test_arc_member_on_a_wrapping_arc():
    oracle = get_oracle("nak2")
    from monobrick.arcs import Arc

    assert oracle.arc_member(Arc(1, 1)) == ("2/1",)
    assert oracle.arc_member(Arc(2, 2)) == ("1/2",)
    assert oracle.arc_member(Arc(1, 2)) == ("1",)


def test_presets_without_an_arc_model_refuse():
    oracle = get_oracle("a3_source")
    from monobrick.arcs import Arc

    with pytest.raises(OracleError, match="arc"):
        oracle.arc_member(Arc(1, 2))


# ---------------------------------------------------------------------------
# field independence


@pytest.mark.parametrize("p", [3, 5])
def test_censuses_are_field_independent(p):
    for name, bound in [("nak2", 4), ("a3_linear", 4)]:
        base = get_oracle(name, bound)
        other = get_oracle(name, bound, p)
        assert set(other.monobricks()) == set(base.monobricks())
        assert set(other.semibricks()) == set(base.semibricks())


def test_arc_agreement_holds_over_f3():
    oracle = get_oracle("nak2", 4, 3)
    algebra = oracle.preset.arc_algebra
    for a, b in product(algebra.arcs(), repeat=2):
        assert oracle.arc_hom_kind(a, b) is hom_kind(a, b, algebra)


# ---------------------------------------------------------------------------
# randomised structural properties (small preset keeps this quick)


@st.composite
def brick_subsets(draw):
    oracle = get_oracle("nak2")
    bricks = oracle.brick_members()
    picked = draw(st.lists(st.sampled_from(bricks), max_size=4, unique=True))
    return oracle, frozenset(picked)


@given(brick_subsets())
@settings(max_examples=40, deadline=None)
def test_filt_is_idempotent(data):
    oracle, gens = data
    once = oracle.filt(gens)
    assert oracle.filt(once) == once


@st.composite
def subcategory_sets(draw):
    """Random sets of nak2 members with zero; some are closed by filt first."""
    oracle = get_oracle("nak2")
    picked = draw(st.lists(st.sampled_from(oracle.members), max_size=12))
    e = frozenset(picked) | {ZERO}
    if draw(st.booleans()):
        e = oracle.filt(e)
    return oracle, e


@given(subcategory_sets())
@settings(max_examples=60, deadline=None)
def test_extension_flag_is_filt_fixedness(data):
    oracle, e = data
    assert oracle.closure_flags(e).extensions == (oracle.filt(e) == e)


@given(brick_subsets())
@settings(max_examples=40, deadline=None)
def test_w_map_stays_inside(data):
    oracle, gens = data
    e = oracle.filt(gens)
    w = oracle.w_map(e)
    assert w <= e
    assert ZERO in w
