"""Named consistency audits over the preset module models.

The command line verifier and the acceptance tests both run this registry, so
an audit can only live in one place.  A failing audit carries a concrete
counterexample in its detail string; the whole point of keeping an
independent model is that discrepancies stay inspectable instead of
collapsing into a bare assertion error.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from monobrick import poset
from monobrick.arcs import hom_kind
from monobrick.diagrams import DiagramKind, enumerate_diagrams
from monobrick.oracle import (
    DEFAULT_DIM_BOUND,
    Member,
    Oracle,
    OracleError,
    get_oracle,
)

# ---------------------------------------------------------------------------
# frozen expectations


class Counts(NamedTuple):
    universe: int
    bricks: int
    monobricks: int
    semibricks: int


EXPECTED_COUNTS = {
    "a2_linear": Counts(universe=50, bricks=3, monobricks=6, semibricks=5),
    "a3_linear": Counts(universe=217, bricks=6, monobricks=22, semibricks=14),
    "a3_source": Counts(universe=217, bricks=6, monobricks=26, semibricks=14),
    "nak2": Counts(universe=80, bricks=4, monobricks=8, semibricks=6),
    "b3": Counts(universe=361, bricks=9, monobricks=38, semibricks=20),
}


class ClosureRow(NamedTuple):
    """Hand-checked data for one monobrick of a preset.

    ``extras`` lists the indecomposables that occur as summands inside the
    filtration closure without being members of the monobrick; ``closure``
    is the cofinal closure.  The three booleans record whether the
    filtration closure is closed under direct summands, kernels and images
    (it is always extension-closed by construction).
    """

    members: frozenset[str]
    extras: frozenset[str]
    mmax: frozenset[str]
    closure: frozenset[str]
    summand_closed: bool = True
    kernel_closed: bool = True
    image_closed: bool = True


def _row(
    members: str,
    extras: str,
    mmax: str,
    closure: str,
    **flags: bool,
) -> ClosureRow:
    return ClosureRow(
        frozenset(members.split()),
        frozenset(extras.split()),
        frozenset(mmax.split()),
        frozenset(closure.split()),
        **flags,
    )


A3_LINEAR_TABLE = (
    _row("1 2/1", "", "2/1", "1 2/1"),
    _row("1 3/2/1", "", "3/2/1", "1 2/1 3/2/1"),
    _row("1 2", "2/1", "1 2", "1 2"),
    _row("1 3/2", "3/2/1", "1 3/2", "1 2 3/2"),
    _row("1 3", "", "1 3", "1 3"),
    _row("2/1 3/2/1", "", "3/2/1", "1 2/1 3/2/1"),
    _row("2/1 3", "3/2/1", "2/1 3", "1 2/1 3"),
    _row("2 3/2/1", "", "2 3/2/1", "1 2 3/2/1"),
    _row("2 3/2", "", "3/2", "2 3/2"),
    _row("2 3", "3/2", "2 3", "2 3"),
    _row("1 2/1 3/2/1", "", "3/2/1", "1 2/1 3/2/1"),
    _row("1 2/1 3", "3/2/1", "2/1 3", "1 2/1 3"),
    _row("1 2 3/2/1", "2/1", "2 3/2/1", "1 2 3/2/1"),
    _row("1 2 3/2", "2/1 3/2/1", "1 3/2", "1 2 3/2"),
    _row("1 2 3", "2/1 3/2 3/2/1", "1 2 3", "1 2 3"),
)

A3_SOURCE_TABLE = (
    _row("2 1/2", "", "1/2", "2 1/2"),
    _row("2 3/2", "", "3/2", "2 3/2"),
    _row(
        "2 13/2",
        "1/2 3/2",
        "13/2",
        "2 1/2 3/2 13/2",
        summand_closed=False,
        kernel_closed=False,
        image_closed=False,
    ),
    _row("2 1", "1/2", "2 1", "2 1"),
    _row("2 3", "3/2", "2 3", "2 3"),
    _row("1/2 3/2", "", "1/2 3/2", "2 1/2 3/2"),
    _row("1/2 13/2", "", "13/2", "2 1/2 3/2 13/2"),
    _row("3/2 13/2", "", "13/2", "2 1/2 3/2 13/2"),
    _row("1/2 3", "13/2", "1/2 3", "2 1/2 3"),
    _row("3/2 1", "13/2", "3/2 1", "2 3/2 1"),
    _row("1 3", "", "1 3", "1 3"),
    _row("2 1/2 3/2", "", "1/2 3/2", "2 1/2 3/2"),
    _row(
        "2 1/2 13/2",
        "3/2",
        "13/2",
        "2 1/2 3/2 13/2",
        summand_closed=False,
        kernel_closed=False,
        image_closed=False,
    ),
    _row(
        "2 3/2 13/2",
        "1/2",
        "13/2",
        "2 1/2 3/2 13/2",
        summand_closed=False,
        kernel_closed=False,
        image_closed=False,
    ),
    _row("2 1/2 3", "3/2 13/2", "1/2 3", "2 1/2 3"),
    _row("2 3/2 1", "1/2 13/2", "3/2 1", "2 3/2 1"),
    # Closed under summands and images but not kernels: the glueing map
    # from 1/2 + 3/2 onto 13/2 has kernel 2.
    _row("1/2 3/2 13/2", "", "13/2", "2 1/2 3/2 13/2", kernel_closed=False),
    _row("1 2 3", "1/2 3/2 13/2", "1 2 3", "1 2 3"),
    _row("2 1/2 3/2 13/2", "", "13/2", "2 1/2 3/2 13/2"),
)

NAK2_TABLE = (
    _row("", "", "", ""),
    _row("1", "", "1", "1"),
    _row("2", "", "2", "2"),
    _row("1/2", "", "1/2", "2 1/2"),
    _row("2/1", "", "2/1", "1 2/1"),
    _row("1 2/1", "", "2/1", "1 2/1"),
    _row("2 1/2", "", "1/2", "2 1/2"),
    _row("1 2", "2/1 1/2", "1 2", "1 2"),
)

CLOSURE_TABLES = {
    "a3_linear": A3_LINEAR_TABLE,
    "a3_source": A3_SOURCE_TABLE,
    "nak2": NAK2_TABLE,
}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# small helpers


def _names(bricks) -> frozenset[str]:
    return frozenset(n for m in bricks for n in m)


def _fmt(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def _bricks(row_names: frozenset[str]) -> frozenset[Member]:
    return frozenset((n,) for n in row_names)


def _result(name: str, problems: list[str]) -> CheckResult:
    if not problems:
        return CheckResult(name, True)
    shown = "; ".join(problems[:4])
    if len(problems) > 4:
        shown += f"; and {len(problems) - 4} more"
    return CheckResult(name, False, shown)


# ---------------------------------------------------------------------------
# the audits


def check_universe_size(oracle: Oracle) -> CheckResult:
    want = EXPECTED_COUNTS[oracle.preset.name].universe
    got = len(oracle.members)
    problems = []
    if got != want:
        problems.append(f"universe has {got} members, expected {want}")
    if oracle.members[0] != ():
        problems.append("the zero module is not the first member")
    return _result("universe-size", problems)


def check_identification(oracle: Oracle) -> CheckResult:
    """Strict identification roundtrips on every small member.

    Also audits each indecomposable through the exhaustive isomorphism
    search, which is independent of the fingerprint machinery.
    """
    problems = []
    for m in oracle.members:
        if oracle.dim_of(m) > 3:
            continue
        found = oracle.identify(oracle.rep_of(m), strict=True)
        if found != m:
            problems.append(f"{m} came back as {found}")
    for n in oracle.preset.indec_names:
        try:
            oracle.assert_isomorphic(oracle.preset.rep_of_indec(n), (n,))
        except OracleError as exc:
            problems.append(f"isomorphism audit failed for {n}: {exc}")
    return _result("identification", problems)


def check_census(oracle: Oracle) -> CheckResult:
    want = EXPECTED_COUNTS[oracle.preset.name]
    bricks = oracle.brick_members()
    monos = oracle.monobricks()
    semis = oracle.semibricks()
    problems = []
    if len(bricks) != want.bricks:
        problems.append(f"{len(bricks)} bricks, expected {want.bricks}")
    if len(monos) != want.monobricks:
        problems.append(f"{len(monos)} monobricks, expected {want.monobricks}")
    if len(semis) != want.semibricks:
        problems.append(f"{len(semis)} semibricks, expected {want.semibricks}")
    if monos[0] != frozenset():
        problems.append("the empty monobrick is not enumerated first")
    if not set(semis) <= set(monos):
        problems.append("semibrick census is not a subset of the monobricks")
    closed = [mm for mm in monos if oracle.cofinal_closure(mm) == mm]
    if len(closed) != want.semibricks:
        problems.append(
            f"{len(closed)} cofinally closed monobricks, expected "
            f"{want.semibricks} (one per semibrick)"
        )
    for x in bricks:
        for y in bricks:
            if oracle.mono_ok(x, y) != oracle.mono_ok_factored(x, y):
                problems.append(
                    f"element and factored mono checks disagree on ({x}, {y})"
                )
    return _result("census", problems)


def check_arc_agreement(oracle: Oracle) -> CheckResult:
    """The arc combinatorics and the module model must tell the same story.

    Hom kinds agree on every pair of arcs, the three diagram families map
    onto the model's censuses, and on every monobrick diagram the arc
    layer's cofinal closure and maximal arcs map onto the model's.
    """
    algebra = oracle.preset.arc_algebra
    if algebra is None:
        return CheckResult("arc-agreement", False, "preset has no arc model")
    arcs = algebra.arcs()
    problems = []

    by_arc = {arc: oracle.arc_member(arc) for arc in arcs}
    if set(by_arc.values()) != set(oracle.brick_members()):
        problems.append("arcs do not biject onto the bricks")

    for a in arcs:
        for b in arcs:
            want = hom_kind(a, b, algebra)
            got = oracle.hom_kind(by_arc[a], by_arc[b])
            if want is not got:
                problems.append(
                    f"hom {a}->{b}: arc rule {want.name}, model {got.name}"
                )

    diagrams = {kind: list(enumerate_diagrams(algebra, kind)) for kind in DiagramKind}
    for kind, census in (
        (DiagramKind.MONOBRICK, oracle.monobricks()),
        (DiagramKind.SEMIBRICK, oracle.semibricks()),
        (
            DiagramKind.COFINALLY_CLOSED,
            [mm for mm in oracle.monobricks() if oracle.cofinal_closure(mm) == mm],
        ),
    ):
        transported = {
            frozenset(by_arc[arc] for arc in diagram.arcs)
            for diagram in diagrams[kind]
        }
        if transported != set(census):
            off = transported.symmetric_difference(census)
            # the least sample as printed, so the hash seed cannot pick it
            sample = min(_fmt(_names(s)) for s in off)
            problems.append(
                f"{kind.value} families disagree, e.g. {sample}"
            )

    for diagram in diagrams[DiagramKind.MONOBRICK]:
        mm = frozenset(by_arc[arc] for arc in diagram.arcs)
        for query, arc_route, model_route in (
            ("closure", poset.cofinal_closure, oracle.cofinal_closure),
            ("mmax", poset.mmax, oracle.mmax),
        ):
            want = _names(by_arc[arc] for arc in arc_route(diagram).arcs)
            got = _names(model_route(mm))
            if want != got:
                problems.append(
                    f"{query} of {_fmt(_names(mm))}: arc rule {_fmt(want)}, "
                    f"model {_fmt(got)}"
                )
    return _result("arc-agreement", problems)


def closure_row_problems(oracle: Oracle, row: ClosureRow) -> list[str]:
    """Compare one fixture row against the model, mismatch by mismatch."""
    label = _fmt(row.members)
    mm = _bricks(row.members)
    problems = []

    e = oracle.filt(mm)
    extras = _names(e) - row.members
    if extras != row.extras:
        problems.append(
            f"{label}: filtration adds {_fmt(extras)}, expected {_fmt(row.extras)}"
        )

    got_mmax = _names(oracle.mmax(mm))
    if got_mmax != row.mmax:
        problems.append(
            f"{label}: maximal elements {_fmt(got_mmax)}, expected {_fmt(row.mmax)}"
        )

    got_closure = _names(oracle.cofinal_closure(mm))
    if got_closure != row.closure:
        problems.append(
            f"{label}: cofinal closure {_fmt(got_closure)}, "
            f"expected {_fmt(row.closure)}"
        )

    flags = oracle.closure_flags(e)
    for attr, want in (
        ("summands", row.summand_closed),
        ("kernels", row.kernel_closed),
        ("images", row.image_closed),
    ):
        if getattr(flags, attr) != want:
            problems.append(
                f"{label}: filtration closure {attr} flag is "
                f"{getattr(flags, attr)}, expected {want}"
            )
    if not flags.extensions:
        problems.append(f"{label}: filtration closure is not extension-closed")

    wide, tf = flags.wide, flags.torsion_free
    if wide != (row.mmax == row.members):
        problems.append(
            f"{label}: wide verdict {wide} disagrees with the maximal-element "
            "column"
        )
    if tf != (row.closure == row.members):
        problems.append(
            f"{label}: torsion-free verdict {tf} disagrees with the closure "
            "column"
        )
    return problems


def check_closure_table(oracle: Oracle) -> CheckResult:
    rows = CLOSURE_TABLES[oracle.preset.name]
    census = {frozenset(_names(mm)) for mm in oracle.monobricks()}
    problems = []
    covered = set()
    for row in rows:
        if row.members not in census:
            problems.append(f"{_fmt(row.members)} is not a monobrick here")
            continue
        covered.add(row.members)
        problems.extend(closure_row_problems(oracle, row))
    floor = min(len(r.members) for r in rows)
    expected_cover = {mm for mm in census if len(mm) >= floor}
    if covered != expected_cover:
        missing = expected_cover - covered
        problems.append(
            f"table misses {len(missing)} census monobricks, "
            f"e.g. {min(map(_fmt, missing))}"
        )
    return _result("closure-table", problems)


def check_structural_identities(oracle: Oracle) -> CheckResult:
    """The maps between monobricks and subcategory sets must commute.

    Runs over every monobrick of the preset: simples of the filtration
    closure recover the monobrick, the cofinal closure matches the simples
    of the smallest torsion-free class, verdicts match poset criteria, and
    the wide/torsion-free restrictions of the two maps invert each other.
    """
    monos = oracle.monobricks()
    semis = set(oracle.semibricks())
    mono_set = set(monos)
    problems = []
    for mm in monos:
        label = _fmt(_names(mm))

        def bad(msg: str) -> None:
            problems.append(f"{label}: {msg}")

        e = oracle.filt(mm)
        if oracle.simp(e) != mm:
            bad("simples of the filtration closure differ")
        mx = oracle.mmax(mm)
        ov = oracle.cofinal_closure(mm)
        if mx not in semis:
            bad("maximal elements are not a semibrick")
        if ov not in mono_set:
            bad("cofinal closure is not a census monobrick")
        elif oracle.cofinal_closure(ov) != ov:
            bad("cofinal closure is not idempotent")
        if oracle.mmax(ov) != mx:
            bad("closure changes the maximal elements")

        tfc = oracle.f_map(mm)
        if oracle.simp(tfc) != ov:
            bad("simples of the smallest torsion-free class are not the closure")
        if not oracle.closure_flags(tfc).torsion_free:
            bad("f_map output is not a torsion-free class")

        flags = oracle.closure_flags(e)
        wide, tf = flags.wide, flags.torsion_free
        if wide != (mx == mm):
            bad("wide verdict disagrees with maximality")
        if wide != (mm in semis):
            bad("wide verdict disagrees with the semibrick census")
        if tf != (ov == mm):
            bad("torsion-free verdict disagrees with cofinal closedness")

        if oracle.w_map(e) != oracle.filt(mx):
            bad("w_map differs from the filtration of the maximal elements")
        if wide and oracle.w_map(tfc) != e:
            bad("w_map does not undo f_map on a wide subcategory")
        if tf and oracle.cofinal_closure(mx) != mm:
            bad("closure does not undo mmax on a cofinally closed monobrick")
    return _result("structural-identities", problems)


def check_left_schur(oracle: Oracle) -> CheckResult:
    """One-sided Schur condition versus extension/kernel/image closure.

    Reads every distinct filtration closure of a set of bricks, keyed by
    the least subset that generates it, from ``Oracle.subset_closures``; a
    closure's members are built only when it is reported.  On serial
    presets (those with an arc algebra) the two properties must coincide;
    on the source orientation closure still implies the Schur condition,
    and the converse fails on exactly the monobricks flagged in the fixture
    table.
    """
    name = oracle.preset.name
    bricks = oracle.brick_members()
    serial = oracle.preset.arc_algebra is not None

    def gens(bits: int) -> list[Member]:
        return [b for i, b in enumerate(bricks) if bits >> i & 1]

    problems, schur_not_closed = [], []
    n_schur = n_closed = 0
    for bits, flags in oracle.subset_closures(bricks).items():
        schur = flags.left_schur
        closed = flags.extensions and flags.kernels and flags.images
        n_schur += schur
        n_closed += closed
        if schur and not closed:
            schur_not_closed.append(bits)
        if serial and schur != closed:
            bad = f"schur={schur} but kernel/image closure={closed}"
        elif closed and not schur:
            bad = "closed under kernels and images, not schur"
        else:
            continue
        problems.append(f"filt({_fmt(_names(gens(bits)))}): {bad}")

    want = EXPECTED_COUNTS[name].monobricks
    if n_schur != want:
        problems.append(
            f"{n_schur} distinct one-sided Schur subcategories, expected {want}"
        )

    if name == "a3_source":
        expected_violations = {
            row.members
            for row in A3_SOURCE_TABLE
            if not (row.kernel_closed and row.image_closed)
        }
        got_violations = {
            frozenset(_names(oracle.simp(oracle.filt(gens(bits)))))
            for bits in schur_not_closed
        }
        if got_violations != expected_violations:
            problems.append(
                f"schur-but-not-closed monobricks are "
                f"{sorted(map(_fmt, got_violations))}, expected "
                f"{sorted(map(_fmt, expected_violations))}"
            )
        if n_closed != want - len(expected_violations):
            problems.append(
                f"{n_closed} kernel/image closed subcategories, expected "
                f"{want - len(expected_violations)}"
            )
    return _result("left-schur-closure", problems)


# ---------------------------------------------------------------------------
# registry

_CHECKS: tuple[tuple[str, Callable[[Oracle], CheckResult]], ...] = (
    ("universe-size", check_universe_size),
    ("identification", check_identification),
    ("census", check_census),
    ("arc-agreement", check_arc_agreement),
    ("closure-table", check_closure_table),
    ("structural-identities", check_structural_identities),
    ("left-schur-closure", check_left_schur),
)


def _applies(check_name: str, oracle: Oracle) -> bool:
    if check_name == "arc-agreement":
        return oracle.preset.arc_algebra is not None
    if check_name == "closure-table":
        return oracle.preset.name in CLOSURE_TABLES
    return True


def run_checks(preset_name: str, p: int = 2) -> list[CheckResult]:
    """Run every applicable audit for a preset, never raising on failure."""
    oracle = get_oracle(preset_name, DEFAULT_DIM_BOUND, p)
    # The audits read the subquotient table of every member between them.
    # Building all tables first, as a phase of their own, keeps that cost out
    # of whichever audit happens to read a table first.  A table that cannot
    # be built is left to the audits, which report the failure.
    try:
        for member in oracle.members:
            oracle.subquotients(member)
    except OracleError:
        pass
    results = []
    for name, fn in _CHECKS:
        if not _applies(name, oracle):
            continue
        try:
            results.append(fn(oracle))
        except OracleError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
