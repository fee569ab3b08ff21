"""Acceptance gate: the ten headline checks this package promises.

Each test is one check, so `pytest tests/test_acceptance.py -v` prints
exactly one pass/fail line per criterion.  Counting criteria carry
wall-clock budgets; those are asserted, not just hoped for.
"""

import math
import time

from monobrick.arcs import Algebra
from monobrick.diagrams import (
    DiagramKind,
    count_diagrams,
    cyclic_count_from_recurrence,
    enumerate_diagrams,
    schroder,
)
from monobrick.ncl import (
    count_partitions,
    enumerate_partitions,
    from_diagram,
    to_diagram,
)
from monobrick.oracle import Oracle, get_oracle
from monobrick.presets import get_preset
from monobrick.verify import (
    CLOSURE_TABLES,
    EXPECTED_COUNTS,
    check_arc_agreement,
    check_closure_table,
    check_left_schur,
    check_structural_identities,
)

LINEAR_MONOBRICK_COUNTS = [2, 6, 22, 90, 394, 1806, 8558]
CYCLIC_MONOBRICK_COUNTS = [2, 8, 38, 192, 1002, 5336]


def test_criterion_01_linear_monobrick_counts():
    started = time.perf_counter()
    counts = [
        count_diagrams(Algebra.linear_a(n), DiagramKind.MONOBRICK)
        for n in range(1, 8)
    ]
    elapsed = time.perf_counter() - started
    assert counts == LINEAR_MONOBRICK_COUNTS
    assert elapsed < 60, f"took {elapsed:.1f}s, budget is 60s"


def test_criterion_02_cyclic_monobrick_counts():
    started = time.perf_counter()
    counts = [
        count_diagrams(Algebra.cyclic_b(n), DiagramKind.MONOBRICK)
        for n in range(1, 7)
    ]
    elapsed = time.perf_counter() - started
    assert counts == CYCLIC_MONOBRICK_COUNTS
    assert elapsed < 120, f"took {elapsed:.1f}s, budget is 120s"


def test_criterion_03_semibrick_counts():
    for n in range(1, 8):
        linear = count_diagrams(Algebra.linear_a(n - 1), DiagramKind.SEMIBRICK)
        assert linear == math.comb(2 * n, n) // (n + 1), n
        cyclic = count_diagrams(Algebra.cyclic_b(n), DiagramKind.SEMIBRICK)
        assert cyclic == math.comb(2 * n, n), n


def test_criterion_04_count_recurrence():
    # The recurrence rebuilds each cyclic count from the linear family;
    # it must agree with direct enumeration, not just the closed form.
    for n in range(1, 7):
        enumerated = count_diagrams(Algebra.cyclic_b(n), DiagramKind.MONOBRICK)
        assert cyclic_count_from_recurrence(n) == enumerated, n


def test_criterion_05_partition_bijection():
    for n in range(1, 8):
        assert count_partitions(n) == schroder(n - 1), n

    for n in range(1, 8):
        partitions = list(enumerate_partitions(n))
        reached = set()
        for partition in partitions:
            diagram = to_diagram(partition)
            assert from_diagram(diagram) == partition
            reached.add(diagram.arcs)
        monobricks = list(
            enumerate_diagrams(Algebra.linear_a(n - 1), DiagramKind.MONOBRICK)
        )
        # Injective on partitions and onto the monobrick diagrams.
        assert len(reached) == len(partitions)
        assert reached == {diagram.arcs for diagram in monobricks}
        for diagram in monobricks:
            assert to_diagram(from_diagram(diagram)).arcs == diagram.arcs


def test_criterion_06_oracle_census():
    # Fresh Oracle instances so the timing covers full construction, not
    # a cache hit from earlier tests.
    started = time.perf_counter()
    sizes = {
        name: len(Oracle(get_preset(name)).monobricks())
        for name in ("a3_linear", "a3_source", "nak2")
    }
    elapsed = time.perf_counter() - started
    assert sizes == {"a3_linear": 22, "a3_source": 26, "nak2": 8}
    assert elapsed < 30, f"took {elapsed:.1f}s, budget is 30s"


def test_criterion_07_table_fixtures():
    for preset in sorted(CLOSURE_TABLES):
        result = check_closure_table(get_oracle(preset))
        assert result.passed, f"{preset}: {result.detail}"


def test_criterion_08_structural_identities():
    for preset in sorted(EXPECTED_COUNTS):
        result = check_structural_identities(get_oracle(preset))
        assert result.passed, f"{preset}: {result.detail}"


def test_criterion_09_schur_closure_characterization():
    # Serial presets (with an arc algebra) must show the equivalence, and
    # a3_source its listed failures.
    for preset in sorted(EXPECTED_COUNTS):
        result = check_left_schur(get_oracle(preset))
        assert result.passed, f"{preset}: {result.detail}"


def test_criterion_10_arc_module_agreement():
    for preset in ("a3_linear", "nak2", "b3", "a2_linear"):
        result = check_arc_agreement(get_oracle(preset))
        assert result.passed, f"{preset}: {result.detail}"
