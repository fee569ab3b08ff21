"""Layout rules of the ASCII renderer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monobrick.arcs import Algebra, Arc
from monobrick.diagrams import Diagram
from monobrick.render import PictureTooLarge, _assign_levels, render_diagram


def _draw(algebra, arcs):
    return render_diagram(Diagram(algebra, frozenset(Arc(*a) for a in arcs)))


def test_marks_sit_four_columns_apart():
    assert _draw(Algebra.linear_a(2), []) == "1   2   3"


def test_single_arc_is_a_flat_bracket():
    assert _draw(Algebra.linear_a(1), [(1, 2)]) == ".___.\n1   2"


def test_shared_start_nests():
    text = _draw(Algebra.linear_a(2), [(1, 2), (1, 3)])
    assert text == (
        "._______.\n"
        "|___.   |\n"
        "1   2   3"
    )


def test_full_length_cyclic_arc_spans_one_period():
    assert _draw(Algebra.cyclic_b(2), [(1, 1)]) == (
        "._______.\n"
        "1   2   1   2"
    )


def test_cyclic_baseline_repeats_the_marks():
    lines = _draw(Algebra.cyclic_b(3), []).splitlines()
    assert lines == ["1   2   3   1   2   3"]


def test_no_trailing_whitespace_and_order_independence():
    arcs = [(1, 2), (3, 4), (1, 4)]
    text = _draw(Algebra.linear_a(3), arcs)
    assert text == _draw(Algebra.linear_a(3), list(reversed(arcs)))
    for line in text.splitlines():
        assert line == line.rstrip()


def test_two_digit_marks_stay_aligned():
    text = _draw(Algebra.linear_a(10), [(10, 11)])
    lines = text.splitlines()
    assert lines[-1].endswith("10  11")
    # The bracket sits over column of mark 10.
    assert lines[0][36] == "." and lines[0][40] == "."


def literal_assign_levels(spans, max_levels):
    """First fit with a scan of every span on a level, as a second route."""
    occupied = []
    placed = []
    for start, end in spans:
        level = 0
        while level < len(occupied) and any(
            not (end < s or e < start) for s, e in occupied[level]
        ):
            level += 1
        if level == len(occupied):
            if level == max_levels:
                raise PictureTooLarge("too many levels")
            occupied.append([])
        occupied[level].append((start, end))
        placed.append((start, end, level + 1))
    return placed


@st.composite
def spans_and_cap(draw):
    pairs = draw(st.lists(st.tuples(st.integers(1, 30), st.integers(0, 12))))
    return [(s, s + w) for s, w in pairs], draw(st.integers(1, 8))


@given(spans_and_cap())
@settings(max_examples=300, deadline=None)
def test_level_assignment_matches_the_scan_of_every_span(data):
    spans, max_levels = data
    try:
        want = literal_assign_levels(spans, max_levels)
    except PictureTooLarge:
        with pytest.raises(PictureTooLarge):
            _assign_levels(spans, max_levels)
    else:
        assert _assign_levels(spans, max_levels) == want
