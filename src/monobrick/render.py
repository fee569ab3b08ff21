"""ASCII pictures of arc diagrams.

Marks sit on a baseline four columns apart and every arc becomes a
bracket above it: a horizontal bar at the arc's level with legs dropping
to its two marks.  Cyclic diagrams unroll over two copies of the mark
circle so that wrap-around arcs stay readable; each arc is drawn once,
starting in the first copy.

The layout is deterministic.  Arcs claim the lowest free level, shortest
span first, and taller arcs are painted before lower ones so a leg is
never overwritten by a neighbouring bar.
"""

from bisect import bisect_right

from monobrick.arcs import arc_length, reduce_mark
from monobrick.diagrams import Diagram

_STEP = 4

# The largest picture render_diagram draws, in grid cells.  The grid has a
# row per arc level plus the baseline and _STEP columns per position, and
# the levels can reach the number of arcs: 1000 nested arcs on A1999 make
# 8 million cells, and the command then peaked at 93 MB.
CELL_CAP = 4_000_000


class PictureTooLarge(RuntimeError):
    """Rendering refused: the picture would exceed ``CELL_CAP`` cells."""


def _column(position: int) -> int:
    return (position - 1) * _STEP


def _spans(diagram: Diagram) -> list[tuple[int, int]]:
    """Arc endpoints as positions on the unrolled baseline."""
    n = diagram.algebra.marks
    spans = [(a.start, a.start + arc_length(a, n)) for a in diagram.arcs]
    spans.sort(key=lambda se: (se[1] - se[0], se[0]))
    return spans


def _assign_levels(
    spans: list[tuple[int, int]], max_levels: int
) -> list[tuple[int, int, int]]:
    """Put each span on the lowest level where it meets no span, in order.

    The spans of a level are disjoint, so they are kept sorted as parallel
    lists of starts and ends: a span meets the level iff the last span that
    starts at or before its end also ends at or after its start.
    """
    starts: list[list[int]] = []
    ends: list[list[int]] = []
    placed = []
    for start, end in spans:
        level = 0
        while level < len(starts):
            at = bisect_right(starts[level], end)
            if not at or ends[level][at - 1] < start:
                break
            level += 1
        else:
            if level == max_levels:
                raise PictureTooLarge(
                    f"picture needs more than {max_levels} arc levels at its "
                    f"width, over the render cap of {CELL_CAP} cells"
                )
            starts.append([])
            ends.append([])
            at = 0
        starts[level].insert(at, start)
        ends[level].insert(at, end)
        placed.append((start, end, level + 1))
    return placed


def render_diagram(diagram: Diagram) -> str:
    n = diagram.algebra.marks
    cyclic = diagram.algebra.kind == "B"
    positions = 2 * n if cyclic else n

    labels = [str(reduce_mark(p, n)) for p in range(1, positions + 1)]
    width = _column(positions) + len(labels[-1])
    # The baseline takes one row of the cap, each arc level another.
    placed = _assign_levels(_spans(diagram), CELL_CAP // width - 1)
    height = max((level for _, _, level in placed), default=0)

    grid = [[" "] * width for _ in range(height + 1)]

    def paint(row: int, col: int, char: str) -> None:
        if grid[row][col] == " ":
            grid[row][col] = char

    for start, end, level in sorted(placed, key=lambda p: (-p[2], p[0], p[1])):
        row = height - level
        left, right = _column(start), _column(end)
        paint(row, left, ".")
        paint(row, right, ".")
        for col in range(left + 1, right):
            paint(row, col, "_")
        for leg_row in range(row + 1, height):
            paint(leg_row, left, "|")
            paint(leg_row, right, "|")

    for position, label in enumerate(labels, start=1):
        col = _column(position)
        for offset, char in enumerate(label):
            grid[height][col + offset] = char

    return "\n".join("".join(row).rstrip() for row in grid)
