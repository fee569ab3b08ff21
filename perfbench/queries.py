"""Seeded single-diagram queries for the ``arc-queries`` workload.

Standard library only: this module never imports ``monobrick``, so the
inputs it makes and the answers it expects are independent of the code
under test.

A monobrick is made valid by construction.  Its arcs are a laminar family
of half-open intervals ``[i, j)`` of positions ``0..n`` (any two are nested
or disjoint) whose right ends are pairwise distinct.  Nested intervals give
socle series that are windows of one another and disjoint ones give
disjoint series, so no pair strictly crosses; distinct right ends rule out
epi-crossing pairs.  Over the linear family position ``p`` is mark ``p+1``;
over the cyclic family the mark circle is cut open at a random mark.

On such a family the submodule order and the cofinal closure have short
forms in positions, used here as the expected answers:

* ``a`` embeds in ``b`` exactly when they share a start and ``a`` is not
  longer, so ``mmax`` keeps the longest arc of each start and the Hasse
  covers join consecutive lengths of one start;
* the prefix ``[s, s+k)`` of a member joins the closure unless some member
  ``[t, u)`` has ``s < t < s+k <= u``: that member starts inside the prefix
  and contains its last mark, which is a nonzero map that is not injective.
"""

from __future__ import annotations

import functools
import json
import math
import random
import statistics

# One round holds one query of each shape.  Ranks climb evenly over the
# rounds, and each diagram is the one of DRAWS seeded draws whose cost is
# closest to the typical cost at its rank, so every seed gets a similar mix
# of costs and latency percentiles compare across seeds.
SHAPES = (
    ("closure", "A"),
    ("closure", "B"),
    ("mmax", "A"),
    ("mmax", "B"),
    ("render", "A"),
    ("render", "B"),
    ("ncl-arcs", "A"),
    ("ncl-blocks", "A"),
    ("closure", "B"),
    ("mmax", "A"),
)
ROUNDS = 10
RANK_MIN, RANK_MAX = 20, 150
DRAWS = 15
TYPICAL_DRAWS = 31


def laminar_intervals(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random laminar intervals ``[i, j)`` in ``0..n`` with distinct ``j``."""
    out: list[tuple[int, int]] = []
    ends: set[int] = set()

    def grow(lo: int, hi: int, depth: int, pieces: int) -> None:
        if hi - lo < 2 or depth == 0:
            return
        cuts = sorted(rng.sample(range(lo + 1, hi), min(pieces, hi - lo - 1)))
        bounds = [lo] + cuts + [hi]
        for a, b in zip(bounds, bounds[1:]):
            if rng.random() < 0.6 and b not in ends:
                out.append((a, b))
                ends.add(b)
            grow(a, b, depth - 1, 2)

    grow(0, n, 3, 4)
    return sorted(out)


def closure_of(intervals) -> set[tuple[int, int]]:
    result = set(intervals)
    for s, e in intervals:
        blocked: set[int] = set()
        for t, u in intervals:
            if t > s:
                blocked.update(range(t + 1, u + 1))
        result.update((s, end) for end in range(s + 1, e) if end not in blocked)
    return result


def mmax_of(intervals) -> set[tuple[int, int]]:
    longest: dict[int, int] = {}
    for s, e in intervals:
        longest[s] = max(e, longest.get(s, e))
    return set(longest.items())


def covers_of(intervals) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    chains: dict[int, list[int]] = {}
    for s, e in intervals:
        chains.setdefault(s, []).append(e)
    return [
        ((s, lo), (s, hi))
        for s, ends in chains.items()
        for lo, hi in zip(sorted(ends), sorted(ends)[1:])
    ]


class Layout:
    """Positions ``0..n`` of one family and rank, mapped to marks."""

    def __init__(self, family: str, rank: int, shift: int) -> None:
        self.family, self.rank, self.shift = family, rank, shift

    def mark(self, position: int) -> int:
        if self.family == "A":
            return position + 1
        return (position + self.shift) % self.rank + 1

    def arcs(self, intervals) -> list[list[int]]:
        """Arcs in the CLI's order: by start mark, then by length."""
        ordered = sorted(intervals, key=lambda ij: (self.mark(ij[0]), ij[1] - ij[0]))
        return [[self.mark(i), self.mark(j)] for i, j in ordered]

    def diagram(self, intervals, **extra) -> dict:
        return {"n": self.rank, "algebra": self.family, "arcs": self.arcs(intervals), **extra}

    def pairs(self, covers) -> list:
        return sorted(
            [[self.mark(a), self.mark(b)], [self.mark(c), self.mark(d)]]
            for (a, b), (c, d) in covers
        )


def partition_of(diagram: dict) -> dict:
    """The linked partition of a linear-family diagram.

    Mark ``i`` heads the block of the ends of its outgoing arcs, stays a
    singleton when no arc touches it, and heads no block when arcs only end
    there.
    """
    n = diagram["n"] + 1
    ends_from: dict[int, set[int]] = {}
    arc_ends = set()
    for s, e in diagram["arcs"]:
        ends_from.setdefault(s, set()).add(e)
        arc_ends.add(e)
    blocks = []
    for i in range(1, n + 1):
        if i in ends_from:
            blocks.append(sorted({i} | ends_from[i]))
        elif i not in arc_ends:
            blocks.append([i])
    return {"n": n, "blocks": sorted(blocks)}


def _labels(family: str, rank: int) -> list[str]:
    if family == "A":
        return [str(i) for i in range(1, rank + 2)]
    return [str(i) for i in range(1, rank + 1)] * 2


def _hasse_cost(intervals) -> float:
    """Work proxy of ``closure --hasse``: the Hasse pass compares all pairs
    of the closure and, per related pair, every element; each comparison
    walks socle series of about the mean arc length."""
    closed = closure_of(intervals)
    chains: dict[int, int] = {}
    for s, _ in closed:
        chains[s] = chains.get(s, 0) + 1
    size = len(closed)
    mean_length = sum(e - s for s, e in closed) / max(size, 1)
    return size * (size + sum(k * k for k in chains.values())) * (mean_length + 10)


def _draw(rng: random.Random, rank: int, cost) -> list[tuple[int, int]]:
    """The family of several draws whose cost is closest to the typical one
    at this rank, so a query's cost depends on its rank and little on the
    seed.  The typical cost is the median over draws that do not depend on
    the seed."""
    typical = _typical(rank, cost)
    draws = [laminar_intervals(rng, rank) for _ in range(DRAWS)]
    return min(draws, key=lambda family: abs(math.log((cost(family) + 1) / (typical + 1))))


@functools.lru_cache(maxsize=None)
def _typical(rank: int, cost) -> float:
    fixed = random.Random(rank)
    return statistics.median(
        cost(laminar_intervals(fixed, rank)) for _ in range(TYPICAL_DRAWS)
    )


def make_queries(seed: int, rounds: int = ROUNDS) -> list[dict]:
    """``rounds * len(SHAPES)`` queries; the same seed gives the same list.

    Each query holds the CLI arguments, the stdin payload, and either the
    expected answer (``expect``, a JSON object) or, for ``render``, the
    expected baseline labels.
    """
    rng = random.Random(seed)
    queries = []
    for r in range(rounds):
        rank = RANK_MIN + round((RANK_MAX - RANK_MIN) * r / max(rounds - 1, 1))
        for shape, family in SHAPES:
            layout = Layout(family, rank, rng.randrange(rank))
            intervals = _draw(rng, rank, _hasse_cost if shape == "closure" else len)
            diagram = layout.diagram(intervals)
            payload = diagram
            query = {"shape": shape}
            if shape == "closure":
                closed = closure_of(intervals)
                query["args"] = ["closure", "--hasse"]
                query["expect"] = layout.diagram(
                    closed, hasse=layout.pairs(covers_of(closed))
                )
            elif shape == "mmax":
                query["args"] = ["mmax", "--hasse"]
                query["expect"] = layout.diagram(mmax_of(intervals), hasse=[])
            elif shape == "render":
                query["args"] = ["render"]
                query["expect"] = _labels(family, rank)
            elif shape == "ncl-arcs":
                query["args"] = ["ncl"]
                query["expect"] = partition_of(diagram)
            else:
                query["args"] = ["ncl"]
                payload = partition_of(diagram)
                query["expect"] = diagram
            query["stdin"] = json.dumps(payload, separators=(",", ":")).encode()
            queries.append(query)
    return queries


def check_answer(query: dict, stdout: bytes) -> str | None:
    """None when the answer is the expected one, else the reason."""
    text = stdout.decode("utf-8", "replace")
    if query["shape"] == "render":
        if text.rstrip("\n").split("\n")[-1].split() != query["expect"]:
            return "render baseline does not list the marks"
        return None
    try:
        answer = json.loads(text)
    except ValueError:
        return "answer is not one JSON object"
    if answer != query["expect"]:
        return f"{query['shape']} answer differs from the expected one"
    return None
