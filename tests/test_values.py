"""Value semantics of ``Algebra``, ``Diagram`` and ``NclPartition``.

They are plain ``__slots__`` classes that behave as frozen dataclasses
would: equal and hashed as the tuple of their fields (so the iteration
order of a set of them is that of the tuples), shown as ``Name(field=...)``,
closed to assignment, validated on construction.
"""

import pytest

from monobrick.arcs import Algebra, Arc
from monobrick.diagrams import Diagram, DiagramKind, enumerate_diagrams
from monobrick.ncl import NclPartition
from monobrick.poset import cofinal_closure, mmax

A3 = Algebra("A", 3)
DIAGRAM = Diagram(A3, frozenset({Arc(1, 2), Arc(1, 4)}))
PARTITION = NclPartition(3, frozenset({frozenset({1, 2}), frozenset({3})}))

VALUES = [
    (A3, ("A", 3), "Algebra(kind='A', rank=3)"),
    (
        DIAGRAM,
        (A3, frozenset({Arc(1, 2), Arc(1, 4)})),
        "Diagram(algebra=Algebra(kind='A', rank=3), arcs="
        f"{frozenset({Arc(1, 2), Arc(1, 4)})!r})",
    ),
    (
        PARTITION,
        (3, frozenset({frozenset({1, 2}), frozenset({3})})),
        f"NclPartition(n=3, blocks={frozenset({frozenset({1, 2}), frozenset({3})})!r})",
    ),
]
IDS = ["algebra", "diagram", "partition"]


@pytest.mark.parametrize(("value", "fields", "text"), VALUES, ids=IDS)
def test_equal_and_hashed_as_the_field_tuple(value, fields, text):
    twin = type(value)(*fields)
    assert twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(fields)
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented
    assert {value, twin} == {value}
    assert repr(value) == text


def test_unequal_fields_are_unequal():
    assert Algebra("A", 3) != Algebra("A", 4)
    assert Algebra("A", 3) != Algebra("B", 3)
    assert Diagram(A3, frozenset()) != DIAGRAM
    assert NclPartition(3, frozenset({frozenset({1, 2, 3})})) != PARTITION


@pytest.mark.parametrize(("value", "fields", "text"), VALUES, ids=IDS)
def test_fields_are_read_only(value, fields, text):
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(value, name, fields[0])
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == fields[0]


def test_algebras_order_as_kind_then_rank():
    algebras = [Algebra("B", 2), Algebra("A", 10), Algebra("B", 1), Algebra("A", 2)]
    assert sorted(algebras) == [
        Algebra("A", 2), Algebra("A", 10), Algebra("B", 1), Algebra("B", 2)
    ]
    low, high = Algebra("A", 9), Algebra("B", 1)
    assert low < high and low <= high and high > low and high >= low
    assert low <= Algebra("A", 9) >= low
    assert not (low < Algebra("A", 9))
    with pytest.raises(TypeError):
        low < ("A", 10)


def test_diagrams_and_partitions_have_no_order():
    with pytest.raises(TypeError):
        DIAGRAM < DIAGRAM
    with pytest.raises(TypeError):
        PARTITION < PARTITION


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: Algebra("C", 1), "unknown algebra kind 'C'"),
        (lambda: Algebra("A", -1), "linear family needs rank >= 0"),
        (lambda: Algebra("B", 0), "cyclic family needs rank >= 1"),
        (lambda: Diagram(A3, [Arc(2, 1)]), "arc (2, 1) is not valid over LinearA(3)"),
        (lambda: NclPartition(0, []), "partition ground set needs n >= 1"),
        (lambda: NclPartition(2, [[1, 2], []]), "partition contains an empty block"),
        (lambda: NclPartition(2, [[1, 3]]), "block [1, 3] leaves the ground set 1..2"),
    ],
)
def test_construction_validates(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_construction_freezes_its_collections():
    diagram = Diagram(A3, [Arc(1, 2), Arc(1, 4)])
    assert type(diagram.arcs) is frozenset and diagram == DIAGRAM
    partition = NclPartition(3, [[1, 2], {3}])
    assert all(type(block) is frozenset for block in partition.blocks)
    assert type(partition.blocks) is frozenset and partition == PARTITION


def test_a_wrapped_constructor_still_validates_once_per_diagram(monkeypatch):
    # A timing wrapper set on the class, as perfbench/traced_cli.py sets one,
    # sees one call per diagram built and does not bypass validation.
    original = Diagram.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Diagram, "__init__", counted)
    listed = list(enumerate_diagrams(A3, DiagramKind.MONOBRICK))
    assert len(listed) == len(calls) == 22
    calls.clear()
    assert mmax(DIAGRAM) == Diagram(A3, [Arc(1, 4)])
    assert cofinal_closure(DIAGRAM).arcs == {Arc(1, 2), Arc(1, 3), Arc(1, 4)}
    assert len(calls) == 3
    with pytest.raises(ValueError, match="not valid"):
        Diagram(A3, [Arc(4, 1)])
    assert len(calls) == 4
