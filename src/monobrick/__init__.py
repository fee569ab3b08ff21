"""Monobrick enumeration and verification over two Nakayama families."""

from monobrick.arcs import (
    Algebra,
    Arc,
    Crossing,
    HomKind,
    arc_length,
    crossing_kind,
    hom_kind,
    socle_series,
)

__all__ = [
    "Algebra",
    "Arc",
    "Crossing",
    "HomKind",
    "arc_length",
    "crossing_kind",
    "hom_kind",
    "socle_series",
    "FIELD_SIZES",
    "PRESETS",
    "PRESET_NAMES",
]

__version__ = "0.1.0"

# The bundled oracle presets, each as its algebra and its arrows (None for
# the Nakayama quiver), and the prime fields the oracle supports.  They live
# here, not in ``presets``, so that the command line can offer them as
# choices without importing the matrix layer.  a3_source orients A3 as
# 1 -> 2 <- 3; the arc layer models only the Nakayama orientation, so it has
# no arc algebra.
PRESETS = {
    "a2_linear": (Algebra.linear_a(2), None),
    "a3_linear": (Algebra.linear_a(3), None),
    "a3_source": (Algebra.linear_a(3), ((0, 1), (2, 1))),
    "nak2": (Algebra.cyclic_b(2), None),
    "b3": (Algebra.cyclic_b(3), None),
}
PRESET_NAMES = tuple(PRESETS)
FIELD_SIZES = (2, 3, 5)
