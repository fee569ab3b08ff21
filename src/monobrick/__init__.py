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
    "FIELD_SIZES",
    "PRESET_NAMES",
]

__version__ = "0.1.0"

# The bundled oracle presets and the prime fields the oracle supports.  They
# live here, not in ``presets``, so that the command line can offer them as
# choices without importing the matrix layer.
PRESET_NAMES = ("a2_linear", "a3_linear", "a3_source", "nak2", "b3")
FIELD_SIZES = (2, 3, 5)
