"""A fixed reference job that gauges how fast the host runs right now.

``run.py`` times this script in a fresh interpreter every few seconds of a
run and scales the run's times by how long it took (see ``REFERENCE_S``
there).  It imports nothing from ``monobrick`` and its work never changes,
so its time moves only with the host: the shared machine's speed drifts by
a fifth over minutes, and the drift reaches this child process as it
reaches the jobs, which a loop inside the harness does not track.

The work is of the kinds the jobs do: an interpreter start with a few
standard-library imports, then tuples, sets and dicts built and hashed, a
sort and a JSON encoding.
"""

# Some imports are here only for their start-up cost.
import argparse  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import email.parser  # noqa: F401
import fractions  # noqa: F401
import json
import random
import statistics  # noqa: F401

rng = random.Random(0)
counts: dict[tuple[int, ...], int] = {}
for k in range(12000):
    key = tuple(sorted(rng.sample(range(64), 6)))
    counts[key] = counts.get(key, 0) + 1
    frozenset(key) | {k % 7}
json.dumps(sorted(counts.items())[:1200])
