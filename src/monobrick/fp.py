"""Dense linear algebra over small prime fields.

Everything here works on tuples of ints modulo a prime ``p``.  Vectors are
rows; a matrix is a tuple of rows and acts on row vectors from the right,
so composing along a path reads left to right.  Dimensions stay tiny (at
most 6), which keeps plain list arithmetic faster than any heavyweight
dependency.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def zero_matrix(nrows: int, ncols: int) -> Matrix:
    return tuple(tuple(0 for _ in range(ncols)) for _ in range(nrows))


def vec_mat(v: Sequence[int], m: Matrix, p: int) -> Vector:
    """Row vector times matrix."""
    if not m:
        return ()
    ncols = len(m[0])
    return tuple(
        sum(v[i] * m[i][c] for i in range(len(v))) % p for c in range(ncols)
    )


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(vec_mat(row, b, p) for row in a)


def mat_chain(mats: Sequence[Matrix], p: int) -> Matrix:
    out = mats[0]
    for m in mats[1:]:
        out = mat_mul(out, m, p)
    return out


def is_zero_matrix(m: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in m)


def rref(rows: Iterable[Sequence[int]], p: int) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form: (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] % p), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] % p:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(rows: Iterable[Sequence[int]], p: int) -> int:
    return len(rref(rows, p)[0])


def reduce_vec(
    vec: Sequence[int], basis: Matrix, pivots: Sequence[int], p: int
) -> Vector:
    """Subtract basis rows to clear the pivot coordinates of ``vec``."""
    v = list(vec)
    for row, c in zip(basis, pivots):
        if v[c] % p:
            f = v[c]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(x % p for x in v)


def in_span(vec: Sequence[int], basis: Matrix, pivots: Sequence[int], p: int) -> bool:
    return not any(reduce_vec(vec, basis, pivots, p))


def kernel_basis(rows: Matrix, ncols: int, p: int) -> list[Vector]:
    """Basis of {x : x satisfies all homogeneous equations given as rows}.

    Rows are equation coefficient vectors of length ``ncols``; the kernel is
    spanned by one vector per free column of the RREF.
    """
    reduced, pivots = rref(rows, p)
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = [0] * ncols
        v[c] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = (-row[c]) % p
        basis.append(tuple(v))
    return basis


@lru_cache(maxsize=None)
def subspaces(d: int, p: int) -> tuple[tuple[Matrix, tuple[int, ...]], ...]:
    """Every subspace of F_p^d as a canonical (RREF basis, pivots) pair.

    Includes the zero subspace as ((), ()).  Cached: these lists are reused
    across every member sharing a vertex dimension.
    """
    out: list[tuple[Matrix, tuple[int, ...]]] = [((), ())]
    for k in range(1, d + 1):
        for pivots in combinations(range(d), k):
            # Row r holds 1 at its pivot and any value at each later
            # non-pivot column; rows vary last-row fastest.
            choices = []
            for c in pivots:
                free = [c2 for c2 in range(c + 1, d) if c2 not in pivots]
                row_choices = []
                for values in product(range(p), repeat=len(free)):
                    row = [0] * d
                    row[c] = 1
                    for c2, val in zip(free, values):
                        row[c2] = val
                    row_choices.append(tuple(row))
                choices.append(row_choices)
            out.extend((rows, pivots) for rows in product(*choices))
    return tuple(out)
