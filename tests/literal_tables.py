"""The per-pair arrow-table entry and fingerprint identification, kept as
test references.

The package keys each arrow table by classes of subspaces and computes one
entry per pair of classes.  This is the entry it was derived from, computed
for one pair of subspaces on its own: test that the matrix maps the source
subspace into the target one, then read off the sub block and the quotient
block.  Tests compare the two on every pair of subspaces.  The sub block
and the brute-force subquotients read coordinates over an RREF basis with
:func:`coords_in_span`, which the package itself never needs.  The
subspaces themselves are listed a second way by :func:`literal_subspaces`.
A semisimple member's table is listed one summand choice at a time by
:func:`literal_semisimple_pairs`; the package counts copies instead.

``Oracle.identify`` narrows its candidates by dimensions and arrow ranks
before it solves any hom system.  :func:`literal_identify` is the route it
replaced, which narrows by dimensions and hom-dimension fingerprint alone,
and :func:`literal_fingerprint` reads that fingerprint off ``hom_dim``.
"""

from itertools import combinations, product

from monobrick import fp
from monobrick.oracle import OracleError


def literal_subspaces(d, p):
    """Every subspace of F_p^d as (RREF basis, pivots), one free entry of
    the whole basis at a time, in the order ``fp.subspaces`` promises."""
    out = [((), ())]
    for k in range(1, d + 1):
        for pivots in combinations(range(d), k):
            free_positions = [
                (r, c)
                for r in range(k)
                for c in range(d)
                if c > pivots[r] and c not in pivots
            ]
            for values in product(range(p), repeat=len(free_positions)):
                rows = [[0] * d for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = 1
                for (r, c), val in zip(free_positions, values):
                    rows[r][c] = val
                out.append((tuple(tuple(row) for row in rows), pivots))
    return tuple(out)


def literal_semisimple_pairs(member):
    """The chosen summands and the rest, for each of the 2^k choices of the
    member's k summands; both halves come out sorted, like every member."""
    return frozenset(
        (
            tuple(s for s, c in zip(member, choice) if c),
            tuple(s for s, c in zip(member, choice) if not c),
        )
        for choice in product((1, 0), repeat=len(member))
    )


def coords_in_span(vec, basis, pivots, p):
    """Coefficients of ``vec`` over an RREF basis; raises if not in the span."""
    coords = tuple(vec[c] % p for c in pivots)
    residual = list(vec)
    for lam, row in zip(coords, basis):
        if lam:
            residual = [(a - lam * b) % p for a, b in zip(residual, row)]
    if any(x % p for x in residual):
        raise ValueError("vector lies outside the span")
    return coords


def literal_entry(mat, source, target, p):
    """The (sub block, quotient block) of ``mat`` at a pair of subspaces,
    or None when the matrix does not map the source into the target.

    Each subspace is a (RREF basis, pivots) pair from ``fp.subspaces``.
    The sub block holds the images of the source basis in coordinates of
    the target basis; the quotient block is the matrix on the non-pivot
    coordinates after reducing modulo the two subspaces.
    """
    basis_s, pivots_s = source
    basis_t, pivots_t = target
    d_s = len(mat)
    d_t = len(mat[0]) if mat else 0
    images = [fp.vec_mat(u, mat, p) for u in basis_s]
    if not all(fp.in_span(im, basis_t, pivots_t, p) for im in images):
        return None
    sub = tuple(coords_in_span(im, basis_t, pivots_t, p) for im in images)
    free_s = [c for c in range(d_s) if c not in pivots_s]
    free_t = [c for c in range(d_t) if c not in pivots_t]
    quot = tuple(
        tuple(fp.reduce_vec(mat[c], basis_t, pivots_t, p)[c2] for c2 in free_t)
        for c in free_s
    )
    return sub, quot


def literal_fingerprint(oracle, member):
    """The dimensions of the homs from ``member`` into each indecomposable,
    then into ``member`` from each."""
    indecs = [(n,) for n in oracle.preset.indec_names]
    return tuple(oracle.hom_dim(member, n) for n in indecs) + tuple(
        oracle.hom_dim(n, member) for n in indecs
    )


def literal_identify(oracle, rep, strict=False):
    """The member of ``rep``'s dimensions left by its fingerprint, read
    entry by entry; ``strict`` also compares the whole fingerprint."""
    candidates = [m for m in oracle.members if oracle.dims_of(m) == rep.dims]
    prints = {m: literal_fingerprint(oracle, m) for m in candidates}
    if len(candidates) > 1:
        for j, d in enumerate(oracle._fingerprint_entries(rep)):
            candidates = [m for m in candidates if prints[m][j] == d]
            if len(candidates) <= 1:
                break
    if len(candidates) != 1:
        raise OracleError(
            f"representation with dimensions {rep.dims} matches "
            f"{len(candidates)} members; the indecomposable list cannot "
            "be complete"
        )
    member = candidates[0]
    if strict and tuple(oracle._fingerprint_entries(rep)) != prints[member]:
        raise OracleError(
            f"fingerprint audit failed for a representation matched "
            f"to {member}"
        )
    return member
