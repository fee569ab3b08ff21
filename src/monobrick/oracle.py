"""Finite-field model of module categories over the bundled quiver presets.

Members of the model are multisets of indecomposable names (``()`` is the
zero module), kept up to a total dimension bound.  Identification of an
arbitrary representation works by dimension vector plus a hom-dimension
fingerprint: the dimensions of its homs into each indecomposable, then of
the homs out of each.  The fingerprint table is checked for collisions up
front so a lookup can never be ambiguous.  The rank of each arrow matrix
is invariant under isomorphism too, and costs one memoised row reduction
per distinct matrix, so candidates are narrowed by dimensions and ranks
first; a hom system is solved only to tell apart members that agree on
both.  Homs and ranks are additive over summands, so every member's
fingerprint and ranks are sums of per-indecomposable rows.

Two styles of computation coexist deliberately.  Brick-level checks
(``is_brick``, ``mono_ok`` and the censuses built on them) iterate over
actual hom elements.  Category-level operations (``filt``, ``simp``,
closure flags, the W and F maps) instead factor every morphism through its
image, so they only consult the subquotient tables; the element route would
be hopeless at dimension 36.  Tests compare both styles where both are
affordable.

Inside the subcategory layer a set of members is an ``int`` mask over
``Oracle.index``; public inputs and outputs stay frozensets.  Each member's
subquotient table is turned, on first use, into masks: one per proper
nonzero (subobject, quotient) pair, the union of its subobjects, and the
union of its quotients.  ``simp`` keeps the members with no pair mask inside
the set; the other closure flags are ANDs and ORs of the unions.  One engine
closes sets under extensions, ``_extend_filt``: a member can join a closed
set only through a split that meets the new members, so it forward-chains
over watch lists that name, for each member, the split masks containing it.
``filt`` runs it from the empty mask, the extension flag asks whether a set
is its own closure, and ``subset_closures`` grows each subset's closure from
that of a smaller subset.  ``filt`` (generator mask to closure) and
``closure_flags`` (set mask to flags) are memoised per oracle.

A subquotient table lists the (subobject, quotient) pairs of one member,
one per tuple of subspaces, one subspace per vertex, that every arrow maps
into itself.  Whether a tuple is stable across an arrow, and that arrow's
block in the sub- and quotient representation, depend only on the arrow's
matrix and on the two subspaces.  Of the source subspace they read only
its pivots and the images of its basis, of the target subspace only its
pivots and the matrix rows reduced modulo it; subspaces that agree on these
form one class.  So each distinct arrow matrix gets one table, built on
first use and shared by every member carrying that matrix: the class of
every source and every target subspace, and per pair of classes an interned
block-pair id or a sentinel for unstable pairs.  At a vertex, subspaces of
one dimension with the same class in every table there are interchangeable,
so a member's table walks one subspace per such vertex class, vertex by
vertex, and drops a tuple at the first unstable arrow.  The vertex classes
depend only on the dimension and the tables at the vertex, so each list of
them is built once per oracle.  The tables read the subspaces of F_p^d
through frames cached per (d, p), one tuple per field: pivots, non-pivot
columns, bases and the ids of their rows, so each table maps every distinct
basis row once.  Reduction modulo a target subspace is linear, and a matrix
row with one nonzero entry reduces to a multiple of one unit vector
reduced, which the id of a basis row names; so target classes are keyed by
those ids, and only rows with more nonzero entries are reduced for every
subspace.  The two halves of every block pair are interned on their own.  A
walk leaf is its sub dimensions and block ids, collected once per member;
its sub- and quotient representation are identified once per oracle,
memoised on their dimensions and the half ids of their blocks, and only a
new one is assembled from the blocks and handed to ``identify``.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import NamedTuple

from monobrick import fp
from monobrick.arcs import Arc, HomKind, socle_series
from monobrick.diagrams import bit_indices, iter_index_cliques
from monobrick.presets import Preset, Rep, direct_sum, get_preset

Member = tuple[str, ...]

ZERO: Member = ()

DEFAULT_DIM_BOUND = 6

_ELEMENT_BUDGET = 70_000

# Arrow-table entry for a pair of subspaces the arrow does not map inside.
_UNSTABLE = -1


class _MemberMasks(NamedTuple):
    """One member's subquotient table as masks over ``Oracle.index``."""

    splits: tuple[int, ...]  # distinct a | q of the proper pairs
    subs: int  # every subobject, 0 and the member included
    quots: int  # every quotient, 0 and the member included
    pairs: tuple[tuple[int, int], ...]  # (a, q) with a and q nonzero


class _ArrowTable(NamedTuple):
    """One arrow matrix's block-pair ids over classes of subspaces."""

    source_class: array  # class of each ``fp.subspaces(d_s, p)`` position
    target_class: array  # class of each ``fp.subspaces(d_t, p)`` position
    n_targets: int  # number of target classes
    entries: array  # source class i, target class j at i * n_targets + j
    serial: int  # the table's position in ``Oracle._arrow_tables``


class OracleError(RuntimeError):
    """A model-level guarantee failed (or would be too large to check)."""


@dataclass(frozen=True)
class ClosureFlags:
    """Which constructions stay inside a subcategory set.

    ``skipped_extension_pairs`` counts ordered pairs of members whose
    dimensions sum past the bound, where middle terms of extensions would
    fall outside the modelled universe; the extension flag is silent about
    those.  ``wide`` and ``torsion_free`` are the two kinds of subcategory
    the paper obtains as special cases, read off the flags.
    """

    extensions: bool
    subobjects: bool
    quotients: bool
    summands: bool
    kernels: bool
    images: bool
    cokernels: bool
    skipped_extension_pairs: int

    @property
    def wide(self) -> bool:
        return self.extensions and self.kernels and self.cokernels

    @property
    def torsion_free(self) -> bool:
        return self.extensions and self.subobjects


@lru_cache(maxsize=None)
def _subspace_dims(d: int, p: int) -> array:
    """The dimension of every subspace of F_p^d, in ``fp.subspaces`` order."""
    return array("B", (len(pivots) for _, pivots in fp.subspaces(d, p)))


class _Frames(NamedTuple):
    """What an arrow table reads of the subspaces of F_p^d, one tuple per
    field in ``fp.subspaces`` order, so no record is built per subspace."""

    pivots: tuple[tuple[int, ...], ...]
    free: tuple[tuple[int, ...], ...]  # the non-pivot columns
    basis: tuple[fp.Matrix, ...]  # reduced echelon, row r pivoting at pivots[r]
    row_ids: tuple[tuple[int, ...], ...]  # basis rows' indices in ``_basis_rows``


@lru_cache(maxsize=None)
def _basis_rows(d: int, p: int) -> tuple[fp.Vector, ...]:
    """Every distinct basis row of the subspaces of F_p^d."""
    return tuple(dict.fromkeys(u for basis, _ in fp.subspaces(d, p) for u in basis))


@lru_cache(maxsize=None)
def _frames(d: int, p: int) -> _Frames:
    """The frames of the subspaces of F_p^d; one ``free`` tuple per set of
    pivots, and basis rows named by their ids in ``_basis_rows``."""
    row_id = {u: k for k, u in enumerate(_basis_rows(d, p))}
    bases, pivots = zip(*fp.subspaces(d, p))
    free_of = {
        pivs: tuple(c for c in range(d) if c not in pivs) for pivs in set(pivots)
    }
    return _Frames(
        pivots,
        tuple(map(free_of.__getitem__, pivots)),
        bases,
        tuple(tuple(map(row_id.__getitem__, basis)) for basis in bases),
    )


def _reduced_row(
    row: fp.Vector,
    pivots: tuple[int, ...],
    free: tuple[int, ...],
    basis: fp.Matrix,
    p: int,
) -> fp.Vector:
    """``row`` modulo the span of ``basis``, at the ``free`` columns."""
    reduced = fp.reduce_vec(row, basis, pivots, p)
    return tuple([reduced[c] for c in free])


def _unpack_element(
    flat: tuple[int, ...], x_dims: tuple[int, ...], y_dims: tuple[int, ...]
) -> tuple[fp.Matrix, ...]:
    mats = []
    pos = 0
    for xv, yv in zip(x_dims, y_dims):
        rows = tuple(tuple(flat[pos + i * yv : pos + (i + 1) * yv]) for i in range(xv))
        mats.append(rows)
        pos += xv * yv
    return tuple(mats)


def element_is_injective(
    element: tuple[fp.Matrix, ...], x_dims: tuple[int, ...], p: int
) -> bool:
    return all(
        fp.rank(m, p) == xv for m, xv in zip(element, x_dims) if xv
    )


def element_is_invertible(
    element: tuple[fp.Matrix, ...],
    x_dims: tuple[int, ...],
    y_dims: tuple[int, ...],
    p: int,
) -> bool:
    return x_dims == y_dims and element_is_injective(element, x_dims, p)


class Oracle:
    def __init__(self, preset: Preset, dim_bound: int = DEFAULT_DIM_BOUND):
        max_indec = max(r.total_dim for r in preset.indec_reps)
        if dim_bound < max_indec:
            raise ValueError(
                f"dimension bound {dim_bound} misses indecomposables of "
                f"dimension {max_indec}"
            )
        self.preset = preset
        self.p = preset.p
        self.dim_bound = dim_bound
        self._order = {n: i for i, n in enumerate(preset.indec_names)}
        self._rep_cache: dict[Member, Rep] = {}
        self._summand_cache: dict[Member, tuple[tuple[int, int], ...]] = {}
        self._table_cache: dict[Member, frozenset[tuple[Member, Member]]] = {}
        self._hom_basis_cache: dict[tuple[Member, Member], tuple] = {}
        self._arrow_tables: dict[tuple[fp.Matrix, int, int], _ArrowTable] = {}
        self._blocks: list[tuple[fp.Matrix, fp.Matrix]] = []
        self._block_ids: dict[tuple[fp.Matrix, fp.Matrix], int] = {}
        # Each block's (sub half, quotient half) as ids of distinct matrices,
        # and the member identified for (dimensions, half ids) of a walk leaf.
        self._block_halves: list[tuple[int, int]] = []
        self._half_ids: dict[fp.Matrix, int] = {}
        self._leaf_members: dict[tuple, Member] = {}
        # The classes at a vertex, keyed by its dimension and, for each table
        # there, twice the table's serial plus its role (1 for the target).
        self._vertex_classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

        self._indec_hom = tuple(
            tuple(
                self._hom_dim_reps(a, b) for b in preset.indec_reps
            )
            for a in preset.indec_reps
        )
        self.members = self._build_universe()
        self.index = {m: i for i, m in enumerate(self.members)}
        self._bit = {m: 1 << i for i, m in enumerate(self.members)}
        self._masks: list[_MemberMasks | None] = [None] * len(self.members)
        self._filt_memo: dict[int, frozenset[Member]] = {}
        self._watch: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None
        self._flags_memo: dict[int, ClosureFlags] = {}
        self._total_dim = {m: self.dim_of(m) for m in self.members}
        # The members of each (dimensions, rank of each arrow matrix), and
        # the rank of every matrix read so far, such as the block halves.
        self._by_ranks: dict[tuple, list[Member]] = {}
        self._ranks: dict[fp.Matrix, int] = {}
        self._fingerprints: dict[Member, tuple[int, ...]] = {}
        self._check_fingerprints()
        self._check_simples()

    # ------------------------------------------------------------------
    # universe bookkeeping

    def _build_universe(self) -> tuple[Member, ...]:
        names = self.preset.indec_names
        sizes = [r.total_dim for r in self.preset.indec_reps]
        found: list[Member] = []

        def rec(i: int, budget: int, acc: list[str]) -> None:
            if i == len(names):
                found.append(tuple(acc))
                return
            for count in range(budget // sizes[i] + 1):
                rec(i + 1, budget - count * sizes[i], acc + [names[i]] * count)

        rec(0, self.dim_bound, [])
        found.sort(key=lambda m: (self.dim_of(m), self.dims_of(m), self._key(m)))
        return tuple(found)

    def _key(self, member: Member) -> tuple[int, ...]:
        return tuple(self._order[n] for n in member)

    def rep_of(self, member: Member) -> Rep:
        rep = self._rep_cache.get(member)
        if rep is None:
            rep = direct_sum(
                self.preset,
                tuple(self.preset.rep_of_indec(n) for n in member),
            )
            self._rep_cache[member] = rep
        return rep

    def dims_of(self, member: Member) -> tuple[int, ...]:
        return self.rep_of(member).dims

    def dim_of(self, member: Member) -> int:
        return sum(self.dims_of(member))

    def _check_fingerprints(self) -> None:
        """Fingerprint every member, refuse a collision, and index the
        members by dimensions and arrow ranks.

        Homs and ranks are additive over summands, so a member's are the
        sum over its summands ``a``, with multiplicity, of one row per
        indecomposable: row ``a`` of ``_indec_hom``, column ``a``, and the
        ranks of ``a``'s arrow matrices.
        """
        hom = self._indec_hom
        rows = [
            into + out + self._arrow_ranks(r.mats)
            for into, out, r in zip(hom, zip(*hom), self.preset.indec_reps)
        ]
        zero, n = [0] * len(rows[0]), 2 * len(hom)
        seen: dict[tuple, Member] = {}
        for m in self.members:
            summed = tuple(map(sum, zip(zero, *(rows[self._order[x]] for x in m))))
            key = (self.dims_of(m), summed[:n])
            if key in seen:
                raise OracleError(
                    f"fingerprint collision between {seen[key]} and {m}"
                )
            seen[key] = m
            self._fingerprints[m] = key[1]
            self._by_ranks.setdefault((key[0], summed[n:]), []).append(m)

    def _check_simples(self) -> None:
        """Refuse a preset without exactly one simple at some vertex."""
        vertices = self.preset.num_vertices
        for v in range(vertices):
            indicator = tuple(1 if w == v else 0 for w in range(vertices))
            matches = [r for r in self.preset.indec_reps if r.dims == indicator]
            if len(matches) != 1:
                raise OracleError(f"no unique simple at vertex {v + 1}")

    # ------------------------------------------------------------------
    # hom spaces

    def _hom_system(self, x: Rep, y: Rep) -> tuple[list[tuple[int, ...]], int]:
        offsets = [0, *itertools.accumulate(map(mul, x.dims, y.dims))]
        total = offsets.pop()
        rows = []
        p = self.p
        for a, (s, t) in enumerate(self.preset.arrows):
            xa, ya = x.mats[a], y.mats[a]
            for i in range(x.dims[s]):
                for j in range(y.dims[t]):
                    row = [0] * total
                    for k in range(x.dims[t]):
                        row[offsets[t] + k * y.dims[t] + j] += xa[i][k]
                    for k in range(y.dims[s]):
                        row[offsets[s] + i * y.dims[s] + k] -= ya[k][j]
                    row = [c % p for c in row]
                    if any(row):
                        rows.append(tuple(row))
        return rows, total

    def _hom_dim_reps(self, x: Rep, y: Rep) -> int:
        rows, total = self._hom_system(x, y)
        return total - fp.rank(rows, self.p)

    def _hom_basis_reps(self, x: Rep, y: Rep) -> list[tuple[fp.Matrix, ...]]:
        rows, total = self._hom_system(x, y)
        flats = fp.kernel_basis(tuple(rows), total, self.p)
        return [_unpack_element(f, x.dims, y.dims) for f in flats]

    def _summands(self, member: Member) -> tuple[tuple[int, int], ...]:
        """(indecomposable index, multiplicity) of each distinct summand."""
        found = self._summand_cache.get(member)
        if found is None:
            found = tuple((self._order[n], k) for n, k in Counter(member).items())
            self._summand_cache[member] = found
        return found

    def hom_dim(self, x: Member, y: Member) -> int:
        """Additive over summands, so no linear algebra is needed here."""
        hom = self._indec_hom
        into = self._summands(y)
        return sum(k * m * hom[a][b] for a, k in self._summands(x) for b, m in into)

    def hom_basis(self, x: Member, y: Member) -> list[tuple[fp.Matrix, ...]]:
        cached = self._hom_basis_cache.get((x, y))
        if cached is None:
            cached = tuple(self._hom_basis_reps(self.rep_of(x), self.rep_of(y)))
            self._hom_basis_cache[(x, y)] = cached
        return list(cached)

    def _expand(self, basis, x_dims, y_dims):
        """Yield the combination of ``basis`` for every nonzero coefficient vector."""
        p = self.p
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            if not any(coeffs):
                continue
            yield tuple(
                tuple(
                    tuple(
                        sum(c * el[v][i][j] for c, el in zip(coeffs, basis)) % p
                        for j in range(y_dims[v])
                    )
                    for i in range(x_dims[v])
                )
                for v in range(len(x_dims))
            )

    def hom_elements(self, x: Member, y: Member):
        """Yield every nonzero hom element as per-vertex matrices."""
        basis = self.hom_basis(x, y)
        if self.p ** len(basis) > _ELEMENT_BUDGET:
            raise OracleError(
                f"hom space of dimension {len(basis)} is too large to iterate"
            )
        yield from self._expand(basis, self.dims_of(x), self.dims_of(y))

    # ------------------------------------------------------------------
    # identification

    def _fingerprint_entries(self, rep: Rep):
        """Yield the dimension of the homs from ``rep`` into each
        indecomposable, then into ``rep`` from each, one system at a time."""
        indecs = self.preset.indec_reps
        yield from (self._hom_dim_reps(rep, r) for r in indecs)
        yield from (self._hom_dim_reps(r, rep) for r in indecs)

    def _arrow_ranks(self, mats: tuple[fp.Matrix, ...]) -> tuple[int, ...]:
        """The rank of each matrix, memoised per oracle; isomorphic
        representations have the same rank on every arrow."""
        ranks, p = self._ranks, self.p
        return tuple([
            ranks[m] if m in ranks else ranks.setdefault(m, fp.rank(m, p))
            for m in mats
        ])

    def identify(self, rep: Rep, strict: bool = False) -> Member:
        """The member of ``rep``'s dimensions and arrow ranks, which are
        invariant under isomorphism, left by its fingerprint read entry by
        entry; ``strict`` also compares the whole fingerprint."""
        candidates = self._by_ranks.get((rep.dims, self._arrow_ranks(rep.mats)), [])
        fingerprints = self._fingerprints
        if len(candidates) > 1:
            for j, d in enumerate(self._fingerprint_entries(rep)):
                candidates = [m for m in candidates if fingerprints[m][j] == d]
                if len(candidates) <= 1:
                    break
        if len(candidates) != 1:
            raise OracleError(
                f"representation with dimensions {rep.dims} matches "
                f"{len(candidates)} members; the indecomposable list cannot "
                "be complete"
            )
        member = candidates[0]
        if strict and tuple(self._fingerprint_entries(rep)) != fingerprints[member]:
            raise OracleError(
                f"fingerprint audit failed for a representation matched "
                f"to {member}"
            )
        return member

    def assert_isomorphic(self, rep: Rep, member: Member) -> None:
        """Audit fallback: search for an invertible map element by element."""
        target = self.rep_of(member)
        if rep.dims != target.dims:
            raise OracleError(f"{member} has different dimensions than the input")
        basis = self._hom_basis_reps(rep, target)
        if self.p ** len(basis) > _ELEMENT_BUDGET:
            raise OracleError("hom space too large for the exhaustive audit")
        for element in self._expand(basis, rep.dims, target.dims):
            if element_is_invertible(element, rep.dims, target.dims, self.p):
                return
        raise OracleError(f"no isomorphism onto {member} exists")

    # ------------------------------------------------------------------
    # subquotient tables

    def _arrow_table(self, mat: fp.Matrix, d_s: int, d_t: int) -> _ArrowTable:
        """Block-pair ids of one arrow matrix over classes of subspaces.

        A source subspace enters an entry only through its pivots and the
        images of its basis, a target subspace only through its pivots and
        the matrix rows reduced modulo it; subspaces that agree on these
        form one class.  Entry ``i * n_targets + j`` covers source class
        ``i`` and target class ``j``.  It is ``_UNSTABLE`` unless the matrix
        maps the first into the second; otherwise it is the id in
        ``self._blocks`` of the arrow's (sub block, quotient block): the
        images of the source basis in coordinates of the target basis, and
        the matrix on the non-pivot coordinates after reducing modulo the
        two subspaces.
        """
        key = (mat, d_s, d_t)
        table = self._arrow_tables.get(key)
        if table is not None:
            return table
        p = self.p
        blocks, block_ids = self._blocks, self._block_ids
        halves, half_ids = self._block_halves, self._half_ids
        # Subspaces share basis rows, so each row's image is computed once.
        images_of = [fp.vec_mat(u, mat, p) for u in _basis_rows(d_s, p)]
        sources: dict = {}  # (pivots, images) -> class, a representative basis
        source_class = array("i")
        for pivots, _, basis, row_ids in zip(*_frames(d_s, p)):
            source = (pivots, tuple(map(images_of.__getitem__, row_ids)))
            found = sources.get(source)
            if found is None:
                found = sources[source] = (len(sources), basis)
            source_class.append(found[0])
        # (pivots, names of the reduced rows) -> class, the rows reduced
        # modulo the space at its non-pivots, the same numbers by column.  A
        # row whose one nonzero entry is at column c reduces to a multiple of
        # unit vector c reduced, so the id of the basis row pivoting at c
        # names it, and -1 names it when c is no pivot or the row is zero.
        # Other rows are named by their reduction; each class reduces once.
        picks = []
        for row in mat:
            nonzero = [c for c, a in enumerate(row) if a]
            picks.append(nonzero[0] if len(nonzero) == 1 else None if nonzero else -1)
        targets: dict = {}
        target_class = array("i")
        for pivots, free, basis, row_ids in zip(*_frames(d_t, p)):
            names = tuple([
                _reduced_row(row, pivots, free, basis, p) if c is None
                else row_ids[pivots.index(c)] if c in pivots else -1
                for row, c in zip(mat, picks)
            ])
            found = targets.get((pivots, names))
            if found is None:
                reduced = tuple([
                    _reduced_row(row, pivots, free, basis, p) for row in mat
                ])
                found = targets[(pivots, names)] = (
                    len(targets), reduced, tuple(zip(*reduced))
                )
            target_class.append(found[0])

        def entry(pivots_s, images, basis_s, pivots_t, reduced, columns) -> int:
            # Reduction modulo the target is linear, so u M lies in it iff
            # u times the reduced rows vanishes.
            for u in basis_s:
                for col in columns:
                    if sum(map(mul, u, col)) % p:
                        return _UNSTABLE
            pair = (
                tuple([tuple([im[c] for c in pivots_t]) for im in images]),
                tuple(row for c, row in enumerate(reduced) if c not in pivots_s),
            )
            bid = block_ids.get(pair)
            if bid is None:
                bid = block_ids[pair] = len(blocks)
                blocks.append(pair)
                halves.append(tuple(
                    half_ids.setdefault(half, len(half_ids)) for half in pair
                ))
            return bid

        entries = array("i", [
            entry(pivots_s, images, basis_s, pivots_t, reduced, columns)
            for (pivots_s, images), (_, basis_s) in sources.items()
            for (pivots_t, _), (_, reduced, columns) in targets.items()
        ])
        table = _ArrowTable(
            source_class, target_class, len(targets), entries, len(self._arrow_tables)
        )
        self._arrow_tables[key] = table
        return table

    def _semisimple_pairs(self, member: Member) -> frozenset[tuple[Member, Member]]:
        counts = Counter(member)
        simples = sorted(counts, key=self._order.__getitem__)
        pairs = set()
        for sub_counts in itertools.product(
            *(range(counts[s] + 1) for s in simples)
        ):
            sub = []
            quot = []
            for s, k in zip(simples, sub_counts):
                sub.extend([s] * k)
                quot.extend([s] * (counts[s] - k))
            # both halves come out sorted, like every member
            pairs.add((tuple(sub), tuple(quot)))
        return frozenset(pairs)

    def subquotients(self, member: Member) -> frozenset[tuple[Member, Member]]:
        """All (subobject, quotient) pairs of the member, up to isomorphism.

        Each stable tuple of subspaces contributes the pair consisting of
        the restricted representation and the induced quotient; the trivial
        tuples give ``(0, X)`` and ``(X, 0)``.
        """
        cached = self._table_cache.get(member)
        if cached is not None:
            return cached
        rep = self.rep_of(member)
        if all(fp.is_zero_matrix(m) for m in rep.mats):
            pairs = self._semisimple_pairs(member)
        else:
            pairs = self._stable_pairs(member, rep)
        self._table_cache[member] = pairs
        return pairs

    def _stable_pairs(
        self, member: Member, rep: Rep
    ) -> frozenset[tuple[Member, Member]]:
        """Identify the sub and quotient of every nontrivial stable tuple.

        Two subspaces at a vertex are interchangeable when they have the
        same dimension and the same class in every arrow table at the
        vertex, so the walk takes one subspace of each such vertex class.
        """
        p, dims, blocks = self.p, rep.dims, self._blocks
        arrows = self.preset.arrows
        nv = len(dims)
        tables = [
            self._arrow_table(m, dims[s], dims[t])
            for m, (s, t) in zip(rep.mats, arrows)
        ]
        # A vertex class is (dimension, class in each table at the vertex),
        # the tables in arrow order, source role before target role.
        columns = [[_subspace_dims(d, p)] for d in dims]
        keys = [[d] for d in dims]  # the ``_vertex_classes`` keys
        # Each arrow is looked up once both of its ends have a class.
        checks = [[] for _ in range(nv)]
        for a, ((s, t), table) in enumerate(zip(arrows, tables)):
            columns[s].append(table.source_class)
            keys[s].append(2 * table.serial)
            i = len(columns[s]) - 1
            columns[t].append(table.target_class)
            keys[t].append(2 * table.serial + 1)
            j = len(columns[t]) - 1
            checks[max(s, t)].append((a, s, i, t, j, table.n_targets, table.entries))
        memo = self._vertex_classes  # a class list is never empty
        classes = [
            memo.get(key) or memo.setdefault(key, list(dict.fromkeys(zip(*cols))))
            for key, cols in zip(map(tuple, keys), columns)
        ]
        chosen = [None] * nv
        ids = [0] * len(arrows)
        # A leaf is its sub dimensions and block ids; distinct stable tuples
        # often give the same leaf, which is then identified once.
        leaves = set()

        def walk(v: int) -> None:
            for c in classes[v]:
                chosen[v] = c
                for a, s, i, t, j, n_t, entries in checks[v]:
                    bid = entries[chosen[s][i] * n_t + chosen[t][j]]
                    if bid == _UNSTABLE:
                        break
                    ids[a] = bid
                else:
                    if v + 1 < nv:
                        walk(v + 1)
                    else:
                        leaves.add((*[c[0] for c in chosen], *ids))

        walk(0)
        halves, leaf_members = self._block_halves, self._leaf_members

        def identified(dims, ids, side) -> Member:
            # A leaf's sub (side 0) or quotient (side 1) is determined by its
            # dimensions and the ids of its blocks' halves.
            key = (dims, *[halves[b][side] for b in ids])
            found = leaf_members.get(key)
            if found is None:
                found = leaf_members[key] = self.identify(
                    Rep(dims, tuple(blocks[b][side] for b in ids))
                )
            return found

        pairs = {(ZERO, member), (member, ZERO)}
        for leaf in leaves:
            sub_dims, ids = leaf[:nv], leaf[nv:]
            if 0 < sum(sub_dims) < rep.total_dim:
                quot_dims = tuple([d - k for d, k in zip(dims, sub_dims)])
                pairs.add((identified(sub_dims, ids, 0), identified(quot_dims, ids, 1)))
        return frozenset(pairs)

    def subobjects(self, member: Member) -> frozenset[Member]:
        return frozenset(a for a, _ in self.subquotients(member))

    def quotient_objects(self, member: Member) -> frozenset[Member]:
        return frozenset(q for _, q in self.subquotients(member))

    # ------------------------------------------------------------------
    # bricks and censuses (element style)

    def is_brick(self, member: Member) -> bool:
        """Nonzero, with every nonzero endomorphism invertible."""
        if member == ZERO:
            return False
        d = self.hom_dim(member, member)
        if self.p**d > _ELEMENT_BUDGET:
            # A space that large only occurs for decomposable members, and a
            # projection onto a proper summand is never invertible.
            return False
        dims = self.dims_of(member)
        return all(
            element_is_invertible(el, dims, dims, self.p)
            for el in self.hom_elements(member, member)
        )

    @cached_property
    def _bricks(self) -> tuple[Member, ...]:
        return tuple(
            (n,) for n in self.preset.indec_names if self.is_brick((n,))
        )

    def brick_members(self) -> tuple[Member, ...]:
        return self._bricks

    def mono_ok(self, x: Member, y: Member) -> bool:
        """Every hom element is zero or injective (checked element by element)."""
        if self.hom_dim(x, y) == 0:
            return True
        dims = self.dims_of(x)
        return all(
            element_is_injective(el, dims, self.p)
            for el in self.hom_elements(x, y)
        )

    def mono_ok_factored(self, x: Member, y: Member) -> bool:
        """Same predicate via common subquotients; kept as a cross-check."""
        common = self.quotient_objects(x) & self.subobjects(y)
        return common <= {ZERO, x}

    def _census(self, pair_ok) -> tuple[frozenset[Member], ...]:
        bricks = self._bricks
        adjacency = []
        for i, b in enumerate(bricks):
            mask = 0
            for j, c in enumerate(bricks):
                if i != j and pair_ok(b, c) and pair_ok(c, b):
                    mask |= 1 << j
            adjacency.append(mask)
        return tuple(
            frozenset(bricks[i] for i in chosen)
            for chosen in iter_index_cliques(adjacency)
        )

    @cached_property
    def _monobricks(self) -> tuple[frozenset[Member], ...]:
        return self._census(self.mono_ok)

    @cached_property
    def _semibricks(self) -> tuple[frozenset[Member], ...]:
        return self._census(lambda x, y: self.hom_dim(x, y) == 0)

    def monobricks(self) -> tuple[frozenset[Member], ...]:
        return self._monobricks

    def semibricks(self) -> tuple[frozenset[Member], ...]:
        return self._semibricks

    # ------------------------------------------------------------------
    # maximal elements and closure in the subobject order

    def mmax(self, bricks) -> frozenset[Member]:
        """The bricks of the set that embed in no other brick of the set."""
        bricks = frozenset(bricks)
        return bricks - {a for b in bricks for a in self.subobjects(b) if a != b}

    def cofinal_closure(self, bricks) -> frozenset[Member]:
        """Adjoin subobjects that map into every member by zero or a mono."""
        original = frozenset(bricks)
        grown = set(original)
        candidates = set()
        for m in original:
            candidates |= self.subobjects(m)
        candidates -= grown | {ZERO}
        for n in sorted(candidates, key=self.index.__getitem__):
            if not self.is_brick(n):
                continue
            if all(self.mono_ok(n, m) for m in original):
                grown.add(n)
        return frozenset(grown)

    # ------------------------------------------------------------------
    # subcategory sets (factorisation style)

    def _require_subcat(self, e) -> frozenset[Member]:
        e = frozenset(e)
        if ZERO not in e:
            raise OracleError("a subcategory set must contain the zero module")
        stray = [m for m in e if m not in self.index]
        if stray:
            raise OracleError(f"members outside the universe: {sorted(stray)}")
        return e

    def _mask_of(self, e: frozenset[Member]) -> int:
        # distinct powers of two, so the sum is their union
        return sum(map(self._bit.__getitem__, e))

    def _members_of(self, mask: int) -> frozenset[Member]:
        # bin() lists bits high to low; reversed, character i is bit i
        return frozenset(
            itertools.compress(self.members, map("1".__eq__, bin(mask)[:1:-1]))
        )

    def _member_masks(self, i: int) -> _MemberMasks:
        """Member ``i``'s subquotient table as masks, built on first use."""
        masks = self._masks[i]
        if masks is None:
            bit = self._bit
            subs = quots = 0
            pairs = []
            for a, q in self.subquotients(self.members[i]):
                subs |= bit[a]
                quots |= bit[q]
                if a != ZERO and q != ZERO:
                    pairs.append((bit[a], bit[q]))
            splits = tuple(sorted({a | q for a, q in pairs}))
            masks = _MemberMasks(splits, subs, quots, tuple(pairs))
            self._masks[i] = masks
        return masks

    def _unions(self, inside: list[int]) -> tuple[int, int]:
        """Masks of all subobjects and of all quotients of the given members."""
        subs = quots = 0
        for i in inside:
            masks = self._member_masks(i)
            subs |= masks.subs
            quots |= masks.quots
        return subs, quots

    def filt(self, gens) -> frozenset[Member]:
        """Close a generating set under extensions: the one closure engine,
        ``_extend_filt``, run from the empty mask."""
        gens = self._require_subcat(set(gens) | {ZERO})
        return self._closure(self._mask_of(gens))

    def _closure(self, key: int) -> frozenset[Member]:
        """The members of ``_extend_filt(0, key)``, memoised on ``key``."""
        hit = self._filt_memo.get(key)
        if hit is None:
            hit = self._filt_memo[key] = self._filt_memo[self._extend_filt(0, key)]
        return hit

    def _watch_lists(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """For each member ``j``, the members ``i`` and split masks of ``i``
        that contain ``j``, as two parallel tuples; built once per oracle."""
        if self._watch is None:
            members: list[list[int]] = [[] for _ in self.members]
            masks: list[list[int]] = [[] for _ in self.members]
            for i in range(len(self.members)):
                for pm in self._member_masks(i).splits:
                    for j in bit_indices(pm):
                        members[j].append(i)
                        masks[j].append(pm)
            self._watch = [(tuple(m), tuple(pms)) for m, pms in zip(members, masks)]
        return self._watch

    def _extend_filt(self, closed: int, new: int) -> int:
        """Mask of the extension closure of the extension-closed mask
        ``closed`` and the members in the mask ``new``, the oracle's one
        closure engine; ``_filt_memo`` gets the closure under its own mask.

        Every split mask inside ``closed`` already has its member in it, so
        a member can only join through a split that meets what was added:
        each member added is followed by testing just its watch list.
        """
        watch = self._watch_lists()
        result = closed | new
        todo = list(bit_indices(new & ~closed))
        while todo:
            for i, pm in zip(*watch[todo.pop()]):
                if not result >> i & 1 and pm & result == pm:
                    result |= 1 << i
                    todo.append(i)
        if result not in self._filt_memo:
            self._filt_memo[result] = self._members_of(result)
        return result

    def subset_closures(self, gens) -> list[frozenset[Member]]:
        """``filt`` of every subset of ``gens``, subset ``bits`` at position
        ``bits`` (generator ``i`` in it iff bit ``i`` is set).

        Each closure grows from the closure of its subset without the top
        generator, which comes earlier in this order.
        """
        gens = list(gens)
        self._require_subcat({ZERO, *gens})
        bits = [self._bit[g] for g in gens]
        masks = [self._extend_filt(0, self._bit[ZERO])]
        for subset in range(1, 1 << len(bits)):
            top = subset.bit_length() - 1
            masks.append(self._extend_filt(masks[subset ^ 1 << top], bits[top]))
        return [self._filt_memo[m] for m in masks]

    def _simple_indices(self, inside: list[int], mask: int) -> list[int]:
        """The members among ``inside`` but the zero module (index 0) with no
        proper nonzero subobject in ``mask`` together with its quotient."""
        simple = []
        for i in filter(None, inside):
            for pm in self._member_masks(i).splits:
                if pm & mask == pm:
                    break
            else:
                simple.append(i)
        return simple

    def simp(self, e) -> frozenset[Member]:
        """Members with no proper nonzero subobject-quotient split inside e."""
        e = self._require_subcat(e)
        inside = [self.index[x] for x in e]
        simple = self._simple_indices(inside, self._mask_of(e))
        return frozenset(self.members[i] for i in simple)

    def closure_flags(self, e) -> ClosureFlags:
        e = self._require_subcat(e)
        mask = self._mask_of(e)
        flags = self._flags_memo.get(mask)
        if flags is None:
            flags = self._flags_memo[mask] = self._closure_flags(e, mask)
        return flags

    def _closure_flags(self, e: frozenset[Member], mask: int) -> ClosureFlags:
        inside = [self.index[x] for x in e]
        subs, quots = self._unions(inside)
        # Trivial pairs (0, x) and (x, 0) pass every test below, so only the
        # proper pairs of each member are scanned.
        pairs = [self._member_masks(i).pairs for i in inside]
        kernels = all(a & mask for ps in pairs for a, q in ps if q & subs)
        cokernels = all(q & mask for ps in pairs for a, q in ps if a & quots)

        # Removing one summand at a time reaches every sub-multiset, and
        # members are sorted tuples, so a removal is again a member's key.
        summands = all(
            x[:i] + x[i + 1 :] in e for x in e for i in range(len(x))
        )
        by_dim = Counter(self._total_dim[x] for x in e)
        skipped = sum(
            n * m
            for d, n in by_dim.items()
            for d2, m in by_dim.items()
            if d + d2 > self.dim_bound
        )
        return ClosureFlags(
            # e is extension-closed iff it is its own filtration closure
            extensions=len(self._closure(mask)) == len(e),
            subobjects=not subs & ~mask,
            quotients=not quots & ~mask,
            summands=summands,
            kernels=kernels,
            # a quotient of one member that is a subobject of another
            images=not subs & quots & ~mask,
            cokernels=cokernels,
            skipped_extension_pairs=skipped,
        )

    def is_left_schur(self, e) -> bool:
        """No member simple in e admits a proper nonzero quotient embedding
        into a member."""
        e = self._require_subcat(e)
        inside = [self.index[x] for x in e]
        subs, _ = self._unions(inside)
        for i in self._simple_indices(inside, self._mask_of(e)):
            if self._member_masks(i).quots & subs & ~(self._bit[ZERO] | 1 << i):
                return False
        return True

    def w_map(self, e) -> frozenset[Member]:
        """Members whose every cokernel into the set stays in the set."""
        e = self._require_subcat(e)
        mask = self._mask_of(e)
        inside = [self.index[x] for x in e]
        bad_images = 0
        for i in inside:
            for a, q in self._member_masks(i).pairs:
                if not q & mask:
                    bad_images |= a
        return frozenset(
            self.members[i]
            for i in inside
            if not self._member_masks(i).quots & bad_images
        )

    def f_map(self, bricks) -> frozenset[Member]:
        gens: set[Member] = set()
        for m in bricks:
            gens |= self.subobjects(m)
        return self.filt(gens)

    # ------------------------------------------------------------------
    # bridging to arc combinatorics

    def socle_dims(self, rep: Rep) -> tuple[int, ...]:
        out = []
        for v in range(self.preset.num_vertices):
            arrows_out = [
                a for a, (s, _) in enumerate(self.preset.arrows) if s == v
            ]
            # row i: the images of basis vector i under every arrow out of v
            rows = [
                sum((rep.mats[a][i] for a in arrows_out), ())
                for i in range(rep.dims[v])
            ]
            out.append(rep.dims[v] - fp.rank(rows, self.p))
        return tuple(out)

    def arc_member(self, arc: Arc) -> Member:
        algebra = self.preset.arc_algebra
        if algebra is None:
            raise OracleError(f"{self.preset.name} has no arc model")
        algebra.check_arc(arc)
        series = set(socle_series(arc, algebra.marks))
        dims = tuple(
            1 if v + 1 in series else 0 for v in range(self.preset.num_vertices)
        )
        socle = tuple(
            1 if v + 1 == arc.start else 0
            for v in range(self.preset.num_vertices)
        )
        matches = [
            (n,)
            for n, r in zip(self.preset.indec_names, self.preset.indec_reps)
            if r.dims == dims and self.socle_dims(r) == socle
        ]
        if len(matches) != 1:
            raise OracleError(f"arc {arc} matches {len(matches)} indecomposables")
        return matches[0]

    def arc_hom_kind(self, a: Arc, b: Arc) -> HomKind:
        """Classify the hom space between the modules of two arcs."""
        x, y = self.arc_member(a), self.arc_member(b)
        d = self.hom_dim(x, y)
        if d == 0:
            return HomKind.ZERO
        if d != 1:
            raise OracleError(
                f"hom space between {x} and {y} has dimension {d}"
            )
        x_dims, y_dims = self.dims_of(x), self.dims_of(y)
        kinds = set()
        for el in self.hom_elements(x, y):
            if element_is_invertible(el, x_dims, y_dims, self.p):
                kinds.add(HomKind.ISO)
            elif element_is_injective(el, x_dims, self.p):
                kinds.add(HomKind.INJECTION)
            else:
                kinds.add(HomKind.NONZERO_NON_INJECTION)
        if len(kinds) != 1:
            raise OracleError(
                f"nonzero maps between {x} and {y} disagree in kind: {kinds}"
            )
        return kinds.pop()


@lru_cache(maxsize=None)
def get_oracle(
    preset_name: str, dim_bound: int = DEFAULT_DIM_BOUND, p: int = 2
) -> Oracle:
    return Oracle(get_preset(preset_name, p), dim_bound)
