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
(``is_brick``, ``mono_ok``, ``hom_kind``, ``assert_isomorphic`` and the
censuses built on them) iterate over actual hom elements: each is one
combination of the flat kernel basis of a hom system, unpacked into
per-vertex matrices, and one classifier, ``_kinds``, sorts the nonzero ones
into non-injections, isomorphisms and other injections.  The kinds are
kept per ordered pair, so ``is_brick``, ``mono_ok`` and ``hom_kind`` (and
the censuses, ``cofinal_closure`` and the audits above them) expand each
hom space once.  Category-level
operations (``filt``, ``simp``, closure flags, the W and F maps) instead
factor every morphism through its image, so they only consult the
subquotient tables; the element route would be hopeless at dimension 36.
Tests compare both styles where both are affordable.

Inside the subcategory layer a set of members is an ``int`` mask over
``Oracle.index``; public inputs and outputs stay frozensets.  Each input set
is validated and turned into its mask in one pass, once per call, and
everything after reads only the mask.  At the first use of any, every
member's subquotient table is turned into masks, one table per oracle: one
per proper nonzero (subobject, quotient) pair, the union of its subobjects,
the union of its quotients, and the union of the members it leaves when one
summand is removed.  ``simp`` keeps the members with no pair mask inside the
set; the other closure flags are ANDs and ORs of the unions, which
``_closure_flags`` builds once per set from one decode of its mask, and its
left Schur flag reads the same unions at the simples.
One engine closes sets under extensions, ``_extend_filt``: a member can join
a closed set only through a split that meets the new members, so it
forward-chains over watch lists that name, for each member, the split masks
containing it.  ``filt`` runs it from the empty mask, the extension flag asks
whether a set is its own closure, and ``subset_closures`` searches the
closures of subsets of generators depth first, growing a closure only by a
generator outside it, so it runs the engine once per node of the search
rather than once per subset.  The closure memo maps masks to masks: a
generator mask to its closure, and every closure the engine computes to
itself, so the extension flag of a closure is one lookup.  ``filt`` builds a
frozenset only at its return; ``subset_closures`` builds none and reads each
closure's flags off the mask it grew.  The flags are memoised per oracle on
the set mask, in ``_closure_flags``, which ``closure_flags`` reaches after
validating its set.

A subquotient table lists the (subobject, quotient) pairs of one member,
one per tuple of subspaces, one subspace per vertex, that every arrow maps
into itself.  Whether a tuple is stable across an arrow, and that arrow's
block in the sub- and quotient representation, depend only on the arrow's
matrix and on the two subspaces.  Of the source subspace they read only
its pivots and the images of its basis, of the target subspace only its
pivots and the matrix rows reduced modulo it; subspaces that agree on these
form one class.  So each distinct arrow matrix gets one table, built on
first use and shared by every member carrying that matrix: the class of
every source and every target subspace, and per pair of classes the pair of
ids of its sub block and its quotient block, or None for an unstable pair.
Each block half is interned on its own, once per oracle.  At a vertex,
subspaces of one dimension with the same class in every table there are
interchangeable, so a member's table walks one subspace per such vertex
class, vertex by vertex, and drops a tuple at the first unstable arrow.  The
tables read the subspaces of F_p^d through one frame record per (d, p), one
tuple per field: pivots, non-pivot columns, bases, the ids of their rows,
the distinct rows themselves and the dimension of each subspace, so each
table maps every distinct basis row once.  Reduction modulo a target
subspace is linear, and a matrix row with one nonzero entry reduces to a
multiple of one unit vector reduced, which the id of a basis row names; so
target classes are keyed by those ids, and only rows with more nonzero
entries are reduced for every subspace.  A walk leaf is a nontrivial tuple's
sub dimensions and the sub half ids of its entries, then its quotient
dimensions and quotient half ids, collected once per member.  Each half of a
leaf determines its side, so the sub and the quotient are identified once
per oracle, memoised on that half, and only a new one is assembled from the
half matrices and handed to ``identify``.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from functools import cached_property, lru_cache
from operator import mul, sub
from typing import NamedTuple

from monobrick import fp
from monobrick.arcs import Arc, HomKind, socle_series
from monobrick.diagrams import bit_indices, iter_index_cliques
from monobrick.presets import Preset, Rep, direct_sum, get_preset

Member = tuple[str, ...]

ZERO: Member = ()

DEFAULT_DIM_BOUND = 6

_ELEMENT_BUDGET = 70_000


class _MemberMasks(NamedTuple):
    """One member's subquotient table as masks over ``Oracle.index``."""

    splits: tuple[int, ...]  # distinct a | q of the proper pairs
    subs: int  # every subobject, 0 and the member included
    quots: int  # every quotient, 0 and the member included
    pairs: tuple[tuple[int, int], ...]  # (a, q) with a and q nonzero
    parts: int  # the member with one summand removed, each way


class _ArrowTable(NamedTuple):
    """One arrow matrix's blocks over classes of subspaces, as half ids;
    built once per matrix and pair of dimensions, in ``Oracle._arrow_tables``."""

    source_class: array  # class of each ``fp.subspaces(d_s, p)`` position
    target_class: array  # class of each ``fp.subspaces(d_t, p)`` position
    n_targets: int  # number of target classes
    # source class i, target class j at i * n_targets + j: the ids of the
    # sub and the quotient block in ``Oracle._half_mats``, None if unstable
    entries: list[tuple[int, int] | None]


class OracleError(RuntimeError):
    """A model-level guarantee failed (or would be too large to check)."""


class ClosureFlags(NamedTuple):
    """Which constructions stay inside a subcategory set.

    ``skipped_extension_pairs`` counts ordered pairs of members whose
    dimensions sum past the bound, where middle terms of extensions would
    fall outside the modelled universe; the extension flag is silent about
    those.  ``wide`` and ``torsion_free`` are the two kinds of subcategory
    the paper obtains as special cases, read off the flags.  ``left_schur``
    says that every nonzero map from a simple of the set (``simp``) to a
    member is injective, the paper's one-sided Schur condition.
    """

    extensions: bool
    subobjects: bool
    quotients: bool
    summands: bool
    kernels: bool
    images: bool
    cokernels: bool
    skipped_extension_pairs: int
    left_schur: bool

    @property
    def wide(self) -> bool:
        return self.extensions and self.kernels and self.cokernels

    @property
    def torsion_free(self) -> bool:
        return self.extensions and self.subobjects


class _Frames(NamedTuple):
    """What an arrow table reads of the subspaces of F_p^d: one tuple per
    field in ``fp.subspaces`` order, so no record is built per subspace,
    and the distinct basis rows they share."""

    pivots: tuple[tuple[int, ...], ...]
    free: tuple[tuple[int, ...], ...]  # the non-pivot columns
    basis: tuple[fp.Matrix, ...]  # reduced echelon, row r pivoting at pivots[r]
    row_ids: tuple[tuple[int, ...], ...]  # basis rows' indices in ``rows``
    rows: tuple[fp.Vector, ...]  # every distinct basis row
    dims: array  # the dimension of each subspace


@lru_cache(maxsize=None)
def _frames(d: int, p: int) -> _Frames:
    """The frames of the subspaces of F_p^d; one ``free`` tuple per set of
    pivots."""
    bases, pivots = zip(*fp.subspaces(d, p))
    rows = tuple(dict.fromkeys(u for basis in bases for u in basis))
    row_id = {u: k for k, u in enumerate(rows)}
    free_of = {
        pivs: tuple(c for c in range(d) if c not in pivs) for pivs in set(pivots)
    }
    return _Frames(
        pivots,
        tuple(map(free_of.__getitem__, pivots)),
        bases,
        tuple(tuple(map(row_id.__getitem__, basis)) for basis in bases),
        rows,
        array("B", map(len, pivots)),
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
        self._table_cache: dict[Member, frozenset[tuple[Member, Member]]] = {}
        self._hom_basis_cache: dict[tuple[Member, Member], tuple] = {}
        self._kinds_memo: dict[tuple[Member, Member], set[HomKind]] = {}
        self._arrow_tables: dict[tuple[fp.Matrix, int, int], _ArrowTable] = {}
        # The id of every distinct half of a block, the matrix of each id, and
        # the member identified for each side of a walk leaf: its dimensions,
        # then its half ids in arrow order.
        self._half_ids: dict[fp.Matrix, int] = {}
        self._half_mats: list[fp.Matrix] = []
        self._leaf_members: dict[tuple, Member] = {}

        self._indec_hom = tuple(
            tuple(
                self._hom_dim_reps(a, b) for b in preset.indec_reps
            )
            for a in preset.indec_reps
        )
        self.members = self._build_universe()
        self.index = {m: i for i, m in enumerate(self.members)}
        self._filt_memo: dict[int, int] = {}  # generator mask -> its closure
        self._flags_memo: dict[int, ClosureFlags] = {}
        self._total_dim = [self.dim_of(m) for m in self.members]
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

    def _hom_basis_reps(self, x: Rep, y: Rep) -> list[fp.Vector]:
        """A basis of the homs, each map flat: vertex by vertex, row by row."""
        rows, total = self._hom_system(x, y)
        return fp.kernel_basis(tuple(rows), total, self.p)

    def _summands(self, member: Member) -> tuple[tuple[int, int], ...]:
        """(indecomposable index, multiplicity) of each distinct summand."""
        return tuple((self._order[n], k) for n, k in Counter(member).items())

    def hom_dim(self, x: Member, y: Member) -> int:
        """Additive over summands, so no linear algebra is needed here."""
        hom = self._indec_hom
        into = self._summands(y)
        return sum(k * m * hom[a][b] for a, k in self._summands(x) for b, m in into)

    def hom_basis(self, x: Member, y: Member) -> list[fp.Vector]:
        cached = self._hom_basis_cache.get((x, y))
        if cached is None:
            cached = tuple(self._hom_basis_reps(self.rep_of(x), self.rep_of(y)))
            self._hom_basis_cache[(x, y)] = cached
        return list(cached)

    def _expand(self, basis, x_dims, y_dims):
        """Yield the combination of the flat ``basis`` for every nonzero
        coefficient vector, unpacked into per-vertex matrices."""
        p, columns = self.p, list(zip(*basis))
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            if any(coeffs):
                flat = tuple([sum(map(mul, coeffs, col)) % p for col in columns])
                yield _unpack_element(flat, x_dims, y_dims)

    def hom_elements(self, x: Member, y: Member):
        """Yield every nonzero hom element as per-vertex matrices."""
        basis = self.hom_basis(x, y)
        if self.p ** len(basis) > _ELEMENT_BUDGET:
            raise OracleError(
                f"hom space of dimension {len(basis)} is too large to iterate"
            )
        yield from self._expand(basis, self.dims_of(x), self.dims_of(y))

    def _pair_kinds(self, x: Member, y: Member) -> set[HomKind]:
        """``_kinds`` of every nonzero map from ``x`` to ``y``, expanded once
        per ordered pair; callers must not change the set."""
        kinds = self._kinds_memo.get((x, y))
        if kinds is None:
            kinds = self._kinds_memo[x, y] = self._kinds(
                self.hom_elements(x, y), self.dims_of(x), self.dims_of(y)
            )
        return kinds

    def _kinds(self, elements, x_dims, y_dims) -> set[HomKind]:
        """The kinds of the given nonzero maps: a map that is not injective,
        an injective one between equal dimension vectors, which is an
        isomorphism, or another injection."""
        injection = HomKind.ISO if x_dims == y_dims else HomKind.INJECTION
        p = self.p
        return {
            injection if element_is_injective(el, x_dims, p)
            else HomKind.NONZERO_NON_INJECTION
            for el in elements
        }

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
        elements = self._expand(basis, rep.dims, target.dims)
        if HomKind.ISO not in self._kinds(elements, rep.dims, target.dims):
            raise OracleError(f"no isomorphism onto {member} exists")

    # ------------------------------------------------------------------
    # subquotient tables

    def _arrow_table(self, mat: fp.Matrix, d_s: int, d_t: int) -> _ArrowTable:
        """The blocks of one arrow matrix over classes of subspaces.

        A source subspace enters an entry only through its pivots and the
        images of its basis, a target subspace only through its pivots and
        the matrix rows reduced modulo it; subspaces that agree on these
        form one class.  Entry ``i * n_targets + j`` covers source class
        ``i`` and target class ``j``.  It is None unless the matrix maps the
        first into the second; otherwise it is the arrow's sub block, the
        images of the source basis in coordinates of the target basis, and
        its quotient block, the matrix on the non-pivot coordinates after
        reducing modulo the two subspaces, each named by its id in
        ``self._half_mats``.
        """
        key = (mat, d_s, d_t)
        table = self._arrow_tables.get(key)
        if table is not None:
            return table
        p = self.p
        half_ids, half_mats = self._half_ids, self._half_mats

        def intern_half(half: fp.Matrix) -> int:
            hid = half_ids.get(half)
            if hid is None:
                hid = half_ids[half] = len(half_mats)
                half_mats.append(half)
            return hid

        # Subspaces share basis rows, so each row's image is computed once.
        frames = _frames(d_s, p)
        images_of = [fp.vec_mat(u, mat, p) for u in frames.rows]
        sources: dict = {}  # (pivots, images) -> class, a representative basis
        source_class = array("i")
        for pivots, basis, row_ids in zip(frames.pivots, frames.basis, frames.row_ids):
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
        frames = _frames(d_t, p)
        for pivots, free, basis, row_ids in zip(
            frames.pivots, frames.free, frames.basis, frames.row_ids
        ):
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

        def entry(pivots_s, images, basis_s, pivots_t, reduced, columns):
            # Reduction modulo the target is linear, so u M lies in it iff
            # u times the reduced rows vanishes.
            for u in basis_s:
                for col in columns:
                    if sum(map(mul, u, col)) % p:
                        return None
            return (
                intern_half(tuple([tuple([im[c] for c in pivots_t]) for im in images])),
                intern_half(
                    tuple(row for c, row in enumerate(reduced) if c not in pivots_s)
                ),
            )

        entries = [
            entry(pivots_s, images, basis_s, pivots_t, reduced, columns)
            for (pivots_s, images), (_, basis_s) in sources.items()
            for (pivots_t, _), (_, reduced, columns) in targets.items()
        ]
        table = self._arrow_tables[key] = _ArrowTable(
            source_class, target_class, len(targets), entries
        )
        return table

    def _semisimple_pairs(self, member: Member) -> frozenset[tuple[Member, Member]]:
        """The chosen summands and the rest, for each choice of summands;
        both halves come out sorted, like every member."""
        return frozenset(
            (
                tuple(s for s, c in zip(member, choice) if c),
                tuple(s for s, c in zip(member, choice) if not c),
            )
            for choice in itertools.product((1, 0), repeat=len(member))
        )

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
        p, dims = self.p, rep.dims
        arrows = self.preset.arrows
        nv = len(dims)
        tables = [
            self._arrow_table(m, dims[s], dims[t])
            for m, (s, t) in zip(rep.mats, arrows)
        ]
        # A vertex class is (dimension, class in each table at the vertex),
        # the tables in arrow order, source role before target role.
        columns = [[_frames(d, p).dims] for d in dims]
        # Each arrow is looked up once both of its ends have a class.
        checks = [[] for _ in range(nv)]
        for a, ((s, t), table) in enumerate(zip(arrows, tables)):
            columns[s].append(table.source_class)
            i = len(columns[s]) - 1
            columns[t].append(table.target_class)
            j = len(columns[t]) - 1
            checks[max(s, t)].append((a, s, i, t, j, table.n_targets, table.entries))
        classes = [list(dict.fromkeys(zip(*cols))) for cols in columns]
        chosen, sub_dims = [None] * nv, [0] * nv
        sub_halves, quot_halves = [0] * len(arrows), [0] * len(arrows)
        total = rep.total_dim
        # A nontrivial leaf is its sub dimensions and sub-half ids, then its
        # quotient dimensions and quotient-half ids; distinct stable tuples
        # often give the same leaf, which is then identified once.
        leaves = set()

        def walk(v: int) -> None:
            for c in classes[v]:
                chosen[v] = c
                sub_dims[v] = c[0]
                for a, s, i, t, j, n_t, entries in checks[v]:
                    pair = entries[chosen[s][i] * n_t + chosen[t][j]]
                    if pair is None:
                        break
                    sub_halves[a], quot_halves[a] = pair
                else:
                    if v + 1 < nv:
                        walk(v + 1)
                    elif 0 < sum(sub_dims) < total:
                        leaves.add((
                            *sub_dims, *sub_halves,
                            *map(sub, dims, sub_dims), *quot_halves,
                        ))

        walk(0)
        half_mats, leaf_members = self._half_mats, self._leaf_members
        width = nv + len(arrows)  # of each side: its dimensions and half ids
        pairs = {(ZERO, member), (member, ZERO)}
        for leaf in leaves:
            pair = []
            for key in leaf[:width], leaf[width:]:
                found = leaf_members.get(key)
                if found is None:
                    found = leaf_members[key] = self.identify(Rep(
                        key[:nv], tuple(map(half_mats.__getitem__, key[nv:]))
                    ))
                pair.append(found)
            pairs.add(tuple(pair))
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
        return self._pair_kinds(member, member) == {HomKind.ISO}

    @cached_property
    def _bricks(self) -> tuple[Member, ...]:
        return tuple(
            (n,) for n in self.preset.indec_names if self.is_brick((n,))
        )

    def brick_members(self) -> tuple[Member, ...]:
        return self._bricks

    def mono_ok(self, x: Member, y: Member) -> bool:
        """Every hom element is zero or injective (checked element by element)."""
        return self.hom_dim(x, y) == 0 or HomKind.NONZERO_NON_INJECTION not in (
            self._pair_kinds(x, y)
        )

    def mono_ok_factored(self, x: Member, y: Member) -> bool:
        """Same predicate via common subquotients; kept as a cross-check."""
        common = self.quotient_objects(x) & self.subobjects(y)
        return common <= {ZERO, x}

    def _census(self, pair_ok) -> tuple[frozenset[Member], ...]:
        bricks = self._bricks
        adjacency = [0] * len(bricks)
        for (i, b), (j, c) in itertools.combinations(enumerate(bricks), 2):
            if pair_ok(b, c) and pair_ok(c, b):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
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
        """Adjoin the bricks among the subobjects that map into every member
        by zero or a mono."""
        original = frozenset(bricks)
        candidates = set(self._bricks) - original
        candidates &= set().union(*map(self.subobjects, original))
        return original | {
            n for n in candidates if all(self.mono_ok(n, m) for m in original)
        }

    # ------------------------------------------------------------------
    # subcategory sets (factorisation style)

    def _subcat_mask(self, e) -> int:
        """The mask of a subcategory set, validated in the same pass: it must
        hold the zero module (index 0) and lie inside the universe."""
        index, mask, stray = self.index, 0, set()
        for m in e:
            if m in index:
                mask |= 1 << index[m]
            else:
                stray.add(m)
        if not mask & 1:
            raise OracleError("a subcategory set must contain the zero module")
        if stray:
            raise OracleError(f"members outside the universe: {sorted(stray)}")
        return mask

    def _members_of(self, mask: int) -> frozenset[Member]:
        # bin() lists bits high to low; reversed, character i is bit i
        return frozenset(
            itertools.compress(self.members, map("1".__eq__, bin(mask)[:1:-1]))
        )

    @cached_property
    def _tables(self) -> list[_MemberMasks]:
        """Every member's subquotient table as masks, in universe order."""
        index, tables = self.index, []
        for x in self.members:
            subs = quots = 0
            pairs = []
            for a, q in self.subquotients(x):
                a, q = 1 << index[a], 1 << index[q]
                subs |= a
                quots |= q
                if a != 1 and q != 1:  # the zero module is member 0
                    pairs.append((a, q))
            splits = tuple(sorted({a | q for a, q in pairs}))
            # Members are sorted tuples, so a member less one summand is a
            # member's key; distinct bits sum to their union.
            parts = sum({1 << index[x[:j] + x[j + 1 :]] for j in range(len(x))})
            tables.append(_MemberMasks(splits, subs, quots, tuple(pairs), parts))
        return tables

    @cached_property
    def _watch(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """For each member ``j``, the members ``i`` and split masks of ``i``
        that contain ``j``, as two parallel tuples."""
        members: list[list[int]] = [[] for _ in self.members]
        masks: list[list[int]] = [[] for _ in self.members]
        for i, table in enumerate(self._tables):
            # a split mask holds the bits of a subobject and its quotient,
            # one bit when the two are the same member
            for pm in table.splits:
                low, high = (pm & -pm).bit_length() - 1, pm.bit_length() - 1
                for j in (low, high) if low != high else (low,):
                    members[j].append(i)
                    masks[j].append(pm)
        return [(tuple(m), tuple(pms)) for m, pms in zip(members, masks)]

    def filt(self, gens) -> frozenset[Member]:
        """Close a generating set under extensions: the one closure engine,
        ``_extend_filt``, run from the empty mask."""
        return self._members_of(self._closure(self._subcat_mask([ZERO, *gens])))

    def _closure(self, key: int) -> int:
        """``_extend_filt(0, key)``, memoised on ``key``."""
        hit = self._filt_memo.get(key)
        if hit is None:
            hit = self._filt_memo[key] = self._extend_filt(0, key)
        return hit

    def _extend_filt(self, closed: int, new: int) -> int:
        """Mask of the extension closure of the extension-closed mask
        ``closed`` and the members in the mask ``new``, the oracle's one
        closure engine; ``_filt_memo`` records the closure as its own.

        Every split mask inside ``closed`` already has its member in it, so
        a member can only join through a split that meets what was added:
        each member added is followed by testing just its watch list.
        """
        watch = self._watch
        result = closed | new
        todo = list(bit_indices(new & ~closed))
        while todo:
            for i, pm in zip(*watch[todo.pop()]):
                if not result >> i & 1 and pm & result == pm:
                    result |= 1 << i
                    todo.append(i)
        self._filt_memo[result] = result
        return result

    def subset_closures(self, gens) -> dict[int, ClosureFlags]:
        """Every distinct ``filt`` of a subset of ``gens``, as its least
        generating subset (generator ``i`` in it iff bit ``i`` is set) mapped
        to its flags, in subset order.

        A depth-first search from the closure of the zero module grows each
        closure by one generator past the last one added and outside it.  The
        least generating subset is a path of this search: a generator inside
        the closure of the ones before it could be dropped from it.
        """
        gens = list(gens)
        self._subcat_mask([ZERO, *gens])
        bits = [1 << self.index[g] for g in gens]
        least: dict[int, int] = {}  # closure mask -> least generating subset

        def grow(mask: int, subset: int, start: int) -> None:
            least[mask] = min(least.get(mask, subset), subset)
            for i in range(start, len(bits)):
                if not bits[i] & mask:
                    grow(self._extend_filt(mask, bits[i]), subset | 1 << i, i + 1)

        grow(self._closure(1), 0, 0)  # the zero module is member 0
        return {
            subset: self._closure_flags(mask)
            for subset, mask in sorted((s, m) for m, s in least.items())
        }

    def _simple_indices(self, mask: int, inside: tuple[int, ...]) -> list[int]:
        """The members of ``mask``, whose indices are ``inside``, but the zero
        module (index 0) with no proper nonzero subobject in ``mask``
        together with its quotient."""
        simple, tables = [], self._tables
        for i in inside:
            if not i:
                continue
            for pm in tables[i].splits:
                if pm & mask == pm:
                    break
            else:
                simple.append(i)
        return simple

    def simp(self, e) -> frozenset[Member]:
        """Members with no proper nonzero subobject-quotient split inside e."""
        mask = self._subcat_mask(e)
        simple = self._simple_indices(mask, bit_indices(mask))
        return frozenset(self.members[i] for i in simple)

    def closure_flags(self, e) -> ClosureFlags:
        return self._closure_flags(self._subcat_mask(e))

    def _closure_flags(self, mask: int) -> ClosureFlags:
        """The flags of a subcategory mask, memoised on it."""
        flags = self._flags_memo.get(mask)
        if flags is not None:
            return flags
        inside = bit_indices(mask)
        subs = quots = parts = 0
        # Trivial pairs (0, x) and (x, 0) pass every test below, so only the
        # proper pairs of each member are scanned.
        pairs, tables = [], self._tables
        for i in inside:
            masks = tables[i]
            subs |= masks.subs
            quots |= masks.quots
            parts |= masks.parts
            pairs.append(masks.pairs)
        kernels = all(a & mask for ps in pairs for a, q in ps if q & subs)
        cokernels = all(q & mask for ps in pairs for a, q in ps if a & quots)
        by_dim = Counter(map(self._total_dim.__getitem__, inside))
        skipped = sum(
            n * m
            for d, n in by_dim.items()
            for d2, m in by_dim.items()
            if d + d2 > self.dim_bound
        )
        flags = self._flags_memo[mask] = ClosureFlags(
            # a set is extension-closed iff it is its own filtration closure
            extensions=self._closure(mask) == mask,
            subobjects=not subs & ~mask,
            quotients=not quots & ~mask,
            # removing one summand at a time reaches every sub-multiset
            summands=not parts & ~mask,
            kernels=kernels,
            # a quotient of one member that is a subobject of another
            images=not subs & quots & ~mask,
            cokernels=cokernels,
            skipped_extension_pairs=skipped,
            # no simple has a quotient but 0 and itself that embeds in a member
            left_schur=not any(
                tables[i].quots & subs & ~(1 | 1 << i)
                for i in self._simple_indices(mask, inside)
            ),
        )
        return flags

    def w_map(self, e) -> frozenset[Member]:
        """Members whose every cokernel into the set stays in the set."""
        mask = self._subcat_mask(e)
        inside = bit_indices(mask)
        bad_images, tables = 0, self._tables
        for i in inside:
            for a, q in tables[i].pairs:
                if not q & mask:
                    bad_images |= a
        return frozenset(
            self.members[i]
            for i in inside
            if not tables[i].quots & bad_images
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

    def hom_kind(self, x: Member, y: Member) -> HomKind:
        """Classify the hom space between two members, such as the modules
        of two arcs."""
        d = self.hom_dim(x, y)
        if d == 0:
            return HomKind.ZERO
        if d != 1:
            raise OracleError(
                f"hom space between {x} and {y} has dimension {d}"
            )
        kinds = self._pair_kinds(x, y)
        if len(kinds) != 1:
            raise OracleError(
                f"nonzero maps between {x} and {y} disagree in kind: {kinds}"
            )
        return next(iter(kinds))


@lru_cache(maxsize=None)
def get_oracle(
    preset_name: str, dim_bound: int = DEFAULT_DIM_BOUND, p: int = 2
) -> Oracle:
    return Oracle(get_preset(preset_name, p), dim_bound)
