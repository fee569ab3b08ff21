"""Finite-field model of module categories over the bundled quiver presets.

Members of the model are multisets of indecomposable names (``()`` is the
zero module), kept up to a total dimension bound.  Identification of an
arbitrary representation works by dimension vector plus hom-dimension
fingerprint against the indecomposables; the fingerprint table is checked
for collisions up front so a lookup can never be ambiguous.

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
union of its quotients.  ``filt``, ``simp`` and the extension flag then share
one split predicate, ``_splits_in``: some pair mask lies inside the set.  The
other closure flags are ANDs and ORs of the unions.  ``filt`` (generator
mask to closure) and ``closure_flags`` (set mask to flags) are memoised per
oracle, after the set has been checked.

A subquotient table lists the (subobject, quotient) pairs of one member,
one per tuple of subspaces, one subspace per vertex, that every arrow maps
into itself.  Whether a tuple is stable across an arrow, and that arrow's
block in the sub- and quotient representation, depend only on the arrow's
matrix and on the two subspaces.  So each distinct arrow matrix gets one
dense table, built on first use and shared by every member carrying that
matrix: indexed by the positions of the two subspaces in ``fp.subspaces``,
it holds an interned block-pair id or a sentinel for unstable pairs.  A
member's table then walks the subspace tuples vertex by vertex, drops a
tuple at the first unstable arrow, and assembles the sub- and quotient
representations from looked-up blocks before identifying them.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from monobrick import fp
from monobrick.arcs import Arc, HomKind, socle_series
from monobrick.diagrams import iter_index_cliques
from monobrick.poset import covering_pairs, maximal_elements
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
    if x_dims != y_dims:
        return False
    return element_is_injective(element, x_dims, p)


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
        self._identify_cache: dict[Rep, Member] = {}
        self._table_cache: dict[Member, frozenset[tuple[Member, Member]]] = {}
        self._hom_basis_cache: dict[tuple[Member, Member], tuple] = {}
        self._arrow_tables: dict[tuple[fp.Matrix, int, int], array] = {}
        self._blocks: list[tuple[fp.Matrix, fp.Matrix]] = []
        self._block_ids: dict[tuple[fp.Matrix, fp.Matrix], int] = {}

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
        self._flags_memo: dict[int, ClosureFlags] = {}
        self._total_dim = {m: self.dim_of(m) for m in self.members}
        self._by_dims: dict[tuple[int, ...], list[Member]] = {}
        for m in self.members:
            self._by_dims.setdefault(self.dims_of(m), []).append(m)
        self._fingerprint_to: dict[Member, tuple[int, ...]] = {}
        self._fingerprint_from: dict[Member, tuple[int, ...]] = {}
        self._check_fingerprints()
        self._simple_at_vertex = self._locate_simples()

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

    def member_from_names(self, names) -> Member:
        member = tuple(sorted(names, key=self._order.__getitem__))
        if member not in self.index:
            raise OracleError(f"{member} lies outside the modelled universe")
        return member

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
        indecs = [(n,) for n in self.preset.indec_names]
        seen: dict[tuple, Member] = {}
        for m in self.members:
            to = tuple(self.hom_dim(m, n) for n in indecs)
            frm = tuple(self.hom_dim(n, m) for n in indecs)
            self._fingerprint_to[m] = to
            self._fingerprint_from[m] = frm
            key = (self.dims_of(m), to, frm)
            if key in seen:
                raise OracleError(
                    f"fingerprint collision between {seen[key]} and {m}"
                )
            seen[key] = m

    def _locate_simples(self) -> tuple[str, ...]:
        out = []
        for v in range(self.preset.num_vertices):
            indicator = tuple(
                1 if w == v else 0 for w in range(self.preset.num_vertices)
            )
            matches = [
                n
                for n, r in zip(self.preset.indec_names, self.preset.indec_reps)
                if r.dims == indicator
            ]
            if len(matches) != 1:
                raise OracleError(f"no unique simple at vertex {v + 1}")
            out.append(matches[0])
        return tuple(out)

    # ------------------------------------------------------------------
    # hom spaces

    def _hom_system(self, x: Rep, y: Rep) -> tuple[list[tuple[int, ...]], int, list[int]]:
        nv = len(x.dims)
        offsets = []
        total = 0
        for v in range(nv):
            offsets.append(total)
            total += x.dims[v] * y.dims[v]
        rows = []
        p = self.p
        for a, (s, t) in enumerate(self.preset.arrows):
            xa, ya = x.mats[a], y.mats[a]
            for i in range(x.dims[s]):
                for j in range(y.dims[t]):
                    row = [0] * total
                    for k in range(x.dims[t]):
                        row[offsets[t] + k * y.dims[t] + j] = (
                            row[offsets[t] + k * y.dims[t] + j] + xa[i][k]
                        ) % p
                    for k in range(y.dims[s]):
                        row[offsets[s] + i * y.dims[s] + k] = (
                            row[offsets[s] + i * y.dims[s] + k] - ya[k][j]
                        ) % p
                    if any(row):
                        rows.append(tuple(row))
        return rows, total, offsets

    def _hom_dim_reps(self, x: Rep, y: Rep) -> int:
        rows, total, _ = self._hom_system(x, y)
        return total - fp.rank(rows, self.p)

    def _hom_basis_reps(self, x: Rep, y: Rep) -> list[tuple[fp.Matrix, ...]]:
        rows, total, _ = self._hom_system(x, y)
        flats = fp.kernel_basis(tuple(rows), total, self.p)
        return [_unpack_element(f, x.dims, y.dims) for f in flats]

    def hom_dim(self, x: Member, y: Member) -> int:
        """Additive over summands, so no linear algebra is needed here."""
        cx, cy = Counter(x), Counter(y)
        return sum(
            cx[a] * cy[b] * self._indec_hom[self._order[a]][self._order[b]]
            for a in cx
            for b in cy
        )

    def hom_basis(self, x: Member, y: Member) -> list[tuple[fp.Matrix, ...]]:
        cached = self._hom_basis_cache.get((x, y))
        if cached is None:
            cached = tuple(self._hom_basis_reps(self.rep_of(x), self.rep_of(y)))
            self._hom_basis_cache[(x, y)] = cached
        return list(cached)

    def _expand(self, basis, x_dims, y_dims, include_zero: bool):
        """Yield the combination of ``basis`` for every coefficient vector."""
        p = self.p
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            if not include_zero and not any(coeffs):
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

    def hom_elements(self, x: Member, y: Member, include_zero: bool = False):
        """Yield every (or every nonzero) hom element as per-vertex matrices."""
        basis = self.hom_basis(x, y)
        if self.p ** len(basis) > _ELEMENT_BUDGET:
            raise OracleError(
                f"hom space of dimension {len(basis)} is too large to iterate"
            )
        yield from self._expand(basis, self.dims_of(x), self.dims_of(y), include_zero)

    # ------------------------------------------------------------------
    # identification

    def identify(self, rep: Rep, strict: bool = False) -> Member:
        if not strict:
            hit = self._identify_cache.get(rep)
            if hit is not None:
                return hit
        candidates = list(self._by_dims.get(rep.dims, ()))
        if candidates and len(candidates) > 1:
            for j, indec_rep in enumerate(self.preset.indec_reps):
                d = self._hom_dim_reps(rep, indec_rep)
                candidates = [
                    m for m in candidates if self._fingerprint_to[m][j] == d
                ]
                if len(candidates) <= 1:
                    break
            if len(candidates) > 1:
                for j, indec_rep in enumerate(self.preset.indec_reps):
                    d = self._hom_dim_reps(indec_rep, rep)
                    candidates = [
                        m for m in candidates if self._fingerprint_from[m][j] == d
                    ]
                    if len(candidates) <= 1:
                        break
        if len(candidates) != 1:
            raise OracleError(
                f"representation with dimensions {rep.dims} matches "
                f"{len(candidates)} members; the indecomposable list cannot "
                "be complete"
            )
        member = candidates[0]
        if strict:
            to = tuple(
                self._hom_dim_reps(rep, r) for r in self.preset.indec_reps
            )
            frm = tuple(
                self._hom_dim_reps(r, rep) for r in self.preset.indec_reps
            )
            if to != self._fingerprint_to[member] or frm != self._fingerprint_from[member]:
                raise OracleError(
                    f"fingerprint audit failed for a representation matched "
                    f"to {member}"
                )
        self._identify_cache[rep] = member
        return member

    def assert_isomorphic(self, rep: Rep, member: Member) -> None:
        """Audit fallback: search for an invertible map element by element."""
        target = self.rep_of(member)
        if rep.dims != target.dims:
            raise OracleError(f"{member} has different dimensions than the input")
        basis = self._hom_basis_reps(rep, target)
        if self.p ** len(basis) > _ELEMENT_BUDGET:
            raise OracleError("hom space too large for the exhaustive audit")
        for element in self._expand(basis, rep.dims, target.dims, False):
            if element_is_invertible(element, rep.dims, target.dims, self.p):
                return
        raise OracleError(f"no isomorphism onto {member} exists")

    # ------------------------------------------------------------------
    # subquotient tables

    def _arrow_table(self, mat: fp.Matrix, d_s: int, d_t: int) -> array:
        """Block-pair ids of one arrow matrix over all pairs of subspaces.

        Entry ``i * n_t + j``, with ``n_t = len(fp.subspaces(d_t, p))``,
        covers source subspace ``fp.subspaces(d_s, p)[i]`` and target
        subspace ``fp.subspaces(d_t, p)[j]``.  It is ``_UNSTABLE`` unless
        the matrix maps the first into the second; otherwise it is the id
        in ``self._blocks`` of the arrow's (sub block, quotient block): the
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

        def source(space):
            # the basis, its images, and the non-pivot (quotient) coordinates
            basis, pivots = space
            images = [fp.vec_mat(u, mat, p) for u in basis]
            return basis, images, [c for c in range(d_s) if c not in pivots]

        def target(space):
            # every matrix row reduced modulo the space, at its non-pivots,
            # and the same numbers by column
            basis, pivots = space
            free = [c for c in range(d_t) if c not in pivots]
            reduced = [fp.reduce_vec(row, basis, pivots, p) for row in mat]
            reduced = [tuple(r[c] for c in free) for r in reduced]
            return pivots, reduced, list(zip(*reduced))

        def entry(src, tgt) -> int:
            basis_s, images, free_s = src
            pivots_t, reduced, columns = tgt
            # Reduction modulo the target is linear, so u M lies in it iff
            # u times the reduced rows vanishes.
            for u in basis_s:
                for col in columns:
                    if sum(x * y for x, y in zip(u, col)) % p:
                        return _UNSTABLE
            pair = (
                tuple(tuple(im[c] for c in pivots_t) for im in images),
                tuple(reduced[c] for c in free_s),
            )
            bid = block_ids.get(pair)
            if bid is None:
                bid = block_ids[pair] = len(blocks)
                blocks.append(pair)
            return bid

        sources, targets = fp.subspaces(d_s, p), fp.subspaces(d_t, p)
        n_t = len(targets)
        table = array("i", [_UNSTABLE]) * (len(sources) * n_t)
        # Only the shorter side is prepared up front: the other one may run
        # to tens of thousands of subspaces (42,176 in F_5^5).
        if len(sources) <= n_t:
            prepared = [source(space) for space in sources]
            for j, space in enumerate(targets):
                tgt = target(space)
                for i, src in enumerate(prepared):
                    table[i * n_t + j] = entry(src, tgt)
        else:
            prepared = [target(space) for space in targets]
            for i, space in enumerate(sources):
                src = source(space)
                for j, tgt in enumerate(prepared):
                    table[i * n_t + j] = entry(src, tgt)
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
            pairs.add(
                (
                    tuple(sorted(sub, key=self._order.__getitem__)),
                    tuple(sorted(quot, key=self._order.__getitem__)),
                )
            )
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
        """Identify the sub and quotient of every nontrivial stable tuple."""
        p, dims, blocks = self.p, rep.dims, self._blocks
        arrows = self.preset.arrows
        nv = len(dims)
        spaces = [fp.subspaces(d, p) for d in dims]
        space_dims = [[len(basis) for basis, _ in sp] for sp in spaces]
        # Each arrow is looked up once both of its ends have a subspace.
        checks = [[] for _ in range(nv)]
        for a, (s, t) in enumerate(arrows):
            table = self._arrow_table(rep.mats[a], dims[s], dims[t])
            checks[max(s, t)].append((a, s, t, len(spaces[t]), table))
        total = rep.total_dim
        chosen = [0] * nv
        ids = [0] * len(arrows)
        seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        pairs = {(ZERO, member), (member, ZERO)}

        def walk(v: int) -> None:
            if v == nv:
                sub_dims = tuple(space_dims[w][chosen[w]] for w in range(nv))
                key = (sub_dims, tuple(ids))
                if sum(sub_dims) in (0, total) or key in seen:
                    return
                seen.add(key)
                sub = Rep(sub_dims, tuple(blocks[b][0] for b in ids))
                quot = Rep(
                    tuple(d - k for d, k in zip(dims, sub_dims)),
                    tuple(blocks[b][1] for b in ids),
                )
                pairs.add((self.identify(sub), self.identify(quot)))
                return
            for x in range(len(spaces[v])):
                chosen[v] = x
                for a, s, t, n_t, table in checks[v]:
                    bid = table[chosen[s] * n_t + chosen[t]]
                    if bid == _UNSTABLE:
                        break
                    ids[a] = bid
                else:
                    walk(v + 1)

        walk(0)
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

    def brick_members(self) -> tuple[Member, ...]:
        return tuple(
            (n,) for n in self.preset.indec_names if self.is_brick((n,))
        )

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

    def _census(self, pair_ok) -> list[frozenset[Member]]:
        bricks = self.brick_members()
        adjacency = []
        for i, b in enumerate(bricks):
            mask = 0
            for j, c in enumerate(bricks):
                if i != j and pair_ok(b, c) and pair_ok(c, b):
                    mask |= 1 << j
            adjacency.append(mask)
        return [
            frozenset(bricks[i] for i in chosen)
            for chosen in iter_index_cliques(adjacency)
        ]

    def monobricks(self) -> list[frozenset[Member]]:
        return self._census(self.mono_ok)

    def semibricks(self) -> list[frozenset[Member]]:
        return self._census(lambda x, y: self.hom_dim(x, y) == 0)

    # ------------------------------------------------------------------
    # brick poset, maximal elements, closure

    def brick_leq(self, a: Member, b: Member) -> bool:
        return a == b or a in self.subobjects(b)

    def mmax(self, bricks) -> frozenset[Member]:
        return frozenset(maximal_elements(list(bricks), self.brick_leq))

    def brick_covers(self, bricks) -> frozenset[tuple[Member, Member]]:
        return frozenset(covering_pairs(list(bricks), self.brick_leq))

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

    def _splits_in(self, i: int, e: int) -> bool:
        """Does some proper nonzero subobject of member ``i`` lie in the
        mask ``e`` with its quotient?"""
        for pm in self._member_masks(i).splits:
            if pm & e == pm:
                return True
        return False

    def _unions(self, inside: list[int]) -> tuple[int, int]:
        """Masks of all subobjects and of all quotients of the given members."""
        subs = quots = 0
        for i in inside:
            masks = self._member_masks(i)
            subs |= masks.subs
            quots |= masks.quots
        return subs, quots

    def filt(self, gens) -> frozenset[Member]:
        """Close a generating set under extensions, one dimension at a time.

        A member joins once some proper nonzero subobject and the matching
        quotient are both already in; sweeping members by increasing total
        dimension makes a single pass sufficient, because both halves of any
        witnessing pair are strictly smaller.
        """
        gens = self._require_subcat(set(gens) | {ZERO})
        return self._filt_of(self._mask_of(gens))

    def _filt_of(self, key: int) -> frozenset[Member]:
        """``filt`` of the set with mask ``key``, memoised.  The result is
        closed, so it is memoised as its own closure too."""
        hit = self._filt_memo.get(key)
        if hit is None:
            result = key
            for i in range(len(self.members)):
                if not result >> i & 1 and self._splits_in(i, result):
                    result |= 1 << i
            hit = self._filt_memo.get(result)
            if hit is None:
                hit = self._filt_memo[result] = self._members_of(result)
            self._filt_memo[key] = hit
        return hit

    def _simple_indices(self, inside: list[int], mask: int) -> list[int]:
        """The members among ``inside`` with no split in ``mask``, except
        the zero module (index 0)."""
        return [i for i in inside if i and not self._splits_in(i, mask)]

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
            # e is extension-closed iff it is its own filtration closure,
            # which contains it
            extensions=len(self._filt_of(mask)) == len(e),
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

    def is_left_schur_elementwise(self, e) -> bool:
        """Literal reading: every nonzero map out of a simple is injective.

        Only usable when the hom spaces involved are small; the factored
        version above is the production route.
        """
        e = self._require_subcat(e)
        for m in self.simp(e):
            dims = self.dims_of(m)
            for x in e - {ZERO}:
                for el in self.hom_elements(m, x):
                    if not element_is_injective(el, dims, self.p):
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
            rows = []
            for i in range(rep.dims[v]):
                row: list[int] = []
                for a in arrows_out:
                    row.extend(rep.mats[a][i])
                rows.append(tuple(row))
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
