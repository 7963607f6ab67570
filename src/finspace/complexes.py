"""Order complexes, cellular chain complexes and exact homology.

The order complex of a poset has one simplex per nonempty chain and carries
the weak homotopy type of the corresponding finite space (McCord, Duke Math.
J. 1966), so all invariants here (f-vector, Betti numbers, torsion, Euler
characteristic, boundary ranks over GF(2)) are those of its order complex.
:func:`poset_homology` takes the core first, then tries three routes in
order until one gives the core's homology:

1. the core: ``Poset.core()``, computed once per poset, has the same
   homology, and the poset's own chains are only counted, on its order
   bitmasks;
2. the π1 certificate: a connected core of height at most 2 whose
   fundamental group is certified free of rank r (an edge count at height
   at most 1, Tietze simplification of the Hasse-diagram presentation at
   height 2) has H_1 = Z^r, a free H_2 and no torsion, which with the
   chain counts fixes the profile;
3. the cellular route: a core whose every Û_x has the homology of a sphere
   of dimension h(x) - 1 gets its homology from a chain complex with one
   cell per point, built by height without a single simplex;
4. the order complex of the core, refused with
   :class:`SimplexBudgetExceeded` when it would have more than
   :data:`SIMPLEX_BUDGET` simplices.

Classification reads the same routes, and the certificate of step 2, from
one private function, :func:`_homology_and_pi1`, so Tietze simplification
runs once per classified core.

One type, :class:`ChainComplex` (an f-vector and the boundary maps),
holds both complexes that routes 3 and 4 build: the cellular complex, and
the order complex, whose chains are bitmasks (:func:`order_complex`).  One
function, :func:`homology`, turns a chain complex into a profile; one
assembler, :func:`_profile`, builds every profile from chain counts,
boundary ranks and torsion; one recurrence, :func:`boundary_ranks`, turns
Betti numbers back into boundary ranks.  Everything is exact.  Boundary
matrices are sparse from the start: each row maps the columns of its nonzero
entries to Python integers, and this module is the only one that knows the
format.  Ranks and torsion come from Smith normal form, which eliminates
unit pivots on those rows and expands only the leftover block to dense
lists.  The GF(2) ranks come from an independent bitmask column reduction
of the same matrices, so the two paths cross-check each other.
"""

from __future__ import annotations

import json
from collections import deque
from math import gcd, lcm
from typing import NamedTuple, Sequence

from finspace.posets import Poset, _bits
from finspace.presentations import SimplificationStatus, poset_presentation, tietze_simplify


class ComplexError(ValueError):
    """Malformed chain complex data."""


class _MatrixFields(NamedTuple):
    rows: int
    cols: int
    entries: tuple[dict[int, int], ...]


class IntegerMatrix(_MatrixFields):
    """Sparse exact-integer matrix of shape ``rows`` x ``cols``.

    ``entries[i]`` maps the column of each nonzero entry in row i to its
    value; zeros are never stored.  A NamedTuple cannot define ``__new__``,
    so the fields live in a private base and this subclass checks them.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[dict[int, int], ...]) -> IntegerMatrix:
        if len(entries) != rows or any(
            row and (min(row) < 0 or max(row) >= cols or 0 in row.values()) for row in entries
        ):
            raise ComplexError("matrix shape does not match entries")
        return super().__new__(cls, rows, cols, entries)


class _ComplexFields(NamedTuple):
    f_vector: tuple[int, ...]
    boundaries: tuple[IntegerMatrix, ...]


class ChainComplex(_ComplexFields):
    """A free chain complex: ``f_vector[d]`` generators in degree d, and
    ``boundaries[d - 1]`` the map d_d from degree d to degree d - 1.  The
    constructor checks the shapes, as :class:`IntegerMatrix` checks its
    entries."""

    __slots__ = ()

    def __new__(
        cls, f_vector: tuple[int, ...], boundaries: tuple[IntegerMatrix, ...]
    ) -> ChainComplex:
        if len(boundaries) != max(len(f_vector) - 1, 0) or any(
            (b.rows, b.cols) != f_vector[d : d + 2] for d, b in enumerate(boundaries)
        ):
            raise ComplexError("boundary shapes do not match the f-vector")
        return super().__new__(cls, f_vector, boundaries)


def order_complex(p: Poset) -> ChainComplex:
    """The order complex of ``p``: one generator per nonempty chain, so its
    dimension equals the poset height, and generator x of degree 0 is the
    point x.

    A chain is the bitmask of its points.  The chains of each length are
    those one shorter, each extended by a point above its top, so every
    chain is built once.  A face is the chain minus one bit, with sign
    (-1)^k when k bits of the chain lie below the dropped one: the
    sorted-vertex orientation, under which d_i . d_(i+1) = 0.
    """
    up = p._strict_up
    chains = [1 << x for x in range(p.n)]
    tops = list(range(p.n))
    boundaries: list[IntegerMatrix] = []
    while True:
        longer: list[int] = []
        longer_tops: list[int] = []
        for chain, top in zip(chains, tops):
            for y in _bits(up[top]):
                longer.append(chain | 1 << y)
                longer_tops.append(y)
        if not longer:
            return ChainComplex((p.n, *(b.cols for b in boundaries)), tuple(boundaries))
        row = {chain: r for r, chain in enumerate(chains)}
        entries: list[dict[int, int]] = [{} for _ in chains]
        for c, chain in enumerate(longer):
            for k, x in enumerate(_bits(chain)):
                entries[row[chain ^ 1 << x]][c] = -1 if k & 1 else 1
        boundaries.append(IntegerMatrix(len(chains), len(longer), tuple(entries)))
        chains, tops = longer, longer_tops


class SmithNormalForm(NamedTuple):
    """Invariant factors d_1 | d_2 | ... | d_r (all positive) and rank r."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(m: IntegerMatrix) -> SmithNormalForm:
    """Invariant factors and rank over the integers.

    Sparse elimination on unit pivots comes first (Kaczynski, Mrozek &
    Ślusarek, "Homology computation by reduction of chain complexes", 1998):
    a ±1 entry at (r, c) is cleared by the unimodular row operations
    row_i -= a_ic * a_rc * row_r, after which row r and column c split off as
    one invariant factor 1.  Columns are walked in order and re-queued when
    a pivot row changes them, since that can create a new unit entry.  The
    leftover block holds no unit entry and goes to :func:`_dense_snf`; it is
    empty for most boundary matrices.  The returned factors satisfy the
    divisibility chain and their count is the rational rank.
    """
    rows = [dict(r) for r in m.entries]
    cols: list[set[int]] = [set() for _ in range(m.cols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    units = 0
    pending = deque(range(m.cols))
    queued = [True] * m.cols
    while pending:
        c = pending.popleft()
        queued[c] = False
        col = cols[c]
        # the unit entry whose row is shortest, to limit fill-in
        r = -1
        shortest = 0
        for i in col:
            if rows[i][c] in (1, -1) and (r < 0 or len(rows[i]) < shortest):
                r, shortest = i, len(rows[i])
        if r < 0:
            continue
        units += 1
        pivot_row = rows[r]
        rows[r] = {}
        cols[c] = set()
        u = pivot_row.pop(c)
        col.discard(r)
        for j in pivot_row:
            cols[j].discard(r)
        for i in col:
            row = rows[i]
            f = row.pop(c) * u
            for j, v in pivot_row.items():
                w = row.get(j, 0) - f * v
                if w:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = w
                else:
                    del row[j]
                    cols[j].discard(i)
        for j in pivot_row:
            if not queued[j]:
                queued[j] = True
                pending.append(j)
    left = [row for row in rows if row]
    if not left:
        return SmithNormalForm((1,) * units)
    index = {j: t for t, j in enumerate(sorted({j for row in left for j in row}))}
    rest = _dense_snf(
        IntegerMatrix(
            len(left), len(index), tuple({index[j]: v for j, v in row.items()} for row in left)
        )
    )
    return SmithNormalForm((1,) * units + rest.invariant_factors)


def _dense_snf(m: IntegerMatrix) -> SmithNormalForm:
    """Diagonalize over the integers with min-|pivot| selection.

    Dense and cubic: :func:`smith_normal_form` runs it only on the block its
    sparse pass leaves, and tests use it on whole matrices as the oracle.
    The only place the rows are expanded to dense lists.  Arbitrary-precision
    arithmetic throughout.
    """
    a = [[row.get(j, 0) for j in range(m.cols)] for row in m.entries]
    rows, cols = m.rows, m.cols
    factors: list[int] = []
    t = 0
    while t < min(rows, cols):
        pi = pj = -1
        bestval = 0
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v and (bestval == 0 or abs(v) < bestval):
                    bestval = abs(v)
                    pi, pj = i, j
        if bestval == 0:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // pivot
                    if q:
                        for j in range(t, cols):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // pivot
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, cols):
                a[t][j] += a[offender][j]
        factors.append(abs(a[t][t]))
        t += 1
    return SmithNormalForm(tuple(factors))


def f2_rank(m: IntegerMatrix) -> int:
    """Rank over the two-element field by bitmask column reduction.

    Each column becomes the mask of the rows where its entry is odd: for a
    boundary map, a chain's faces.  It is reduced against the columns kept
    so far, which are indexed by their highest set bit, and kept if
    anything is left; the rank is the number kept.  This is the standard
    reduction of persistent homology (Zomorodian & Carlsson, "Computing
    persistent homology", Discrete Comput. Geom. 2005).  Deliberately
    independent of the Smith normal form path.
    """
    columns = [0] * m.cols
    for i, r in enumerate(m.entries):
        for j, v in r.items():
            if v & 1:
                columns[j] |= 1 << i
    pivots: dict[int, int] = {}
    for mask in columns:
        while mask:
            top = mask.bit_length()
            other = pivots.get(top)
            if other is None:
                pivots[top] = mask
                break
            mask ^= other
    return len(pivots)


class HomologyProfile(NamedTuple):
    """Unreduced integral homology data of a finite complex.

    ``betti[d]`` is the rank of H_d, ``torsion[d]`` its invariant factors
    (each > 1), ``f2_ranks[d]`` is the rank of d_{d+1} over GF(2); reduced
    Betti numbers are the same except one lower in degree zero.
    """

    f_vector: tuple[int, ...]
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    euler: int
    f2_ranks: tuple[int, ...]

    @property
    def has_torsion(self) -> bool:
        return any(self.torsion)

    def to_json_dict(self) -> dict:
        return {
            "f_vector": list(self.f_vector),
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "euler": self.euler,
            "f2_ranks": list(self.f2_ranks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))


def _betti(f: tuple, ranks: tuple) -> tuple[int, ...]:
    """b_d = f_d - rank(d_d) - rank(d_{d+1}), from the ranks of d_1..d_dim."""
    r = (0, *ranks, 0)
    return tuple(c - r[d] - r[d + 1] for d, c in enumerate(f))


def _profile(f: tuple, ranks: tuple, f2_ranks: tuple, torsion: tuple) -> HomologyProfile:
    """The one constructor of profiles: ``ranks`` and ``f2_ranks`` are those
    of d_1..d_dim, ``torsion`` that of H_0, H_1, ..., padded with trivial
    groups; Betti numbers and the Euler characteristic are derived."""
    return HomologyProfile(
        f_vector=f,
        betti=_betti(f, ranks),
        torsion=torsion + ((),) * (len(f) - len(torsion)),
        euler=sum((-1) ** d * c for d, c in enumerate(f)),
        f2_ranks=f2_ranks,
    )


def boundary_ranks(f: tuple[int, ...], betti: tuple[int, ...]) -> tuple[int, ...]:
    """Ranks of d_1..d_dim, over a field or the integers, of a chain complex
    with chain counts ``f`` and Betti numbers ``betti`` (zero where missing):
    rank(d_{d+1}) = f_d - rank(d_d) - b_d with rank(d_0) = 0."""
    ranks = [0]
    for d in range(len(f) - 1):
        ranks.append(f[d] - ranks[d] - (betti[d] if d < len(betti) else 0))
    return tuple(ranks[1:])


def homology(c: ChainComplex) -> HomologyProfile:
    """The profile of a chain complex: Betti numbers and torsion per degree
    from Smith normal forms.

    The torsion of H_d is the set of invariant factors of d_{d+1} exceeding
    one; the GF(2) ranks come from :func:`f2_rank` on the same matrices.
    """
    snfs = [smith_normal_form(b) for b in c.boundaries]
    return _profile(
        c.f_vector,
        tuple(s.rank for s in snfs),
        tuple(f2_rank(b) for b in c.boundaries),
        tuple(tuple(v for v in s.invariant_factors if v > 1) for s in snfs),
    )


def _chain_counts(p: Poset) -> tuple[int, ...]:
    """The f-vector of the order complex of ``p``, without building it.

    The number of (k+1)-chains topped by x is the sum, over y strictly
    below x, of the k-chains topped by y; every element tops one 1-chain.
    All lengths go at once: digit k, in base 2^(n+1), of ``tops[x]`` counts
    the (k+1)-chains topped by x, and a count never exceeds the 2^n - 1
    chains of p, so a digit never carries.  Elements are visited by
    height, so every y below x comes first.
    """
    down = p._strict_down
    width = p.n + 1
    tops = [0] * p.n
    total = 0
    for x in sorted(range(p.n), key=p.element_heights.__getitem__):
        t = 0
        for y in _bits(down[x]):
            t += tops[y]
        t = t << width | 1
        tops[x] = t
        total += t
    digit = (1 << width) - 1
    return tuple(total >> (width * k) & digit for k in range(p.height + 1))


def _cell_matrix(
    boundary: Sequence[dict[int, int]], lower: Sequence[int], upper: Sequence[int]
) -> IntegerMatrix:
    """The boundary map from the cells ``upper`` to the cells ``lower``,
    where ``boundary[x]`` maps each face of cell x to its coefficient."""
    index = {y: r for r, y in enumerate(lower)}
    entries: list[dict[int, int]] = [{} for _ in lower]
    for c, x in enumerate(upper):
        for y, v in boundary[x].items():
            entries[index[y]][c] = v
    return IntegerMatrix(len(entries), len(upper), tuple(entries))


def _kernel_vector(m: IntegerMatrix) -> list[int]:
    """The primitive integer vector spanning the kernel of ``m``, which must
    have rank 1.

    Gauss-Jordan elimination in integers (a row is scaled, never divided,
    and then cut by the gcd of its entries) leaves each pivot row with its
    pivot p and an entry q in the one free column; setting the free
    variable to the lcm L of the pivots gives the pivot's variable
    -q * L / p.  Dividing by the gcd makes the vector primitive, and a
    primitive vector generates the integer kernel, because that kernel is
    its rational span intersected with Z^cols.  The first nonzero entry is
    positive.
    """
    a = [[row.get(j, 0) for j in range(m.cols)] for row in m.entries]
    pivots: list[int] = []
    for c in range(m.cols):
        r = len(pivots)
        found = next((i for i in range(r, m.rows) if a[i][c]), None)
        if found is None:
            continue
        a[r], a[found] = a[found], a[r]
        top, lead = a[r], a[r][c]
        for i in range(m.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                row = [lead * v - f * w for v, w in zip(a[i], top)]
                k = gcd(*row)
                a[i] = [v // k for v in row] if k > 1 else row
        pivots.append(c)
    free = [c for c in range(m.cols) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"kernel has rank {len(free)}, not 1")
    scale = lcm(*(a[r][c] for r, c in enumerate(pivots)))
    x = [0] * m.cols
    x[free[0]] = scale
    for r, c in enumerate(pivots):
        x[c] = -a[r][free[0]] * (scale // a[r][c])
    g = gcd(*x) * (1 if next(v for v in x if v) > 0 else -1)
    return [v // g for v in x]


def _sphere_boundary(
    boundary: Sequence[dict[int, int]], cells: list[Sequence[int]]
) -> dict[int, int] | None:
    """The boundary of a cell of height h = len(cells) whose punctured
    down-set has the cells ``cells[k]`` in degree k: a generator of its top
    homology.  None unless that down-set has the integral homology of
    S^(h-1).

    The Euler characteristic needs only the cell counts and goes first.
    Then each d_k of the reduced complex (the augmentation, then
    d_1..d_(h-1)) must leave no homology and no torsion in degree k-1; with
    the Euler characteristic of a sphere, that leaves rank 1 at the top,
    the kernel of d_(h-1).
    """
    top = len(cells) - 1
    if sum((-1) ** k * len(c) for k, c in enumerate(cells)) != 1 + (-1) ** top:
        return None
    rank = 1  # of the augmentation
    for k in range(1, top + 1):
        m = _cell_matrix(boundary, cells[k - 1], cells[k])
        snf = smith_normal_form(m)
        if len(cells[k - 1]) != rank + snf.rank or any(v > 1 for v in snf.invariant_factors):
            return None
        rank = snf.rank
    return {x: v for x, v in zip(cells[top], _kernel_vector(m)) if v}


def _cellular_complex(p: Poset) -> ChainComplex | None:
    """The cellular chain complex of ``p``, or None if p is not cellular.

    p is cellular when every Û_x, the points strictly below x, has the
    integral homology of the sphere S^(h(x)-1), where h(x) is the height of
    x (Minian, "Some remarks on Morse theory for posets, homological Morse
    theory and finite manifolds", Topology Appl. 2012; Barmak, LNM 2032).
    Then the chains of degree d are free on the points of height d, and
    the boundary of x generates H_(h(x)-1)(Û_x), written in the points of
    height h(x)-1.  Û_x is a down-set, so its own cellular complex is built
    by the time x is reached in a walk by height, and the walk stops at the
    first point that fails: at height 1, Û_x must be two points a < b, and
    the boundary is a - b; above that, see :func:`_sphere_boundary`.
    """
    down = p._strict_down
    level = [0] * (p.height + 1)
    for x, h in enumerate(p.element_heights):
        level[h] |= 1 << x
    boundary: list[dict[int, int]] = [{}] * p.n  # replaced above height 0
    for h in range(1, p.height + 1):
        for x in _bits(level[h]):
            below = down[x]
            if h == 1:
                if below.bit_count() != 2:
                    return None
                a, b = _bits(below)
                d: dict[int, int] | None = {a: 1, b: -1}
            else:
                d = _sphere_boundary(boundary, [_bits(below & m) for m in level[:h]])
            if d is None:
                return None
            boundary[x] = d
    cells = [_bits(m) for m in level]
    return ChainComplex(
        tuple(map(len, cells)),
        tuple(_cell_matrix(boundary, cells[d - 1], cells[d]) for d in range(1, len(cells))),
    )


SIMPLEX_BUDGET = 20_000
"""The most simplices :func:`poset_homology` builds: the order complex of a
core that is neither cellular nor certified by its π1 and has more chains
raises :class:`SimplexBudgetExceeded` before any simplex is built.  Smith
normal form, not the complex, takes most of the time, and it grows faster
than the count.  On iterated suspensions of a three-point antichain, whose
cores are not cellular, the build, Smith normal form and the GF(2) column
reduction take 0.04, 0.12 and 0.02 s at 8,747 simplices, 0.10, 0.42 and
0.07 s at 26,243, and 0.46, 2.0 and 0.49 s at 78,731 (best of 3, one run
at 78,731; 2-CPU Xeon host, Python 3.11).  The core of every fixture and
of every benchmark query has at most 728 chains."""


class SimplexBudgetExceeded(ValueError):
    """The order complex needed for a homology profile is over budget."""


def poset_homology(p: Poset) -> HomologyProfile:
    """Homology of the order complex; the weak homotopy invariants of p.

    Computed on the core: removing a beat point is a strong deformation
    retract, so p and its core have the same Betti numbers, torsion and
    GF(2) Betti numbers.  The core's homology comes from the first route
    that answers: its π1 certificate if it is connected, of height at most
    2 and certified free (:func:`_pi1_certificate`), else its cellular
    chain complex if it is cellular, else its order complex, which raises
    :class:`SimplexBudgetExceeded` if it would have more than
    :data:`SIMPLEX_BUDGET` simplices.  The f-vector is p's, from
    :func:`_chain_counts`, and p's boundary ranks over the integers and
    over GF(2) follow from it and the core's Betti numbers by
    :func:`boundary_ranks`.
    """
    return _homology_and_pi1(p)[0]


def _homology_and_pi1(p: Poset) -> tuple[HomologyProfile, SimplificationStatus | None]:
    """:func:`poset_homology` and the π1 certificate of p's core that it
    read, so that classification labels p without simplifying again.

    A certificate free of rank r fixes the homology: H_1, the
    abelianization of π1, is Z^r; H_2 of a 2-complex is free, with rank
    χ - 1 + r by the Euler characteristic, which p shares with its core;
    nothing has torsion, so the GF(2) ranks equal the integer ranks.
    """
    f = _chain_counts(p)
    core = p.core()
    status = _pi1_certificate(core)
    if status is not None and status.is_conclusive:
        euler = sum((-1) ** d * c for d, c in enumerate(f))
        ranks = boundary_ranks(f, (1, status.rank, euler - 1 + status.rank))
        return _profile(f, ranks, ranks, ()), status
    chains = _cellular_complex(core)
    if chains is None:
        count = sum(f if core is p else _chain_counts(core))
        if count > SIMPLEX_BUDGET:
            raise SimplexBudgetExceeded(
                f"the {core.n}-point core is neither cellular nor certified by its π1, "
                f"and its order complex has {count} simplices, over the budget of "
                f"{SIMPLEX_BUDGET}"
            )
        chains = order_complex(core)
    h = homology(chains)
    f2_betti = _betti(h.f_vector, h.f2_ranks)
    return _profile(f, boundary_ranks(f, h.betti), boundary_ranks(f, f2_betti), h.torsion), status


def _pi1_certificate(p: Poset) -> SimplificationStatus | None:
    """The π1 certificate of a connected poset of height at most 2, or None
    for any other poset, whose homology π1 does not fix.

    At height at most 1 the order complex is a graph, whose π1 is free of
    rank E - V + 1: a spanning tree is contractible, and each other edge
    adds a free generator.  At height 2 it is Tietze simplification of the
    Hasse-diagram presentation, which may stop inconclusive.
    """
    if not p.is_connected or p.height > 2:
        return None
    if p.height <= 1:
        edges = sum(map(int.bit_count, p._strict_up))
        return SimplificationStatus.free_of_rank(edges - p.n + 1)
    return tietze_simplify(poset_presentation(p))
