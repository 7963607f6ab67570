"""Exhaustive generation of small poset cores up to isomorphism.

One layered core generator lives here, for connected beat-point-free
posets of height two (:func:`enumerate_height2_cores`) and height one
(:func:`enumerate_height1_cores`), stratified by element height into a
:class:`LevelShape`; a height-1 shape has no height-2 elements.  The tests
check it against a generator of every poset on up to seven points.

The core generator builds 0/1 incidence matrices level by level through one
orderly row generator, :func:`_orderly_rows`: first the minimal-set rows of
the height-1 elements, then, for height two, the rows of the height-2
elements over the levels below.  Rows come as non-increasing bitmask
tuples, which removes row symmetry.  Column symmetry is removed as the rows
are built: two adjacent columns that are equal over the rows so far are
*tied*, and the next row may not put a 1 in the lower of two tied columns
and a 0 in the higher one (every matrix can be brought into this form by
permuting its rows and columns; Lubiw, "Doubly lexical orderings of
matrices", SIAM J. Comput. 1987).  A rejected row cuts off its whole subtree.
While the rows are read, a candidate is dropped if it would have a beat
point (the row rules below), before its masks are built; at n = 10 the
extras that rules 4 and 5 ask of the minimals drop 6,618 of 12,037
height-2 candidates.
Every remaining candidate then goes through one filter: the comparability
graph is connected (the mask helper of :mod:`finspace.posets`; 5,417 of
the 5,419 left at n = 10), and the first member of each class, by
canonical code, is kept.  A candidate is coded straight from its masks,
and a :class:`~finspace.posets.Poset` is built only for the first member
of a class, without the constructor's checks: each row names only
elements of lower levels, closed downwards, so the masks are an order by
construction.

The column rule never rejects that first member.  Without the rule the
generation order is descending lexicographic, so the first member of a
class is its lexicographically greatest one.  If it broke the rule,
swapping the two tied columns would keep the earlier rows, raise the
offending row, and so give a greater member of the same class.  The kept
representatives are therefore exactly those of plain row-sorted
generation.

A second, direct test of lexicographic maximality (orderly generation
after Read, "Every one a winner", Ann. Discrete Math. 1978) drops most
remaining duplicates before they are coded, :func:`_column_swaps`.  It
transposes two minimal columns, swapping their bits in every middle row
and re-sorting the middle rows in descending order.  If that gives greater
middles, the candidate is dropped, and at height two so is every set of
tops over those middles.  If it gives the same middles, each top is
re-encoded as ``smask << m0 | emask`` under the induced middle order and
the swapped minimals, and the tops are re-sorted; greater tops drop the
candidate.  Either way the swapped pair of middles and tops is a member of
the candidate's class that is lexicographically greater, so the candidate
is not the first member of its class and the code dedupe would drop it
too.  The first member is the greatest one, so no swap beats it.  The
output is unchanged, and the canonical code stays the exact dedupe.

The row rules are the one definition of a core here (a connected poset
with no beat point; Stong, "Finite topological spaces", Trans. AMS 1966):
no candidate that passes them has a beat point, and a connected candidate
fails them only if it has one.  The argument goes by the kind of element.
Call the elements minimals, middles (the height-1 elements, the top level
at height one) and tops (the height-2 elements).  A top's row is ``smask
<< m0 | emask``: the middles below it and its *extras*, the minimals it
covers directly, none of them below a middle in ``smask``.  An element is
a down beat point iff its strict down-set has exactly one maximal element,
and an up beat point iff its strict up-set has exactly one minimal one.

1. A middle's strict down-set is its minimals, so it is no down beat
   point: middle rows have at least two bits (``_descending_masks(m0,
   2)``).
2. The maximal elements under a top are its middles and its extras, so a
   top with one middle takes at least one extra.
3. No element of the level under the top level lies below exactly one
   element of the top level.  Its strict up-set lies in the top level, an
   antichain, so it is an up beat point iff that set has one element.
   One lone-column test serves both heights: the top level's rows are
   drawn by :func:`_orderly_rows` with the columns of the level under it
   as ``lone``, the minimals at height one and the middles at height two.
   Rows are drawn in non-increasing order, so a column's count is final
   once a row below its bit is chosen, and the subtree is cut there.
4. The minimal elements over a minimal x of a height-2 candidate are the
   middles above x and the tops taking x as an extra, since an extra is
   never below its top's middles.  So a minimal under exactly one middle
   is an extra of some chosen top, and such a top is never above that
   middle.
5. A minimal under no middle is an extra of at least two chosen tops:
   with one, that top is the minimum over x, and with none, x is
   isolated.
6. The height-1 transposed reading below keeps all of this, because it is
   the order dual, and duality swaps down and up beat points.

Minimals have no down beat point and tops no up beat point, so the rules
exclude every beat point.  Each rejects only a candidate with a beat point
or, in rule 5, an isolated minimal.

Each kept core leaves the generator with the invariants it already has set
on it (:func:`_kept`), as its canonical code is, so that classification
recomputes none of them: it is connected (the filter just checked), it
is its own core (the row rules leave no beat point, and ``_core`` is
``None``, as :meth:`~finspace.posets.Poset.core` leaves it on a core), its
element heights are the level indices, and a height-1 core is homogeneous.
The level index is the element height.  A minimal's row is empty, so its
height is 0.  A middle's row has at least two bits (rule 1), all of them
minimals, so its height is 1.  A top's row is ``smask << m0 | emask`` with
``smask >= 1``, so some middle lies below it and its height is at least 2;
everything below it is a middle or a minimal, so its height is exactly 2.
The wide height-1 reading puts the narrow middles first, with nothing below
them (height 0), and each narrow minimal over the middles above it, of
which there are at least two by rule 3 (height 1).  The heights are thus
one tuple per shape, :func:`_stratum_heights`, shared by all its cores.
A height-1 core is homogeneous: with n >= 2 a connected poset has no
isolated point, so every maximal element has height 1, and every cover
joins a minimal (height 0) to a maximal (height 1), which is the test of
``Poset.is_homogeneous``.  At height two a top with an extra
covers a minimal directly, so the chain from that minimal to the top is
maximal and too short; homogeneity is left to be computed there.

Height-1 masks take the smaller level as their columns, so a shape with
more minimals than maximals is not generated on its own.  Its cores are
the kept cores of the transposed shape, each read once more as the
minimals' up-sets instead of the maximals' down-sets.  Transposing is the
order duality, which keeps connectivity and beat points, so both readings
see the same row sequence and split it into classes alike: the wide
classes match the narrow ones one for one, and the first wide member of
each class, the one generating the wide shape on its own would keep, is
the reading of the first narrow member.  The reading is the narrow core's
dual, so it also hands each of the two classes its partner's canonical
code (``Poset.dual_code``), and classifying them codes nothing again.  A
poset and its dual have the same automorphisms, so the reading's search
starts from those the narrow core's search found, moved to the wide
positions, and they are dropped once the reading is coded.  A
square shape (as many minimals as maximals) has no wide reading; its
cores, like the height-2 cores, code their duals when first asked, and
classification asks once per dual pair.  No dual ``Poset`` is built at
either height: ``dual_code`` codes a poset's own masks read the other way
round.

Cheap arithmetic facts prune the height-2 search further: level shapes
with any class smaller than two are skipped outright (:func:`level_shapes`).
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, NamedTuple

from finspace.posets import Poset, _code, _connected, _transpose

HEIGHT2_CAP = 11
HEIGHT1_CAP = 12


class SizeTooLarge(ValueError):
    """Requested size exceeds the generator's cap."""


def check_cap(n: int, height: int) -> None:
    """Raise :class:`SizeTooLarge` if ``n`` exceeds the cap of the
    height-``height`` core generator, and :class:`ValueError` for a height
    other than 1 or 2, which no generator serves."""
    if height not in (1, 2):
        raise ValueError("height must be 1 or 2")
    cap = HEIGHT1_CAP if height == 1 else HEIGHT2_CAP
    if n > cap:
        raise SizeTooLarge(f"height-{height} core enumeration is capped at {cap}")


class LevelShape(NamedTuple):
    """Sizes of the height-2, height-1 and height-0 element classes."""

    m2: int
    m1: int
    m0: int


def _descending_masks(width: int, min_bits: int) -> list[int]:
    return [m for m in range((1 << width) - 1, 0, -1) if m.bit_count() >= min_bits]


def _all_tied(width: int) -> int:
    """Ties mask with every adjacent pair of ``width >= 1`` columns tied."""
    return (1 << width) - 2


def _orderly_rows(
    choices: list[int], nrows: int, ties: int, lone: int = 0
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(rows, ties)`` for every non-increasing ``nrows``-tuple drawn
    from the descending list ``choices`` that keeps tied columns ordered
    and sets no column of the mask ``lone`` in exactly one row.

    Bit k of ``ties`` says columns k-1 and k are equal over the rows chosen
    so far.  A row with a 1 in column k-1 and a 0 in column k of a tied pair
    is rejected with every extension of it; an accepted row unties each pair
    it tells apart.  The yielded ``ties`` holds the pairs still tied after
    the last row.  The rows are non-increasing, so no later row sets a
    column at or above the highest bit of the last row chosen: a ``lone``
    column there set in exactly one row rejects the row with every
    extension of it.
    """

    def extend(prefix: tuple[int, ...], start: int, ties: int, once: int, twice: int):
        if len(prefix) == nrows:
            yield prefix, ties
            return
        last = len(prefix) + 1 == nrows
        for at in range(start, len(choices)):
            row = choices[at]
            if ties & (row << 1) & ~row:
                continue
            more = twice | once & row
            single = (once | row) & ~more & lone  # set in exactly one row
            if single and (last or single >> row.bit_length()):
                continue
            yield from extend(prefix + (row,), at, ties & ~(row ^ (row << 1)), once | row, more)

    return extend((), 0, ties, 0, 0)


@cache
def _swap_tables(width: int) -> list[list[int]]:
    """For each pair of columns a < b of ``width``, nearest pairs first (they
    most often reject), the table taking a row to the row with bits a and b
    exchanged."""
    tables = []
    for gap in range(1, width):
        for a in range(width - gap):
            b = a + gap
            pair = 1 << a | 1 << b
            tables.append(
                [row ^ pair if (row >> a ^ row >> b) & 1 else row for row in range(1 << width)]
            )
    return tables


def _column_swaps(
    rows: tuple[int, ...], width: int
) -> list[tuple[list[int], list[int]]] | None:
    """Test the non-increasing ``rows`` against every transposition of two
    of their ``width`` columns, each followed by re-sorting the rows.

    Return ``None`` if some transposition gives a greater tuple.  Otherwise
    return ``(table, new)`` for each transposition that gives ``rows``
    back: its table from :func:`_swap_tables`, and ``new[i]``, the position
    row i moves to, equal rows keeping their order.
    """
    swaps = []
    as_list = list(rows)
    for table in _swap_tables(width):
        moved = [table[row] for row in rows]
        resorted = sorted(moved, reverse=True)
        if resorted > as_list:
            return None
        if resorted == as_list:
            new = [0] * len(rows)
            for at, i in enumerate(sorted(range(len(rows)), key=moved.__getitem__, reverse=True)):
                new[i] = at
            swaps.append((table, new))
    return swaps


# -- cores of height one and two ------------------------------------------------


def level_shapes(n: int) -> list[LevelShape]:
    """Shapes that can carry a height-2 core: every class has >= 2 elements.

    This is a pure prune: the row rules of :func:`_shape_candidates` reject
    every candidate of a shape with a singleton class.  One minimal leaves
    no middle row of two bits (rule 1); one middle is below every top, so
    no top can take a minimal under it as an extra (rule 4); one top is
    the only top above each middle under it (rule 3).
    """
    out = []
    for m2 in range(2, n - 3):
        for m1 in range(2, n - m2 - 1):
            m0 = n - m2 - m1
            if m0 >= 2:
                out.append(LevelShape(m2, m1, m0))
    return out


def _column_counts(rows: tuple[int, ...]) -> tuple[int, int]:
    """``(once, twice)``: the bitmasks of the columns set in at least one
    and in at least two of ``rows``."""
    once = twice = 0
    for row in rows:
        twice |= once & row
        once |= row
    return once, twice


def _union_table(values) -> list[int]:
    """``out[mask]``: the union of ``values[i]`` over the bits i of mask."""
    out = [0]
    for value in values:
        out += [u | value for u in out]
    return out


def _shape_candidates(shape: LevelShape) -> Iterator[tuple[list[int], list[int]]]:
    """Yield the strict down- and up-set masks (minimals first, then the
    height-1 elements, then the height-2 ones) of each beat-point-free
    candidate of one shape, by the row rules of the module docstring.

    The rows of the height-1 elements are their minimal-set masks (at least
    two bits).  With ``m2 == 0`` these elements are the top level.
    Otherwise height-2 element k gets the row ``smask << m0 | emask``: the
    height-1 elements below it and the extra minimals it covers directly.
    The lone-column test of rule 3 runs while the top level's rows are
    drawn.  At height two one pass over the rows of a level counts, for
    every column, whether it is set in one row and in two: over the middles
    that gives the extras each minimal needs, and over the tops the extras
    they take, before the tops' masks are built.

    Both levels come from :func:`_orderly_rows`.  The height-1 level starts
    with all minimal columns tied.  The height-2 level starts with the
    minimal columns still tied after it, plus height-1 column i tied to
    column i-1 when the two rows are equal, since swapping them changes
    nothing below.  Candidates come in the order of plain row-sorted
    generation (height-1 rows first, then height-2), minus those breaking
    the column rule; the first candidate of each isomorphism class is never
    among those removed, nor among those a swap of two minimal columns
    beats (see the module docstring).
    """
    m2, m1, m0 = shape
    minimals = (1 << m0) - 1
    lone = 0 if m2 else minimals
    for middles, ties in _orderly_rows(_descending_masks(m0, 2), m1, _all_tied(m0), lone):
        swaps = _column_swaps(middles, m0)
        if swaps is None:
            continue
        down = [0] * m0 + list(middles)
        if not m2:
            yield down, _transpose(down)
            continue
        once, twice = _column_counts(middles)
        # the swaps keeping the middles, each with its map of middle masks
        top_swaps = [(table, _union_table([1 << at for at in new])) for table, new in swaps]
        unions = _union_table(middles)  # the minimals below the middles in a mask
        tops = []
        for smask in range(1, 1 << m1):
            free = minimals & ~unions[smask]
            single = smask & (smask - 1) == 0
            emask = free
            while True:
                if emask or not single:
                    tops.append(smask << m0 | emask)
                if emask == 0:
                    break
                emask = (emask - 1) & free
        tops.sort(reverse=True)
        for i in range(1, m1):
            if middles[i] == middles[i - 1]:
                ties |= 1 << (m0 + i)
        need_once, need_twice = once & ~twice, minimals & ~once
        for chosen, _ in _orderly_rows(tops, m2, ties, ((1 << m1) - 1) << m0):
            over, twice_over = _column_counts(chosen)
            if (
                need_once & ~over
                or need_twice & ~twice_over
                or _beaten(chosen, top_swaps, m0)
            ):
                continue
            full = down + [top | unions[top >> m0] for top in chosen]
            yield full, _transpose(full)


def _beaten(tops: tuple[int, ...], top_swaps, m0: int) -> bool:
    """True if one of the ``(table, smap)`` swaps re-sorts the non-increasing
    ``tops`` to a greater tuple.  ``table`` swaps two minimal columns and
    ``smap`` maps a middle mask to its image under the induced reordering
    of the middles."""
    minimals = (1 << m0) - 1
    for table, smap in top_swaps:
        moved = [smap[top >> m0] << m0 | table[top & minimals] for top in tops]
        if tuple(sorted(moved, reverse=True)) > tops:
            return True
    return False


@cache
def _stratum_labels(shape: LevelShape) -> tuple[str, ...]:
    """Labels by level, lowest first.  One tuple per shape, so that every
    core of the shape shares this one object as its ``labels``."""
    m2, m1, m0 = shape
    middle = "b" if m2 else "a"
    return (
        tuple(f"c{j + 1}" for j in range(m0))
        + tuple(f"{middle}{i + 1}" for i in range(m1))
        + tuple(f"a{k + 1}" for k in range(m2))
    )


@cache
def _stratum_heights(shape: LevelShape) -> tuple[int, ...]:
    """The element heights of every core of the shape, lowest level first:
    the level indices (see the module docstring).  One tuple per shape,
    shared like the labels."""
    m2, m1, m0 = shape
    return (0,) * m0 + (1,) * m1 + (2,) * m2


def _kept(down: list[int], up: list[int], shape: LevelShape) -> Poset:
    """The core of the given shape with masks ``down`` and ``up``, built
    unchecked, with the invariants the generator already knows set in
    advance: its element heights and height, that it is connected, that it
    is its own core and, at height one, that it is homogeneous (see the
    module docstring)."""
    p = Poset._from_strict(down, up, _stratum_labels(shape))
    p.element_heights = _stratum_heights(shape)
    p.height = p.element_heights[-1]
    p.is_connected = True
    p._core = None
    if p.height == 1:
        p.is_homogeneous = True
    return p


def _classes(shape: LevelShape) -> Iterator[tuple[Poset, list[list[int]]]]:
    """One connected core per isomorphism class of the given shape, the
    first candidate of each class, with the automorphisms its canonical
    search found.  Candidates are coded from their masks, and a poset is
    built, unchecked, only for a new code."""
    found: set[bytes] = set()
    for down, up in _shape_candidates(shape):
        if not _connected(down, up):
            continue
        gens: list[list[int]] = []
        code = _code(down, up, gens)
        if code not in found:
            found.add(code)
            p = _kept(down, up, shape)
            p.canonical_code = code
            yield p, gens


def _cores_for_shape(shape: LevelShape) -> list[Poset]:
    """The cores of :func:`_classes`, without their automorphisms."""
    return [p for p, _ in _classes(shape)]


def _merged(shards) -> list[Poset]:
    """The shards' cores sorted by canonical code.  The level shape is an
    isomorphism invariant, so no two shards share a class."""
    return sorted((p for shard in shards for p in shard), key=lambda p: p.canonical_code)


def enumerate_height2_cores(n: int, progress=None) -> list[Poset]:
    """All connected height-2 beat-point-free posets on n points, up to
    isomorphism, sorted by canonical code.  ``progress(shape, count)``
    is called after each shape, in :func:`level_shapes` order, with the
    number of classes found in it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_cap(n, 2)
    shards = []
    for shape in level_shapes(n):
        shard = _cores_for_shape(shape)
        if progress is not None:
            progress(shape, len(shard))
        shards.append(shard)
    return _merged(shards)


def enumerate_height1_cores(n: int) -> list[Poset]:
    """All connected height-1 beat-point-free posets on n points, up to
    isomorphism, sorted by canonical code (bipartite incidences with
    both-side degrees >= 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_cap(n, 1)
    shards = []
    # rows run over the larger level, so masks stay narrow
    for m0 in range(2, n // 2 + 1):
        m1 = n - m0
        kept, wide = [], []
        for p, gens in _classes(LevelShape(0, m1, m0)):
            kept.append(p)
            if m0 < m1:  # the wide shape: each kept core read transposed
                up = [r << m1 for r in p._strict_down[m0:]] + [0] * m0
                q = _kept(_transpose(up), up, LevelShape(0, m0, m1))
                # p's automorphisms, with narrow element x at wide position (x - m0) % n
                seed = [[(x - m0) % n for x in g[m0:] + g[:m0]] for g in gens]
                q.canonical_code = _code(q._strict_down, q._strict_up, seed)
                p.dual_code, q.dual_code = q.canonical_code, p.canonical_code
                wide.append(q)
        shards += [kept, wide]
    return _merged(shards)
