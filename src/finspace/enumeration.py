"""Exhaustive generation of small posets up to isomorphism.

Three generators live here:

* :func:`enumerate_posets` - every poset on up to seven points, grown by
  repeatedly attaching a new maximal element above an order ideal.  It is
  deliberately simple and serves as the sanity oracle for the others.
* :func:`enumerate_height2_cores` - connected beat-point-free posets of
  height exactly two, stratified by element height.
* :func:`enumerate_height1_cores` - connected beat-point-free bipartite
  posets (every maximal above at least two minimals and vice versa).

Both core generators build 0/1 incidence matrices row by row through one
orderly row generator, :func:`_orderly_rows`.  Rows come as non-increasing
bitmask tuples, which removes row symmetry.  Column symmetry is removed as
the rows are built: two adjacent columns that are equal over the rows so far
are *tied*, and the next row may not put a 1 in the lower of two tied columns
and a 0 in the higher one (every matrix can be brought into this form by
permuting its rows and columns; Lubiw, "Doubly lexical orderings of
matrices", SIAM J. Comput. 1987).  A rejected row cuts off its whole subtree.
Survivors are deduplicated by canonical code, keeping the first member of
each class.

The rule never rejects that first member.  Without the rule the generation
order is descending lexicographic, so the first member of a class is its
lexicographically greatest one.  If it broke the rule, swapping the two
tied columns would keep the earlier rows, raise the offending row, and so
give a greater member of the same class.  The kept representatives are
therefore exactly those of plain row-sorted generation.

Cheap arithmetic facts prune the height-2 search further: in a core every
height-1 element sits above at least two minimals, every height-1 element
lies below zero or at least two height-2 elements, and strata of size one
force beat points, so level shapes with any class smaller than two are
skipped outright.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, NamedTuple

from finspace.posets import Poset, _bits, _popcount

HEIGHT2_CAP = 10
HEIGHT1_CAP = 12
WORKERS_ENV = "FINSPACE_WORKERS"


class SizeTooLarge(ValueError):
    """Requested size exceeds the generator's cap."""


class LevelShape(NamedTuple):
    """Sizes of the height-2, height-1 and height-0 element classes."""

    m2: int
    m1: int
    m0: int

    @property
    def n(self) -> int:
        return self.m2 + self.m1 + self.m0


def _descending_masks(width: int, min_bits: int) -> list[int]:
    return [m for m in range((1 << width) - 1, 0, -1) if _popcount(m) >= min_bits]


def _all_tied(width: int) -> int:
    """Ties mask with every adjacent pair of ``width >= 1`` columns tied."""
    return (1 << width) - 2


def _orderly_rows(
    choices: list[int], nrows: int, ties: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(rows, ties)`` for every non-increasing ``nrows``-tuple drawn
    from the descending list ``choices`` that keeps tied columns ordered.

    Bit k of ``ties`` says columns k-1 and k are equal over the rows chosen
    so far.  A row with a 1 in column k-1 and a 0 in column k of a tied pair
    is rejected with every extension of it; an accepted row unties each pair
    it tells apart.  The yielded ``ties`` holds the pairs still tied after
    the last row.
    """

    def extend(prefix: tuple[int, ...], start: int, ties: int):
        if len(prefix) == nrows:
            yield prefix, ties
            return
        for at in range(start, len(choices)):
            row = choices[at]
            if ties & (row << 1) & ~row:
                continue
            yield from extend(prefix + (row,), at, ties & ~(row ^ (row << 1)))

    return extend((), 0, ties)


# -- general small-n enumeration ---------------------------------------------


def _order_ideal_masks(p: Poset) -> list[int]:
    down = p._down
    out = []
    for mask in range(1 << p.n):
        ok = True
        probe = mask
        while probe:
            low = probe & -probe
            i = low.bit_length() - 1
            if down[i] & ~mask:
                ok = False
                break
            probe ^= low
        if ok:
            out.append(mask)
    return out


def _with_new_maximal(p: Poset, ideal: int) -> Poset:
    n = p.n
    new_bit = 1 << n
    up = [p._up[i] | (new_bit if ideal >> i & 1 else 0) for i in range(n)]
    up.append(new_bit)
    return Poset(up)


def enumerate_posets(n: int) -> list[Poset]:
    """All posets on n points up to isomorphism, each exactly once.

    Grows size-(k+1) posets from size-k ones by attaching a maximal element
    above every order ideal, deduplicating by canonical code at each step.
    Every poset arises this way because deleting any maximal element leaves
    a poset whose class was already generated.
    """
    if not 1 <= n <= 7:
        raise SizeTooLarge("general enumeration is capped at 7 points")
    current = {Poset.antichain(1).canonical_code: Poset.antichain(1)}
    for _ in range(n - 1):
        grown: dict[bytes, Poset] = {}
        for p in current.values():
            for ideal in _order_ideal_masks(p):
                q = _with_new_maximal(p, ideal)
                grown.setdefault(q.canonical_code, q)
        current = grown
    return [current[c] for c in sorted(current)]


# -- height-2 cores ------------------------------------------------------------


def level_shapes(n: int) -> list[LevelShape]:
    """Shapes that can carry a height-2 core: every class has >= 2 elements.

    A singleton class forces a beat point: one minimal makes every height-1
    element a down beat point, one height-1 element makes some minimal an up
    beat point, and one height-2 element makes some height-1 element an up
    beat point.
    """
    out = []
    for m2 in range(2, n - 3):
        for m1 in range(2, n - m2 - 1):
            m0 = n - m2 - m1
            if m0 >= 2:
                out.append(LevelShape(m2, m1, m0))
    return out


def _shape_candidates(shape: LevelShape) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (middle_rows, top_rows) incidence assignments for one shape.

    middle_rows[i] is the minimal-set mask under height-1 element i (at
    least two bits).  top_rows[k] encodes height-2 element k as
    ``smask << m0 | emask``: the middles below it and the extra minimals it
    covers directly.  A height-2 element with a single middle predecessor
    must take at least one extra minimal cover, else that middle point would
    be the maximum of its punctured down-set.

    Both levels come from :func:`_orderly_rows`.  The middles start with all
    minimal columns tied.  The tops start with the minimal columns still
    tied after the middles, plus middle column i tied to column i-1 when the
    two middles have equal rows, since swapping them changes nothing below.
    Assignments come in the order of plain row-sorted generation (middles
    first, then tops), minus those breaking the column rule; the first
    assignment of each isomorphism class is never among those removed (see
    the module docstring).
    """
    m2, m1, m0 = shape
    minimals = (1 << m0) - 1
    for middles, ties in _orderly_rows(_descending_masks(m0, 2), m1, _all_tied(m0)):
        unions = [0]  # unions[smask]: the minimals below the middles in smask
        for row in middles:
            unions += [u | row for u in unions]
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
        for chosen, _ in _orderly_rows(tops, m2, ties):
            yield middles, chosen


def _assemble_masks(shape: LevelShape, middles, tops) -> list[int]:
    """Strict-down masks for the stratified poset (minimals first)."""
    m2, m1, m0 = shape
    down = [0] * shape.n
    for i, umask in enumerate(middles):
        down[m0 + i] = umask
    for k, top in enumerate(tops):
        acc = top & ((1 << m0) - 1)
        for i in _bits(top >> m0):
            acc |= middles[i] | (1 << (m0 + i))
        down[m0 + m1 + k] = acc
    return down


def _masks_connected(down: list[int], n: int) -> bool:
    up = [0] * n
    for i in range(n):
        for j in _bits(down[i]):
            up[j] |= 1 << i
    seen = 1
    frontier = 1
    while frontier:
        new = 0
        for i in _bits(frontier):
            new |= down[i] | up[i]
        frontier = new & ~seen
        seen |= new
    return seen == (1 << n) - 1


def _masks_are_core(down: list[int], n: int) -> bool:
    up = [0] * n
    for i in range(n):
        for j in _bits(down[i]):
            up[j] |= 1 << i
    for x in range(n):
        hat = down[x]
        for m in _bits(hat):
            if hat & ~(down[m] | (1 << m)) == 0:
                return False
        hat = up[x]
        for m in _bits(hat):
            if hat & ~(up[m] | (1 << m)) == 0:
                return False
    return True


def _poset_from_down(down: list[int], labels) -> Poset:
    n = len(down)
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in _bits(down[i]):
            up[j] |= 1 << i
    return Poset(up, labels)


def _stratum_labels(shape: LevelShape) -> list[str]:
    m2, m1, m0 = shape
    return (
        [f"c{j + 1}" for j in range(m0)]
        + [f"b{i + 1}" for i in range(m1)]
        + [f"a{k + 1}" for k in range(m2)]
    )


def _cores_for_shape(shape: LevelShape) -> list[Poset]:
    n = shape.n
    labels = _stratum_labels(shape)
    found: dict[bytes, Poset] = {}
    for middles, tops in _shape_candidates(shape):
        # a middle point below exactly one top is an up beat point
        counts = [0] * shape.m1
        for top in tops:
            for i in _bits(top >> shape.m0):
                counts[i] += 1
        if any(c == 1 for c in counts):
            continue
        down = _assemble_masks(shape, middles, tops)
        if not _masks_connected(down, n):
            continue
        if not _masks_are_core(down, n):
            continue
        p = _poset_from_down(down, labels)
        found.setdefault(p.canonical_code, p)
    return [found[c] for c in sorted(found)]


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        print(
            f"warning: ignoring malformed {WORKERS_ENV}={raw!r}; using 1 worker",
            file=sys.stderr,
        )
        return 1


def enumerate_height2_cores(
    n: int, workers: int | None = None, progress=None
) -> list[Poset]:
    """All connected height-2 beat-point-free posets on n points, up to
    isomorphism, sorted by canonical code.

    Generation shards independently by level shape; merging is deterministic,
    so any worker count produces the identical list.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HEIGHT2_CAP:
        raise SizeTooLarge(f"height-2 core enumeration is capped at {HEIGHT2_CAP}")
    shapes = level_shapes(n)
    nworkers = _worker_count(workers)
    found: dict[bytes, Poset] = {}
    if nworkers > 1 and len(shapes) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            shards = list(pool.map(_cores_for_shape, shapes))
    else:
        shards = []
        for shape in shapes:
            shards.append(_cores_for_shape(shape))
            if progress is not None:
                progress(shape, len(shards[-1]))
    for shard in shards:
        for p in shard:
            found.setdefault(p.canonical_code, p)
    return [found[c] for c in sorted(found)]


# -- height-1 cores --------------------------------------------------------------


def enumerate_height1_cores(n: int) -> list[Poset]:
    """All connected height-1 beat-point-free posets on n points, up to
    isomorphism (bipartite incidences with both-side degrees >= 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HEIGHT1_CAP:
        raise SizeTooLarge(f"height-1 core enumeration is capped at {HEIGHT1_CAP}")
    found: dict[bytes, Poset] = {}
    for n_min in range(2, n - 1):
        n_max = n - n_min
        if n_max < 2:
            continue
        # rows run over the larger side so masks stay narrow
        if n_min <= n_max:
            width, nrows, transposed = n_min, n_max, False
        else:
            width, nrows, transposed = n_max, n_min, True
        choices = _descending_masks(width, 2)
        for rows, _ in _orderly_rows(choices, nrows, _all_tied(width)):
            colcount = [0] * width
            for r in rows:
                for j in _bits(r):
                    colcount[j] += 1
            if any(c < 2 for c in colcount):
                continue
            if transposed:
                # rows are minimals' up-sets over the maximals
                down = [0] * n
                for i, r in enumerate(rows):
                    for j in _bits(r):
                        down[n_min + j] |= 1 << i
            else:
                down = [0] * n
                for i, r in enumerate(rows):
                    down[n_min + i] = r
            if not _masks_connected(down, n):
                continue
            labels = [f"c{j + 1}" for j in range(n_min)] + [
                f"a{i + 1}" for i in range(n_max)
            ]
            p = _poset_from_down(down, labels)
            found.setdefault(p.canonical_code, p)
    return [found[c] for c in sorted(found)]
