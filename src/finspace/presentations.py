"""Edge-path presentations of fundamental groups, read off 2-skeleta.

The builder takes one neighbour bitmask per vertex and a list of closed
vertex walks.  A breadth-first search over the masks, neighbours in
increasing order, gives the spanning tree and fails with
:class:`DisconnectedComplex` when it does not reach every vertex.
Generators are the edges outside the tree, numbered in lexicographic edge
order; every walk contributes one relator, its non-tree edges read in walk
order.  The simplifier then tries to certify the group free of some rank by
eliminating generators with two Tietze moves: a length-1 relator kills its
generator, and a generator occurring exactly once in a relator is solved
for and substituted.  When every relator names distinct generators, unit
moves change no relator but by deleting letters, so a unit phase first
makes them on one bitmask of generators per relator; if they empty every
relator, that is the answer the word moves would reach, and no word is
rewritten.  Otherwise the word loop runs on the input as given: each move
rewrites, cyclically reduces or drops only the relators containing the
generator, found through an occurrence index, and removes the generator,
so the simplifier stops after at most ``num_generators`` moves.
Free-group recognition is undecidable in general, so it reports
``inconclusive`` when relators are left and no move applies; callers must
treat that as honest ignorance, not failure.

The order complex of a poset (:func:`presentation`) gives its comparable
pairs as edges and its 3-chains as triangles, a triangle u < v < w being
the walk u -> v -> w -> u; the fundamental group of a complex is that of
its 2-skeleton.  It is the reference that the tests compare
:func:`poset_presentation` against.

A poset (:func:`poset_presentation`) of any height is read off its Hasse
diagram.  Its order complex, whose edges are the comparable pairs and whose
triangles are the 3-chains, has the fundamental group of the finite space
(McCord, Duke Math. J. 1966), and the same group is presented by the
covers as edges and, for each comparable pair a < c that is not a cover,
with middles b_1 < ... < b_k, the walks a -> b_{i-1} -> c -> b_i -> a for
i = 2..k (Barmak, LNM 2032, 2011).  The argument, on the order complex's
presentation with the Hasse diagram's spanning tree (a chain of covers
joins any two comparable points, so that tree spans the order complex):

- Let b be the least cover of a below c.  The triangle a < b < c gives
  [ac] = [ab][bc], and [b, c] is a shorter interval than [a, c]; so, by
  induction on interval length, eliminating each non-cover generator [ac]
  with its triangle through b turns [ac] into the word of one fixed Hasse
  path, from a to b and on up to c.
- Every triangle a < m < c belongs to its non-cover pair (a, c).  After the
  substitution it becomes the closed walk a -> m -> c -> b -> a along the
  fixed paths, which says that the paths through m and through b agree.
- Over all middles m these walks say that every path through a middle
  agrees with the one through b, and the consecutive walks say that each
  agrees with the next: the two sets generate the same normal subgroup.

At height at most 2 every step of a walk is a cover, and each walk is a
square of four distinct edges.  Above height 2 a step along a non-cover
pair x < y is read as its fixed path, whose word is built once per pair; a
relator with such a step is cyclically reduced, and dropped if that leaves
the empty word.

Words are tuples of nonzero signed integers: ``+g`` is generator ``g``,
``-g`` its inverse, with generators numbered from one.
"""

from __future__ import annotations

from itertools import accumulate, pairwise
from typing import Callable, Iterable, NamedTuple, Sequence

from finspace.posets import Poset, _bits

Word = tuple[int, ...]


class DisconnectedComplex(ValueError):
    """Presentation requested for a complex that is not connected."""


class Presentation(NamedTuple):
    """A group presentation: generators ``g1`` .. ``gN`` and relator words."""

    num_generators: int
    relators: tuple[Word, ...]

    def to_text(self) -> str:
        """Stable display form: ⟨g1, g2 | g1 g2 g1^-1 g2^-1⟩, with ``1`` for
        an empty relator."""
        gens = ", ".join(f"g{i + 1}" for i in range(self.num_generators))
        words = [" ".join(f"g{v}" if v > 0 else f"g{-v}^-1" for v in rel) for rel in self.relators]
        return f"⟨{gens} | {', '.join(word or '1' for word in words)}⟩"


class SimplificationStatus(NamedTuple):
    """Outcome of :func:`tietze_simplify`: the group is free of ``rank``
    generators (trivial when ``rank`` is 0), or ``rank`` is ``None`` and
    ``remaining`` holds the stuck presentation.
    """

    rank: int | None
    remaining: Presentation | None = None

    @classmethod
    def free_of_rank(cls, rank: int) -> "SimplificationStatus":
        return cls(rank=rank)

    @classmethod
    def inconclusive(cls, remaining: Presentation) -> "SimplificationStatus":
        return cls(rank=None, remaining=remaining)

    @property
    def kind(self) -> str:
        """``"trivial"``, ``"free"`` or ``"inconclusive"``."""
        if self.rank is None:
            return "inconclusive"
        return "free" if self.rank else "trivial"

    @property
    def is_conclusive(self) -> bool:
        return self.rank is not None

    def certifies_free_rank(self, rank: int) -> bool:
        return self.rank == rank

    def describe(self) -> str:
        if self.rank is None:
            assert self.remaining is not None
            return (
                f"inconclusive ({self.remaining.num_generators} generators, "
                f"{len(self.remaining.relators)} relators left)"
            )
        return f"free of rank {self.rank}" if self.rank else "trivial group"


def presentation(p: Poset) -> Presentation:
    """Edge-path group presentation of the order complex of a connected
    poset, read off its 2-skeleton: the comparable pairs are the edges, and
    the 3-chains, as sorted tuples in sorted order, are the walks.

    The spanning tree is breadth-first from point 0, neighbours visited in
    increasing order, so the output is deterministic.  The abelianization
    of the result has rank beta_1.  Raises :class:`DisconnectedComplex` on
    a disconnected poset.
    """
    comparable = [u | d for u, d in zip(p._strict_up, p._strict_down)]
    above = [row >> (x + 1) << (x + 1) for x, row in enumerate(comparable)]
    walks = [
        (a, b, c) for a in range(p.n) for b in _bits(above[a]) for c in _bits(above[b] & above[a])
    ]
    return _edge_path(comparable, walks)


def poset_presentation(p: Poset) -> Presentation:
    """A presentation of pi1 of a connected poset of any height, read off
    its Hasse diagram: the covers are the edges, and each comparable pair
    a < c that is not a cover, with middles b_1 < ... < b_k, gives the walks
    a -> b_{i-1} -> c -> b_i -> a for i = 2..k.  A step along a non-cover
    pair x < y follows the least cover of x below y, and so on up to y (see
    the module docstring for why this presents the group of the order
    complex).  The covers are read from the poset's cover masks, which
    :attr:`Poset.covers` decides; nothing here tests a pair again.

    Raises :class:`DisconnectedComplex` on a disconnected poset.
    """
    up, down = p._strict_up, p._strict_down
    below, above = p._cover_masks
    neighbours = [lower | upper for lower, upper in zip(below, above)]
    walks = []
    for a, row in enumerate(up):
        for c in _bits(row & ~above[a]):
            bs = _bits(row & down[c])
            walks.extend((a, bs[i - 1], c, bs[i]) for i in range(1, len(bs)))

    def least_cover(x: int, y: int) -> int:
        """The least cover of the lower of x and y below the upper one."""
        lo, hi = (x, y) if up[x] >> y & 1 else (y, x)
        covers = above[lo] & down[hi]
        return (covers & -covers).bit_length() - 1

    return _edge_path(neighbours, walks, least_cover)


def _edge_path(
    neighbours: Sequence[int],
    walks: Iterable[tuple[int, ...]],
    via: Callable[[int, int], int] | None = None,
) -> Presentation:
    """Presentation of the 2-complex on the vertices 0, ..., n - 1, where n
    is the length of ``neighbours``, whose edges are given by the neighbour
    mask of each vertex and whose 2-cells are closed vertex walks, each a
    tuple v_0, ..., v_m that returns from v_m to v_0: one generator per
    non-tree edge, numbered in lexicographic edge order, and one relator
    per walk.  Edge (u, v) with u < v is read as its generator going from u
    to v, and as the inverse going back.  A step between two vertices that
    are not neighbours is read as the path through ``via(x, y)``, which
    must equal ``via(y, x)``, one step at a time; a relator with such a
    step is cyclically reduced, and dropped if it is empty.  The spanning
    tree is rooted at vertex 0."""
    # upper[u] holds the non-tree edges (u, v) with v > u once the
    # breadth-first search below has cleared the tree edges from it.
    upper = [row >> (u + 1) << (u + 1) for u, row in enumerate(neighbours)]
    seen = 1
    queue = [0]
    for u in queue:
        new = neighbours[u] & ~seen
        seen |= new
        for w in _bits(new):
            upper[min(u, w)] ^= 1 << max(u, w)
            queue.append(w)
    if seen != (1 << len(neighbours)) - 1:
        raise DisconnectedComplex("complex is not connected")
    # The generator of non-tree edge (u, v) is first[u] plus the number of
    # non-tree edges (u, x) with x < v; first[-1] - 1 counts them all.
    first = list(accumulate((row.bit_count() for row in upper), initial=1))

    # Steps along edges are read inline; a walk of edges only is a triangle
    # or a square of distinct edges, so its word is already reduced.
    paths: dict[tuple[int, int], Word] = {}
    relators = []
    for walk in walks:
        word = []
        detour = False
        for x, y in zip(walk, walk[1:] + walk[:1]):
            if x < y:
                if upper[x] >> y & 1:
                    word.append(first[x] + (upper[x] & ((1 << y) - 1)).bit_count())
                    continue
            elif upper[y] >> x & 1:
                word.append(-first[y] - (upper[y] & ((1 << x) - 1)).bit_count())
                continue
            if not neighbours[x] >> y & 1:
                word.extend(_path(x, y, via, neighbours, upper, first, paths))
                detour = True
        word = cyclic_reduce(word) if detour else tuple(word)
        if word:  # only a detour can leave it empty, since a tree has no cycle
            relators.append(word)
    return Presentation(num_generators=first[-1] - 1, relators=tuple(relators))


def _path(x, y, via, neighbours, upper, first, paths) -> Word:
    """The word of the step from x to y between two vertices that are not
    neighbours: the path through ``via(x, y)``, kept in ``paths``."""
    word = paths.get((x, y))
    if word is None:
        word = ()
        for u, v in pairwise((x, via(x, y), y)):
            if not neighbours[u] >> v & 1:
                word += _path(u, v, via, neighbours, upper, first, paths)
            elif u < v and upper[u] >> v & 1:
                word += (first[u] + (upper[u] & ((1 << v) - 1)).bit_count(),)
            elif v < u and upper[v] >> u & 1:
                word += (-first[v] - (upper[v] & ((1 << u) - 1)).bit_count(),)
        paths[x, y] = word
    return word


def free_reduce(word: Word) -> Word:
    out: list[int] = []
    for v in word:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def cyclic_reduce(word: Word) -> Word:
    w = free_reduce(word)
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i, j = i + 1, j - 1
    return w[i : j + 1]


def _renumber(relators: list[Word]) -> list[Word]:
    """Compact generator indices after eliminations."""
    used = sorted({abs(v) for rel in relators for v in rel})
    mapping = {g: i + 1 for i, g in enumerate(used)}
    return [tuple(mapping[v] if v > 0 else -mapping[-v] for v in rel) for rel in relators]


def _lone_move(relators: Iterable[Word]) -> tuple[int, Word] | None:
    """``(g, w)`` with g = w solved from the shortest relator in which some
    generator g occurs exactly once, or ``None`` if there is no such one."""
    best = None
    for rel in relators:
        if best is not None and len(rel) >= len(best[0]):
            continue
        gens = [abs(v) for v in rel]
        pos = next((i for i, g in enumerate(gens) if gens.count(g) == 1), None)
        if pos is not None:
            best = (rel, pos)
            if len(rel) == 2:  # length-1 relators are handled first
                break
    if best is None:
        return None
    rel, pos = best
    # rel = B g A = 1  =>  g = (A B)^-1; and g = A B if the letter was g^-1
    solved = rel[pos + 1 :] + rel[:pos]
    if rel[pos] > 0:
        solved = tuple(-v for v in reversed(solved))
    return abs(rel[pos]), solved


def _unit_kills(pres: Presentation) -> int | None:
    """The number of generators that unit moves alone kill, if those moves
    empty every relator; ``None`` if they leave one, or if some relator
    names a generator twice, or one outside ``1..num_generators``.

    Each relator is read as the bitmask of its generators.  A relator with
    exactly one generator not yet killed kills it, until no relator has
    one; every relator whose generators are all killed is then empty."""
    top = pres.num_generators
    live = []
    for rel in pres.relators:
        mask = 0
        for v in rel:
            if not -top <= v <= top:
                return None
            mask |= 1 << abs(v)
        if mask & 1 or mask.bit_count() != len(rel):  # a letter 0, or a generator named twice
            return None
        live.append(mask)
    killed = 0
    while live:
        units = 0
        rest = []
        for mask in live:
            mask &= ~killed
            if mask & (mask - 1):
                rest.append(mask)
            else:
                units |= mask
        if rest and not units:
            return None
        killed |= units
        live = rest
    return killed.bit_count()


def tietze_simplify(pres: Presentation) -> SimplificationStatus:
    """Eliminate generators by Tietze moves until no relator is left or no
    move applies.

    A unit phase runs first, on generator bitmasks (:func:`_unit_kills`),
    and answers when every relator names distinct generators in range and
    unit moves alone empty them all: the group is then free on the
    generators left.  That is the word loop's answer.  With distinct
    letters no reduction cancels anything, so a unit move only deletes
    its generator from the relators, and the word loop, which makes no
    other move while a length-1 relator is pending, kills the same
    generators whatever their order: a generator that one relator leaves
    alone stays alone, or is killed, as other generators are.  Every other
    input goes to the word loop as given.

    The word loop keeps relators cyclically reduced, by id, with the ids of
    the relators that contain each generator.  A length-1 relator forces its
    generator trivial; otherwise the shortest relator in which a generator
    occurs once is solved for it.  Either move removes the generator and
    rewrites only the relators that contain it, dropping any that become
    empty, so at most ``num_generators`` moves are made.  Relators left
    when no move applies yield ``inconclusive`` with the partly-simplified
    presentation.

    Duplicate relators need no move of their own.  A duplicate is a
    rotation of a relator B g A, or of its inverse; substituting g from one
    copy reduces the other to the empty word.
    """
    kills = _unit_kills(pres)
    if kills is not None:
        return SimplificationStatus.free_of_rank(pres.num_generators - kills)
    relators: dict[int, Word] = {}
    occ: dict[int, set[int]] = {g: set() for g in range(1, pres.num_generators + 1)}
    units: list[int] = []  # ids of relators that were of length 1

    def store(rid: int, word: Word) -> None:
        if not word:
            relators.pop(rid, None)
            return
        relators[rid] = word
        for v in word:
            occ[abs(v)].add(rid)
        if len(word) == 1:
            units.append(rid)

    for rid, rel in enumerate(pres.relators):
        store(rid, cyclic_reduce(rel))
    num_gens = pres.num_generators
    while relators:
        move = None
        while units and move is None:
            unit = relators.get(units.pop(), ())
            if len(unit) == 1:
                move = (abs(unit[0]), ())
        move = move or _lone_move(relators.values())
        if move is None:
            break
        gen, solved = move
        inv = tuple(-v for v in reversed(solved))
        for rid in occ.pop(gen):
            word: list[int] = []
            for v in relators[rid]:
                if v == gen:
                    word.extend(solved)
                elif v == -gen:
                    word.extend(inv)
                else:
                    word.append(v)
                    occ[abs(v)].discard(rid)
            store(rid, cyclic_reduce(word))
        num_gens -= 1

    if relators:
        remap = _renumber(list(relators.values()))
        stuck = Presentation(num_generators=num_gens, relators=tuple(remap))
        return SimplificationStatus.inconclusive(stuck)
    return SimplificationStatus.free_of_rank(num_gens)

