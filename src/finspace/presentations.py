"""Edge-path presentations of fundamental groups, read off 2-skeleta.

The builder takes one neighbour bitmask per vertex: a poset passes its
comparability masks directly, a simplicial complex builds them from its
edges.  A breadth-first search over the masks, neighbours in increasing
order, gives the spanning tree and fails with :class:`DisconnectedComplex`
when it does not reach every vertex.  Generators are the edges outside the
tree, numbered in lexicographic edge order; every closed vertex walk handed
to the builder contributes one relator, its non-tree edges read in walk
order.  A triangle (u, v, w) is the walk u -> v -> w -> u.  The simplifier
then tries to certify the group free of some rank by eliminating generators
with two Tietze moves: a length-1 relator kills its generator, and a
generator occurring exactly once in a relator is solved for and
substituted.  Each move rewrites, cyclically reduces or drops only the
relators containing the generator, found through an occurrence index, and
removes the generator, so the simplifier stops after at most
``num_generators`` moves.  Free-group recognition is undecidable in
general, so it reports ``inconclusive`` when relators are left and no move
applies; callers must treat that as honest ignorance, not failure.

Complexes and posets of any dimension are accepted.  Only vertices, edges
and triangles are read, and the fundamental group of a complex is that of
its 2-skeleton; a poset's triangles are its 3-chains, and its order complex
has the fundamental group of the finite space (McCord 1966).

At height at most 2 a smaller presentation of the same group is read off
the Hasse diagram (:func:`hasse_presentation`; Barmak, LNM 2032, 2011).
Every 3-chain is then a < b < c with both steps covers and (a, c) a
comparable pair that is not a cover, and every such pair has a middle.  So
a spanning tree of the Hasse diagram spans the order complex, and each
non-cover edge (a, c) is a generator.  With middles b_1 < ... < b_k, the
triangle through b_1 solves [ac] = [a b_1][b_1 c]; substituting it turns
the triangle through b_i into the square a -> b_i -> c -> b_1 -> a, and
these squares generate the same normal subgroup as the consecutive ones
a -> b_{i-1} -> c -> b_i -> a.  Dropping the generator [ac] with its
defining triangle leaves the group unchanged, so the Hasse diagram's edges
and the consecutive squares present it.

Words are tuples of nonzero signed integers: ``+g`` is generator ``g``,
``-g`` its inverse, with generators numbered from one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from finspace.complexes import SimplicialComplex
from finspace.posets import Poset, _bits

Word = tuple[int, ...]


class DisconnectedComplex(ValueError):
    """Presentation requested for a complex that is not connected."""


@dataclass(frozen=True)
class Presentation:
    """A group presentation: generators ``g1`` .. ``gN`` and relator words."""

    num_generators: int
    relators: tuple[Word, ...]

    def to_text(self) -> str:
        """Stable display form: ⟨g1, g2 | g1 g2 g1^-1 g2^-1⟩."""
        gens = ", ".join(f"g{i + 1}" for i in range(self.num_generators))
        words = []
        for rel in self.relators:
            if not rel:
                words.append("1")
                continue
            words.append(
                " ".join(f"g{v}" if v > 0 else f"g{-v}^-1" for v in rel)
            )
        return f"⟨{gens} | {', '.join(words)}⟩" if words else f"⟨{gens} | ⟩"


@dataclass(frozen=True)
class SimplificationStatus:
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


def presentation(k: SimplicialComplex) -> Presentation:
    """Edge-path group presentation of a connected complex, built from its
    2-skeleton.

    The spanning tree is breadth-first from the least vertex, neighbours
    visited in increasing order, so the output is deterministic.  The
    abelianization of the result has rank beta_1.
    """
    neighbours = [0] * k.n_vertices
    for u, v in k.edges():
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    vertices = sum(1 << v for v in k.vertices())
    triangles = k.simplices[2] if k.dimension >= 2 else ()
    return _edge_path(neighbours, vertices, triangles)


def poset_presentation(p: Poset) -> Presentation:
    """The presentation of the order complex of ``p``, read off the order
    bitmasks without building the complex.

    Edges are the comparable pairs and triangles the 3-chains, the latter as
    sorted index tuples in lexicographic order, which is the order
    :func:`~finspace.complexes.order_complex` gives them; so the result
    equals ``presentation(order_complex(p))`` at every height.
    """
    comparable = [u | d for u, d in zip(p._strict_up, p._strict_down)]
    triangles = (
        (i, j, k)
        for i, row in enumerate(comparable)
        for j in _bits(row >> (i + 1) << (i + 1))
        for k in _bits(row & comparable[j] >> (j + 1) << (j + 1))
    )
    return _edge_path(comparable, (1 << p.n) - 1, triangles)


def hasse_presentation(p: Poset) -> Presentation:
    """A presentation of pi1 of a connected poset of height at most 2, read
    off its Hasse diagram: the covers are the edges, and each comparable
    pair a < c that is not a cover, with middles b_1 < ... < b_k, gives the
    square walks a -> b_{i-1} -> c -> b_i -> a for i = 2..k (see the module
    docstring for why this presents the same group as
    :func:`poset_presentation`).

    Raises :class:`ValueError` above height 2, where a 3-chain can have a
    non-cover step, and :class:`DisconnectedComplex` on a disconnected
    poset.
    """
    if p.height > 2:
        raise ValueError("the Hasse-diagram presentation needs height at most 2")
    up, down = p._strict_up, p._strict_down
    neighbours = [0] * p.n
    squares = []
    for a, row in enumerate(up):
        for c in _bits(row):
            middles = row & down[c]
            if not middles:
                neighbours[a] |= 1 << c
                neighbours[c] |= 1 << a
                continue
            bs = _bits(middles)
            squares.extend((a, bs[i - 1], c, bs[i]) for i in range(1, len(bs)))
    return _edge_path(neighbours, (1 << p.n) - 1, squares)


def _edge_path(
    neighbours: Sequence[int],
    vertices: int,
    walks: Iterable[tuple[int, ...]],
) -> Presentation:
    """Presentation of the 2-complex whose vertex set is the bitmask
    ``vertices``, whose edges are given by the neighbour mask of each vertex
    and whose 2-cells are closed vertex walks, each a tuple v_0, ..., v_m
    that returns from v_m to v_0 along edges: one generator per non-tree
    edge, numbered in lexicographic edge order, and one relator per walk.
    Edge (u, v) with u < v is read as its generator going from u to v, and
    as the inverse going back.  The spanning tree is rooted at the least
    vertex."""
    if not vertices:
        raise ValueError("complex has no vertices")
    root = (vertices & -vertices).bit_length() - 1
    # upper[u] holds the non-tree edges (u, v) with v > u once the
    # breadth-first search below has cleared the tree edges from it.
    upper = [row >> (u + 1) << (u + 1) for u, row in enumerate(neighbours)]
    seen = 1 << root
    queue = [root]
    for u in queue:
        new = neighbours[u] & ~seen
        seen |= new
        for w in _bits(new):
            upper[min(u, w)] ^= 1 << max(u, w)
            queue.append(w)
    if seen != vertices:
        raise DisconnectedComplex("complex is not connected")
    # The generator of non-tree edge (u, v) is first[u] plus the number of
    # non-tree edges (u, x) with x < v; first[-1] - 1 counts them all.
    first = list(accumulate((row.bit_count() for row in upper), initial=1))

    # The walks given are triangles and squares of distinct edges, so each
    # word is already freely and cyclically reduced.
    relators = []
    for walk in walks:
        word = []
        for x, y in zip(walk, walk[1:] + walk[:1]):
            if x < y:
                if upper[x] >> y & 1:
                    word.append(first[x] + (upper[x] & ((1 << y) - 1)).bit_count())
            elif upper[y] >> x & 1:
                word.append(-first[y] - (upper[y] & ((1 << x) - 1)).bit_count())
        relators.append(tuple(word))
    return Presentation(num_generators=first[-1] - 1, relators=tuple(relators))


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


def tietze_simplify(pres: Presentation) -> SimplificationStatus:
    """Eliminate generators by Tietze moves until no relator is left or no
    move applies.

    Relators are kept cyclically reduced, by id, with the ids of the
    relators that contain each generator.  A length-1 relator forces its
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

