"""Edge-path presentations of fundamental groups of 2-complexes.

Generators are the edges outside a breadth-first spanning tree; every
triangle contributes one relator of length at most three.  A terminating
rewriting loop (free reduction, removal of trivialized generators,
duplicate-relator removal, substitution of generators that occur exactly
once in some relator) then tries to certify the group free of some rank.
Free-group recognition is undecidable in general, so the simplifier runs
under an explicit step budget and reports ``inconclusive`` when it cannot
finish; callers must treat that as honest ignorance, not failure.

Words are tuples of nonzero signed integers: ``+g`` is generator ``g``,
``-g`` its inverse, with generators numbered from one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from finspace.complexes import IntegerMatrix, SimplicialComplex, smith_normal_form
from finspace.posets import Poset, _bits

Word = tuple[int, ...]

DEFAULT_STEP_BUDGET = 10_000


class DisconnectedComplex(ValueError):
    """Presentation requested for a complex that is not connected."""


@dataclass(frozen=True)
class Presentation:
    """Group presentation plus the spanning-tree data it came from.

    ``generator_edges[g-1]`` is the non-tree edge behind generator ``g``;
    ``tree_edges`` lists the spanning tree, rooted at ``basepoint``.
    """

    num_generators: int
    relators: tuple[Word, ...]
    generator_edges: tuple[tuple[int, int], ...] = ()
    tree_edges: tuple[tuple[int, int], ...] = ()
    basepoint: int | None = None

    def generator_names(self) -> tuple[str, ...]:
        return tuple(f"g{i + 1}" for i in range(self.num_generators))

    def to_text(self) -> str:
        """Stable display form: ⟨g1, g2 | g1 g2 g1^-1 g2^-1⟩."""
        gens = ", ".join(self.generator_names())
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
    """Outcome of :func:`tietze_simplify`.

    ``kind`` is one of ``"free"`` (with ``rank`` set), ``"trivial"`` or
    ``"inconclusive"`` (with ``remaining`` holding the stuck presentation).
    """

    kind: str
    rank: int | None = None
    remaining: Presentation | None = None

    @classmethod
    def free_of_rank(cls, rank: int) -> "SimplificationStatus":
        if rank == 0:
            return cls(kind="trivial")
        return cls(kind="free", rank=rank)

    @classmethod
    def inconclusive(cls, remaining: Presentation) -> "SimplificationStatus":
        return cls(kind="inconclusive", remaining=remaining)

    @property
    def is_conclusive(self) -> bool:
        return self.kind != "inconclusive"

    def certifies_free_rank(self, rank: int) -> bool:
        if rank == 0:
            return self.kind == "trivial"
        return self.kind == "free" and self.rank == rank

    def describe(self) -> str:
        if self.kind == "trivial":
            return "trivial group"
        if self.kind == "free":
            return f"free of rank {self.rank}"
        assert self.remaining is not None
        return (
            f"inconclusive ({self.remaining.num_generators} generators, "
            f"{len(self.remaining.relators)} relators left)"
        )


def presentation(k: SimplicialComplex, basepoint: int | None = None) -> Presentation:
    """Edge-path group presentation of a connected complex of dimension <= 2.

    The spanning tree is breadth-first from ``basepoint`` (default: the
    least vertex), neighbours visited in increasing order, so the output is
    deterministic.  The abelianization of the result has rank beta_1.
    """
    if k.dimension > 2:
        raise ValueError("presentation requires dimension <= 2")
    if not k.is_connected():
        raise DisconnectedComplex("complex is not connected")
    triangles = k.simplices[2] if k.dimension == 2 else ()
    return _edge_path(k.vertices(), k.edges(), triangles, basepoint)


def poset_presentation(p: Poset, basepoint: int | None = None) -> Presentation:
    """The presentation of the order complex of ``p``, read off the order
    bitmasks without building the complex.

    Edges are the comparable pairs and triangles the 3-chains, both as
    sorted index tuples in lexicographic order, which is the order
    :func:`~finspace.complexes.order_complex` gives them; so the result
    equals ``presentation(order_complex(p), basepoint)``.
    """
    if p.height > 2:
        raise ValueError("presentation requires dimension <= 2")
    if not p.is_connected:
        raise DisconnectedComplex("complex is not connected")
    comparable = [u | d for u, d in zip(p._strict_up, p._strict_down)]
    edges = []
    triangles = []
    for i, row in enumerate(comparable):
        above = row >> (i + 1) << (i + 1)
        for j in _bits(above):
            edges.append((i, j))
            for k in _bits(above & comparable[j] >> (j + 1) << (j + 1)):
                triangles.append((i, j, k))
    return _edge_path(tuple(range(p.n)), edges, triangles, basepoint)


def _edge_path(
    verts: tuple[int, ...],
    edges: Sequence[tuple[int, int]],
    triangles: Iterable[tuple[int, ...]],
    basepoint: int | None,
) -> Presentation:
    """Presentation of the connected 2-complex with the given sorted
    vertices, edges and triangles: one generator per non-tree edge, one
    relator per triangle."""
    if basepoint is None:
        basepoint = verts[0]
    if basepoint not in set(verts):
        raise ValueError(f"basepoint {basepoint} is not a vertex")
    neighbours: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    for v in neighbours:
        neighbours[v].sort()
    tree: set[tuple[int, int]] = set()
    seen = {basepoint}
    queue = deque([basepoint])
    while queue:
        u = queue.popleft()
        for w in neighbours[u]:
            if w not in seen:
                seen.add(w)
                tree.add((min(u, w), max(u, w)))
                queue.append(w)
    gen_of: dict[tuple[int, int], int] = {}
    gen_edges: list[tuple[int, int]] = []
    for edge in edges:
        if edge not in tree:
            gen_edges.append(edge)
            gen_of[edge] = len(gen_edges)

    # The three edges of a triangle are distinct generators or tree edges,
    # so the word u -> v -> w -> u is already freely reduced.
    relators = []
    for u, v, w in triangles:
        word = []
        for edge, sign in (((u, v), 1), ((v, w), 1), ((u, w), -1)):
            g = gen_of.get(edge)
            if g is not None:
                word.append(sign * g)
        relators.append(tuple(word))
    return Presentation(
        num_generators=len(gen_edges),
        relators=tuple(relators),
        generator_edges=tuple(gen_edges),
        tree_edges=tuple(sorted(tree)),
        basepoint=basepoint,
    )


def free_reduce(word: Word) -> Word:
    out: list[int] = []
    for v in word:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def cyclic_reduce(word: Word) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _cyclic_normal(word: Word) -> Word:
    """Least rotation of the word or its inverse; detects duplicate relators."""
    w = cyclic_reduce(word)
    if not w:
        return ()
    candidates = []
    for base in (w, tuple(-v for v in reversed(w))):
        for s in range(len(base)):
            candidates.append(base[s:] + base[:s])
    return min(candidates)


def _drop_generator(relators: list[Word], gen: int) -> list[Word]:
    """Remove every occurrence of ±gen (the generator is trivial)."""
    return [free_reduce(tuple(v for v in rel if abs(v) != gen)) for rel in relators]


def _substitute(relators: list[Word], gen: int, replacement: Word) -> list[Word]:
    """Replace gen by the given word (and -gen by its inverse) everywhere."""
    inv = tuple(-v for v in reversed(replacement))
    out = []
    for rel in relators:
        word: list[int] = []
        for v in rel:
            if v == gen:
                word.extend(replacement)
            elif v == -gen:
                word.extend(inv)
            else:
                word.append(v)
        out.append(free_reduce(tuple(word)))
    return out


def _renumber(relators: list[Word], num_generators: int) -> tuple[list[Word], int]:
    """Compact generator indices after eliminations."""
    used = sorted({abs(v) for rel in relators for v in rel})
    mapping = {g: i + 1 for i, g in enumerate(used)}
    remap = [
        tuple(mapping[v] if v > 0 else -mapping[-v] for v in rel) for rel in relators
    ]
    return remap, len(used)


def tietze_simplify(
    pres: Presentation, step_budget: int = DEFAULT_STEP_BUDGET
) -> SimplificationStatus:
    """Drive the presentation to a fixpoint under cheap Tietze moves.

    Moves, in scan order: drop empty relators, kill generators forced
    trivial by length-1 relators, drop cyclically-duplicate relators, and
    eliminate any generator occurring exactly once in some relator by
    solving for it.  Each applied move costs one budget step; exhaustion
    yields ``inconclusive`` with the partly-simplified presentation.
    """
    if step_budget <= 0:
        raise ValueError("step budget must be positive")
    num_gens = pres.num_generators
    relators = [cyclic_reduce(r) for r in pres.relators]
    steps = 0
    exhausted = False

    def spend() -> bool:
        nonlocal steps, exhausted
        steps += 1
        if steps > step_budget:
            exhausted = True
        return not exhausted

    changed = True
    while changed and not exhausted:
        changed = False
        nonempty = [r for r in relators if r]
        if len(nonempty) != len(relators):
            relators = nonempty
            changed = True
            if not spend():
                break
        # a length-1 relator forces its generator to the identity
        unit = next((r for r in relators if len(r) == 1), None)
        if unit is not None:
            relators = [cyclic_reduce(r) for r in _drop_generator(relators, abs(unit[0]))]
            num_gens -= 1
            changed = True
            if not spend():
                break
            continue
        # duplicate relators up to rotation and inversion
        normals: set[Word] = set()
        deduped: list[Word] = []
        for rel in relators:
            key = _cyclic_normal(rel)
            if key in normals:
                continue
            normals.add(key)
            deduped.append(rel)
        if len(deduped) != len(relators):
            relators = deduped
            changed = True
            if not spend():
                break
            continue
        # a generator occurring exactly once in some relator can be solved for
        for idx, rel in enumerate(relators):
            counts: dict[int, int] = {}
            for v in rel:
                counts[abs(v)] = counts.get(abs(v), 0) + 1
            lone = next((g for g in counts if counts[g] == 1), None)
            if lone is None:
                continue
            pos = next(i for i, v in enumerate(rel) if abs(v) == lone)
            before, after = rel[:pos], rel[pos + 1 :]
            # rel = B g A = 1  =>  g = B^-1 A^-1; flip if the letter was g^-1
            solved = tuple(-v for v in reversed(after + before))
            if rel[pos] < 0:
                solved = tuple(-v for v in reversed(solved))
            rest = relators[:idx] + relators[idx + 1 :]
            relators = [cyclic_reduce(r) for r in _substitute(rest, lone, solved)]
            num_gens -= 1
            changed = True
            break
        else:
            continue
        if not spend():
            break

    relators = [r for r in relators if r]
    if relators or exhausted:
        remap, _ = _renumber(relators, num_gens)
        stuck = Presentation(num_generators=num_gens, relators=tuple(remap))
        return SimplificationStatus.inconclusive(stuck)
    return SimplificationStatus.free_of_rank(num_gens)


def abelianized_rank(pres: Presentation) -> int:
    """Rank of the abelianized group: generators minus exponent-matrix rank."""
    if pres.num_generators == 0:
        return 0
    rows = []
    for rel in pres.relators:
        row = [0] * pres.num_generators
        for v in rel:
            row[abs(v) - 1] += 1 if v > 0 else -1
        rows.append(row)
    if not rows:
        return pres.num_generators
    matrix = IntegerMatrix.from_rows(rows, pres.num_generators)
    return pres.num_generators - smith_normal_form(matrix).rank
