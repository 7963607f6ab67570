"""Test oracle for ``tietze_simplify``: the restart-scan simplifier.

This is the loop the package used before occurrence indexing.  After every
applied move it rescans the whole relator list from the start: it drops
empty relators, kills a generator forced trivial by a length-1 relator,
drops relators that are rotations of another one or of its inverse, and
solves for a generator occurring once in the first relator that has one.
Every move rewrites and re-reduces every relator, so use it on small
inputs only.  Its ``(kind, rank)`` outcomes are what the package's
simplifier must reproduce; its step counts and stuck presentations are not.

:func:`abelianized_rank` is the second oracle: the rank of the abelianized
group from Smith normal form of the relators' exponent matrix, which must
equal the rank of any free group the simplifier certifies.
"""

from finspace.complexes import ComplexError, IntegerMatrix, smith_normal_form
from finspace.presentations import (
    Presentation,
    SimplificationStatus,
    Word,
    cyclic_reduce,
    free_reduce,
)

DEFAULT_STEP_BUDGET = 10_000


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


def oracle_tietze(
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


def matrix_from_rows(rows: list[list[int]], cols: int | None = None) -> IntegerMatrix:
    """The sparse matrix of dense rows, all of length ``cols`` (default: the
    first row's length)."""
    width = cols if cols is not None else (len(rows[0]) if rows else 0)
    if any(len(r) != width for r in rows):
        raise ComplexError("matrix shape does not match entries")
    return IntegerMatrix(
        len(rows), width, tuple({j: v for j, v in enumerate(r) if v} for r in rows)
    )


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
    matrix = matrix_from_rows(rows, pres.num_generators)
    return pres.num_generators - smith_normal_form(matrix).rank
