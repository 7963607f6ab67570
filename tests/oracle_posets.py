"""Test oracles for posets.

Every poset on up to seven points (:func:`enumerate_posets`), the oracle of
the core generators: posets on k + 1 points are grown from those on k by
attaching a new maximal element above each order ideal, deduplicated by
canonical code at each step.  It knows nothing of levels, ties or beat
points, which is what makes it an independent check of
:mod:`finspace.enumeration`.  The work grows with the number of order
ideals, so it is capped at seven points.  :func:`all_posets` grows the same
way on masks, with no ``Poset`` built and no cap, and reaches every poset
on eight points in tier-1 time and on nine in a slow test;
:func:`connected_cores` picks out the cores among them, at every height.

Beat points by their definition (:func:`_beat_points`), the oracle of
``Poset.beat_points`` and ``Poset.core``, which count covers instead, and
of the row rules of the core generator.

Construction from covers by Warshall's closure and the checked constructor
(:func:`from_covers_reference`), and element heights by longest chains
(:func:`longest_chain_heights`), the oracles of ``Poset.from_covers`` and
``Poset.element_heights``, which close and peel the covers layer by layer.
"""

from finspace.enumeration import SizeTooLarge
from finspace.posets import CycleDetected, NotCover, Poset, PosetError, _bits, _code, _connected


def _beat_points(down, up) -> int:
    """Bitmask of the beat points of the poset whose strict down- and up-set
    masks are ``down`` and ``up``, by the definition.

    x is a down beat point iff its strict down-set has a maximum m, that is,
    the set minus m lies below m; dually for up beat points.  The package
    counts covers instead (``posets._cover_beat_points``); this is the
    oracle it is checked against.
    """
    beats = 0
    for rows in (down, up):
        for x, hat in enumerate(rows):
            for m in _bits(hat):
                if hat & ~rows[m] == 1 << m:
                    beats |= 1 << x
                    break
    return beats


def from_covers_reference(n: int, pairs, labels=None) -> Poset:
    """The poset whose covers are the (lower, upper) ``pairs``, or the
    error ``Poset.from_covers`` raises for them: the size and index checks,
    Warshall's closure handed to the checked constructor (labels, then a
    cycle), then the cover checks (a repeated pair, then each pair in turn:
    a self-cover or an implied pair)."""
    if not 1 <= n <= 64:
        raise PosetError(f"element count must be 1..64, got {n}")
    pairs = tuple(pairs)
    up = [1 << i for i in range(n)]
    for lo, hi in pairs:
        if not (0 <= lo < n and 0 <= hi < n):
            raise PosetError(f"cover ({lo}, {hi}) out of range for n={n}")
        up[lo] |= 1 << hi
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    poset = Poset(up, labels)
    name = poset.labels
    for k, pair in enumerate(pairs):
        if pair in pairs[:k]:
            raise NotCover(f"pair ({name[pair[0]]}, {name[pair[1]]}) is listed twice")
    for lo, hi in pairs:
        if lo == hi:
            raise CycleDetected(f"cover ({name[lo]}, {name[hi]}) relates an element to itself")
        between = poset._strict_up[lo] & poset._strict_down[hi]
        if between:
            through = name[_bits(between)[0]]
            raise NotCover(f"pair ({name[lo]}, {name[hi]}) is implied through element {through}")
    return poset


def longest_chain_heights(p: Poset) -> tuple[int, ...]:
    """The number of elements strictly below each element on a longest
    chain of ``p``, by recursion over its strict down-sets."""
    heights: dict[int, int] = {}

    def height(x: int) -> int:
        if x not in heights:
            heights[x] = max((1 + height(y) for y in _bits(p._strict_down[x])), default=0)
        return heights[x]

    return tuple(height(x) for x in range(p.n))


def _order_ideal_masks(p: Poset) -> list[int]:
    down = p._strict_down
    return [
        mask
        for mask in range(1 << p.n)
        if not any(down[i] & ~mask for i in _bits(mask))
    ]


def _with_new_maximal(p: Poset, ideal: int) -> Poset:
    n = p.n
    new_bit = 1 << n
    up = [row | 1 << i | (new_bit if ideal >> i & 1 else 0) for i, row in enumerate(p._strict_up)]
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


def all_posets(n: int) -> dict[bytes, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every poset on n points up to isomorphism, on masks: the canonical
    code of each class mapped to the strict down- and up-set masks of one
    member.

    The growth of :func:`enumerate_posets`: a poset on k + 1 points is one
    on k with a new maximal element k above an order ideal, and the classes
    are deduplicated by ``posets._code`` at each step.  Every element is
    added above lower indices only, so the indices are a linear extension,
    and the order ideals are grown element by element: an ideal of the
    elements below i extends by i when it holds i's down-set.  The class
    counts equal the number of unlabelled posets (OEIS A000112; 16,999 on
    8 points and 183,231 on 9), a check that the dedupe neither merges nor
    splits classes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    current = {_code((0,), (0,)): ((0,), (0,))}
    for k in range(1, n):
        grown: dict[bytes, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        new_bit = 1 << k
        for down, up in current.values():
            ideals = [0]
            for i, below in enumerate(down):
                ideals += [ideal | 1 << i for ideal in ideals if ideal & below == below]
            for ideal in ideals:
                new_down = down + (ideal,)
                new_up = tuple(
                    row | new_bit if ideal >> i & 1 else row for i, row in enumerate(up)
                ) + (0,)
                code = _code(new_down, new_up)
                if code not in grown:
                    grown[code] = (new_down, new_up)
        current = grown
    return current


def connected_cores(classes) -> dict[int, dict[bytes, Poset]]:
    """The connected beat-point-free classes of :func:`all_posets`, by
    height: each code mapped to its poset, built by the checked
    constructor."""
    out: dict[int, dict[bytes, Poset]] = {}
    for code, (down, up) in classes.items():
        if _connected(down, up) and not _beat_points(down, up):
            p = Poset([row | 1 << i for i, row in enumerate(up)])
            out.setdefault(p.height, {})[code] = p
    return out
