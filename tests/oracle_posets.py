"""Test oracles for posets.

Every poset on up to seven points (:func:`enumerate_posets`), the oracle of
the core generators: posets on k + 1 points are grown from those on k by
attaching a new maximal element above each order ideal, deduplicated by
canonical code at each step.  It knows nothing of levels, ties or beat
points, which is what makes it an independent check of
:mod:`finspace.enumeration`.  The work grows with the number of order
ideals, so it is capped at seven points.

Construction from covers by Warshall's closure and the checked constructor
(:func:`from_covers_reference`), and element heights by longest chains
(:func:`longest_chain_heights`), the oracles of ``Poset.from_covers`` and
``Poset.element_heights``, which close and peel the covers layer by layer.
"""

from finspace.enumeration import SizeTooLarge
from finspace.posets import CycleDetected, NotCover, Poset, PosetError, _bits


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
