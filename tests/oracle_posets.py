"""Test oracle for the core generators: every poset on up to seven points.

Posets on k + 1 points are grown from those on k by attaching a new maximal
element above each order ideal, deduplicated by canonical code at each
step.  It knows nothing of levels, ties or beat points, which is what makes
it an independent check of :mod:`finspace.enumeration`.  The work grows with
the number of order ideals, so it is capped at seven points.
"""

from finspace.enumeration import SizeTooLarge
from finspace.posets import Poset, _bits


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
