"""Height-1 core counts by Burnside's lemma, with no enumeration.

A connected height-1 core with ``a`` minimals and ``b`` maximals is, up to
isomorphism, a ``b``-element multiset of subsets of the ``a`` minimals (the
maximals' down-sets) in which every subset has at least two points, every
point lies in at least two subsets, counted with multiplicity, and the
incidence graph is connected.  Any element of degree one would be a beat
point, and one of degree zero an isolated point.  An isomorphism of such
posets maps minimals to minimals, so the count is the number of orbits of
those multisets under the symmetric group on the points.

Burnside's lemma counts the orbits: the average over permutations sigma of
the multisets sigma fixes.  A multiset is fixed iff its multiplicities are
constant on the sigma-orbits of subsets, and a point's degree is constant
on its sigma-cycle, so a dynamic programme over the orbits of subsets,
holding each cycle's degree capped at two, counts the fixed multisets of
every size at once.  That gives ``G(a, b)``, the count with connectivity
dropped.  A poset counted by ``G`` is a multiset of connected ones, so
``sum G(a, b) x^a y^b = exp(sum_k C(x^k, y^k) / k)`` where ``C`` counts the
connected ones; taking the logarithm and removing the terms of ``k >= 2``
gives ``C``.

``G(a, b) = G(b, a)``, since transposing the incidence matrix swaps the
roles of points and subsets, so the permutations run over the smaller side
only.  Standard library only; nothing here comes from ``finspace``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial


def _partitions(n: int, largest: int | None = None):
    """The partitions of ``n`` into parts of at most ``largest``, as
    non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _class_size(cycle_type: tuple[int, ...]) -> int:
    """The number of permutations with the given cycle lengths."""
    size = factorial(sum(cycle_type))
    for length in set(cycle_type):
        count = cycle_type.count(length)
        size //= length**count * factorial(count)
    return size


def _fixed_multisets(cycle_type: tuple[int, ...], max_b: int) -> list[int]:
    """``out[b]``: the multisets of ``b`` subsets of at least two points, with
    every point in at least two of them, that a permutation of the given
    cycle type fixes, for every ``b <= max_b``."""
    points = sum(cycle_type)
    image = []  # image[x]: sigma(x)
    firsts = []  # the first point of each cycle
    for length in cycle_type:
        start = len(image)
        firsts.append(start)
        image += [start + (k + 1) % length for k in range(length)]

    def moved(mask: int) -> int:
        return sum(1 << image[x] for x in range(points) if mask >> x & 1)

    seen: set[int] = set()
    orbits = []
    for mask in range(1 << points):
        if bin(mask).count("1") < 2 or mask in seen:
            continue
        orbit = []
        while mask not in seen:
            seen.add(mask)
            orbit.append(mask)
            mask = moved(mask)
        orbits.append(orbit)

    table: dict[tuple[int, ...], list[int]] = {(0,) * len(cycle_type): [1] + [0] * max_b}

    def add(state: tuple[int, ...], counts: list[int], shift: int, into: dict) -> None:
        row = into.setdefault(state, [0] * (max_b + 1))
        for b in range(max_b + 1 - shift):
            row[b + shift] += counts[b]

    for orbit in orbits:
        size = len(orbit)
        if size > max_b:
            continue
        # subsets of the orbit holding a given point of each cycle
        hits = [sum(1 for mask in orbit if mask >> first & 1) for first in firsts]
        new: dict[tuple[int, ...], list[int]] = {}
        for state, counts in table.items():
            add(state, counts, 0, new)  # the orbit left out
            once = tuple(min(2, d + h) for d, h in zip(state, hits))
            add(once, counts, size, new)  # each subset of the orbit once
            twice = tuple(2 if h else d for d, h in zip(state, hits))
            for times in range(2, max_b // size + 1):  # each subset that often
                add(twice, counts, times * size, new)
        table = new
    return table.get((2,) * len(cycle_type), [0] * (max_b + 1))


@cache
def _multiset_counts(points: int, max_b: int) -> tuple[int, ...]:
    """``G(points, b)`` for every ``b <= max_b``: Burnside's average of
    :func:`_fixed_multisets` over the permutations of the points."""
    total = [0] * (max_b + 1)
    for cycle_type in _partitions(points):
        weight = _class_size(cycle_type)
        for b, fixed in enumerate(_fixed_multisets(cycle_type, max_b)):
            total[b] += weight * fixed
    out = []
    for count in total:
        orbits = Fraction(count, factorial(points))
        assert orbits.denominator == 1
        out.append(int(orbits))
    return tuple(out)


@cache
def core_counts(n_max: int) -> dict[tuple[int, int], int]:
    """``{(a, b): C(a, b)}``: the connected height-1 cores with ``a``
    minimals and ``b`` maximals, up to isomorphism, for ``2 <= a, b`` and
    ``a + b <= n_max``."""
    shapes = [(a, b) for a in range(n_max + 1) for b in range(n_max + 1 - a)]
    g = {
        (a, b): _multiset_counts(min(a, b), n_max - min(a, b))[max(a, b)]
        for a, b in shapes
    }
    # the logarithm of sum g x^a y^b, by (a + b) g = sum (i + j) log_ij g_(a-i)(b-j)
    log: dict[tuple[int, int], Fraction] = {}
    for a, b in sorted(shapes, key=sum):
        if a + b == 0:
            continue
        rest = sum(
            (i + j) * log[i, j] * g[a - i, b - j]
            for i in range(a + 1)
            for j in range(b + 1)
            if 0 < i + j < a + b
        )
        log[a, b] = g[a, b] - Fraction(rest, a + b)
    connected: dict[tuple[int, int], Fraction] = {}
    for a, b in sorted(log, key=sum):
        connected[a, b] = log[a, b] - sum(
            connected[a // k, b // k] / k
            for k in range(2, a + b + 1)
            if a % k == 0 and b % k == 0
        )
    out = {}
    for (a, b), count in connected.items():
        assert count.denominator == 1 and count >= 0
        if a >= 2 and b >= 2:
            out[a, b] = int(count)
    return out
