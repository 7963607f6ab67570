"""Seeded input stream for the ``queries`` workload.

Everything here is plain Python over bitmasks and never imports the package
under test: the program only ever sees the ``.poset`` texts produced below.

A poset is a list ``up`` of bitmasks, ``up[i]`` holding every ``j`` with
``i <= j`` (``i`` included), the same convention as the text format's
transitive closure.
"""

from __future__ import annotations

import random

SIMPLEX_CAP = 800
POINTS = (10, 14)
# A chain of h + 1 points alone has 2^(h+1) - 1 simplices, so the cap rules
# out heights above 8.
HEIGHTS = (1, 8)
RANDOM_ITEMS = 150
# The random posets' shapes come from this constant seed, and --seed only
# renames and reorders their elements.  Item costs span 1 ms to 0.6 s, and
# drawing the shapes from --seed spread a pass's time over seeds by about 18%
# (p90 by 26%); see README.md.
SHAPE_SEED = 20240521


def f_vector(up: list[int]) -> list[int]:
    """f[d] = number of chains with d + 1 points, the d-simplices of the
    order complex."""
    n = len(up)
    # sorting by down-set size gives a linear extension
    down_size = [sum(1 for j in range(n) if up[j] >> i & 1) for i in range(n)]
    ending: list[list[int]] = [[] for _ in range(n)]
    f: list[int] = []
    for i in sorted(range(n), key=down_size.__getitem__):
        counts = [1]
        for j in range(n):
            if j != i and up[j] >> i & 1:
                for d, c in enumerate(ending[j]):
                    if d + 1 == len(counts):
                        counts.append(0)
                    counts[d + 1] += c
        ending[i] = counts
        for d, c in enumerate(counts):
            if d == len(f):
                f.append(0)
            f[d] += c
    return f


def _closure(up: list[int]) -> list[int]:
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(up):
            acc = mask
            for j in range(len(up)):
                if mask >> j & 1:
                    acc |= up[j]
            if acc != mask:
                up[i] = acc
                changed = True
    return up


def random_levelled(rng: random.Random, n: int, height: int) -> list[int]:
    """Random poset of exactly the given height on n points.

    Points are spread over height + 1 nonempty levels.  Every point above
    level 0 gets one cover in the level just below, which pins the height,
    plus further random relations to lower levels.
    """
    cuts = sorted(rng.sample(range(1, n), height))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    levels: list[list[int]] = []
    start = 0
    for size in sizes:
        levels.append(list(range(start, start + size)))
        start += size
    density = rng.choice((0.15, 0.3, 0.5))
    up = [1 << i for i in range(n)]
    for lvl in range(1, len(levels)):
        for x in levels[lvl]:
            up[rng.choice(levels[lvl - 1])] |= 1 << x
            for lower in levels[:lvl]:
                for y in lower:
                    if rng.random() < density / len(levels[:lvl]):
                        up[y] |= 1 << x
    return _closure(up)


def crown(m: int) -> list[int]:
    """2m-point crown: minimal i lies below maximals i and i+1 (mod m).
    Twin-free and symmetric, the hard case for canonical coding."""
    up = [1 << i for i in range(2 * m)]
    for i in range(m):
        up[i] |= 1 << (m + i) | 1 << (m + (i + 1) % m)
    return up


def chain(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full & ~((1 << i) - 1) for i in range(n)]


def sphere_model(dim: int) -> list[int]:
    """Iterated non-Hausdorff suspension of two points: 2*dim + 2 points in
    pairs, each pair strictly above every lower pair."""
    n = 2 * dim + 2
    return [(1 << i) | ((1 << n) - 1) & ~((1 << (i - i % 2 + 2)) - 1) for i in range(n)]


def covers(up: list[int]) -> list[tuple[int, int]]:
    n = len(up)
    strict = [up[i] & ~(1 << i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            if strict[i] >> j & 1 and not any(
                strict[i] >> k & 1 and strict[k] >> j & 1 for k in range(n)
            ):
                out.append((i, j))
    return out


def to_text(labels: list[str], pairs: list[tuple[int, int]]) -> str:
    lines = [f"poset {len(labels)}", "elements " + " ".join(labels)]
    lines += [f"cover {labels[lo]} {labels[hi]}" for lo, hi in pairs]
    return "\n".join(lines) + "\n"


def relabelled_text(rng: random.Random, labels: list[str], pairs: list[tuple[int, int]]) -> str:
    """The same poset under a random renaming and element order."""
    n = len(labels)
    sigma = list(range(n))
    rng.shuffle(sigma)
    moved = [(sigma[lo], sigma[hi]) for lo, hi in pairs]
    rng.shuffle(moved)
    return to_text([f"r{k}" for k in range(n)], moved)


def random_poset(rng: random.Random) -> list[int]:
    """Rejection sampling: a random height and size, redrawn until the order
    complex has at most SIMPLEX_CAP simplices."""
    while True:
        height = rng.randint(*HEIGHTS)
        up = random_levelled(rng, rng.randint(max(POINTS[0], height + 1), POINTS[1]), height)
        if sum(f_vector(up)) <= SIMPLEX_CAP:
            return up


FIXED = {
    "chain10": lambda: chain(10),  # contractible, not a core
    "sphere5": lambda: sphere_model(5),
    "crown7": lambda: crown(7),  # 14 points, twin-free and symmetric
}


def generate(seed: int, count: int, fixed: tuple[str, ...], catalog):
    """The query stream: ``(name, text, relabelled_text)`` triples.

    ``count`` random posets, each of height HEIGHTS[0]..HEIGHTS[1] on
    POINTS[0]..POINTS[1] points with at most SIMPLEX_CAP simplices, then the
    named FIXED members, then every catalog entry ``(id, elements, covers)``.
    The seed picks every renaming: of each random poset and of every copy.
    """
    rng = random.Random(seed)
    shapes = random.Random(SHAPE_SEED)
    out = []
    for k in range(count):
        up = random_poset(shapes)
        labels = [f"p{i}" for i in range(len(up))]
        pairs = covers(up)
        out.append((f"r{k}", relabelled_text(rng, labels, pairs), relabelled_text(rng, labels, pairs)))
    for name in fixed:
        up = FIXED[name]()
        labels = [f"p{i}" for i in range(len(up))]
        pairs = covers(up)
        out.append((name, to_text(labels, pairs), relabelled_text(rng, labels, pairs)))
    for fid, elements, cover_names in catalog:
        index = {e: i for i, e in enumerate(elements)}
        pairs = [(index[lo], index[hi]) for lo, hi in cover_names]
        out.append((fid, to_text(list(elements), pairs), relabelled_text(rng, list(elements), pairs)))
    return out
