"""Test oracle for ``Poset.canonical_code``: an independent canonical form.

This is the branch-and-bound coder the package used before partition
backtracking.  It refines colours once, at the root, and then searches every
ordering of each cell for the lexicographically least relation profile,
pruning only interchangeable twins.  It is exponential on symmetric twin-free
posets (crowns), so use it on small inputs only.  Its codes differ from the
package's; only the equality relation they induce is comparable.
"""

from finspace.posets import Poset


def _refined_cells(p: Poset, sd: list[int], su: list[int]) -> list[tuple[int, ...]]:
    """Equitable partition into isomorphism-invariant cells, canonically
    ordered, starting from (height, depth, #below, #above)."""
    n = p.n
    heights = p.element_heights
    depths = p.dual().element_heights
    colors = [
        (heights[i], depths[i], sd[i].bit_count(), su[i].bit_count()) for i in range(n)
    ]
    while True:
        keys = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in range(n) if sd[i] >> j & 1)),
                tuple(sorted(colors[j] for j in range(n) if su[i] >> j & 1)),
            )
            for i in range(n)
        ]
        ranking = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        new = [(ranking[keys[i]],) for i in range(n)]
        done = len(set(new)) == len(set(colors))
        colors = new
        if done:
            break
    cells: dict[tuple, list[int]] = {}
    for i in range(n):
        cells.setdefault(colors[i], []).append(i)
    return [tuple(cells[c]) for c in sorted(cells)]


def oracle_code(p: Poset) -> bytes:
    """Least position-by-position (below, above) profile within the refined
    cells, found by branch-and-bound; equal for two posets iff isomorphic."""
    n = p.n
    sd = list(p._strict_down)
    su = list(p._strict_up)
    cell_of_pos: list[tuple[int, ...]] = []
    for cell in _refined_cells(p, sd, su):
        cell_of_pos.extend([cell] * len(cell))
    best: list[tuple[int, int]] | None = None

    def pair_for(x: int, placed: list[int]) -> tuple[int, int]:
        dmask = 0
        umask = 0
        for pos, y in enumerate(placed):
            if sd[x] >> y & 1:
                dmask |= 1 << pos
            if su[x] >> y & 1:
                umask |= 1 << pos
        return (dmask, umask)

    def dfs(pos: int, used: int, placed: list[int], prefix: list[tuple[int, int]]):
        nonlocal best
        if best is not None and prefix > best[: len(prefix)]:
            return
        if pos == n:
            if best is None or prefix < best:
                best = list(prefix)
            return
        seen_twins = set()
        scored = []
        for x in cell_of_pos[pos]:
            if used >> x & 1:
                continue
            twin = (sd[x], su[x])
            if twin in seen_twins:
                continue
            seen_twins.add(twin)
            scored.append((pair_for(x, placed), x))
        scored.sort()
        for pv, x in scored:
            placed.append(x)
            prefix.append(pv)
            dfs(pos + 1, used | 1 << x, placed, prefix)
            placed.pop()
            prefix.pop()

    dfs(0, 0, [], [])
    assert best is not None
    return f"{n}:{','.join(f'{d}.{u}' for d, u in best)}".encode("ascii")
