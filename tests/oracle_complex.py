"""The tuple route to the order complex, the reference that the mask route
of ``finspace.complexes`` and ``finspace.presentations.presentation`` are
tested against.

A :class:`SimplicialComplex` keeps its simplices per dimension as sorted
tuples of vertex indices and checks on construction that every face of a
simplex is present.  :func:`order_complex` lists every chain of a poset as
such a tuple, :func:`boundary_matrices` looks each face up in a
tuple-keyed index, and :func:`chain_complex` hands the result to
``finspace.complexes.homology``, so hand-built complexes still exercise the
package's Smith normal form and GF(2) ranks.  :func:`by_faces` reads any
chain complex whose degree-0 generators are the points back into tuples,
so that two routes can be compared entry by entry, whatever order each
lists its chains in.
"""

from __future__ import annotations

from itertools import combinations

from finspace.complexes import ChainComplex, ComplexError, IntegerMatrix
from finspace.posets import Poset, _bits
from finspace.presentations import Presentation, _edge_path


class SimplicialComplex:
    """Simplices stored per dimension as sorted tuples of vertex indices."""

    def __init__(self, n_vertices: int, simplices: list[list[tuple[int, ...]]]):
        if n_vertices < 0:
            raise ComplexError("vertex count must be >= 0")
        by_dim: list[tuple[tuple[int, ...], ...]] = []
        seen: set[tuple[int, ...]] = set()
        for dim, group in enumerate(simplices):
            cleaned = sorted(set(group))
            if len(cleaned) != len(group):
                raise ComplexError(f"duplicate simplices in dimension {dim}")
            for s in cleaned:
                if len(s) != dim + 1:
                    raise ComplexError(f"{s} is not {dim}-dimensional")
                if list(s) != sorted(set(s)):
                    raise ComplexError(f"simplex {s} is not strictly increasing")
                if s[-1] >= n_vertices or s[0] < 0:
                    raise ComplexError(f"simplex {s} references missing vertices")
                seen.add(s)
            by_dim.append(tuple(cleaned))
        while by_dim and not by_dim[-1]:
            by_dim.pop()
        for dim in range(1, len(by_dim)):
            for s in by_dim[dim]:
                for face in combinations(s, dim):
                    if face not in seen:
                        raise ComplexError(f"face {face} of {s} is missing")
        self.n_vertices = n_vertices
        self.simplices = tuple(by_dim)

    @property
    def dimension(self) -> int:
        return len(self.simplices) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self.simplices)


def order_complex(p: Poset) -> SimplicialComplex:
    """All nonempty chains of ``p`` as sorted tuples; its dimension equals
    the poset height."""
    strict_up = p._strict_up
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(p.height + 1)]

    def grow(chain: list[int], last: int) -> None:
        by_dim[len(chain) - 1].append(tuple(sorted(chain)))
        for nxt in _bits(strict_up[last]):
            chain.append(nxt)
            grow(chain, nxt)
            chain.pop()

    for start in range(p.n):
        grow([start], start)
    return SimplicialComplex(p.n, by_dim)


def boundary_matrices(k: SimplicialComplex) -> list[IntegerMatrix]:
    """Boundary maps d_1..d_dim under the sorted-vertex orientation.

    d_i sends an i-simplex to the alternating sum of its facets; signs come
    from the position of the dropped vertex, so d_{i} . d_{i+1} = 0.
    """
    out: list[IntegerMatrix] = []
    for dim in range(1, k.dimension + 1):
        lower_index = {s: r for r, s in enumerate(k.simplices[dim - 1])}
        entries: list[dict[int, int]] = [{} for _ in k.simplices[dim - 1]]
        for c, simplex in enumerate(k.simplices[dim]):
            for drop in range(dim + 1):
                face = simplex[:drop] + simplex[drop + 1 :]
                entries[lower_index[face]][c] = -1 if drop % 2 else 1
        out.append(IntegerMatrix(len(entries), len(k.simplices[dim]), tuple(entries)))
    return out


def chain_complex(k: SimplicialComplex) -> ChainComplex:
    """The simplicial chain complex of ``k``, for ``finspace.complexes.homology``."""
    return ChainComplex(k.f_vector, tuple(boundary_matrices(k)))


def presentation(k: SimplicialComplex) -> Presentation:
    """Edge-path presentation of a connected complex on the vertices
    0, ..., n - 1: its edges, and its triangles as walks in sorted order."""
    neighbours = [0] * k.n_vertices
    for u, v in k.simplices[1] if k.dimension >= 1 else ():
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    return _edge_path(neighbours, k.simplices[2] if k.dimension >= 2 else ())


def by_faces(c: ChainComplex) -> list[dict[tuple[int, ...], dict[tuple[int, ...], int]]]:
    """Each boundary map d_d of ``c`` as {simplex: {face: coefficient}}.

    Degree-0 generator x is read as the vertex (x,), and every other
    generator as the sorted union of the vertices of its faces, so two
    complexes that list the same simplices in different orders give equal
    results.  Two generators read as one simplex collapse into one key, so
    the lengths no longer match the f-vector.
    """
    names = [(x,) for x in range(c.f_vector[0])] if c.f_vector else []
    out = []
    for b in c.boundaries:
        columns: list[dict[tuple[int, ...], int]] = [{} for _ in range(b.cols)]
        for r, row in enumerate(b.entries):
            for j, v in row.items():
                columns[j][names[r]] = v
        names = [tuple(sorted({x for face in col for x in face})) for col in columns]
        out.append(dict(zip(names, columns)))
    return out
