"""Finite T0-spaces represented as posets.

A finite T0-space is the same thing as a finite poset under the
specialization order, so every topological question about such a space
(connectedness, homotopy type, minimality) becomes an order-theoretic one.
This module holds the immutable :class:`Poset` value type and the structural
operations everything else is built on: up/down-set masks, heights and levels,
duals, beat points and cores, the non-Hausdorff suspension, and canonical
codes for isomorphism testing.

Elements are indices ``0..n-1``.  The order relation is stored once, as two
tuples of bitmasks per poset: the strict up-set and the strict down-set of
each element, neither holding the element itself.  Every algorithm here reads
those masks, which keeps every operation exact and fast for ``n <= 64``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

MAX_ELEMENTS = 64


class PosetError(ValueError):
    """Base class for malformed poset data."""


class CycleDetected(PosetError):
    """The transitive closure of the given covers violates antisymmetry."""


class NotCover(PosetError):
    """A listed cover pair is already implied transitively."""


def _byte_bits(offset: int) -> list[tuple[int, ...]]:
    """``table[b]``: the set bit positions of ``b << offset``, for b < 256."""
    table: list[tuple[int, ...]] = [()]
    for i in range(offset, offset + 8):
        table += [t + (i,) for t in table]
    return table


_LOW_BYTE = _byte_bits(0)
_HIGH_BYTE = _byte_bits(8)


def _bits(mask: int) -> Sequence[int]:
    """The set bit positions of ``mask`` in increasing order.

    Every loop over the set bits of a mask in the package runs through
    here, on nearly every row it touches, so this returns a ready sequence
    rather than a generator: a mask below 2^8 gets a shared tuple from a
    byte table, and one below 2^16 the sum of two such tuples.  A wider
    mask (a row or a chain of a poset on more than 16 points) gets a fresh
    list built one set bit at a time.  Every mask in the package lies over
    the at most 64 points of a poset, since no complex wider than 64
    vertices reaches here; the result is exact at any width all the same.
    The two 256-entry tables are all the memory kept; nothing is cached per
    mask.
    """
    if mask < 256:
        return _LOW_BYTE[mask]
    if mask < 65536:
        return _LOW_BYTE[mask & 255] + _HIGH_BYTE[mask >> 8]
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _transpose(rows: Sequence[int]) -> list[int]:
    """The relation ``rows`` read backwards: bit i of ``out[j]`` is bit j of
    ``rows[i]``.  Strict down-set masks become strict up-set masks and back."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            out[j] |= 1 << i
    return out


def _connected(down: Sequence[int], up: Sequence[int]) -> bool:
    """True iff every element is reached from element 0 along the strict
    down- and up-set masks ``down`` and ``up`` (the comparability graph)."""
    seen = 1
    frontier = 1
    while frontier:
        new = 0
        for i in _bits(frontier):
            new |= down[i] | up[i]
        frontier = new & ~seen
        seen |= new
    return seen == (1 << len(down)) - 1


def _beat_points(
    down: Sequence[int], up: Sequence[int], among: int | None = None
) -> int:
    """Bitmask of the beat points of the poset whose strict down- and up-set
    masks are ``down`` and ``up``, checking only the elements in the mask
    ``among`` (default: all).

    x is a down beat point iff its strict down-set has a maximum m, that is,
    the set minus m lies below m; dually for up beat points.
    """
    beats = 0
    for rows in (down, up):
        hats = enumerate(rows) if among is None else ((x, rows[x]) for x in _bits(among))
        for x, hat in hats:
            for m in _bits(hat):
                if hat & ~rows[m] == 1 << m:
                    beats |= 1 << x
                    break
    return beats


def _layers(below: Sequence[int], above: Sequence[int]) -> list[int]:
    """The elements in layers, as bitmasks: layer 0 holds the elements whose
    ``below`` mask is empty, and an element joins the first layer after
    every element of its ``below`` mask, so its layer is its height.
    ``above`` is the transpose of ``below``: the upper and lower covers, or
    the strict up- and down-sets.  Each layer is found among the elements
    above the last one.  An element on or above a cycle of ``below`` is
    never placed, so the layers hold every element iff ``below`` is
    acyclic."""
    layer = 0
    for i, mask in enumerate(below):
        if not mask:
            layer |= 1 << i
    layers = []
    placed = 0
    while layer:
        layers.append(layer)
        placed |= layer
        reach = 0
        for i in _bits(layer):
            reach |= above[i]
        layer = 0
        for i in _bits(reach):
            if not below[i] & ~placed:
                layer |= 1 << i
    return layers


def _renamed(mask: int, bit: Sequence[int]) -> int:
    """``mask`` with each set bit j replaced by the mask ``bit[j]``."""
    out = 0
    for j in _bits(mask):
        out |= bit[j]
    return out


def _check_size(n: int) -> None:
    if not 1 <= n <= MAX_ELEMENTS:
        raise PosetError(f"element count must be 1..{MAX_ELEMENTS}, got {n}")


def _checked_labels(n: int, labels: Sequence[str] | None) -> tuple[str, ...]:
    """``labels`` as a tuple of ``n`` distinct names; ``x0..x{n-1}`` for None."""
    if labels is None:
        return tuple(f"x{i}" for i in range(n))
    labels = tuple(labels)
    if len(labels) != n:
        raise PosetError("label count does not match element count")
    if len(set(labels)) != n:
        raise PosetError("element labels must be distinct")
    return labels


@dataclass(frozen=True)
class RolePartition:
    """Maximal / middle / minimal elements; isolated points appear in both
    mxl and mnl."""

    mxl: frozenset[int]
    middle: frozenset[int]
    mnl: frozenset[int]


class Poset:
    """An immutable finite poset on elements ``0..n-1``.

    The constructor takes the reflexive up-set masks: ``up_masks[i]`` is the
    bitmask of ``{j : i <= j}``, including ``i`` itself.  An instance stores
    ``n``, ``labels`` and the order once, as ``_strict_up[i]``, the bitmask
    of ``{j : i < j}``, and its transpose ``_strict_down[i]``, the bitmask
    of ``{j : j < i}``; the other attributes are cached invariants, among
    them ``_core``, set by :meth:`core`.  A generator that already knows
    an invariant may set it in advance: ``canonical_code`` and
    ``dual_code``, when it has coded the poset or its dual, and
    ``element_heights``, ``height``, ``is_connected`` and
    ``is_homogeneous``, which the core generator of
    :mod:`finspace.enumeration` fixes when it builds the rows.  The order
    is never mutated after construction, so instances are safe to share
    across threads.

    Every public way in checks its input, once.  The constructor checks
    size, labels, range, reflexivity, antisymmetry and transitivity.
    :meth:`from_covers`, and through it the parsers of
    :mod:`finspace.formats`, checks the size, the cover indices, the labels
    as the constructor does, and that each pair is a cover; it closes
    acyclic covers layer by layer, which makes them an order by
    construction, and hands covers with a cycle to the constructor, which
    names two elements on it.  :meth:`permuted`, :meth:`restricted` and
    :meth:`nh_suspension` check only their own arguments: a relabelling, an
    induced subposet and a suspension of an order are orders.

    The private :meth:`_from_strict` stores strict masks unchecked, and is
    used only for masks derived from an order already known to be valid:
    the closure of acyclic covers in :meth:`from_covers`; :meth:`dual`,
    which swaps a poset's two tuples; :meth:`permuted`, :meth:`restricted`
    (and so :meth:`core`) and :meth:`nh_suspension`; and the core generator
    of :mod:`finspace.enumeration`, which builds each kept core from
    down-set rows that name only lower levels, closed downwards, and their
    transpose, and each wide height-1 core by transposing a kept one.
    Checking those masks again would find nothing.
    """

    def __init__(self, up_masks: Sequence[int], labels: Sequence[str] | None = None):
        n = len(up_masks)
        _check_size(n)
        labels = _checked_labels(n, labels)
        full = (1 << n) - 1
        up = []
        for i, row in enumerate(up_masks):
            if row & ~full:
                raise PosetError(f"relation row of {labels[i]} references elements >= n")
            if not row >> i & 1:
                raise PosetError(f"relation not reflexive at element {labels[i]}")
            up.append(row ^ 1 << i)
        down = _transpose(up)
        for i in range(n):
            on_cycle = up[i] & down[i]
            if on_cycle:
                j = _bits(on_cycle)[0]
                raise CycleDetected(f"elements {labels[i]} and {labels[j]} lie on a cycle")
            for j in _bits(up[i]):
                if up[j] & ~up[i]:
                    raise PosetError(f"relation not transitive at ({labels[i]}, {labels[j]})")
        self._store(down, up, labels)

    def _store(self, down: Sequence[int], up: Sequence[int], labels: tuple[str, ...]) -> None:
        self.n = len(up)
        self.labels = labels
        self._strict_up = tuple(up)
        self._strict_down = tuple(down)

    @classmethod
    def _from_strict(
        cls, down: Sequence[int], up: Sequence[int], labels: tuple[str, ...]
    ) -> "Poset":
        """The poset with strict down- and up-set masks ``down`` and ``up``,
        which must be transposes of each other and a valid order, and the
        label tuple ``labels``, stored as given: nothing is checked."""
        poset = cls.__new__(cls)
        poset._store(down, up, labels)
        return poset

    # -- construction ------------------------------------------------------

    @classmethod
    def from_covers(
        cls,
        n: int,
        pairs: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "Poset":
        """Build the poset whose order is the reflexive-transitive closure of
        the Hasse diagram whose (lower, upper) cover edges are ``pairs``.

        Raises :class:`PosetError` for an index outside ``0..n-1``,
        :class:`CycleDetected` for a self-cover or a closure that is not
        antisymmetric, and :class:`NotCover` if a pair is listed twice or
        is implied by the others.  Errors about the order name the elements
        by their labels.

        The covers are peeled into layers (:func:`_layers`).  If every
        element is placed, the covers are acyclic: up-sets close over the
        upper covers from the top layer down, down-sets are their
        transpose, and the result is an order by construction, stored
        unchecked.  Otherwise the covers hold a cycle (a self-cover
        counts), and only then are they closed by Warshall's algorithm for
        the checked constructor, whose errors take precedence over the
        cover checks.
        """
        _check_size(n)
        pairs = tuple(pairs)
        above = [0] * n  # upper covers
        below = [0] * n  # lower covers
        for lo, hi in pairs:
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetError(f"cover ({lo}, {hi}) out of range for n={n}")
            above[lo] |= 1 << hi
            below[hi] |= 1 << lo
        layers = _layers(below, above)
        if sum(map(int.bit_count, layers)) == n:
            labels = _checked_labels(n, labels)
            up = [0] * n
            for layer in reversed(layers):
                for i in _bits(layer):
                    row = above[i]
                    for j in _bits(above[i]):
                        row |= up[j]
                    up[i] = row
            poset = cls._from_strict(_transpose(up), up, labels)
        else:
            up = [1 << i | above[i] for i in range(n)]
            for k in range(n):  # after step k, paths through 0..k are closed
                bit, row = 1 << k, up[k]
                for i in range(n):
                    if up[i] & bit:
                        up[i] |= row
            poset = cls(up, labels)
        name, strict = poset.labels, poset._strict_up
        if sum(map(int.bit_count, above)) < len(pairs):  # one bit per distinct pair
            lo, hi = next(pair for k, pair in enumerate(pairs) if pair in pairs[:k])
            raise NotCover(f"pair ({name[lo]}, {name[hi]}) is listed twice")
        for lo, hi in pairs:
            if lo == hi:
                raise CycleDetected(f"cover ({name[lo]}, {name[hi]}) relates an element to itself")
            between = strict[lo] & poset._strict_down[hi]
            if between:
                through = name[_bits(between)[0]]
                raise NotCover(f"pair ({name[lo]}, {name[hi]}) is implied through element {through}")
        return poset

    @classmethod
    def antichain(cls, n: int, labels: Sequence[str] | None = None) -> "Poset":
        return cls([1 << i for i in range(n)], labels)

    @classmethod
    def chain(cls, n: int, labels: Sequence[str] | None = None) -> "Poset":
        full = (1 << n) - 1
        return cls([full & ~((1 << i) - 1) for i in range(n)], labels)

    # -- basic accessors -----------------------------------------------------

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The Hasse diagram edge set, sorted."""
        out = []
        for i in range(self.n):
            for j in _bits(self._strict_up[i]):
                between = self._strict_up[i] & self._strict_down[j]
                if not between:
                    out.append((i, j))
        return tuple(sorted(out))

    # -- heights and roles ---------------------------------------------------

    @cached_property
    def element_heights(self) -> tuple[int, ...]:
        """Longest chain strictly below each element (minimal elements get 0):
        the index of its layer (:func:`_layers`)."""
        h = [0] * self.n
        for k, layer in enumerate(_layers(self._strict_down, self._strict_up)):
            for i in _bits(layer):
                h[i] = k
        return tuple(h)

    @cached_property
    def height(self) -> int:
        return max(self.element_heights)

    @cached_property
    def maximal_elements(self) -> frozenset[int]:
        return frozenset(i for i in range(self.n) if not self._strict_up[i])

    @cached_property
    def minimal_elements(self) -> frozenset[int]:
        return frozenset(i for i in range(self.n) if not self._strict_down[i])

    def role_partition(self) -> RolePartition:
        mxl = self.maximal_elements
        mnl = self.minimal_elements
        middle = frozenset(range(self.n)) - mxl - mnl
        return RolePartition(mxl=mxl, middle=middle, mnl=mnl)

    @cached_property
    def is_connected(self) -> bool:
        """True iff the comparability graph is connected."""
        return _connected(self._strict_down, self._strict_up)

    @cached_property
    def is_homogeneous(self) -> bool:
        """True iff every maximal chain has the same length.

        Equivalent to: every cover step raises element height by exactly one
        and every maximal element sits at the top height.
        """
        h = self.element_heights
        top = self.height
        if any(h[m] != top for m in self.maximal_elements):
            return False
        return all(h[j] == h[i] + 1 for i, j in self.covers)

    # -- structural operations ------------------------------------------------

    def dual(self) -> "Poset":
        """The opposite poset: same elements, order reversed."""
        return Poset._from_strict(self._strict_up, self._strict_down, self.labels)

    def permuted(self, sigma: Sequence[int]) -> "Poset":
        """Relabelled copy: element i of self becomes element sigma[i].
        Raises :class:`PosetError` unless sigma is a permutation of
        ``0..n-1``."""
        n = self.n
        if sorted(sigma) != list(range(n)):
            raise PosetError("sigma is not a permutation")
        bit = [1 << s for s in sigma]
        up, down, labels = [0] * n, [0] * n, [""] * n
        for i, s in enumerate(sigma):
            up[s] = _renamed(self._strict_up[i], bit)
            down[s] = _renamed(self._strict_down[i], bit)
            labels[s] = self.labels[i]
        return Poset._from_strict(down, up, tuple(labels))

    def restricted(self, keep: Sequence[int]) -> "Poset":
        """Induced subposet on the given elements (in the given order).
        Raises :class:`PosetError` for an index outside ``0..n-1``, an index
        listed twice, or no index at all."""
        n = self.n
        bit = [0] * n
        kept = 0
        for k, x in enumerate(keep):
            if not 0 <= x < n:
                raise PosetError(f"element index {x} out of range for n={n}")
            if kept >> x & 1:
                raise PosetError(f"element index {x} listed twice")
            kept |= 1 << x
            bit[x] = 1 << k
        _check_size(kept.bit_count())
        up = [_renamed(self._strict_up[x] & kept, bit) for x in keep]
        down = [_renamed(self._strict_down[x] & kept, bit) for x in keep]
        return Poset._from_strict(down, up, tuple(self.labels[x] for x in keep))

    # -- beat points and cores -------------------------------------------------

    def beat_points(self) -> frozenset[int]:
        """Elements whose punctured down-set has a maximum or whose punctured
        up-set has a minimum."""
        return frozenset(_bits(_beat_points(self._strict_down, self._strict_up)))

    @cached_property
    def is_core(self) -> bool:
        return not self.beat_points()

    def core(self) -> "Poset":
        """Remove beat points (lowest index first, one at a time) until none
        remain.  The result is the same up to isomorphism whatever the order;
        the index rule makes this particular output deterministic.

        The removal runs on copies of the strict masks.  Removing x changes
        the punctured down- and up-sets only of the elements comparable to
        x, so only those are checked again; the subposet is built once, at
        the end.

        The result is kept, so every later call returns it at once.  A
        poset that is already a core returns itself and keeps ``None``
        rather than a reference to itself, and the core it returns knows
        that it is its own core.
        """
        try:
            core = self._core
        except AttributeError:
            pass
        else:
            return self if core is None else core
        down = list(self._strict_down)
        up = list(self._strict_up)
        beats = _beat_points(down, up)
        removed = 0
        while beats:
            low = beats & -beats
            x = low.bit_length() - 1
            removed |= low
            for y in _bits(down[x]):
                up[y] ^= low
            for y in _bits(up[x]):
                down[y] ^= low
            near = down[x] | up[x]
            beats = beats & ~low & ~near | _beat_points(down, up, near)
        if not removed:
            self._core = None
            return self
        core = self._core = self.restricted(_bits((1 << self.n) - 1 & ~removed))
        core._core = None
        return core

    def nh_suspension(self, k: int = 1) -> "Poset":
        """Non-Hausdorff suspension, iterated ``k`` times.

        Each step adds two new incomparable points strictly above every
        existing point, so the size grows by 2k and the height by k.
        """
        if k < 0:
            raise PosetError("iteration count must be >= 0")
        p = self
        for _ in range(k):
            n = p.n
            _check_size(n + 2)
            below = (1 << n) - 1
            up = [row | 3 << n for row in p._strict_up] + [0, 0]
            down = [*p._strict_down, below, below]
            existing = set(p.labels)
            fresh = []
            t = 0
            while len(fresh) < 2:
                name = f"s{t}"
                if name not in existing:
                    fresh.append(name)
                t += 1
            p = Poset._from_strict(down, up, (*p.labels, *fresh))
        return p

    # -- isomorphism ------------------------------------------------------------

    @cached_property
    def canonical_code(self) -> bytes:
        """A byte string equal for two posets iff they are isomorphic
        (:func:`_code`)."""
        return _code(self._strict_down, self._strict_up)

    @cached_property
    def dual_code(self) -> bytes:
        """The canonical code of :meth:`dual`, coded from this poset's own
        masks read the other way round; no dual is built.  A generator that
        has already coded the dual may set it first, so that it is not
        coded again."""
        return _code(self._strict_up, self._strict_down)

    def is_isomorphic(self, other: "Poset") -> bool:
        return self.canonical_code == other.canonical_code

    # -- misc ---------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{self.labels[i]}<{self.labels[j]}" for i, j in self.covers)
        return f"Poset(n={self.n}, covers=[{pairs}])"


# -- canonical labelling --------------------------------------------------------
#
# Partition backtracking (McKay, "Practical graph isomorphism", 1981; McKay &
# Piperno, "Practical graph isomorphism, II", 2014).  An ordered partition is
# a list of disjoint bitmask cells.  Refinement and the choice of where to
# branch look only at the order relation and at cell positions, never at
# element indices, so an isomorphism carries one poset's search tree onto the
# other's and the least leaf certificate is a canonical form.


def _refine(cells: list[int], queue: list[int], sd: Sequence[int], su: Sequence[int]) -> None:
    """Refine the ordered partition ``cells`` in place until it is equitable:
    elements of one cell have equally many elements below them, and equally
    many above, in every cell.

    ``queue`` lists the splitter cells still to apply.  A splitter S splits
    each cell by the key (|below x & S|, |above x & S|), pieces in key order.
    A split cell that is not queued itself queues all its pieces but the
    first largest, whose counts follow from the others' (Hopcroft's rule).

    Most splitters split nothing, so a cell that stays whole is passed over
    without building anything: under a single-element splitter y it stays
    whole iff it misses the elements comparable to y, or lies inside those
    below y or inside those above y.  The list changes only after a
    splitter that split some cell: each such cell is replaced in place by
    its pieces.
    """
    n = len(sd)
    pending = set(queue)
    head = 0
    while head < len(queue) and len(cells) < n:
        s = queue[head]
        head += 1
        if s not in pending:  # split since it was queued; its pieces are queued
            continue
        pending.discard(s)
        single = not s & (s - 1)
        if single:  # the elements above / below y
            y = s.bit_length() - 1
            above, below = su[y], sd[y]
            touched = above | below
        else:  # the elements comparable to some element of s
            touched = 0
            for y in _bits(s):
                touched |= su[y] | sd[y]
        splits: list[tuple[int, list[int]]] = []  # (cell, its pieces)
        for c in cells:
            if not (c & (c - 1) and c & touched):
                continue
            if single:  # keys (0, 0), (0, 1), (1, 0)
                if not c & ~below or not c & ~above:
                    continue
                pieces = [p for p in (c & ~touched, c & below, c & above) if p]
            else:
                groups: dict[int, int] = {}
                for x in _bits(c):
                    key = (sd[x] & s).bit_count() << 7 | (su[x] & s).bit_count()
                    groups[key] = groups.get(key, 0) | 1 << x
                if len(groups) == 1:
                    continue
                pieces = [groups[key] for key in sorted(groups)]
            splits.append((c, pieces))
            skip = -1
            if c in pending:
                pending.discard(c)
            else:
                sizes = [p.bit_count() for p in pieces]
                skip = sizes.index(max(sizes))
            for k, p in enumerate(pieces):
                if k != skip:
                    queue.append(p)
                    pending.add(p)
        for c, pieces in splits:
            i = cells.index(c)
            cells[i : i + 1] = pieces


def _orbit_roots(
    cell: int, fixed: list[int], gens: list[list[int]], sd: Sequence[int], su: Sequence[int]
) -> dict[int, int]:
    """Orbit representative of each element of ``cell`` under the twin
    transpositions inside it and the automorphisms in ``gens`` that fix
    every element of ``fixed``."""
    parent: dict[int, int] = {}
    first_twin: dict[tuple[int, int], int] = {}
    for x in _bits(cell):
        parent[x] = first_twin.setdefault((sd[x], su[x]), x)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        if all(g[v] == v for v in fixed):
            for x in _bits(cell):
                a, b = find(x), find(g[x])
                if a != b:
                    parent[max(a, b)] = min(a, b)
    return {x: find(x) for x in _bits(cell)}


def _canonical_rows(sd: Sequence[int], su: Sequence[int]) -> list[int]:
    """Least certificate over the individualization-refinement tree.

    The root is the equitable refinement of the unit partition.  A node
    branches on its first non-singleton cell: each child individualizes one
    element (it becomes a singleton cell just before the rest of the cell)
    and refines.  A cell whose elements are all twins (equal strict down- and
    up-sets) is split into singletons without branching, since any order of
    twins gives the same certificate.  At a leaf every cell is a singleton;
    the certificate lists each element's strict up-set with elements renamed
    by cell position, and the code is the least certificate.

    A leaf whose certificate equals the first or the best leaf's gives an
    automorphism.  A node skips a child in the orbit of a child it already
    explored, under the automorphisms found so far that fix the node's path,
    and the search jumps back to the node where the new leaf's path left the
    matching leaf's path, whose subtree maps onto the one just searched.
    """
    n = len(sd)
    cells = [(1 << n) - 1]
    _refine(cells, cells[:], sd, su)
    gens: list[list[int]] = []  # automorphisms, g[x] = image of x
    first: tuple[list[int], list[int], list[int]] | None = None  # rows, order, path
    best = first
    explore_on = n + 1  # returned when no jump is due

    def leaf(cells: list[int], path: list[int]) -> int:
        nonlocal first, best
        order = [c.bit_length() - 1 for c in cells]
        renamed = [0] * n  # renamed[x]: the bit of x's cell position
        for p, x in enumerate(order):
            renamed[x] = 1 << p
        rows = []
        for x in order:
            r = 0
            for y in _bits(su[x]):
                r |= renamed[y]
            rows.append(r)
        if first is None:
            first = best = (rows, order, path)
            return explore_on
        for ref_rows, ref_order, ref_path in (first, best):
            if rows == ref_rows:
                g = [0] * n
                for p, x in enumerate(order):
                    g[x] = ref_order[p]
                gens.append(g)
                k = 0
                while path[k] == ref_path[k]:
                    k += 1
                return k
        if rows < best[0]:
            best = (rows, order, path)
        return explore_on

    def visit(cells: list[int], path: list[int]) -> int:
        """Search below a node, whose ``cells`` list is its own; return the
        level of the node to resume at.

        One scan finds the cell to branch on, passing over singletons and
        cells of twins; the twin cells are then split in place, in one go,
        and only if there are any."""
        twin_cells: list[tuple[int, Sequence[int]]] = []
        cell = 0  # the cell to branch on, if any
        for c in cells:
            if c & (c - 1):
                twins = _bits(c)
                x = twins[0]
                if any(sd[y] != sd[x] or su[y] != su[x] for y in twins):
                    cell = c
                    break
                twin_cells.append((c, twins))
                path = [*path, *twins]
        for c, twins in twin_cells:
            i = cells.index(c)
            cells[i : i + 1] = [1 << y for y in twins]
        if not cell:
            return leaf(cells, path)
        i = cells.index(cell)
        level = len(path)
        explored: list[int] = []
        known = -1  # automorphisms reflected in roots
        roots: dict[int, int] = {}
        for x in _bits(cell):
            if explored:
                if known != len(gens):
                    known = len(gens)
                    roots = _orbit_roots(cell, path, gens, sd, su)
                if any(roots[e] == roots[x] for e in explored):
                    continue
            explored.append(x)
            child = cells[:i] + [1 << x, cell & ~(1 << x)] + cells[i + 1 :]
            _refine(child, [1 << x], sd, su)
            resume = visit(child, path + [x])
            if resume < level:
                return resume
        return explore_on

    visit(cells, [])
    assert best is not None
    return best[0]


def _code(sd: Sequence[int], su: Sequence[int]) -> bytes:
    """The canonical code of the poset with strict down- and up-set masks
    ``sd`` and ``su``: ``"<n>:<rows>"``, where rows are the strict up-set
    masks, in hex, under the canonical labelling of :func:`_canonical_rows`.
    Swapping the arguments gives the code of the dual."""
    rows = _canonical_rows(sd, su)
    return (f"{len(sd)}:" + ",".join(f"{r:x}" for r in rows)).encode("ascii")


def fence() -> Poset:
    """The four-point minimal model of the circle."""
    return Poset.from_covers(
        4, [(0, 2), (0, 3), (1, 2), (1, 3)], ["c1", "c2", "a1", "a2"]
    )


def two_point_discrete() -> Poset:
    """S^0: the two-point antichain."""
    return Poset.antichain(2, ["x1", "x2"])


def sphere_model(dim: int) -> Poset:
    """The minimal finite model of the dim-sphere: the iterated
    non-Hausdorff suspension of the two-point antichain, on 2*dim+2 points."""
    if dim < 0:
        raise PosetError("dimension must be >= 0")
    return two_point_discrete().nh_suspension(dim)


def _face_poset(triangles: list[tuple[int, ...]]) -> Poset:
    """Face poset of the 2-complex with the given triangles: every vertex,
    edge and triangle, ordered by inclusion and labelled v0, e01, t012, ...
    in order of dimension, then vertices."""
    faces = sorted(
        {face for t in triangles for size in (1, 2, 3) for face in combinations(sorted(t), size)},
        key=lambda face: (len(face), face),
    )
    index = {face: i for i, face in enumerate(faces)}
    covers = [
        (index[face[:k] + face[k + 1 :]], index[face])
        for face in faces
        if len(face) > 1
        for k in range(len(face))
    ]
    labels = ["vet"[len(face) - 1] + "".join(map(str, face)) for face in faces]
    return Poset.from_covers(len(faces), covers, labels)


def mobius_band() -> Poset:
    """Face poset of the 5-vertex Möbius band, whose triangles are
    {i, i+1, i+2} mod 5: 5 vertices, all 10 edges and 5 triangles, ordered
    by inclusion, on 20 points.  Its core has 15 points and height 2."""
    return _face_poset([(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)])


def projective_plane() -> Poset:
    """Face poset of the 6-vertex projective plane: 6 vertices, 15 edges and
    10 triangles, every edge on exactly two triangles, on 31 points.  It is
    its own core, and H_1 of its order complex is Z/2."""
    return _face_poset(
        [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
            (1, 2, 4), (2, 4, 5), (2, 3, 5), (1, 3, 5), (1, 3, 4),
        ]
    )
