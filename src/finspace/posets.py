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

from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

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


def _cover_beat_points(below: Sequence[int], above: Sequence[int], among: int) -> int:
    """Bitmask of the beat points in the mask ``among`` of the poset whose
    lower and upper covers are ``below`` and ``above``: the elements with
    exactly one lower or exactly one upper cover.  The maximal elements of
    the strict down-set of x are its lower covers, so that set has a
    maximum iff x has one lower cover; dually above."""
    beats = 0
    for x in _bits(among):
        if below[x].bit_count() == 1 or above[x].bit_count() == 1:
            beats |= 1 << x
    return beats


def _heights(below: Sequence[int], above: Sequence[int]) -> list[int]:
    """The height of each element, peeled layer by layer: layer 0 holds the
    elements whose ``below`` mask is empty, and an element joins the first
    layer after every element of its ``below`` mask, so its layer is its
    height.  ``above`` is the transpose of ``below``: the upper and lower
    covers, or the strict up- and down-sets.  Each layer is found among the
    elements above the last one.  An element on or above a cycle of
    ``below`` is never placed and gets -1, so no height is -1 iff
    ``below`` is acyclic."""
    heights = [-1] * len(below)
    layer = 0
    for i, mask in enumerate(below):
        if not mask:
            layer |= 1 << i
    placed = 0
    k = 0
    while layer:
        placed |= layer
        reach = 0
        for i in _bits(layer):
            heights[i] = k
            reach |= above[i]
        layer = 0
        for i in _bits(reach):
            if not below[i] & ~placed:
                layer |= 1 << i
        k += 1
    return heights


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


class RolePartition(NamedTuple):
    """Maximal / middle / minimal elements; isolated points appear in both
    mxl and mnl."""

    mxl: frozenset[int]
    middle: frozenset[int]
    mnl: frozenset[int]


class _lazy(cached_property):
    """A :func:`functools.cached_property` that computes and stores its value
    without a lock.  Before Python 3.12, ``cached_property`` takes a
    per-property lock on every first access to any instance; an
    invariant is a function of the immutable order, so two threads racing
    on one instance at worst compute it twice and store equal values.  It
    stays a ``cached_property``, so tools that recognise one (such as a
    tracer that rewraps ``func``) still do."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Poset:
    """An immutable finite poset on elements ``0..n-1``.

    The constructor takes the reflexive up-set masks: ``up_masks[i]`` is the
    bitmask of ``{j : i <= j}``, including ``i`` itself.  An instance stores
    ``n``, ``labels`` and the order once, as ``_strict_up[i]``, the bitmask
    of ``{j : i < j}``, and its transpose ``_strict_down[i]``, the bitmask
    of ``{j : j < i}``; the other attributes are cached invariants, among
    them ``_core``, set by :meth:`core`, and ``_cover_masks``, the lower-
    and upper-cover masks.  Covers are decided once, by :attr:`covers`;
    the cover masks are read off them, and beat points, :meth:`core` and
    the pi1 presentation read the masks.  A constructor or generator
    that already knows an invariant may set it in advance:
    :meth:`from_covers` keeps the cover masks it has built and checked,
    and ``element_heights``, the heights it peeled them into;
    ``canonical_code`` and ``dual_code``, when it has coded the poset or
    its dual, and ``element_heights``, ``height``, ``is_connected``,
    ``is_homogeneous`` and ``_core``, which the core generator of
    :mod:`finspace.enumeration` fixes when it builds the rows.  The order
    is never mutated after construction, so instances are safe to share
    across threads: two threads that read an invariant first at the same
    time may each compute it (:class:`_lazy` takes no lock), and store
    equal values.

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

        The covers are peeled into layers (:func:`_heights`).  If every
        element gets a height, the covers are acyclic: up-sets close over
        the upper covers in descending height, down-sets are their
        transpose, and the result is an order by construction, stored
        unchecked with those heights as ``element_heights``.  Otherwise
        the covers hold a cycle (a self-cover counts), and only then are
        they closed by Warshall's algorithm for the checked constructor,
        whose errors take precedence over the cover checks.
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
        heights = _heights(below, above)
        if -1 not in heights:
            labels = _checked_labels(n, labels)
            up = [0] * n
            for i in sorted(range(n), key=heights.__getitem__, reverse=True):
                row = above[i]
                for j in _bits(above[i]):
                    row |= up[j]
                up[i] = row
            poset = cls._from_strict(_transpose(up), up, labels)
            poset.element_heights = tuple(heights)
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
        poset._cover_masks = tuple(below), tuple(above)
        return poset

    @classmethod
    def antichain(cls, n: int, labels: Sequence[str] | None = None) -> "Poset":
        return cls([1 << i for i in range(n)], labels)

    @classmethod
    def chain(cls, n: int, labels: Sequence[str] | None = None) -> "Poset":
        full = (1 << n) - 1
        return cls([full & ~((1 << i) - 1) for i in range(n)], labels)

    # -- basic accessors -----------------------------------------------------

    @_lazy
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The Hasse diagram edge set, sorted: the loops run over i, then over
        j in increasing order.  This is the one place that decides whether a
        comparable pair is a cover: i < j with nothing strictly between."""
        out = []
        for i in range(self.n):
            for j in _bits(self._strict_up[i]):
                between = self._strict_up[i] & self._strict_down[j]
                if not between:
                    out.append((i, j))
        return tuple(out)

    @_lazy
    def _cover_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The Hasse diagram as two tuples of bitmasks, the lower covers and
        the upper covers of each element, read off :attr:`covers` (or kept
        by :meth:`from_covers`).  Beat points, :meth:`core` and the pi1
        presentation of :mod:`finspace.presentations` read covers here."""
        below, above = [0] * self.n, [0] * self.n
        for lo, hi in self.covers:
            above[lo] |= 1 << hi
            below[hi] |= 1 << lo
        return tuple(below), tuple(above)

    # -- heights and roles ---------------------------------------------------

    @_lazy
    def element_heights(self) -> tuple[int, ...]:
        """Longest chain strictly below each element (minimal elements get 0),
        peeled off the strict masks (:func:`_heights`); :meth:`from_covers`
        sets it from the covers it peels."""
        return tuple(_heights(self._strict_down, self._strict_up))

    @_lazy
    def height(self) -> int:
        return max(self.element_heights)

    @_lazy
    def maximal_elements(self) -> frozenset[int]:
        return frozenset(i for i in range(self.n) if not self._strict_up[i])

    @_lazy
    def minimal_elements(self) -> frozenset[int]:
        return frozenset(i for i in range(self.n) if not self._strict_down[i])

    def role_partition(self) -> RolePartition:
        mxl = self.maximal_elements
        mnl = self.minimal_elements
        middle = frozenset(range(self.n)) - mxl - mnl
        return RolePartition(mxl=mxl, middle=middle, mnl=mnl)

    @_lazy
    def is_connected(self) -> bool:
        """True iff the comparability graph is connected."""
        return _connected(self._strict_down, self._strict_up)

    @_lazy
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
        up-set has a minimum: those with exactly one lower or exactly one
        upper cover (:func:`_cover_beat_points`)."""
        return frozenset(_bits(_cover_beat_points(*self._cover_masks, (1 << self.n) - 1)))

    @_lazy
    def is_core(self) -> bool:
        return not self.beat_points()

    def core(self) -> "Poset":
        """Remove beat points (lowest index first, one at a time) until none
        remain.  The result is the same up to isomorphism whatever the order;
        the index rule makes this particular output deterministic.

        The removal runs on a copy of the Hasse diagram, as lower- and
        upper-cover masks, and finds beat points by their cover counts
        (:func:`_cover_beat_points`).  Removing x changes the covers only of
        its lower covers z and upper covers y: z and y become a cover pair
        iff no element left lies strictly between them.  So only those
        neighbours are checked again; the strict masks are only read, and
        the subposet is built once, at the end.

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
        below, above = map(list, self._cover_masks)
        sd, su = self._strict_down, self._strict_up
        beats = _cover_beat_points(below, above, (1 << self.n) - 1)
        removed = 0
        while beats:
            low = beats & -beats
            x = low.bit_length() - 1
            removed |= low
            lower, upper = below[x], above[x]
            for z in _bits(lower):
                above[z] ^= low
                for y in _bits(upper):
                    if not su[z] & sd[y] & ~removed:
                        above[z] |= 1 << y
                        below[y] |= 1 << z
            for y in _bits(upper):
                below[y] ^= low
            near = lower | upper
            beats = beats & ~low & ~near | _cover_beat_points(below, above, near)
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

    @_lazy
    def canonical_code(self) -> bytes:
        """A byte string equal for two posets iff they are isomorphic
        (:func:`_code`)."""
        return _code(self._strict_down, self._strict_up)

    @_lazy
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
    its pieces.  An equitable ``cells`` comes back unchanged, so
    :func:`_canonical_rows` does not refine a root whose cells all hold
    twins.
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


def _twins(elements: Sequence[int], sd: Sequence[int], su: Sequence[int]) -> bool:
    """True iff the ``elements`` are twins: they have equal strict down-sets
    and equal strict up-sets.  A cell of twins needs no refinement and no
    branching, since any order of twins gives the same certificate."""
    x = elements[0]
    down, up = sd[x], su[x]
    for y in elements:
        if sd[y] != down or su[y] != up:
            return False
    return True


def _scan(
    cells: list[int], sd: Sequence[int], su: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Read the ordered partition ``cells`` up to the cell to branch on: the
    first cell with more than one element that are not all twins (equal
    strict down- and up-sets).  Return ``(order, twins, cell)``: the
    elements of the cells before it in cell order, a twin cell's in
    increasing order; the twins among them; and the cell, or 0 if there is
    none, when ``order`` is the leaf order.  If there is one, the twin cells
    before it are split into singletons in place, so that it sits at
    ``cells[len(order)]``."""
    order: list[int] = []
    twins: list[int] = []
    for i, c in enumerate(cells):
        if not c & (c - 1):
            order.append(c.bit_length() - 1)
            continue
        elements = _bits(c)
        if not _twins(elements, sd, su):
            if twins:
                cells[:i] = [1 << y for y in order]
            return order, twins, c
        twins += elements
        order += elements
    return order, twins, 0


def _leaf_rows(order: list[int], su: Sequence[int]) -> list[int]:
    """The certificate of a leaf: the strict up-set of each element, in the
    leaf ``order``, with elements renamed by their position in it."""
    renamed = [0] * len(order)  # renamed[x]: the bit of x's position
    for p, x in enumerate(order):
        renamed[x] = 1 << p
    rows = []
    for x in order:
        r = 0
        for y in _bits(su[x]):
            r |= renamed[y]
        rows.append(r)
    return rows


def _canonical_rows(
    sd: Sequence[int], su: Sequence[int], gens: list[list[int]] | None = None
) -> list[int]:
    """Least certificate over the individualization-refinement tree.

    The root is the equitable refinement of the unit partition.  Its first
    split, by the unit cell, is read off each element's (|down|, |up|)
    counts.  If each cell of that split holds twins (:func:`_twins`), as a
    singleton does, the split is already equitable, and refining an
    equitable partition returns it unchanged (McKay & Piperno 2014), so it
    is the root and :func:`_refine` is not called; otherwise
    :func:`_refine` goes on from there.  A node branches on its
    first cell with more than one element (:func:`_scan`): each child
    individualizes one element (it becomes a singleton cell just before the
    rest of the cell) and refines.  A cell whose elements are all twins is
    split into singletons without branching, since any order of twins gives
    the same certificate.  At a leaf every cell is a singleton; the
    certificate lists each element's strict up-set with elements renamed by
    cell position (:func:`_leaf_rows`), and the code is the least
    certificate.  A root of singletons and twin cells is the only leaf, and
    its certificate is returned without a search.

    A leaf whose certificate equals the first or the best leaf's gives an
    automorphism, appended to ``gens`` (g[x] is the image of x).  A caller
    may pass automorphisms of the poset already known in ``gens``, such as
    those its dual's search found, since Aut(p) = Aut(p^op); they only
    prune, so the certificate is the same.  A node skips a child in the
    orbit of a child it already explored, under the automorphisms known so
    far that fix the node's path, and the search jumps back to the node
    where the new leaf's path left the matching leaf's path, whose subtree
    maps onto the one just searched.
    """
    n = len(sd)
    groups: dict[int, int] = {}
    for x in range(n):
        key = sd[x].bit_count() << 7 | su[x].bit_count()
        groups[key] = groups.get(key, 0) | 1 << x
    cells = [groups[key] for key in sorted(groups)]
    for c in cells:
        if c & (c - 1) and not _twins(_bits(c), sd, su):
            # not equitable: refine in place, queueing every piece but the
            # first largest
            sizes = [c.bit_count() for c in cells]
            skip = sizes.index(max(sizes))
            _refine(cells, cells[:skip] + cells[skip + 1 :], sd, su)
            break
    order, path, cell = _scan(cells, sd, su)
    if not cell:
        return _leaf_rows(order, su)
    if gens is None:
        gens = []
    first: tuple[list[int], list[int], list[int]] | None = None  # rows, order, path
    best = first
    explore_on = n + 1  # returned when no jump is due

    def leaf(order: list[int], path: list[int]) -> int:
        nonlocal first, best
        rows = _leaf_rows(order, su)
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

    def visit(cells: list[int], path: list[int], i: int, cell: int) -> int:
        """Search below a node, whose ``cells`` list is its own and branches
        on ``cell``, at ``cells[i]``; return the level of the node to resume
        at."""
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
            order, twins, branch = _scan(child, sd, su)
            below = [*path, x, *twins]
            resume = visit(child, below, len(order), branch) if branch else leaf(order, below)
            if resume < level:
                return resume
        return explore_on

    visit(cells, path, len(order), cell)
    assert best is not None
    return best[0]


def _code(sd: Sequence[int], su: Sequence[int], gens: list[list[int]] | None = None) -> bytes:
    """The canonical code of the poset with strict down- and up-set masks
    ``sd`` and ``su``: ``"<n>:<rows>"``, where rows are the strict up-set
    masks, in hex, under the canonical labelling of :func:`_canonical_rows`.
    Swapping the arguments gives the code of the dual.  ``gens`` holds
    automorphisms known in advance and receives those the search finds."""
    rows = _canonical_rows(sd, su, gens)
    return (f"{len(sd)}:" + ",".join([format(r, "x") for r in rows])).encode("ascii")


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
