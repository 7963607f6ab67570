"""Catalog of reference spaces transcribed from the published Hasse diagrams.

Each figure is a small poset keyed by a stable figure id (``fig04a``,
``fig18cstar``, ...).  Its elements and covers live in one text file,
``catalog/<id>.poset`` inside this package, in the format of
:mod:`finspace.formats`; the file's first line is a ``#`` note saying what
the diagram shows.  This module adds what a file cannot hold: per figure,
the id of the figure its dual is isomorphic to and the wedge type
``(circles, spheres)`` it models when it is a core; an entry without a
wedge is not a core.  Every one of those claims is checked computationally
by the test suite and the verification harness rather than trusted.

``fig15a``..``fig15d`` are deliberately *not* cores: they are the rejected
single-middle-point configurations (disconnected or admitting beat points).
``fig15e`` is a genuine core; its homology is (1, 2, 0), a wedge of two
circles, regardless of how the source text describes it.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files
from typing import NamedTuple

from finspace.formats import parse_poset_text
from finspace.posets import Poset

# id -> (id of the figure isomorphic to its dual, wedge (circles, spheres))
_CLAIMS: dict[str, tuple[str | None, tuple[int, int] | None]] = {
    # seven-point models
    "fig04a": ("fig04astar", (1, 1)),
    "fig04astar": ("fig04a", (1, 1)),
    "fig05a": ("fig05astar", (0, 2)),
    "fig05astar": ("fig05a", (0, 2)),
    "fig05b": ("fig05b", (0, 2)),
    "fig06": ("fig05a", (0, 2)),
    "fig07": ("fig07", (0, 2)),
    "fig08": ("fig04a", (1, 1)),
    # eight-point models from modified cell structures
    "fig10": ("fig14a", (2, 1)),
    "fig11": ("fig18b", (1, 2)),
    "fig12": ("fig18a", (1, 2)),
    "fig13": ("fig21a", (0, 3)),
    # eight-point models of two circles and a sphere
    "fig14a": ("fig14astar", (2, 1)),
    "fig14astar": ("fig14a", (2, 1)),
    "fig14b": ("fig14b", (2, 1)),
    "fig14c": ("fig14cstar", (2, 1)),
    "fig14cstar": ("fig14c", (2, 1)),
    "fig14d": ("fig14dstar", (2, 1)),
    "fig14dstar": ("fig14d", (2, 1)),
    # rejected seven-point single-middle configurations, and the core fig15e
    "fig15a": (None, None),
    "fig15b": (None, None),
    "fig15c": (None, None),
    "fig15d": (None, None),
    "fig15e": ("fig15e", (2, 0)),
    # eight-point models of four spheres
    "fig16a": ("fig16astar", (0, 4)),
    "fig16astar": ("fig16a", (0, 4)),
    "fig16b": ("fig16b", (0, 4)),
    # eight-point wedge-of-circles cores
    "fig17a": ("fig17astar", (3, 0)),
    "fig17astar": ("fig17a", (3, 0)),
    "fig17b": ("fig17bstar", (3, 0)),
    "fig17bstar": ("fig17b", (3, 0)),
    "fig17c": ("fig17cstar", (3, 0)),
    "fig17cstar": ("fig17c", (3, 0)),
    "fig17d": ("fig17dstar", (4, 0)),
    "fig17dstar": ("fig17d", (4, 0)),
    "fig17e": ("fig17estar", (5, 0)),
    "fig17estar": ("fig17e", (5, 0)),
    "fig17f": ("fig17fstar", (3, 0)),
    "fig17fstar": ("fig17f", (3, 0)),
    "fig17g": ("fig17gstar", (4, 0)),
    "fig17gstar": ("fig17g", (4, 0)),
    # eight-point models of one circle and two spheres
    "fig18a": ("fig18astar", (1, 2)),
    "fig18astar": ("fig18a", (1, 2)),
    "fig18b": ("fig18bstar", (1, 2)),
    "fig18bstar": ("fig18b", (1, 2)),
    "fig18c": ("fig18cstar", (1, 2)),
    "fig18cstar": ("fig18c", (1, 2)),
    "fig18d": ("fig18dstar", (1, 2)),
    "fig18dstar": ("fig18d", (1, 2)),
    "fig18e": ("fig18estar", (1, 2)),
    "fig18estar": ("fig18e", (1, 2)),
    # extra three-sphere model
    "fig19": ("fig19", (0, 3)),
    # the unique three-circles-plus-sphere model
    "fig20a": ("fig20a", (3, 1)),
    # eight-point models of three spheres
    "fig21a": ("fig21astar", (0, 3)),
    "fig21astar": ("fig21a", (0, 3)),
    "fig21b": ("fig21b", (0, 3)),
    "fig21c": ("fig21cstar", (0, 3)),
    "fig21cstar": ("fig21c", (0, 3)),
}


class Figure(NamedTuple):
    id: str
    poset: Poset
    dual: str | None
    wedge: tuple[int, int] | None

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.labels

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """Cover pairs by element name, in the poset's index order."""
        labels = self.poset.labels
        return tuple((labels[lo], labels[hi]) for lo, hi in self.poset.covers)

    @property
    def is_core(self) -> bool:
        """Every core in the catalog models a wedge; the rest are not cores."""
        return self.wedge is not None


_CATALOG = files(__package__).joinpath("catalog")


def _load(fid: str) -> Poset:
    path = _CATALOG.joinpath(f"{fid}.poset")
    return parse_poset_text(path.read_text(encoding="utf-8"))


FIGURES: dict[str, Figure] = {
    fid: Figure(fid, _load(fid), dual, wedge) for fid, (dual, wedge) in _CLAIMS.items()
}


def poset(figure_id: str) -> Poset:
    """The poset a catalog entry describes."""
    return FIGURES[figure_id].poset


def all_ids() -> tuple[str, ...]:
    return tuple(sorted(FIGURES))


def dual_pairs() -> tuple[tuple[str, str], ...]:
    """Distinct (x, x*) pairs whose duality the catalog claims."""
    out = set()
    for fig in FIGURES.values():
        if fig.dual is not None and fig.dual != fig.id:
            out.add(tuple(sorted((fig.id, fig.dual))))
    return tuple(sorted(out))


def self_dual_ids() -> tuple[str, ...]:
    return tuple(
        sorted(f.id for f in FIGURES.values() if f.dual == f.id)
    )


def core_ids() -> tuple[str, ...]:
    return tuple(sorted(f.id for f in FIGURES.values() if f.is_core))


@lru_cache(maxsize=None)
def classes_by_code() -> dict[bytes, tuple[str, ...]]:
    """Canonical code -> all fixture ids in that isomorphism class."""
    out: dict[bytes, list[str]] = {}
    for fid in all_ids():
        out.setdefault(poset(fid).canonical_code, []).append(fid)
    return {code: tuple(sorted(ids)) for code, ids in out.items()}


def matches(p: Poset) -> tuple[str, ...]:
    """Fixture ids isomorphic to the given poset (possibly empty)."""
    return classes_by_code().get(p.canonical_code, ())
