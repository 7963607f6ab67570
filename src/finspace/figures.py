"""Catalog of reference spaces transcribed from the published Hasse diagrams.

Each fixture is a small poset given by its cover relations, keyed by a
stable figure id (``fig04a``, ``fig18cstar``, ...).  The catalog records,
per fixture, the id of the figure its dual is isomorphic to and the wedge
type ``(circles, spheres)`` it models when it is a core; an entry without a
wedge is not a core.  Every one of those claims is checked computationally
by the test suite and the verification harness rather than trusted.

``fig15a``..``fig15d`` are deliberately *not* cores: they are the rejected
single-middle-point configurations (disconnected or admitting beat points).
``fig15e`` is a genuine core; its homology is (1, 2, 0), a wedge of two
circles, regardless of how the source text describes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from finspace.posets import Poset


@dataclass(frozen=True)
class Figure:
    id: str
    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    dual: str | None
    wedge: tuple[int, int] | None
    note: str

    @property
    def is_core(self) -> bool:
        """Every core in the catalog models a wedge; the rest are not cores."""
        return self.wedge is not None


def _fig(fid, elements, covers, dual, wedge, note):
    elems = tuple(elements.split())
    pairs = tuple(tuple(pair.split("<")) for pair in covers.split())
    return Figure(fid, elems, pairs, dual, wedge, note)


_RAW = [
    # -- seven-point models -------------------------------------------------
    _fig(
        "fig04a",
        "c1 c2 c3 b1 b2 a1 a2",
        "c1<b1 c1<b2 c2<b1 c2<b2 c3<a1 c3<a2 b1<a1 b1<a2 b2<a1 b2<a2",
        "fig04astar",
        (1, 1),
        "seven-point model of one sphere and one circle",
    ),
    _fig(
        "fig04astar",
        "c1 c2 b1 b2 a3 a1 a2",
        "c1<b1 c1<b2 c1<a3 c2<b1 c2<b2 c2<a3 b1<a1 b1<a2 b2<a1 b2<a2",
        "fig04a",
        (1, 1),
        "opposite of the seven-point sphere-plus-circle model",
    ),
    _fig(
        "fig05a",
        "a1 a2 b1 b2 c1 c2 c3",
        "b1<a1 b1<a2 b2<a1 b2<a2 c1<b1 c1<b2 c2<b1 c2<b2 c3<b1 c3<b2",
        "fig05astar",
        (0, 2),
        "seven-point model of two spheres, three minimal points",
    ),
    _fig(
        "fig05astar",
        "c1 c2 b1 b2 a1 a2 a3",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b1<a3 b2<a1 b2<a2 b2<a3",
        "fig05a",
        (0, 2),
        "seven-point model of two spheres, three maximal points",
    ),
    _fig(
        "fig05b",
        "c1 c2 b3 b1 b2 a1 a2",
        "c1<b3 c1<b1 c1<b2 c2<b3 c2<b1 c2<b2 b3<a1 b3<a2 b1<a1 b1<a2 b2<a1 b2<a2",
        "fig05b",
        (0, 2),
        "self-opposite seven-point model of two spheres, three middle points",
    ),
    _fig(
        "fig06",
        "c1 c2 b1 b2 a1 a2 a3",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b1<a3 b2<a1 b2<a2 b2<a3",
        "fig05a",
        (0, 2),
        "two-sphere model read off a modified cell structure",
    ),
    _fig(
        "fig07",
        "c1 c2 b1 b2 b3 a1 a2",
        "c1<b1 c1<b2 c1<b3 c2<b1 c2<b2 c2<b3 b1<a1 b1<a2 b2<a1 b2<a2 b3<a1 b3<a2",
        "fig07",
        (0, 2),
        "alternative two-sphere model with three middle points",
    ),
    _fig(
        "fig08",
        "c1 c2 b1 b2 b3 a1 a2",
        "c1<b1 c1<b2 c1<b3 c2<b1 c2<b2 c2<b3 b1<a1 b1<a2 b2<a1 b2<a2",
        "fig04a",
        (1, 1),
        "sphere-plus-circle model read off a modified cell structure",
    ),
    # -- eight-point models from modified cell structures ---------------------
    _fig(
        "fig10",
        "c1 c2 b1 b2 a1 a2 a3 a4",
        "c1<b1 c1<b2 c1<a3 c1<a4 c2<b1 c2<b2 c2<a3 c2<a4 b1<a1 b1<a2 b2<a1 b2<a2",
        "fig14a",
        (2, 1),
        "eight-point model of two circles and one sphere",
    ),
    _fig(
        "fig11",
        "c1 c2 b1 b2 a1 a2 a3 a4",
        "c1<b1 c1<b2 c1<a4 c2<b1 c2<b2 c2<a4 b1<a1 b1<a2 b1<a3 b2<a1 b2<a2 b2<a3",
        "fig18b",
        (1, 2),
        "eight-point model of one circle and two spheres",
    ),
    _fig(
        "fig12",
        "c1 c2 b1 b2 b3 a1 a2 a3",
        "c1<b1 c1<b2 c1<b3 c2<b1 c2<b2 c2<b3 b1<a1 b1<a2 b2<a1 b2<a2 b3<a1 b3<a2 "
        "c1<a3 c2<a3",
        "fig18a",
        (1, 2),
        "another circle-plus-two-spheres model",
    ),
    _fig(
        "fig13",
        "c1 c2 b1 b2 a1 a2 a3 a4",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b1<a3 b1<a4 b2<a1 b2<a2 b2<a3 b2<a4",
        "fig21a",
        (0, 3),
        "eight-point model of three spheres, four maximal points",
    ),
    # -- eight-point models of two circles and a sphere ------------------------
    _fig(
        "fig14a",
        "c1 c2 c3 c4 b1 b2 a1 a2",
        "c1<b1 c1<b2 c2<b1 c2<b2 c3<a1 c3<a2 b1<a1 b1<a2 b2<a1 b2<a2 c4<a1 c4<a2",
        "fig14astar",
        (2, 1),
        "two-circles-plus-sphere model, four minimal points",
    ),
    _fig(
        "fig14astar",
        "c1 c2 b1 b2 a3 a4 a1 a2",
        "c1<b1 c1<b2 c1<a3 c1<a4 c2<b1 c2<b2 c2<a3 c2<a4 b1<a1 b1<a2 b2<a1 b2<a2",
        "fig14a",
        (2, 1),
        "opposite of fig14a",
    ),
    _fig(
        "fig14b",
        "c1 c2 b1 b2 c3 a1 a2 a3",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b2<a1 b2<a2 c3<a1 c3<a2 c1<a3 c2<a3",
        "fig14b",
        (2, 1),
        "self-opposite two-circles-plus-sphere model",
    ),
    _fig(
        "fig14c",
        "c1 c2 b1 b2 c3 a1 a2 a3",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b2<a1 b2<a2 c3<a1 c3<a2 c3<a3 c2<a3",
        "fig14cstar",
        (2, 1),
        "two-circles-plus-sphere model with a chained extra pair",
    ),
    _fig(
        "fig14cstar",
        "c1 c2 c3 b1 b2 a1 a2 a3",
        "b1<c1 b2<c1 b1<c2 b2<c2 a1<b1 a2<b1 a1<b2 a2<b2 a1<c3 a2<c3 a3<c3 a3<c2",
        "fig14c",
        (2, 1),
        "opposite of fig14c",
    ),
    _fig(
        "fig14d",
        "c1 c2 b1 b2 c3 a1 a2 a3",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b2<a1 b2<a2 b2<a3 c3<a1 c3<a2 c3<a3",
        "fig14dstar",
        (2, 1),
        "two-circles-plus-sphere model with a middle point under three tops",
    ),
    _fig(
        "fig14dstar",
        "c1 c2 c3 b1 b2 a1 a2 a3",
        "a1<b1 a2<b1 a1<b2 a2<b2 a3<b2 b1<c1 b1<c2 b2<c1 b2<c2 a1<c3 a2<c3 a3<c3",
        "fig14d",
        (2, 1),
        "opposite of fig14d",
    ),
    # -- rejected seven-point single-middle configurations ---------------------
    _fig(
        "fig15a",
        "a1 a2 b c1 c2 c3 c4",
        "c1<b c2<b b<a1 b<a2",
        None,
        None,
        "disconnected single-middle configuration (two isolated points)",
    ),
    _fig(
        "fig15b",
        "a1 a2 b c1 c2 c3 c4",
        "c1<b c2<b b<a1 b<a2 c3<a1 c3<a2 c4<a1 c4<a2",
        None,
        None,
        "connected single-middle configuration with beat points",
    ),
    _fig(
        "fig15c",
        "a1 a2 a3 b c1 c2 c3",
        "c1<b c2<b b<a1 b<a2",
        None,
        None,
        "disconnected single-middle configuration",
    ),
    _fig(
        "fig15d",
        "a1 a2 a3 b c1 c2 c3",
        "c1<b c2<b c3<b b<a1 b<a2 b<a3",
        None,
        None,
        "star through the middle point: every outer point is a beat point",
    ),
    _fig(
        "fig15e",
        "a1 a2 a3 b c1 c2 c3",
        "c1<b c2<b b<a1 b<a2 c1<a3 c2<a3 c3<a1 c3<a2",
        "fig15e",
        (2, 0),
        "seven-point core with single middle point; homology gives two circles",
    ),
    # -- eight-point models of four spheres -------------------------------------
    _fig(
        "fig16a",
        "c1 c2 c3 b1 b2 b3 a1 a2",
        "c1<b1 c1<b2 c1<b3 c2<b1 c2<b2 c2<b3 c3<b1 c3<b2 c3<b3 "
        "b1<a1 b1<a2 b2<a1 b2<a2 b3<a1 b3<a2",
        "fig16astar",
        (0, 4),
        "complete 3-3-2 layered model of four spheres",
    ),
    _fig(
        "fig16astar",
        "a1 a2 b1 b2 b3 c1 c2 c3",
        "a1<b1 a2<b1 a1<b2 a2<b2 a1<b3 a2<b3 "
        "b1<c1 b2<c1 b3<c1 b1<c2 b2<c2 b3<c2 b1<c3 b2<c3 b3<c3",
        "fig16a",
        (0, 4),
        "complete 2-3-3 layered model of four spheres",
    ),
    _fig(
        "fig16b",
        "c1 c2 c3 b1 b2 a1 a2 a3",
        "c1<b1 c1<b2 c2<b1 c2<b2 c3<b1 c3<b2 "
        "b1<a1 b1<a2 b1<a3 b2<a1 b2<a2 b2<a3",
        "fig16b",
        (0, 4),
        "self-opposite complete 3-2-3 layered model of four spheres",
    ),
    # -- eight-point wedge-of-circles cores --------------------------------------
    _fig(
        "fig17a",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "c1<a1 c1<a2 c2<a2 c2<a3 c3<b1 c3<a3 c4<b1 c4<a3 b1<a1 b1<a2",
        "fig17astar",
        (3, 0),
        "eight-point core modelling three circles",
    ),
    _fig(
        "fig17astar",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "a1<c1 a2<c1 a2<c2 a3<c2 b1<c3 a3<c3 b1<c4 a3<c4 a1<b1 a2<b1",
        "fig17a",
        (3, 0),
        "opposite of fig17a",
    ),
    _fig(
        "fig17b",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "c1<a3 c1<a2 c2<a1 c2<a3 c3<b1 c3<a3 c4<b1 c4<a3 b1<a1 b1<a2",
        "fig17bstar",
        (3, 0),
        "three-circles core, crossed attachments",
    ),
    _fig(
        "fig17bstar",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "a3<c1 a2<c1 a1<c2 a3<c2 b1<c3 a3<c3 b1<c4 a3<c4 a1<b1 a2<b1",
        "fig17b",
        (3, 0),
        "opposite of fig17b",
    ),
    _fig(
        "fig17c",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "c1<a1 c1<a2 c2<a1 c2<a2 c3<b1 c3<a3 c4<b1 c4<a3 b1<a1 b1<a2",
        "fig17cstar",
        (3, 0),
        "three-circles core, doubled pair attachments",
    ),
    _fig(
        "fig17cstar",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "a1<c1 a2<c1 a1<c2 a2<c2 b1<c3 a3<c3 b1<c4 a3<c4 a1<b1 a2<b1",
        "fig17c",
        (3, 0),
        "opposite of fig17c",
    ),
    _fig(
        "fig17d",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "c1<a1 c1<a2 c2<a1 c2<a2 c2<a3 c3<b1 c3<a3 c4<b1 c4<a3 b1<a1 b1<a2",
        "fig17dstar",
        (4, 0),
        "eight-point core modelling four circles",
    ),
    _fig(
        "fig17dstar",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "a1<c1 a2<c1 a1<c2 a2<c2 a3<c2 b1<c3 a3<c3 b1<c4 a3<c4 a1<b1 a2<b1",
        "fig17d",
        (4, 0),
        "opposite of fig17d",
    ),
    _fig(
        "fig17e",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "c1<a1 c1<a2 c1<a3 c2<a1 c2<a2 c2<a3 c3<b1 c3<a3 c4<b1 c4<a3 b1<a1 b1<a2",
        "fig17estar",
        (5, 0),
        "eight-point core modelling five circles",
    ),
    _fig(
        "fig17estar",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "a1<c1 a2<c1 a3<c1 a1<c2 a2<c2 a3<c2 b1<c3 a3<c3 b1<c4 a3<c4 a1<b1 a2<b1",
        "fig17e",
        (5, 0),
        "opposite of fig17e",
    ),
    _fig(
        "fig17f",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "c1<a1 c1<a2 c2<b1 c2<a3 c3<b1 c3<a3 c4<b1 c4<a3 b1<a1 b1<a2",
        "fig17fstar",
        (3, 0),
        "three-circles core with a thrice-covered middle point",
    ),
    _fig(
        "fig17fstar",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "a1<c1 a2<c1 b1<c2 a3<c2 b1<c3 a3<c3 b1<c4 a3<c4 a1<b1 a2<b1",
        "fig17f",
        (3, 0),
        "opposite of fig17f",
    ),
    _fig(
        "fig17g",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "c1<a1 c1<a2 c1<a3 c2<b1 c2<a3 c3<b1 c3<a3 c4<b1 c4<a3 b1<a1 b1<a2",
        "fig17gstar",
        (4, 0),
        "four-circles core with a thrice-covered middle point",
    ),
    _fig(
        "fig17gstar",
        "c1 c2 c3 c4 b1 a1 a2 a3",
        "a1<c1 a2<c1 a3<c1 b1<c2 a3<c2 b1<c3 a3<c3 b1<c4 a3<c4 a1<b1 a2<b1",
        "fig17g",
        (4, 0),
        "opposite of fig17g",
    ),
    # -- eight-point models of one circle and two spheres -------------------------
    _fig(
        "fig18a",
        "c1 c2 c3 b1 b2 b3 a1 a2",
        "c1<b1 c1<b2 c1<b3 c2<b1 c2<b2 c2<b3 "
        "b1<a1 b1<a2 b2<a1 b2<a2 b3<a1 b3<a2 c3<a1 c3<a2",
        "fig18astar",
        (1, 2),
        "circle-plus-two-spheres model, extra bottom point",
    ),
    _fig(
        "fig18astar",
        "c1 c2 b1 b2 b3 a3 a1 a2",
        "c1<b1 c1<b2 c1<b3 c2<b1 c2<b2 c2<b3 "
        "b1<a1 b1<a2 b2<a1 b2<a2 b3<a1 b3<a2 c1<a3 c2<a3",
        "fig18a",
        (1, 2),
        "circle-plus-two-spheres model, extra top point",
    ),
    _fig(
        "fig18b",
        "c1 c2 c3 c4 b1 b2 a1 a2",
        "c1<b1 c1<b2 c2<b1 c2<b2 c3<b1 c3<b2 "
        "b1<a1 b1<a2 b2<a1 b2<a2 c4<a1 c4<a2",
        "fig18bstar",
        (1, 2),
        "circle-plus-two-spheres model on a 3-2-2 block",
    ),
    _fig(
        "fig18bstar",
        "c1 c2 b1 b2 a1 a2 a3 a4",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b1<a3 b2<a1 b2<a2 b2<a3 c1<a4 c2<a4",
        "fig18b",
        (1, 2),
        "opposite of fig18b",
    ),
    _fig(
        "fig18c",
        "c1 c2 b1 b2 c3 a1 a2 a3",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b1<a3 b2<a1 b2<a2 b2<a3 c3<a1 c3<a2",
        "fig18cstar",
        (1, 2),
        "circle-plus-two-spheres model; extra bottom under tops one and two",
    ),
    _fig(
        "fig18cstar",
        "c1 c2 c3 b1 b2 a3 a1 a2",
        "c1<b1 c2<b1 c3<b1 c1<b2 c2<b2 c3<b2 b1<a1 b1<a2 b2<a1 b2<a2 c1<a3 c2<a3",
        "fig18c",
        (1, 2),
        "opposite of fig18c",
    ),
    _fig(
        "fig18d",
        "c1 c2 b1 b2 c3 a1 a2 a3",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b1<a3 b2<a1 b2<a2 b2<a3 c3<a1 c3<a3",
        "fig18dstar",
        (1, 2),
        "same class as fig18c; extra bottom under tops one and three",
    ),
    _fig(
        "fig18dstar",
        "c1 c2 c3 b1 b2 a3 a1 a2",
        "c1<b1 c2<b1 c3<b1 c1<b2 c2<b2 c3<b2 b1<a1 b1<a2 b2<a1 b2<a2 c1<a3 c3<a3",
        "fig18d",
        (1, 2),
        "opposite of fig18d",
    ),
    _fig(
        "fig18e",
        "c1 c2 b1 b2 c3 a1 a2 a3",
        "c1<b1 c1<b2 c2<b1 c2<b2 b1<a1 b1<a2 b1<a3 b2<a1 b2<a2 b2<a3 c3<a2 c3<a3",
        "fig18estar",
        (1, 2),
        "same class as fig18c; extra bottom under tops two and three",
    ),
    _fig(
        "fig18estar",
        "c1 c2 c3 b1 b2 a3 a1 a2",
        "c1<b1 c2<b1 c3<b1 c1<b2 c2<b2 c3<b2 b1<a1 b1<a2 b2<a1 b2<a2 c2<a3 c3<a3",
        "fig18e",
        (1, 2),
        "opposite of fig18e",
    ),
    # -- extra three-sphere model ---------------------------------------------------
    _fig(
        "fig19",
        "c1 c2 b1 b2 b3 b4 a1 a2",
        "c1<b1 c1<b2 c1<b3 c1<b4 c2<b1 c2<b2 c2<b3 c2<b4 "
        "b1<a1 b1<a2 b2<a1 b2<a2 b3<a1 b3<a2 b4<a1 b4<a2",
        "fig19",
        (0, 3),
        "complete 2-4-2 layered model of three spheres",
    ),
    # -- the unique three-circles-plus-sphere model ----------------------------------
    _fig(
        "fig20a",
        "a1 a2 a3 b1 b2 c1 c2 c3",
        "a1<b1 a2<b1 a1<b2 a2<b2 b1<c1 b1<c2 b2<c1 b2<c2 "
        "a3<c1 a3<c2 a3<c3 a1<c3 a2<c3",
        "fig20a",
        (3, 1),
        "the unique eight-point model of three circles and one sphere",
    ),
    # -- eight-point models of three spheres ------------------------------------------
    _fig(
        "fig21a",
        "c1 c2 c3 c4 b1 b2 a1 a2",
        "c1<b1 c1<b2 c2<b1 c2<b2 c3<b1 c3<b2 c4<b1 c4<b2 "
        "b1<a1 b1<a2 b2<a1 b2<a2",
        "fig21astar",
        (0, 3),
        "complete 4-2-2 layered model of three spheres",
    ),
    _fig(
        "fig21astar",
        "c1 c2 b1 b2 a1 a2 a3 a4",
        "c1<b1 c1<b2 c2<b1 c2<b2 "
        "b1<a1 b1<a2 b1<a3 b1<a4 b2<a1 b2<a2 b2<a3 b2<a4",
        "fig21a",
        (0, 3),
        "complete 2-2-4 layered model of three spheres",
    ),
    _fig(
        "fig21b",
        "c1 c2 b1 b2 b3 b4 a1 a2",
        "c1<b1 c1<b2 c1<b3 c1<b4 c2<b1 c2<b2 c2<b3 c2<b4 "
        "b1<a1 b1<a2 b2<a1 b2<a2 b3<a1 b3<a2 b4<a1 b4<a2",
        "fig21b",
        (0, 3),
        "self-opposite complete 2-4-2 layered model of three spheres",
    ),
    _fig(
        "fig21c",
        "c1 c2 c3 b1 b2 b3 a1 a2",
        "c1<b1 c1<b2 c1<b3 c2<b1 c2<b2 c2<b3 c3<b2 c3<b3 "
        "b1<a1 b1<a2 b2<a1 b2<a2 b3<a1 b3<a2",
        "fig21cstar",
        (0, 3),
        "three-sphere model with one thinned bottom point",
    ),
    _fig(
        "fig21cstar",
        "a1 a2 b1 b2 b3 c1 c2 c3",
        "a1<b1 a2<b1 a1<b2 a2<b2 a1<b3 a2<b3 "
        "b1<c1 b1<c2 b2<c1 b2<c2 b3<c1 b3<c2 b3<c3 b2<c3",
        "fig21c",
        (0, 3),
        "opposite of fig21c",
    ),
]

FIGURES: dict[str, Figure] = {f.id: f for f in _RAW}


@lru_cache(maxsize=None)
def poset(figure_id: str) -> Poset:
    """The poset a catalog entry describes."""
    fig = FIGURES[figure_id]
    index = {name: i for i, name in enumerate(fig.elements)}
    pairs = [(index[lo], index[hi]) for lo, hi in fig.covers]
    return Poset.from_covers(len(fig.elements), pairs, fig.elements)


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
