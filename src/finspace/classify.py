"""Label enumerated cores by wedge-of-spheres type and verify the published
classification.

A record gets the label ``(p, q)`` (p circles, q spheres) exactly when its
order complex is at most 2-dimensional, connected in homology (beta_0 = 1),
torsion-free, with beta_1 = p and beta_2 = q; the label additionally carries
``pi1_verified`` when pi1 was certified free of rank p: at height 2 by
Tietze simplification of the presentation read off the Hasse diagram, at
height at most 1 by an edge count (below).  Labelling is invariant-based
evidence, not a weak-equivalence proof, and asphericity is never checked;
downstream consumers see exactly how much was certified.

For a connected core of height at most 2 the certificate also fixes the
homology, so no order complex is built and no Smith normal form is run.
The order complex carries the weak homotopy type of the space (McCord
1966) and has dimension at most 2.  If pi1 is certified free of rank p,
then H_1, its abelianization, is Z^p with no torsion; H_2 of a 2-complex is
free, and the Euler characteristic gives beta_2 = chi - 1 + p.  Chain
counts come from the order bitmasks (see
:func:`~finspace.complexes.free_pi1_homology`).  The certificate is
decided in one place, :func:`~finspace.complexes._pi1_certificate`, which
:func:`~finspace.complexes.poset_homology` calls too, so ``finspace
homology`` and ``verify-paper`` read the same cores' homology off the same
certificates.  Every other core, and every core whose simplification is
inconclusive, gets its homology from
:func:`~finspace.complexes.poset_homology`: the cellular route first, then
the order complex and Smith normal form under the simplex budget.  An
inconclusive certificate of a core is handed to that route, which would
otherwise compute the same certificate again, so Tietze simplification
runs once per classified core.

At height 2 the simplified presentation is
:func:`~finspace.presentations.poset_presentation`: the Hasse diagram's
covers are its edges, and each non-cover pair a < c with k middles adds
k - 1 square relators (see :mod:`finspace.presentations` for why it
presents pi1 of the order complex).

At height at most 1 there is nothing to simplify.  The order complex is
then the comparability graph, with one vertex per point and one edge per
comparable pair, and the fundamental group of a connected graph is free of
rank E - V + 1 (a spanning tree is contractible, and each of the other
edges adds a free generator).  So a height-1 ``pi1_verified`` rests on this
count of the order bitmasks, not on a Tietze run; ``finspace pi1`` still
simplifies the presentation.

:func:`classify_cores` classifies each dual pair once.  A chain of P is a
chain of P^op, so both have the same order complex, hence the same homology,
pi1 and label; a maximal chain of P^op is a maximal chain of P read
backwards, so homogeneity carries over too.  The partner's record copies
these and computes only its own code, covers, labels and figure matches.
A copied ``pi1_verified`` may be true where Tietze simplification of the
partner's own presentation would stop inconclusive; that is sound, since
both presentations present pi1 of one complex.  (None of the 66,095
height-2 cores on 9 to 11 points has an inconclusive simplification of
its Hasse-diagram presentation.)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from collections import Counter
from collections.abc import Iterable, Iterator

from finspace import figures
from finspace.complexes import HomologyProfile, _pi1_certificate, _poset_homology, free_pi1_homology
from finspace.enumeration import check_cap, enumerate_height1_cores, enumerate_height2_cores
from finspace.posets import Poset
from finspace.presentations import SimplificationStatus


@dataclass(frozen=True)
class WedgeLabel:
    """Homotopy-type label: a wedge of ``circles`` copies of the circle and
    ``spheres`` copies of the 2-sphere; (0, 0) is the contractible label."""

    circles: int
    spheres: int
    pi1_verified: bool

    @property
    def key(self) -> tuple[int, int]:
        return (self.circles, self.spheres)

    def to_json_obj(self):
        return {
            "circles": self.circles,
            "spheres": self.spheres,
            "pi1_verified": self.pi1_verified,
        }


def label(profile: HomologyProfile, status: SimplificationStatus | None) -> WedgeLabel | None:
    """Wedge-type label from invariants; ``None`` means unrecognized.

    The dimension of the complex is ``len(profile.f_vector) - 1``; above 2
    the profile is unrecognized.  The label carries ``pi1_verified`` when
    ``status`` certifies pi1 free of rank beta_1.
    """
    if len(profile.f_vector) > 3 or profile.betti[0] != 1 or profile.has_torsion:
        return None
    betti = profile.betti + (0,) * (3 - len(profile.betti))
    p, q = betti[1], betti[2]
    verified = status is not None and status.certifies_free_rank(p)
    return WedgeLabel(circles=p, spheres=q, pi1_verified=verified)


@dataclass(frozen=True)
class ClassificationRecord:
    """One isomorphism class in an inventory, with all computed evidence."""

    code: bytes
    n: int
    height: int
    covers: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    profile: HomologyProfile
    wedge: WedgeLabel | None
    homogeneous: bool
    dual_code: bytes
    figure_matches: tuple[str, ...]

    @property
    def label_key(self) -> tuple[int, int] | None:
        return None if self.wedge is None else self.wedge.key

    def poset(self) -> Poset:
        return Poset.from_covers(self.n, self.covers, self.labels)

    def to_json_obj(self) -> dict:
        return {
            "code": self.code.decode("ascii"),
            "n": self.n,
            "height": self.height,
            "covers": [[self.labels[lo], self.labels[hi]] for lo, hi in self.covers],
            "elements": list(self.labels),
            "homology": self.profile.to_json_dict(),
            "label": None if self.wedge is None else self.wedge.to_json_obj(),
            "homogeneous": self.homogeneous,
            "dual_code": self.dual_code.decode("ascii"),
            "figures": list(self.figure_matches),
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def classify_poset(p: Poset) -> ClassificationRecord:
    """Full record for one core: homology, pi1 certification, label, dual."""
    status = _pi1_certificate(p)
    if status is not None and status.is_conclusive:
        profile = free_pi1_homology(p, status.rank)
    else:  # p's certificate is its core's when p is a core
        profile = _poset_homology(p, status if p.core() is p else None)
    return _record(p, p.dual_code, p.height, profile, label(profile, status), p.is_homogeneous)


def _record(
    p: Poset, dual_code: bytes, height: int, profile: HomologyProfile,
    wedge: WedgeLabel | None, homogeneous: bool,
) -> ClassificationRecord:
    """The record of ``p`` with the given classification fields; the rest
    are read off ``p``."""
    return ClassificationRecord(
        code=p.canonical_code, n=p.n, height=height, covers=p.covers, labels=p.labels,
        profile=profile, wedge=wedge, homogeneous=homogeneous, dual_code=dual_code,
        figure_matches=figures.matches(p),
    )


@dataclass(frozen=True)
class Inventory:
    """Classified cores for one (n, height), sorted by canonical code."""

    n: int
    height: int
    records: tuple[ClassificationRecord, ...]

    @property
    def counts(self) -> Counter:
        return Counter(r.label_key for r in self.records)

    def count_for(self, circles: int, spheres: int) -> int:
        return self.counts[(circles, spheres)]

    def records_for(self, circles: int, spheres: int) -> tuple[ClassificationRecord, ...]:
        return tuple(r for r in self.records if r.label_key == (circles, spheres))


def inventory(n: int, height: int, *, workers: int = 1) -> Inventory:
    """Enumerate, classify and count the cores of the given size and height.

    Enumeration is serial, so ``workers`` accepts only 1; any other value
    raises :class:`ValueError`.
    """
    if workers != 1:
        raise ValueError("enumeration is serial: workers must be 1")
    if height == 1:
        cores = enumerate_height1_cores(n)
    elif height == 2:
        cores = enumerate_height2_cores(n)
    else:
        raise ValueError("height must be 1 or 2")
    return Inventory(n=n, height=height, records=tuple(classify_cores(cores)))


def classify_cores(cores: Iterable[Poset]) -> Iterator[ClassificationRecord]:
    """One record per core, in order, classifying each dual pair once.

    The canonical code is a complete invariant and duality an involution,
    so a record's dual code names its partner.  The first core of a dual
    pair, and each self-dual core, goes through :func:`classify_poset`; of
    a first record only the fields its partner shares are kept until the
    partner arrives, whose record then takes ``height``, ``profile``,
    ``wedge`` and ``homogeneous`` from them (see the module docstring for
    why that is sound).
    """
    # code, height, profile, wedge, homogeneous of first records, by partner code
    waiting: dict[bytes, tuple] = {}
    for p in cores:
        shared = waiting.pop(p.canonical_code, None)
        if shared is None:
            rec = classify_poset(p)
            if rec.dual_code != rec.code:
                waiting[rec.dual_code] = (rec.code, rec.height, rec.profile, rec.wedge, rec.homogeneous)
        else:
            rec = _record(p, *shared)
        yield rec


@dataclass(frozen=True)
class MinModelResult:
    circles: int
    spheres: int
    n_min: int | None
    records: tuple[ClassificationRecord, ...]

    @property
    def found(self) -> bool:
        return self.n_min is not None


def min_model_search(p: int, q: int, n_max: int) -> MinModelResult:
    """Smallest point count carrying a core labelled (p, q), with all models.

    Wedges of circles only need height-1 cores; any type with a sphere needs
    height 2.  The contractible target (0, 0) is the one-point space.  An
    ``n_max`` above the cap of the searched height raises
    :class:`~finspace.enumeration.SizeTooLarge` before any enumeration.
    """
    if p < 0 or q < 0:
        raise ValueError("wedge components must be >= 0")
    if p == 0 and q == 0:
        if n_max < 1:
            return MinModelResult(p, q, None, ())
        return MinModelResult(p, q, 1, (classify_poset(Poset.antichain(1)),))
    height = 1 if q == 0 else 2
    check_cap(n_max, height)
    for n in range(1, n_max + 1):
        hits = inventory(n, height).records_for(p, q)
        if hits:
            return MinModelResult(p, q, n, hits)
    return MinModelResult(p, q, None, ())


def circle_wedge_size(n: int) -> int:
    """Point count of a minimal model of a wedge of n circles:
    min{i + j : (i-1)(j-1) >= n} over i, j >= 2."""
    if n < 1:
        raise ValueError("circle count must be >= 1")
    best = None
    for i in range(2, n + 3):
        j = n // (i - 1) + (1 if n % (i - 1) else 0) + 1
        j = max(j, 2)
        total = i + j
        if best is None or total < best:
            best = total
    assert best is not None
    return best


def circle_wedge_size_closed_form(n: int, rounding: str = "ceil") -> int:
    """Closed-form candidate size: min of 2*[sqrt(n)+1] and 2*[root of
    a(a-1)=n] + 1.  The published bracket is ambiguous, so the rounding is a
    parameter; both brackets are evaluated exactly in integers."""
    if n < 1:
        raise ValueError("circle count must be >= 1")
    if rounding == "ceil":
        sq = math.isqrt(n - 1) + 1
        a = 1
        while a * (a - 1) < n:
            a += 1
    elif rounding == "floor":
        sq = math.isqrt(n)
        a = 1
        while (a + 1) * a <= n:
            a += 1
    else:
        raise ValueError("rounding must be 'ceil' or 'floor'")
    return min(2 * (sq + 1), 2 * a + 1)
