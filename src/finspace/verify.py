"""One-shot verification of every quantitative claim in the published
classification of small minimal models.

The claims are shipped as an immutable expectation table (model counts per
wedge type and point count, plus named spot checks on the reference
complexes: f-vectors, boundary ranks over GF(2), Betti numbers, Euler
characteristics, fundamental-group ranks, duality statements, fixture
membership, and the height-1 size law).  The enumeration is the oracle: a
mismatch is reported with the offending canonical codes, never suppressed.
Core classes the source states no counts for are reported observed-only.
Every minimal-model size, the height-1 size law's included, is found by
:func:`~finspace.classify.min_model_search`, the search behind
``finspace min-model``.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from finspace import figures
from finspace.classify import (
    Inventory,
    circle_wedge_size,
    circle_wedge_size_closed_form,
    classify_poset,
    inventory,
    min_model_search,
)
from finspace.complexes import boundary_ranks, homology, order_complex
from finspace.posets import fence, mobius_band, projective_plane
from finspace.presentations import poset_presentation, tietze_simplify


class ModelCountClaim(NamedTuple):
    """One published count: the wedge (circles, spheres) has exactly
    ``expected`` minimal models on ``n`` points."""

    circles: int
    spheres: int
    n: int
    expected: int


# The published classification: counts of minimal models per wedge type.
MODEL_COUNTS: tuple[ModelCountClaim, ...] = (
    ModelCountClaim(0, 1, 6, 1),
    ModelCountClaim(1, 1, 7, 2),
    ModelCountClaim(0, 2, 7, 3),
    ModelCountClaim(2, 1, 8, 7),
    ModelCountClaim(3, 1, 8, 1),
    ModelCountClaim(1, 2, 8, 6),
    ModelCountClaim(0, 3, 8, 5),
    ModelCountClaim(0, 4, 8, 3),
)

# Spot checks on the two reference complexes whose numbers are stated in full.
FIXTURE_NUMBERS = {
    "fig17a": {
        "f_vector": (8, 14, 4),
        "f2_ranks": (7, 4),
        "betti": (1, 3, 0),
        "euler": -2,
        "pi1_rank": 3,
    },
    "fig14c": {
        "f_vector": (8, 16, 8),
        "f2_ranks": (7, 7),
        "betti": (1, 2, 1),
        "euler": 0,
        "pi1_rank": 2,
    },
}

TRIVIAL_PI1_FIXTURES = ("fig05a", "fig05astar", "fig05b")


class CheckLine(NamedTuple):
    check: str
    expected: object
    observed: object
    passed: bool
    note: str = ""

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
            **({"note": self.note} if self.note else {}),
        }


class VerificationReport(NamedTuple):
    checks: tuple[CheckLine, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(c.to_json_obj(), default=str) for c in self.checks)

    def to_table(self) -> str:
        width = max(len(c.check) for c in self.checks)
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.check:<{width}}  expected={c.expected!r}  observed={c.observed!r}"
                + (f"  [{c.note}]" if c.note else "")
            )
        tally = sum(1 for c in self.checks if c.passed)
        lines.append(f"{tally}/{len(self.checks)} checks passed")
        return "\n".join(lines)


def _gf2_mismatches(prof) -> list[str]:
    """Each d_{d+1} whose GF(2) rank is not its integer rank minus its even
    invariant factors, which are the even torsion of H_d."""
    ranks = boundary_ranks(prof.f_vector, prof.betti)
    evens = [sum(1 for t in ts if t % 2 == 0) for ts in prof.torsion]
    return [f"d{d + 1}" for d, f2 in enumerate(prof.f2_ranks) if f2 != ranks[d] - evens[d]]


def verify_paper(progress: Callable[[str], None] | None = None) -> VerificationReport:
    """Run the entire expectation table and return pass/fail lines.

    The report also carries observed-only lines (expected ``None``) for core
    classes the published statements assign no count to; those always pass.
    """
    checks: list[CheckLine] = []

    def emit(check: str, expected, observed, note: str = "") -> None:
        line = CheckLine(check, expected, observed, expected == observed, note)
        checks.append(line)
        if progress is not None:
            progress(f"{'pass' if line.passed else 'FAIL'} {check}")

    def emit_observed(check: str, observed, note: str = "") -> None:
        checks.append(CheckLine(check, None, observed, True, note or "observed only"))
        if progress is not None:
            progress(f"info {check}")

    # -- inventory counts ----------------------------------------------------
    inventories: dict[tuple[int, int], Inventory] = {}
    for n in (5, 6, 7, 8):
        inventories[(n, 2)] = inventory(n, 2)
    emit("inventory(5,2) empty", 0, len(inventories[(5, 2)].records))
    emit("inventory(6,2) single record", 1, len(inventories[(6, 2)].records))
    for claim in MODEL_COUNTS:
        inv = inventories[(claim.n, 2)]
        observed = inv.count_for(claim.circles, claim.spheres)
        note = ""
        if observed != claim.expected:
            codes = [
                r.code.decode("ascii")
                for r in inv.records_for(claim.circles, claim.spheres)
            ]
            note = f"discrepancy codes: {codes}"
        emit(
            f"models of ({claim.circles} circles, {claim.spheres} spheres) on {claim.n} points",
            claim.expected,
            observed,
            note,
        )
    for n in (7, 8):
        inv = inventories[(n, 2)]
        stated = {
            (c.circles, c.spheres) for c in MODEL_COUNTS if c.n == n
        }
        extra = {
            key: count
            for key, count in sorted(inv.counts.items(), key=lambda kv: str(kv[0]))
            if key not in stated
        }
        emit_observed(
            f"unstated core classes at n={n}",
            {str(k): v for k, v in extra.items()},
            "classes with no published count",
        )

    # -- fixture spot checks ---------------------------------------------------
    for fid, numbers in FIXTURE_NUMBERS.items():
        p = figures.poset(fid)
        k = order_complex(p)
        prof = homology(k)
        emit(f"{fid} f_vector", numbers["f_vector"], k.f_vector)
        emit(f"{fid} boundary ranks over GF(2)", numbers["f2_ranks"], prof.f2_ranks)
        emit(f"{fid} betti", numbers["betti"], prof.betti)
        emit(f"{fid} euler", numbers["euler"], prof.euler)
        emit(f"{fid} torsion-free", True, not prof.has_torsion)
        status = tietze_simplify(poset_presentation(p))
        emit(
            f"{fid} pi1 free of rank {numbers['pi1_rank']}",
            True,
            status.certifies_free_rank(numbers["pi1_rank"]),
        )
    for fid in TRIVIAL_PI1_FIXTURES:
        status = tietze_simplify(poset_presentation(figures.poset(fid)))
        emit(f"{fid} pi1 trivial", "trivial", status.kind)

    # -- duality claims ----------------------------------------------------------
    for a, b in figures.dual_pairs():
        emit(
            f"dual({a}) isomorphic to {b}",
            True,
            figures.poset(a).dual().is_isomorphic(figures.poset(b)),
        )
    for fid in figures.self_dual_ids():
        p = figures.poset(fid)
        emit(f"{fid} self-dual", True, p.dual().is_isomorphic(p))
    trio = [figures.poset(f) for f in ("fig18c", "fig18d", "fig18e")]
    emit(
        "fig18c, fig18d, fig18e pairwise isomorphic",
        True,
        trio[0].is_isomorphic(trio[1]) and trio[0].is_isomorphic(trio[2]),
    )

    # -- fixture membership --------------------------------------------------------
    for n in (7, 8):
        inv_codes = {r.code for r in inventories[(n, 2)].records}
        missing = [
            fid
            for fid in figures.core_ids()
            if figures.poset(fid).n == n
            and figures.poset(fid).canonical_code not in inv_codes
        ]
        emit(f"core fixtures on {n} points all inventoried", [], missing)
    rejected = []
    for fid in ("fig15a", "fig15b", "fig15c", "fig15d"):
        p = figures.poset(fid)
        if p.is_connected and p.is_core:
            rejected.append(fid)
    emit("rejected single-middle configurations are not cores", [], rejected)

    # -- homogeneity ------------------------------------------------------------------
    emit("fig06 homogeneous", True, figures.poset("fig06").is_homogeneous)
    emit("fig04a non-homogeneous", False, figures.poset("fig04a").is_homogeneous)
    mixed_bad = []
    pure_bad = []
    for n in (7, 8):
        for rec in inventories[(n, 2)].records:
            key = rec.label_key
            if key is None:
                continue
            p, q = key
            if p >= 1 and q >= 1 and rec.homogeneous:
                mixed_bad.append(rec.code.decode("ascii"))
            if p == 0 and q >= 1 and not rec.homogeneous:
                pure_bad.append(rec.code.decode("ascii"))
    emit("mixed-wedge records non-homogeneous", [], mixed_bad)
    emit("sphere-only records homogeneous", [], pure_bad)

    # -- minimal-model searches ------------------------------------------------------
    for (p, q), (n_want, count_want) in {
        (1, 0): (4, 1),
        (1, 1): (7, 2),
        (0, 2): (7, 3),
    }.items():
        res = min_model_search(p, q, 8)
        emit(
            f"min model of ({p} circles, {q} spheres)",
            (n_want, count_want),
            (res.n_min, len(res.records)),
        )

    # -- the Mobius band ----------------------------------------------------------------
    band = classify_poset(mobius_band().core())
    emit(
        "Mobius band core (15 points) labelled (1 circles, 0 spheres) with pi1 certified",
        (15, (1, 0), True),
        (band.n, band.label_key, band.wedge is not None and band.wedge.pi1_verified),
    )
    res = min_model_search(1, 0, 4)
    emit(
        "min model of the Mobius band's type is the 4-point fence",
        (4, 1, True),
        (res.n_min, len(res.records), all(r.poset().is_isomorphic(fence()) for r in res.records)),
    )

    # -- height-1 size law -------------------------------------------------------------
    for n_circles in range(1, 7):
        law = circle_wedge_size(n_circles)
        res = min_model_search(n_circles, 0, 7)
        emit(f"height-1 law: wedge of {n_circles} circles needs", law, res.n_min)
        emit(
            f"height-1 minimizers for {n_circles} circles have points+{n_circles}-1 edges",
            True,
            all(len(r.covers) == r.n + n_circles - 1 for r in res.records),
        )
        for rounding in ("ceil", "floor"):
            emit_observed(
                f"closed form ({rounding}) for {n_circles} circles",
                circle_wedge_size_closed_form(n_circles, rounding),
                "matches law" if circle_wedge_size_closed_form(n_circles, rounding) == law else "does NOT match law",
            )

    # -- oracle-free invariants of the height-2 inventories ------------------------
    # Each holds on every record whatever the published counts say, so a
    # fault in enumeration, duality or either rank computation shows here.
    # The records' homology is read off their pi1 certificates, so these
    # lines rebuild each order complex and run Smith normal form once.  No
    # such core has torsion, so the GF(2) line is also run on RP^2.
    not_closed = []
    euler_bad = []
    pi1_homology_bad = []
    gf2_bad = []
    for n in (7, 8):
        records = inventories[(n, 2)].records
        codes = {r.code for r in records}
        for rec in records:
            code = rec.code.decode("ascii")
            if rec.dual_code not in codes:
                not_closed.append(code)
            prof = homology(order_complex(rec.poset()))
            if prof.euler != sum((-1) ** d * b for d, b in enumerate(prof.betti)):
                euler_bad.append(code)
            if rec.profile != prof:
                pi1_homology_bad.append(code)
            gf2_bad.extend(f"{code} {m}" for m in _gf2_mismatches(prof))
    emit("height-2 cores on 7 and 8 points closed under duality", [], not_closed)
    emit("euler equals alternating betti sum on 7- and 8-point cores", [], euler_bad)
    emit(
        "homology read off pi1 equals Smith-normal-form homology on 7- and 8-point cores",
        [],
        pi1_homology_bad,
    )
    emit(
        "GF(2) rank equals integer rank minus even invariant factors on 7- and 8-point cores",
        [],
        gf2_bad,
    )
    rp2 = homology(order_complex(projective_plane()))
    emit(
        "GF(2) rank equals integer rank minus even invariant factors on the RP2 face poset",
        {"torsion": [[], [2], []], "mismatches": []},
        {"torsion": [list(t) for t in rp2.torsion], "mismatches": _gf2_mismatches(rp2)},
    )

    return VerificationReport(tuple(checks))
