import hashlib
import json
import random
import sys

import pytest

from finspace import figures
from finspace.classify import (
    WedgeLabel,
    circle_wedge_size,
    circle_wedge_size_closed_form,
    classify_cores,
    classify_poset,
    inventory,
    label,
    min_model_search,
)
from finspace import classify, complexes, posets, presentations
from finspace.complexes import HomologyProfile, homology, order_complex
from finspace.enumeration import enumerate_height1_cores, enumerate_height2_cores
from finspace.formats import load_poset
from finspace.posets import Poset, fence, mobius_band
from finspace.presentations import (
    Presentation,
    SimplificationStatus,
    poset_presentation,
    tietze_simplify,
)


def profile(f_vector, betti, torsion=None, f2=None):
    dim = len(f_vector) - 1
    torsion = torsion or tuple(() for _ in range(dim + 1))
    euler = sum((-1) ** d * v for d, v in enumerate(f_vector))
    return HomologyProfile(
        f_vector=tuple(f_vector),
        betti=tuple(betti),
        torsion=tuple(tuple(t) for t in torsion),
        euler=euler,
        f2_ranks=tuple(f2 or ()),
    )


class TestLabel:
    def test_wedge_two_circles_one_sphere(self):
        prof = profile((8, 16, 8), (1, 2, 1))
        status = SimplificationStatus.free_of_rank(2)
        got = label(prof, status)
        assert got == WedgeLabel(circles=2, spheres=1, pi1_verified=True)

    def test_contractible(self):
        prof = profile((1,), (1,))
        got = label(prof, SimplificationStatus.free_of_rank(0))
        assert got == WedgeLabel(circles=0, spheres=0, pi1_verified=True)

    def test_inconclusive_pi1_left_unverified(self):
        prof = profile((8, 14, 4), (1, 3, 0))
        stuck = SimplificationStatus.inconclusive(Presentation(3, ((1, 2, -1, -2),)))
        got = label(prof, stuck)
        assert got == WedgeLabel(circles=3, spheres=0, pi1_verified=False)

    def test_torsion_unrecognized(self):
        prof = profile((6, 15, 10), (1, 0, 0), torsion=((), (2,), ()))
        assert label(prof, None) is None

    def test_disconnected_unrecognized(self):
        prof = profile((2,), (2,))
        assert label(prof, None) is None

    def test_high_dimension_unrecognized(self):
        prof = profile((4, 6, 4, 1), (1, 0, 0, 0))
        assert label(prof, None) is None


class TestClassifyPoset:
    def test_record_fields(self):
        p = figures.poset("fig14c")
        rec = classify_poset(p)
        assert rec.n == 8
        assert rec.height == 2
        assert rec.label_key == (2, 1)
        assert rec.wedge is not None and rec.wedge.pi1_verified
        assert not rec.homogeneous
        assert "fig14c" in rec.figure_matches
        assert rec.dual_code == figures.poset("fig14cstar").canonical_code

    def test_json_line_round_trips(self):
        rec = classify_poset(figures.poset("fig05b"))
        obj = json.loads(rec.to_json_line())
        assert obj["label"] == {"circles": 0, "spheres": 2, "pi1_verified": True}
        assert obj["homology"]["betti"] == [1, 0, 2]
        assert obj["n"] == 7
        rebuilt = Poset.from_covers(
            obj["n"],
            [
                (obj["elements"].index(lo), obj["elements"].index(hi))
                for lo, hi in obj["covers"]
            ],
            obj["elements"],
        )
        assert rebuilt.canonical_code.decode("ascii") == obj["code"]


class TestHomologyFromCertificate:
    @staticmethod
    def cores():
        cores = [
            p
            for n in range(1, 10)
            for p in enumerate_height1_cores(n) + enumerate_height2_cores(n)
        ]
        assert len(cores) == 928
        return cores + [Poset.antichain(1), fence(), mobius_band().core()]

    def test_equals_smith_normal_form_homology(self):
        # poset_homology reads these cores' homology off the same
        # certificates, so the order complex is the oracle
        for p in self.cores():
            assert classify_poset(p).profile == homology(order_complex(p)), p.canonical_code

    def test_certified_cores_skip_smith_normal_form(self, monkeypatch):
        def refuse(m):
            raise AssertionError("certified core reached Smith normal form")

        monkeypatch.setattr(complexes, "smith_normal_form", refuse)
        for fid in ("fig14c", "fig17a", "fig05b"):
            assert classify_poset(figures.poset(fid)).wedge.pi1_verified

    def test_inconclusive_falls_back_to_smith_normal_form(self, monkeypatch):
        stuck = SimplificationStatus.inconclusive(Presentation(2, ((1, 2, -1, -2),)))
        monkeypatch.setattr(complexes, "tietze_simplify", lambda pres: stuck)
        for fid in ("fig14c", "fig17a", "fig05b"):
            p = figures.poset(fid)
            rec = classify_poset(p)
            assert rec.profile == homology(order_complex(p))
            assert rec.to_json_obj()["label"]["pi1_verified"] is False


class TestMobiusBand:
    def test_face_poset_and_core(self):
        band = mobius_band()
        assert band.n == 20 and band.height == 2
        core = band.core()
        assert core.n == 15 and core.height == 2

    def test_face_poset_pinned(self):
        """Labels and covers, byte for byte."""
        band = mobius_band()
        assert hashlib.sha256(repr((band.labels, band.covers)).encode()).hexdigest() == (
            "4233a3d727381be0f99cb40c719aaad974757c0491899bf3eb7759ba49bc2765"
        )

    def test_core_labelled_circle_with_pi1_certified(self):
        rec = classify_poset(mobius_band().core())
        assert rec.wedge == WedgeLabel(circles=1, spheres=0, pi1_verified=True)


class TestInventory:
    def test_inventory_6_2(self):
        inv = inventory(6, 2)
        assert len(inv.records) == 1
        assert inv.records[0].label_key == (0, 1)

    def test_inventory_7_2_counts(self):
        inv = inventory(7, 2)
        assert inv.count_for(1, 1) == 2
        assert inv.count_for(0, 2) == 3

    def test_records_sorted_and_unique(self):
        inv = inventory(7, 2)
        codes = [r.code for r in inv.records]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)

    def test_dual_codes_stay_inside(self):
        inv = inventory(7, 2)
        codes = {r.code for r in inv.records}
        assert all(r.dual_code in codes for r in inv.records)

    def test_label_dual_invariant(self):
        inv = inventory(7, 2)
        by_code = {r.code: r for r in inv.records}
        for rec in inv.records:
            assert by_code[rec.dual_code].label_key == rec.label_key

    def test_bad_height(self):
        with pytest.raises(ValueError):
            inventory(5, 3)

    def test_workers_must_be_one(self):
        with pytest.raises(ValueError, match="workers must be 1"):
            inventory(7, 2, workers=2)
        assert inventory(7, 2, workers=1).records == inventory(7, 2).records

    def test_inventory_8_2_pinned_counts(self):
        inv = inventory(8, 2)
        assert len(inv.records) == 53
        assert inv.count_for(2, 1) == 7
        assert inv.count_for(3, 1) == 1
        assert inv.count_for(1, 2) == 6
        assert inv.count_for(0, 3) == 5
        assert inv.count_for(0, 4) == 3

    def test_homogeneity_rule_over_inventories(self):
        # mixed wedges admit only non-homogeneous models; sphere-only wedges
        # only homogeneous ones
        for n in (7, 8):
            for rec in inventory(n, 2).records:
                if rec.label_key is None:
                    continue
                p, q = rec.label_key
                if p >= 1 and q >= 1:
                    assert not rec.homogeneous, rec.code
                if p == 0 and q >= 1:
                    assert rec.homogeneous, rec.code

    def test_every_record_pi1_verified_at_paper_scale(self):
        # the budgeted simplifier succeeds on every core up to 9 points
        for n, total in ((6, 1), (7, 7), (8, 53), (9, 451)):
            records = inventory(n, 2).records
            assert len(records) == total
            for rec in records:
                assert rec.wedge is not None
                assert rec.wedge.pi1_verified, rec.code

    def test_homotopically_trivial_cores_on_nine_points(self):
        # acyclic, simply connected, yet cores: a dual pair of two classes
        trivial = inventory(9, 2).records_for(0, 0)
        assert [r.code for r in trivial] == [
            b"9:1f0,1e8,1d8,140,180,1c0,0,0,0",
            b"9:1f0,1e8,1f8,140,180,c0,0,0,0",
        ]
        a, b = trivial
        assert (a.dual_code, b.dual_code) == (b.code, a.code)

    def test_wedge_types_first_modelled_on_nine_points(self):
        """Twelve wedge types have a model on 9 points (at height 2) and none
        on fewer points at height 1 or 2; (0, 7) still has none, although
        (0, 8) has one.  The only other new label is (0, 0), the pair of
        homotopically trivial cores."""
        first = {
            (0, 5): 5, (0, 6): 8, (0, 8): 1, (1, 3): 14, (1, 4): 6, (2, 3): 4,
            (2, 4): 4, (3, 2): 11, (3, 3): 2, (4, 1): 10, (4, 2): 4, (5, 1): 2,
        }
        earlier = {key for n in range(1, 9) for h in (1, 2) for key in inventory(n, h).counts}
        counts = inventory(9, 2).counts
        new = {key: c for key, c in counts.items() if key is not None and key not in earlier}
        assert new == {**first, (0, 0): 2}
        assert counts[(0, 7)] == 0

    def test_jsonl_output(self):
        inv = inventory(6, 2)
        lines = [r.to_json_line() for r in inv.records]
        assert len(lines) == 1
        assert json.loads(lines[0])["label"]["spheres"] == 1


class TestDualPairing:
    """``inventory`` classifies each dual pair once; the records must still
    equal those ``classify_poset`` computes on its own."""

    def test_dual_code_is_code_of_dual(self):
        for n in range(1, 10):
            for height in (1, 2):
                for rec in inventory(n, height).records:
                    assert rec.dual_code == rec.poset().dual().canonical_code, rec.code

    def test_dual_codes_form_an_involution(self):
        for n in (7, 8, 9):
            for height in (1, 2):
                dual = {r.code: r.dual_code for r in inventory(n, height).records}
                assert all(dual[dual[code]] == code for code in dual)

    def test_copied_records_equal_computed_ones(self):
        for n in range(1, 10):
            for height in (1, 2):
                cores = enumerate_height1_cores(n) if height == 1 else enumerate_height2_cores(n)
                got = list(classify_cores(cores))
                assert len(got) == len(cores)
                for rec, p in zip(got, cores):
                    assert rec == classify_poset(p), (n, height, p.canonical_code)

    def test_tietze_runs_once_per_dual_orbit(self, monkeypatch):
        calls = []

        def counted(presentation):
            calls.append(presentation)
            return tietze_simplify(presentation)

        monkeypatch.setattr(complexes, "tietze_simplify", counted)
        # a height-1 core's pi1 is counted off its graph, never simplified
        for height, orbits in ((2, 241), (1, 0)):
            calls.clear()
            inventory(9, height)
            assert len(calls) == orbits, height

    def test_height2_inventory_reads_pi1_off_the_hasse_diagram(self, monkeypatch):
        """One Hasse-diagram presentation per dual orbit and no order
        complex; every finspace module holding ``poset_presentation`` or
        ``order_complex`` gets the spy, as the tracer does."""
        calls = {"poset_presentation": [], "order_complex": []}
        for name, module in (("poset_presentation", presentations), ("order_complex", complexes)):
            original = getattr(module, name)

            def spy(p, original=original, seen=calls[name]):
                seen.append(p)
                return original(p)

            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").startswith("finspace") and getattr(holder, name, None) is original:
                    monkeypatch.setattr(holder, name, spy)
        inventory(8, 2)
        assert len(calls["poset_presentation"]) == 30  # one per dual orbit of the 53 cores
        assert calls["order_complex"] == []

    def test_height1_inventory_codes_each_class_about_once(self, monkeypatch):
        """The wide reading hands each class its partner's code, so
        classification codes no dual again."""
        calls = []
        rows = posets._canonical_rows
        monkeypatch.setattr(
            posets, "_canonical_rows", lambda *args: calls.append(1) or rows(*args)
        )
        assert len(inventory(9, 1).records) == 320
        assert len(calls) <= 323


class TestCountedPi1:
    """At height at most 1 the order complex is a graph, and ``classify_poset``
    counts its pi1 (free of rank E - V + 1) instead of simplifying the
    edge-path presentation.  The count must agree with the simplifier."""

    @staticmethod
    def check(monkeypatch, p):
        """The status ``classify_poset`` hands to ``label`` for ``p`` is the
        simplifier's, and the record is certified with the right homology."""
        assert p.is_connected and p.height <= 1
        seen = []

        def spied(prof, status):
            seen.append(status)
            return label(prof, status)

        monkeypatch.setattr(classify, "label", spied)
        rec = classify_poset(p)
        simplified = tietze_simplify(poset_presentation(p))
        want = [(simplified.kind, simplified.rank)]
        assert [(s.kind, s.rank) for s in seen] == want, p.canonical_code
        assert rec.wedge is not None and rec.wedge.pi1_verified
        assert rec.profile == homology(order_complex(p)), p.canonical_code

    def test_every_height1_core_up_to_nine_points(self, monkeypatch):
        cores = [p for n in range(1, 10) for p in enumerate_height1_cores(n)]
        assert len(cores) == 1 + 2 + 6 + 18 + 69 + 320
        for p in cores:
            self.check(monkeypatch, p)

    def test_catalog_and_fixtures(self, monkeypatch, fixture_paths):
        """The figure catalog has no figure of height at most 1, so the
        fixture files stand in: ``chain2`` (contractible, not a core) and
        ``circle4`` (the circle's minimal model), with the one-point space
        at height 0."""
        named = {fid: figures.poset(fid) for fid in figures.all_ids()}
        named.update((path.stem, load_poset(path)) for path in fixture_paths)
        named["point"] = Poset.antichain(1)
        picked = sorted(k for k, p in named.items() if p.is_connected and p.height <= 1)
        assert picked == ["chain2", "circle4", "point"]
        for key in picked:
            self.check(monkeypatch, named[key])

    def test_random_height1_posets(self, monkeypatch):
        """Connected bipartite orders with beat points and trees included."""
        rng = random.Random(20)
        checked = 0
        while checked < 200:
            m0, m1 = rng.randint(1, 5), rng.randint(1, 5)
            prob = rng.choice((0.3, 0.5, 0.8))
            up = [1 << i for i in range(m0 + m1)]
            for i in range(m0):
                for j in range(m0, m0 + m1):
                    if rng.random() < prob:
                        up[i] |= 1 << j
            p = Poset(up)
            if p.is_connected and p.height == 1:
                self.check(monkeypatch, p)
                checked += 1


class TestMinModelSearch:
    def test_single_circle(self):
        res = min_model_search(1, 0, 8)
        assert res.n_min == 4
        assert len(res.records) == 1
        assert res.records[0].poset().is_isomorphic(fence())

    def test_contractible(self):
        res = min_model_search(0, 0, 8)
        assert res.n_min == 1

    def test_sphere(self):
        res = min_model_search(0, 1, 8)
        assert res.n_min == 6

    def test_not_found(self):
        res = min_model_search(0, 9, 8)
        assert not res.found
        assert res.records == ()

    def test_circle_targets_match_size_law(self):
        for n_circles in range(1, 5):
            res = min_model_search(n_circles, 0, 8)
            assert res.n_min == circle_wedge_size(n_circles)

    @pytest.mark.parametrize("circles", range(1, 7))
    def test_circle_wedges_up_to_seven_points(self, circles):
        """The searches behind the height-1 size law of ``verify-paper``:
        each minimal model of a wedge of c circles is labelled (c, 0) and
        has n + c - 1 covers."""
        res = min_model_search(circles, 0, 7)
        assert res.n_min == circle_wedge_size(circles)
        assert res.records
        for rec in res.records:
            assert rec.label_key == (circles, 0), rec.code
            assert len(rec.covers) == rec.n + circles - 1, rec.code


class TestCircleWedgeSize:
    def test_known_values(self):
        assert circle_wedge_size(1) == 4
        assert circle_wedge_size(2) == 5
        assert circle_wedge_size(3) == 6
        assert circle_wedge_size(4) == 6
        assert circle_wedge_size(5) == 7
        assert circle_wedge_size(6) == 7

    def test_matches_ceiling_closed_form(self):
        for n in range(1, 60):
            assert circle_wedge_size(n) == circle_wedge_size_closed_form(n, "ceil")

    def test_floor_reading_fails_somewhere(self):
        mismatches = [
            n
            for n in range(1, 10)
            if circle_wedge_size(n) != circle_wedge_size_closed_form(n, "floor")
        ]
        assert 2 in mismatches

    def test_brute_force_definition(self):
        for n in range(1, 20):
            best = min(
                i + j
                for i in range(2, n + 3)
                for j in range(2, n + 3)
                if (i - 1) * (j - 1) >= n
            )
            assert circle_wedge_size(n) == best


class TestEdgeLaw:
    def test_minimal_circle_models_edge_count(self):
        # every minimizer has exactly points + circles - 1 cover pairs
        for n_circles in (1, 2, 3, 4):
            res = min_model_search(n_circles, 0, 8)
            assert res.found
            for rec in res.records:
                assert len(rec.poset().covers) == res.n_min + n_circles - 1
