from importlib.resources import files

from finspace import figures
from finspace.complexes import poset_homology
from finspace.formats import load_poset, poset_to_text


class TestCatalog:
    def test_every_figure_parses_and_validates(self):
        for fid in figures.all_ids():
            p = figures.poset(fid)
            assert p.n == len(figures.FIGURES[fid].elements)
            assert p.height == 2

    def test_expected_sizes(self):
        sevens = [f for f in figures.all_ids() if figures.poset(f).n == 7]
        eights = [f for f in figures.all_ids() if figures.poset(f).n == 8]
        assert len(sevens) == 13
        assert len(eights) == 45
        assert len(figures.all_ids()) == 58

    def test_core_flags(self):
        non_cores = {"fig15a", "fig15b", "fig15c", "fig15d"}
        for fid in figures.all_ids():
            p = figures.poset(fid)
            actually_core = p.is_connected and not p.beat_points()
            assert actually_core == (fid not in non_cores), fid
            assert figures.FIGURES[fid].is_core == actually_core

    def test_wedge_claims_match_homology(self):
        for fid in figures.core_ids():
            p = figures.poset(fid)
            prof = poset_homology(p)
            betti = prof.betti + (0,) * (3 - len(prof.betti))
            assert betti[0] == 1 and not prof.has_torsion, fid
            assert (betti[1], betti[2]) == figures.FIGURES[fid].wedge, fid


class TestDualityClaims:
    def test_every_pair(self):
        for a, b in figures.dual_pairs():
            assert figures.poset(a).dual().is_isomorphic(figures.poset(b)), (a, b)

    def test_self_duals(self):
        expected = {
            "fig05b", "fig07", "fig14b", "fig15e",
            "fig16b", "fig19", "fig20a", "fig21b",
        }
        assert set(figures.self_dual_ids()) == expected
        for fid in expected:
            p = figures.poset(fid)
            assert p.dual().is_isomorphic(p), fid

    def test_duplicated_diagrams_land_in_known_classes(self):
        same = [
            ("fig06", "fig05astar"),
            ("fig07", "fig05b"),
            ("fig08", "fig04astar"),
            ("fig10", "fig14astar"),
            ("fig11", "fig18bstar"),
            ("fig12", "fig18astar"),
            ("fig13", "fig21astar"),
            ("fig19", "fig21b"),
        ]
        for a, b in same:
            assert figures.poset(a).is_isomorphic(figures.poset(b)), (a, b)

    def test_fig18_trio_single_class(self):
        ids = figures.matches(figures.poset("fig18c"))
        assert set(ids) >= {"fig18c", "fig18d", "fig18e"}


class TestMatches:
    def test_match_lookup(self):
        p = figures.poset("fig21b")
        assert set(figures.matches(p)) == {"fig19", "fig21b"}

    def test_no_match(self):
        from finspace.posets import Poset

        assert figures.matches(Poset.chain(3)) == ()


class TestFixtureFiles:
    def test_disk_files_match_catalog(self):
        """The package's catalog directory holds one file per id of the
        claims table, with no orphan and none missing, and each file opens
        with a ``# `` note line saying what the figure shows."""
        catalog = files("finspace").joinpath("catalog")
        names = sorted(entry.name for entry in catalog.iterdir())
        assert names == [f"{fid}.poset" for fid in figures.all_ids()]
        for name in names:
            first = catalog.joinpath(name).read_text(encoding="utf-8").splitlines()[0]
            assert first.startswith("# ") and first[2:].strip(), name

    def test_every_fixture_file_round_trips(self, fixture_paths):
        from finspace.formats import parse_poset_json, poset_to_json

        for path in fixture_paths:
            p = load_poset(path)
            assert poset_to_text(p) in path.read_text()
            again = parse_poset_json(poset_to_json(p))
            assert (again.n, again.covers) == (p.n, p.covers)
