import random

import pytest

from conftest import disjoint_union, product, random_connected_poset
from finspace import figures
from finspace.complexes import order_complex, poset_homology
from finspace.enumeration import enumerate_height2_cores
from finspace.posets import Poset, fence, sphere_model
from finspace.presentations import (
    DisconnectedComplex,
    Presentation,
    SimplificationStatus,
    cyclic_reduce,
    free_reduce,
    poset_presentation,
    presentation,
    tietze_simplify,
)
from oracle_posets import enumerate_posets
from oracle_tietze import abelianized_rank, oracle_tietze

def at_every_basepoint(p):
    """One relabelled copy of ``p`` per element x, with x swapped to index 0,
    where the spanning tree of a presentation starts."""
    for x in range(p.n):
        sigma = list(range(p.n))
        sigma[0], sigma[x] = x, 0
        yield p.permuted(sigma)


class TestWords:
    def test_free_reduce(self):
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1)) == ()
        assert free_reduce((1, 2, -2, 3)) == (1, 3)

    def test_cyclic_reduce(self):
        assert cyclic_reduce((1, 2, -1)) == (2,)
        assert cyclic_reduce((1, 2)) == (1, 2)


class TestPresentation:
    def test_full_triangle_trivial(self):
        # the order complex of a 3-chain is a full triangle
        pres = presentation(Poset.chain(3))
        assert pres.num_generators == 1
        status = tietze_simplify(pres)
        assert status.kind == "trivial"

    def test_disconnected_raises(self):
        # two points; an edge and a point; a full triangle and an edge
        for p in (
            Poset.antichain(2),
            disjoint_union(Poset.chain(2), Poset.antichain(1)),
            disjoint_union(Poset.chain(3), Poset.chain(2)),
        ):
            with pytest.raises(DisconnectedComplex):
                presentation(p)

    def test_triangle_relators_short(self):
        for fid in ("fig17a", "fig14c", "fig05a"):
            pres = presentation(figures.poset(fid))
            assert all(len(r) <= 3 for r in pres.relators)

    def test_generator_count(self):
        # edges minus spanning-tree edges
        for fid in ("fig17a", "fig04a"):
            p = figures.poset(fid)
            vertices, edges = order_complex(p).f_vector[:2]
            assert presentation(p).num_generators == edges - (vertices - 1)

    def test_to_text_golden(self):
        pres = poset_presentation(figures.poset("fig04a"))
        assert pres.to_text() == "⟨g1, g2, g3, g4 | g3^-1, g4^-1, g3^-1 g1^-1, g4^-1 g1^-1⟩"

    def test_to_text_no_relators(self):
        assert Presentation(2, ()).to_text() == "⟨g1, g2 | ⟩"


def same_group(p):
    """The presentation read off the Hasse diagram presents the group of the
    order complex: the simplifier reaches the same kind and rank on both."""
    hasse = tietze_simplify(poset_presentation(p))
    full = tietze_simplify(presentation(p))
    assert (hasse.kind, hasse.rank) == (full.kind, full.rank), p.canonical_code
    return hasse


class TestPosetPresentation:
    """``poset_presentation`` at every height, against the order complex."""

    def test_catalog_figures(self):
        for fid in figures.all_ids():
            p = figures.poset(fid)
            if p.is_connected:
                same_group(p)
                continue
            for build in (poset_presentation, presentation):
                with pytest.raises(DisconnectedComplex):
                    build(p)

    def test_every_small_poset(self):
        """Every connected poset on 7 points, at every height."""
        heights = []
        for p in enumerate_posets(7):
            if p.is_connected:
                same_group(p)
                heights.append(p.height)
        assert sum(h <= 2 for h in heights) == 822
        assert sum(h > 2 for h in heights) == 828

    def test_basepoints(self):
        p = figures.poset("fig14c")
        for q in at_every_basepoint(p):
            same_group(q)

    def test_random_connected_posets(self):
        """Random draws of up to 8 points, many of them taller than 2."""
        rng = random.Random(1)
        tall = 0
        for _ in range(500):
            p = random_connected_poset(rng)
            assert same_group(p).is_conclusive, p.canonical_code
            tall += p.height > 2
        assert tall > 100

    def test_tall_posets(self):
        """Far above height 2 the presentation stays the Hasse diagram's:
        the 62-point model of S^30 has 120 covers, so 59 generators, and a
        64-point chain has a tree for its Hasse diagram and no relator
        left."""
        pres = poset_presentation(sphere_model(30))
        assert pres.num_generators == 59
        assert tietze_simplify(pres).kind == "trivial"
        assert poset_presentation(Poset.chain(64)) == Presentation(0, ())


class TestHassePresentation:
    """The Hasse diagram, with one square per extra middle of a non-cover
    pair, on the height-2 posets the classifier reads it from."""

    def test_every_small_poset(self):
        count = 0
        for n in range(1, 8):
            for p in enumerate_posets(n):
                if p.is_connected and p.height <= 2:
                    same_group(p)
                    count += 1
        assert count == 1020

    def test_height2_cores(self):
        """Every height-2 core on 6 to 9 points, each certified free."""
        for n in range(6, 10):
            for p in enumerate_height2_cores(n):
                assert same_group(p).is_conclusive, p.canonical_code

    def test_catalog_figures(self):
        tall = 0
        for fid in figures.all_ids():
            p = figures.poset(fid)
            if p.height == 2 and p.is_connected:
                same_group(p)
                tall += 1
        assert tall > 0

    def test_size(self):
        """One generator per cover outside the spanning tree at every
        height.  At height at most 2, k - 1 relators for each non-cover pair
        with k middles, each a square of at most 4 letters."""
        for n in range(1, 8):
            for p in enumerate_posets(n):
                if not p.is_connected:
                    continue
                pres = poset_presentation(p)
                assert pres.num_generators == len(p.covers) - p.n + 1
                if p.height > 2:
                    continue
                squares = sum(
                    (row & p._strict_down[c]).bit_count() - 1
                    for row in p._strict_up
                    for c in range(p.n)
                    if row >> c & 1 and row & p._strict_down[c]
                )
                assert len(pres.relators) == squares
                assert all(len(r) <= 4 for r in pres.relators)

    def test_disconnected(self):
        with pytest.raises(DisconnectedComplex):
            poset_presentation(disjoint_union(fence(), sphere_model(1)))


class TestTietze:
    def test_single_relator_kills_generator(self):
        status = tietze_simplify(Presentation(1, ((1,),)))
        assert status.kind == "trivial"

    def test_free_of_rank_two(self):
        status = tietze_simplify(Presentation(2, ()))
        assert status.certifies_free_rank(2)

    def test_commutator_is_inconclusive_or_not_free(self):
        # <a, b | a b a^-1 b^-1> is Z^2, not free: must not certify free
        status = tietze_simplify(Presentation(2, ((1, 2, -1, -2),)))
        assert status.kind == "inconclusive"
        assert status.describe() == "inconclusive (2 generators, 1 relators left)"

    def test_relator_and_its_rotation(self):
        # <a, b | ab, ba>: solving a from ab empties ba
        status = tietze_simplify(Presentation(2, ((1, 2), (2, 1))))
        assert status.certifies_free_rank(1)

    def test_duplicate_relators(self):
        # <a, b, c | abc, abc, cab>: both copies reduce to the empty word
        pres = Presentation(3, ((1, 2, 3), (1, 2, 3), (3, 1, 2)))
        for simplify in (tietze_simplify, oracle_tietze):
            assert simplify(pres).certifies_free_rank(2)

    def test_proper_power_is_inconclusive(self):
        status = tietze_simplify(Presentation(1, ((1, 1),)))
        assert status.describe() == "inconclusive (1 generators, 1 relators left)"

    def test_fig04a_rank_one(self):
        status = tietze_simplify(poset_presentation(figures.poset("fig04a")))
        assert status.certifies_free_rank(1)

    def test_fig17a_rank_three(self):
        status = tietze_simplify(poset_presentation(figures.poset("fig17a")))
        assert status.certifies_free_rank(3)

    def test_fig14c_rank_two(self):
        status = tietze_simplify(poset_presentation(figures.poset("fig14c")))
        assert status.certifies_free_rank(2)

    def test_sphere_fixtures_trivial(self):
        for fid in ("fig05a", "fig05astar", "fig05b"):
            status = tietze_simplify(poset_presentation(figures.poset(fid)))
            assert status.kind == "trivial", fid

    def test_all_simply_connected_fixtures_trivial(self):
        for fid in figures.core_ids():
            fig = figures.FIGURES[fid]
            if fig.wedge is not None and fig.wedge[0] == 0:
                status = tietze_simplify(poset_presentation(figures.poset(fid)))
                assert status.kind == "trivial", fid

    @pytest.mark.parametrize(
        "p, rank",
        [
            *((sphere_model(k), 0) for k in range(2, 7)),
            (Poset.chain(64), 0),
            (product(fence(), Poset.chain(3)), 1),
            (product(product(fence(), fence()), Poset.chain(2)), None),
        ],
        ids=[
            *(f"sphere{k}" for k in range(2, 7)),
            "chain64",
            "fence-x-chain3",
            "fence-x-fence-x-chain2",
        ],
    )
    def test_posets_of_any_height(self, p, rank):
        """pi1 of a poset of any height is read off its Hasse diagram: the
        minimal models of S^2..S^6 (heights 2..6) and a 64-point chain are
        simply connected, and the circle times a 3-chain (12 points, height
        3) is free of rank 1.  The torus times a 2-chain (32 points, height
        3) has pi1 Z^2, which is not free, so the simplifier must not
        certify it; a route that lost a relator would call it free of rank
        2."""
        status = tietze_simplify(poset_presentation(p))
        if rank is None:
            assert not status.is_conclusive, status.describe()
        else:
            assert status.certifies_free_rank(rank), status.describe()


class TestOracle:
    """The indexed simplifier reaches the restart-scan oracle's outcome, and
    a conclusive rank equals the abelianized rank."""

    @staticmethod
    def check(pres: Presentation) -> None:
        status, expected = tietze_simplify(pres), oracle_tietze(pres)
        assert (status.kind, status.rank) == (expected.kind, expected.rank)
        if status.is_conclusive:
            assert status.rank == abelianized_rank(pres)

    def test_height2_cores(self):
        cores = [p for n in range(1, 9) for p in enumerate_height2_cores(n)]
        assert len(cores) == 61
        for p in cores:
            self.check(poset_presentation(p))

    def test_catalog_figures_at_every_basepoint(self):
        for fid in figures.all_ids():
            p = figures.poset(fid)
            if p.is_connected and p.height <= 2:
                for q in at_every_basepoint(p):
                    self.check(poset_presentation(q))

    def test_random_connected_posets(self):
        """200 draws of height at most 2, and every taller one drawn among
        them."""
        rng = random.Random(20261018)
        low = tall = 0
        while low < 200:
            p = random_connected_poset(rng)
            self.check(poset_presentation(p))
            if p.height <= 2:
                low += 1
            else:
                tall += 1
        assert tall > 0


class TestAbelianization:
    def test_matches_beta1_on_fixtures(self):
        for fid in figures.core_ids():
            p = figures.poset(fid)
            pres = poset_presentation(p)
            assert abelianized_rank(pres) == poset_homology(p).betti[1], fid

    def test_matches_beta1_on_random_connected_posets(self):
        rng = random.Random(20260808)
        heights = set()
        for _ in range(200):
            p = random_connected_poset(rng)
            pres = poset_presentation(p)
            assert abelianized_rank(pres) == poset_homology(p).betti[1]
            heights.add(p.height)
        assert max(heights) > 2 and min(heights) <= 2


class TestBasepointIndependence:
    def test_status_same_for_all_basepoints(self):
        for fid in ("fig17a", "fig14c", "fig05b", "fig04a", "fig20a"):
            p = figures.poset(fid)
            outcomes = set()
            for q in at_every_basepoint(p):
                status = tietze_simplify(poset_presentation(q))
                outcomes.add((status.kind, status.rank))
            assert len(outcomes) == 1, fid


class TestStatus:
    def test_rank_zero_is_trivial(self):
        assert SimplificationStatus.free_of_rank(0).kind == "trivial"

    def test_certifies(self):
        assert SimplificationStatus.free_of_rank(3).certifies_free_rank(3)
        assert not SimplificationStatus.free_of_rank(3).certifies_free_rank(2)
        assert SimplificationStatus.free_of_rank(0).certifies_free_rank(0)
