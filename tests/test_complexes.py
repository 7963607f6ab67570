import json
import random
from fractions import Fraction
from math import comb, gcd

import pytest

from finspace import complexes, figures
from finspace.complexes import (
    ChainComplex,
    ComplexError,
    IntegerMatrix,
    SimplexBudgetExceeded,
    boundary_ranks,
    f2_rank,
    homology,
    order_complex,
    poset_homology,
    smith_normal_form,
    _betti,
    _cellular_complex,
    _chain_counts,
    _dense_snf,
    _kernel_vector,
    _pi1_certificate,
)
from finspace.enumeration import enumerate_height1_cores, enumerate_height2_cores
from finspace.formats import load_poset
from finspace.posets import Poset, fence, mobius_band, projective_plane, sphere_model
from finspace.presentations import DisconnectedComplex, poset_presentation, presentation
from conftest import disjoint_union, product
from oracle_complex import SimplicialComplex, by_faces, chain_complex
from oracle_posets import enumerate_posets
import oracle_complex
import oracle_tietze
from oracle_tietze import abelianized_rank, matrix_from_rows


def rational_rank(m: IntegerMatrix) -> int:
    """Independent oracle: Gaussian elimination over exact rationals."""
    rows = [[Fraction(row.get(j, 0)) for j in range(m.cols)] for row in m.entries]
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(m.rows):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# expected Betti numbers computed with the rational-rank oracle above,
# frozen: (f_vector, betti) for hand-built complexes
TRIANGLE_BOUNDARY = SimplicialComplex(3, [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]])
FULL_TRIANGLE = SimplicialComplex(
    3, [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
)
def complex_from_triangles(n, triangles):
    edges = sorted({(s[i], s[j]) for s in triangles for i in range(3) for j in range(i + 1, 3)})
    verts = [(v,) for v in range(n)]
    return SimplicialComplex(n, [verts, edges, sorted(triangles)])


def rp2():
    """Six-vertex closed-surface triangulation with 15 edges and 10 triangles;
    every edge lies in exactly two triangles and the Euler characteristic is 1,
    so this is the projective plane."""
    tris = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 4, 5), (2, 3, 5), (1, 3, 5), (1, 3, 4),
    ]
    return complex_from_triangles(6, tris)


class TestSimplicialComplex:
    def test_rejects_missing_face(self):
        with pytest.raises(ComplexError):
            SimplicialComplex(3, [[(0,), (1,)], [(0, 2)]])

    def test_rejects_duplicates(self):
        with pytest.raises(ComplexError):
            SimplicialComplex(2, [[(0,), (1,), (0,)]])

    def test_rejects_unsorted_simplex(self):
        with pytest.raises(ComplexError):
            SimplicialComplex(3, [[(0,), (1,), (2,)], [(2, 1)]])

    def test_f_vector(self):
        assert FULL_TRIANGLE.f_vector == (3, 3, 1)
        assert TRIANGLE_BOUNDARY.f_vector == (3, 3)


class TestChainComplex:
    def test_rejects_boundary_shapes_off_the_f_vector(self):
        d1 = IntegerMatrix(3, 3, ({0: 1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: -1}))
        assert homology(ChainComplex((3, 3), (d1,))).betti == (1, 1)
        for f, boundaries in (((3, 4), (d1,)), ((3, 3), ()), ((3,), (d1,)), ((), (d1,))):
            with pytest.raises(ComplexError):
                ChainComplex(f, boundaries)


class TestOrderComplex:
    def test_fig17a_f_vector(self):
        k = order_complex(figures.poset("fig17a"))
        assert k.f_vector == (8, 14, 4)

    def test_fig14c_f_vector(self):
        k = order_complex(figures.poset("fig14c"))
        assert k.f_vector == (8, 16, 8)

    def test_singleton(self):
        k = order_complex(Poset.antichain(1))
        assert k.f_vector == (1,)

    def test_dimension_equals_height(self):
        rng = random.Random(23)
        from conftest import random_poset

        for _ in range(40):
            p = random_poset(rng)
            assert len(order_complex(p).f_vector) == p.height + 1

    def test_chain_gives_full_simplex(self):
        k = order_complex(Poset.chain(4))
        assert k.f_vector == (4, 6, 4, 1)


def assert_matches_tuple_route(p: Poset, where="") -> None:
    """The mask route against ``tests/oracle_complex.py``: the order complex
    has the f-vector of :func:`_chain_counts`, the oracle's boundary maps
    entry by entry and its profile, and ``presentation(p)`` is the oracle's
    presentation, or both raise on a disconnected poset."""
    k = oracle_complex.order_complex(p)
    masks, tuples = order_complex(p), chain_complex(k)
    assert masks.f_vector == tuples.f_vector == _chain_counts(p), where
    assert by_faces(masks) == by_faces(tuples), where
    assert homology(masks) == homology(tuples), where
    if p.is_connected:
        assert presentation(p) == oracle_complex.presentation(k), where
        return
    for build in (presentation, lambda q: oracle_complex.presentation(k)):
        with pytest.raises(DisconnectedComplex):
            build(p)


class TestAgainstTupleRoute:
    """Equal f-vectors, boundary maps, Betti numbers, torsion, GF(2) ranks
    and presentations to the tuple route."""

    def test_every_poset_up_to_seven_points(self):
        for n in range(1, 8):
            for p in enumerate_posets(n):
                assert_matches_tuple_route(p, p.canonical_code)

    def test_fixtures(self, fixture_paths):
        for path in fixture_paths:
            assert_matches_tuple_route(load_poset(str(path)), path.name)

    def test_sphere_models(self):
        for k in range(8):
            assert_matches_tuple_route(sphere_model(k), k)

    def test_face_posets(self):
        assert_matches_tuple_route(mobius_band())
        assert_matches_tuple_route(projective_plane())
        assert homology(order_complex(projective_plane())).torsion == ((), (2,), ())

    def test_suspensions_of_an_antichain(self):
        for k in range(7):
            assert_matches_tuple_route(Poset.antichain(3).nh_suspension(k), k)


class TestBoundaryMatrices:
    def test_full_triangle_ranks(self):
        d1, d2 = chain_complex(FULL_TRIANGLE).boundaries
        assert (d1.rows, d1.cols) == (3, 3)
        assert (d2.rows, d2.cols) == (3, 1)
        assert smith_normal_form(d1).rank == 2
        assert smith_normal_form(d2).rank == 1

    def test_fig17a_f2_ranks(self):
        prof = poset_homology(figures.poset("fig17a"))
        assert prof.f2_ranks == (7, 4)

    def test_fig14c_f2_ranks(self):
        prof = poset_homology(figures.poset("fig14c"))
        assert prof.f2_ranks == (7, 7)

    def test_boundary_squared_zero_on_fixtures(self):
        from conftest import composes_to_zero

        for fid in figures.all_ids():
            mats = order_complex(figures.poset(fid)).boundaries
            for low, high in zip(mats, mats[1:]):
                assert composes_to_zero(low, high), fid


class TestIntegerMatrix:
    def test_rows_hold_nonzeros_only(self):
        m = matrix_from_rows([[0, 2, 0], [0, 0, 0]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.entries == ({1: 2}, {})

    @pytest.mark.parametrize(
        "rows, cols, entries",
        [
            (2, 3, ({0: 1},)),  # wrong row count
            (1, 3, ({3: 1},)),  # column past the last
            (1, 3, ({-1: 1},)),  # negative column
            (1, 3, ({0: 0},)),  # stored zero
        ],
    )
    def test_rejects_bad_shape(self, rows, cols, entries):
        with pytest.raises(ComplexError):
            IntegerMatrix(rows, cols, entries)

    def test_from_rows_rejects_ragged_rows(self):
        with pytest.raises(ComplexError):
            matrix_from_rows([[1, 0], [1]])


class TestSmithNormalForm:
    def test_identity(self):
        m = matrix_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        snf = smith_normal_form(m)
        assert snf.invariant_factors == (1, 1, 1)
        assert snf.rank == 3

    def test_diagonal_with_zero(self):
        m = matrix_from_rows([[2, 0], [0, 0]])
        snf = smith_normal_form(m)
        assert snf.invariant_factors == (2,)
        assert snf.rank == 1

    def test_divisibility_chain(self):
        m = matrix_from_rows([[2, 0], [0, 3]])
        snf = smith_normal_form(m)
        assert snf.invariant_factors == (1, 6)

    def test_fig14c_d2(self):
        d2 = order_complex(figures.poset("fig14c")).boundaries[1]
        snf = smith_normal_form(d2)
        assert snf.rank == 7
        assert all(v == 1 for v in snf.invariant_factors)

    def test_rank_matches_rational_oracle(self):
        rng = random.Random(29)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = matrix_from_rows(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            )
            assert smith_normal_form(m).rank == rational_rank(m)


def scrambled(rng: random.Random, diagonal, rows: int, cols: int) -> IntegerMatrix:
    """``diagonal`` on a rows x cols zero matrix, hidden by random unimodular
    row and column operations, so its invariant factors are known."""
    a = [[0] * cols for _ in range(rows)]
    for k, v in enumerate(diagonal):
        a[k][k] = v
    for _ in range(rows + cols):
        i, j = rng.sample(range(rows), 2)
        q = rng.choice((-2, -1, 1, 2))
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        i, j = rng.sample(range(cols), 2)
        q = rng.choice((-2, -1, 1, 2))
        for row in a:
            row[i] += q * row[j]
    return matrix_from_rows(a, cols)


def assert_matches_dense(m: IntegerMatrix, where="") -> None:
    assert smith_normal_form(m) == _dense_snf(m), where


class TestSparseAgainstDenseSNF:
    """The sparse unit-pivot pass plus dense leftover must give exactly the
    invariant factors of the dense routine run on the whole matrix."""

    def test_random_matrices_with_non_unit_entries(self):
        rng = random.Random(37)
        values = (0, 0, 0, 1, -1, 2, -2, 3, -3, 4, -6)
        for _ in range(300):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = matrix_from_rows(
                [[rng.choice(values) for _ in range(cols)] for _ in range(rows)], cols
            )
            assert_matches_dense(m, m)

    @pytest.mark.parametrize(
        "diagonal, rows, cols, factors",
        [
            ((2, 4, 6, 0), 4, 4, (2, 2, 12)),
            ((2, 4, 6), 5, 6, (2, 2, 12)),
            ((1, 3, 9, 0), 4, 5, (1, 3, 9)),
            ((2, 2, 1), 3, 3, (1, 2, 2)),
            ((5, 0), 3, 2, (5,)),
        ],
    )
    def test_scrambled_torsion(self, diagonal, rows, cols, factors):
        rng = random.Random(41)
        for _ in range(20):
            m = scrambled(rng, diagonal, rows, cols)
            assert smith_normal_form(m).invariant_factors == factors, m
            assert_matches_dense(m, m)

    def test_boundary_matrices(self):
        complexes = {fid: order_complex(figures.poset(fid)) for fid in figures.all_ids()}
        complexes["rp2"] = chain_complex(rp2())
        complexes["chain7"] = order_complex(Poset.chain(7))
        for name, k in complexes.items():
            for d, b in enumerate(k.boundaries, 1):
                assert_matches_dense(b, f"{name} d{d}")

    def test_relator_matrices(self, monkeypatch):
        fed = []

        def recording(m):
            fed.append(m)
            return smith_normal_form(m)

        monkeypatch.setattr(oracle_tietze, "smith_normal_form", recording)
        for fid in figures.all_ids():
            p = figures.poset(fid)
            if p.is_connected and p.height <= 2:
                abelianized_rank(poset_presentation(p))
        assert len(fed) > 30
        for m in fed:
            assert_matches_dense(m, m)


class TestF2Rank:
    def test_matches_rationals_without_two_torsion(self):
        for fid in ("fig17a", "fig14c", "fig05a", "fig21b"):
            mats = order_complex(figures.poset(fid)).boundaries
            for m in mats:
                assert f2_rank(m) == rational_rank(m)

    def test_parity_matrix(self):
        m = matrix_from_rows([[2, 1], [0, 1]])
        assert f2_rank(m) == 1  # first row is (0,1) mod 2, equal to second
        assert rational_rank(m) == 2


class TestHomology:
    def test_fig17a(self):
        prof = poset_homology(figures.poset("fig17a"))
        assert prof.betti == (1, 3, 0)
        assert prof.euler == -2
        assert not prof.has_torsion

    def test_fig14c(self):
        prof = poset_homology(figures.poset("fig14c"))
        assert prof.betti == (1, 2, 1)
        assert prof.euler == 0
        assert not prof.has_torsion

    def test_double_suspension(self):
        from finspace.posets import two_point_discrete

        prof = poset_homology(two_point_discrete().nh_suspension(2))
        assert prof.betti == (1, 0, 1)

    def test_rp2_torsion(self):
        prof = homology(chain_complex(rp2()))
        assert prof.betti == (1, 0, 0)
        assert prof.torsion == ((), (2,), ())
        assert prof.euler == 1
        # with 2-torsion the GF(2) rank must drop below the rational rank
        d2 = chain_complex(rp2()).boundaries[1]
        assert f2_rank(d2) == rational_rank(d2) - 1

    def test_rp2_face_poset(self):
        """The face poset's order complex is the barycentric subdivision of
        rp2(); it has no beat points and keeps the 2-torsion."""
        p = projective_plane()
        assert p.n == 31 and p.is_core
        prof = poset_homology(p)
        assert prof.f_vector == (31, 90, 60)
        assert prof.betti == homology(chain_complex(rp2())).betti == (1, 0, 0)
        assert prof.torsion == ((), (2,), ())
        # GF(2) Betti numbers (1, 1, 1)
        assert prof.f2_ranks == (30, 59)

    def test_tall_chain_is_contractible(self):
        prof = poset_homology(Poset.chain(12))
        assert prof.betti == (1,) + (0,) * 11
        assert not prof.has_torsion

    def test_circle(self):
        prof = homology(chain_complex(TRIANGLE_BOUNDARY))
        assert prof.betti == (1, 1)
        assert prof.euler == 0

    def test_betti_against_rational_oracle(self):
        rng = random.Random(31)
        from conftest import random_poset

        for _ in range(40):
            p = random_poset(rng, n_max=6)
            k = order_complex(p)
            prof = homology(k)
            ranks = [0] + [rational_rank(m) for m in k.boundaries] + [0]
            expected = tuple(c - ranks[d] - ranks[d + 1] for d, c in enumerate(k.f_vector))
            assert prof.betti == expected


def glued_rp2() -> Poset:
    """The face poset of ``rp2()`` with one point glued below a vertex and a
    2-chain hung above a triangle: 34 points of height 5, whose beat points
    retract it onto the 31-point face poset."""
    faces = [s for group in rp2().simplices for s in group]
    index = {s: i for i, s in enumerate(faces)}
    covers = [
        (index[s[:k] + s[k + 1 :]], index[s]) for s in faces if len(s) > 1 for k in range(len(s))
    ]
    n = len(faces)
    covers += [(n, index[(0,)]), (index[(0, 1, 2)], n + 1), (n + 1, n + 2)]
    return Poset.from_covers(n + 3, covers)


class TestCoreFirstHomology:
    """``poset_homology`` builds only the core's order complex; homology of
    the poset's own order complex is the oracle, compared field by field."""

    @staticmethod
    def assert_matches_full(p: Poset, where="") -> None:
        assert poset_homology(p) == homology(order_complex(p)), where

    def test_every_small_poset(self):
        for n in range(1, 7):
            for p in enumerate_posets(n):
                self.assert_matches_full(p, p.canonical_code)

    def test_fixtures(self, fixture_paths):
        for path in fixture_paths:
            self.assert_matches_full(load_poset(str(path)), path.name)

    def test_chain(self):
        self.assert_matches_full(Poset.chain(10))

    def test_random_posets_with_beat_points(self):
        from conftest import random_poset

        rng = random.Random(43)
        checked = 0
        while checked < 200:
            p = random_poset(rng, n_max=14, n_min=8)
            if p.beat_points():
                self.assert_matches_full(p, p.canonical_code)
                checked += 1

    def test_two_torsion_with_beat_points(self):
        p = glued_rp2()
        assert p.core().n == 31
        prof = poset_homology(p)
        assert prof.betti == (1, 0, 0, 0, 0, 0)
        assert prof.torsion == ((), (2,), (), (), (), ())
        self.assert_matches_full(p)

    def test_chain_64(self):
        prof = poset_homology(Poset.chain(64))
        assert prof.betti == (1,) + (0,) * 63
        assert prof.f_vector == tuple(comb(64, k + 1) for k in range(64))
        assert prof.euler == 1


class TestEuler:
    def test_fixture_values(self):
        assert homology(order_complex(figures.poset("fig17a"))).euler == -2
        assert homology(order_complex(figures.poset("fig14c"))).euler == 0

    def test_singleton(self):
        assert homology(order_complex(Poset.antichain(1))).euler == 1

    def test_euler_equals_alternating_betti(self):
        for fid in figures.all_ids():
            prof = poset_homology(figures.poset(fid))
            assert prof.euler == sum((-1) ** d * b for d, b in enumerate(prof.betti))


class TestBoundaryRanks:
    def test_inverts_betti_numbers(self):
        """From the f-vector and Betti numbers, the integer ranks of every
        boundary map of every fixture, and from the GF(2) Betti numbers its
        GF(2) ranks."""
        for fid in figures.all_ids():
            k = order_complex(figures.poset(fid))
            prof = homology(k)
            assert boundary_ranks(k.f_vector, prof.betti) == tuple(
                rational_rank(m) for m in k.boundaries
            ), fid
            r = (0,) + prof.f2_ranks + (0,)
            f2_betti = [c - r[d] - r[d + 1] for d, c in enumerate(k.f_vector)]
            assert boundary_ranks(k.f_vector, f2_betti) == prof.f2_ranks, fid

    def test_missing_degrees_count_as_zero(self):
        assert boundary_ranks((4, 4), (1,)) == (3,)
        assert boundary_ranks((1,), (1, 5)) == ()
        assert boundary_ranks((), ()) == ()


class TestDualComplex:
    def test_dual_has_identical_profile(self):
        for fid in figures.all_ids():
            p = figures.poset(fid)
            assert order_complex(p).f_vector == order_complex(p.dual()).f_vector
            assert poset_homology(p).betti == poset_homology(p.dual()).betti


class TestJsonSchema:
    def test_key_order_and_content(self):
        prof = poset_homology(figures.poset("fig17a"))
        text = prof.to_json()
        assert list(json.loads(text)) == ["f_vector", "betti", "torsion", "euler", "f2_ranks"]
        assert json.loads(text)["betti"] == [1, 3, 0]
        assert json.loads(text)["euler"] == -2

    def test_stable_output(self):
        prof = poset_homology(figures.poset("fig14c"))
        assert prof.to_json() == prof.to_json()


def rp2_with_second_triangle() -> Poset:
    """``projective_plane()`` with one more point t above the boundary of the
    triangle t012: H_2 = Z, from the cycle t - t012, while H_1 keeps its
    Z/2."""
    p = projective_plane()
    t012 = p.labels.index("t012")
    up = [row | 1 << i for i, row in enumerate(p._strict_up)]
    for i in range(p.n):
        if p._strict_up[i] >> t012 & 1:
            up[i] |= 1 << p.n
    up.append(1 << p.n)
    return Poset(up, [*p.labels, "t"])


class TestCellularRoute:
    """A cellular poset's homology from one cell per point equals its order
    complex's: Betti numbers, torsion and GF(2) Betti numbers."""

    @staticmethod
    def agrees(p: Poset, where="") -> bool:
        """Whether ``p`` is cellular; if it is, its cellular complex is
        checked against its order complex."""
        cellular = _cellular_complex(p)
        if cellular is None:
            return False
        cell, full = homology(cellular), homology(order_complex(p))
        assert (cell.betti, cell.torsion) == (full.betti, full.torsion), where
        assert _betti(cell.f_vector, cell.f2_ranks) == _betti(full.f_vector, full.f2_ranks), where
        return True

    def test_every_poset_up_to_seven_points(self):
        cellular = 0
        for n in range(1, 8):
            for p in enumerate_posets(n):
                self.agrees(p, p.canonical_code)
                cellular += self.agrees(p.core(), p.canonical_code)
        assert cellular == 2295

    def test_fixtures(self, fixture_paths):
        cellular = 0
        for path in fixture_paths:
            p = load_poset(str(path))
            self.agrees(p, path.name)
            cellular += self.agrees(p.core(), path.name)
        assert cellular > 0

    def test_sphere_models(self):
        for k in range(8):
            assert self.agrees(sphere_model(k), k)
            assert _cellular_complex(sphere_model(k)).f_vector == (2,) * (k + 1)

    def test_face_posets(self):
        # a face poset of a regular CW complex is cellular; the core of the
        # Möbius band's is not
        assert self.agrees(mobius_band())
        assert not self.agrees(mobius_band().core())
        assert self.agrees(projective_plane())
        assert homology(_cellular_complex(projective_plane())).torsion == ((), (2,), ())

    def test_products_of_height_three(self):
        """A product of cellular posets is cellular, so each cellular core in
        the figure catalog times the circle is a cellular core of height 3,
        and its height-3 points go through the Smith normal form check."""
        tall = 0
        for fid in figures.all_ids():
            core = figures.poset(fid).core()
            if _cellular_complex(core) is not None:
                q = product(core, fence())
                assert self.agrees(q, fid)
                tall += q.height == 3
        assert tall >= 10

    @pytest.mark.parametrize(
        "bottom, betti, torsion, certified",
        [
            # S^2 ⊔ S^1: H_2 = Z and the Euler characteristic of S^2, but
            # two components and an H_1
            (disjoint_union(sphere_model(2), fence()), (1, 1, 1, 1), ((),) * 4, False),
            # H_2 = Z and the Euler characteristic of S^2, but H_1 = Z/2
            (rp2_with_second_triangle(), (1, 0, 0, 1), ((), (), (2,), ()), False),
            # two circles: as many edges as vertices, but not connected; the
            # suspension is a connected core of height 2, so its π1
            # certificate answers instead of the order complex
            (disjoint_union(fence(), fence()), (1, 1, 2), ((),) * 3, True),
        ],
        ids=["extra-component", "torsion", "two-circles"],
    )
    def test_wrong_lower_homology_takes_order_complex(
        self, bottom, betti, torsion, certified, monkeypatch
    ):
        """Two points above ``bottom``, so Û_x of each is ``bottom``: not
        cellular, so the order complex answers unless the core is certified
        by its π1."""
        p = bottom.nh_suspension()
        assert p.is_core
        built = []

        def spy(q):
            built.append(q)
            return order_complex(q)

        monkeypatch.setattr(complexes, "order_complex", spy)
        assert _cellular_complex(p) is None
        prof = poset_homology(p)
        assert built == ([] if certified else [p])
        assert prof == homology(order_complex(p))
        assert (prof.betti, prof.torsion) == (betti, torsion)

    def test_sphere_model_30_builds_no_order_complex(self, monkeypatch):
        def refuse(p):
            raise AssertionError("order complex built")

        monkeypatch.setattr(complexes, "order_complex", refuse)
        assert poset_homology(sphere_model(30)).betti == (1,) + (0,) * 29 + (1,)


def rp2_with_loose_point() -> Poset:
    """``projective_plane()`` with one more point x above three of its
    vertices: a connected core of height 2 that is not cellular, because Û_x
    is three points.  Its π1 is Z/2 * F_2, so H_1 = Z^2 + Z/2, and Tietze
    simplification stops at the relator g^2."""
    p = projective_plane()
    up = [row | 1 << i for i, row in enumerate(p._strict_up)]
    for v in (p.labels.index(name) for name in ("v0", "v1", "v2")):
        up[v] |= 1 << p.n
    up.append(1 << p.n)
    return Poset(up, [*p.labels, "x"])


def chain_above(p: Poset, label: str, k: int) -> Poset:
    """``p`` with a chain of k new points stacked on the point ``label``:
    each new point lies above that point, everything below it and the new
    points before it.  The chain's points go one by one as beat points, so
    the core of the result is the core of p, and the result is k taller
    when ``label`` is maximal."""
    n, x = p.n, p.labels.index(label)
    chain = (1 << n + k) - (1 << n)
    up = [
        row | 1 << i | (chain if i == x or row >> x & 1 else 0)
        for i, row in enumerate(p._strict_up)
    ]
    up += [(1 << n + k) - (1 << n + i) for i in range(k)]
    return Poset(up, [*p.labels, *(f"z{i}" for i in range(k))])


class TestCertificateRoute:
    """A connected core of height at most 2 gets its homology from its π1
    certificate, when that is conclusive, before the cellular route and
    without an order complex; only an inconclusive one falls back to them."""

    @staticmethod
    def generated_cores() -> list[Poset]:
        cores = [
            p for n in range(1, 9) for p in enumerate_height1_cores(n) + enumerate_height2_cores(n)
        ]
        assert len(cores) == 96 + 61 and all(p.is_connected for p in cores)
        return cores

    def test_builds_no_order_complex(self, monkeypatch):
        def refuse(q):
            raise AssertionError("order complex built")

        cores = self.generated_cores()
        monkeypatch.setattr(complexes, "order_complex", refuse)
        # the Möbius band's 15-point core is neither a face poset nor cellular
        assert _cellular_complex(mobius_band().core()) is None
        assert poset_homology(mobius_band()).betti == (1, 1, 0)
        for p in cores:
            poset_homology(p)

    def test_matches_order_complex(self):
        # the catalog figures are checked by TestCoreFirstHomology.test_fixtures
        for p in self.generated_cores():
            assert poset_homology(p) == homology(order_complex(p)), p.canonical_code

    def test_inconclusive_falls_back_to_order_complex(self, monkeypatch):
        p = rp2_with_loose_point()
        assert p.is_core and p.is_connected and p.height == 2
        assert _cellular_complex(p) is None
        assert _pi1_certificate(p).kind == "inconclusive"
        built = []

        def spy(q):
            built.append(q)
            return order_complex(q)

        monkeypatch.setattr(complexes, "order_complex", spy)
        prof = poset_homology(p)
        assert built == [p]
        assert (prof.betti, prof.torsion) == ((1, 2, 0), ((), (2,), ()))
        assert prof == homology(order_complex(p))

    def test_classification_simplifies_an_inconclusive_core_once(self, monkeypatch):
        from finspace.classify import classify_poset

        p = rp2_with_loose_point()
        expected = classify_poset(p)
        calls = []
        simplify = complexes.tietze_simplify

        def counted(presentation):
            calls.append(presentation)
            return simplify(presentation)

        monkeypatch.setattr(complexes, "tietze_simplify", counted)
        assert classify_poset(rp2_with_loose_point()) == expected
        assert len(calls) == 1
        assert expected.profile == homology(order_complex(p))
        assert expected.wedge is None  # torsion in H_1

    @pytest.mark.parametrize(
        "p, height, core_n, f_vector, betti",
        [
            (
                chain_above(sphere_model(2), "s3", 3), 5, 6,
                (9, 30, 48, 41, 20, 4), (1, 0, 1, 0, 0, 0),
            ),
            (chain_above(fence(), "a1", 3), 4, 4, (7, 16, 16, 9, 2), (1, 1, 0, 0, 0)),
        ],
        ids=["sphere", "fence"],
    )
    def test_taller_than_its_certified_core(self, p, height, core_n, f_vector, betti, monkeypatch):
        """The certificate fixes b_2 of the core; p's own chain counts, not
        the core's, then give p's boundary ranks up to p's height."""
        assert p.height == height and p.core().n == core_n
        assert _pi1_certificate(p.core()).is_conclusive
        expected = homology(order_complex(p))

        def refuse(m):
            raise AssertionError("Smith normal form ran")

        monkeypatch.setattr(complexes, "smith_normal_form", refuse)
        prof = poset_homology(p)
        assert prof == expected
        assert (prof.f_vector, prof.betti) == (f_vector, betti)

    @pytest.mark.parametrize(
        "p", [sphere_model(2), figures.poset("fig06")], ids=["sphere", "fig06"]
    )
    def test_certificate_comes_before_the_cellular_route(self, p, monkeypatch):
        """Both are cellular cores with a conclusive certificate (fig05b,
        also certified, is not cellular)."""
        assert p.is_core and _cellular_complex(p) is not None
        assert _pi1_certificate(p).is_conclusive
        expected = homology(order_complex(p))

        def refuse(q):
            raise AssertionError("cellular complex built")

        monkeypatch.setattr(complexes, "_cellular_complex", refuse)
        assert poset_homology(p) == expected

    def test_inconclusive_certificate_takes_the_cellular_route(self, monkeypatch):
        p = projective_plane()
        assert _pi1_certificate(p).kind == "inconclusive"

        def refuse(q):
            raise AssertionError("order complex built")

        monkeypatch.setattr(complexes, "order_complex", refuse)
        assert poset_homology(p).torsion == ((), (2,), ())

    def test_classification_reads_the_same_profile(self):
        from finspace.classify import classify_poset

        posets = [mobius_band().core()] + [figures.poset(fid) for fid in figures.all_ids()]
        assert len(posets) == 59
        for p in posets:
            assert classify_poset(p).profile == poset_homology(p), p.canonical_code


def rational_nullspace(m: IntegerMatrix) -> list[list[Fraction]]:
    """Independent oracle: a basis of the kernel over the rationals, one
    vector per free column of the reduced row echelon form."""
    rows = [[Fraction(row.get(j, 0)) for j in range(m.cols)] for row in m.entries]
    pivots = []
    for col in range(m.cols):
        r = len(pivots)
        pivot = next((i for i in range(r, m.rows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][col]:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


class TestKernelVector:
    @staticmethod
    def assert_matches_oracle(m: IntegerMatrix) -> list[int]:
        (basis,) = rational_nullspace(m)
        v = _kernel_vector(m)
        assert gcd(*v) == 1 and next(x for x in v if x) > 0
        # proportional to the rational basis vector
        j = next(j for j, x in enumerate(basis) if x)
        assert all(basis[j] * x == v[j] * b for x, b in zip(v, basis))
        return v

    def test_random_matrices_of_corank_one(self):
        """Rows orthogonal to a chosen integer vector u, so the kernel is
        spanned by u divided by the gcd of its entries, up to sign."""
        rng = random.Random(53)
        for _ in range(200):
            cols = rng.randint(1, 7)
            u = [rng.randint(-4, 4) for _ in range(cols)]
            if not any(u):
                continue
            uu = sum(x * x for x in u)
            entries = []
            for _ in range(rng.randint(cols - 1, cols + 2)):
                w = [rng.randint(-3, 3) for _ in range(cols)]
                wu = sum(a * b for a, b in zip(w, u))
                row = [uu * a - wu * b for a, b in zip(w, u)]
                entries.append({j: x for j, x in enumerate(row) if x})
            m = IntegerMatrix(len(entries), cols, tuple(entries))
            if rational_rank(m) != cols - 1:
                continue
            v = self.assert_matches_oracle(m)
            g = gcd(*u)
            assert v in ([x // g for x in u], [-x // g for x in u])

    def test_cellular_boundary_maps(self):
        """The top boundary map of a sphere model's cells below its top point
        has kernel rank 1; its generator is a cycle of the model."""
        for k in range(1, 6):
            maps = _cellular_complex(sphere_model(k)).boundaries
            self.assert_matches_oracle(maps[-1])

    def test_rejects_other_kernel_ranks(self):
        with pytest.raises(ValueError, match="rank 2"):
            _kernel_vector(IntegerMatrix(1, 3, ({0: 1},)))
        with pytest.raises(ValueError, match="rank 0"):
            _kernel_vector(IntegerMatrix(1, 1, ({0: 2},)))


class TestSimplexBudget:
    def test_refused_before_any_simplex(self, monkeypatch):
        p = Poset.antichain(3).nh_suspension(8)  # not cellular, 26,243 chains
        assert p.is_core and _cellular_complex(p) is None

        def refuse(q):
            raise AssertionError("order complex built")

        monkeypatch.setattr(complexes, "order_complex", refuse)
        with pytest.raises(SimplexBudgetExceeded, match="26243 simplices"):
            poset_homology(p)

    @staticmethod
    def tall_core() -> Poset:
        """``Poset.antichain(3).nh_suspension(3)``: 9 points and 107 chains,
        a core of height 3 that is not cellular, so its homology has only the
        order complex to come from.  No non-cellular core of height >= 3 has
        fewer points: a core of height 3 has at least 8, and the only 8-point
        one is the cellular model of S^3."""
        q = Poset.antichain(3).nh_suspension(3)
        assert q.n == 9 and q.height == 3 and q.is_core and _cellular_complex(q) is None
        return q

    def test_limit_is_inclusive(self, monkeypatch):
        p = self.tall_core()  # 107 chains
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 107)
        assert poset_homology(p).betti == (1, 0, 0, 2)
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 106)
        with pytest.raises(SimplexBudgetExceeded, match="107 simplices"):
            poset_homology(p)

    def test_budget_counts_the_core(self, monkeypatch):
        """A beat point below a minimal point of a core with 107 chains adds
        54 chains to p, not to the core, so a budget of 107 still answers
        and one of 106 does not."""
        q = self.tall_core()
        a = next(x for x in range(q.n) if not q._strict_down[x])
        p = Poset([m | 1 << x for x, m in enumerate(q._strict_up)] + [1 << q.n | 1 << a | q._strict_up[a]])
        assert sum(poset_homology(p).f_vector) == 161 and p.core().n == q.n
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 107)
        assert poset_homology(p).betti == (1, 0, 0, 2, 0)
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 106)
        with pytest.raises(SimplexBudgetExceeded, match="107 simplices"):
            poset_homology(p)

    def test_cellular_cores_have_no_budget(self):
        assert sum(poset_homology(sphere_model(20)).f_vector) > complexes.SIMPLEX_BUDGET
