import hashlib
import itertools
from collections import Counter

import pytest

from finspace import enumeration, figures, posets
from finspace.complexes import poset_homology
from finspace.enumeration import (
    LevelShape,
    SizeTooLarge,
    _all_tied,
    _column_swaps,
    _cores_for_shape,
    _orderly_rows,
    check_cap,
    enumerate_height1_cores,
    enumerate_height2_cores,
    level_shapes,
)
from finspace.posets import Poset, _bits, fence, sphere_model
from oracle_burnside import core_counts
from oracle_posets import _beat_points, all_posets, connected_cores, enumerate_posets


def brute_force_posets(n: int) -> set[bytes]:
    """Oracle: every labelled poset on n points by filtering all strict
    relations, deduplicated by canonical code.  Only feasible for n <= 4."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    codes = set()
    for sub in itertools.product((False, True), repeat=len(pairs)):
        rel = [1 << i for i in range(n)]
        for choose, (i, j) in zip(sub, pairs):
            if choose:
                rel[i] |= 1 << j
        ok = True
        for i in range(n):
            for j in range(n):
                if i != j and rel[i] >> j & 1:
                    if rel[j] >> i & 1 or rel[j] & ~rel[i]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            codes.add(Poset(rel).canonical_code)
    return codes


class TestCheckCap:
    @pytest.mark.parametrize("n", [5, 11])
    @pytest.mark.parametrize("height", [0, 3])
    def test_height_other_than_one_or_two(self, n, height):
        """No generator serves heights other than 1 and 2, below the caps
        or above them."""
        with pytest.raises(ValueError, match="^height must be 1 or 2$") as caught:
            check_cap(n, height)
        assert not isinstance(caught.value, SizeTooLarge)


class TestEnumeratePosets:
    def test_counts(self):
        assert [len(enumerate_posets(n)) for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]

    def test_size_cap(self):
        with pytest.raises(SizeTooLarge):
            enumerate_posets(8)
        with pytest.raises(SizeTooLarge):
            enumerate_posets(0)

    def test_matches_brute_force_oracle(self):
        for n in range(1, 5):
            generated = {p.canonical_code for p in enumerate_posets(n)}
            assert generated == brute_force_posets(n)

    def test_pairwise_non_isomorphic(self):
        for n in (3, 4, 5):
            codes = [p.canonical_code for p in enumerate_posets(n)]
            assert len(codes) == len(set(codes))


@pytest.fixture(scope="module")
def posets7():
    return enumerate_posets(7)


class TestOracleAtSeven:
    def test_count(self, posets7):
        assert len(posets7) == 2045  # OEIS A000112

    @pytest.mark.parametrize(
        "height, generator, count",
        [(2, enumerate_height2_cores, 7), (1, enumerate_height1_cores, 18)],
    )
    def test_cores_match_oracle(self, posets7, height, generator, count):
        oracle = {
            p.canonical_code
            for p in posets7
            if p.height == height and p.is_connected and not p.beat_points()
        }
        fast = [p.canonical_code for p in generator(7)]
        assert len(fast) == count
        assert set(fast) == oracle

    def test_connected_iff_one_component_of_homology(self, posets7):
        for p in posets7:
            assert p.is_connected == (poset_homology(p).betti[0] == 1)

    def test_core_iff_no_set_based_beat_point(self, posets7):
        def has_extreme(hat: frozenset[int], below) -> bool:
            # some m in hat with every other element of hat below m
            return any(all(below(y, m) for y in hat - {m}) for m in hat)

        for p in posets7:
            below, above = p._strict_down, p._strict_up
            beat = any(
                has_extreme(frozenset(_bits(below[x])), lambda y, m: above[y] >> m & 1)
                or has_extreme(frozenset(_bits(above[x])), lambda y, m: below[y] >> m & 1)
                for x in range(p.n)
            )
            assert p.is_core == (not beat)


@pytest.fixture(scope="module")
def classes8():
    return all_posets(8)


class TestAllHeightsAtEight:
    """Every poset on 8 points, at every height, from the mask-level oracle.
    Its cores of height 1 and 2 are the generators' and the one of height 3
    is the minimal model of S^3, so the published counts of minimal models
    on 7 and 8 points hold over all finite spaces, not only heights 1 and
    2."""

    def test_same_classes_as_the_poset_oracle(self, posets7):
        for n in range(1, 7):
            assert set(all_posets(n)) == {p.canonical_code for p in enumerate_posets(n)}
        assert set(all_posets(7)) == {p.canonical_code for p in posets7}

    def test_count(self, classes8):
        assert len(classes8) == 16999  # OEIS A000112

    def test_cores_by_height(self, classes8):
        cores = connected_cores(classes8)
        assert {height: len(found) for height, found in cores.items()} == {1: 69, 2: 53, 3: 1}
        assert set(cores[1]) == {p.canonical_code for p in enumerate_height1_cores(8)}
        assert set(cores[2]) == {p.canonical_code for p in enumerate_height2_cores(8)}
        assert set(cores[3]) == {sphere_model(3).canonical_code}


def _tied_column_perms(width: int, ties: int) -> list[list[int]]:
    """Bit-permutation tables for every permutation of ``width`` columns
    that moves columns only within their run of tied columns."""
    blocks: list[list[int]] = []
    for k in range(width):
        if k and ties >> k & 1:
            blocks[-1].append(k)
        else:
            blocks.append([k])
    tables = []
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        sigma = [j for image in images for j in image]
        tables.append(
            [sum(1 << sigma[k] for k in range(width) if m >> k & 1) for m in range(1 << width)]
        )
    return tables


class TestOrderlyRows:
    def test_keeps_greatest_member_of_every_orbit(self):
        for width in range(1, 5):
            choices = list(range((1 << width) - 1, -1, -1))
            for ties in range(0, 1 << width, 2):
                tables = _tied_column_perms(width, ties)
                for nrows in range(1, 5):
                    emitted = [rows for rows, _ in _orderly_rows(choices, nrows, ties)]
                    assert emitted == sorted(emitted, reverse=True)
                    assert all(list(rows) == sorted(rows, reverse=True) for rows in emitted)
                    kept = set(emitted)
                    for rows in itertools.combinations_with_replacement(choices, nrows):
                        greatest = max(
                            tuple(sorted((t[r] for r in rows), reverse=True)) for t in tables
                        )
                        assert greatest in kept, (width, ties, rows)

    def test_reports_remaining_ties(self):
        for rows, ties in _orderly_rows([0b11, 0b10, 0b01], 2, 0b10):
            expected = 0b10 if all(r in (0, 0b11) for r in rows) else 0
            assert ties == expected, rows


class TestColumnSwaps:
    def test_rejects_only_non_greatest_members(self):
        """Over every non-increasing tuple of up to 4 rows of width up to 4:
        the greatest member of each column-permutation orbit passes, a
        rejected tuple has a greater member, and each returned swap gives
        the rows back under its row reordering."""
        for width in range(1, 5):
            choices = list(range((1 << width) - 1, -1, -1))
            tables = _tied_column_perms(width, _all_tied(width))
            for nrows in range(1, 5):
                for rows in itertools.combinations_with_replacement(choices, nrows):
                    greatest = max(
                        tuple(sorted((t[r] for r in rows), reverse=True)) for t in tables
                    )
                    swaps = _column_swaps(rows, width)
                    if rows == greatest:
                        assert swaps is not None, (width, rows)
                    if swaps is None:
                        assert greatest > rows, (width, rows)
                        continue
                    for table, new in swaps:
                        assert sorted(new) == list(range(nrows))
                        assert all(rows[new[i]] == table[row] for i, row in enumerate(rows))

    def test_skipping_changes_no_shape_output(self, monkeypatch):
        """With the swap check patched out, every shape up to nine points,
        at both heights, keeps the same labelled posets in the same order."""
        shapes = [s for n in range(6, 10) for s in level_shapes(n)]
        shapes += [LevelShape(0, n - m0, m0) for n in range(4, 10) for m0 in range(2, n // 2 + 1)]

        def kept():
            return [[(p.labels, p.covers) for p in _cores_for_shape(s)] for s in shapes]

        with_check = kept()
        monkeypatch.setattr(enumeration, "_column_swaps", lambda rows, width: [])
        assert kept() == with_check


class TestRowRules:
    def test_no_candidate_has_a_beat_point(self):
        """The row rules alone keep beat points out: no element of any
        candidate of any shape, at height 2 on 6-10 points or at height 1
        on 4-11 points, is a beat point."""
        shapes = [s for n in range(6, 11) for s in level_shapes(n)]
        shapes += [LevelShape(0, n - m0, m0) for n in range(4, 12) for m0 in range(2, n // 2 + 1)]
        for shape in shapes:
            for down, up in enumeration._shape_candidates(shape):
                assert _beat_points(down, up) == 0, (shape, down)


def _representatives_digest(cores) -> str:
    pairs = sorted((p.labels, p.covers) for p in cores)
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


def test_kept_representatives_are_stable():
    """The labelled posets kept for each class at n=8 and n=9, independent
    of the canonical code's byte format."""
    assert _representatives_digest(enumerate_height2_cores(8)) == (
        "df2bedf70d38270b2322143403a58b0bee780fa00efe91566c57bf4fc46daab9"
    )
    assert _representatives_digest(enumerate_height1_cores(8)) == (
        "5d40eea2821e809b8c80b46cc490e5eedbdbdbb212e16e2320bc14f1ce360bd1"
    )
    assert _representatives_digest(enumerate_height2_cores(9)) == (
        "c5447d777ebd1408988ab375bcc4be5f42993de8f735d3e8a54bc5a673da053f"
    )
    assert _representatives_digest(enumerate_height1_cores(9)) == (
        "de5d9db15836beb12a0263a7a81230f8f21ab1f0578797b8ceb8e1b759b94143"
    )


class TestLevelShapes:
    def test_all_classes_at_least_two(self):
        for n in range(6, 11):
            for shape in level_shapes(n):
                assert min(shape) >= 2
                assert sum(shape) == n

    def test_none_below_six(self):
        assert level_shapes(5) == []

    def test_shape_fields(self):
        shape = LevelShape(2, 2, 2)
        assert (shape.m2, shape.m1, shape.m0) == (2, 2, 2)

    def test_cores_of_one_shape_share_labels(self):
        for shape in (LevelShape(0, 4, 4), LevelShape(2, 2, 3)):
            cores = _cores_for_shape(shape)
            assert len(cores) > 1
            assert all(p.labels is cores[0].labels for p in cores)


def _checked(p: Poset) -> Poset:
    """``p`` rebuilt from its up-set masks through the checking constructor."""
    return Poset([mask | 1 << i for i, mask in enumerate(p._strict_up)], p.labels)


class TestUncheckedBuilder:
    def test_generated_posets_pass_the_checks(self):
        """The generator and ``dual`` build their posets unchecked; every
        core, wide readings included, and the dual of each, passes the
        constructor's checks with the same strict masks."""
        cores = [p for n in range(1, 10) for p in enumerate_height2_cores(n)]
        cores += [p for n in range(1, 11) for p in enumerate_height1_cores(n)]
        assert len(cores) == 512 + 2289
        for p in cores + [p.dual() for p in cores]:
            checked = _checked(p)
            assert checked._strict_down == p._strict_down, p.canonical_code
            assert checked._strict_up == p._strict_up, p.canonical_code


class TestSeededInvariants:
    """The generator sets the element heights, the height, connectivity and,
    at height one, homogeneity of each core it builds; each must be what the
    poset would compute for itself."""

    SEEDED = {"element_heights", "height", "is_connected", "is_homogeneous"}

    def check(self, cores) -> None:
        for p in cores:
            seeded = self.SEEDED & set(vars(p))
            assert seeded == self.SEEDED - ({"is_homogeneous"} if p.height == 2 else set()), p.canonical_code
            fresh = Poset._from_strict(p._strict_down, p._strict_up, p.labels)
            for name in self.SEEDED:
                assert getattr(p, name) == getattr(fresh, name), (name, p.canonical_code)

    def test_height2(self):
        cores = [p for n in range(6, 10) for p in enumerate_height2_cores(n)]
        assert len(cores) == 1 + 7 + 53 + 451
        self.check(cores)

    def test_height1_wide_readings_included(self):
        cores = [p for n in range(4, 11) for p in enumerate_height1_cores(n)]
        assert len(cores) == 2289
        self.check(cores)

    def test_cores_are_their_own_cores(self):
        """The generator seeds ``_core``; a fresh copy finds no beat point."""
        cores = [p for n in range(6, 10) for p in enumerate_height2_cores(n)]
        cores += [p for n in range(4, 11) for p in enumerate_height1_cores(n)]
        for p in cores:
            assert vars(p)["_core"] is None and p.core() is p, p.canonical_code
            fresh = Poset._from_strict(p._strict_down, p._strict_up, p.labels)
            assert fresh.core() is fresh, p.canonical_code

    def test_heights_are_shared_per_shape(self):
        for shape in (LevelShape(0, 4, 4), LevelShape(2, 2, 3)):
            cores = _cores_for_shape(shape)
            assert all(p.element_heights is cores[0].element_heights for p in cores)


class TestHeight2Cores:
    def test_empty_below_six(self):
        for n in range(1, 6):
            assert enumerate_height2_cores(n) == []

    def test_six_gives_sphere_model(self):
        cores = enumerate_height2_cores(6)
        assert len(cores) == 1
        from finspace.posets import sphere_model

        assert cores[0].is_isomorphic(sphere_model(2))

    def test_seven_contains_the_five_models(self):
        codes = {p.canonical_code for p in enumerate_height2_cores(7)}
        for fid in ("fig04a", "fig04astar", "fig05a", "fig05astar", "fig05b"):
            assert figures.poset(fid).canonical_code in codes, fid

    def test_outputs_are_connected_cores_of_height_two(self):
        for n in (6, 7, 8):
            for p in enumerate_height2_cores(n):
                assert p.height == 2
                assert p.is_connected
                assert not p.beat_points()

    def test_oracle_equivalence_small_n(self):
        for n in range(1, 7):
            oracle = {
                p.canonical_code
                for p in enumerate_posets(n)
                if p.height == 2 and p.is_connected and not p.beat_points()
            }
            fast = {p.canonical_code for p in enumerate_height2_cores(n)}
            assert fast == oracle, n

    def test_deterministic(self):
        """Both heights give the same list twice, with strictly increasing
        codes, so no class comes out twice."""
        for generate, n in ((enumerate_height2_cores, 7), (enumerate_height1_cores, 9)):
            first = [p.canonical_code for p in generate(n)]
            second = [p.canonical_code for p in generate(n)]
            assert first == second
            assert all(a < b for a, b in zip(first, first[1:]))

    def test_closed_under_duality(self):
        for n in (6, 7, 8):
            codes = {p.canonical_code for p in enumerate_height2_cores(n)}
            for p in enumerate_height2_cores(n):
                assert p.dual().canonical_code in codes

    def test_progress_does_not_depend_on_workers(self):
        """Enumeration is serial: one call per level shape, in shape order,
        whose counts add up to the classes returned."""
        seen = []
        cores = enumerate_height2_cores(
            7, progress=lambda shape, found: seen.append((shape, found))
        )
        assert [shape for shape, _ in seen] == level_shapes(7)
        assert len(seen) == 3
        assert sum(found for _, found in seen) == len(cores)

    def test_cap(self):
        with pytest.raises(SizeTooLarge):
            enumerate_height2_cores(12)

    def test_codes_about_once_per_class(self, monkeypatch):
        """Candidates that a swap of two minimal columns beats are dropped
        before coding, so few classes are coded twice."""
        calls = []
        rows = posets._canonical_rows
        monkeypatch.setattr(
            posets, "_canonical_rows", lambda *args: calls.append(1) or rows(*args)
        )
        assert len(enumerate_height2_cores(9)) == 451
        assert len(calls) <= 481


class TestHeight1Cores:
    def test_small_sizes(self):
        assert enumerate_height1_cores(1) == []
        assert enumerate_height1_cores(2) == []
        assert enumerate_height1_cores(3) == []

    def test_four_gives_the_fence(self):
        cores = enumerate_height1_cores(4)
        assert len(cores) == 1
        assert cores[0].is_isomorphic(fence())

    def test_six_contains_complete_3_3(self):
        target = Poset.from_covers(
            6, [(i, 3 + j) for i in range(3) for j in range(3)]
        )
        hits = [
            p
            for p in enumerate_height1_cores(6)
            if p.is_isomorphic(target)
        ]
        assert len(hits) == 1
        assert poset_homology(hits[0]).betti == (1, 4)

    def test_outputs_are_connected_height1_cores(self):
        for n in (4, 5, 6, 7):
            for p in enumerate_height1_cores(n):
                assert p.height == 1
                assert p.is_connected
                assert not p.beat_points()

    def test_oracle_equivalence_small_n(self):
        for n in range(1, 7):
            oracle = {
                p.canonical_code
                for p in enumerate_posets(n)
                if p.height == 1 and p.is_connected and not p.beat_points()
            }
            fast = {p.canonical_code for p in enumerate_height1_cores(n)}
            assert fast == oracle, n

    def test_cap(self):
        with pytest.raises(SizeTooLarge):
            enumerate_height1_cores(13)

    def test_wide_shapes_cost_one_coding_per_class(self, monkeypatch):
        """Only the narrow shapes' candidates are coded; a wide shape costs
        one coding per kept class, its reading of a narrow one."""
        calls = []
        rows = posets._canonical_rows
        monkeypatch.setattr(
            posets, "_canonical_rows", lambda *args: calls.append(1) or rows(*args)
        )
        assert len(enumerate_height1_cores(9)) == 320
        assert len(calls) <= 323

    def test_wide_readings_start_from_the_narrow_automorphisms(self, monkeypatch):
        """Each wide reading is coded with the automorphisms its narrow
        core's search found as a seed.  On 10 points the codes equal those
        of unseeded searches, and the seeds save refinements."""
        calls = []
        refine = posets._refine
        monkeypatch.setattr(posets, "_refine", lambda *args: calls.append(1) or refine(*args))
        seeded = [p.canonical_code for p in enumerate_height1_cores(10)]
        with_seeds = len(calls)
        code = posets._code
        # a non-empty seed is dropped; the narrow searches still fill theirs
        monkeypatch.setattr(
            enumeration, "_code", lambda sd, su, gens=None: code(sd, su, [] if gens else gens)
        )
        calls.clear()
        assert [p.canonical_code for p in enumerate_height1_cores(10)] == seeded
        assert with_seeds < len(calls), (with_seeds, len(calls))

    def test_dual_codes_passed_along(self, monkeypatch):
        """Each core of a non-square shape holds the code of its dual, which
        the enumerator coded anyway; only a square core (as many minimals
        as maximals) codes its dual when asked for it."""
        calls = []
        rows = posets._canonical_rows
        monkeypatch.setattr(
            posets, "_canonical_rows", lambda *args: calls.append(1) or rows(*args)
        )
        for n in range(4, 11):
            cores = enumerate_height1_cores(n)
            codes, coded = [], []
            for p in cores:
                calls.clear()
                codes.append(p.dual_code)
                coded.append(len(calls))
            square = [len(p.minimal_elements) == len(p.maximal_elements) for p in cores]
            assert coded == [int(sq) for sq in square], n
            checked_duals = [
                Poset([row | 1 << i for i, row in enumerate(p._strict_down)], p.labels)
                for p in cores
            ]
            assert codes == [d.canonical_code for d in checked_duals], n
            if n in (8, 10):
                assert any(square) and not all(square), n

    def test_counts_match_burnside(self):
        """Per (minimals, maximals) shape up to 10 points, and in total on
        11 and 12, the generator finds as many classes as Burnside's lemma
        counts, so it neither misses a class nor keeps one twice."""
        counts = core_counts(12)
        for n in range(1, 11):
            found = Counter(
                (len(p.minimal_elements), len(p.maximal_elements))
                for p in enumerate_height1_cores(n)
            )
            assert found == {shape: k for shape, k in counts.items() if sum(shape) == n}, n
        totals = [sum(k for shape, k in counts.items() if sum(shape) == n) for n in (11, 12)]
        assert totals == [13912, 133369]

    def test_closed_under_duality(self):
        for n in (4, 5, 6, 7):
            codes = {p.canonical_code for p in enumerate_height1_cores(n)}
            for p in enumerate_height1_cores(n):
                assert p.dual().canonical_code in codes
