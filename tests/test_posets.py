import gc
import hashlib
import random
import weakref

import pytest

from finspace import figures
from finspace.complexes import poset_homology
from finspace.enumeration import (
    enumerate_height1_cores,
    enumerate_height2_cores,
)
from finspace.formats import load_poset
from finspace.posets import (
    CycleDetected,
    NotCover,
    Poset,
    PosetError,
    _bits,
    _code,
    _cover_beat_points,
    fence,
    sphere_model,
    two_point_discrete,
)
from conftest import disjoint_union
from oracle_code import oracle_code
from oracle_posets import (
    _beat_points, enumerate_posets, from_covers_reference, longest_chain_heights,
)


def build(labels: str, covers: str) -> Poset:
    names = labels.split()
    index = {x: i for i, x in enumerate(names)}
    pairs = [
        (index[lo], index[hi]) for lo, hi in (c.split("<") for c in covers.split())
    ]
    return Poset.from_covers(len(names), pairs, names)


def transpose(up: list[int]) -> list[int]:
    return [sum(1 << j for j in range(len(up)) if up[j] >> i & 1) for i in range(len(up))]


def masks_from_covers(n: int, covers) -> tuple[list[int], list[int]]:
    """Strict up- and down-set masks of the transitive closure of the
    (lower, upper) pairs ``covers``, by Warshall's algorithm."""
    up = [0] * n
    for lo, hi in covers:
        up[lo] |= 1 << hi
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up, transpose(up)


class TestBits:
    def test_matches_a_scan_of_every_bit(self):
        rng = random.Random(7)
        masks = [0]
        for width in range(1, 201):
            top = 1 << (width - 1)
            dense = rng.getrandbits(width)
            sparse = rng.getrandbits(width) & rng.getrandbits(width)
            masks += [top, top | dense, top | sparse]
        for m in masks:
            assert list(_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


class TestConstruction:
    def test_fence_from_covers(self):
        p = fence()
        assert p.n == 4
        assert p.height == 1
        assert p._strict_up[0] >> 2 & 1 and p._strict_up[1] >> 3 & 1
        assert not p._strict_up[2] >> 3 & 1 and not p._strict_up[0] >> 1 & 1

    def test_singleton(self):
        p = Poset.from_covers(1, [])
        assert p.n == 1
        assert p.height == 0

    def test_chain_closure_is_transitive(self):
        p = build("x y z", "x<y y<z")
        assert p._strict_up[p.labels.index("x")] >> p.labels.index("z") & 1

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            Poset.from_covers(2, [(0, 1), (1, 0)])
        with pytest.raises(CycleDetected):
            Poset.from_covers(3, [(0, 1), (1, 2), (2, 0)])

    def test_self_cover_rejected(self):
        with pytest.raises(CycleDetected):
            Poset.from_covers(2, [(1, 1)])

    def test_not_cover(self):
        with pytest.raises(NotCover):
            Poset.from_covers(3, [(0, 1), (1, 2), (0, 2)])

    def test_repeated_cover_rejected(self):
        with pytest.raises(NotCover, match=r"pair \(a, b\) is listed twice"):
            Poset.from_covers(2, [(0, 1), (0, 1)], ["a", "b"])

    @pytest.mark.parametrize(
        "make, error, says",
        [
            (lambda: build("a b c", "a<b b<c a<c"), NotCover, "(a, c) is implied through element b"),
            (lambda: build("a b", "a<b b<a"), CycleDetected, "elements a and b lie on a cycle"),
            (lambda: build("a b", "b<b"), CycleDetected, "cover (b, b) relates"),
            (lambda: Poset([0b01, 0b00], ["a", "b"]), PosetError, "not reflexive at element b"),
            (lambda: Poset([0b101, 0b10], ["a", "b"]), PosetError, "row of a references"),
            (
                lambda: Poset([0b011, 0b110, 0b100], ["a", "b", "c"]),
                PosetError,
                "not transitive at (a, b)",
            ),
        ],
        ids=["implied", "cycle", "self-cover", "reflexive", "range", "transitive"],
    )
    def test_order_errors_name_labels(self, make, error, says):
        with pytest.raises(error) as info:
            make()
        assert says in str(info.value)

    def test_bad_index(self):
        with pytest.raises(PosetError):
            Poset.from_covers(2, [(0, 5)])

    def test_too_many_elements(self):
        with pytest.raises(PosetError):
            Poset.antichain(65)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(PosetError):
            Poset.antichain(2, ["x", "x"])

    def test_cover_round_trip(self):
        for fid in ("fig04a", "fig17a", "fig21c"):
            p = figures.poset(fid)
            rebuilt = Poset.from_covers(p.n, p.covers, p.labels)
            assert (rebuilt.n, rebuilt.covers) == (p.n, p.covers)

    def test_covers_are_sorted(self, fixture_paths):
        posets = [p for n in range(1, 8) for p in enumerate_posets(n)]
        posets += [load_poset(path) for path in fixture_paths]
        for p in posets:
            assert list(p.covers) == sorted(p.covers), p.covers


def outcome(make, *args):
    """What ``make(*args)`` gives: the poset's labels and strict masks, or
    the class and message of the :class:`PosetError` it raises."""
    try:
        p = make(*args)
    except PosetError as exc:
        return type(exc), str(exc)
    return p.labels, p._strict_up, p._strict_down


def fence_of(n: int) -> tuple[list[tuple[int, int]], Poset]:
    """The zigzag 0 < 1 > 2 < 3 > ... on n points: its covers, and the
    poset built from them by the reference."""
    pairs = [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)]
    return pairs, from_covers_reference(n, pairs)


def shuffled_covers(p: Poset, rng: random.Random) -> tuple[list[tuple[int, int]], list[str]]:
    """p's covers and labels under a random relabelling, the covers in a
    random order, so that neither follows the index order."""
    sigma = list(range(p.n))
    rng.shuffle(sigma)
    pairs = [(sigma[lo], sigma[hi]) for lo, hi in p.covers]
    rng.shuffle(pairs)
    labels = [""] * p.n
    for i, s in enumerate(sigma):
        labels[s] = f"e{i}"
    return pairs, labels


def bad_cover_list(rng: random.Random):
    """``(n, pairs, labels)``: a random poset's covers with one to three
    faults among a cycle, a self-cover, a repeated pair, an implied pair, an
    index out of range and bad labels, each at a random place."""
    from conftest import random_poset

    p = random_poset(rng, n_max=7, n_min=2)
    n = p.n
    pairs, labels = shuffled_covers(p, rng)
    q = from_covers_reference(n, pairs)
    comparable = [(x, y) for x in range(n) for y in _bits(q._strict_up[x])]
    implied = [pair for pair in comparable if pair not in pairs]
    for fault in rng.sample(["cycle", "self", "repeat", "implied", "range", "labels"], rng.randint(1, 3)):
        if fault == "labels":
            labels = rng.choice([labels[:-1], labels + ["extra"], [labels[0]] + labels[1:-1] + [labels[0]]])
            continue
        if fault == "cycle":
            x, y = rng.choice(comparable) if comparable else (0, 1)
            extra = [(y, x)] if comparable else [(0, 1), (1, 0)]
        elif fault == "self":
            x = rng.randrange(n)
            extra = [(x, x)]
        elif fault == "repeat" and pairs:
            extra = [rng.choice(pairs)]
        elif fault == "implied" and implied:
            extra = [rng.choice(implied)]
        elif fault == "range":
            extra = [rng.choice([(rng.randrange(n), n), (-1, rng.randrange(n))])]
        else:
            continue
        for pair in extra:
            pairs.insert(rng.randint(0, len(pairs)), pair)
    return n, pairs, labels


class TestConstructionPath:
    """``from_covers`` closes and peels the covers layer by layer, and the
    derived orders are built unchecked; Warshall's closure handed to the
    checked constructor (``tests/oracle_posets.py``) is the reference."""

    def test_from_covers_equals_the_reference_up_to_seven_points(self):
        rng = random.Random(30)
        for n in range(1, 8):
            for p in enumerate_posets(n):
                pairs, labels = shuffled_covers(p, rng)
                for names in (labels, None):
                    expected = outcome(from_covers_reference, n, pairs, names)
                    assert outcome(Poset.from_covers, n, pairs, names) == expected, p.canonical_code

    def test_from_covers_equals_the_reference_on_64_points(self):
        rng = random.Random(64)
        sigma = list(range(64))
        rng.shuffle(sigma)
        chain = [(sigma[i], sigma[i + 1]) for i in range(63)]
        rng.shuffle(chain)
        fence_pairs, _ = fence_of(64)
        for pairs in (chain, fence_pairs, fence_pairs[::-1]):
            got = outcome(Poset.from_covers, 64, pairs)
            assert got == outcome(from_covers_reference, 64, pairs)
        assert Poset.from_covers(64, chain)._strict_up == Poset.chain(64).permuted(sigma)._strict_up

    def test_element_heights_are_longest_chains(self):
        from conftest import random_poset

        rng = random.Random(31)
        posets = [p for n in range(1, 8) for p in enumerate_posets(n)]
        posets += [random_poset(rng, n_max=14) for _ in range(200)]
        posets += [Poset.chain(64), fence_of(64)[1], sphere_model(31)]
        for p in posets:
            fresh = Poset._from_strict(p._strict_down, p._strict_up, p.labels)
            assert fresh.element_heights == longest_chain_heights(p), p.canonical_code

    def test_from_covers_keeps_the_heights_it_peels(self, fixture_paths):
        from conftest import random_poset

        rng = random.Random(31)
        posets = [p for n in range(1, 8) for p in enumerate_posets(n)]
        posets += [random_poset(rng, n_max=14) for _ in range(200)]
        posets += [load_poset(str(path)) for path in fixture_paths]
        posets += [figures.poset(fid) for fid in figures.all_ids()]
        for p in posets:
            q = Poset.from_covers(p.n, p.covers, p.labels)
            assert "element_heights" in vars(q), p.canonical_code
            assert q.element_heights == longest_chain_heights(q), p.canonical_code

    def test_bad_cover_lists_raise_as_the_reference(self):
        rng = random.Random(2030)
        raised: dict[type, int] = {}
        for _ in range(1500):
            n, pairs, labels = bad_cover_list(rng)
            expected = outcome(from_covers_reference, n, pairs, labels)
            assert outcome(Poset.from_covers, n, pairs, labels) == expected, (n, pairs, labels)
            if isinstance(expected[0], type):
                raised[expected[0]] = raised.get(expected[0], 0) + 1
        # every class of error is met, often
        assert set(raised) == {PosetError, CycleDetected, NotCover}, raised
        assert min(raised.values()) >= 100, raised

    def test_derived_orders_reject_bad_arguments(self):
        p = fence()
        for keep in ([0, 4], [-1, 0], [1, 2, 1], []):
            with pytest.raises(PosetError):
                p.restricted(keep)
        for sigma in ([0, 0, 1, 2], [0, 1, 2], [1, 2, 3, 4], [0, 1, 2, 3, 4]):
            with pytest.raises(PosetError):
                p.permuted(sigma)
        with pytest.raises(PosetError, match="got 66"):
            sphere_model(32)

    def test_no_checked_constructor_on_a_derived_or_acyclic_order(self, monkeypatch):
        p = figures.poset("fig15a")
        expected = [
            (q.labels, q._strict_up, q._strict_down)
            for q in (p.restricted([3, 0, 2]), p.permuted(list(range(p.n))[::-1]), p.nh_suspension(2))
        ]
        copy = Poset._from_strict(p._strict_down, p._strict_up, p.labels)

        def refuse(*args, **kwargs):
            raise AssertionError("checked constructor called")

        monkeypatch.setattr(Poset, "__init__", refuse)
        built = [copy.restricted([3, 0, 2]), copy.permuted(list(range(p.n))[::-1]), copy.nh_suspension(2)]
        assert [(q.labels, q._strict_up, q._strict_down) for q in built] == expected
        assert copy.core().n < p.n
        assert Poset.from_covers(p.n, p.covers, p.labels)._strict_up == p._strict_up
        with pytest.raises(AssertionError, match="checked constructor"):
            Poset.from_covers(2, [(0, 1), (1, 0)])


def names(p: Poset, mask: int) -> set[str]:
    return {p.labels[i] for i in range(p.n) if mask >> i & 1}


class TestUpDownSets:
    def test_fig06_hat_up_set(self):
        p = figures.poset("fig06")
        b1 = p.labels.index("b1")
        assert names(p, p._strict_up[b1]) == {"a1", "a2", "a3"}

    def test_strict_masks_invariant(self):
        rng = random.Random(7)
        from conftest import random_poset

        for _ in range(25):
            p = random_poset(rng)  # closed by conftest's own fixed point
            n = p.n
            assert Poset.from_covers(n, p.covers)._strict_up == p._strict_up
            for x in range(n):
                assert not p._strict_up[x] >> x & 1
                assert not p._strict_down[x] >> x & 1
                for y in range(n):
                    assert p._strict_down[x] >> y & 1 == p._strict_up[y] >> x & 1
            d = p.dual()
            assert (d._strict_up, d._strict_down) == (p._strict_down, p._strict_up)
            sigma = list(range(n))
            rng.shuffle(sigma)
            keep = [x for x in sigma if rng.random() < 0.7] or [sigma[0]]
            up = masks_from_covers(n, p.covers)[0]
            tops = [(m, n + k) for m in p.maximal_elements for k in (0, 1)]
            pos = {x: k for k, x in enumerate(keep)}
            restricted_up = [
                sum(1 << pos[y] for y in _bits(up[x]) if y in pos) for x in keep
            ]
            moved = [(sigma[i], sigma[j]) for i, j in p.covers]
            cases = [
                (p.permuted(sigma), masks_from_covers(n, moved)),
                (p.restricted(keep), (restricted_up, transpose(restricted_up))),
                (p.nh_suspension(), masks_from_covers(n + 2, list(p.covers) + tops)),
                (Poset.from_covers(n, p.covers), masks_from_covers(n, p.covers)),
            ]
            for q, (q_up, q_down) in cases:
                assert (q._strict_up, q._strict_down) == (tuple(q_up), tuple(q_down))
        # a chain whose covers run against the index order, so one closure
        # pass in index order must carry every relation across all 64 points
        sigma = list(range(64))
        rng.shuffle(sigma)
        chain = Poset.chain(64).permuted(sigma)
        rebuilt = Poset.from_covers(64, chain.covers)
        assert rebuilt._strict_up == chain._strict_up
        up, down = masks_from_covers(64, chain.covers)
        assert (rebuilt._strict_up, rebuilt._strict_down) == (tuple(up), tuple(down))

    def test_stores_only_the_strict_masks(self):
        assert set(vars(Poset.chain(3))) == {"n", "labels", "_strict_up", "_strict_down"}

    def test_fence_hat_down_set(self):
        p = fence()
        a1 = p.labels.index("a1")
        assert names(p, p._strict_down[a1]) == {"c1", "c2"}


class TestHeight:
    def test_fence_height_one(self):
        assert fence().height == 1

    def test_fig06_height_two(self):
        assert figures.poset("fig06").height == 2

    def test_singleton_height_zero(self):
        assert Poset.antichain(1).height == 0

    def test_element_heights(self):
        p = build("x y z", "x<y y<z")
        assert p.element_heights[p.labels.index("x")] == 0
        assert p.element_heights[p.labels.index("y")] == 1
        assert p.element_heights[p.labels.index("z")] == 2


class TestRolePartition:
    def test_fig04a_roles(self):
        p = figures.poset("fig04a")
        part = p.role_partition()
        assert {p.labels[i] for i in part.mxl} == {"a1", "a2"}
        assert {p.labels[i] for i in part.middle} == {"b1", "b2"}
        assert {p.labels[i] for i in part.mnl} == {"c1", "c2", "c3"}
        assert not part.mxl & part.mnl

    def test_antichain_flags_isolated(self):
        part = Poset.antichain(2).role_partition()
        assert part.mxl == part.mnl == frozenset({0, 1})
        assert not part.middle
        assert part.mxl & part.mnl == frozenset({0, 1})

    def test_fig21b_middle(self):
        p = figures.poset("fig21b")
        part = p.role_partition()
        assert {p.labels[i] for i in part.middle} == {"b1", "b2", "b3", "b4"}


class TestConnectivity:
    def test_fence_connected(self):
        assert fence().is_connected

    def test_two_chains_disconnected(self):
        p = Poset.from_covers(4, [(0, 1), (2, 3)])
        assert not p.is_connected

    def test_fig04a_connected(self):
        assert figures.poset("fig04a").is_connected


class TestDual:
    def test_involution(self):
        rng = random.Random(11)
        from conftest import random_poset

        for _ in range(50):
            p = random_poset(rng)
            q = p.dual().dual()
            assert (q.n, q.covers) == (p.n, p.covers)

    def test_antichain_self_dual(self):
        p = Poset.antichain(3)
        q = p.dual()
        assert (q.n, q.covers) == (p.n, p.covers)

    def test_fig04_pair(self):
        assert figures.poset("fig04a").dual().is_isomorphic(figures.poset("fig04astar"))

    def test_fig14b_self_dual(self):
        p = figures.poset("fig14b")
        assert p.dual().is_isomorphic(p)


class TestBeatPoints:
    def test_two_chain_both_beat(self):
        assert Poset.chain(2).beat_points() == frozenset({0, 1})

    def test_fence_has_none(self):
        assert fence().beat_points() == frozenset()

    def test_fig15a_has_beat_points(self):
        p = figures.poset("fig15a")
        assert p.beat_points()

    def test_fig15_rejected_configurations(self):
        for fid in ("fig15a", "fig15b", "fig15c", "fig15d"):
            p = figures.poset(fid)
            assert (not p.is_connected) or p.beat_points(), fid

    def test_fig15e_is_core(self):
        p = figures.poset("fig15e")
        assert p.is_connected and not p.beat_points()


class TestCoverCounts:
    """``beat_points()`` and ``core()`` find beat points by cover counts,
    which must agree with the definition (the oracle ``_beat_points``), and
    the cover masks that ``from_covers`` keeps must be the Hasse diagram."""

    def test_equals_definition_on_small_posets(self):
        for n in range(1, 8):
            for p in enumerate_posets(n):
                assert p.beat_points() == by_definition(p), p.canonical_code

    def test_equals_definition_on_random_posets(self):
        from conftest import random_poset

        rng = random.Random(61)
        for _ in range(2000):
            p = random_poset(rng, n_max=14)
            assert p.beat_points() == by_definition(p), p.canonical_code

    def test_kept_masks_equal_computed_masks(self, fixture_paths):
        posets = [(path.name, load_poset(str(path))) for path in fixture_paths]
        posets += [(fid, figures.poset(fid)) for fid in figures.all_ids()]
        for where, p in posets:
            fresh = Poset._from_strict(p._strict_down, p._strict_up, p.labels)
            assert vars(p)["_cover_masks"] == fresh._cover_masks, where


def by_definition(p: Poset) -> frozenset[int]:
    """The beat points of ``p``, by the oracle ``_beat_points``."""
    return frozenset(_bits(_beat_points(p._strict_down, p._strict_up)))


def core_one_at_a_time(p: Poset) -> Poset:
    """Oracle for :meth:`Poset.core`: find all beat points by their
    definition, restrict away the lowest-index one, and start again on the
    smaller poset."""
    while True:
        beats = by_definition(p)
        if not beats:
            return p
        victim = min(beats)
        p = p.restricted([x for x in range(p.n) if x != victim])


class TestCore:
    @staticmethod
    def assert_matches_oracle(p: Poset, where="") -> None:
        core, expected = p.core(), core_one_at_a_time(p)
        assert (core.labels, core._strict_up) == (expected.labels, expected._strict_up), where

    def test_against_oracle_on_small_posets(self):
        for n in range(1, 8):
            for p in enumerate_posets(n):
                self.assert_matches_oracle(p, p.canonical_code)

    def test_against_oracle_on_fixtures(self, fixture_paths):
        for path in fixture_paths:
            self.assert_matches_oracle(load_poset(str(path)), path.name)

    def test_against_oracle_on_random_posets(self):
        from conftest import random_poset

        rng = random.Random(47)
        for _ in range(200):
            p = random_poset(rng, n_max=14, n_min=8)
            self.assert_matches_oracle(p, p.canonical_code)
            sigma = rng.sample(range(p.n), p.n)
            self.assert_matches_oracle(p.permuted(sigma), (p.canonical_code, sigma))

    def test_chain_64(self):
        self.assert_matches_oracle(Poset.chain(64))
        assert Poset.chain(64).core().labels == ("x63",)

    def test_chain_core_is_point(self):
        assert Poset.chain(2).core().n == 1
        assert Poset.chain(5).core().n == 1

    def test_fence_is_its_own_core(self):
        p = fence()
        core = p.core()
        assert (core.n, core.covers) == (p.n, p.covers)

    def test_extra_top_retracts_to_fence(self):
        from conftest import betti_signature

        p = build("c1 c2 a1 a2 t", "c1<a1 c1<a2 c2<a1 c2<a2 a1<t")
        core = p.core()
        assert core.n == 4
        assert core.is_isomorphic(fence())
        assert betti_signature(poset_homology(core)) == betti_signature(poset_homology(p))

    def test_core_has_no_beat_points(self):
        rng = random.Random(13)
        from conftest import random_poset

        for _ in range(60):
            p = random_poset(rng)
            core = p.core()
            assert not core.beat_points()
            assert core.n <= p.n


class TestCoreKept:
    def test_same_object_every_call(self):
        p = fence()
        assert p.core() is p
        for p in (Poset.chain(3), build("c1 c2 a1 a2 t", "c1<a1 c1<a2 c2<a1 c2<a2 a1<t")):
            core = p.core()
            assert core is not p and p.core() is core and core.core() is core

    def test_homology_reduces_no_further(self, monkeypatch):
        """``poset_homology`` after ``core()`` looks for no beat point."""
        from conftest import random_poset

        calls = []

        def counted(*args):
            calls.append(args)
            return _cover_beat_points(*args)

        monkeypatch.setattr("finspace.posets._cover_beat_points", counted)
        rng = random.Random(59)
        for _ in range(20):
            p = random_poset(rng, n_max=10, n_min=5)
            p.core()
            assert calls
            calls.clear()
            poset_homology(p)
            assert not calls, p.canonical_code

    @pytest.mark.parametrize("make", [fence, lambda: Poset.chain(3)], ids=["core", "chain"])
    def test_no_reference_cycle(self, make):
        """With the cycle collector off, a dropped poset and its core are
        freed by reference counting alone."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            p = make()
            core = p.core()
            refs = weakref.ref(p), weakref.ref(core)
            del p, core
            assert [r() for r in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()


class TestSuspension:
    def test_s0_suspends_to_fence(self):
        s1 = two_point_discrete().nh_suspension(1)
        assert s1.is_isomorphic(fence())

    def test_zero_iterations(self):
        p = fence()
        q = p.nh_suspension(0)
        assert (q.n, q.covers) == (p.n, p.covers)

    def test_double_suspension_betti(self):
        s2 = two_point_discrete().nh_suspension(2)
        assert s2.n == 6
        assert poset_homology(s2).betti == (1, 0, 1)

    def test_size_and_height(self):
        p = figures.poset("fig04a")
        s = p.nh_suspension(2)
        assert s.n == p.n + 4
        assert s.height == p.height + 2

    def test_sphere_model_sizes(self):
        for dim in range(4):
            assert sphere_model(dim).n == 2 * dim + 2


class TestHomogeneity:
    def test_fig06_homogeneous(self):
        assert figures.poset("fig06").is_homogeneous

    def test_fig04a_not_homogeneous(self):
        assert not figures.poset("fig04a").is_homogeneous

    def test_chain_homogeneous(self):
        assert Poset.chain(4).is_homogeneous

    def test_matches_maximal_chain_lengths(self):
        # cover-step criterion agrees with literally enumerating maximal chains
        rng = random.Random(17)
        from conftest import random_poset
        from oracle_complex import order_complex

        for _ in range(80):
            p = random_poset(rng, n_max=7)
            k = order_complex(p)
            facet_dims = set()
            all_simplices = {s for group in k.simplices for s in group}
            for group in k.simplices:
                for s in group:
                    if not any(
                        s != t and set(s) < set(t) for t in all_simplices
                    ):
                        facet_dims.add(len(s))
            assert p.is_homogeneous == (len(facet_dims) == 1)


class TestIsomorphism:
    def test_fig18_trio(self):
        c = figures.poset("fig18c")
        assert c.is_isomorphic(figures.poset("fig18d"))
        assert c.is_isomorphic(figures.poset("fig18e"))

    def test_permutation_invariance(self):
        rng = random.Random(19)
        from conftest import random_poset

        for _ in range(30):
            p = random_poset(rng)
            sigma = list(range(p.n))
            rng.shuffle(sigma)
            assert p.permuted(sigma).canonical_code == p.canonical_code

    def test_distinguishes_chain_from_antichain(self):
        assert not Poset.chain(3).is_isomorphic(Poset.antichain(3))

    def test_distinguishes_close_posets(self):
        a = build("x y z", "x<z y<z")
        b = build("x y z", "x<y x<z")
        assert not a.is_isomorphic(b)
        assert a.dual().is_isomorphic(b)


def _codes_agree(posets) -> bool:
    """True iff canonical_code and the oracle split ``posets`` alike:
    two posets share a code iff they share an oracle code."""
    new = [p.canonical_code for p in posets]
    old = [oracle_code(p) for p in posets]
    return len(set(new)) == len(set(old)) == len(set(zip(new, old)))


class TestCanonicalAgainstOracle:
    def test_all_posets_on_seven_points(self):
        ps = enumerate_posets(7)
        assert len({p.canonical_code for p in ps}) == 2045
        assert _codes_agree(ps)

    def test_random_pairs_and_relabelled_copies(self):
        from conftest import random_poset

        rng = random.Random(4321)
        for _ in range(300):
            n_max = rng.choice((4, 6, 8))
            p = random_poset(rng, n_max=n_max)
            q = random_poset(rng, n_max=n_max)
            sigma = list(range(q.n))
            rng.shuffle(sigma)
            copy = q.permuted(sigma)
            assert copy.canonical_code == q.canonical_code
            assert _codes_agree([p, q, copy])

    def test_fixtures(self, fixture_paths):
        ps = [load_poset(path) for path in fixture_paths]
        assert len(ps) == 61
        assert _codes_agree(ps)

    def test_cores_on_eight_points_and_duals(self):
        cores = enumerate_height2_cores(8) + enumerate_height1_cores(8)
        assert _codes_agree(cores + [p.dual() for p in cores])


def cycle_crown(m: int) -> Poset:
    """2m points: minimal i lies below maximals i and i+1 (mod m)."""
    up = [1 << i for i in range(2 * m)]
    for i in range(m):
        up[i] |= 1 << (m + i) | 1 << (m + (i + 1) % m)
    return Poset(up)


def matching_crown(m: int) -> Poset:
    """2m points: minimal i lies below every maximal but maximal i."""
    up = [1 << i for i in range(2 * m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                up[i] |= 1 << (m + j)
    return Poset(up)


class TestCrowns:
    """Symmetric twin-free posets, where only automorphism pruning keeps the
    search small."""

    @pytest.mark.parametrize("crown", [cycle_crown, matching_crown])
    def test_relabelling_invariance(self, crown):
        p = crown(10)
        rng = random.Random(10)
        for _ in range(5):
            sigma = list(range(p.n))
            rng.shuffle(sigma)
            assert p.permuted(sigma).canonical_code == p.canonical_code

    def test_cycle_crown_against_two_smaller_crowns(self):
        # every element of both has one neighbour set size: only the search
        # tells them apart
        one = cycle_crown(10)
        two = disjoint_union(cycle_crown(5), cycle_crown(5))
        assert one.n == two.n == 20
        assert one.canonical_code != two.canonical_code
        rng = random.Random(20)
        sigma = list(range(20))
        rng.shuffle(sigma)
        assert two.permuted(sigma).canonical_code == two.canonical_code

    def test_small_crowns_against_oracle(self):
        ps = [cycle_crown(m) for m in range(2, 7)] + [matching_crown(m) for m in range(2, 7)]
        ps.append(disjoint_union(cycle_crown(3), cycle_crown(3)))
        assert _codes_agree(ps)
        assert cycle_crown(3).is_isomorphic(matching_crown(3))


def cayley_z4z4(shifts) -> list[int]:
    """Neighbour masks of the Cayley graph on Z4 x Z4 with connection set
    ``shifts``; vertex (a, b) is 4a + b."""
    return [
        sum(1 << 4 * ((a + s) % 4) + (b + t) % 4 for s, t in shifts)
        for a in range(4)
        for b in range(4)
    ]


# the two strongly regular graphs with parameters (16, 6, 2, 2)
SHRIKHANDE = cayley_z4z4([(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)])
ROOK_4X4 = cayley_z4z4([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])


def double_cover(nbrs: list[int]) -> Poset:
    """Minimal i lies below maximal j iff i and j are adjacent."""
    n = len(nbrs)
    return Poset([1 << i | nbrs[i] << n for i in range(n)] + [1 << n + j for j in range(n)])


def vertex_edge_incidence(nbrs: list[int]) -> Poset:
    """Each vertex lies below the edges that contain it."""
    n = len(nbrs)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if nbrs[i] >> j & 1]
    up = [1 << i for i in range(n + len(edges))]
    for k, (i, j) in enumerate(edges):
        up[i] |= 1 << n + k
        up[j] |= 1 << n + k
    return Poset(up)


def biadjacency_isomorphic(a: list[int], b: list[int]) -> bool:
    """Whether permuting rows and columns turns 0/1 matrix ``a`` into ``b``
    (rows as column masks): map rows one at a time, keeping for each column
    the columns of ``b`` it can still map to.  True only once every column
    has exactly one image, so a True answer exhibits the isomorphism."""
    n = len(a)
    full = (1 << n) - 1

    def extend(row: int, used: int, images: list[int]) -> bool:
        if row == n:
            return all(m and not m & (m - 1) for m in images) and len(set(images)) == n
        for target in range(n):
            if used >> target & 1:
                continue
            narrowed = [
                m & (b[target] if a[row] >> col & 1 else full & ~b[target])
                for col, m in enumerate(images)
            ]
            if all(narrowed) and extend(row + 1, used | 1 << target, narrowed):
                return True
        return False

    return extend(0, 0, [full] * n)


class TestStronglyRegular:
    """After one element is fixed, refinement leaves cells that hold several
    orbits, so these codes depend on the search and its pruning."""

    @pytest.mark.parametrize("build", [double_cover, vertex_edge_incidence])
    @pytest.mark.parametrize("nbrs", [SHRIKHANDE, ROOK_4X4], ids=["shrikhande", "rook"])
    def test_relabelling_invariance(self, build, nbrs):
        p = build(nbrs)
        rng = random.Random(p.n)
        for _ in range(30):
            sigma = list(range(p.n))
            rng.shuffle(sigma)
            assert p.permuted(sigma).canonical_code == p.canonical_code

    def test_double_covers_agree_although_graphs_differ(self):
        assert biadjacency_isomorphic(SHRIKHANDE, ROOK_4X4)
        assert double_cover(SHRIKHANDE).is_isomorphic(double_cover(ROOK_4X4))
        moved = list(ROOK_4X4)
        moved[0] ^= 0b11  # 0 ~ 1 becomes 0 ~ 0
        assert not double_cover(SHRIKHANDE).is_isomorphic(double_cover(moved))
        # the incidence poset determines the graph
        assert not vertex_edge_incidence(SHRIKHANDE).is_isomorphic(
            vertex_edge_incidence(ROOK_4X4)
        )


def complete_bipartite(m: int, k: int) -> Poset:
    """K_{m,k}: each of m minimals lies below each of k maximals."""
    return Poset([1 << i | ((1 << k) - 1) << m if i < m else 1 << i for i in range(m + k)])


@pytest.fixture
def refine_calls(monkeypatch) -> list:
    """A list that gets one entry per call of ``posets._refine``."""
    from finspace import posets

    calls = []
    refine = posets._refine
    monkeypatch.setattr(posets, "_refine", lambda *args: calls.append(1) or refine(*args))
    return calls


class TestSeededSearch:
    """A search seeded with automorphisms, as the wide height-1 reading is
    with those its narrow reading found (Aut(p) = Aut(p^op)), gives the
    code of a plain search."""

    @staticmethod
    def seeded_code(p: Poset, sigma: list[int]) -> tuple[bytes, int]:
        """The code of the dual of ``p`` relabelled by ``sigma``, seeded with
        the automorphisms that coding ``p`` found, mapped across; and the
        seed's size."""
        gens = []
        _code(p._strict_down, p._strict_up, gens)
        seed = []
        for g in gens:
            mapped = [0] * p.n
            for x, image in enumerate(g):
                mapped[sigma[x]] = sigma[image]
            seed.append(mapped)
        q = p.dual().permuted(sigma)
        return _code(q._strict_down, q._strict_up, seed), len(seed)

    def test_equals_the_plain_code(self):
        posets = [p for n in range(1, 7) for p in enumerate_posets(n)]
        posets += [crown(m) for crown in (cycle_crown, matching_crown) for m in range(2, 9)]
        posets += [complete_bipartite(m, k) for m in range(1, 6) for k in range(1, 6)]
        posets += [build(nbrs) for build in (double_cover, vertex_edge_incidence)
                   for nbrs in (SHRIKHANDE, ROOK_4X4)]
        rng = random.Random(35)
        seeded = 0
        for p in posets:
            for a in (p, p.dual()):
                sigma = list(range(p.n))
                rng.shuffle(sigma)
                code, size = self.seeded_code(a, sigma)
                assert code == a.dual().canonical_code, a.canonical_code
                seeded += size > 0
        assert seeded > 100, seeded

    def test_a_one_leaf_root_refines_once(self, refine_calls):
        for p in (fence(), complete_bipartite(3, 3)):
            refine_calls.clear()
            _code(p._strict_down, p._strict_up)
            assert len(refine_calls) == 1, p

    def test_a_seeded_wide_search_refines_less(self, refine_calls):
        """The vertex-edge incidence poset of K4 (4 minimals, 6 maximals,
        the 24 symmetries of the tetrahedron) is a narrow height-1 core;
        its wide reading is its dual."""
        p = vertex_edge_incidence([0b1110, 0b1101, 0b1011, 0b0111])
        gens = []
        _code(p._strict_down, p._strict_up, gens)
        refine_calls.clear()
        plain = _code(p._strict_up, p._strict_down)
        unseeded = len(refine_calls)
        refine_calls.clear()
        assert _code(p._strict_up, p._strict_down, gens) == plain
        assert gens and len(refine_calls) < unseeded, (len(refine_calls), unseeded)


class TestCodeBytes:
    """The exact bytes of codes beyond the generators' output, so that a
    change to refinement or to the search that keeps every class apart but
    moves a code shows here."""

    def test_digest_of_random_and_symmetric_posets(self):
        from conftest import random_poset

        rng = random.Random(2828)
        posets = [random_poset(rng, n_max=14) for _ in range(2000)]
        posets += [Poset.chain(n) for n in range(1, 15)] + [Poset.antichain(n) for n in range(1, 15)]
        posets += [sphere_model(k) for k in range(6)]
        posets += [cycle_crown(m) for m in range(2, 9)] + [matching_crown(m) for m in range(2, 9)]
        posets += [build(nbrs) for build in (double_cover, vertex_edge_incidence)
                   for nbrs in (SHRIKHANDE, ROOK_4X4)]
        digest = hashlib.sha256()
        for p in posets:
            digest.update(p.canonical_code + b"|" + p.dual_code + b"\n")
        assert digest.hexdigest() == (
            "8fcc61c7819ef5096b57c4036689cb67bf217de9aa0922bfec40f78b2c5e461c"
        )
