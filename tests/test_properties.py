"""Randomized invariant suites, each over a fixed-seed sample of small posets.

The sample is shared across suites so the expensive homology profiles are
computed once per poset.  Every suite must hold with zero failures.
"""

import random

import pytest

from conftest import betti_signature, composes_to_zero, random_poset
from finspace import figures
from finspace.classify import label
from finspace.complexes import (
    homology,
    order_complex,
)
from finspace.enumeration import enumerate_height1_cores, enumerate_height2_cores
from finspace.posets import Poset

SEED = 20260808
SAMPLE_SIZE = 500


@pytest.fixture(scope="module")
def pool():
    rng = random.Random(SEED)
    return [random_poset(rng, n_max=8) for _ in range(SAMPLE_SIZE)]


@pytest.fixture(scope="module")
def profiles(pool):
    cache = {}

    def get(p: Poset):
        key = id(p)
        if key not in cache:
            cache[key] = homology(order_complex(p))
        return cache[key]

    return get


def test_boundary_of_boundary_vanishes(pool):
    checked = 0
    for p in pool:
        mats = order_complex(p).boundaries
        for low, high in zip(mats, mats[1:]):
            assert composes_to_zero(low, high)
        checked += 1
    assert checked >= 200


def test_core_preserves_betti(pool, profiles):
    checked = 0
    for p in pool:
        core = p.core()
        assert not core.beat_points()
        assert core.n <= p.n
        assert betti_signature(homology(order_complex(core))) == betti_signature(
            profiles(p)
        )
        checked += 1
    assert checked >= 200


def test_dual_preserves_homology_and_label(pool, profiles):
    checked = 0
    for p in pool[:250]:
        prof = profiles(p)
        dual_prof = homology(order_complex(p.dual()))
        assert dual_prof.betti == prof.betti
        assert dual_prof.torsion == prof.torsion
        assert dual_prof.f_vector == prof.f_vector
        assert label(dual_prof, None) == label(prof, None)
        checked += 1
    assert checked >= 200


def test_dual_code_is_code_of_dual(pool):
    """``dual_code`` reads the masks the other way round instead of building
    the dual; it must agree with coding the dual, on the sample and on
    every figure of the catalog."""
    catalog = [figures.poset(fid) for fid in figures.all_ids()]
    assert len(catalog) == 58
    for p in pool + catalog:
        assert p.dual_code == p.dual().canonical_code


def test_canonical_code_relabeling_invariance(pool):
    rng = random.Random(SEED + 1)
    checked = 0
    for p in pool[:220]:
        code = p.canonical_code
        sigma = list(range(p.n))
        rng.shuffle(sigma)
        assert p.permuted(sigma).canonical_code == code
        checked += 1
    assert checked >= 200


def test_canonical_code_many_permutations_per_poset():
    rng = random.Random(SEED + 2)
    posets = [random_poset(rng, n_max=8) for _ in range(50)]
    for p in posets:
        code = p.canonical_code
        for _ in range(200):
            sigma = list(range(p.n))
            rng.shuffle(sigma)
            assert p.permuted(sigma).canonical_code == code


def test_suspension_homology_shift(pool, profiles):
    checked = 0
    for p in pool[:220]:
        prof = profiles(p)
        s = p.nh_suspension(1)
        sprof = homology(order_complex(s))
        assert s.n == p.n + 2
        assert s.height == p.height + 1
        assert sprof.betti[0] == 1
        components = prof.betti[0]
        b = sprof.betti + (0,) * (p.height + 3 - len(sprof.betti))
        assert b[1] == components - 1
        for i in range(1, len(prof.betti)):
            assert b[i + 1] == prof.betti[i]
        checked += 1
    assert checked >= 200


def test_role_partition_partitions_connected_posets(pool):
    for p in pool:
        part = p.role_partition()
        if p.is_connected and p.n >= 2:
            assert part.mxl | part.middle | part.mnl == frozenset(range(p.n))
            assert not part.mxl & part.mnl
        else:
            union = part.mxl | part.middle | part.mnl
            assert union == frozenset(range(p.n))


def test_cores_have_two_maximal_and_two_minimal():
    # every connected core with at least two points, over the whole n <= 8 range
    for n in range(2, 9):
        for p in enumerate_height2_cores(n) + enumerate_height1_cores(n):
            part = p.role_partition()
            assert len(part.mxl) >= 2, (n, p)
            assert len(part.mnl) >= 2, (n, p)


def test_cover_extraction_round_trips(pool):
    for p in pool[:250]:
        again = Poset.from_covers(p.n, p.covers, p.labels)
        assert (again.n, again.covers) == (p.n, p.covers)
        assert again.covers == p.covers
