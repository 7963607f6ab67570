"""Checks past the tier-1 sizes, skipped unless ``FINSPACE_SLOW=1``.

Run them with ``FINSPACE_SLOW=1 python -m pytest tests/test_beyond_tier1.py``.
The CI workflow runs each by node id under a ``timeout``.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from finspace.classify import classify_poset
from finspace.complexes import (
    _chain_counts, boundary_ranks, f2_rank, homology, order_complex, poset_homology,
)
from finspace.enumeration import (
    LevelShape,
    _shape_candidates,
    enumerate_height1_cores,
    enumerate_height2_cores,
)
from finspace.formats import poset_to_text
from finspace.posets import Poset, mobius_band, projective_plane, sphere_model
from finspace.presentations import poset_presentation, tietze_simplify
import oracle_complex
from oracle_posets import _beat_points, all_posets, connected_cores
from oracle_tietze import oracle_tietze

pytestmark = pytest.mark.skipif(
    os.environ.get("FINSPACE_SLOW") != "1", reason="past the tier-1 sizes; set FINSPACE_SLOW=1"
)

SRC = Path(__file__).resolve().parent.parent / "src"

# The wedge types (circles, spheres) whose first models at height 1 or 2
# have 9 points; test_classify.py pins them as
# test_wedge_types_first_modelled_on_nine_points.
FIRST_ON_NINE = (
    (0, 5), (0, 6), (0, 8), (1, 3), (1, 4), (2, 3),
    (2, 4), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1),
)


def test_all_heights_on_nine_points():
    """Every poset on 9 points, at every height.  Its cores of height 1 and
    2 are the generators'.  Each of the 21 cores of height 3 has a conclusive
    pi1 certificate and no torsion, and none has the Betti numbers of a
    point, of the wedge of seven 2-spheres, which has no model on 9 points
    at height 2, or of a wedge type first modelled on 9 points: so those
    first models are minimal over all finite spaces."""
    classes = all_posets(9)
    assert len(classes) == 183231  # OEIS A000112
    cores = connected_cores(classes)
    assert {height: len(found) for height, found in cores.items()} == {1: 320, 2: 451, 3: 21}
    assert set(cores[1]) == {p.canonical_code for p in enumerate_height1_cores(9)}
    assert set(cores[2]) == {p.canonical_code for p in enumerate_height2_cores(9)}
    # the order complex of a height-3 core has dimension 3
    absent = {(1, circles, spheres, 0) for circles, spheres in FIRST_ON_NINE + ((0, 7), (0, 0))}
    for code, p in cores[3].items():
        assert tietze_simplify(poset_presentation(p)).is_conclusive, code
        profile = poset_homology(p)
        assert not profile.has_torsion, code
        assert profile.betti not in absent, code


def test_height1_candidates_on_twelve_points_are_beat_point_free():
    """Every height-1 candidate on 12 points, the cap, is beat-point free."""
    count = 0
    for m0 in range(2, 12 // 2 + 1):
        for down, up in _shape_candidates(LevelShape(0, 12 - m0, m0)):
            assert _beat_points(down, up) == 0, (m0, down)
            count += 1
    assert count == 160351, count


def test_certificate_homology_equals_smith_normal_form_on_ten_points():
    """Every core on 10 points, at heights 2 and 1: the homology that
    ``poset_homology`` and classification read off the pi1 certificate is
    the Smith normal form homology of the order complex."""
    for height, cores, count in (
        (2, enumerate_height2_cores(10), 4675), (1, enumerate_height1_cores(10), 1873)
    ):
        assert len(cores) == count, (height, len(cores))
        for p in cores:
            reference = homology(order_complex(p))
            assert poset_homology(p) == reference, p.canonical_code
            assert classify_poset(p).profile == reference, p.canonical_code


def test_tietze_matches_the_restart_oracle_on_ten_points():
    """On the Hasse presentation of every height-2 core on 10 points, the
    simplifier, unit phase and word loop alike, reaches the outcome of the
    restart-scan oracle."""
    cores = enumerate_height2_cores(10)
    assert len(cores) == 4675, len(cores)
    for p in cores:
        pres = poset_presentation(p)
        status, expected = tietze_simplify(pres), oracle_tietze(pres)
        assert (status.kind, status.rank) == (expected.kind, expected.rank), p.canonical_code


def test_seeded_invariants_on_ten_and_eleven_points():
    """The invariants the generator sets on the height-2 cores on 10 points
    and the height-1 cores on 11 equal those of a fresh unchecked copy, and
    each core, like its copy, is its own core."""
    names = ("element_heights", "height", "is_connected", "is_homogeneous")
    for height, cores, count in (
        (2, enumerate_height2_cores(10), 4675), (1, enumerate_height1_cores(11), 13912)
    ):
        assert len(cores) == count, (height, len(cores))
        for p in cores:
            assert all(name in vars(p) for name in names[: 3 + (height == 1)]), p.canonical_code
            fresh = Poset._from_strict(p._strict_down, p._strict_up, p.labels)
            for name in names:
                assert getattr(p, name) == getattr(fresh, name), (name, p.canonical_code)
            assert vars(p)["_core"] is None and p.core() is p, p.canonical_code
            assert fresh.core() is fresh, p.canonical_code


def test_order_complex_from_chain_masks_equals_tuple_route():
    """The order complex built from chain masks equals the tuple route of
    ``tests/oracle_complex.py`` past the tier-1 sizes: f-vectors, faces and
    homology, with the 2-torsion of the projective plane."""
    posets = {f"suspension{k}": Poset.antichain(3).nh_suspension(k) for k in (7, 8)}
    posets.update(mobius=mobius_band(), rp2=projective_plane())
    posets.update({f"sphere{k}": sphere_model(k) for k in range(8)})
    for name, p in posets.items():
        masks = order_complex(p)
        tuples = oracle_complex.chain_complex(oracle_complex.order_complex(p))
        assert masks.f_vector == tuples.f_vector == _chain_counts(p), name
        assert oracle_complex.by_faces(masks) == oracle_complex.by_faces(tuples), name
        profile = homology(masks)
        assert profile == homology(tuples), name
        if name == "rp2":
            assert profile.torsion == ((), (2,), ()), profile.torsion


def test_f2_ranks_of_the_large_suspensions():
    """GF(2) ranks of the 26,243- and 78,731-chain suspensions of three
    points equal the ranks the Betti numbers give, and the larger takes
    under 5 s and under 4 times as long as building its order complex."""
    profile = homology(order_complex(Poset.antichain(3).nh_suspension(8)))
    assert sum(profile.f_vector) == 26243, profile.f_vector
    assert profile.betti == (1,) + (0,) * 7 + (2,), profile.betti
    ranks = boundary_ranks(profile.f_vector, profile.betti)
    assert profile.f2_ranks == ranks, (profile.f2_ranks, ranks)
    # about 0.5 s on a 2-CPU Xeon, about as long as the build; a reduction
    # whose columns fill in takes 15-20 s, and one keyed by the lowest set
    # bit 3 s, 10 times the build
    suspension9 = Poset.antichain(3).nh_suspension(9)
    start = time.perf_counter()
    complex9 = order_complex(suspension9)
    build = time.perf_counter() - start
    start = time.perf_counter()
    f2_ranks = tuple(f2_rank(b) for b in complex9.boundaries)
    seconds = time.perf_counter() - start
    assert seconds < 5, seconds
    assert seconds < 4 * build, (seconds, build)
    assert f2_ranks == boundary_ranks(complex9.f_vector, (1,) + (0,) * 8 + (2,)), f2_ranks


@pytest.fixture
def s30_file(tmp_path) -> str:
    """The 62-point model of S^30 written as a poset file."""
    path = tmp_path / "s30.poset"
    path.write_text(poset_to_text(sphere_model(30)))
    return str(path)


def test_homology_of_the_s30_model(s30_file):
    """``finspace homology`` of the 62-point model of S^30, which needs the
    cellular route, within 20 s."""
    profile = json.loads(cli_stdout("homology", s30_file, timeout=20))
    assert profile["betti"] == [1] + [0] * 29 + [1], profile["betti"]


def test_pi1_of_the_s30_model(s30_file):
    """``finspace pi1`` of the same model, a poset of height 30, read off its
    Hasse diagram within 20 s: one generator per cover outside the spanning
    tree (120 - 62 + 1 = 59), and the trivial group."""
    lines = cli_stdout("pi1", s30_file, timeout=20).decode().splitlines()
    assert lines[-1] == "trivial group", lines[-1]
    assert re.search(r"\bg59\b", lines[0])
    assert "g60" not in lines[0]


def cli_stdout(*argv: str, timeout: float = 120) -> bytes:
    """The standard output of ``finspace <argv>``, run as a subprocess that
    is stopped after ``timeout`` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "finspace.cli", *argv],
        capture_output=True, env=env, timeout=timeout, check=True,
    )
    return done.stdout


def classify_rows(n: int, height: int) -> tuple[str, list[str]]:
    """The head line and the label lines of ``finspace classify``."""
    out = cli_stdout("classify", "--n", str(n), "--height", str(height))
    head, *rows = out.decode().splitlines()
    return head, rows


def test_height1_enumeration_on_twelve_points():
    """Every height-1 core on 12 points, the cap, wide readings included:
    one line per class, and the bytes of every line (the canonical codes
    and the covers) pinned."""
    out = cli_stdout("enumerate", "--n", "12", "--height", "1")
    assert out.count(b"\n") == 133369
    assert hashlib.sha256(out).hexdigest() == (
        "6b2e028a9acee11c7015d591d82c5874ec25fda583d330ba70b4a92eb585383d"
    )


def test_height1_classification_on_eleven_points():
    """Height-1 classification on 11 points, with pi1 verified for every core."""
    head, rows = classify_rows(11, 1)
    assert head == "cores: 13912", head
    total = 0
    for row in rows:
        m = re.fullmatch(r"\d+ circles, 0 spheres: (\d+) \(pi1 verified for (\d+)\)", row)
        assert m and m[1] == m[2], row
        total += int(m[1])
    assert total == 13912, total


def test_height2_classification_on_ten_points():
    """Height-2 classification on 10 points, with pi1 verified for every core."""
    head, rows = classify_rows(10, 2)
    assert head == "cores: 4675", head
    total = 0
    for row in rows:
        m = re.fullmatch(r"\d+ circles, \d+ spheres: (\d+) \(pi1 verified for (\d+)\)", row)
        assert m and m[1] == m[2], row
        total += int(m[1])
    assert total == 4675, total
    # homotopically trivial non-contractible cores, and sphere-only types
    # out of order: (0,12) has models on 10 points, (0,11) none
    assert "0 circles, 0 spheres: 10 (pi1 verified for 10)" in rows, rows
    assert "0 circles, 12 spheres: 3 (pi1 verified for 3)" in rows, rows
    assert not any(row.startswith("0 circles, 11 spheres:") for row in rows), rows


def test_height2_classification_on_eleven_points():
    """Height-2 classification on 11 points, the cap, with pi1 verified for
    every core and no unrecognized core: 78 homotopically trivial
    non-contractible cores, and the first 26 models of the wedge of eleven
    2-spheres."""
    head, rows = classify_rows(11, 2)
    assert head == "cores: 60969", head
    total = 0
    for row in rows:
        m = re.fullmatch(r"\d+ circles, \d+ spheres: (\d+) \(pi1 verified for (\d+)\)", row)
        assert m and m[1] == m[2], row
        total += int(m[1])
    assert total == 60969, total
    assert "0 circles, 0 spheres: 78 (pi1 verified for 78)" in rows, rows
    assert "0 circles, 11 spheres: 26 (pi1 verified for 26)" in rows, rows
