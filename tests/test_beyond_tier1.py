"""Checks past the tier-1 sizes, skipped unless ``FINSPACE_SLOW=1``.

Run them with ``FINSPACE_SLOW=1 python -m pytest tests/test_beyond_tier1.py``.
The CI workflow runs each by node id under a ``timeout``.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from finspace.classify import classify_poset
from finspace.complexes import homology, order_complex, poset_homology
from finspace.enumeration import (
    LevelShape,
    _shape_candidates,
    enumerate_height1_cores,
    enumerate_height2_cores,
)
from finspace.posets import Poset, _beat_points
from finspace.presentations import poset_presentation, tietze_simplify
from oracle_posets import all_posets, connected_cores

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


def cli_stdout(*argv: str) -> bytes:
    """The standard output of ``finspace <argv>``, run as a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "finspace.cli", *argv],
        capture_output=True, env=env, timeout=120, check=True,
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
