import dataclasses
import json

from finspace import verify
from finspace.complexes import homology
from finspace.verify import MODEL_COUNTS, verify_paper
from oracle_complex import chain_complex
from test_complexes import rp2

GF2_LINE = (
    "GF(2) rank equals integer rank minus even invariant factors on 7- and 8-point cores"
)
RP2_GF2_LINE = (
    "GF(2) rank equals integer rank minus even invariant factors on the RP2 face poset"
)


class TestReport:
    def test_all_checks_pass(self):
        report = verify_paper()
        assert report.passed

    def test_every_published_count_checked(self):
        report = verify_paper()
        names = {c.check for c in report.checks}
        for claim in MODEL_COUNTS:
            assert (
                f"models of ({claim.circles} circles, {claim.spheres} spheres) "
                f"on {claim.n} points" in names
            )

    def test_json_lines_schema(self):
        report = verify_paper()
        for line in report.to_json_lines().splitlines():
            obj = json.loads(line)
            assert set(obj) >= {"check", "expected", "observed", "pass"}

    def test_observed_only_lines_always_pass(self):
        report = verify_paper()
        for check in report.checks:
            if check.expected is None:
                assert check.passed

    def test_unstated_classes_are_reported(self):
        report = verify_paper()
        by_name = {c.check: c for c in report.checks}
        extra7 = by_name["unstated core classes at n=7"].observed
        assert extra7.get("(2, 0)") == 1
        extra8 = by_name["unstated core classes at n=8"].observed
        # core classes the published statements assign no counts to,
        # including a type whose minimal models were expected to need
        # more than eight points
        assert extra8.get("(2, 2)") == 2
        assert extra8.get("(3, 0)") == 8

    def test_table_has_tally(self):
        report = verify_paper()
        table = report.to_table()
        assert table.splitlines()[-1].endswith("checks passed")

    def test_deterministic(self):
        assert verify_paper().to_json_lines() == verify_paper().to_json_lines()

    def test_oracle_free_invariants_checked(self):
        report = verify_paper()
        by_name = {c.check: c for c in report.checks}
        for name in (
            "height-2 cores on 7 and 8 points closed under duality",
            "euler equals alternating betti sum on 7- and 8-point cores",
            "homology read off pi1 equals Smith-normal-form homology on 7- and 8-point cores",
            "GF(2) rank equals integer rank minus even invariant factors on 7- and 8-point cores",
        ):
            assert by_name[name].expected == []
            assert by_name[name].passed

    def test_mobius_band_checked(self):
        by_name = {c.check: c for c in verify_paper().checks}
        band = by_name[
            "Mobius band core (15 points) labelled (1 circles, 0 spheres) with pi1 certified"
        ]
        assert band.observed == (15, (1, 0), True) and band.passed
        fence = by_name["min model of the Mobius band's type is the 4-point fence"]
        assert fence.observed == (4, 1, True) and fence.passed

    def test_gf2_line_reads_even_torsion(self, monkeypatch):
        """No 7- or 8-point core has torsion, so the GF(2) line is run with
        the RP^2 profile (torsion 2 in degree 1) in place of every core's:
        it passes on the true profile and fails once the even factor is
        dropped.  The RP^2 line fails too, and its rank check alone names
        d_2."""
        true = homology(chain_complex(rp2()))
        assert true.torsion == ((), (2,), ())
        dropped = dataclasses.replace(true, torsion=((), (), ()))
        for prof, passed in ((true, True), (dropped, False)):
            monkeypatch.setattr(verify, "homology", lambda k, prof=prof: prof)
            by_name = {c.check: c for c in verify_paper().checks}
            assert by_name[GF2_LINE].passed is passed
            assert by_name[RP2_GF2_LINE].passed is passed
            assert by_name[RP2_GF2_LINE].observed["mismatches"] == ([] if passed else ["d2"])

    def test_rp2_line_meets_an_even_factor(self):
        line = {c.check: c for c in verify_paper().checks}[RP2_GF2_LINE]
        assert line.passed
        assert line.observed == {"torsion": [[], [2], []], "mismatches": []}
