import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from finspace.cli import main
from finspace.formats import poset_to_text
from finspace.posets import Poset, sphere_model

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFileCommands:
    def test_homology_fig17a(self, capsys, catalog_dir):
        code, out, _ = run(capsys, "homology", str(catalog_dir / "fig17a.poset"))
        assert code == 0
        obj = json.loads(out)
        assert obj["betti"] == [1, 3, 0]
        assert obj["euler"] == -2

    def test_homology_output_pinned(self, capsys, fixture_paths):
        """One digest over the homology JSON of every fixture, in sorted
        order: f-vectors, Betti numbers, torsion, Euler characteristic and
        GF(2) ranks, byte for byte."""
        digest = hashlib.sha256()
        for path in fixture_paths:
            code, out, _ = run(capsys, "homology", str(path))
            assert code == 0, path
            digest.update(out.encode())
        assert len(fixture_paths) == 61
        assert digest.hexdigest() == (
            "e686e24248aced8bd18c913f8b79718dfc13e0f678fa1d5463641e7779f480a8"
        )

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # which points survive beat-point removal, their labels and covers
            (["core"], "c218b902941135f602281241c60b85cb58fd9572ff2bbadf2f2cc387e84e745d"),
            # the generator numbering and relators of each presentation, and
            # the simplifier's verdict
            (["pi1"], "a0b1bad202988f970dc36a15e805b5400e97358f79c7a55d123abe74fe5f8aef"),
            # node order, ranks and edges; no fixture label holds '"' or '\',
            # so DOT escaping leaves this digest unchanged
            (
                ["export", "--dot"],
                "7ab9956e1a009bc53b4d4afc644844c7757d6d4982e63be6477cc5010c6351a8",
            ),
            # elements and covers
            (
                ["export", "--json"],
                "de7c5ee99c0d808f65999e3b5bc892d0ef18c7cfdd8a10122fce2bb772f490eb",
            ),
        ],
        ids=["core", "pi1", "export-dot", "export-json"],
    )
    def test_output_pinned(self, capsys, fixture_paths, argv, expected):
        """One digest over the exit code and stdout of a command on every
        fixture, in sorted order, byte for byte."""
        digest = hashlib.sha256()
        for path in fixture_paths:
            code, out, _ = run(capsys, *argv, str(path))
            digest.update(f"{code}\n{out}".encode())
        assert len(fixture_paths) == 61
        assert digest.hexdigest() == expected

    def test_iso_fig18(self, capsys, catalog_dir):
        code, out, _ = run(
            capsys,
            "iso",
            str(catalog_dir / "fig18c.poset"),
            str(catalog_dir / "fig18d.poset"),
        )
        assert code == 0
        assert out.strip() == "isomorphic"

    def test_iso_negative(self, capsys, catalog_dir):
        code, out, _ = run(
            capsys,
            "iso",
            str(catalog_dir / "fig18c.poset"),
            str(catalog_dir / "fig21b.poset"),
        )
        assert code == 0
        assert out.strip() == "not isomorphic"

    def test_core_chain2(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "core", str(fixture_dir / "chain2.poset"))
        assert code == 0
        assert out.splitlines()[0] == "poset 1"

    def test_dual_round_trip(self, capsys, catalog_dir, tmp_path):
        code, out, _ = run(capsys, "dual", str(catalog_dir / "fig04a.poset"))
        assert code == 0
        twice = tmp_path / "dual.poset"
        twice.write_text(out)
        code, out2, _ = run(capsys, "iso", str(twice), str(catalog_dir / "fig04astar.poset"))
        assert out2.strip() == "isomorphic"

    def test_show(self, capsys, catalog_dir):
        code, out, _ = run(capsys, "show", str(catalog_dir / "fig20a.poset"))
        assert code == 0
        assert "height: 2" in out
        assert "matches figures: fig20a" in out

    def test_pi1(self, capsys, catalog_dir):
        code, out, _ = run(capsys, "pi1", str(catalog_dir / "fig17a.poset"))
        assert code == 0
        assert "free of rank 3" in out

    def test_export_dot(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "export", "--dot", str(fixture_dir / "circle4.poset"))
        assert code == 0
        assert out.startswith("digraph poset {")

    def test_export_json(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "export", "--json", str(fixture_dir / "circle4.poset"))
        assert code == 0
        assert json.loads(out)["n"] == 4


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["enumerate", "--height", "2"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_data_error_missing_file(self, capsys):
        assert main(["homology", "no-such-file.poset"]) == 3

    def test_data_error_malformed(self, capsys, tmp_path):
        bad = tmp_path / "bad.poset"
        for data, says in (
            (b"poset 2\nelements a b\ncover a z\n", ""),
            ("poset ²\nelements a\n".encode(), ""),  # a digit, but not an ASCII one
            (b"poset 1\nelements \xff\n", ""),  # not UTF-8
            (b"poset 2\nelements a b\ncover a b\ncover b a\n", "cycle"),
        ):
            bad.write_bytes(data)
            assert main(["homology", str(bad)]) == 3, data
            err = capsys.readouterr().err
            assert err.startswith("error: ") and says in err, data

    @pytest.mark.parametrize(
        "covers, says",
        [
            ("cover lo mid\ncover lo mid\n", "pair (lo, mid) is listed twice"),
            (
                "cover lo mid\ncover mid hi\ncover lo hi\n",
                "pair (lo, hi) is implied through element mid",
            ),
        ],
        ids=["repeated", "implied"],
    )
    def test_data_error_names_elements(self, capsys, tmp_path, covers, says):
        bad = tmp_path / "bad.poset"
        bad.write_text("poset 3\nelements lo mid hi\n" + covers)
        code, out, err = run(capsys, "homology", str(bad))
        assert (code, out) == (3, "")
        assert err == f"error: {bad}: {says}\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "elements": ["a", "b"], "covers": 5}',
            '{"n": true, "elements": ["a"], "covers": []}',
            '{"n": 2, "elements": ["a b", "c#d"], "covers": [["a b", "c#d"]]}',
        ],
    )
    def test_data_error_malformed_json(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["show", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fixture", ["fig15a", "fig15c"])
    def test_pi1_unsupported_poset(self, capsys, catalog_dir, fixture):
        """A well-formed file that is disconnected exits 3 with one
        ``error:`` line, like a malformed one."""
        code, out, err = run(capsys, "pi1", str(catalog_dir / f"{fixture}.poset"))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("p", [Poset.chain(4), sphere_model(3)], ids=["chain4", "sphere3"])
    def test_pi1_tall_poset(self, capsys, tmp_path, p):
        """A connected file taller than 2, which no fixture is, gets a
        presentation and a verdict."""
        path = tmp_path / "tall.poset"
        path.write_text(poset_to_text(p))
        code, out, err = run(capsys, "pi1", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "trivial group"

    def test_homology_of_a_tall_sphere(self, capsys, tmp_path, monkeypatch):
        """The 62-point model of S^30 is cellular: its homology needs no
        order complex, which would have 3^31 - 1 simplices."""

        def refuse(p):
            raise AssertionError("order complex built")

        monkeypatch.setattr("finspace.complexes.order_complex", refuse)
        path = tmp_path / "s30.poset"
        path.write_text(poset_to_text(sphere_model(30)))
        code, out, _ = run(capsys, "homology", str(path))
        assert code == 0
        assert json.loads(out)["betti"] == [1] + [0] * 29 + [1]

    def test_homology_over_budget(self, capsys, tmp_path, monkeypatch):
        """A core that is not cellular and whose order complex is too large
        exits with status 4 and one ``error:`` line, before building it."""

        def refuse(p):
            raise AssertionError("order complex built")

        monkeypatch.setattr("finspace.complexes.order_complex", refuse)
        path = tmp_path / "big.poset"
        path.write_text(poset_to_text(Poset.antichain(3).nh_suspension(8)))
        code, out, err = run(capsys, "homology", str(path))
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "budget" in err

    def test_enumerate_cap(self, capsys):
        assert main(["enumerate", "--n", "99", "--height", "2"]) == 2

    def test_min_model_cap(self, capsys, monkeypatch):
        """A search whose --max-n is past the cap of its height is a usage
        error with one ``error:`` line, like ``enumerate``, raised before
        any size is enumerated."""

        def refuse(n, height):
            raise AssertionError("enumerated before checking the cap")

        monkeypatch.setattr("finspace.enumeration.HEIGHT2_CAP", 6)
        monkeypatch.setattr("finspace.classify.inventory", refuse)
        for circles, spheres, max_n, expected in (
            ("0", "30", "7", "error: height-2 core enumeration is capped at 6\n"),
            ("30", "0", "13", "error: height-1 core enumeration is capped at 12\n"),
        ):
            argv = ["min-model", "--circles", circles, "--spheres", spheres, "--max-n", max_n]
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", expected)

    def test_enumerate_unwritable_jsonl(self, capsys, tmp_path, monkeypatch):
        """An output path that cannot be opened is a usage error, reported
        before any enumeration and without a traceback."""

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated before opening --jsonl")

        monkeypatch.setattr("finspace.cli.enumerate_height2_cores", refuse)
        out_path = tmp_path / "missing" / "out.jsonl"
        code, out, err = run(
            capsys, "enumerate", "--n", "7", "--height", "2", "--jsonl", str(out_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(out_path) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "0", "--height", "2"],
            ["classify", "--n", "-1", "--height", "1"],
            ["min-model", "--circles", "-1", "--spheres", "0"],
            ["min-model", "--circles", "1", "--spheres", "0", "--max-n", "0"],
        ],
        ids=["enumerate", "classify", "min-model", "min-model-max-n"],
    )
    def test_out_of_range_count(self, capsys, argv):
        assert main(argv) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len([line for line in err_lines if "error:" in line]) == 1
        assert not any("Traceback" in line for line in err_lines)


class TestPipelines:
    def test_enumerate_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "inv.jsonl"
        code, _, err = run(
            capsys, "enumerate", "--n", "7", "--height", "2", "--jsonl", str(out_path)
        )
        assert code == 0
        assert "cores" in err
        lines = out_path.read_text().splitlines()
        assert len(lines) == 7
        keys = [json.loads(line)["code"] for line in lines]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "height, n, expected",
        [
            (2, 7, "288127a690c029e8168fd66f3075bbaa131cb9ed701373aaa13752cd0a0b29d7"),
            (2, 8, "2d600a32cf61bdeda155171bc759b0b1396e99ac237ba58acde3e56a064e1649"),
            (2, 9, "31001969cc380676e42d3e0c49b263b2ea6c85c0bb41de08a9ebc5f4bcb06224"),
            (1, 8, "c6ad42f897ddc232f66cbdc4c79b0e87d322a3022fe66f74a55824190244ab0d"),
            (1, 9, "99d11c9da0ef09f1cf2277f53865f5f9ce82e013fa5830792fcb044496119f05"),
            (1, 10, "7fda4a201c09b213ebcd52a277747cf12b1f97a7f441facd265105eb9dee9843"),
        ],
        ids=["h2-n7", "h2-n8", "h2-n9", "h1-n8", "h1-n9", "h1-n10"],
    )
    def test_enumerate_jsonl_pinned(self, capsys, tmp_path, height, n, expected):
        """The classification records, byte for byte: codes, covers,
        homology, labels, homogeneity, dual codes and figure matches."""
        out_path = tmp_path / "inv.jsonl"
        code, _, _ = run(
            capsys, "enumerate", "--n", str(n), "--height", str(height), "--jsonl", str(out_path)
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == expected

    @staticmethod
    def count_codings(monkeypatch) -> list:
        """A list that gets one entry per canonical labelling, from now on;
        the figure catalog is coded first, so that it adds none."""
        from finspace import figures, posets

        figures.classes_by_code()
        calls = []
        rows = posets._canonical_rows
        monkeypatch.setattr(
            posets, "_canonical_rows", lambda *args: calls.append(1) or rows(*args)
        )
        return calls

    def test_enumerate_jsonl_codes_each_dual_pair_once(self, capsys, tmp_path, monkeypatch):
        """The records name their duals' codes, but classification codes the
        dual of only one poset of each dual pair (or each self-dual poset):
        the codings are the enumeration's plus one per pair."""
        from finspace.enumeration import enumerate_height2_cores

        calls = self.count_codings(monkeypatch)
        enumerate_height2_cores(8)
        enumerated = len(calls)
        calls.clear()
        out_path = tmp_path / "inv.jsonl"
        code, _, _ = run(
            capsys, "enumerate", "--n", "8", "--height", "2", "--jsonl", str(out_path)
        )
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        pairs = {frozenset((r["code"], r["dual_code"])) for r in records}
        assert len(records) == 53 and len(calls) == enumerated + len(pairs)
        assert len(pairs) < len(records)

    def test_enumerate_h1_jsonl_builds_no_dual(self, capsys, tmp_path, monkeypatch):
        """On 9 points every height-1 level shape is non-square, so the
        enumerator hands each core its dual's code and classification codes
        no dual: about one coding per record."""
        calls = self.count_codings(monkeypatch)
        out_path = tmp_path / "inv.jsonl"
        code, _, _ = run(
            capsys, "enumerate", "--n", "9", "--height", "1", "--jsonl", str(out_path)
        )
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 320 and len(calls) <= 323

    @pytest.mark.parametrize(
        "height, n, jsonl",
        [(1, 8, False), (2, 8, False), (1, 8, True), (2, 8, True)],
        ids=["1-8", "2-8", "1-8-jsonl", "2-8-jsonl"],
    )
    def test_enumerate_drops_printed_cores(self, monkeypatch, tmp_path, height, n, jsonl):
        """Each core is freed once its line is made, on stdout or as a
        ``--jsonl`` record: while line k is made, cores 0..k-1 are gone."""
        import finspace.cli as cli
        from finspace.classify import ClassificationRecord

        refs = []
        made = []
        enumerated = cli._enumerated
        to_json_line = ClassificationRecord.to_json_line

        def tracked(args):
            cores = enumerated(args)
            refs.extend(weakref.ref(p) for p in cores)
            return cores

        def making_line():
            assert all(ref() is None for ref in refs[: len(made)]), len(made)
            made.append(None)

        class Stdout(io.StringIO):
            def write(self, text):
                if text.strip():
                    making_line()
                return super().write(text)

        def record_line(rec):
            making_line()
            return to_json_line(rec)

        monkeypatch.setattr(cli, "_enumerated", tracked)
        monkeypatch.setattr(sys, "stdout", Stdout())
        monkeypatch.setattr(ClassificationRecord, "to_json_line", record_line)
        argv = ["enumerate", "--n", str(n), "--height", str(height)]
        if jsonl:
            argv += ["--jsonl", str(tmp_path / "inv.jsonl")]
        assert main(argv) == 0
        assert len(refs) == len(made) > 1

    def test_enumerate_stdout_stable(self, capsys):
        code, first, _ = run(capsys, "enumerate", "--n", "6", "--height", "2")
        assert code == 0
        code, second, _ = run(capsys, "enumerate", "--n", "6", "--height", "2")
        assert first == second

    def test_enumerate_independent_of_hash_seed(self):
        """Same stdout and stderr bytes under any hash seed and any
        FINSPACE_WORKERS value, even a malformed one: enumeration reads no
        worker setting."""
        outputs = []
        for seed, workers in (("0", None), ("1", None), ("0", "2"), ("0", "garbage")):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("FINSPACE_WORKERS", None)
            if workers is not None:
                env["FINSPACE_WORKERS"] = workers
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            done = subprocess.run(
                [sys.executable, "-m", "finspace.cli", "enumerate", "--n", "8", "--height", "2"],
                env=env,
                capture_output=True,
                check=True,
            )
            outputs.append((done.stdout, done.stderr))
        assert outputs[0][0] and outputs[0][1]
        assert all(output == outputs[0] for output in outputs)

    def test_classify_counts(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "7", "--height", "2")
        assert code == 0
        assert "1 circles, 1 spheres: 2" in out
        assert "0 circles, 2 spheres: 3" in out

    def test_min_model(self, capsys):
        code, out, _ = run(
            capsys, "min-model", "--circles", "1", "--spheres", "1", "--max-n", "8"
        )
        assert code == 0
        assert "minimum points: 7" in out
        assert "models: 2" in out

    def test_min_model_one_point(self, capsys):
        """The contractible type's model has no covers; its line names the
        lone element instead of being blank."""
        code, out, _ = run(capsys, "min-model", "--circles", "0", "--spheres", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["minimum points: 1", "models: 1"]
        assert all(line.strip() and line == line.rstrip() for line in lines), lines

    def test_min_model_not_found(self, capsys):
        code, out, _ = run(
            capsys, "min-model", "--circles", "0", "--spheres", "9", "--max-n", "8"
        )
        assert code == 0
        assert "no model" in out


class TestVerifyCommand:
    def test_verify_json_passes(self, capsys):
        code, out, err = run(capsys, "verify-paper", "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert all(line["pass"] for line in lines)
        checks = {line["check"] for line in lines}
        assert "models of (2 circles, 1 spheres) on 8 points" in checks

    def test_verify_json_pinned(self, capsys):
        """The first 102 lines of ``verify-paper --json``, byte for byte;
        lines appended after them are not covered."""
        code, out, _ = run(capsys, "verify-paper", "--json")
        assert code == 0
        head = "".join(line + "\n" for line in out.splitlines()[:102])
        assert hashlib.sha256(head.encode()).hexdigest() == (
            "1ac21f6496f6ef3d0ece80d7f6e118be2953e4b549fc723d9b7fc8970a26e78e"
        )

    def test_verify_table_stable(self, capsys):
        code1, out1, _ = run(capsys, "verify-paper")
        code2, out2, _ = run(capsys, "verify-paper")
        assert code1 == code2 == 0
        assert out1 == out2
