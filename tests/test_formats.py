import pytest

from finspace import figures
from finspace.formats import (
    PosetFormatError,
    parse_poset_json,
    parse_poset_text,
    poset_to_dot,
    poset_to_json,
    poset_to_text,
)
from finspace.posets import Poset, fence


class TestTextFormat:
    def test_round_trip(self):
        for fid in ("fig04a", "fig17a", "fig21c"):
            p = figures.poset(fid)
            again = parse_poset_text(poset_to_text(p))
            assert (again.n, again.covers) == (p.n, p.covers)
            assert again.labels == p.labels

    def test_comments_and_blank_lines(self):
        text = "# a circle\n\nposet 4\nelements c1 c2 a1 a2\n" + "".join(
            f"cover c{i} a{j}\n" for i in (1, 2) for j in (1, 2)
        )
        p = parse_poset_text(text)
        assert p.is_isomorphic(fence())

    def test_missing_header(self):
        with pytest.raises(PosetFormatError):
            parse_poset_text("elements a b\n")

    def test_wrong_element_count(self):
        with pytest.raises(PosetFormatError):
            parse_poset_text("poset 3\nelements a b\n")

    def test_unknown_keyword(self):
        with pytest.raises(PosetFormatError):
            parse_poset_text("poset 1\nelements a\nedge a a\n")

    def test_unknown_cover_name(self):
        with pytest.raises(PosetFormatError):
            parse_poset_text("poset 2\nelements a b\ncover a z\n")

    def test_cycle_reported_as_format_error(self):
        with pytest.raises(PosetFormatError):
            parse_poset_text("poset 2\nelements a b\ncover a b\ncover b a\n")


class TestJsonFormat:
    def test_round_trip(self):
        for fid in ("fig14c", "fig05b"):
            p = figures.poset(fid)
            again = parse_poset_json(poset_to_json(p))
            assert (again.n, again.covers) == (p.n, p.covers)

    def test_text_json_agree(self):
        p = figures.poset("fig16b")
        a = parse_poset_json(poset_to_json(p))
        b = parse_poset_text(poset_to_text(p))
        assert (a.n, a.covers) == (b.n, b.covers)

    def test_bad_json(self):
        with pytest.raises(PosetFormatError):
            parse_poset_json("{not json")

    def test_missing_key(self):
        with pytest.raises(PosetFormatError):
            parse_poset_json('{"n": 2, "elements": ["a", "b"]}')

    def test_bad_cover_shape(self):
        with pytest.raises(PosetFormatError):
            parse_poset_json('{"n": 1, "elements": ["a"], "covers": [["a"]]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "elements": ["a", "b"], "covers": 5}',
            '{"n": 1, "elements": "a", "covers": []}',
            '{"n": true, "elements": ["a"], "covers": []}',
            '{"n": 10000000000, "elements": ["a"], "covers": []}',
            '{"n": 2, "elements": ["a b", "c#d"], "covers": [["a b", "c#d"]]}',
            '{"n": 2, "elements": ["a", "c#d"], "covers": []}',
            '{"n": 2, "elements": ["a", "b\\tc"], "covers": []}',
            '{"n": 1, "elements": [""], "covers": []}',
        ],
        ids=[
            "covers-number",
            "elements-string",
            "n-boolean",
            "n-huge",
            "name-space",
            "name-hash",
            "name-tab",
            "name-empty",
        ],
    )
    def test_bad_field(self, text):
        with pytest.raises(PosetFormatError):
            parse_poset_json(text)


class TestDot:
    def test_fence_dot(self):
        dot = poset_to_dot(fence())
        assert dot.startswith("digraph poset {")
        assert '"c1" -> "a1";' in dot
        assert '{ rank=same; "c1"; "c2"; }' in dot

    def test_deterministic(self):
        p = figures.poset("fig18a")
        assert poset_to_dot(p) == poset_to_dot(p)

    def test_ranks_by_height(self):
        p = Poset.chain(3, ["x", "y", "z"])
        dot = poset_to_dot(p)
        assert dot.index('rank=same; "x"') < dot.index('rank=same; "y"')


    def test_quotes_and_backslashes_escaped(self):
        """A label may hold ``"`` or ``\\`` in the text format; DOT gets
        them escaped inside its quoted IDs."""
        p = parse_poset_text('poset 2\nelements a"b c\\d\ncover a"b c\\d\n')
        assert p.labels == ('a"b', "c\\d")
        dot = poset_to_dot(p)
        assert '{ rank=same; "a\\"b"; }' in dot
        assert '{ rank=same; "c\\\\d"; }' in dot
        assert '  "a\\"b" -> "c\\\\d";' in dot.splitlines()
