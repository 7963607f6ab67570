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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("poset 2\nposet 2\n", "line 2: repeated poset header"),
            ("elements a b\n", "line 1: elements before poset header"),
            ("poset 2\nelements a b\nelements a b\n", "line 3: repeated elements line"),
            ("poset 3\nelements a b\n", "line 2: expected 3 element names, got 2"),
            ("poset 2 3\n", "line 1: expected 'poset <n>'"),
            ("poset 2\n", "missing poset or elements line"),
            ("poset 1\nelements a\nedge a a\n", "line 3: unknown keyword 'edge'"),
            (
                "poset 2\nelements a b # names\ncover a b # first\ncover b a x\n",
                "line 4: expected 'cover <lower> <upper>'",
            ),
            ("poset\t2\nelements\ta\tb\ncover a\tb\n\tbogus\n", "line 4: unknown keyword 'bogus'"),
            ("\n# only a comment\n   \n\t\nposet two\n", "line 5: expected 'poset <n>'"),
            (
                "  # indented comment\n\nposet 2\nelements a b\n#\ncover a\n",
                "line 6: expected 'cover <lower> <upper>'",
            ),
            ("poset 2\r\nelements a b\r\ncover a b\r\nfoo\r\n", "line 4: unknown keyword 'foo'"),
            ("poset 2\nelements a b\ncover a b\x0bx\n", "line 4: unknown keyword 'x'"),
            ("poset 2\nelements a b\ncover a z\ncover a b\n", "cover (a, z) names unknown elements"),
            ("poset 2\nelements a b\ncover a b\ncover z a\n", "cover (z, a) names unknown elements"),
            ("poset 2\nelements a a\ncover a z\n", "duplicate element names"),
            ("poset 3\nelements a a b\ncover q z\n", "duplicate element names"),
            ("poset 2\nelements a b\ncover a b\ncover a b\n", "pair (a, b) is listed twice"),
            (
                "poset 3\nelements a b c\ncover a b\ncover b c\ncover a c\n",
                "pair (a, c) is implied through element b",
            ),
            ("poset 2\nelements a b\ncover a b\ncover b a\n", "elements a and b lie on a cycle"),
            ("poset 1\nelements a\ncover a a\n", "cover (a, a) relates an element to itself"),
            ("poset 0\nelements\n", "element count must be 1..64, got 0"),
        ],
        ids=[
            "repeated-header",
            "elements-before-header",
            "repeated-elements",
            "wrong-name-count",
            "header-two-numbers",
            "no-elements",
            "unknown-keyword",
            "hash-mid-line",
            "tabs",
            "comment-lines-before-error",
            "indented-comment-before-error",
            "crlf",
            "vertical-tab-breaks-line",
            "unknown-name-first-cover",
            "unknown-name-later-cover",
            "duplicate-names-before-unknown-name",
            "duplicate-names-before-unknown-pair",
            "pair-twice",
            "pair-implied",
            "cycle",
            "self-cover",
            "empty",
        ],
    )
    def test_error_messages(self, text, message):
        """The exact message of each malformed text."""
        with pytest.raises(PosetFormatError) as info:
            parse_poset_text(text)
        assert str(info.value) == message


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
