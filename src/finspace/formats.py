"""Reading and writing posets: a line-oriented text format, a JSON
equivalent, and DOT export of the Hasse diagram.

Text format, one space per file::

    # optional comment
    poset 4
    elements c1 c2 a1 a2
    cover c1 a1
    cover c1 a2
    cover c2 a1
    cover c2 a2

JSON carries the same data as ``{"n": ..., "elements": [...], "covers":
[[lower, upper], ...]}``.  Both writers emit covers sorted by index, so a
round trip is byte-stable.
"""

from __future__ import annotations

import json
from pathlib import Path

from finspace.posets import Poset, PosetError


class PosetFormatError(ValueError):
    """Malformed poset file."""


def parse_poset_text(text: str) -> Poset:
    n: int | None = None
    elements: list[str] | None = None
    covers: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "poset":
            if n is not None:
                raise PosetFormatError(f"line {lineno}: repeated poset header")
            if len(fields) != 2 or not (fields[1].isascii() and fields[1].isdigit()):
                raise PosetFormatError(f"line {lineno}: expected 'poset <n>'")
            n = int(fields[1])
        elif keyword == "elements":
            if n is None:
                raise PosetFormatError(f"line {lineno}: elements before poset header")
            if elements is not None:
                raise PosetFormatError(f"line {lineno}: repeated elements line")
            elements = fields[1:]
            if len(elements) != n:
                raise PosetFormatError(
                    f"line {lineno}: expected {n} element names, got {len(elements)}"
                )
        elif keyword == "cover":
            if len(fields) != 3:
                raise PosetFormatError(f"line {lineno}: expected 'cover <lower> <upper>'")
            covers.append((fields[1], fields[2]))
        else:
            raise PosetFormatError(f"line {lineno}: unknown keyword {keyword!r}")
    if n is None or elements is None:
        raise PosetFormatError("missing poset or elements line")
    return _build(n, elements, covers)


def _build(n: int, elements: list[str], covers: list[tuple[str, str]]) -> Poset:
    index = {name: i for i, name in enumerate(elements)}
    if len(index) != len(elements):
        raise PosetFormatError("duplicate element names")
    pairs = []
    for lo, hi in covers:
        if lo not in index or hi not in index:
            raise PosetFormatError(f"cover ({lo}, {hi}) names unknown elements")
        pairs.append((index[lo], index[hi]))
    try:
        return Poset.from_covers(n, pairs, elements)
    except PosetError as exc:
        raise PosetFormatError(str(exc)) from exc


def poset_to_text(p: Poset) -> str:
    lines = [f"poset {p.n}", "elements " + " ".join(p.labels)]
    for lo, hi in p.covers:
        lines.append(f"cover {p.labels[lo]} {p.labels[hi]}")
    return "\n".join(lines) + "\n"


def parse_poset_json(text: str) -> Poset:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PosetFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise PosetFormatError("top-level JSON value must be an object")
    try:
        n = obj["n"]
        elements = obj["elements"]
        covers = obj["covers"]
    except KeyError as exc:
        raise PosetFormatError(f"missing key {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int):
        raise PosetFormatError("'n' must be an integer")
    if not isinstance(elements, list) or not isinstance(covers, list):
        raise PosetFormatError("'elements' and 'covers' must be lists")
    pairs = []
    for item in covers:
        if not isinstance(item, list) or len(item) != 2:
            raise PosetFormatError("covers must be two-element arrays")
        pairs.append((str(item[0]), str(item[1])))
    names = [str(e) for e in elements]
    for name in names:
        # the text format splits names on whitespace and cuts lines at '#'
        if name.split() != [name] or "#" in name:
            raise PosetFormatError(
                f"element name {name!r} is empty or holds whitespace or '#'"
            )
    return _build(n, names, pairs)


def poset_to_json(p: Poset) -> str:
    obj = {
        "n": p.n,
        "elements": list(p.labels),
        "covers": [[p.labels[lo], p.labels[hi]] for lo, hi in p.covers],
    }
    return json.dumps(obj, separators=(", ", ": "))


def poset_to_dot(p: Poset) -> str:
    """Hasse diagram in DOT: edges drawn lower -> upper, one rank per height.
    Labels are quoted DOT IDs, with ``\\`` and ``"`` escaped."""
    ids = ['"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in p.labels]
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=circle];"]
    by_height: dict[int, list[int]] = {}
    for i in range(p.n):
        by_height.setdefault(p.element_heights[i], []).append(i)
    for h in sorted(by_height):
        names = "; ".join(ids[i] for i in sorted(by_height[h]))
        lines.append(f"  {{ rank=same; {names}; }}")
    for lo, hi in p.covers:
        lines.append(f"  {ids[lo]} -> {ids[hi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_poset(path: str | Path) -> Poset:
    """Read a poset file; '.json' selects the JSON format, anything else text."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PosetFormatError(f"cannot read {path}: {exc}") from exc
    if path.suffix == ".json":
        return parse_poset_json(text)
    return parse_poset_text(text)
