"""Command-line interface.

One verb per pipeline: ``show``, ``core``, ``dual``, ``iso``, ``homology``,
``pi1`` operate on poset files; ``enumerate`` and ``classify`` run the core
generators; ``min-model`` searches for minimal models; ``verify-paper``
replays the whole published-claims expectation table; ``export`` converts a
poset file to DOT or JSON.

Exit status: 0 success, 1 failed verification checks, 2 usage errors,
3 malformed poset files and disconnected ones given to ``pi1`` (which
takes a connected poset of any height and reads its presentation off the
Hasse diagram), 4 a homology profile whose order complex would exceed
``complexes.SIMPLEX_BUDGET`` simplices (a core that is too large and is
neither cellular nor, at height at most 2, certified by its pi1).  Machine
output (JSON, JSON lines, DOT) is byte-stable across runs; progress
counters go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections import Counter

from finspace import figures
from finspace.classify import classify_cores, min_model_search
from finspace.complexes import SimplexBudgetExceeded, poset_homology
from finspace.enumeration import (
    SizeTooLarge,
    check_cap,
    enumerate_height1_cores,
    enumerate_height2_cores,
)
from finspace.formats import (
    PosetFormatError,
    load_poset,
    poset_to_dot,
    poset_to_json,
    poset_to_text,
)
from finspace.posets import Poset, PosetError
from finspace.presentations import poset_presentation, tietze_simplify
from finspace.verify import verify_paper

USAGE_ERROR = 2
DATA_ERROR = 3
BUDGET_EXCEEDED = 4


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``, so that a bad count is a
    usage error rather than a traceback."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finspace",
        description="Finite T0-spaces: cores, homology, and classification of small models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", help="print a summary of a poset file")
    p_show.add_argument("file")

    p_core = sub.add_parser("core", help="remove beat points and print the core")
    p_core.add_argument("file")

    p_dual = sub.add_parser("dual", help="print the opposite poset")
    p_dual.add_argument("file")

    p_iso = sub.add_parser("iso", help="test two poset files for isomorphism")
    p_iso.add_argument("file_a")
    p_iso.add_argument("file_b")

    p_hom = sub.add_parser("homology", help="homology profile of the order complex")
    p_hom.add_argument("file")

    p_pi1 = sub.add_parser("pi1", help="fundamental group presentation and status")
    p_pi1.add_argument("file")

    p_enum = sub.add_parser("enumerate", help="enumerate cores up to isomorphism")
    p_enum.add_argument("--n", type=_int_at_least(1), required=True)
    p_enum.add_argument("--height", type=int, choices=(1, 2), required=True)
    p_enum.add_argument("--jsonl", help="write classification records to this file")

    p_cls = sub.add_parser("classify", help="inventory of cores grouped by wedge type")
    p_cls.add_argument("--n", type=_int_at_least(1), required=True)
    p_cls.add_argument("--height", type=int, choices=(1, 2), required=True)

    p_min = sub.add_parser("min-model", help="search for minimal models of a wedge")
    p_min.add_argument("--circles", type=_int_at_least(0), required=True)
    p_min.add_argument("--spheres", type=_int_at_least(0), required=True)
    p_min.add_argument("--max-n", type=_int_at_least(1), default=8)

    p_ver = sub.add_parser("verify-paper", help="re-check every published claim")
    p_ver.add_argument("--json", action="store_true", dest="as_json")

    p_exp = sub.add_parser("export", help="convert a poset file to DOT or JSON")
    group = p_exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true", dest="as_json")
    p_exp.add_argument("file")

    return parser


def _load(path: str) -> Poset:
    try:
        return load_poset(path)
    except (PosetFormatError, PosetError) as exc:
        raise PosetFormatError(f"{path}: {exc}") from exc


def _cmd_show(args) -> int:
    p = _load(args.file)
    part = p.role_partition()

    def names(indices) -> str:
        return " ".join(sorted(p.labels[i] for i in indices)) or "-"

    print(f"points: {p.n}")
    print(f"height: {p.height}")
    print(f"connected: {'yes' if p.is_connected else 'no'}")
    print(f"homogeneous: {'yes' if p.is_homogeneous else 'no'}")
    print(f"maximal: {names(part.mxl)}")
    print(f"middle: {names(part.middle)}")
    print(f"minimal: {names(part.mnl)}")
    beats = p.beat_points()
    print(f"beat points: {names(beats)}")
    print(f"core size: {p.core().n}")
    matches = figures.matches(p)
    if matches:
        print("matches figures: " + " ".join(matches))
    return 0


def _cmd_core(args) -> int:
    p = _load(args.file)
    sys.stdout.write(poset_to_text(p.core()))
    return 0


def _cmd_dual(args) -> int:
    p = _load(args.file)
    sys.stdout.write(poset_to_text(p.dual()))
    return 0


def _cmd_iso(args) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    print("isomorphic" if a.is_isomorphic(b) else "not isomorphic")
    return 0


def _cmd_homology(args) -> int:
    p = _load(args.file)
    print(poset_homology(p).to_json())
    return 0


def _cmd_pi1(args) -> int:
    p = _load(args.file)
    if not p.is_connected:
        print("error: space is not connected; no presentation", file=sys.stderr)
        return DATA_ERROR
    pres = poset_presentation(p)
    status = tietze_simplify(pres)
    print(pres.to_text())
    print(status.describe())
    return 0


def _enumerated(args):
    if args.height == 1:
        cores = enumerate_height1_cores(args.n)
    else:

        def progress(shape, found) -> None:
            print(f"shape {shape.m0}+{shape.m1}+{shape.m2}: {found} cores", file=sys.stderr)

        cores = enumerate_height2_cores(args.n, progress=progress)
    print(f"{len(cores)} cores", file=sys.stderr)
    return cores


def _popped(cores: list[Poset]):
    """The cores in order, each dropped from the list as it is handed out,
    so that none outlives its output line."""
    cores.reverse()
    while cores:
        yield cores.pop()


def _core_line(p: Poset) -> str:
    covers = " ".join(f"{p.labels[lo]}<{p.labels[hi]}" for lo, hi in p.covers)
    return f"{p.canonical_code.decode('ascii')}\t{p.n}\t{covers}"


def _cmd_enumerate(args) -> int:
    check_cap(args.n, args.height)  # before --jsonl truncates its file
    try:  # before enumerating, so that a bad path wastes no enumeration
        out = open(args.jsonl, "w") if args.jsonl else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write --jsonl file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    with out as fh:
        cores = _popped(_enumerated(args))
        if args.jsonl:
            lines = (rec.to_json_line() for rec in classify_cores(cores))
        else:
            lines = map(_core_line, cores)
        for line in lines:
            fh.write(line + "\n")
    return 0


def _cmd_classify(args) -> int:
    """Count labels, and verified labels, as the records come; no record is
    kept, and each core is dropped once it is classified."""
    check_cap(args.n, args.height)
    generate = enumerate_height1_cores if args.height == 1 else enumerate_height2_cores
    counts = Counter()
    verified = Counter()
    for rec in classify_cores(_popped(generate(args.n))):
        counts[rec.label_key] += 1
        verified[rec.label_key] += rec.wedge is not None and rec.wedge.pi1_verified
    print(f"cores: {sum(counts.values())}")
    for key, count in sorted(counts.items(), key=lambda kv: (kv[0] is None, kv[0])):
        if key is None:
            print(f"unrecognized: {count}")
        else:
            print(
                f"{key[0]} circles, {key[1]} spheres: {count} "
                f"(pi1 verified for {verified[key]})"
            )
    return 0


def _cmd_min_model(args) -> int:
    res = min_model_search(args.circles, args.spheres, args.max_n)
    if not res.found:
        print(f"no model with at most {args.max_n} points")
        return 0
    print(f"minimum points: {res.n_min}")
    print(f"models: {len(res.records)}")
    for rec in res.records:
        # with no covers (the one-point model), the elements themselves
        covers = " ".join(f"{rec.labels[lo]}<{rec.labels[hi]}" for lo, hi in rec.covers)
        covers = covers or " ".join(rec.labels)
        figs = (" figures: " + " ".join(rec.figure_matches)) if rec.figure_matches else ""
        print(f"  {covers}{figs}")
    return 0


def _cmd_verify(args) -> int:
    report = verify_paper(progress=lambda line: print(line, file=sys.stderr))
    if args.as_json:
        print(report.to_json_lines())
    else:
        print(report.to_table())
    return 0 if report.passed else 1


def _cmd_export(args) -> int:
    p = _load(args.file)
    if args.dot:
        sys.stdout.write(poset_to_dot(p))
    else:
        print(poset_to_json(p))
    return 0


_HANDLERS = {
    "show": _cmd_show,
    "core": _cmd_core,
    "dual": _cmd_dual,
    "iso": _cmd_iso,
    "homology": _cmd_homology,
    "pi1": _cmd_pi1,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "min-model": _cmd_min_model,
    "verify-paper": _cmd_verify,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _HANDLERS[args.command](args)
    except PosetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except SizeTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SimplexBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXCEEDED


if __name__ == "__main__":
    sys.exit(main())
