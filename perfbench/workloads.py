"""The benchmark's workloads and the correctness gates run on their outputs.

Each workload is a closed loop with one client: a single process answers one
call at a time.  ``make_inputs`` runs once per run, outside the timed
set-up; ``run_pass`` is the timed part and returns the answers plus the
``perf_counter`` start and end of every user call (an ``inventory`` call on
the census workloads, one poset on ``queries``); ``check`` gates the answers of the first pass in full, and every later pass
must reproduce them exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

import queries

# Class totals recorded from the generators (ROADMAP baseline and tests).
CENSUS_TOTALS = {(7, 1): 18, (9, 1): 320, (7, 2): 7, (8, 2): 53, (9, 2): 451}
RELABEL_SAMPLE = 64


@dataclass(frozen=True)
class Sizes:
    census: dict[str, tuple[tuple[int, int], ...]]  # workload -> (n, height) calls
    random_queries: int
    fixed: tuple[str, ...]  # fixed query members
    catalog: int | None  # catalog figures among the queries (None: all)


FULL = Sizes(
    census={"census-h2": ((7, 2), (8, 2), (9, 2)), "census-h1": ((9, 1),)},
    random_queries=queries.RANDOM_ITEMS,
    fixed=("chain10", "sphere5", "crown7"),
    catalog=None,
)
SMOKE = Sizes(
    census={"census-h2": ((7, 2),), "census-h1": ((7, 1),)},
    random_queries=6,
    fixed=("crown7",),
    catalog=4,
)


class Gates:
    """Tally of correctness checks; every check counts, pass or fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


@dataclass
class PassResult:
    answers: object
    calls: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per user call
    classes: int = 0  # isomorphism classes produced


def trimmed(per_degree) -> tuple:
    """Drop trailing zero or empty degrees, so spaces whose complexes have
    different dimensions compare equal."""
    out = list(per_degree)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def check_profile(gates: Gates, where: str, profile) -> None:
    """Oracle-free homology checks: Euler characteristic against the
    alternating Betti sum, and GF(2) rank against integer rank minus the
    number of even invariant factors, for every boundary map."""
    alternating = sum((-1) ** d * b for d, b in enumerate(profile.betti))
    gates.check("euler", profile.euler == alternating, where)
    rank = 0  # integer rank of d_d, from betti[d] = f[d] - rank(d_d) - rank(d_{d+1})
    for d, f2 in enumerate(profile.f2_ranks):
        rank = profile.f_vector[d] - profile.betti[d] - rank
        even = sum(1 for t in profile.torsion[d] if t % 2 == 0)
        gates.check("gf2_rank", f2 == rank - even, f"{where} d{d + 1}")


# -- census ---------------------------------------------------------------------


class Census:
    def __init__(self, name: str):
        self.name = name

    def make_inputs(self, fs, seed: int, sizes: Sizes):
        """The calls, plus the seeded relabellings the gates apply to classes."""
        rng = random.Random(seed)
        calls = sizes.census[self.name]
        relabels = {}
        for n, height in calls:
            total = CENSUS_TOTALS[(n, height)]
            picks = rng.sample(range(total), min(RELABEL_SAMPLE, total))
            relabels[(n, height)] = [(i, rng.sample(range(n), n)) for i in picks]
        return calls, relabels

    def run_pass(self, fs, inputs, tracer=None) -> PassResult:
        calls, _ = inputs
        out = PassResult(answers={})
        for n, height in calls:
            if tracer is not None:
                tracer.item = f"n{n}h{height}"
            start = perf_counter()
            inv = fs.classify.inventory(n, height, workers=1)
            out.calls.append((start, perf_counter()))
            out.answers[(n, height)] = inv
            out.classes += len(inv.records)
        return out

    @staticmethod
    def summary(answers):
        return {
            key: [(r.code, r.label_key, r.profile.betti) for r in inv.records]
            for key, inv in answers.items()
        }

    def check(self, fs, inputs, answers, gates: Gates) -> None:
        _, relabels = inputs
        for (n, height), inv in answers.items():
            where = f"n={n} h={height}"
            records = inv.records
            gates.check("census_total", len(records) == CENSUS_TOTALS[(n, height)], f"{where}: {len(records)}")
            for claim in fs.verify.MODEL_COUNTS:
                if claim.n == n and height == (2 if claim.spheres else 1):
                    got = inv.count_for(claim.circles, claim.spheres)
                    gates.check("model_count", got == claim.expected, f"{where} {claim}: {got}")
            codes = {r.code for r in records}
            gates.check("dual_closed", {r.dual_code for r in records} == codes, where)
            for r in records:
                check_profile(gates, f"{where} {r.code!r}", r.profile)
                if height == 1:
                    gates.check("h1_label", r.wedge is not None and r.wedge.pi1_verified
                                and r.label_key == (r.profile.betti[1], 0), r.code)
            for index, sigma in relabels[(n, height)]:
                r = records[index % len(records)]
                copy = r.poset().permuted(sigma)
                gates.check("relabel_code", copy.canonical_code == r.code, r.code)


# -- queries --------------------------------------------------------------------


@dataclass
class QueryAnswer:
    name: str
    code: bytes
    iso: bool
    core: object
    profile: object
    status: object


def _known_answers(fs) -> dict[str, tuple[int, ...]]:
    """Betti signatures the fixed members must have."""
    known = {"chain10": (1,), "sphere5": (1, 0, 0, 0, 0, 1), "crown7": (1, 1)}
    for fig in fs.figures.FIGURES.values():
        if fig.is_core and fig.wedge is not None:
            known[fig.id] = trimmed((1,) + fig.wedge)
    return known


class Queries:
    name = "queries"

    def make_inputs(self, fs, seed: int, sizes: Sizes):
        figs = sorted(fs.figures.FIGURES.values(), key=lambda f: f.id)[: sizes.catalog]
        catalog = [(f.id, f.elements, f.covers) for f in figs]
        return queries.generate(seed, sizes.random_queries, sizes.fixed, catalog), _known_answers(fs)

    def run_pass(self, fs, inputs, tracer=None) -> PassResult:
        stream, _ = inputs
        parse = fs.formats.parse_poset_text
        poset_homology = fs.complexes.poset_homology
        out = PassResult(answers=[])
        for name, text, copy_text in stream:
            if tracer is not None:
                tracer.item = name
            start = perf_counter()
            p = parse(text)
            code = p.canonical_code
            iso = p.is_isomorphic(parse(copy_text))
            core = p.core()
            profile = poset_homology(p)
            status = None
            if p.is_connected and p.height <= 2:
                status = fs.presentations.tietze_simplify(fs.presentations.poset_presentation(p))
            out.calls.append((start, perf_counter()))
            out.answers.append(QueryAnswer(name, code, iso, core, profile, status))
        out.classes = len({a.code for a in out.answers})
        return out

    @staticmethod
    def summary(answers):
        return [
            (a.name, a.code, a.iso, a.core.n, a.profile.betti, a.profile.torsion,
             None if a.status is None else (a.status.kind, a.status.rank))
            for a in answers
        ]

    def check(self, fs, inputs, answers, gates: Gates) -> None:
        _, known = inputs
        for a in answers:
            gates.check("relabel_code", a.iso, a.name)
            check_profile(gates, a.name, a.profile)
            core_profile = fs.complexes.poset_homology(a.core)
            gates.check(
                "core_keeps_betti",
                trimmed(core_profile.betti) == trimmed(a.profile.betti)
                and trimmed(core_profile.torsion) == trimmed(a.profile.torsion),
                a.name,
            )
            if a.status is not None and a.status.is_conclusive:
                rank = a.status.rank or 0
                betti1 = a.profile.betti[1] if len(a.profile.betti) > 1 else 0
                gates.check("pi1_rank", rank == betti1, f"{a.name}: {a.status.describe()}")
            if a.name in known:
                got = trimmed(a.profile.betti)
                gates.check("known_betti", got == known[a.name], f"{a.name}: {got}")
            if a.name == "chain10":
                gates.check("chain_core", a.core.n == 1, a.core.n)


WORKLOADS = {
    "census-h2": Census("census-h2"),
    "census-h1": Census("census-h1"),
    "queries": Queries(),
}
