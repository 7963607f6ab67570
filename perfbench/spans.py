"""Spans around calls into the package's public functions, recorded from
outside the package.

A :class:`Tracer` swaps each function in TARGETS, wherever a loaded
``finspace`` module holds it, for a wrapper that records a span (name,
start, end, parent span, item id) and per-layer counters, and puts the
originals back on :meth:`Tracer.uninstall`.  ``Poset.canonical_code`` is a
cached property; its wrapper sits inside the cache, so it runs exactly when a
code is computed, including inside the enumerators.  Self times are computed
from the spans after the run, through the run's clock.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from time import perf_counter

# (module, attribute) of every traced callable; the span name is the module's
# last component and the attribute's last component, e.g. "posets.core".
TARGETS = (
    ("finspace.enumeration", "enumerate_height1_cores"),
    ("finspace.enumeration", "enumerate_height2_cores"),
    ("finspace.posets", "Poset.canonical_code"),
    ("finspace.posets", "Poset.core"),
    ("finspace.complexes", "order_complex"),
    ("finspace.complexes", "homology"),
    ("finspace.complexes", "smith_normal_form"),
    ("finspace.complexes", "f2_rank"),
    ("finspace.presentations", "presentation"),
    ("finspace.presentations", "poset_presentation"),
    ("finspace.presentations", "tietze_simplify"),
    ("finspace.classify", "classify_poset"),
    ("finspace.figures", "matches"),
    ("finspace.formats", "parse_poset_text"),
)

ENUMERATORS = ("enumeration.enumerate_height1_cores", "enumeration.enumerate_height2_cores")

# per-layer busy time: the summed self time of these spans
BUSY = {
    "enumeration.busy_s": ENUMERATORS,
    "posets.canonical_code.busy_s": ("posets.canonical_code",),
    "posets.core.busy_s": ("posets.core",),
    "complexes.order_complex.busy_s": ("complexes.order_complex",),
    "complexes.homology.busy_s": ("complexes.homology",),
    "complexes.snf.busy_s": ("complexes.smith_normal_form",),
    "complexes.f2_rank.busy_s": ("complexes.f2_rank",),
    "presentations.presentation.busy_s": (
        "presentations.presentation",
        "presentations.poset_presentation",
    ),
    "presentations.tietze.busy_s": ("presentations.tietze_simplify",),
    "classify.classify_poset.busy_s": ("classify.classify_poset",),
    "figures.matches.busy_s": ("figures.matches",),
    "formats.parse.busy_s": ("formats.parse_poset_text",),
}


def _counts(name: str, args, result, enumerating: bool) -> dict[str, int]:
    """Work done by one call, counted at the same boundary as its span."""
    if name in ENUMERATORS:
        return {"enumeration.classes": len(result)}
    if name == "posets.canonical_code":
        return {"posets.canonical_code.calls": 1, "enumeration.coded": int(enumerating)}
    if name == "posets.core":
        return {"posets.core.points_removed": args[0].n - result.n}
    if name == "complexes.order_complex":
        return {"complexes.simplices": sum(result.f_vector)}
    if name == "complexes.smith_normal_form":
        return {"complexes.snf.entries": args[0].rows * args[0].cols}
    if name == "presentations.presentation":
        return {"presentations.generators": result.num_generators}
    if name == "presentations.tietze_simplify":
        return {"presentations.inconclusive": int(not result.is_conclusive)}
    if name == "classify.classify_poset":
        return {"classify.records": 1}
    return {}


COUNTS = (
    "enumeration.classes",
    "enumeration.coded",
    "posets.canonical_code.calls",
    "posets.core.points_removed",
    "complexes.simplices",
    "complexes.snf.entries",
    "presentations.generators",
    "presentations.inconclusive",
    "classify.records",
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, modules: dict[str, object]):
        self.modules = modules
        self.item: object = None
        self.spans: list[tuple] = []  # (name, start, end, parent index, item)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []  # indices of the open spans
        self._enumerating = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.item))
            self._stack.append(index)
            enumerating = self._enumerating > 0
            if name in ENUMERATORS:
                self._enumerating += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, perf_counter(), parent, self.item)
                self._stack.pop()
                if name in ENUMERATORS:
                    self._enumerating -= 1
            for key, value in _counts(name, args, result, enumerating).items():
                self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        for module_name, attr in TARGETS:
            module = self.modules[module_name]
            name = f"{module_name.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, cached_property):
                    replacement = cached_property(self._wrap(name, original.func))
                    replacement.__set_name__(cls, member)
                else:
                    replacement = self._wrap(name, original)
                self._undo.append((cls, member, original))
                setattr(cls, member, replacement)
                continue
            original = getattr(module, attr)
            replacement = self._wrap(name, original)
            # callers imported the function by name, so replace every binding
            for holder in self.modules.values():
                if getattr(holder, attr, None) is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, elapsed) -> dict[str, float]:
        """Per-layer metrics; ``elapsed(start, end)`` converts a span's stamps
        to seconds.  A span's self time is its duration minus its children's."""
        self_time: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            took = elapsed(start, end)
            self_time[name] += took
            if parent >= 0:
                self_time[self.spans[parent][0]] -= took
        out: dict[str, float] = {
            metric: sum(self_time[s] for s in names) for metric, names in BUSY.items()
        }
        out.update({key: self.counts[key] for key in COUNTS})
        coded = self.counts["enumeration.coded"]
        out["enumeration.yield"] = self.counts["enumeration.classes"] / coded if coded else 0.0
        return out
