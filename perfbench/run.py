"""The finspace benchmark.

    python3 perfbench/run.py --workload census-h2 --seed 1 --seconds 40 --trace 0

Imports the package from ``src/`` of the checkout this file sits in and runs
whole passes of the workload until ``--seconds`` is used up, each after fresh
set-ups (import and figure-catalog warm-up).  The inputs are generated once,
from ``--seed``, outside the timed set-up.  The answers of every pass are
gated (see ``workloads.py``).  Every timing is taken on a
:class:`refclock.ReferenceClock`, in seconds at a reference core speed, and
reported as the median over the run.  With ``--trace 0`` the report holds
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate, and the report holds the per-layer metrics of the traced passes
and the tracing overhead.  ``--workload all`` runs every workload, each in its
own child process, one after the other.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the gates, ``metrics`` maps each metric
name to its value and unit.  A JSON copy of the run, with the environment,
the raw pass times and, for traced runs, every span, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from refclock import ReferenceClock  # noqa: E402
from workloads import FULL, Gates, WORKLOADS  # noqa: E402

# fewest (untraced, traced) passes a run makes, even past --seconds
MIN_PASSES = {False: (3, 0), True: (2, 2)}
# set-ups timed before each pass; a queries run makes only a few passes
SETUPS_PER_PASS = 3
PROGRAM_MODULES = (
    "finspace.posets",
    "finspace.complexes",
    "finspace.presentations",
    "finspace.enumeration",
    "finspace.figures",
    "finspace.formats",
    "finspace.classify",
    "finspace.verify",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable src/finspace."""


def load_program() -> SimpleNamespace:
    """Import the package afresh from the checkout's src/."""
    if not (SRC / "finspace" / "__init__.py").is_file():
        raise ProgramMissing(f"no package at {SRC / 'finspace'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "finspace" or m.startswith("finspace.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in PROGRAM_MODULES}
    if Path(sys.modules["finspace"].__file__).resolve().parent != SRC / "finspace":
        raise ProgramMissing("finspace was imported from outside the checkout")
    return SimpleNamespace(modules=modules, **{n.split(".")[1]: m for n, m in modules.items()})


def set_up():
    """The program's own set-up: import and figure-catalog warm-up."""
    fs = load_program()
    fs.figures.classes_by_code()
    return fs


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: never interpolates between unlike calls."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "finspace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=FULL) -> dict:
    """One benchmark run; returns the result line plus a detailed report."""
    workload = WORKLOADS[name]
    gates = Gates()
    setups: list[tuple[float, float]] = []  # perf_counter (start, end) of each set-up
    passes: list[dict] = []
    first = inputs = None
    start = perf_counter()
    with ReferenceClock() as clock:
        while True:
            # fresh set-ups before every pass spread the set-up samples over the
            # whole run, like the passes themselves
            for _ in range(SETUPS_PER_PASS):
                began = perf_counter()
                fs = set_up()
                setups.append((began, perf_counter()))
            if inputs is None:
                # generated once and outside set_up, so setup_s times only the program
                inputs = workload.make_inputs(fs, seed, sizes)
            n_traced = sum(1 for p in passes if p["tracer"] is not None)
            tracer = spans.Tracer(fs.modules) if trace and n_traced < len(passes) - n_traced else None
            gc.collect()
            if tracer is not None:
                tracer.install()
            try:
                began = perf_counter()
                result = workload.run_pass(fs, inputs, tracer)
                ended = perf_counter()
            finally:
                if tracer is not None:
                    tracer.uninstall()
            summary = workload.summary(result.answers)
            if first is None:
                first = summary
                workload.check(fs, inputs, result.answers, gates)
            else:
                gates.check("same_as_first_pass", summary == first)
            passes.append({"span": (began, ended), "calls": result.calls,
                           "classes": result.classes, "tracer": tracer})
            del result, summary
            need_untraced, need_traced = MIN_PASSES[trace]
            n_traced += tracer is not None
            done = len(passes) - n_traced >= need_untraced and n_traced >= need_traced
            next_pass = SETUPS_PER_PASS * statistics.median(e - s for s, e in setups) + statistics.median(
                e - s for s, e in (p["span"] for p in passes)
            )
            if done and perf_counter() - start + next_pass > seconds:
                break

    # Every timing from here on is in reference seconds, and the median over
    # the run: the clock takes out the host's changes of speed, the median
    # what is left.
    untraced = [p for p in passes if p["tracer"] is None]
    traced = [p for p in passes if p["tracer"] is not None]
    walls = [clock.elapsed(*p["span"]) for p in untraced]
    wall_s = statistics.median(walls)
    latencies = sorted(
        statistics.median(clock.elapsed(*call) for call in per_call)
        for per_call in zip(*(p["calls"] for p in untraced))
    )
    if trace:
        layers = [p["tracer"].layer_metrics(clock.elapsed) for p in traced]
        values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        values["tracing.overhead_s"] = statistics.median(clock.elapsed(*p["span"]) for p in traced) - wall_s
        units = {key: _layer_unit(key) for key in values}
    else:
        values = {
            "setup_s": statistics.median(clock.elapsed(*s) for s in setups),
            "wall_s": wall_s,
            "classes_per_s": untraced[0]["classes"] / wall_s,
            "queries_per_s": len(latencies) / wall_s,
            "query_p50_ms": 1e3 * percentile(latencies, 0.50),
            "query_p90_ms": 1e3 * percentile(latencies, 0.90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    line = {
        "correct": not gates.failures,
        "attempted": gates.attempted,
        "failed": len(gates.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    probes = clock.probe_times()
    report = {
        "workload": name,
        "trace": int(trace),
        "env": environment(seed),
        "probes": {"count": len(probes), "min_s": min(probes), "median_s": statistics.median(probes)},
        "setup_rounds_ref_s": [clock.elapsed(*s) for s in setups],
        "untraced_walls_ref_s": walls,
        "untraced_walls_raw_s": [e - s for s, e in (p["span"] for p in untraced)],
        "traced_walls_ref_s": [clock.elapsed(*p["span"]) for p in traced],
        "calls_per_pass": len(latencies),
        "call_latencies_ref_s": latencies,
        "failures": gates.failures,
    }
    all_spans = [span + (k,) for k, p in enumerate(traced) for span in p["tracer"].spans]
    return {"line": line, "report": report, "spans": all_spans}


E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "classes_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith(".yield") else "count"


def print_report(out: dict) -> None:
    line, rep = out["line"], out["report"]
    env = rep["env"]
    print(f"workload {rep['workload']}  trace={rep['trace']}  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    ref = ", ".join(f"{w:.3f}" for w in rep["untraced_walls_ref_s"])
    raw = ", ".join(f"{w:.3f}" for w in rep["untraced_walls_raw_s"])
    print(f"passes  untraced [{ref}] reference s, [{raw}] raw s  traced {len(rep['traced_walls_ref_s'])}"
          f"  calls per pass {rep['calls_per_pass']}")
    probes = rep["probes"]
    print(f"probes  {probes['count']}  min {probes['min_s'] * 1e3:.2f} ms  median {probes['median_s'] * 1e3:.2f} ms")
    ratio = line["failed"] / line["attempted"]
    print(f"gates   attempted {line['attempted']}  failed {line['failed']}  failed_ratio {ratio:g}")
    for failure in rep["failures"][:20]:
        print(f"FAILED  {failure}")
    for key, m in line["metrics"].items():
        print(f"metric  {key:<36} {m['value']:>14.6g} {m['unit']}")


def save(out: dict, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    rep = out["report"]
    stem = f"{rep['workload']}-seed{seed}-trace{rep['trace']}"
    (OUT / f"{stem}.json").write_text(json.dumps({**rep, **out["line"]}, indent=1) + "\n")
    if out["spans"]:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for name, begin, end, parent, item, pass_no in out["spans"]:
                fh.write(json.dumps([name, begin, end, parent, item, pass_no]) + "\n")


def run_all(args) -> int:
    """Every workload in its own child process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        merged["correct"] &= child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in child["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(out)
    save(out, args.seed)
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
