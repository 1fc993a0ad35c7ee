"""liftlab benchmark: one workload per process, one program at a time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that measures the per-layer metrics.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Metric names and
units come from BENCHMARK.json.  perfbench/README.md explains each metric,
workload and size.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import pstats
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import harness  # noqa: E402  (sibling modules)
import inputs  # noqa: E402

WORKLOADS = ("corpus", "nested", "loops")
SETUP_REPEATS = 5
# The exception classes the over-limit probes raise, by layer, reported by
# name; any other class counts only in <layer>.failed.
FAILURE_CLASSES = {
    "syntax": ("RecursionError",),
    "analysis": (),
    "lifter": ("RecursionError",),
    "machine": ("OutOfFuel",),
    "cli": (),
}
PROFILED = {
    # metric prefix -> (liftlab module file, function name)
    "analysis.free_vars": ("analysis.py", "free_vars"),
    "analysis.closure_slot_fvs": ("analysis.py", "closure_slot_fvs"),
    "skeleton.skeletonize": ("skeleton.py", "skeletonize"),
    "skeleton.closure_growth": ("skeleton.py", "closure_growth"),
    "skeleton.rhs_region": ("skeleton.py", "rhs_region"),
    "lifter.decide": ("lifter.py", "decide"),
    "lifter.extend": ("lifter.py", "extend"),
    "lifter.predicted_growth": ("lifter.py", "predicted_growth"),
}


class Refused(Exception):
    """The run cannot give a trustworthy result, so it reports none."""


@dataclass
class Run:
    """What every pass of one workload run shares."""

    lib: object
    rec: harness.Recorder
    gauge: harness.SpeedGauge
    runner: object


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def write_loop_files(texts: list[tuple[str, str]]) -> list[tuple[str, str]]:
    folder = OUT / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    items = []
    for name, text in texts:
        path = folder / f"{name}.stg"
        path.write_text(text, encoding="utf-8")
        items.append((name, str(path.relative_to(ROOT))))
    return items


def build_inputs(workload: str, seed: int, small: bool) -> list[tuple[str, str]]:
    """(name, source text) for corpus and nested; (name, file path) for loops."""
    if workload == "corpus":
        size = inputs.SMOKE["corpus_size"] if small else inputs.CORPUS_SIZE
        return inputs.corpus_texts(seed, size)
    if workload == "nested":
        return inputs.nested_texts(seed, inputs.SMOKE["nested"] if small else inputs.NESTED_LADDER)
    ladder = inputs.SMOKE["loops"] if small else inputs.LOOP_LADDER
    return write_loop_files(inputs.loop_texts(inputs.read_loop_sources(ROOT), ladder))


def build_probes(workload: str, seed: int) -> list[tuple[str, str]]:
    if workload == "nested":
        return inputs.nested_probe_texts(seed)
    if workload == "loops":
        return write_loop_files(inputs.loop_probe_texts(inputs.read_loop_sources(ROOT)))
    return []


def setup(gauge, workload: str, seed: int, small: bool, repeats: int):
    """Import liftlab and build the inputs ``repeats`` times; keep the last."""
    times = []
    for _ in range(repeats):
        gauge.restart()
        start = time.perf_counter()
        lib = harness.import_liftlab()
        items = build_inputs(workload, seed, small)
        times.append((time.perf_counter() - start) * gauge.factor())
    return lib, items, statistics.median(times)


def source_texts(workload: str, items) -> list[str]:
    if workload == "loops":
        return [(ROOT / path).read_text(encoding="utf-8") for _, path in items]
    return [text for _, text in items]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall: float  # scaled time inside liftlab calls over the whole pass
    outcomes: list
    totals: dict  # call key -> scaled seconds over the pass
    failures: Counter
    leaks: int
    digest: str

    def slim(self) -> None:
        """Drop what only the first pass needs, so memory does not grow with passes."""
        for o in self.outcomes:
            o.counts = None
            o.times = {k: o.times[k] for k in KEPT_TIMES if k in o.times}


KEPT_TIMES = ("lifter.lift_program", "machine.evaluate.before", "machine.evaluate.after")


def one_pass(run: Run, items, detail: bool = False) -> Pass:
    rec, gauge = run.rec, run.gauge
    rec.reset_pass()
    outcomes, pending = [], []
    mark = time.perf_counter()
    for name, item in items:
        pending.append(run.runner(rec, run.lib, name, item, detail))
        if time.perf_counter() - mark >= gauge.SLICE_S:
            gauge.scale(pending)
            outcomes += pending
            pending = []
            mark = time.perf_counter()
    gauge.scale(pending)
    outcomes += pending
    totals = Counter()
    for o in outcomes:
        totals.update(o.times)
    digest = inputs.sha256_texts(o.digest for o in outcomes)
    wall = sum(o.seconds for o in outcomes)
    return Pass(wall, outcomes, dict(totals), Counter(rec.failures), rec.leaks, digest)


def passes_for(run: Run, items, seconds: float) -> list[Pass]:
    """Whole passes until ``seconds`` have gone by; the first one counts nodes."""
    deadline = time.perf_counter() + seconds
    out = [one_pass(run, items, detail=True)]
    while time.perf_counter() < deadline:
        out.append(one_pass(run, items))
        out[-1].slim()
    return out


def problems_of(full: list[Pass], partial: list[Pass]) -> list[str]:
    """Failed checks; passes over the same inputs must also agree exactly."""
    found = [f"{o.name}: {p}" for ps in full + partial for o in ps.outcomes for p in o.problems]
    if len({p.digest for p in full}) > 1:
        found.append("outputs differ between passes of one run")
    return found


def median_of(passes: list[Pass], fn) -> float:
    return statistics.median(fn(p) for p in passes)


def total_of(key: str):
    return lambda p: p.totals.get(key, 0.0)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def log_log_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares exponent b in t = a * n**b."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


# ---------------------------------------------------------------------------
# end-to-end metrics (untraced run)
# ---------------------------------------------------------------------------


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    first = passes[0].outcomes
    per_input = [statistics.median(p.outcomes[i].seconds for p in passes) for i in range(len(first))]
    completed = sum(not o.failed for p in passes for o in p.outcomes)
    steps = sum(sum(o.steps.values()) for p in passes for o in p.outcomes)
    eval_s = sum(
        p.totals.get("machine.evaluate.before", 0.0) + p.totals.get("machine.evaluate.after", 0.0)
        for p in passes
    )
    words_before = sum(o.counts["words.before"] for o in first)
    words_after = sum(o.counts["words.after"] for o in first)
    return {
        "setup_s": setup_s,
        "wall_s": median_of(passes, lambda p: p.wall),
        "programs_per_s": completed / sum(p.wall for p in passes),
        "program_ms.p50": 1e3 * statistics.median(per_input),
        "program_ms.p99": 1e3 * percentile(per_input, 99),
        "steps_per_s": steps / eval_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "words_ratio": words_after / words_before,
    }


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)
# ---------------------------------------------------------------------------


def profiled_calls(profile: cProfile.Profile) -> dict[str, tuple[int, float, dict]]:
    """name -> (calls incl. recursive ones, cumulative s, {caller: cumulative s})."""
    out = {k: (0, 0.0, {}) for k in PROFILED}
    for (filename, _, func), (_, nc, _, ct, callers) in pstats.Stats(profile).stats.items():
        for name, (module, fname) in PROFILED.items():
            if func == fname and Path(filename).name == module and Path(filename).parent.name == "liftlab":
                out[name] = (nc, ct, {key[2]: value[3] for key, value in callers.items()})
    return out


def self_times(spans: list) -> dict[str, float]:
    """Per layer: span time minus the part of it that child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(harness.LAYERS, 0.0)
    for i, (key, start, end, _, _) in enumerate(spans):
        out[key.split(".", 1)[0]] += end - start - child[i]
    return out


def family_exponents(base: list[Pass]) -> dict[str, float]:
    """Log-log slope of median lift time against N, per nested family."""
    points: dict[str, list] = {}
    for i, o in enumerate(base[0].outcomes):
        family, n = o.name.rsplit("-", 1)
        t = statistics.median(p.outcomes[i].times.get("lifter.lift_program", 0.0) for p in base)
        points.setdefault(family, []).append((int(n), t))
    return {f: log_log_slope(pts) for f, pts in points.items() if len(pts) > 1}


def loop_rates(base: list[Pass]) -> dict[str, float]:
    """Interpreter steps/s per loop program and role, median over passes."""
    out = {}
    for program in inputs.LOOP_FILES:
        for role in ("before", "after"):
            key = f"machine.evaluate.{role}"

            def rate(p):
                mine = [o for o in p.outcomes if o.name.startswith(program + "-") and not o.failed]
                secs = sum(o.times.get(key, 0.0) for o in mine)
                return sum(o.steps[role] for o in mine) / secs if secs else 0.0

            out[f"machine.steps_per_s.{program}.{role}"] = median_of(base, rate)
    return out


@dataclass
class Traced:
    """The passes of a traced run besides the untraced baseline."""

    spans: list[tuple[Pass, list]]  # span passes with their spans
    profiled: Pass
    profile: cProfile.Profile
    allocs: Pass
    peaks: dict[str, int]  # layer -> tracemalloc peak bytes
    probes: Pass | None


def per_layer(workload: str, base: list[Pass], input_kb: float, tr: Traced) -> dict[str, float]:
    outs = base[0].outcomes
    probes = tr.probes.outcomes if tr.probes else []
    counts = Counter()
    for o in outs:
        counts.update(o.counts)
    for o in probes:
        counts["exit_nonzero"] += o.counts["exit_nonzero"]
    failures = base[0].failures + (tr.probes.failures if tr.probes else Counter())
    med = lambda key: median_of(base, total_of(key))  # noqa: E731
    base_wall = median_of(base, lambda p: p.wall)
    calls = profiled_calls(tr.profile)
    lift_s = med("lifter.lift_program")
    m = {
        "syntax.parse_s": med("syntax.parse"),
        "syntax.parse_kb_per_s": median_of(base, lambda p: input_kb / p.totals["syntax.parse"]),
        "syntax.freshen_s": med("syntax.freshen"),
        "syntax.validate_s": med("syntax.validate"),
        "syntax.print_s": med("syntax.print_program"),
        "syntax.input_nodes": counts["input_nodes"],
        "syntax.output_bytes": counts["output_bytes"],
        "analysis.split_groups_s": med("analysis.split_groups"),
        "analysis.groups": counts["groups"],
        "analysis.free_vars_calls": calls["analysis.free_vars"][0],
        "analysis.free_vars_cum_s": calls["analysis.free_vars"][1],
        "analysis.closure_slot_fvs_calls": calls["analysis.closure_slot_fvs"][0],
        "skeleton.skeletonize_calls": calls["skeleton.skeletonize"][0],
        "skeleton.closure_growth_calls": calls["skeleton.closure_growth"][0],
        # rhs_region reached from skeletonize is inside skeletonize's figure
        "skeleton.cum_s": calls["skeleton.skeletonize"][1]
        + calls["skeleton.closure_growth"][1]
        + calls["skeleton.rhs_region"][2].get("predicted_growth", 0.0),
        "lifter.lift_s": lift_s,
        "lifter.decisions_per_s": counts["decisions"] / lift_s,
        "lifter.decisions": counts["decisions"],
        "lifter.lifted": counts["lifted"],
        "lifter.new_tops": counts["new_tops"],
        "lifter.decide_calls": calls["lifter.decide"][0],
        "lifter.extend_calls": calls["lifter.extend"][0],
        "lifter.predicted_growth_calls": calls["lifter.predicted_growth"][0],
        "machine.eval_s.before": med("machine.evaluate.before"),
        "machine.eval_s.after": med("machine.evaluate.after"),
        "machine.steps": sum(sum(o.steps.values()) for o in outs),
        "machine.oracle_s": med("machine.enumerate_lift_subsets"),
        "machine.oracle_evals": counts["oracle_evals"],
        "machine.oracle_skipped": counts["oracle_skipped"],
        "machine.recursionlimit_leaks": base[0].leaks,
        "cli.lift_eval_s": med("cli.main"),
        "cli.report_bytes": counts["report_bytes"],
        "cli.exit_nonzero": counts["exit_nonzero"],
        "oracle_regret_words": counts["oracle_regret_words"],
        "failed_share": (sum(o.failed for o in outs) + sum(o.failed for o in probes))
        / (len(outs) + len(probes)),
        "trace.span_overhead": statistics.median(p.wall for p, _ in tr.spans) / base_wall - 1.0,
        "trace.profile_overhead": tr.profiled.wall / base_wall - 1.0,
        "trace.tracemalloc_overhead": tr.allocs.wall / subset_wall(base, tr.allocs) - 1.0,
        "check.output_digest48": int(base[0].digest[:12], 16),
    }
    for c in ("C1", "C2", "C3", "C4", "C5"):
        m[f"lifter.rejected.{c}"] = counts[f"rejected.{c}"]
    for role in ("before", "after"):
        m[f"machine.words.{role}"] = counts[f"words.{role}"]
        m[f"machine.closures.{role}"] = counts[f"closures.{role}"]
    exps = family_exponents(base) if workload == "nested" else {}
    for family in inputs.NESTED_LADDER:
        m[f"lifter.exponent.{family}"] = exps.get(family, 0.0)
    rates = loop_rates(base) if workload == "loops" else {}
    for program in inputs.LOOP_FILES:
        for role in ("before", "after"):
            name = f"machine.steps_per_s.{program}.{role}"
            m[name] = rates.get(name, 0.0)
    selfs = [self_times(spans) for _, spans in tr.spans]
    for layer in harness.LAYERS:
        m[f"{layer}.self_s"] = statistics.median(s[layer] for s in selfs)
        m[f"{layer}.peak_kb"] = tr.peaks.get(layer, 0) / 1024.0
        m[f"{layer}.failed"] = sum(n for (lay, _), n in failures.items() if lay == layer)
        for cls in FAILURE_CLASSES[layer]:
            m[f"{layer}.failed.{cls}"] = failures[(layer, cls)]
    return m


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def traced_passes(run: Run, items, probe_items, seconds: float) -> Traced:
    rec = run.rec
    spans = []
    deadline = time.perf_counter() + seconds
    while not spans or time.perf_counter() < deadline:
        rec.spans = []
        p = one_pass(run, items)
        spans.append((p, rec.spans))
        rec.spans = None

    rec.profile = cProfile.Profile()
    profiled = one_pass(run, items)
    profile, rec.profile = rec.profile, None

    # tracemalloc costs time in proportion to stack depth, which makes deep
    # recursion quadratic; trace the smallest size of each family only.
    rec.mem = {}
    tracemalloc.start()
    try:
        allocs = one_pass(run, first_rungs(items))
    finally:
        tracemalloc.stop()
    peaks, rec.mem = rec.mem, None

    probes = one_pass(run, probe_items) if probe_items else None
    return Traced(spans, profiled, profile, allocs, peaks, probes)


def first_rungs(items):
    """The first input of each family ("depth-50", "tally-1000", ...); the
    corpus has no families, so all of it."""
    seen, out = set(), []
    for name, item in items:
        family = name.rsplit("-", 1)[0]
        if family not in seen:
            seen.add(family)
            out.append((name, item))
    return out


def subset_wall(base: list[Pass], part: Pass) -> float:
    """Median untraced time of the inputs ``part`` ran."""
    names = {o.name for o in part.outcomes}
    return median_of(base, lambda p: sum(o.seconds for o in p.outcomes if o.name in names))


def write_trace(workload: str, seed: int, tr: Traced) -> Path:
    """Spans as [key, start, end, parent index, program], one list per span pass."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    calls = profiled_calls(tr.profile)
    doc = {
        "span_passes": [[list(s) for s in spans] for _, spans in tr.spans],
        "lift_profile": {k: {"calls": v[0], "cum_s": v[1]} for k, v in calls.items()},
        "probe_failures": {f"{lay}.{cls}": n for (lay, cls), n in (tr.probes.failures if tr.probes else {}).items()},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    stale = inputs.frozen_mismatches(ROOT)
    if stale:
        raise Refused(f"frozen input digests changed: {', '.join(stale)}")
    sys.path.insert(0, str(ROOT / "src"))
    gauge = harness.SpeedGauge()
    lib, items, setup_s = setup(gauge, workload, seed, small, 1 if trace else SETUP_REPEATS)
    texts = source_texts(workload, items)
    input_kb = sum(len(t.encode("utf-8")) for t in texts) / 1024.0
    print(f"# {workload} seed={seed} inputs={len(items)} input_sha256={inputs.sha256_texts(texts)}")
    rec = harness.Recorder()
    harness.instrument(rec, lib)
    run = Run(lib, rec, gauge, harness.run_cli if workload == "loops" else harness.run_source)

    probes: list[Pass] = []  # over-limit inputs: they count in failed_share only
    if not trace:
        base = passes_for(run, items, seconds)
        metrics = end_to_end(base, setup_s)
        full, subset = base, []
    else:
        base = passes_for(run, items, seconds / 3)
        tr = traced_passes(run, items, build_probes(workload, seed), seconds / 3)
        metrics = per_layer(workload, base, input_kb, tr)
        full, subset = base + [p for p, _ in tr.spans] + [tr.profiled], [tr.allocs]
        probes = [tr.probes] if tr.probes else []
        print(f"# spans and lift profile written to {write_trace(workload, seed, tr).relative_to(ROOT)}")
        for o in tr.probes.outcomes if tr.probes else []:
            print(f"# probe {o.name}: {'failed' if o.failed else 'passed'}")

    problems = problems_of(full, subset + probes)
    for line in problems[:20]:
        print(f"# check failed: {line}", file=sys.stderr)
    print(f"# passes={len(full)} output_sha256={base[0].digest}")
    ran = full + subset
    return {
        "correct": not problems,
        "attempted": sum(len(p.outcomes) for p in ran),
        "failed": sum(o.failed for p in ran for o in p.outcomes),
        "metrics": metrics,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def shape(result: dict, trace: bool) -> dict:
    """Attach units from BENCHMARK.json; the metric sets must match exactly."""
    units = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != set(units):
        missing, extra = sorted(set(units) - set(got)), sorted(set(got) - set(units))
        raise Refused(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    result["metrics"] = {k: {"value": got[k], "unit": units[k]} for k in units}
    return result


# ---------------------------------------------------------------------------
# several workloads, each in its own process
# ---------------------------------------------------------------------------


def run_children(names: list[str], seed: int, seconds: float, trace: int, small: bool) -> int:
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + (["--size", "small"] if small else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        ok = result["correct"] and result["failed"] == 0
        status |= 0 if ok else 1
        print(f"== {name} (trace {trace}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for line in lines[:-1]:
            print(f"  {line}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<40} {v['value']:>16.6g} {v['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="corpus, nested, loops, all, or a comma-separated order")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at small size, untraced and traced")
    args = ap.parse_args(argv)
    small = args.size == "small"

    if not (ROOT / "src" / "liftlab").is_dir() or not (ROOT / "programs").is_dir():
        print("run.py: src/liftlab and programs/ must sit beside perfbench/", file=sys.stderr)
        return 2
    if args.smoke:
        return run_children(list(WORKLOADS), args.seed, 1, 0, True) | run_children(
            list(WORKLOADS), args.seed, 1, 1, True)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    if any(n not in WORKLOADS for n in names):
        ap.error(f"unknown workload in {args.workload!r}")
    if len(names) > 1:
        return run_children(names, args.seed, args.seconds, args.trace, small)
    try:
        result = shape(run_workload(names[0], args.seed, args.seconds, args.trace == 1, small), args.trace == 1)
    except Refused as exc:
        print(f"run.py: refused: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
