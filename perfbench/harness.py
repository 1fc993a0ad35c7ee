"""Calls into liftlab, timed from outside, one program at a time.

``Recorder`` wraps every public function the benchmark calls.  It always
sums wall time per call key; when asked it also records spans, profiles
``lift_program`` with cProfile, or measures per-layer allocation peaks with
tracemalloc.  It restores the recursion limit after every call into
``machine`` or ``cli`` and counts the calls that left it changed.

The pipelines below run one input end to end and check its outputs against
the interpreter, never against the lifter's own claims.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import importlib
import io
import json
import math
import random
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from types import SimpleNamespace

from inputs import CorpusGen

LAYERS = ("syntax", "analysis", "lifter", "machine", "cli")
MAX_ORACLE_GROUPS = 4


class SpeedGauge:
    """Tracks the host's speed with a fixed slice of pure-Python work.

    On a shared host the same work can take 40% longer for seconds at a time
    while other jobs load the core.  Each timed slice of benchmark work is
    scaled by NOMINAL_S over the reference time measured around it, so times
    read as if the reference always took NOMINAL_S.  The reference is the
    benchmark's own corpus generator, which no change to liftlab can move.
    """

    NOMINAL_S = 0.0005
    SLICE_S = 0.1  # re-measure the reference after this much work

    def __init__(self) -> None:
        self.restart()

    def restart(self) -> None:
        """Take a fresh reading to scale the work that follows."""
        self.last = self.measure()

    @staticmethod
    def _reference() -> None:
        rng = random.Random(7)
        for _ in range(4):
            CorpusGen(rng).program()

    def measure(self) -> float:
        """Best of three reference timings, with allocation tracing paused."""
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.stop()
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._reference()
            best = min(best, time.perf_counter() - start)
        if tracing:
            tracemalloc.start()
        return best

    def factor(self) -> float:
        """Scale for the work done since the previous reading."""
        now = self.measure()
        f = self.NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return f

    def scale(self, outcomes: list) -> None:
        f = self.factor()
        for o in outcomes:
            o.scale(f)


def import_liftlab() -> SimpleNamespace:
    """Import liftlab afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "liftlab" or m.startswith("liftlab.")]:
        del sys.modules[name]
    mods = {
        m: importlib.import_module(f"liftlab.{m}")
        for m in ("syntax", "analysis", "skeleton", "lifter", "machine", "cli")
    }
    api = SimpleNamespace(
        **{name: getattr(mods["syntax"], name) for name in ("parse", "freshen", "validate", "print_program")},
        split_groups=mods["analysis"].split_groups,
        lift_program=mods["lifter"].lift_program,
        liftable_sites=mods["lifter"].liftable_sites,
        evaluate=mods["machine"].evaluate,
        enumerate_lift_subsets=mods["machine"].enumerate_lift_subsets,
        value_key=mods["machine"].value_key,
        main=mods["cli"].main,
    )
    return SimpleNamespace(api=api, **mods)


class Recorder:
    """Times, and optionally traces, every call routed through ``call``."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.failures: Counter = Counter()  # (layer, exception class) -> count
        self.leaks = 0
        self.spans: list | None = None
        self.program = ""
        self.profile: cProfile.Profile | None = None
        self.mem: dict[str, int] | None = None
        self._open: list[int] = []
        self._mem_stack: list[list] = []
        self._seen: list[BaseException] = []
        # what cli.main loaded and lifted, for the checks and the oracle
        self.last_input = None
        self.last_lifted = None

    def reset_pass(self) -> None:
        self.totals = defaultdict(float)
        self.failures = Counter()
        self.leaks = 0

    def call(self, key: str, fn, *args, restore: bool = False, **kwargs):
        layer = key.split(".", 1)[0]
        limit = sys.getrecursionlimit()
        spans = self.spans
        if spans is not None:
            idx = len(spans)
            parent = self._open[-1] if self._open else -1
            spans.append(None)
            self._open.append(idx)
        if self.mem is not None:
            self._mem_enter()
        profile = self.profile if key == "lifter.lift_program" else None
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if not any(exc is e for e in self._seen):
                self._seen.append(exc)
                self.failures[(layer, type(exc).__name__)] += 1
            raise
        finally:
            if profile is not None:
                profile.disable()
            end = time.perf_counter()
            self.totals[key] += end - start
            if self.mem is not None:
                self._mem_exit(layer)
            if spans is not None:
                self._open.pop()
                spans[idx] = (key, start, end, parent, self.program)
            if restore and sys.getrecursionlimit() != limit:
                self.leaks += 1
                sys.setrecursionlimit(limit)

    def wrap(self, key, fn, on_result=None):
        """A stand-in for ``fn`` that records under ``key`` (or ``key(args)``)."""

        def wrapped(*args, **kwargs):
            k = key(args) if callable(key) else key
            result = self.call(k, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapped

    def start_program(self, name: str) -> None:
        self.program = name
        self._seen.clear()

    # tracemalloc peaks, nested: a child's reset_peak must not hide the
    # parent's peak, so each frame keeps the highest peak seen so far.

    def _mem_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current])

    def _mem_exit(self, layer: str) -> None:
        base, seen = self._mem_stack.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        self.mem[layer] = max(self.mem.get(layer, 0), peak - base)
        if self._mem_stack:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
        tracemalloc.reset_peak()


def instrument(rec: Recorder, lib: SimpleNamespace) -> None:
    """Route the calls that ``cli.main`` and the oracle make through ``rec``.

    Only module attributes are replaced; liftlab's code is untouched.
    """
    api, cli, machine = lib.api, lib.cli, lib.machine

    def remember_input(args, result):
        rec.last_input, rec.last_lifted = args[0], result[0]

    for name, layer in (
        ("parse", "syntax"),
        ("freshen", "syntax"),
        ("validate", "syntax"),
        ("split_groups", "analysis"),
    ):
        setattr(cli, name, rec.wrap(f"{layer}.{name}", getattr(api, name)))
    cli.lift_program = rec.wrap("lifter.lift_program", api.lift_program, remember_input)
    cli.evaluate = rec.wrap(
        lambda args: "machine.evaluate." + ("after" if args[0] is rec.last_lifted else "before"),
        api.evaluate,
    )
    machine.lift_program = rec.wrap("lifter.lift_program.oracle", api.lift_program)
    machine.liftable_sites = rec.wrap("lifter.liftable_sites.oracle", api.liftable_sites)
    machine.evaluate = rec.wrap("machine.evaluate.oracle", api.evaluate)


# ---------------------------------------------------------------------------
# one input, end to end
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one input produced: facts for the checks, counts and digest."""

    name: str
    seconds: float = 0.0  # time inside liftlab calls, scaled by SpeedGauge
    failed: bool = False
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    digest: str = ""
    times: dict = field(default_factory=dict)  # call key -> seconds spent on this input
    steps: dict = field(default_factory=dict)

    def scale(self, f: float) -> None:
        self.seconds *= f
        self.times = {k: v * f for k, v in self.times.items()}


def _decision_fields(d) -> tuple:
    return (
        d.site, d.binders, d.lifted, d.reason, d.criterion, d.required_set,
        str(d.predicted_net_words), d.offending_var, d.resulting_arity,
    )


def _stats_fields(s) -> tuple:
    return (
        s.words_allocated, s.closures_allocated, s.steps,
        tuple(
            (k, b.allocations, b.entries, b.words, b.per_allocation_entries)
            for k, b in sorted(s.per_binder.items())
        ),
    )


def count_nodes(lib, p) -> tuple[int, int]:
    """(AST nodes, let groups) of a program."""
    S = lib.syntax
    nodes = groups = 0
    todo = [tb.body for tb in p.top_binds] + [p.main]
    while todo:
        e = todo.pop()
        nodes += 1
        if isinstance(e, S.Let):
            groups += 1
            todo.extend(rhs.body for _, rhs in e.group.binds)
            todo.append(e.body)
        elif isinstance(e, S.Case):
            todo.append(e.scrutinee)
            todo.extend(b for _, b in e.alts)
            todo.append(e.default[1])
    return nodes, groups


def _oracle(rec, lib, p, lifted_sites, out: Outcome):
    """Run the exhaustive oracle when the program is small enough; check it."""
    sites = rec.call("lifter.liftable_sites", lib.api.liftable_sites, p)
    if len(sites) > MAX_ORACLE_GROUPS:
        out.counts["oracle_skipped"] += 1
        return ()
    rows = rec.call(
        "machine.enumerate_lift_subsets",
        lib.api.enumerate_lift_subsets,
        p,
        max_groups=MAX_ORACLE_GROUPS,
        restore=True,
    )
    chosen = sorted("+".join(s) for s in sites if s in lifted_sites)
    chosen_row = next((r for r in rows if sorted(r.subset) == chosen), None)
    out.counts["oracle_evals"] += len(rows)
    if chosen_row is None:
        out.problems.append("oracle has no row for the chosen subset")
        return rows
    if chosen_row.words > rows[0].words:
        out.problems.append(f"chosen subset {chosen} allocates more than the empty one")
    out.counts["oracle_regret_words"] += chosen_row.words - min(r.words for r in rows)
    return rows


def _count_outputs(out: Outcome, lib, p, lifted, printed: str, verdicts, detail: bool) -> None:
    """Counts both pipelines share; ``verdicts`` are (lifted, criterion) pairs."""
    c = out.counts
    for was_lifted, criterion in verdicts:
        c["decisions"] += 1
        c["lifted" if was_lifted else f"rejected.{criterion}"] += 1
    c["new_tops"] += len(lifted.top_binds) - len(p.top_binds)
    c["output_bytes"] += len(printed.encode("utf-8"))
    if detail:
        c["input_nodes"], c["groups"] = count_nodes(lib, p)


def run_source(rec: Recorder, lib, name: str, text: str, detail: bool) -> Outcome:
    """parse -> freshen -> validate -> split -> lift -> evaluate x2 -> print, + oracle."""
    out = Outcome(name)
    rec.start_program(name)
    snap = dict(rec.totals)
    start = time.perf_counter()
    try:
        p = rec.call("syntax.parse", lib.api.parse, text)
        p = rec.call("syntax.freshen", lib.api.freshen, p)
        violations = rec.call("syntax.validate", lib.api.validate, p)
        if violations:
            raise ValueError(f"invalid program: {violations[0]}")
        p = rec.call("analysis.split_groups", lib.api.split_groups, p)
        lifted, decisions = rec.call("lifter.lift_program", lib.api.lift_program, p)
        results = {
            role: rec.call(f"machine.evaluate.{role}", lib.api.evaluate, prog, restore=True)
            for role, prog in (("before", p), ("after", lifted))
        }
        printed = rec.call("syntax.print_program", lib.api.print_program, lifted)
        lifted_sites = {d.binders for d in decisions if d.lifted}
        rows = _oracle(rec, lib, p, lifted_sites, out)
    except Exception:  # counted by layer and class in rec.call; never aborts the run
        out.failed = True
        return out
    finally:
        out.seconds = time.perf_counter() - start
        out.times = {k: v - snap.get(k, 0.0) for k, v in rec.totals.items()}

    (v0, s0), (v1, s1) = results["before"], results["after"]
    if lib.api.value_key(v0) != lib.api.value_key(v1):
        out.problems.append("lifting changed the value")
    if s1.words_allocated > s0.words_allocated:
        out.problems.append("lifting increased allocation")
    c = out.counts
    for role, s in (("before", s0), ("after", s1)):
        out.steps[role] = s.steps
        c[f"words.{role}"] += s.words_allocated
        c[f"closures.{role}"] += s.closures_allocated
    _count_outputs(out, lib, p, lifted, printed, ((d.lifted, d.criterion) for d in decisions), detail)
    out.digest = hashlib.sha256(
        repr(
            (
                name,
                [_decision_fields(d) for d in decisions],
                printed,
                _stats_fields(s0),
                _stats_fields(s1),
                [(r.subset, r.words, r.closures, r.value) for r in rows],
            )
        ).encode("utf-8")
    ).hexdigest()
    return out


def run_cli(rec: Recorder, lib, name: str, path: str, detail: bool) -> Outcome:
    """``liftlab lift FILE --eval --report json`` in-process, + print and oracle."""
    out = Outcome(name)
    rec.start_program(name)
    rec.last_input = rec.last_lifted = None
    snap = dict(rec.totals)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = rec.call(
                "cli.main", lib.api.main, ["lift", path, "--eval", "--report", "json"],
                restore=True,
            )
        if rc != 0:
            out.counts["exit_nonzero"] += 1
            raise RuntimeError(f"exit {rc}: {stderr.getvalue().strip()}")
        p, lifted = rec.last_input, rec.last_lifted
        printed = rec.call("syntax.print_program", lib.api.print_program, lifted)
        report = json.loads(stdout.getvalue())
        lifted_sites = {tuple(d["binders"]) for d in report["decisions"] if d["lifted"]}
        rows = _oracle(rec, lib, p, lifted_sites, out)
    except Exception:
        out.failed = True
        return out
    finally:
        out.seconds = time.perf_counter() - start
        out.times = {k: v - snap.get(k, 0.0) for k, v in rec.totals.items()}

    ev = report["eval"]
    if ev["agreement"] is not True:
        out.problems.append("report says the values disagree")
    if ev["before"]["value"] != ev["after"]["value"]:
        out.problems.append("lifting changed the value")
    if ev["delta_words"] > 0:
        out.problems.append("lifting increased allocation")
    c = out.counts
    for role in ("before", "after"):
        out.steps[role] = ev[role]["steps"]
        c[f"words.{role}"] += ev[role]["words_allocated"]
        c[f"closures.{role}"] += ev[role]["closures_allocated"]
    c["report_bytes"] += len(stdout.getvalue().encode("utf-8"))
    verdicts = ((d["lifted"], d["criterion"]) for d in report["decisions"])
    _count_outputs(out, lib, p, lifted, printed, verdicts, detail)
    out.digest = hashlib.sha256(
        repr(
            (
                name,
                json.dumps(report["decisions"], sort_keys=True),
                printed,
                json.dumps(ev, sort_keys=True),
                [(r.subset, r.words, r.closures, r.value) for r in rows],
            )
        ).encode("utf-8")
    ).hexdigest()
    return out
