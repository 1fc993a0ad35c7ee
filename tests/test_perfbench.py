"""The benchmark driver still runs against the library.

``perfbench/run.py`` calls liftlab's public functions and checks every
output against the interpreter, so a renamed function or a changed output
breaks it.  A short run of every workload shows that here, in about 6 s,
rather than only when the full benchmark runs.  The loop programs recur,
so they run on compiled frames (1,013 to 1,654 steps at this size), and
the corpus and nested ones do not, so they run on the dict engine: both
engines run under the benchmark's own output checks.  Untraced, the
workloads write no files.  A traced run, in about 5 s more, wraps the
same calls in spans, cProfile and tracemalloc and runs the probes; it
writes its traces, so it runs in a copy.

Each workload's ``output_sha256`` is a digest of its first pass's
decisions, printed programs, stats and oracle rows, so a pinned digest
catches a change in any of them anywhere in the benchmark pipeline.
"""

import cProfile
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

from liftlab.lifter import lift_program

from conftest import load_program

ROOT = Path(__file__).resolve().parent.parent

# The entries of perfbench/run.py's PROFILED table that name a liftlab
# function.  cProfile finds them by file and function name, so a function
# renamed or moved to another module would read 0 calls without an error.
PROFILED_IN_LIFTLAB = (
    "analysis.free_vars",
    "skeleton.closure_growth",
    "lifter.decide",
    "lifter.predicted_growth",
)

# The small run's output digests, recorded before the scope walk took over
# the scan and the SCC split; traced and untraced runs agree.
OUTPUT_SHA256 = {
    "corpus": "45be0ec97a84e84b864b50a0f9ae1b98bec3ae53b3b39f3bbd624c39ac436da7",
    "nested": "898a09e4f0fa3e146bbff62a904cb27e532926ed3ef3c19a6c71b9d46ba5d1b5",
    "loops": "4e7aba70e1ddee26ddf5ad6e39a13686a13c967e68aa5197b1921f610e9eed07",
}


def small_run(cwd: Path, trace: str) -> str:
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        "corpus,nested,loops",
        "--size",
        "small",
        "--seconds",
        "0.5",
        "--trace",
        trace,
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = re.findall(r"^== (\w+) \(trace", proc.stdout, re.M)
    digests = dict(zip(names, re.findall(r"output_sha256=(\w+)", proc.stdout)))
    assert digests == OUTPUT_SHA256, proc.stdout
    for name in ("corpus", "nested", "loops"):
        assert f"== {name} (trace {trace}): correct=True" in proc.stdout, proc.stdout
    return proc.stdout


def test_benchmark_small_run_exits_0():
    small_run(ROOT, "0")


def test_benchmark_traced_small_run_exits_0(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    for part in ("perfbench", "src", "programs"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = small_run(tmp_path, "1")
    for name in ("corpus", "nested", "loops"):
        assert (tmp_path / "perfbench" / "out" / f"trace-{name}-1.json").is_file()
    assert "machine.oracle_s" in out and "cli.lift_eval_s" in out


def test_profiled_functions_are_where_the_benchmark_looks(monkeypatch):
    # perfbench's own reader of a profile counts a call of each when a
    # fresh program, one that reaches C2, is lifted under cProfile.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # for its dataclasses
    spec.loader.exec_module(run)
    p = load_program("growth_balanced")
    profile = cProfile.Profile()
    profile.runcall(lift_program, p)
    calls = run.profiled_calls(profile)
    for name in PROFILED_IN_LIFTLAB:
        assert calls[name][0] > 0, name
