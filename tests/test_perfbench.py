"""The benchmark driver still runs against the library.

``perfbench/run.py`` calls liftlab's public functions and checks every
output against the interpreter, so a renamed function or a changed output
breaks it.  A short run of every workload shows that here, in about 6 s,
rather than only when the full benchmark runs.  At this size the loop
programs take 1,013 to 1,654 steps, past the interpreter's hand-over to
compiled frames, so that engine runs under the benchmark's own output
checks too.  Untraced, the workloads write no files.  A traced run, in
about 5 s more, wraps the same calls in spans, cProfile and tracemalloc
and runs the probes; it writes its traces, so it runs in a copy.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
