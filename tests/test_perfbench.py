"""The benchmark driver still runs against the library.

``perfbench/run.py`` calls liftlab's public functions and checks every
output against the interpreter, so a renamed function or a changed output
breaks it.  A short run of every workload shows that here, in about 6 s,
rather than only when the full benchmark runs.  At this size the loop
programs take 1,013 to 1,654 steps, past the interpreter's hand-over to
compiled frames, so that engine runs under the benchmark's own output
checks too.  Untraced, the workloads write no files.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_small_run_exits_0():
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
        "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in ("corpus", "nested", "loops"):
        assert f"== {name} (trace 0): correct=True" in proc.stdout, proc.stdout
