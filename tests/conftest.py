import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from liftlab import lifter, machine, syntax
from liftlab.analysis import split_groups
from liftlab.syntax import KEYWORDS, Program, freshen, parse, validate

from progen import ProgramGen

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"
CORPUS_SEED = 20250810
CORPUS_SIZE = 1000


def forward_group_text(n: int) -> str:
    """One flat ``n``-member group in which ``g{k}`` calls ``g{k+1}`` and
    ``g{n}`` adds the case-bound ``y``: a chain of dependencies, no cycle."""
    binds = [f"g{k} = \\ q{k} -> g{k + 1} q{k}" for k in range(1, n)]
    binds.append(f"g{n} = \\ q{n} -> +# q{n} y")
    return "main = case 7 of { default y ->\n  let " + "\n  and ".join(binds) + "\n  in g1 y }\n"


def depth_text(n: int) -> str:
    """A let/case chain ``n`` steps deep, as perfbench's depth family:
    ``f{k} = \\ p{k} -> +# p{k} x{k-1}`` is called on ``x{k-1}``, whose
    result ``x{k}`` the next step reads."""
    lines = ["main =\n  case 3 of { default x0 ->"]
    for k in range(1, n + 1):
        lines.append(f"  let f{k} = \\ p{k} -> +# p{k} x{k - 1} in")
        lines.append(f"  case f{k} x{k - 1} of {{ default x{k} ->")
    lines.append(f"  x{n}")
    lines.append("  " + "}" * (n + 1))
    return "\n".join(lines) + "\n"


def width_text(n: int) -> str:
    """One group of ``n`` helpers, ``g{k}`` calling ``g{k-1}``, as
    perfbench's width family: a chain of ``n`` lets once split."""
    lines = ["main =\n  case 3 of { default y ->", "  let g1 = \\ q1 -> +# q1 y"]
    lines += [f"  and g{k} = \\ q{k} -> g{k - 1} q{k}" for k in range(2, n + 1)]
    lines.append(f"  in g{n} y }}")
    return "\n".join(lines) + "\n"


def rqs_text(n: int) -> str:
    """A helper whose required set has ``n`` variables, as perfbench's rqs
    family."""
    lines = ["main ="]
    lines += [f"  case {k % 10} of {{ default v{k} ->" for k in range(1, n + 1)]
    lines.append("  let h = \\ s0 ->")
    for k in range(1, n + 1):
        lines.append(f"    case +# s{k - 1} v{k} of {{ default s{k} ->")
    lines.append(f"    s{n}" + " }" * n)
    lines.append("  in h 1" + " }" * n)
    return "\n".join(lines) + "\n"


NESTED_FAMILIES = {"depth": depth_text, "width": width_text, "rqs": rqs_text}


def nested_family_texts(sizes=(8, 16, 32)) -> dict[str, str]:
    """perfbench's nested families at ``sizes``, by ``family-size``."""
    return {f"{name}-{n}": text(n) for name, text in NESTED_FAMILIES.items() for n in sizes}


IDENT = re.compile(r"[^\W\d]\w*")


def renamings(texts: list[str], n: int, seed: int) -> list[str]:
    """``n`` texts, each with one to three identifier occurrences (binders
    and uses alike) replaced by an identifier of the same text, which
    shadows, unbinds or duplicates names."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        text = rng.choice(texts)
        spans = [m.span() for m in IDENT.finditer(text) if m.group() not in KEYWORDS]
        names = sorted({text[a:b] for a, b in spans})
        for a, b in sorted(rng.sample(spans, min(len(spans), rng.randint(1, 3))), reverse=True):
            text = text[:a] + rng.choice(names) + text[b:]
        out.append(text)
    return out


def load_inline(text: str) -> Program:
    """parse -> freshen -> validate (which must pass) -> split_groups."""
    p = freshen(parse(text))
    assert validate(p) == []
    return split_groups(p)


def load_program(name: str) -> Program:
    """``programs/<name>.stg``, loaded as a new object.  The analyses are
    memoised on each program object, so a test that counts them, or
    replaces an analysis function, must not share programs with others."""
    return load_inline((PROGRAMS_DIR / f"{name}.stg").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    """Library calls must leave the process-wide recursion limit as found."""
    before = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == before


@pytest.fixture(scope="session")
def hand_programs() -> dict[str, Program]:
    return {f.stem: load_program(f.stem) for f in sorted(PROGRAMS_DIR.glob("*.stg"))}


@pytest.fixture(scope="session")
def corpus() -> list[Program]:
    rng = random.Random(CORPUS_SEED)
    programs = []
    for _ in range(CORPUS_SIZE):
        raw = ProgramGen(rng).program()
        p = freshen(raw)
        programs.append(split_groups(p))
    return programs


@pytest.fixture
def engine_runs(monkeypatch) -> Counter:
    """Counts the runs that reach an engine, per program object.  Every
    such run starts on the dict-environment engine, so this counts each
    evaluation once, also one handed over to compiled frames."""
    runs: Counter = Counter()

    class Counting(machine._Machine):
        def __init__(self, program, fuel):
            runs[id(program)] += 1
            super().__init__(program, fuel)

    monkeypatch.setattr(machine, "_Machine", Counting)
    return runs


@pytest.fixture
def walks(monkeypatch) -> list[int]:
    """The ids of the programs the scope walk, the one scan, sees, in order."""
    ids: list[int] = []

    class Counting(syntax._ScopeWalk):
        def __init__(self, p, split=True):
            ids.append(id(p))
            super().__init__(p, split)

    monkeypatch.setattr(syntax, "_ScopeWalk", Counting)
    return ids


@pytest.fixture
def indexes(monkeypatch) -> list[int]:
    """The ids of the programs the lifter builds a growth index of, in
    order."""
    ids: list[int] = []
    real_index = lifter.growth_index

    def counting(p):
        ids.append(id(p))
        return real_index(p)

    monkeypatch.setattr(lifter, "growth_index", counting)
    return ids
