import random
import sys
from pathlib import Path

import pytest

from liftlab.analysis import split_groups
from liftlab.syntax import Program, freshen, parse, validate

from progen import ProgramGen

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"
CORPUS_SEED = 20250810
CORPUS_SIZE = 1000


def load_program(path: Path) -> Program:
    p = freshen(parse(path.read_text(encoding="utf-8")))
    violations = validate(p)
    assert not violations, f"{path.name}: {violations}"
    return split_groups(p)


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    """Library calls must leave the process-wide recursion limit as found."""
    before = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == before


@pytest.fixture(scope="session")
def hand_programs() -> dict[str, Program]:
    return {f.stem: load_program(f) for f in sorted(PROGRAMS_DIR.glob("*.stg"))}


@pytest.fixture(scope="session")
def corpus() -> list[Program]:
    rng = random.Random(CORPUS_SEED)
    programs = []
    for _ in range(CORPUS_SIZE):
        raw = ProgramGen(rng).program()
        p = freshen(raw)
        programs.append(split_groups(p))
    return programs
