"""Benchmark inputs, generated as source text from a seed.

Nothing here imports liftlab: the inputs are frozen by this file alone, so
a change to the parser, printer or test generator cannot change what the
benchmark feeds the program.  ``frozen_mismatches`` guards the freeze.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from collections import Counter
from pathlib import Path

# Digests of the inputs at REF_SEED, and of the programs/ files read by the
# loops workload.  A run refuses to report when any of them changes.
REF_SEED = 20250810
FROZEN = {
    "corpus": "fa6d5f89ab71b76418c50eddcd6bf397f982e618e6b7598fbdd12e96e1526722",
    "nested": "d70a737b8258e026eb6c931d383953ad9510ecf4835da26d11ade617130db627",
    "loops": "501ed24b84f05c2de23a2fbffc93c3a58962bf890bc5efdf7314b53c5837da49",
    "programs/countdown.stg": "613180ddc26dd6fc491b5b54f8365a3b44cf23c5eb6d2f6111b157b44777f082",
    "programs/tally.stg": "5eaa097574f7ae0e1fcea9a2180506a6b8cc38922329a817b8029c1cf794c977",
}

CORPUS_SIZE = 1000
CORPUS_MAX_DEPTH = 6
# The full-size corpus is matched to a profile: it holds, for each program of
# the reference corpus (the first CORPUS_SIZE programs of REF_SEED, which is
# the acceptance suite's corpus), the program drawn from the seed of the same
# kind with the nearest text length.  The kind is the number of groups the
# oracle enumerates (capped at 5) and the number of thunks (capped at 3).
# Seeds then differ in content but not in mix, so corpus times, their tail
# and the words ratio stay steady from seed to seed.  Matching draws from a
# pool of POOL_FACTOR * CORPUS_SIZE programs, grown while a kind runs short.
POOL_FACTOR = 3

# Size ladders.  Each stays below the host stack limit that parse,
# split_groups and lift hit at the default recursion limit; the probe
# sizes lie just past it and are expected to fail.
NESTED_LADDER = {
    "depth": (50, 100, 200),
    "width": (50, 100, 200),
    "rqs": (25, 50, 100),
}
NESTED_PROBES = {"depth": 260, "width": 520, "rqs": 260}
LOOP_LADDER = {"countdown": (1000, 3000), "tally": (1000, 3000)}
LOOP_PROBES = {"tally": 20000}

SMOKE = {
    "corpus_size": 40,
    "nested": {"depth": (8, 16), "width": (8, 16), "rqs": (8, 16)},
    "loops": {"countdown": (100,), "tally": (100,)},
}


def sha256_texts(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# corpus: random closed, terminating, non-recursive programs
# ---------------------------------------------------------------------------

_SINK = "sink sink_a sink_b = sink_a;\n\n"


class CorpusGen:
    """One instance emits one program; all randomness comes from ``rng``.

    The draws follow the lab's test generator call for call, so a seed
    gives the same programs it gives there, but the output is text.
    """

    def __init__(self, rng: random.Random, max_depth: int = CORPUS_MAX_DEPTH):
        self.rng = rng
        self.max_depth = max_depth
        self.counter = 0
        self.lambdas: set[str] = set()
        self.passed: set[str] = set()  # lambdas that occur as an argument
        self.thunks = 0

    def liftable(self) -> int:
        """Groups the oracle enumerates: lambdas never passed as an argument.

        Members only mention earlier members, so split_groups leaves one
        lambda per group, and only ``sink`` calls take a function argument.
        """
        return len(self.lambdas - self.passed)

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def program(self) -> str:
        return _SINK + "main =\n  " + self.expr(self.max_depth, {}, 2) + "\n"

    # scope maps name -> "int" (forceable to an integer) or ("fun", arity)

    def int_vars(self, scope: dict) -> list[str]:
        return [n for n, k in scope.items() if k == "int"]

    def fun_vars(self, scope: dict) -> list[tuple[str, int]]:
        return [(n, k[1]) for n, k in scope.items() if isinstance(k, tuple)]

    def int_atom(self, scope: dict) -> str:
        ints = self.int_vars(scope)
        if ints and self.rng.random() < 0.6:
            return self.rng.choice(ints)
        return str(self.rng.randint(-5, 9))

    def leaf(self, scope: dict) -> str:
        roll = self.rng.random()
        funs = self.fun_vars(scope)
        if roll < 0.2:
            return self.prim(scope)
        if roll < 0.35 and funs:
            return self.app(scope)
        return self.int_atom(scope)

    def prim(self, scope: dict) -> str:
        op = self.rng.choice(("+#", "-#", "*#", "%#", "<#"))
        if op == "%#":
            a = self.int_atom(scope)
            return f"{op} {a} {self.rng.choice((2, 3, 5, 7))}"
        a = self.int_atom(scope)
        return f"{op} {a} {self.int_atom(scope)}"

    def app(self, scope: dict) -> str:
        name, arity = self.rng.choice(self.fun_vars(scope))
        return " ".join([name] + [self.int_atom(scope) for _ in range(arity)])

    def sink_call(self, scope: dict) -> str:
        name, _ = self.rng.choice(self.fun_vars(scope))
        self.passed.add(name)
        return f"sink {self.int_atom(scope)} {name}"

    def expr(self, depth: int, scope: dict, ind: int) -> str:
        if depth <= 0:
            return self.leaf(scope)
        roll = self.rng.random()
        funs = self.fun_vars(scope)
        if roll < 0.32:
            return self.let(depth, scope, ind)
        if roll < 0.52:
            return self.case(depth, scope, ind)
        if roll < 0.67 and funs:
            return self.app(scope)
        if roll < 0.79:
            return self.prim(scope)
        if roll < 0.84 and funs:
            return self.sink_call(scope)
        return self.leaf(scope)

    def let(self, depth: int, scope: dict, ind: int) -> str:
        pad = "\n" + " " * ind
        inner_pad = "\n" + " " * (ind + 4)
        n = self.rng.choices((1, 2, 3), weights=(60, 30, 10))[0]
        binds = []
        rhs_scope = dict(scope)
        for _ in range(n):
            if self.rng.random() < 0.7:
                params = tuple(self.fresh("p") for _ in range(self.rng.randint(1, 2)))
                inner = dict(rhs_scope)
                for prm in params:
                    inner[prm] = "int"
                name = self.fresh("fn")
                self.lambdas.add(name)
                body = self.expr(depth - 1, inner, ind + 4)
                binds.append(f"{name} = \\ {' '.join(params)} ->{inner_pad}{body}")
                rhs_scope[name] = ("fun", len(params))
            else:
                name = self.fresh("th")
                self.thunks += 1
                body = self.expr(depth - 1, dict(rhs_scope), ind + 4)
                binds.append(f"{name} = thunk{inner_pad}{body}")
                rhs_scope[name] = "int"
        body = self.expr(depth - 1, rhs_scope, ind)
        return "let " + f"{pad}and ".join(binds) + f"{pad}in{pad}{body}"

    def case(self, depth: int, scope: dict, ind: int) -> str:
        pad = "\n" + " " * ind
        alt_pad = "\n" + " " * (ind + 2)
        scrut = self.expr(depth - 1, scope, ind + 4)
        pats = self.rng.sample(range(-2, 4), k=self.rng.randint(0, 2))
        alts = [
            f"{alt_pad}{pat} -> {self.expr(depth - 1, scope, ind + 4)};"
            for pat in sorted(pats)
        ]
        binder = self.fresh("d")
        inner = dict(scope)
        inner[binder] = "int"
        dbody = self.expr(depth - 1, inner, ind + 4)
        return (
            f"case{pad}    {scrut}{pad}of {{"
            + "".join(alts)
            + f"{alt_pad}default {binder} -> {dbody}{pad}}}"
        )


def _draw(rng: random.Random, n: int) -> list[tuple[tuple[int, int], int, str]]:
    """``n`` programs as (kind, text length, text); see POOL_FACTOR."""
    out = []
    for _ in range(n):
        gen = CorpusGen(rng)
        text = gen.program()
        out.append(((min(gen.liftable(), 5), min(gen.thunks, 3)), len(text), text))
    return out


def corpus_texts(seed: int, size: int = CORPUS_SIZE) -> list[tuple[str, str]]:
    """The profile-matched corpus; another ``size`` takes programs as drawn."""
    if size != CORPUS_SIZE:
        return [(f"c{i:04d}", t) for i, (_, _, t) in enumerate(_draw(random.Random(seed), size))]
    profile = [(k, n) for k, n, _ in _draw(random.Random(REF_SEED), size)]
    need = Counter(k for k, _ in profile)
    rng = random.Random(seed)
    pool = _draw(rng, POOL_FACTOR * size)
    while any(Counter(k for k, _, _ in pool)[k] < c for k, c in need.items()):
        pool += _draw(rng, size)
    by_kind: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, (k, n, _) in enumerate(pool):
        by_kind.setdefault(k, []).append((n, i))
    for cands in by_kind.values():
        cands.sort()
    chosen = []
    # longest first, so the slow tail gets the closest matches
    for k, n in sorted(profile, key=lambda kn: -kn[1]):
        cands = by_kind[k]
        j = bisect.bisect_left(cands, (n, -1))
        best = min((x for x in (j - 1, j) if 0 <= x < len(cands)),
                   key=lambda x: (abs(cands[x][0] - n), cands[x][1]))
        chosen.append(cands.pop(best)[1])
    return [(f"c{i:04d}", pool[i][2]) for i in sorted(chosen)]


# ---------------------------------------------------------------------------
# nested: three synthetic size families
# ---------------------------------------------------------------------------


def depth_text(n: int, rng: random.Random) -> str:
    """A let/case chain ``n`` steps deep; every helper lifts for free.

    Step k binds ``f{k} = \\p -> +# p x{k-1}`` and scrutinises ``f{k} x{k-1}``,
    so the decision at step k skeletonises everything below it.
    """
    lines = [f"main =\n  case {rng.randint(0, 9)} of {{ default x0 ->"]
    for k in range(1, n + 1):
        lines.append(f"  let f{k} = \\ p{k} -> +# p{k} x{k - 1} in")
        lines.append(f"  case f{k} x{k - 1} of {{ default x{k} ->")
    lines.append(f"  x{n}")
    lines.append("  " + "}" * (n + 1))
    return "\n".join(lines) + "\n"


def width_text(n: int, rng: random.Random) -> str:
    """One ``let ... and ...`` group of ``n`` chained helpers.

    Helper k calls helper k-1, so split_groups turns the group into a chain
    of ``n`` singleton lets, each lifted with the required set ``{y}``.
    """
    lines = [f"main =\n  case {rng.randint(0, 9)} of {{ default y ->"]
    lines.append("  let g1 = \\ q1 -> +# q1 y")
    for k in range(2, n + 1):
        lines.append(f"  and g{k} = \\ q{k} -> g{k - 1} q{k}")
    lines.append(f"  in g{n} y }}")
    return "\n".join(lines) + "\n"


def rqs_text(n: int, rng: random.Random) -> str:
    """A helper whose required set has ``n`` variables.

    C3 (arity) rejects it before closure growth is estimated, so this family
    bypasses ``predicted_growth`` entirely.
    """
    lines = ["main ="]
    for k in range(1, n + 1):
        lines.append(f"  case {rng.randint(0, 9)} of {{ default v{k} ->")
    lines.append("  let h = \\ s0 ->")
    for k in range(1, n + 1):
        lines.append(f"    case +# s{k - 1} v{k} of {{ default s{k} ->")
    lines.append(f"    s{n}" + " }" * n)
    lines.append("  in h 1" + " }" * n)
    return "\n".join(lines) + "\n"


FAMILIES = {"depth": depth_text, "width": width_text, "rqs": rqs_text}


def nested_texts(seed: int, ladder=NESTED_LADDER) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [
        (f"{family}-{n}", FAMILIES[family](n, rng))
        for family, sizes in ladder.items()
        for n in sizes
    ]


def nested_probe_texts(seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [(f"{fam}-{n}", FAMILIES[fam](n, rng)) for fam, n in NESTED_PROBES.items()]


# ---------------------------------------------------------------------------
# loops: countdown and tally from programs/, loop constant scaled
# ---------------------------------------------------------------------------

LOOP_FILES = ("countdown", "tally")


def read_loop_sources(root: Path) -> dict[str, str]:
    return {
        name: (root / "programs" / f"{name}.stg").read_text(encoding="utf-8")
        for name in LOOP_FILES
    }


def scale_loop(source: str, n: int) -> str:
    """Replace the loop constant 1000 by ``n``, as acceptance criteria 1-2 do."""
    if source.count("1000") != 1:
        raise ValueError("loop program must contain the constant 1000 exactly once")
    return source.replace("1000", str(n))


def loop_texts(sources: dict[str, str], ladder=LOOP_LADDER) -> list[tuple[str, str]]:
    return [
        (f"{name}-{n}", scale_loop(sources[name], n))
        for name, sizes in ladder.items()
        for n in sizes
    ]


def loop_probe_texts(sources: dict[str, str]) -> list[tuple[str, str]]:
    return [(f"{name}-{n}", scale_loop(sources[name], n)) for name, n in LOOP_PROBES.items()]


# ---------------------------------------------------------------------------
# the freeze
# ---------------------------------------------------------------------------


def reference_digests(root: Path) -> dict[str, str]:
    """The digests FROZEN records, recomputed from this checkout."""
    sources = read_loop_sources(root)
    out = {
        "corpus": sha256_texts(t for _, t in corpus_texts(REF_SEED)),
        "nested": sha256_texts(
            t for _, t in nested_texts(REF_SEED) + nested_probe_texts(REF_SEED)
        ),
        "loops": sha256_texts(t for _, t in loop_texts(sources) + loop_probe_texts(sources)),
    }
    for name, text in sources.items():
        out[f"programs/{name}.stg"] = sha256_texts([text])
    return out


def frozen_mismatches(root: Path) -> list[str]:
    got = reference_digests(root)
    return [k for k, v in FROZEN.items() if got.get(k) != v]
