"""Seeded random generator of valid, terminating programs.

Programs are closed, uniquely named, ANF-correct by construction, and free
of recursion: group members may reference earlier members only, so every
generated program evaluates to an integer without errors.  Annotations are
always the multi-shot default, which is sound for any entry behaviour.
"""

from __future__ import annotations

import random

from liftlab.syntax import (
    App,
    AtomExpr,
    BindGroup,
    Case,
    Expr,
    Lambda,
    Let,
    Lit,
    MULTI_SHOT,
    PrimApp,
    Program,
    Thunk,
    TopBind,
    Var,
)

MAX_DEPTH = 6

_SINK = TopBind("sink", ("sink_a", "sink_b"), AtomExpr(Var("sink_a")))


class ProgramGen:
    """One instance generates one program; draw randomness from ``rng``."""

    def __init__(self, rng: random.Random, max_depth: int = MAX_DEPTH):
        self.rng = rng
        self.max_depth = max_depth
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def program(self) -> Program:
        return Program((_SINK,), self.expr(self.max_depth, {}))

    # scope maps name -> "int" (forceable to an integer) or ("fun", arity)

    def int_vars(self, scope: dict) -> list[str]:
        return [n for n, k in scope.items() if k == "int"]

    def fun_vars(self, scope: dict) -> list[tuple[str, int]]:
        return [(n, k[1]) for n, k in scope.items() if isinstance(k, tuple)]

    def int_atom(self, scope: dict):
        ints = self.int_vars(scope)
        if ints and self.rng.random() < 0.6:
            return Var(self.rng.choice(ints))
        return Lit(self.rng.randint(-5, 9))

    def leaf(self, scope: dict) -> Expr:
        roll = self.rng.random()
        funs = self.fun_vars(scope)
        if roll < 0.2:
            return self.prim(scope)
        if roll < 0.35 and funs:
            return self.app(scope)
        return AtomExpr(self.int_atom(scope))

    def prim(self, scope: dict) -> Expr:
        op = self.rng.choice(("+#", "-#", "*#", "%#", "<#"))
        if op == "%#":
            return PrimApp(op, (self.int_atom(scope), Lit(self.rng.choice((2, 3, 5, 7)))))
        return PrimApp(op, (self.int_atom(scope), self.int_atom(scope)))

    def app(self, scope: dict) -> Expr:
        name, arity = self.rng.choice(self.fun_vars(scope))
        return App(name, tuple(self.int_atom(scope) for _ in range(arity)))

    def sink_call(self, scope: dict) -> Expr:
        name, _ = self.rng.choice(self.fun_vars(scope))
        return App("sink", (self.int_atom(scope), Var(name)))

    def expr(self, depth: int, scope: dict) -> Expr:
        if depth <= 0:
            return self.leaf(scope)
        roll = self.rng.random()
        funs = self.fun_vars(scope)
        if roll < 0.32:
            return self.let(depth, scope)
        if roll < 0.52:
            return self.case(depth, scope)
        if roll < 0.67 and funs:
            return self.app(scope)
        if roll < 0.79:
            return self.prim(scope)
        if roll < 0.84 and funs:
            return self.sink_call(scope)
        return self.leaf(scope)

    def let(self, depth: int, scope: dict) -> Expr:
        n = self.rng.choices((1, 2, 3), weights=(60, 30, 10))[0]
        binds = []
        rhs_scope = dict(scope)
        for _ in range(n):
            if self.rng.random() < 0.7:
                params = tuple(
                    self.fresh("p") for _ in range(self.rng.randint(1, 2))
                )
                inner = dict(rhs_scope)
                for prm in params:
                    inner[prm] = "int"
                name = self.fresh("fn")
                binds.append((name, Lambda(MULTI_SHOT, params, self.expr(depth - 1, inner))))
                rhs_scope[name] = ("fun", len(params))
            else:
                name = self.fresh("th")
                binds.append((name, Thunk(self.expr(depth - 1, dict(rhs_scope)))))
                rhs_scope[name] = "int"
        return Let(BindGroup(tuple(binds)), self.expr(depth - 1, rhs_scope))

    def case(self, depth: int, scope: dict) -> Expr:
        scrut = self.expr(depth - 1, scope)
        pats = self.rng.sample(range(-2, 4), k=self.rng.randint(0, 2))
        alts = tuple((pat, self.expr(depth - 1, scope)) for pat in sorted(pats))
        binder = self.fresh("d")
        inner = dict(scope)
        inner[binder] = "int"
        return Case(scrut, alts, (binder, self.expr(depth - 1, inner)))


def random_disjoint_sets(
    rng: random.Random, pool: list[str]
) -> tuple[frozenset[str], frozenset[str]]:
    extended = pool + ["q_extra1", "q_extra2", "q_extra3", "q_extra4"]
    take = min(len(extended), rng.randint(0, 4) + rng.randint(0, 4))
    picked = rng.sample(extended, k=take)
    cut = rng.randint(0, len(picked))
    return frozenset(picked[:cut]), frozenset(picked[cut:])
