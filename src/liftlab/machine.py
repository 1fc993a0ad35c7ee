"""Big-step interpreter with exact closure-allocation accounting.

Evaluation is call-by-need for thunks and lazy in arguments: atoms are
passed unevaluated and forced at use sites (variable return positions,
application heads, primop operands, case scrutinees).  Every executed let
allocates, per binding, one code word plus one word per captured variable;
integers are unboxed and top-level definitions allocate nothing.  The
resulting word counts are the ground truth against which the lifter's
closure-growth predictions are checked.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .analysis import free_var_table
from .lifter import LiftConfig, lift_program, liftable_sites
from .syntax import (
    App,
    AtomExpr,
    Case,
    Expr,
    Lambda,
    Let,
    Lit,
    PrimApp,
    Program,
)

DEFAULT_FUEL = 10_000_000
_RECURSION_LIMIT = 60_000


class EvalError(Exception):
    pass


class OutOfFuel(EvalError):
    pass


class UnboundVariable(EvalError):
    pass


class ArityMismatch(EvalError):
    pass


class BlackholeLoop(EvalError):
    pass


class DivideByZero(EvalError):
    pass


@dataclass(frozen=True)
class IntValue:
    value: int


class FunValue:
    """A code reference paired with its captured environment."""

    __slots__ = ("binder", "params", "body", "env", "entries", "size")

    def __init__(self, binder: str, params: tuple[str, ...], body: Expr, env: dict):
        self.binder = binder
        self.params = params
        self.body = body
        self.env = env
        self.entries = 0
        self.size = 0


class ThunkCell:
    """Updatable closure; memoised after the first entry, blackholed during it."""

    __slots__ = ("binder", "body", "env", "state", "value", "entries", "size")

    def __init__(self, binder: str, body: Expr, env: dict):
        self.binder = binder
        self.body = body
        self.env = env
        self.state = "pending"  # pending | busy | done
        self.value = None
        self.entries = 0
        self.size = 0


Value = IntValue | FunValue


def render_value(v: Value) -> str:
    if isinstance(v, IntValue):
        return str(v.value)
    return f"<fun {v.binder}>"


def value_key(v: Value) -> tuple:
    """Comparison key: ints by value, functions by defining binder."""
    if isinstance(v, IntValue):
        return ("int", v.value)
    return ("fun", v.binder)


@dataclass(frozen=True)
class BinderStats:
    allocations: int
    entries: int
    words: int
    per_allocation_entries: tuple[int, ...]


@dataclass
class AllocStats:
    words_allocated: int
    closures_allocated: int
    steps: int
    per_binder: dict[str, BinderStats]

    def binder_words(self, name: str) -> int:
        stats = self.per_binder.get(name)
        return stats.words if stats else 0


def _all_binders(p: Program) -> list[str]:
    names = [tb.name for tb in p.top_binds]

    def walk(e: Expr) -> None:
        if isinstance(e, Let):
            for name, rhs in e.group.binds:
                names.append(name)
                walk(rhs.body)
            walk(e.body)
        elif isinstance(e, Case):
            walk(e.scrutinee)
            for _, b in e.alts:
                walk(b)
            walk(e.default[1])

    for tb in p.top_binds:
        walk(tb.body)
    walk(p.main)
    return names


class _Machine:
    def __init__(self, program: Program, fuel: int):
        if fuel < 1:
            raise ValueError("fuel must be positive")
        self.program = program
        self.fuel = fuel
        self.steps = 0
        self.words = 0
        self.closures = 0
        self.top_names = program.top_names()
        self.cells: dict[str, list] = {name: [] for name in _all_binders(program)}
        self.tops: dict[str, FunValue] = {}
        self.size_cache: dict[int, int] = {}
        self.free_vars: dict[int, frozenset[str]] = {}
        top_env: dict = {}
        for tb in program.top_binds:
            fn = FunValue(tb.name, tb.params, tb.body, top_env)
            top_env[tb.name] = fn
            self.tops[tb.name] = fn

    def run(self) -> tuple[Value, AllocStats]:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, _RECURSION_LIMIT))
        try:
            value = self._eval(self.program.main, dict(self.tops))
        except RecursionError:
            raise OutOfFuel("host recursion limit reached") from None
        finally:
            sys.setrecursionlimit(limit)
        return value, self._stats()

    def _stats(self) -> AllocStats:
        per_binder = {}
        for name in sorted(self.cells):
            if name in self.tops:
                per_binder[name] = BinderStats(0, self.tops[name].entries, 0, ())
                continue
            items = self.cells[name]
            profile = tuple(c.entries for c in items)
            per_binder[name] = BinderStats(
                allocations=len(items),
                entries=sum(profile),
                words=sum(c.size for c in items),
                per_allocation_entries=profile,
            )
        return AllocStats(self.words, self.closures, self.steps, per_binder)

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.fuel:
            raise OutOfFuel(f"exceeded {self.fuel} steps")

    def _lookup(self, name: str, env: dict):
        try:
            return env[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def _atom(self, a, env):
        if isinstance(a, Lit):
            return IntValue(a.value)
        return self._lookup(a.name, env)

    def _force(self, v) -> Value:
        while True:
            if isinstance(v, IntValue):
                return v
            if isinstance(v, FunValue):
                if v.params:
                    return v
                # Nullary top-level definition: entered on every reference,
                # never memoised and never allocated.
                self._tick()
                v.entries += 1
                v = self._eval(v.body, dict(v.env))
                continue
            cell: ThunkCell = v
            if cell.state == "done":
                return cell.value
            if cell.state == "busy":
                raise BlackholeLoop(cell.binder)
            self._tick()
            cell.state = "busy"
            cell.entries += 1
            result = self._eval(cell.body, cell.env)
            cell.state = "done"
            cell.value = result
            return result

    def _force_int(self, v, op: str) -> int:
        forced = self._force(v)
        if not isinstance(forced, IntValue):
            raise ArityMismatch(f"{op} applied to a function value")
        return forced.value

    def _allocate(self, let: Let, env: dict) -> dict:
        env2 = dict(env)
        created = []
        for name, rhs in let.group.binds:
            if isinstance(rhs, Lambda):
                cell = FunValue(name, rhs.params, rhs.body, env2)
            else:
                cell = ThunkCell(name, rhs.body, env2)
            env2[name] = cell
            created.append((name, rhs, cell))
        for name, rhs, cell in created:
            key = id(rhs)
            size = self.size_cache.get(key)
            if size is None:
                if key not in self.free_vars:  # nested right-hand sides come along
                    self.free_vars.update(free_var_table([rhs]))
                size = 1 + len(self.free_vars[key] - {name} - self.top_names)
                self.size_cache[key] = size
            cell.size = size
            self.words += size
            self.closures += 1
            self.cells[name].append(cell)
        return env2

    def _eval(self, expr: Expr, env: dict) -> Value:
        while True:
            self._tick()
            if isinstance(expr, AtomExpr):
                return self._force(self._atom(expr.atom, env))
            if isinstance(expr, App):
                fn = self._force(self._lookup(expr.head, env))
                vals = [self._atom(a, env) for a in expr.args]
                while True:
                    if not isinstance(fn, FunValue):
                        raise ArityMismatch(
                            f"application of non-function result of {expr.head!r}"
                        )
                    n = len(fn.params)
                    if len(vals) < n:
                        raise ArityMismatch(
                            f"{fn.binder} expects {n} arguments, got {len(vals)}"
                        )
                    call_env = dict(fn.env)
                    for prm, val in zip(fn.params, vals[:n]):
                        call_env[prm] = val
                    fn.entries += 1
                    if len(vals) == n:
                        expr = fn.body
                        env = call_env
                        break
                    # Oversaturated call: run to a function, keep applying.
                    fn = self._force(self._eval(fn.body, call_env))
                    vals = vals[n:]
                continue
            if isinstance(expr, PrimApp):
                a, b = expr.args
                x = self._force_int(self._atom(a, env), expr.op)
                y = self._force_int(self._atom(b, env), expr.op)
                return IntValue(self._prim(expr.op, x, y))
            if isinstance(expr, Let):
                env = self._allocate(expr, env)
                expr = expr.body
                continue
            if isinstance(expr, Case):
                scrut = self._eval(expr.scrutinee, env)
                chosen = None
                if isinstance(scrut, IntValue):
                    for pat, body in expr.alts:
                        if pat == scrut.value:
                            chosen = body
                            break
                if chosen is None:
                    dname, dbody = expr.default
                    env = dict(env)
                    env[dname] = scrut
                    chosen = dbody
                expr = chosen
                continue
            raise AssertionError(expr)

    @staticmethod
    def _prim(op: str, x: int, y: int) -> int:
        if op == "+#":
            return x + y
        if op == "-#":
            return x - y
        if op == "*#":
            return x * y
        if op == "%#":
            if y == 0:
                raise DivideByZero(f"{x} %# 0")
            return x % y
        if op == "<#":
            return 1 if x < y else 0
        raise AssertionError(op)


def evaluate(p: Program, fuel: int = DEFAULT_FUEL) -> tuple[Value, AllocStats]:
    """Evaluate a validated program's main expression; exact word accounting."""
    return _Machine(p, fuel).run()


class SubsetTooLarge(Exception):
    pass


@dataclass(frozen=True)
class OracleRow:
    subset: tuple[str, ...]
    words: int
    closures: int
    value: str


def enumerate_lift_subsets(
    p: Program, fuel: int = DEFAULT_FUEL, max_groups: int = 4
) -> list[OracleRow]:
    """Force-lift every subset of the liftable groups and measure each.

    Liftable means the group passes the validity-critical checks (no thunks,
    no argument occurrences).  Row 0 is the empty subset, i.e. the original
    program; rows follow bitmask order over the sites in traversal order.
    """
    sites = liftable_sites(p)
    if len(sites) > max_groups:
        raise SubsetTooLarge(f"{len(sites)} liftable groups exceed limit {max_groups}")
    rows = []
    cfg = LiftConfig()
    for mask in range(2 ** len(sites)):
        chosen = frozenset(s for i, s in enumerate(sites) if mask & (1 << i))
        lifted, _ = lift_program(p, cfg, force_sites=chosen)
        value, stats = evaluate(lifted, fuel)
        label = tuple("+".join(s) for s in sites if s in chosen)
        rows.append(
            OracleRow(label, stats.words_allocated, stats.closures_allocated, render_value(value))
        )
    return rows


def minimal_subset(rows: list[OracleRow]) -> OracleRow:
    """The allocation-minimal row (first one on ties)."""
    return min(rows, key=lambda r: r.words)
