"""Allocation-counting interpreter: flat closures on an explicit stack.

Evaluation is call-by-need for thunks and lazy in arguments: atoms are
passed unevaluated and forced at use sites (variable return positions,
application heads, primop operands, case scrutinees).  The machine works in
the eval/apply style of the STG machine: one loop evaluates an expression
until it yields a value, forces that value, and returns it to the innermost
pending frame (a case scrutinee, a thunk update, argument values waiting for
a forced head or an oversaturated call's result, or a primop operand).
The frames live on an explicit stack, so evaluation depth is bounded by
fuel, never by the host's recursion limit.

Closures are flat.  A function or thunk stores only the values of its slots,
its :func:`~liftlab.analysis.closure_slots` (free variables, minus itself,
minus top-level names), the rule the skeletons' closures follow too, so
predicted and charged words agree by construction.  A call runs in a copy
of the slots plus the closure itself and the arguments, and top-level names
resolve through one shared table.  Every executed let allocates, per
binding, one code word plus one word per stored slot; integers are unboxed
and top-level definitions allocate nothing.  The resulting word counts are
the ground truth against which the lifter's closure-growth predictions are
checked.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .analysis import closure_slots, free_var_table
from .lifter import apply_lifts, plan_lifts
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
    """A code reference paired with the values of its slots; it is charged
    ``1 + len(slots)`` words."""

    __slots__ = ("binder", "params", "body", "slots", "entries")

    def __init__(self, binder: str, params: tuple[str, ...], body: Expr):
        self.binder = binder
        self.params = params
        self.body = body
        self.slots: dict = {}
        self.entries = 0


class ThunkCell:
    """Updatable closure; memoised after the first entry, blackholed during
    it, and charged ``1 + len(slots)`` words like a function."""

    __slots__ = ("binder", "body", "slots", "value", "entries")

    def __init__(self, binder: str, body: Expr):
        self.binder = binder
        self.body = body
        self.slots: dict = {}
        self.value = None  # None: not entered yet; _BLACKHOLE: running
        self.entries = 0


_BLACKHOLE = object()

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


def _modulo(x: int, y: int) -> int:
    if y == 0:
        raise DivideByZero(f"{x} %# 0")
    return x % y


def _less(x: int, y: int) -> int:
    return 1 if x < y else 0


_PRIMS = {
    "+#": operator.add,
    "-#": operator.sub,
    "*#": operator.mul,
    "%#": _modulo,
    "<#": _less,
}

# Continuation frames, each a (kind, a, b) tuple:
_CASE = 0  # (case expression, env): choose an alternative for the value
_UPDATE = 1  # (thunk cell, None): memoise the value
_ARGS = 2  # (argument values, head name): apply the value to them
_LEFT = 3  # (primop, env): first operand forced; read the second
_RIGHT = 4  # (primop, first operand): second operand forced; compute


class _Tops(dict):
    """Top-level definitions by name; the fallback of every variable lookup."""

    def __missing__(self, name: str):
        raise UnboundVariable(name)


def _let_binders(p: Program) -> list[str]:
    """Every let binder, so binders never allocated still get a stats row.
    A hand-written loop rather than :func:`~liftlab.syntax.walk`, which
    takes twice as long here, and every :func:`evaluate` pays for it."""
    names = []
    stack = [tb.body for tb in p.top_binds]
    stack.append(p.main)
    while stack:
        e = stack.pop()
        if type(e) is Let:
            for name, rhs in e.group.binds:
                names.append(name)
                stack.append(rhs.body)
            stack.append(e.body)
        elif type(e) is Case:
            stack.append(e.scrutinee)
            stack.extend([body for _, body in e.alts])
            stack.append(e.default[1])
    return names


class _Machine:
    def __init__(self, program: Program, fuel: int):
        if fuel < 1:
            raise ValueError("fuel must be positive")
        self.program = program
        self.fuel = fuel
        self.top_names = program.top_names()
        self.tops = _Tops()
        for tb in program.top_binds:
            self.tops[tb.name] = FunValue(tb.name, tb.params, tb.body)
        # Every closure allocated, by binder: the source of all word counts.
        self.cells: dict[str, list] = {name: [] for name in _let_binders(program)}
        self.free_vars: dict[int, frozenset[str]] = {}
        # id(let) -> per binding (name, rhs, slot names, allocation list)
        self.plans: dict[int, list[tuple]] = {}

    def _stats(self, steps: int) -> AllocStats:
        per_binder = {}
        for name in sorted(self.cells.keys() | self.tops.keys()):
            if name in self.tops:
                per_binder[name] = BinderStats(0, self.tops[name].entries, 0, ())
                continue
            items = self.cells[name]
            profile = tuple([c.entries for c in items])
            per_binder[name] = BinderStats(
                allocations=len(items),
                entries=sum(profile),
                words=sum([1 + len(c.slots) for c in items]),
                per_allocation_entries=profile,
            )
        words = sum([b.words for b in per_binder.values()])
        closures = sum([b.allocations for b in per_binder.values()])
        return AllocStats(words, closures, steps, per_binder)

    def _plan(self, let: Let) -> list[tuple]:
        rhss = [rhs for _, rhs in let.group.binds]
        # One table per outermost group: nested right-hand sides come along.
        if rhss and id(rhss[0]) not in self.free_vars:
            self.free_vars.update(free_var_table(rhss))
        plan = []
        for name, rhs in let.group.binds:
            slots = closure_slots(name, self.free_vars[id(rhs)], self.top_names)
            plan.append((name, rhs, tuple(sorted(slots)), self.cells[name]))
        self.plans[id(let)] = plan
        return plan

    def _allocate(self, let: Let, env: dict) -> None:
        """Bind the group's closures in ``env``, then fill their slots, so
        members of a recursive group capture each other."""
        plan = self.plans.get(id(let)) or self._plan(let)
        cells = []
        for name, rhs, _, _ in plan:
            if type(rhs) is Lambda:
                cell = FunValue(name, rhs.params, rhs.body)
            else:
                cell = ThunkCell(name, rhs.body)
            env[name] = cell
            cells.append(cell)
        for cell, (_, _, names, allocated) in zip(cells, plan):
            slots = cell.slots
            for v in names:
                try:
                    slots[v] = env[v]
                except KeyError:
                    raise UnboundVariable(v) from None
            allocated.append(cell)

    def _read(self, args, env: dict) -> list:
        """Argument values, unforced: literals as ints, variables looked up."""
        vals = []
        for a in args:
            if type(a) is Lit:
                vals.append(a.value)
            else:
                x = env.get(a.name)
                vals.append(self.tops[a.name] if x is None else x)
        return vals

    def _apply(self, fn, vals: list, head: str, stack: list) -> tuple[Expr, dict]:
        """Enter ``fn`` with ``vals``; an oversaturated call leaves a frame
        that applies its result to the remaining values."""
        if type(fn) is not FunValue:
            raise ArityMismatch(f"application of non-function result of {head!r}")
        n = len(fn.params)
        if len(vals) < n:
            raise ArityMismatch(f"{fn.binder} expects {n} arguments, got {len(vals)}")
        if len(vals) > n:
            stack.append((_ARGS, vals[n:], head))
        env = dict(fn.slots)
        env[fn.binder] = fn
        env.update(zip(fn.params, vals))
        fn.entries += 1
        return fn.body, env

    def run(self) -> tuple[Value, AllocStats]:
        tops = self.tops
        fuel = self.fuel
        prims = _PRIMS
        stack: list[tuple] = []
        push = stack.append
        steps = 0
        expr: Expr = self.program.main
        env: dict = {}
        while True:
            # Evaluate ``expr`` in ``env``, one step per node, until it
            # yields a value ``v``.
            while True:
                steps += 1
                if steps > fuel:
                    raise OutOfFuel(f"exceeded {fuel} steps")
                t = type(expr)
                if t is Case:
                    push((_CASE, expr, env))
                    expr = expr.scrutinee
                elif t is App:
                    head = expr.head
                    fn = env.get(head)
                    if fn is None:
                        fn = tops[head]
                    if type(fn) is FunValue and fn.params:
                        args = expr.args
                        if len(args) == len(fn.params):
                            # A saturated call, inlined: the commonest
                            # step; every other case goes through _apply.
                            call = dict(fn.slots)
                            call[fn.binder] = fn
                            for prm, a in zip(fn.params, args):
                                if type(a) is Lit:
                                    call[prm] = a.value
                                else:
                                    x = env.get(a.name)
                                    call[prm] = tops[a.name] if x is None else x
                            fn.entries += 1
                            expr = fn.body
                            env = call
                            continue
                    elif type(fn) is not int:  # a thunk or nullary top-level
                        # Read the arguments now: forcing the head runs
                        # its body in an env of its own, leaving ``env``.
                        push((_ARGS, self._read(expr.args, env), head))
                        v = fn
                        break
                    expr, env = self._apply(fn, self._read(expr.args, env), head, stack)
                elif t is PrimApp:
                    a, b = expr.args
                    if type(a) is Lit:
                        v = a.value
                    else:
                        v = env.get(a.name)
                        if v is None:
                            v = tops[a.name]
                    if type(v) is not int:
                        push((_LEFT, expr, env))
                        break
                    x = v
                    if type(b) is Lit:
                        v = b.value
                    else:
                        v = env.get(b.name)
                        if v is None:
                            v = tops[b.name]
                    if type(v) is not int:
                        push((_RIGHT, expr, x))
                        break
                    v = prims[expr.op](x, v)
                    break
                elif t is AtomExpr:
                    a = expr.atom
                    if type(a) is Lit:
                        v = a.value
                    else:
                        v = env.get(a.name)
                        if v is None:
                            v = tops[a.name]
                    break
                elif t is Let:
                    self._allocate(expr, env)
                    expr = expr.body
                else:
                    raise AssertionError(expr)
            # Force ``v``, then return it to the innermost frames until one
            # of them resumes evaluation.
            while True:
                tv = type(v)
                if tv is ThunkCell:
                    cell = v
                    v = cell.value
                    if v is None:
                        steps += 1
                        if steps > fuel:
                            raise OutOfFuel(f"exceeded {fuel} steps")
                        cell.value = _BLACKHOLE
                        cell.entries += 1
                        push((_UPDATE, cell, None))
                        env = dict(cell.slots)
                        env[cell.binder] = cell
                        expr = cell.body
                        break
                    if v is _BLACKHOLE:
                        raise BlackholeLoop(cell.binder)
                elif tv is FunValue and not v.params:
                    # Nullary top-level definition: entered on every
                    # reference, never memoised and never allocated.
                    steps += 1
                    if steps > fuel:
                        raise OutOfFuel(f"exceeded {fuel} steps")
                    v.entries += 1
                    env = {}
                    expr = v.body
                    break
                if not stack:
                    value = IntValue(v) if type(v) is int else v
                    return value, self._stats(steps)
                kind, a, b = stack.pop()
                if kind == _CASE:
                    env = b
                    expr = None
                    if type(v) is int:
                        for pat, body in a.alts:
                            if pat == v:
                                expr = body
                                break
                    if expr is None:
                        dname, expr = a.default
                        env[dname] = v
                    break
                if kind == _UPDATE:
                    a.value = v
                elif kind == _ARGS:
                    expr, env = self._apply(v, a, b, stack)
                    break
                else:  # a primop operand
                    if type(v) is not int:
                        raise ArityMismatch(f"{a.op} applied to a function value")
                    if kind == _RIGHT:
                        v = prims[a.op](b, v)
                        continue
                    push((_RIGHT, a, v))
                    rb = a.args[1]
                    if type(rb) is Lit:
                        v = rb.value
                    else:
                        v = b.get(rb.name)
                        if v is None:
                            v = tops[rb.name]


def evaluate(p: Program, fuel: int = DEFAULT_FUEL) -> tuple[Value, AllocStats]:
    """Evaluate a program's main expression; exact word accounting.

    ``p`` must be validated (see :func:`~liftlab.syntax.validate`): names
    are globally unique, which lets let and case-default binders extend the
    running activation's environment in place.
    """
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
    The program is analysed once, and each subset only applies that plan.
    """
    plan = plan_lifts(p)
    sites = plan.sites()
    if len(sites) > max_groups:
        raise SubsetTooLarge(f"{len(sites)} liftable groups exceed limit {max_groups}")
    rows = []
    for mask in range(2 ** len(sites)):
        chosen = frozenset(s for i, s in enumerate(sites) if mask & (1 << i))
        # Lifting nothing would only copy the program.
        value, stats = evaluate(apply_lifts(plan, force_sites=chosen) if chosen else p, fuel)
        label = tuple("+".join(s) for s in sites if s in chosen)
        rows.append(
            OracleRow(label, stats.words_allocated, stats.closures_allocated, render_value(value))
        )
    return rows


def minimal_subset(rows: list[OracleRow]) -> OracleRow:
    """The allocation-minimal row (first one on ties)."""
    return min(rows, key=lambda r: r.words)
