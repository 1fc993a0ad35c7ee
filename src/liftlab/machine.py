"""Allocation-counting interpreter: flat closures on an explicit stack.

Evaluation is call-by-need for thunks and lazy in arguments: atoms are
passed unevaluated and forced at use sites (variable return positions,
application heads, primop operands, case scrutinees).  The machine works in
the eval/apply style of the STG machine: one loop evaluates an expression
until it yields a value, forces that value, and returns it to the innermost
pending frame (a case scrutinee, a thunk update, argument values waiting for
a forced head or an oversaturated call's result, or a primop operand).
The frames live on an explicit stack, so evaluation depth is bounded by
fuel, never by the host's recursion limit.  A frame is pushed only to wait
for evaluation, as in the STG machine: a case whose scrutinee's int is
already at hand, or a primop whose operand is a thunk already evaluated,
goes straight on, charged the same steps.

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

What evaluation needs of the program before it steps (the stats rows,
and each let's slot names) is memoised on the program object (see
:func:`~liftlab.syntax._analyses`), so a second :func:`evaluate` of one
object starts at once.  The slots are read from each right-hand side's
:func:`~liftlab.analysis.free_vars`.  The stats rows come first, from the
program's :func:`~liftlab.analysis.scan_program` unless the lifter handed
them on, so a program nobody scanned is scanned once, whole, before it
runs; a lifted output scans only the right-hand sides the lift rebuilt,
when they first run.

Counting never keeps a closure alive, as in GHC's ticky-ticky profiling.
Each let binder that runs gets one list of entry counts, one per
allocation, and a fixed number of words per allocation (names are unique,
so its slots never change).  A closure holds that list and its own index in
it, so once the program drops the closure it is freed and its count stays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .analysis import _binder_names, closure_slots, free_vars
from .lifter import apply_lifts, liftable_sites, plan_lifts
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
    _analyses,
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
    ``1 + len(slots)`` words.  An entry adds one to ``counts[index]``, its
    own place in its binder's entry counts."""

    __slots__ = ("binder", "params", "body", "slots", "counts", "index")

    def __init__(
        self, binder: str, params: tuple[str, ...], body: Expr, counts: list[int], index: int
    ):
        self.binder = binder
        self.params = params
        self.body = body
        self.slots: dict = {}
        self.counts = counts
        self.index = index


class ThunkCell:
    """Updatable closure; memoised after the first entry, blackholed during
    it, and charged and counted like a function."""

    __slots__ = ("binder", "body", "slots", "value", "counts", "index")

    def __init__(self, binder: str, body: Expr, counts: list[int], index: int):
        self.binder = binder
        self.body = body
        self.slots: dict = {}
        self.value = None  # None: not entered yet; _BLACKHOLE: running
        self.counts = counts
        self.index = index


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


_NEVER_RAN = BinderStats(0, 0, 0, ())


@dataclass
class AllocStats:
    words_allocated: int
    closures_allocated: int
    steps: int
    per_binder: dict[str, BinderStats]


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


class _Machine:
    def __init__(self, program: Program, fuel: int):
        if fuel < 1:
            raise ValueError("fuel must be positive")
        self.program = program
        self.fuel = fuel
        self.top_names = program.top_names()
        self.tops = _Tops()
        for tb in program.top_binds:
            self.tops[tb.name] = FunValue(tb.name, tb.params, tb.body, [0], 0)
        # Counters, not closures, so a closure lives only while the program
        # holds it: per let binder that ran, the entry count of each of its
        # allocations and the words one allocation takes.
        self.counters: dict[str, tuple[list[int], int]] = {}
        # id(let) -> per binding (name, rhs, slot names, entry counts)
        self.plans: dict[int, list[tuple]] = {}
        # What does not depend on the run is memoised on the program: the
        # stats rows, whose scan stores the free variables of every
        # right-hand side when the program has none, and the let layouts.
        self.rows = _binder_names(program)
        self.layouts: dict[int, list[tuple]] = _analyses(program).setdefault("layouts", {})

    def _stats(self, steps: int) -> AllocStats:
        # Every binder gets a row, also one never allocated or entered.
        per_binder = dict.fromkeys(self.rows, _NEVER_RAN)
        words = closures = 0
        for name, (counts, width) in self.counters.items():
            n = len(counts)
            per_binder[name] = BinderStats(n, sum(counts), n * width, tuple(counts))
            words += n * width
            closures += n
        for name, fn in self.tops.items():
            if fn.counts[0]:
                per_binder[name] = BinderStats(0, fn.counts[0], 0, ())
        return AllocStats(words, closures, steps, per_binder)

    def _plan(self, let: Let) -> list[tuple]:
        """Per binding: name, right-hand side, slot names, entry counts; all
        but the counts come from the let's layout, made once per program."""
        layout = self.layouts.get(id(let))
        if layout is None:
            layout = []
            for name, rhs in let.group.binds:
                # Names are unique, so every allocation for ``name`` stores
                # the same slots.
                slots = tuple(sorted(closure_slots(name, free_vars(rhs), self.top_names)))
                layout.append((name, rhs, slots, 1 + len(slots)))
            self.layouts[id(let)] = layout
        plan = [
            (name, rhs, slots, self.counters.setdefault(name, ([], width))[0])
            for name, rhs, slots, width in layout
        ]
        self.plans[id(let)] = plan
        return plan

    def _allocate(self, let: Let, env: dict) -> None:
        """Bind the group's closures in ``env``, then fill their slots, so
        members of a recursive group capture each other."""
        plan = self.plans.get(id(let)) or self._plan(let)
        cells = []
        for name, rhs, _, counts in plan:
            if type(rhs) is Lambda:
                cell = FunValue(name, rhs.params, rhs.body, counts, len(counts))
            else:
                cell = ThunkCell(name, rhs.body, counts, len(counts))
            counts.append(0)
            env[name] = cell
            cells.append(cell)
        for cell, (_, _, names, _) in zip(cells, plan):
            slots = cell.slots
            for v in names:
                try:
                    slots[v] = env[v]
                except KeyError:
                    raise UnboundVariable(v) from None

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
        fn.counts[fn.index] += 1
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
                    s = expr.scrutinee
                    ts = type(s)
                    if ts is not App:
                        # At hand: a literal, or a variable of the running
                        # activation bound to an int or to a thunk already
                        # evaluated to one; or a primop on two such atoms.
                        # Such a scrutinee is charged its step and chosen on
                        # at once; anything else waits on a frame.
                        v = w = None
                        if ts is AtomExpr:
                            a = s.atom
                            v = a.value if type(a) is Lit else env.get(a.name)
                        elif ts is PrimApp:
                            a, b = s.args
                            w = b.value if type(b) is Lit else env.get(b.name)
                            if type(w) is ThunkCell:
                                w = w.value
                            if type(w) is int:
                                v = a.value if type(a) is Lit else env.get(a.name)
                        if type(v) is ThunkCell:
                            v = v.value
                        if type(v) is int:
                            steps += 1
                            if steps > fuel:
                                raise OutOfFuel(f"exceeded {fuel} steps")
                            if ts is PrimApp:
                                v = prims[s.op](v, w)
                            for pat, body in expr.alts:
                                if pat == v:
                                    expr = body
                                    break
                            else:
                                dname, expr = expr.default
                                env[dname] = v
                            continue
                    push((_CASE, expr, env))
                    expr = s
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
                            fn.counts[fn.index] += 1
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
                        # A thunk already evaluated is read in place.
                        if type(v) is ThunkCell and type(v.value) is int:
                            v = v.value
                        else:
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
                        if type(v) is ThunkCell and type(v.value) is int:
                            v = v.value
                        else:
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
                        cell.counts[cell.index] += 1
                        push((_UPDATE, cell, None))
                        env = dict(cell.slots)
                        env[cell.binder] = cell
                        expr = cell.body
                        break
                    if v is _BLACKHOLE:
                        raise BlackholeLoop(
                            f"thunk '{cell.binder}' was entered again while "
                            "it was being evaluated"
                        )
                elif tv is FunValue and not v.params:
                    # Nullary top-level definition: entered on every
                    # reference, never memoised and never allocated.
                    steps += 1
                    if steps > fuel:
                        raise OutOfFuel(f"exceeded {fuel} steps")
                    v.counts[v.index] += 1
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
    sites = liftable_sites(plan.program)
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
