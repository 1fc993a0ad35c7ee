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
minus top-level names), the rule the growth index's slots follow too, so
predicted and charged words agree by construction.  A call runs in a copy
of the slots plus the closure itself and the arguments, and top-level names
resolve through one shared table.  Every executed let allocates, per
binding, one code word plus one word per stored slot; integers are unboxed
and top-level definitions allocate nothing.  The resulting word counts are
the ground truth against which the lifter's closure-growth predictions are
checked.

:func:`evaluate` checks the program's scope once, at its entry, as GHC's
``GHC.Stg.Lint`` checks STG before code generation: it reads the
memoised scope walk (see :func:`~liftlab.syntax.validate`), and a program
that does not validate raises :class:`~liftlab.syntax.ScopeError`
before any engine runs.  A pipeline program, a lift output and an oracle
subset were walked or marked clean already, so the check is one memo
lookup, and a program nobody walked is walked once by it.  The engines
assume what it establishes: every name resolves, and names are unique.

What evaluation needs of the program before it steps (the stats rows,
and each let's slot names) is memoised on the program object (see
:func:`~liftlab.syntax._analyses`), and so is a completed run, so a
second :func:`evaluate` of one object (a lift that lifts nothing returns
the input itself) does not run at all.  The slots are read from each
right-hand side's :func:`~liftlab.analysis.free_vars`, stored by the
scope walk or by the lift that rebuilt it, so evaluation scans nothing.
The stats rows come from the program's
:func:`~liftlab.analysis.scan_program` (the scope walk's scan) unless the
lifter handed them on.

There are two engines, chosen by run length, and both do all of the
above.  Every run starts on the first, :class:`_Machine`, whose
activations are dicts keyed by name: it needs no set-up beyond the memo.
A run that passes :data:`_HANDOVER` (1,000) steps starts again from the
beginning on the second, :func:`_run_frames`, with the caller's fuel;
evaluation is deterministic, so that gives what one run would.  The
second compiles the program once (memoised like the rest) and resolves
every variable to a place fixed in advance, as STG gives each closure
fixed free-variable offsets: a frame index, a top-level definition or a
literal.  A frame is a list, the slots in sorted order, then the closure,
the parameters and the body's let and case binders; a closure is its code
and its slot values, never itself.  The two charge the same steps, raise
the same errors and fill the same stats, and the tests compare them on
every valid program they have.  The hand-over exists because compiling
costs more than a short run saves: engines that compiled every program
made the benchmark's loops ~30% faster but its corpus, whose evaluations
take a median of 3 steps, 49% to 72% slower in steps per second.

Counting never keeps a closure alive, as in GHC's ticky-ticky profiling.
Each let binder that runs gets one list of entry counts, one per
allocation, and a fixed number of words per allocation (names are unique,
so its slots never change).  A closure holds that list and its own index in
it, so once the program drops the closure it is freed and its count stays.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

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
    ScopeError,
    _analyses,
    _scope,
)

DEFAULT_FUEL = 10_000_000


class EvalError(Exception):
    pass


class OutOfFuel(EvalError):
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

Value = IntValue | FunValue  # or a compiled _Fun


def render_value(v: Value) -> str:
    """An int in decimal, exactly; a function as ``<fun binder>``."""
    if isinstance(v, IntValue):
        try:
            return str(v.value)
        except ValueError:
            # Past sys.get_int_max_str_digits(); Decimal converts exactly
            # without that limit, and without changing it for the process.
            return str(Decimal(v.value))
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


class _ReadOnlyRows(dict):
    """A finished run's rows, per binder, which refuse every change, so
    one run can be shared."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("per_binder is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _ReadOnlyRows, (dict(self),)


class AllocStats(NamedTuple):
    """A run's counts.  Immutable, rows included, since :func:`evaluate`
    hands the same run to every later call on the program."""

    words_allocated: int
    closures_allocated: int
    steps: int
    per_binder: Mapping[str, BinderStats]


def _stats(rows: list[str], counters, tops, steps: int) -> AllocStats:
    """The stats of a run: ``counters`` gives per let binder that ran its
    entry counts and the words of one allocation, ``tops`` the top-level
    closures by name.  Every binder in ``rows`` gets a row, also one never
    allocated or entered."""
    per_binder = dict.fromkeys(rows, _NEVER_RAN)
    words = closures = 0
    for name, (counts, width) in counters:
        n = len(counts)
        per_binder[name] = BinderStats(n, sum(counts), n * width, tuple(counts))
        words += n * width
        closures += n
    for name, fn in tops:
        if fn.counts[0]:
            per_binder[name] = BinderStats(0, fn.counts[0], 0, ())
    # tuple.__new__ skips the named tuple's own __new__, a Python call.
    return tuple.__new__(AllocStats, (words, closures, steps, _ReadOnlyRows(per_binder)))


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

# Continuation frames, each a (kind, a, b) tuple.  On compiled frames the
# expressions are compiled nodes and envs are frames, and two kinds need no
# tuple, which saves one per pending case and per thunk entered: a case
# pushes its node and then its frame, and an update frame is the thunk.
_CASE = 0  # (case expression, env): choose an alternative for the value
_UPDATE = 1  # (thunk cell, None): memoise the value
_ARGS = 2  # (argument values, head name): apply the value to them
_LEFT = 3  # (primop, env): first operand forced; read the second
_RIGHT = 4  # (primop, first operand): second operand forced; compute


class _Machine:
    def __init__(self, program: Program, fuel: int, memo: dict | None = None):
        self.program = program
        self.fuel = fuel
        tops = self.tops = {}  # by name; the fallback of every variable lookup
        for tb in program.top_binds:
            tops[tb.name] = FunValue(tb.name, tb.params, tb.body, [0], 0)
        self.top_names = frozenset(tops)
        # Counters, not closures, so a closure lives only while the program
        # holds it: per let binder that ran, the entry count of each of its
        # allocations and the words one allocation takes.
        self.counters: dict[str, tuple[list[int], int]] = {}
        # id(let) -> per binding (name, rhs, slot names, entry counts)
        self.plans: dict[int, list[tuple]] = {}
        # What does not depend on the run is memoised on the program: the
        # stats rows and the let layouts.
        if memo is None:
            memo = _analyses(program)
        self.rows = memo.get("binders") or _binder_names(program)
        layouts = memo.get("layouts")
        if layouts is None:
            layouts = memo["layouts"] = {}
        self.layouts: dict[int, list[tuple]] = layouts

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
                slots[v] = env[v]

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
                    return value, _stats(self.rows, self.counters.items(), self.tops.items(), steps)
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


# ---------------------------------------------------------------------------
# Compiled frames, for long runs
# ---------------------------------------------------------------------------


class _Code:
    """One compiled body: ``main``, a top-level body or a let-bound
    right-hand side.  Its frame is a list: the closure's slots in sorted
    :func:`~liftlab.analysis.closure_slots` order, then the closure itself
    (not for ``main``), the parameters, and ``pad``, one place per let and
    case binder of the body (not of the right-hand sides inside it)."""

    __slots__ = ("binder", "arity", "pad", "body")

    def __init__(self, binder: str | None, arity: int):
        self.binder = binder
        self.arity = arity
        self.pad: list = []
        self.body: tuple = ()


class _Fun:
    """A compiled function closure: its code and its slot values, which
    never hold the closure itself, so reference counting frees it once the
    program drops it.  Counted like a :class:`FunValue`."""

    __slots__ = ("code", "slots", "counts", "index")

    def __init__(self, code: _Code, slots: tuple | list, counts: list[int], index: int):
        self.code = code
        self.slots = slots
        self.counts = counts
        self.index = index

    @property
    def binder(self) -> str:
        return self.code.binder


class _Thunk:
    """A compiled thunk, memoised and blackholed like a :class:`ThunkCell`."""

    __slots__ = ("code", "slots", "value", "counts", "index")

    def __init__(self, code: _Code, slots: tuple | list, counts: list[int], index: int):
        self.code = code
        self.slots = slots
        self.value = None  # None: not entered yet; _BLACKHOLE: running
        self.counts = counts
        self.index = index


# Compiled nodes, each a tuple led by its opcode.  An operand is a frame
# index (>= 0), a top-level definition's index k stored as ~k (< 0), or a
# Lit, read through ``.value``.  Every name resolves: :func:`evaluate` runs
# only programs that validate.
_N_CASE_PRIM = 0  # (op, scrutinee, alts, default index, default body, prim, a, b)
_N_CASE_ATOM = 1  # (op, scrutinee, alts, default index, default body, a)
_N_CASE = 2  # (op, scrutinee, alts, default index, default body)
_N_APP = 3  # (op, head, operands, head name, operand getter or None)
_N_PRIM = 4  # (op, prim, a, b, primop name)
_N_ATOM = 5  # (op, operand)
_N_LET = 6  # (op, ((frame index, code, slot getter or None, binder id, is lambda), ...), body)
# A case of the first two kinds has an operand of its scrutinee in the
# frame or a literal, so its int may be at hand; alts map each pattern to
# its body, the first one written for a pattern.


class _Compiled(NamedTuple):
    main: _Code
    tops: list[_Code]  # one per top-level name, in first-definition order
    top_names: list[str]
    binders: list[str]  # let binders by binder id
    widths: list[int]  # words per allocation, by binder id


def _at_hand(a) -> bool:
    return type(a) is Lit or (type(a) is int and a >= 0)


def _getter(idxs: list) -> operator.itemgetter | None:
    """A function from a frame to the sequence of its values at the frame
    indices ``idxs``, or None when there are none or one is not a frame
    index.  It returns a new sequence, a tuple or a one-element list."""
    if not idxs or not all([type(i) is int and i >= 0 for i in idxs]):
        return None
    if len(idxs) == 1:
        return operator.itemgetter(slice(idxs[0], idxs[0] + 1))
    return operator.itemgetter(*idxs)


def _compile(p: Program) -> _Compiled:
    """``p`` compiled, once per program object (see
    :func:`~liftlab.syntax._analyses`): every body becomes a :class:`_Code`
    whose variables are resolved, in the lexical scope, to a frame index,
    a top-level definition or a literal.  Bodies wait on a work list and
    each is compiled on an explicit stack, so nesting depth needs no
    recursion."""
    memo = _analyses(p)
    comp = memo.get("compiled")
    if comp is not None:
        return comp
    top_names = p.top_names()
    top_ref = {tb.name: ~k for k, tb in enumerate(p.top_binds)}
    tops = [_Code(tb.name, len(tb.params)) for tb in p.top_binds]
    main = _Code(None, 0)
    binder_ids: dict[str, int] = {}
    widths: list[int] = []
    # (code, slot names, parameters, body)
    work: list[tuple] = [(main, (), (), p.main)]
    work += [(code, (), tb.params, tb.body) for code, tb in zip(tops, p.top_binds)]
    while work:
        code, slot_names, params, body = work.pop()
        # Names are unique, so one map serves the whole body: each name
        # gets its frame index where it is bound and keeps it.
        scope: dict[str, int] = {}

        def operand(a):
            if type(a) is Lit:
                return a
            i = scope.get(a.name)
            return top_ref[a.name] if i is None else i

        n = 0
        for name in (*slot_names, *([code.binder] if code.binder else ()), *params):
            scope[name] = n
            n += 1
        base = n
        out: list[tuple] = []  # compiled nodes, children before parents
        # Expressions, and tuples that build a let or case from the nodes
        # its children left on ``out``.
        todo: list = [body]
        while todo:
            e = todo.pop()
            t = type(e)
            if t is AtomExpr:
                out.append((_N_ATOM, operand(e.atom)))
            elif t is App:
                h = scope.get(e.head)
                if h is None:
                    h = top_ref[e.head]
                args = tuple([operand(a) for a in e.args])
                out.append((_N_APP, h, args, e.head, _getter(args)))
            elif t is PrimApp:
                a, b = e.args
                out.append((_N_PRIM, _PRIMS[e.op], operand(a), operand(b), e.op))
            elif t is Let:
                for name in e.group.binders():
                    scope[name] = n
                    n += 1
                todo += [("let", e), e.body]
            elif t is Case:
                scope[e.default[0]] = n
                n += 1
                alts = [alt for _, alt in reversed(e.alts)]
                todo += [("case", e), e.default[1], *alts, e.scrutinee]
            elif e[0] == "let":
                binds = []
                for name, rhs in e[1].group.binds:
                    # Names are unique, so every allocation for ``name``
                    # stores the same slots.
                    names = sorted(closure_slots(name, free_vars(rhs), top_names))
                    bid = binder_ids.get(name)
                    if bid is None:
                        bid = binder_ids[name] = len(widths)
                        widths.append(1 + len(names))
                    fun = type(rhs) is Lambda
                    rparams = rhs.params if fun else ()
                    rcode = _Code(name, len(rparams))
                    work.append((rcode, names, rparams, rhs.body))
                    getter = _getter([scope[v] for v in names])
                    binds.append((scope[name], rcode, getter, bid, fun))
                out.append((_N_LET, tuple(binds), out.pop()))
            else:  # "case"
                case = e[1]
                k = len(case.alts) + 2
                scrut, *bodies, dbody = out[-k:]
                del out[-k:]
                alts: dict = {}
                for (pat, _), alt in zip(case.alts, bodies):
                    alts.setdefault(pat, alt)
                head = (scrut, alts, scope[case.default[0]], dbody)
                if scrut[0] == _N_ATOM and _at_hand(scrut[1]):
                    out.append((_N_CASE_ATOM, *head, scrut[1]))
                elif scrut[0] == _N_PRIM and _at_hand(scrut[2]) and _at_hand(scrut[3]):
                    out.append((_N_CASE_PRIM, *head, scrut[1], scrut[2], scrut[3]))
                else:
                    out.append((_N_CASE, *head))
        code.body = out.pop()
        code.pad = [None] * (n - base)
    comp = memo["compiled"] = _Compiled(main, tops, list(top_ref), list(binder_ids), widths)
    return comp


def _enter(fn, vals: list, head: str, stack: list) -> tuple[tuple, list]:
    """:meth:`_Machine._apply` on compiled frames."""
    if type(fn) is not _Fun:
        raise ArityMismatch(f"application of non-function result of {head!r}")
    code = fn.code
    n = code.arity
    if len(vals) < n:
        raise ArityMismatch(f"{code.binder} expects {n} arguments, got {len(vals)}")
    if len(vals) > n:
        stack.append((_ARGS, vals[n:], head))
    fn.counts[fn.index] += 1
    return code.body, [*fn.slots, fn, *vals[:n], *code.pad]


def _read_operands(args: tuple, frame: list, tops: list) -> list:
    """Operand values, unforced."""
    vals = []
    for a in args:
        if type(a) is int:
            vals.append(frame[a] if a >= 0 else tops[~a])
        else:
            vals.append(a.value)
    return vals


def _run_frames(p: Program, fuel: int) -> tuple[Value, AllocStats]:
    """:meth:`_Machine.run` on ``p``'s compiled frames: the same steps,
    values, errors and stats."""
    rows = _binder_names(p)
    comp = _compile(p)
    tops = [_Fun(code, (), [0], 0) for code in comp.tops]
    counters: list[list[int]] = [[] for _ in comp.widths]
    stack: list[tuple] = []
    push = stack.append
    steps = 0
    node = comp.main.body
    frame = list(comp.main.pad)
    while True:
        # Evaluate ``node`` in ``frame``, one step per node, until it
        # yields a value ``v``.
        while True:
            steps += 1
            if steps > fuel:
                raise OutOfFuel(f"exceeded {fuel} steps")
            op = node[0]
            if op == _N_CASE_PRIM:
                b = node[7]
                w = frame[b] if type(b) is int else b.value
                if type(w) is _Thunk:
                    w = w.value
                if type(w) is int:
                    a = node[6]
                    v = frame[a] if type(a) is int else a.value
                    if type(v) is _Thunk:
                        v = v.value
                    if type(v) is int:
                        steps += 1
                        if steps > fuel:
                            raise OutOfFuel(f"exceeded {fuel} steps")
                        v = node[5](v, w)
                        body = node[2].get(v)
                        if body is None:
                            frame[node[3]] = v
                            body = node[4]
                        node = body
                        continue
                push(node)
                push(frame)
                node = node[1]
            elif op == _N_CASE_ATOM:
                a = node[5]
                v = frame[a] if type(a) is int else a.value
                if type(v) is _Thunk:
                    v = v.value
                if type(v) is int:
                    steps += 1
                    if steps > fuel:
                        raise OutOfFuel(f"exceeded {fuel} steps")
                    body = node[2].get(v)
                    if body is None:
                        frame[node[3]] = v
                        body = node[4]
                    node = body
                    continue
                push(node)
                push(frame)
                node = node[1]
            elif op == _N_CASE:
                push(node)
                push(frame)
                node = node[1]
            elif op == _N_APP:
                h = node[1]
                fn = frame[h] if h >= 0 else tops[~h]
                if type(fn) is _Fun and fn.code.arity:
                    code = fn.code
                    args = node[2]
                    if len(args) == code.arity:
                        # A saturated call, inlined: the commonest step.
                        get = node[4]
                        if get is None:
                            vals = _read_operands(args, frame, tops)
                        else:
                            vals = get(frame)
                        call = [*fn.slots, fn, *vals, *code.pad]
                        fn.counts[fn.index] += 1
                        node = code.body
                        frame = call
                        continue
                elif type(fn) is not int:  # a thunk or nullary top-level
                    push((_ARGS, _read_operands(node[2], frame, tops), node[3]))
                    v = fn
                    break
                node, frame = _enter(fn, _read_operands(node[2], frame, tops), node[3], stack)
            elif op == _N_PRIM:
                a = node[2]
                if type(a) is int:
                    v = frame[a] if a >= 0 else tops[~a]
                else:
                    v = a.value
                if type(v) is not int:
                    if type(v) is _Thunk and type(v.value) is int:
                        v = v.value
                    else:
                        push((_LEFT, node, frame))
                        break
                x = v
                b = node[3]
                if type(b) is int:
                    v = frame[b] if b >= 0 else tops[~b]
                else:
                    v = b.value
                if type(v) is not int:
                    if type(v) is _Thunk and type(v.value) is int:
                        v = v.value
                    else:
                        push((_RIGHT, node, x))
                        break
                v = node[1](x, v)
                break
            elif op == _N_ATOM:
                a = node[1]
                if type(a) is int:
                    v = frame[a] if a >= 0 else tops[~a]
                else:
                    v = a.value
                break
            else:  # _N_LET
                # Bind the group's closures, then fill their slots, so
                # members of a recursive group capture each other.
                binds = node[1]
                for i, code, _, bid, fun in binds:
                    counts = counters[bid]
                    if fun:
                        frame[i] = _Fun(code, (), counts, len(counts))
                    else:
                        frame[i] = _Thunk(code, (), counts, len(counts))
                    counts.append(0)
                for i, _, get, _, _ in binds:
                    if get is not None:
                        frame[i].slots = get(frame)
                node = node[2]
        # Force ``v``, then return it to the innermost frames until one
        # of them resumes evaluation.
        while True:
            tv = type(v)
            if tv is _Thunk:
                cell = v
                v = cell.value
                if v is None:
                    steps += 1
                    if steps > fuel:
                        raise OutOfFuel(f"exceeded {fuel} steps")
                    cell.value = _BLACKHOLE
                    cell.counts[cell.index] += 1
                    push(cell)  # an update frame, without a tuple
                    code = cell.code
                    frame = [*cell.slots, cell, *code.pad]
                    node = code.body
                    break
                if v is _BLACKHOLE:
                    raise BlackholeLoop(
                        f"thunk '{cell.code.binder}' was entered again while "
                        "it was being evaluated"
                    )
            elif tv is _Fun and not v.code.arity:
                # Nullary top-level definition: entered on every
                # reference, never memoised and never allocated.
                steps += 1
                if steps > fuel:
                    raise OutOfFuel(f"exceeded {fuel} steps")
                v.counts[v.index] += 1
                code = v.code
                frame = [*v.slots, v, *code.pad]
                node = code.body
                break
            if not stack:
                value = IntValue(v) if type(v) is int else v
                counted = zip(comp.binders, zip(counters, comp.widths))
                return value, _stats(rows, counted, zip(comp.top_names, tops), steps)
            top = stack.pop()
            if type(top) is list:  # a case's frame, its node below it
                frame = top
                a = stack.pop()
                node = a[2].get(v) if type(v) is int else None
                if node is None:
                    frame[a[3]] = v
                    node = a[4]
                break
            if type(top) is _Thunk:
                top.value = v
                continue
            kind, a, b = top
            if kind == _ARGS:
                node, frame = _enter(v, a, b, stack)
                break
            # a primop operand
            if type(v) is not int:
                raise ArityMismatch(f"{a[4]} applied to a function value")
            if kind == _RIGHT:
                v = a[1](b, v)
                continue
            push((_RIGHT, a, v))
            rb = a[3]
            if type(rb) is int:
                v = b[rb] if rb >= 0 else tops[~rb]
            else:
                v = rb.value


# Steps after which a run restarts on compiled frames.  Compiling costs
# more than a short run saves, and in the benchmark's workloads runs are
# either short or long.  Measured over each program, its lifted output and
# its oracle subsets: every corpus evaluation takes at most 86 steps
# (seeds 1, 5 and 7 and the acceptance corpus, 3,324 evaluations each),
# every nested one at most 803 (seed 5), and every loops one at least
# 10,012.  Evaluation is deterministic, so the restart gives what one run
# would.
_HANDOVER = 1_000


def evaluate(p: Program, fuel: int = DEFAULT_FUEL) -> tuple[Value, AllocStats]:
    """Evaluate a program's main expression; exact word accounting.

    Raises ``ValueError`` when ``fuel`` is not positive, and then
    :class:`~liftlab.syntax.ScopeError`, naming the first violation as
    :func:`~liftlab.syntax.validate` reports it, when ``p`` does not
    validate; no engine runs.  The check reads the memoised scope walk, so
    it walks ``p`` only if nothing has.  Validated names are in scope and
    globally unique, which lets let and case-default binders extend the
    running activation's environment in place.  A run that passes
    :data:`_HANDOVER` steps starts again from the beginning on compiled
    frames, which give the same value, stats and errors.

    A completed run is memoised on ``p`` (see
    :func:`~liftlab.syntax._analyses`), and a later call on the same object
    returns that very result when its steps fit the fuel.  Evaluation is
    deterministic, so with less fuel the run would end at step ``fuel + 1``,
    and the call raises that :class:`OutOfFuel` without running.  A run
    that raises is not stored.
    """
    if fuel < 1:
        raise ValueError("fuel must be positive")
    memo = _analyses(p)
    violations = (memo.get("scope") or _scope(p))[0]
    if violations:
        v = violations[0]
        raise ScopeError(f"invalid program: {v.path}: {v.tag} {v.detail}")
    run = memo.get("run")
    if run is not None:
        if run[1].steps > fuel:
            raise OutOfFuel(f"exceeded {fuel} steps")
        return run
    try:
        run = _Machine(p, min(fuel, _HANDOVER), memo).run()
    except OutOfFuel:
        if fuel <= _HANDOVER:
            raise
    if run is None:
        # Out of the handler, so the abandoned run is freed before this one.
        run = _run_frames(p, fuel)
    memo["run"] = run
    return run


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
    Row 0 reads ``p``'s stored run when ``p`` was evaluated, and the
    subset the last :func:`~liftlab.lifter.lift_program` of ``p`` lifted
    reads that output and its stored run (see :func:`evaluate`), so the
    rows evaluate afresh only the subsets the pipeline has not run.
    """
    plan = plan_lifts(p)
    sites = liftable_sites(plan.program)
    if len(sites) > max_groups:
        raise SubsetTooLarge(f"{len(sites)} liftable groups exceed limit {max_groups}")
    stored = _analyses(p).get("lifted")
    rows = []
    for mask in range(2 ** len(sites)):
        chosen = frozenset(s for i, s in enumerate(sites) if mask & (1 << i))
        if not chosen:
            q = p  # what lifting nothing returns, without the walk
        elif stored is not None and stored[0] == chosen:
            q = stored[1]
        else:
            q = apply_lifts(plan, force_sites=chosen)
        value, stats = evaluate(q, fuel)
        label = tuple("+".join(s) for s in sites if s in chosen)
        rows.append(
            OracleRow(label, stats.words_allocated, stats.closures_allocated, render_value(value))
        )
    return rows


def minimal_subset(rows: list[OracleRow]) -> OracleRow:
    """The allocation-minimal row (first one on ties)."""
    return min(rows, key=lambda r: r.words)
