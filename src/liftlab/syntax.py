"""The calculus: AST, concrete text format, validation, renaming, and the
scope walk that also scans programs and splits their let groups.

Programs are a sequence of top-level bindings followed by a ``main``
expression, written in a small A-normal-form language::

    prog    := topbind* "main" "=" expr
    topbind := ident ident* "=" expr ";"
    expr    := "let" bind ("and" bind)* "in" expr
             | "case" expr "of" "{" (int "->" expr ";")* "default" ident "->" expr "}"
             | ident atom* | atom | prim atom atom
             | "(" expr ")"
    bind    := ident "=" rhs
    rhs     := "\\" card? ident+ "->" expr | "thunk" expr
    card    := "{" ("0"|"1") "," ("0"|"1"|"*") "}"
    atom    := ident | int
    prim    := "+#" | "-#" | "*#" | "%#" | "<#"

Identifiers start with an alphabetic character or ``_`` and continue with
alphanumerics or ``_``; integers are ``-?[0-9]+``; line comments start with
``--``.  Application arguments and case patterns are atoms; every lambda is
the right-hand side of a binding.  A ``let ... and ...`` group is recursive
when one of its binders occurs free in one of its right-hand sides (the
lifter reads that from their :func:`~liftlab.analysis.free_vars`, in
:meth:`~liftlab.lifter.LiftPlan.recursive`); the SCC pre-pass splits groups
into their minimal components (see
:func:`~liftlab.analysis.split_groups`).

:func:`freshen`, :func:`validate` and
:func:`~liftlab.analysis.split_groups` share one scope walk on an explicit
stack, which visits each node once: in that visit it checks and renames
names, makes the scan that :func:`~liftlab.analysis.scan_program` returns
(nodes, occurrence facts, names and each right-hand side's free
variables), and splits let groups into their strongly connected
components.  The parser and the printer still recurse once per nesting
level.

Programs are immutable, so what an analysis finds about one is memoised on
the object it describes, in the frozen instance's ``__dict__``, which
``==``, ``hash`` and ``repr`` ignore: a right-hand side keeps its free
variables and a group its binders, and a ``Program`` keeps its
whole-program tables (:func:`_analyses`), the scope walk's and those of
the analysis, lifter and interpreter modules.  A copy of a program analyses
afresh.  ``==`` and ``hash`` compare the fields structurally on an explicit
stack, so equal programs of any nesting depth compare equal.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import islice
from typing import NamedTuple

INF = float("inf")

PRIMOPS = ("+#", "-#", "*#", "%#", "<#")
KEYWORDS = frozenset({"let", "and", "in", "case", "of", "default", "thunk"})


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class _Node:
    """Structural ``==``, ``hash`` and ``repr`` for the compound nodes, on
    an explicit stack (see :func:`_same`), where the generated ones recurse
    once per nesting level; the leaves ``Var`` and ``Lit`` keep the
    generated ones."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same(self, other)

    def __hash__(self) -> int:
        return _shape_hash(self)

    def __repr__(self) -> str:
        return _repr(self)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Cardinality:
    """Bounds on how often a right-hand side is entered per allocation.

    ``min_entries`` is 0 or 1; ``max_entries`` is 0, 1 or INF (written ``*``).
    """

    min_entries: int
    max_entries: int | float

    def __post_init__(self) -> None:
        if self.min_entries not in (0, 1):
            raise ValueError(f"bad entry lower bound {self.min_entries!r}")
        if self.max_entries not in (0, 1, INF):
            raise ValueError(f"bad entry upper bound {self.max_entries!r}")
        if self.min_entries > self.max_entries:
            raise ValueError("entry lower bound exceeds upper bound")

    def __str__(self) -> str:
        hi = "*" if self.max_entries == INF else str(int(self.max_entries))
        return f"{{{self.min_entries},{hi}}}"


MULTI_SHOT = Cardinality(0, INF)
THUNK_CARD = Cardinality(0, 1)


@dataclass(frozen=True, eq=False, repr=False)
class Lambda(_Node):
    card: Cardinality
    params: tuple[str, ...]
    body: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Thunk(_Node):
    """Updatable nullary closure; memoised after its first entry."""

    body: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class BindGroup(_Node):
    binds: tuple[tuple[str, "Rhs"], ...]

    def binders(self) -> tuple[str, ...]:
        """The group's names in order, built on the first call and kept in
        the frozen instance's ``__dict__``, which ``==``, ``hash`` and
        ``repr`` do not read."""
        names = self.__dict__.get("_binders")
        if names is None:
            names = self.__dict__["_binders"] = tuple(name for name, _ in self.binds)
        return names


@dataclass(frozen=True, eq=False, repr=False)
class AtomExpr(_Node):
    atom: Var | Lit


@dataclass(frozen=True, eq=False, repr=False)
class App(_Node):
    head: str
    args: tuple[Var | Lit, ...]


@dataclass(frozen=True, eq=False, repr=False)
class PrimApp(_Node):
    op: str
    args: tuple[Var | Lit, Var | Lit]


@dataclass(frozen=True, eq=False, repr=False)
class Let(_Node):
    group: BindGroup
    body: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Case(_Node):
    scrutinee: "Expr"
    alts: tuple[tuple[int, "Expr"], ...]
    default: tuple[str, "Expr"]


Expr = AtomExpr | App | PrimApp | Let | Case
Rhs = Lambda | Thunk
Atom = Var | Lit


@dataclass(frozen=True, eq=False, repr=False)
class TopBind(_Node):
    name: str
    params: tuple[str, ...]
    body: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Program(_Node):
    top_binds: tuple[TopBind, ...]
    main: Expr

    def top_names(self) -> frozenset[str]:
        return frozenset(tb.name for tb in self.top_binds)


_FIELDS = {
    cls: tuple([f.name for f in fields(cls)])
    for cls in (Lambda, Thunk, BindGroup, AtomExpr, App, PrimApp, Let, Case, TopBind, Program)
}


def _same(a: _Node, b: _Node) -> bool:
    """What the generated ``==`` computes: fields in order, tuples element
    by element, any other value by its own ``==``."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        names = _FIELDS.get(type(x))
        if names is not None:
            if type(y) is not type(x):
                return False
            stack += [(getattr(x, f), getattr(y, f)) for f in names]
        elif type(x) is tuple and type(y) is tuple:
            if len(x) != len(y):
                return False
            stack += zip(x, y)
        elif x != y:
            return False
    return True


def _repr(a: _Node) -> str:
    """What the generated ``repr`` prints: ``Type(field=value, ...)``,
    tuples as Python prints them, any other value by its own ``repr``.
    The stack holds text to emit, as ``str``, and the nodes and tuples
    still to print; any other value becomes its ``repr`` when pushed."""
    out: list[str] = []
    stack: list = [a]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
            continue
        names = _FIELDS.get(type(x))
        if names is not None:
            head, tail = f"{type(x).__qualname__}(", ")"
            parts = [(f"{', ' if i else ''}{f}=", getattr(x, f)) for i, f in enumerate(names)]
        else:
            head, tail = "(", ",)" if len(x) == 1 else ")"
            parts = [(", " if i else "", v) for i, v in enumerate(x)]
        stack.append(tail)
        for sep, v in reversed(parts):
            stack += [v if type(v) is tuple or type(v) in _FIELDS else repr(v), sep]
        stack.append(head)
    return "".join(out)


def _shape_hash(a: _Node) -> int:
    """A hash of ``a``'s pre-order: each node's type, each tuple's length
    and every other value, so values :func:`_same` finds equal hash
    equal."""
    items: list = []
    stack: list = [a]
    while stack:
        x = stack.pop()
        names = _FIELDS.get(type(x))
        if names is not None:
            items.append(type(x))
            stack += [getattr(x, f) for f in reversed(names)]
        elif type(x) is tuple:
            items.append(len(x))
            stack += reversed(x)
        else:
            items.append(x)
    return hash(tuple(items))


class _Analyses(dict):
    """What the analyses found about one program, by name (see
    :func:`_analyses`): ``scope`` (violations, bound-twice errors, the
    renamed program), and when the scope walk renames nothing, ``scan``
    (nodes, occurrence facts and names) and ``split`` (the split program,
    None when nothing splits), here; ``binders`` in
    :mod:`liftlab.analysis`; ``plan`` (the growth index) and ``lifted``
    (the last lift output and the groups it lifted; none if it returned
    the input itself) in :mod:`liftlab.lifter`, whose
    :func:`~liftlab.lifter.apply_lifts` also gives its output ``binders``,
    and ``scope`` and ``split`` as a clean walk leaves them when its
    input's walk was clean, but no ``scan``;
    ``layouts``, ``compiled`` and ``run`` (a completed run's value and stats)
    in :mod:`liftlab.machine`.  A pickled or deep-copied one comes back
    empty, since its tables are keyed by the ``id`` of the original's nodes."""

    def __init__(self, owner: int | None = None) -> None:
        self.owner = owner  # the id of the program it describes

    def __reduce__(self):
        return _Analyses, ()


def _analyses(p: Program) -> _Analyses:
    """The analyses memoised on ``p``, which every analysis of the program
    as a whole reads and fills, so each is built once per program object.
    They live in the frozen instance's ``__dict__``: freed with ``p``, never
    referring to ``p`` (so no cycle outlives it), and unseen by ``==``,
    ``hash`` and ``repr``, which read the fields.  They are ``p``'s only
    while they carry ``id(p)``, so a copy of ``p`` analyses afresh."""
    memo = p.__dict__.get("_analyses")
    if memo is None or memo.owner != id(p):
        memo = p.__dict__["_analyses"] = _Analyses(id(p))
    return memo


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def subexprs(e: Expr) -> tuple[Expr, ...]:
    """Immediate sub-expressions: a let's right-hand-side bodies, then its
    body; a case's scrutinee, alternatives, then default.  Leaves have none."""
    if isinstance(e, (AtomExpr, App, PrimApp)):
        return ()
    if isinstance(e, Let):
        return (*[rhs.body for _, rhs in e.group.binds], e.body)
    if isinstance(e, Case):
        return (e.scrutinee, *[body for _, body in e.alts], e.default[1])
    raise AssertionError(e)


def with_subexprs(e: Expr, kids: list[Expr]) -> Expr:
    """``e`` with its sub-expressions replaced by ``kids``, given in
    :func:`subexprs` order; binders, parameters and patterns are kept.
    ``e`` itself when every child is its own, and otherwise a node that
    keeps each right-hand side whose body is its own, so what is stored on
    a right-hand side (see :func:`~liftlab.analysis.free_vars`) stays."""
    if isinstance(e, Let):
        binds = e.group.binds
        if all([body is rhs.body for body, (_, rhs) in zip(kids, binds)]):
            return e if kids[-1] is e.body else Let(e.group, kids[-1])
        new = []
        for body, (name, rhs) in zip(kids, binds):
            if body is not rhs.body:
                rhs = Lambda(rhs.card, rhs.params, body) if isinstance(rhs, Lambda) else Thunk(body)
            new.append((name, rhs))
        return Let(BindGroup(tuple(new)), kids[-1])
    if isinstance(e, Case):
        if all([a is b for a, b in zip(kids, subexprs(e))]):
            return e
        alts = tuple([(pat, body) for (pat, _), body in zip(e.alts, kids[1:])])
        return Case(kids[0], alts, (e.default[0], kids[-1]))
    return e


def walk(*roots: Expr) -> Iterator[Expr]:
    """Every node under ``roots``, pre-order, children in :func:`subexprs`
    order.  Uses an explicit stack, so depth is not limited by recursion;
    pushes children itself rather than through :func:`subexprs`, which
    halves the cost of this hot loop."""
    stack = list(reversed(roots))
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Let):
            stack.append(e.body)
            stack.extend([rhs.body for _, rhs in reversed(e.group.binds)])
        elif isinstance(e, Case):
            stack.append(e.default[1])
            stack.extend([body for _, body in reversed(e.alts)])
            stack.append(e.scrutinee)


def program_nodes(p: Program) -> Iterator[Expr]:
    """:func:`walk` over the top-level bodies, then ``main``."""
    return walk(*[tb.body for tb in p.top_binds], p.main)


def occurrences(e: Expr) -> tuple[str, ...]:
    """Names occurring in the node itself; none for ``let`` and ``case``."""
    if isinstance(e, AtomExpr):
        return (e.atom.name,) if isinstance(e.atom, Var) else ()
    if isinstance(e, App):
        return (e.head, *[a.name for a in e.args if isinstance(a, Var)])
    if isinstance(e, PrimApp):
        return tuple([a.name for a in e.args if isinstance(a, Var)])
    return ()


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# One match per token: blanks and ``--`` comments are skipped, then group 1
# takes the token.  A word starting with a non-digit is an identifier when
# its first character is alphabetic or ``_`` (``[^\W\d]`` also admits ``²``
# and the like, which classification rejects); an integer is ``-?[0-9]+``;
# the end of the text is the empty token; any other single character is
# punctuation or unexpected.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*"
    r"([^\W\d]\w*|-?[0-9]+|[-+*%<]#|->|\Z|.)",
    re.DOTALL,
)
_SYMBOLS = KEYWORDS | {*PRIMOPS, "->", *"=;\\{},*()", ""}


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``.  Columns count characters;
    a comment does not advance the column, which shows only at the end of
    the text."""
    start = text.rfind("\n", 0, offset) + 1
    if offset == len(text) and "--" in text[start:]:
        offset = text.index("--", start)
    return text.count("\n", 0, offset) + 1, offset - start + 1


def _token_offset(text: str, index: int) -> int:
    """Where the ``index``-th token of ``text`` starts."""
    return next(islice(_TOKEN.finditer(text), index, None)).start(1)


def _lex(text: str) -> tuple[list[str], dict[str, Var], dict[str, Lit]]:
    """The token texts, ending with ``""``, and the atoms their distinct
    identifiers (keywords excluded) and integers stand for.

    Raises :class:`ParseError` at the earliest token that is no symbol,
    identifier or integer: an unexpected character, or a literal past
    Python's int-string limit.
    """
    toks = _TOKEN.findall(text)
    idents: dict[str, Var] = {}
    ints: dict[str, Lit] = {}
    bad: dict[str, str] = {}  # token -> message, "" for an unexpected character
    for t in set(toks).difference(_SYMBOLS):
        c = t[0]
        if c.isalpha() or c == "_":
            idents[t] = Var(t)
        elif c in "-0123456789" and t != "-":
            try:
                ints[t] = Lit(int(t))
            except ValueError:
                bad[t] = f"integer literal too long ({len(t.lstrip('-'))} digits)"
        else:
            bad[t] = ""
    if bad:
        index = next(i for i, t in enumerate(toks) if t in bad)
        t = toks[index]
        offset = _token_offset(text, index)
        message = bad[t]
        if not message:
            # A "-" before a digit outside 0-9 is that literal's sign, so the
            # digit is the unexpected character.
            if t == "-" and text[offset + 1 : offset + 2].isdigit():
                offset += 1
            message = f"unexpected character {text[offset]!r}"
        raise ParseError(message, *_line_col(text, offset))
    return toks, idents, ints


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent over token texts; a token's kind is its membership
    in the lexer's identifier and integer tables, or its text."""

    def __init__(self, text: str):
        self.text = text
        self.toks, self.idents, self.ints = _lex(text)
        self.pos = 0

    def fail(self, message: str, index: int | None = None) -> ParseError:
        """An error at the current token, or at the ``index``-th."""
        offset = _token_offset(self.text, self.pos if index is None else index)
        return ParseError(message, *_line_col(self.text, offset))

    def expect(self, text: str) -> None:
        t = self.toks[self.pos]
        if t != text:
            raise self.fail(f"expected {text!r}, found {t!r}")
        self.pos += 1

    def expect_ident(self) -> str:
        t = self.toks[self.pos]
        if t not in self.idents:
            raise self.fail(f"expected identifier, found {t!r}")
        self.pos += 1
        return t

    # atoms ------------------------------------------------------------

    def atom(self) -> Atom:
        t = self.toks[self.pos]
        a = self.ints.get(t) or self.idents.get(t)
        if a is None:
            raise self.fail(f"expected atom, found {t!r}")
        self.pos += 1
        return a

    # expressions --------------------------------------------------------

    def expr(self) -> Expr:
        t = self.toks[self.pos]
        if t == "let":
            return self.let_expr()
        if t == "case":
            return self.case_expr()
        if t == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if t in PRIMOPS:
            self.pos += 1
            return PrimApp(t, (self.atom(), self.atom()))
        if t in self.ints:
            self.pos += 1
            return AtomExpr(self.ints[t])
        if t in self.idents:
            toks, idents, ints = self.toks, self.idents, self.ints
            pos = self.pos + 1
            args: list[Atom] = []
            while True:
                a = toks[pos]
                if a in idents:
                    args.append(idents[a])
                elif a in ints:
                    args.append(ints[a])
                else:
                    break
                pos += 1
            self.pos = pos
            if args:
                return App(t, tuple(args))
            return AtomExpr(idents[t])
        raise self.fail(f"expected expression, found {t!r}")

    def let_expr(self) -> Expr:
        self.pos += 1  # "let"
        binds = [self.bind()]
        while self.toks[self.pos] == "and":
            self.pos += 1
            binds.append(self.bind())
        self.expect("in")
        body = self.expr()
        return Let(BindGroup(tuple(binds)), body)

    def bind(self) -> tuple[str, Rhs]:
        name = self.expect_ident()
        self.expect("=")
        return name, self.rhs()

    def rhs(self) -> Rhs:
        t = self.toks[self.pos]
        if t == "thunk":
            self.pos += 1
            return Thunk(self.expr())
        if t == "\\":
            self.pos += 1
            card = MULTI_SHOT
            if self.toks[self.pos] == "{":
                card = self.cardinality()
            params = [self.expect_ident()]
            while self.toks[self.pos] in self.idents:
                params.append(self.expect_ident())
            self.expect("->")
            return Lambda(card, tuple(params), self.expr())
        raise self.fail("expected right-hand side (lambda or thunk)")

    def cardinality(self) -> Cardinality:
        brace = self.pos
        self.pos += 1  # "{"
        if self.toks[self.pos] not in ("0", "1"):
            raise self.fail("entry lower bound must be 0 or 1")
        lo = int(self.toks[self.pos])
        self.pos += 1
        self.expect(",")
        t = self.toks[self.pos]
        if t == "*":
            hi: int | float = INF
        elif t in ("0", "1"):
            hi = int(t)
        else:
            raise self.fail("entry upper bound must be 0, 1 or *")
        self.pos += 1
        self.expect("}")
        try:
            return Cardinality(lo, hi)
        except ValueError as exc:
            raise self.fail(str(exc), brace) from None

    def case_expr(self) -> Expr:
        self.pos += 1  # "case"
        scrut = self.expr()
        self.expect("of")
        self.expect("{")
        alts: list[tuple[int, Expr]] = []
        while self.toks[self.pos] in self.ints:
            pat = self.ints[self.toks[self.pos]].value
            self.pos += 1
            self.expect("->")
            body = self.expr()
            self.expect(";")
            alts.append((pat, body))
        self.expect("default")
        binder = self.expect_ident()
        self.expect("->")
        dbody = self.expr()
        self.expect("}")
        return Case(scrut, tuple(alts), (binder, dbody))

    # program --------------------------------------------------------------

    def program(self) -> Program:
        tops: list[TopBind] = []
        while True:
            if self.toks[self.pos] == "":
                raise self.fail("missing 'main' binding")
            name = self.expect_ident()
            params: list[str] = []
            while self.toks[self.pos] in self.idents:
                params.append(self.expect_ident())
            self.expect("=")
            body = self.expr()
            if name == "main" and not params:
                if self.toks[self.pos] == ";":
                    self.pos += 1
                if self.toks[self.pos] != "":
                    raise self.fail("trailing input after main")
                return Program(tuple(tops), body)
            self.expect(";")
            tops.append(TopBind(name, tuple(params), body))


def parse(text: str) -> Program:
    """Parse program text; raises :class:`ParseError` with line:col info."""
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _is_simple(e: Expr) -> bool:
    return isinstance(e, (AtomExpr, App, PrimApp))


def _pp_atom(a: Atom) -> str:
    return a.name if isinstance(a, Var) else str(a.value)


def _pp_simple(e: Expr) -> str:
    if isinstance(e, AtomExpr):
        return _pp_atom(e.atom)
    if isinstance(e, App):
        return " ".join([e.head] + [_pp_atom(a) for a in e.args])
    if isinstance(e, PrimApp):
        return f"{e.op} {_pp_atom(e.args[0])} {_pp_atom(e.args[1])}"
    raise AssertionError(e)


def _pp_rhs_head(r: Rhs) -> str:
    if isinstance(r, Thunk):
        return "thunk"
    card = "" if r.card == MULTI_SHOT else str(r.card)
    return "\\" + card + " " + " ".join(r.params) + " ->"


def _block(e: Expr, ind: int, out: list[str], inline: str, broken: str) -> None:
    """Append ``e``'s text to ``out`` under the one layout rule: a simple
    ``e`` follows ``inline`` on the same line; any other follows ``broken``
    on a new line indented by ``ind``, and its sub-expressions are laid out
    by the same rule.  An explicit stack of pieces still to append, text or
    ``(e, ind, inline, broken)``, so a deep program prints at any recursion
    limit."""
    stack: list = [(e, ind, inline, broken)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, ind, inline, broken = item
        if _is_simple(e):
            out.append(inline + _pp_simple(e))
            continue
        pad = " " * ind
        out.append(f"{broken}\n{pad}")
        if isinstance(e, Let):
            todo: list = []
            for i, (name, rhs) in enumerate(e.group.binds):
                kw = f"\n{pad}and" if i else "let"
                todo += (f"{kw} {name} = {_pp_rhs_head(rhs)}", (rhs.body, ind + 4, " ", ""))
            todo.append((e.body, ind, f"\n{pad}in ", f"\n{pad}in"))
        else:
            of = " of {" if _is_simple(e.scrutinee) else f"\n{pad}of {{"
            todo = [(e.scrutinee, ind + 4, "case ", "case"), of]
            arms = [(str(pat), body, ";") for pat, body in e.alts]
            arms.append((f"default {e.default[0]}", e.default[1], f"\n{pad}}}"))
            for head, body, close in arms:
                arrow = f"\n{' ' * (ind + 2)}{head} -> "
                todo += ((body, ind + 6, arrow, arrow), close)
        stack += reversed(todo)


def print_program(p: Program) -> str:
    """Render a program; ``parse(print_program(p))`` is structurally ``p``.

    Every piece goes into one list, joined once, so a program's text is
    built in time linear in its length however deeply it nests.
    """
    out: list[str] = []
    for tb in p.top_binds:
        head = " ".join((tb.name,) + tb.params) + " ="
        _block(tb.body, 2, out, head + " ", head)
        out.append(";\n\n")
    _block(p.main, 2, out, "main = ", "main =")
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Scoping: validation, freshening, the scan and the SCC split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    path: str
    tag: str
    detail: str


class ScopeError(Exception):
    pass


class BinderFacts(NamedTuple):
    occurs_as_argument: bool
    is_known_function: bool


class Scan(NamedTuple):
    """What the scope walk finds under a program's roots (see
    :func:`~liftlab.analysis.scan_program`)."""

    nodes: list[Expr]  # every node, in :func:`walk` order
    facts: dict[str, BinderFacts]  # per let binder
    names: frozenset[str]  # every binder and parameter name


def _fresh(base: str, used: set[str], last: dict[str, int]) -> str:
    """``base``, or if that is in ``used`` the first ``base_k`` (k = 1, 2, ...)
    not in it.  The probe resumes after ``last[base]``, the suffix of the
    previous pick, which is exact as long as every pick joins ``used`` and
    ``used`` only grows; so n picks for one base make O(n) probes."""
    name, k = base, last.get(base, 0)
    while name in used:
        k += 1
        name = f"{base}_{k}"
    last[base] = k
    return name


def _path_text(path: str | tuple) -> str:
    """A violation's path as text.  A path is a string or an (enclosing path,
    segment) pair, one step per node however deep, made text only on demand."""
    segments = []
    while type(path) is tuple:
        path, segment = path
        segments.append(segment)
    return path + "".join(reversed(segments))


def _node_paths(p: Program, wanted: set[int]) -> dict[int, str | tuple]:
    """The paths of the nodes whose pre-order indices are ``wanted``, in the
    numbering of :func:`program_nodes`: ``top f`` or ``main``, then
    ``/let f/rhs``, ``/in``, ``/scrutinee``, ``/alt k`` or ``/default`` per
    step.  Only a walk that found violations asks, so none of this is on
    the path of a well-formed program."""
    paths: dict[int, str | tuple] = {}
    stack: list = [(p.main, "main")]
    stack += [(tb.body, "top " + tb.name) for tb in reversed(p.top_binds)]
    index = 0
    while len(paths) < len(wanted):
        e, path = stack.pop()
        if index in wanted:
            paths[index] = path
        index += 1
        t = type(e)
        if t is Let:
            stack.append((e.body, (path, "/in")))
            for name, rhs in reversed(e.group.binds):
                stack.append((rhs.body, ((path, "/let " + name), "/rhs")))
        elif t is Case:
            stack.append((e.default[1], (path, "/default")))
            stack += [(body, (path, f"/alt {pat}")) for pat, body in reversed(e.alts)]
            stack.append((e.scrutinee, (path, "/scrutinee")))
    return paths


def _scc_components(names: tuple[str, ...], fvs: list[frozenset[str]]) -> list[list[int]]:
    """Tarjan over the intra-group reference graph, sinks popped first; its
    search runs on an explicit stack of (member, next successor's index)."""
    index_of = {name: i for i, name in enumerate(names)}
    succs = [sorted([index_of[v] for v in vs if v in index_of]) for vs in fvs]
    n = len(names)
    # Visit numbers count from 1.  0 is unvisited; n + 1, above every low
    # link, marks a member already in a component.
    index, low = [0] * n, [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        path = [] if index[root] else [(root, 0)]
        while path:
            v, i = path.pop()
            if i:  # back from its successor i - 1
                low[v] = min(low[v], low[succs[v][i - 1]])
            else:
                counter += 1
                index[v] = low[v] = counter
                stack.append(v)
            while i < len(succs[v]):
                w = succs[v][i]
                i += 1
                if not index[w]:
                    path += [(v, i), (w, 0)]
                    break
                low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = n + 1
                    comps.append(sorted(comp))
    return comps


class _ScopeWalk:
    """One pre-order walk, on an explicit stack, under the scoping rules:
    top-level names scope over every body and ``main``, a let group's
    binders over its right-hand sides and body, parameters over their
    body, a default binder over its branch.

    For :func:`validate` and :func:`freshen` it finds the violations and
    an error per let group or top level binding a name twice, each at a
    node's pre-order index (:meth:`violations` makes them text), and the
    renamed program: binders get :func:`_fresh` names and occurrences
    those of the binders in scope.  In the same walk it makes the
    program's scan: the nodes in pre-order, the let binders' occurrence
    facts, the names, and each right-hand side's free variables (the names
    it mentions less its parameters and the binders inside it), which it
    stores on the right-hand side.  No other code finds these; the lifter
    only builds those of the right-hand sides it rebuilds, from their new
    children (see :func:`~liftlab.lifter.apply_lifts`).  When a let's
    right-hand sides have closed, a group of two or more members is split
    into its strongly connected components, dependencies outermost, unless
    a binder has been renamed.

    ``result`` is the program with its renamings and splits: on exit a
    node is rebuilt only when ``changed`` grew under it, from its
    children's new nodes, which ``results`` holds as (stack height, node)
    pairs, the height telling which child; every other subtree is shared.

    Binding follows :meth:`bind` and lookup :meth:`resolve`, but the loop
    calls them only where they could change something.  A binder whose
    name no binder or renaming has used yet is bound inline, as written;
    from the first one that is not, :meth:`bind` takes the rest of the
    site, and the site's closing entry keeps what it returns until the
    scope ends.  A name in scope as written is checked inline; any other
    goes to :meth:`resolve`, an application's through :meth:`leaf`.
    Calling them always runs a quarter more bytecode and adds about 5% to
    the corpus benchmark's wall time."""

    def __init__(self, p: Program, split: bool = True) -> None:
        self.split = split
        self.records: list[tuple] = []  # (node index | None, up, suffix, tag, detail)
        self.twice: list[tuple] = []  # (node index | None, up, suffix, name)
        self.used: set[str] = set()  # binder names as written, and fresh names
        self.picked: set[str] = set()  # fresh names no binder has written
        self.last: dict[str, int] = {}  # base -> its last _fresh suffix
        self.renamed = 0  # binders renamed
        self.splits = 0  # let groups split
        self.env: dict[str, str | None] = {}  # name -> fresh name; None out of scope
        self.nodes: list[Expr] = []
        self.known: dict[str, bool] = {}  # let binder -> its right-hand side is a lambda
        self.as_arg: set[str] = set()
        names, _ = self.bind([tb.name for tb in p.top_binds], 0, None, 0, "top ", True)
        tops = []
        for tb, name in zip(p.top_binds, names):
            params, undo = self.bind(tb.params, 0, None, 0, f"top {tb.name}/param ")
            body = self.expr(tb.body)
            self.leave(tb.params, undo)
            if name != tb.name or tuple(params) != tb.params or body is not tb.body:
                tb = TopBind(name, tuple(params), body)
            tops.append(tb)
        main = self.expr(p.main)
        self.result = p if not (self.renamed or self.splits) else Program(tuple(tops), main)

    def bind(self, names, done: int, index: int | None, up: int, kind: str, twice: bool = False):
        """Bind ``names[done:]`` in order, ``names[:done]`` being bound
        already, each new as written.  A name bound before is renamed, and
        is a ``NonUniqueName`` unless no binder has written it.  Violations
        are at the path of node ``index`` less ``up`` segments, then
        ``kind`` and the name (nothing when ``kind`` is empty).  Returns the
        new names, and what each name shadowed, for :meth:`leave`."""
        if twice and len(set(names)) < len(names):
            dup = next(n for n in names if names.count(n) > 1)
            self.twice.append((index, up, kind + dup, dup))
        env, used, picked = self.env, self.used, self.picked
        new_names = list(names[:done])
        written = set(new_names)
        undo = []
        for name in names[done:]:
            if name not in written:
                written.add(name)
                undo.append((name, env.get(name)))
            new = name
            if name in used:
                if name in picked:
                    picked.discard(name)
                else:
                    self.records.append((index, up, kind and kind + name, "NonUniqueName", name))
                new = _fresh(name, used, self.last)
                picked.add(new)
                self.renamed += 1
            used.add(new)
            env[name] = new
            new_names.append(new)
        return new_names, undo

    def leave(self, names, undo: list) -> None:
        """End the scopes of one site's ``names``."""
        env = self.env
        for name in names:
            env[name] = None
        for name, old in undo:
            env[name] = old

    def resolve(self, name: str, index: int, suffix: str) -> str:
        new = self.env.get(name)
        if new is None:
            self.records.append((index, 0, suffix, "UnboundVariable", name))
            return name
        return new

    def atom(self, a: Atom, index: int) -> Atom:
        if type(a) is Var:
            new = self.resolve(a.name, index, "/arg")
            return a if new == a.name else Var(new)
        if type(a) is not Lit:
            self.records.append((index, 0, "/arg", "NonAtomicArg", type(a).__name__))
        return a

    def leaf(self, e: App | PrimApp, index: int) -> Expr:
        """An application with a name that is unbound or renamed, or of the
        wrong shape: its violations, in order, and its renamed node."""
        if type(e) is App:
            head = self.resolve(e.head, index, "")
        elif e.op not in PRIMOPS or len(e.args) != 2:
            self.records.append((index, 0, "", "UnsaturatedPrimop", e.op))
        args = tuple([self.atom(a, index) for a in e.args])
        if all([a is b for a, b in zip(args, e.args)]) and (type(e) is PrimApp or head == e.head):
            return e
        return App(head, args) if type(e) is App else PrimApp(e.op, args)

    def expr(self, root: Expr) -> Expr:
        """Walk ``root``.  The stack holds nodes; a let's ``(name, rhs)``
        bindings, which open a right-hand side; a case's default, which
        binds its name; the tuples that close a let or a case and the
        lists that close a right-hand side, each pushed when it opens and
        ending with what :meth:`bind` returned for its binders, or None."""
        env, used, known, as_arg = self.env, self.used, self.known, self.as_arg
        nodes, records = self.nodes, self.records
        mentioned: set[str] = set()  # names occurring in the open right-hand side
        bound: set[str] = set()  # binders inside it
        changed = 0
        results: list[tuple[int, Expr | Rhs]] = []
        stack: list = [root]
        while stack:
            e = stack.pop()
            t = type(e)
            if t is tuple:
                x = e[0]
                if type(x) is str:
                    y = e[1]
                    t = type(y)
                    if t is Lambda or t is Thunk:  # a right-hand side opens
                        close = [y, changed, len(results), mentioned, bound, None]
                        stack.append(close)
                        mentioned, bound = set(), set()
                        if t is Lambda:
                            k = len(used)
                            for name in y.params:
                                if name in used:
                                    done = len(used) - k
                                    close[5] = self.bind(y.params, done, len(nodes), 1, "/param ")
                                    changed += 1
                                    break
                                used.add(name)
                                env[name] = name
                            if not y.params:
                                records.append((len(nodes), 1, "", "ZeroParamLambda", ""))
                        stack.append(y.body)
                    else:  # a case's default binds its name
                        if x in used:
                            # the case's closing entry, just below, keeps what bind returns
                            stack[-1] = stack[-1][:4] + (self.bind((x,), 0, len(nodes), 0, ""),)
                            changed += 1
                        else:
                            used.add(x)
                            env[x] = x
                        bound.add(x)
                        stack.append(y)
                elif type(x) is Let:
                    _, before, mark, base, st = e
                    group = x.group
                    binds = group.binds
                    for name, _ in binds:
                        env[name] = None
                    if st is not None:
                        for name, old in st[1]:
                            env[name] = old
                    comps = None
                    if len(binds) > 1 and self.split and not self.renamed:
                        fvs = [rhs.__dict__["_free"] for _, rhs in binds]
                        comps = _scc_components(group.binders(), fvs)
                        if len(comps) > 1:
                            changed += 1
                            self.splits += 1
                        else:
                            comps = None
                    if changed != before:
                        kids = results[mark:]
                        del results[mark:]
                        results.append((len(stack), _rebuild_let(x, kids, base, st, comps)))
                else:  # a case closes
                    _, before, mark, base, st = e
                    dname = x.default[0]
                    env[dname] = None
                    if st is not None:
                        env[dname] = st[1][0][1]
                    if changed != before:
                        kids = results[mark:]
                        del results[mark:]
                        results.append((len(stack), _rebuild_case(x, kids, base, st)))
            elif t is list:  # a right-hand side closes
                x, before, mark, enclosing, enclosing_bound, st = e
                mentioned -= bound
                if type(x) is Lambda:
                    params = x.params
                    mentioned.difference_update(params)
                    for name in params:
                        env[name] = None
                    if st is not None:
                        for name, old in st[1]:
                            env[name] = old
                x.__dict__["_free"] = fvs = frozenset(mentioned)
                mentioned, bound = enclosing, enclosing_bound
                mentioned |= fvs
                if changed != before:
                    body = results.pop()[1] if len(results) > mark else x.body
                    if type(x) is Thunk:
                        new = Thunk(body)
                    else:
                        new = Lambda(x.card, tuple(st[0]) if st else x.params, body)
                    if not self.renamed:
                        new.__dict__["_free"] = fvs
                    results.append((len(stack), new))
            elif t is AtomExpr:
                nodes.append(e)
                a = e.atom
                if type(a) is Var:
                    name = a.name
                    mentioned.add(name)
                    if env.get(name) != name:
                        new = self.resolve(name, len(nodes) - 1, "")
                        if new != name:
                            changed += 1
                            results.append((len(stack), AtomExpr(Var(new))))
                elif type(a) is not Lit:
                    records.append((len(nodes) - 1, 0, "", "NonAtomicArg", type(a).__name__))
            elif t is App or t is PrimApp:
                nodes.append(e)
                if t is App:
                    name = e.head
                    mentioned.add(name)
                    ok = env.get(name) == name
                else:
                    ok = e.op in PRIMOPS and len(e.args) == 2
                for a in e.args:
                    if type(a) is Var:
                        name = a.name
                        mentioned.add(name)
                        if name in known:
                            as_arg.add(name)
                        if env.get(name) != name:
                            ok = False
                    elif type(a) is not Lit:
                        ok = False
                if not ok:
                    new = self.leaf(e, len(nodes) - 1)
                    if new is not e:
                        changed += 1
                        results.append((len(stack), new))
            elif t is Let:
                nodes.append(e)
                binds = e.group.binds
                st = None
                k = len(used)
                for name, rhs in binds:
                    known[name] = type(rhs) is Lambda
                    bound.add(name)
                    if name in used:
                        st = self.bind_let(e, len(used) - k, bound)
                        break
                    used.add(name)
                    env[name] = name
                stack.append((e, changed, len(results), len(stack) + 1, st))
                if st is not None:
                    changed += 1  # at least one binder is renamed
                if not binds:
                    records.append((len(nodes) - 1, 0, "", "EmptyGroup", ""))
                stack.append(e.body)
                stack += reversed(binds)
            elif t is Case:
                nodes.append(e)
                stack.append((e, changed, len(results), len(stack) + 1, None))
                stack.append(e.default)
                if e.alts:
                    stack += [body for _, body in reversed(e.alts)]
                stack.append(e.scrutinee)
            else:
                nodes.append(e)
                records.append((len(nodes) - 1, 0, "", "NonAtomicArg", t.__name__))
        return results[0][1] if results else root

    def bind_let(self, e: Let, done: int, bound: set[str]):
        """Bind the rest of a let group whose binder ``done`` was bound
        before, the open right-hand side's ``bound`` set taking the rest;
        returns what :meth:`bind` returns."""
        for name, rhs in e.group.binds[done + 1 :]:
            self.known[name] = type(rhs) is Lambda
            bound.add(name)
        return self.bind(e.group.binders(), done, len(self.nodes) - 1, 0, "/let ", True)

    def violations(self, p: Program) -> tuple[list[Violation], list[str]]:
        """The violations as :func:`validate` reports them, and the
        bound-twice errors as :func:`freshen` raises them, with their
        paths made text."""
        if not (self.records or self.twice):
            return [], []
        paths = _node_paths(p, {r[0] for r in self.records + self.twice if r[0] is not None})

        def where(index: int | None, up: int, suffix: str) -> str:
            if index is None:
                return suffix
            path = paths[index]
            for _ in range(up):
                path = path[0]
            return _path_text(path) + suffix

        out = [Violation(where(*r[:3]), tag, detail) for *r, tag, detail in self.records]
        twice = [f"{where(*r[:3])}: {r[3]!r} is bound twice in one group" for r in self.twice]
        return out, twice


def _rebuild_let(e: Let, kids: list, base: int, st, comps: list[list[int]] | None) -> Expr:
    """``e`` with the new children ``kids``, its binders renamed as ``st``
    says, and split into the components ``comps``, the first outermost."""
    binds = e.group.binds
    n = len(binds)
    rhss = [rhs for _, rhs in binds]
    body = e.body
    for height, new in kids:
        j = n - (height - base)
        if j == n:
            body = new
        else:
            rhss[j] = new
    if comps is None and st is None and all([a is b for a, (_, b) in zip(rhss, binds)]):
        return Let(e.group, body)
    new_binds = list(zip(st[0] if st else e.group.binders(), rhss))
    for comp in reversed(comps or [range(n)]):
        body = Let(BindGroup(tuple([new_binds[i] for i in comp])), body)
    return body


def _rebuild_case(e: Case, kids: list, base: int, st) -> Expr:
    """``e`` with the new children ``kids`` and its default binder renamed
    as ``st`` says."""
    children = [e.scrutinee, *[body for _, body in e.alts], e.default[1]]
    for height, new in kids:
        children[len(children) - 1 - (height - base)] = new
    alts = tuple([(pat, body) for (pat, _), body in zip(e.alts, children[1:])])
    return Case(children[0], alts, (st[0][0] if st else e.default[0], children[-1]))


def _scope(p: Program) -> tuple[list[Violation], list[str], Program | None]:
    """``p``'s :class:`_ScopeWalk`, made once per program: its violations,
    its bound-twice errors, and its renamed program (None when that is
    ``p``, so the memo never refers to ``p``).  A clean mark the lifter
    left on its output (see :func:`~liftlab.lifter.apply_lifts`) counts as
    one."""
    return _analyses(p).get("scope") or _walk_scope(p)


def _walk_scope(p: Program) -> tuple[list[Violation], list[str], Program | None]:
    """Walk ``p`` and store what :func:`_scope` returns.  When the walk
    renames nothing, the names are globally unique, so its scan and split
    hold: they are stored as ``scan`` and ``split`` (None when nothing
    splits), and a split program gets the same scan of its own nodes.  A
    split is never made on a program that renames, so such a walk runs
    again without."""
    memo = _analyses(p)
    walk = _ScopeWalk(p)
    if walk.renamed and walk.splits:
        walk = _ScopeWalk(p, split=False)
    out, twice = walk.violations(p)
    if walk.renamed:
        scope = memo["scope"] = (out, twice, walk.result)
        return scope
    facts = {name: BinderFacts(name in walk.as_arg, k) for name, k in walk.known.items()}
    names = frozenset(walk.used)
    memo.setdefault("scan", Scan(walk.nodes, facts, names))
    q = walk.result
    memo["split"] = None if q is p else q
    if q is not p:
        split = _analyses(q)
        split["scan"] = Scan(list(program_nodes(q)), facts, names)
        if not out:  # a valid program splits into a valid one
            split["scope"], split["split"] = ([], [], None), None
    scope = memo["scope"] = (out, twice, None)
    return scope


def validate(p: Program) -> list[Violation]:
    """Check ANF shape, global name uniqueness, lambda arity and scoping;
    the list is empty exactly when the program is well-formed.  Shares its
    scope walk, and so its scoping rules, with :func:`freshen`."""
    return list(_scope(p)[0])


def freshen(p: Program) -> Program:
    """Rename binders so every name in the program is globally unique.

    Renaming is deterministic: the first binder of a name keeps it, later
    ones (a lambda's repeated parameter too) become ``name_1``, ``name_2``,
    ...  Alpha-equivalent output that shares every subtree needing no
    renaming; idempotent.  Raises :class:`ScopeError` on the first unbound
    variable, else on a name bound twice in one let group or at the top
    level, whose occurrences could mean either binding."""
    out, twice, fresh = _scope(p)
    for v in out:
        if v.tag == "UnboundVariable":
            raise ScopeError(f"unbound variable {v.detail!r}")
    if twice:
        raise ScopeError(twice[0])
    return p if fresh is None else fresh
