"""The calculus: AST, concrete text format, validation, and renaming.

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
into their minimal components (see :mod:`liftlab.analysis`).

Programs are immutable, so what an analysis finds about one is memoised on
the object it describes, in the frozen instance's ``__dict__``, which
``==``, ``hash`` and ``repr`` ignore: a right-hand side keeps its free
variables and a group its binders, and a ``Program`` keeps its
whole-program tables (:func:`_analyses`): :func:`freshen` and
:func:`validate` share one scope walk, and the analysis, lifter and
interpreter modules keep theirs there too.  A copy of a program analyses
afresh.  ``==`` and ``hash`` compare the fields structurally on an explicit
stack, so equal programs of any nesting depth compare equal.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import islice

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
    :func:`_analyses`): ``scope`` here; ``scan`` (nodes, occurrence facts
    and names) and ``binders`` in :mod:`liftlab.analysis`; ``plan`` (the
    skeletons) and ``lifted`` (the last lift output, with the set of
    groups it lifted) in :mod:`liftlab.lifter`; ``layouts``, ``compiled``
    and ``run`` (a completed run's value and stats) in
    :mod:`liftlab.machine`.  A pickled or deep-copied one comes back empty,
    since its tables are keyed by the ``id`` of the original's nodes."""

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
    by the same rule.  One host frame per nesting level."""
    if _is_simple(e):
        out.append(inline + _pp_simple(e))
        return
    pad = " " * ind
    out.append(f"{broken}\n{pad}")
    if isinstance(e, Let):
        for i, (name, rhs) in enumerate(e.group.binds):
            kw = f"\n{pad}and" if i else "let"
            out.append(f"{kw} {name} = {_pp_rhs_head(rhs)}")
            _block(rhs.body, ind + 4, out, " ", "")
        _block(e.body, ind, out, f"\n{pad}in ", f"\n{pad}in")
    elif isinstance(e, Case):
        _block(e.scrutinee, ind + 4, out, "case ", "case")
        out.append(" of {" if _is_simple(e.scrutinee) else f"\n{pad}of {{")
        alt_pad = " " * (ind + 2)
        for pat, body in e.alts:
            arrow = f"\n{alt_pad}{pat} -> "
            _block(body, ind + 6, out, arrow, arrow)
            out.append(";")
        binder, dbody = e.default
        arrow = f"\n{alt_pad}default {binder} -> "
        _block(dbody, ind + 6, out, arrow, arrow)
        out.append(f"\n{pad}}}")
    else:
        raise AssertionError(e)


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
# Scoping: validation and freshening
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    path: str
    tag: str
    detail: str


class ScopeError(Exception):
    pass


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


class _ScopeWalk:
    """One pre-order walk under the scoping rules: top-level names scope
    over every body and ``main``, a let group's binders over its right-hand
    sides and body, parameters over their body, a default binder over its
    branch.  Binders get :func:`_fresh` names and occurrences those of the
    binders in scope, in ``result`` (which shares every subtree left as it
    was); ``out`` holds :func:`validate`'s violations and ``twice`` an error
    per let group or top level binding a name twice."""

    def __init__(self, p: Program) -> None:
        self.out: list[Violation] = []
        self.twice: list[str] = []
        self.seen: set[str] = set()  # binders as written
        self.used: set[str] = set()  # fresh names
        self.last: dict[str, int] = {}  # base -> its last _fresh suffix
        self.renamed = 0  # binders and occurrences renamed so far
        self.env: dict[str, str | None] = {}  # name -> fresh name; None out of scope
        self.undo: list[tuple[str, str | None]] = []  # what each binding shadowed
        names = self.bind_site([tb.name for tb in p.top_binds], "", "top ")
        tops = []
        for tb, name in zip(p.top_binds, names):
            path = "top " + tb.name
            params = tuple([self.bind(x, (path, "/param " + x)) for x in tb.params])
            tops.append(TopBind(name, params, self.expr(tb.body, path)))
            self.leave(len(params))
        main = self.expr(p.main, "main")
        self.result = p if self.renamed == 0 else Program(tuple(tops), main)

    def violation(self, path: str | tuple, tag: str, detail: str) -> None:
        self.out.append(Violation(_path_text(path), tag, detail))

    def bind(self, name: str, path: str | tuple) -> str:
        if name in self.seen:
            self.violation(path, "NonUniqueName", name)
        self.seen.add(name)
        new = name
        if name in self.used:
            new = _fresh(name, self.used, self.last)
            self.renamed += 1
        self.used.add(new)
        self.undo.append((name, self.env.get(name)))
        self.env[name] = new
        return new

    def bind_site(self, names: list[str], path: str | tuple, kind: str) -> list[str]:
        """Bind one group's ``names``, each at ``path`` then ``kind`` and the name."""
        if len(set(names)) < len(names):
            dup = next(n for n in names if names.count(n) > 1)
            where = _path_text((path, kind + dup))
            self.twice.append(f"{where}: {dup!r} is bound twice in one group")
        return [self.bind(name, (path, kind + name)) for name in names]

    def leave(self, n: int) -> None:
        """End the scopes of the last ``n`` bindings."""
        while n:
            name, old = self.undo.pop()
            self.env[name] = old
            n -= 1

    def resolve(self, name: str, path: str | tuple) -> str:
        new = self.env.get(name)
        if new is None:
            self.violation(path, "UnboundVariable", name)
        elif new != name:
            self.renamed += 1
        return new or name

    def atom(self, a: Atom, path: str | tuple) -> Atom:
        if type(a) is Var:
            new = self.resolve(a.name, path)
            return a if new == a.name else Var(new)
        if type(a) is not Lit:
            self.violation(path, "NonAtomicArg", type(a).__name__)
        return a

    # One host frame per nesting level: plain loops, and a let's right-hand
    # sides handled inline.  A node is rebuilt only if ``renamed`` grew.
    def expr(self, e: Expr, path: str | tuple) -> Expr:
        t = type(e)
        before = self.renamed
        if t is AtomExpr:
            a = self.atom(e.atom, path)
            return e if a is e.atom else AtomExpr(a)
        if t is App:
            head = self.resolve(e.head, path)
            args = tuple([self.atom(a, (path, "/arg")) for a in e.args])
            return e if self.renamed == before else App(head, args)
        if t is PrimApp:
            if e.op not in PRIMOPS or len(e.args) != 2:
                self.violation(path, "UnsaturatedPrimop", e.op)
            args = tuple([self.atom(a, (path, "/arg")) for a in e.args])
            return e if self.renamed == before else PrimApp(e.op, args)
        if t is Let:
            if not e.group.binds:
                self.violation(path, "EmptyGroup", "")
            names = self.bind_site([name for name, _ in e.group.binds], path, "/let ")
            binds = []
            for (name, rhs), new in zip(e.group.binds, names):
                rpath = (path, "/let " + name)
                r, params = self.renamed, ()
                if type(rhs) is Lambda:
                    if not rhs.params:
                        self.violation(rpath, "ZeroParamLambda", "")
                    params = tuple([self.bind(x, (rpath, "/param " + x)) for x in rhs.params])
                body = self.expr(rhs.body, (rpath, "/rhs"))
                self.leave(len(params))
                if self.renamed != r:
                    rhs = Thunk(body) if type(rhs) is Thunk else Lambda(rhs.card, params, body)
                binds.append((new, rhs))
            body = self.expr(e.body, (path, "/in"))
            self.leave(len(names))
            if self.renamed == before:
                return e
            return Let(BindGroup(tuple(binds)), body)
        if t is Case:
            scrut = self.expr(e.scrutinee, (path, "/scrutinee"))
            alts = []
            for pat, body in e.alts:
                alts.append((pat, self.expr(body, (path, f"/alt {pat}"))))
            dname, dbody = e.default
            default = (self.bind(dname, (path, "/default")), self.expr(dbody, (path, "/default")))
            self.leave(1)
            return e if self.renamed == before else Case(scrut, tuple(alts), default)
        self.violation(path, "NonAtomicArg", t.__name__)
        return e


def _scope(p: Program) -> tuple[list[Violation], list[str], Program | None]:
    """``p``'s :class:`_ScopeWalk`, made once per program: its violations,
    its bound-twice errors, and its renamed program (None when that is
    ``p``, so the memo never refers to ``p``)."""
    memo = _analyses(p)
    scope = memo.get("scope")
    if scope is None:
        walk = _ScopeWalk(p)
        scope = memo["scope"] = (walk.out, walk.twice, None if walk.result is p else walk.result)
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
