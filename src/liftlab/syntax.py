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
when one of its binders occurs in one of its right-hand sides
(:attr:`BindGroup.recursive`); the SCC pre-pass splits groups into their
minimal components (see :mod:`liftlab.analysis`).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice

INF = float("inf")

PRIMOPS = ("+#", "-#", "*#", "%#", "<#")
KEYWORDS = frozenset({"let", "and", "in", "case", "of", "default", "thunk"})


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class Lambda:
    card: Cardinality
    params: tuple[str, ...]
    body: "Expr"


@dataclass(frozen=True)
class Thunk:
    """Updatable nullary closure; memoised after its first entry."""

    body: "Expr"


@dataclass(frozen=True)
class BindGroup:
    binds: tuple[tuple[str, "Rhs"], ...]

    def binders(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.binds)

    @property
    def recursive(self) -> bool:
        """Whether a binder occurs in a right-hand side; exact once names are unique."""
        names = set(self.binders())
        bodies = [rhs.body for _, rhs in self.binds]
        return any(not names.isdisjoint(occurrences(e)) for e in walk(*bodies))


@dataclass(frozen=True)
class AtomExpr:
    atom: Var | Lit


@dataclass(frozen=True)
class App:
    head: str
    args: tuple[Var | Lit, ...]


@dataclass(frozen=True)
class PrimApp:
    op: str
    args: tuple[Var | Lit, Var | Lit]


@dataclass(frozen=True)
class Let:
    group: BindGroup
    body: "Expr"


@dataclass(frozen=True)
class Case:
    scrutinee: "Expr"
    alts: tuple[tuple[int, "Expr"], ...]
    default: tuple[str, "Expr"]


Expr = AtomExpr | App | PrimApp | Let | Case
Rhs = Lambda | Thunk
Atom = Var | Lit


@dataclass(frozen=True)
class TopBind:
    name: str
    params: tuple[str, ...]
    body: Expr


@dataclass(frozen=True)
class Program:
    top_binds: tuple[TopBind, ...]
    main: Expr

    def top_names(self) -> frozenset[str]:
        return frozenset(tb.name for tb in self.top_binds)


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


def map_subexprs(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``e`` with ``f`` applied to each sub-expression, in
    :func:`subexprs` order; binders, parameters and patterns are kept.

    Plain loops keep this to one stack frame between ``f``'s calls, so
    recursive callers reach the same nesting depth as a direct recursion
    (pass a bound method or ``functools.partial``, not a lambda).
    """
    if isinstance(e, (AtomExpr, App, PrimApp)):
        return e
    if isinstance(e, Let):
        binds = []
        for name, rhs in e.group.binds:
            if isinstance(rhs, Lambda):
                binds.append((name, Lambda(rhs.card, rhs.params, f(rhs.body))))
            else:
                binds.append((name, Thunk(f(rhs.body))))
        return Let(BindGroup(tuple(binds)), f(e.body))
    if isinstance(e, Case):
        scrut = f(e.scrutinee)
        alts = []
        for pat, body in e.alts:
            alts.append((pat, f(body)))
        dname, dbody = e.default
        return Case(scrut, tuple(alts), (dname, f(dbody)))
    raise AssertionError(e)


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


def bound_names(p: Program) -> list[str]:
    """Every binder and parameter, each listed just before the expression it
    scopes over: top-level names and params before their body, a let binder
    and its params before its right-hand side, a default binder after the
    scrutinee and alternatives."""
    names: list[str] = []
    stack: list[str | Expr] = [p.main]
    for tb in reversed(p.top_binds):
        stack += [tb.body, *reversed(tb.params), tb.name]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            names.append(item)
        elif isinstance(item, Let):
            stack.append(item.body)
            for name, rhs in reversed(item.group.binds):
                stack.append(rhs.body)
                if isinstance(rhs, Lambda):
                    stack += reversed(rhs.params)
                stack.append(name)
        elif isinstance(item, Case):
            *before, dbody = subexprs(item)
            stack += [dbody, item.default[0], *reversed(before)]
    return names


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


def validate(p: Program) -> list[Violation]:
    """Check ANF shape, global name uniqueness, lambda arity and scoping;
    the list is empty exactly when the program is well-formed.  Shares its
    scope walk, and so its scoping rules, with :func:`freshen`."""
    return _ScopeWalk(p).out


def freshen(p: Program) -> Program:
    """Rename binders so every name in the program is globally unique.

    Renaming is deterministic: the first binder of a name keeps it, later
    ones (a lambda's repeated parameter too) become ``name_1``, ``name_2``,
    ...  Alpha-equivalent output that shares every subtree needing no
    renaming; idempotent.  Raises :class:`ScopeError` on the first unbound
    variable, else on a name bound twice in one let group or at the top
    level, whose occurrences could mean either binding."""
    walk = _ScopeWalk(p)
    for v in walk.out:
        if v.tag == "UnboundVariable":
            raise ScopeError(f"unbound variable {v.detail!r}")
    if walk.twice:
        raise ScopeError(walk.twice[0])
    return walk.result
