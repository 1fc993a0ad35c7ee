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

Line comments start with ``--``.  Application arguments and case patterns
are atoms; every lambda is the right-hand side of a binding.  ``let ... and
...`` groups are candidate recursive groups until the SCC pre-pass
canonicalises them (see :mod:`liftlab.analysis`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

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
    recursive: bool
    binds: tuple[tuple[str, "Rhs"], ...]

    def binders(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.binds)


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
    :func:`subexprs` order; binders, patterns and flags are kept.

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
        return Let(BindGroup(e.group.recursive, tuple(binds)), f(e.body))
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


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | prim | punct | eof
    text: str
    line: int
    col: int


_PUNCT_SINGLE = "=;\\{},*()"


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def emit(kind: str, s: str, ln: int, cl: int) -> None:
        toks.append(_Token(kind, s, ln, cl))

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        ln, cl = line, col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            emit("ident", text[i:j], ln, cl)
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            emit("int", text[i:j], ln, cl)
            col += j - i
            i = j
            continue
        if c in "+-*%<" and i + 1 < n and text[i + 1] == "#":
            emit("prim", text[i : i + 2], ln, cl)
            i += 2
            col += 2
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            emit("punct", "->", ln, cl)
            i += 2
            col += 2
            continue
        if c in _PUNCT_SINGLE:
            emit("punct", c, ln, cl)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", ln, cl)
    toks.append(_Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _mentions_member(binds: tuple[tuple[str, "Rhs"], ...]) -> bool:
    """Whether any right-hand side mentions a binder of the group.

    A raw name scan: exact once names are globally unique, which is all the
    canonical pipeline needs.  The parser sets each group's flag with it, so
    ``parse(print_program(p)) == p`` holds for SCC-split programs, whose
    flags the SCC pre-pass computed with proper scoping.
    """
    names = {name for name, _ in binds}
    mentioned: set[str] = set()
    for _, rhs in binds:
        for e in walk(rhs.body):
            mentioned.update(occurrences(e))
    return not names.isdisjoint(mentioned)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    def expect_punct(self, text: str) -> _Token:
        t = self.peek()
        if t.kind != "punct" or t.text != text:
            raise self.fail(f"expected {text!r}, found {t.text!r}")
        return self.next()

    def expect_keyword(self, word: str) -> _Token:
        t = self.peek()
        if t.kind != "ident" or t.text != word:
            raise self.fail(f"expected {word!r}, found {t.text!r}")
        return self.next()

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            raise self.fail(f"expected identifier, found {t.text!r}")
        return self.next().text

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    # atoms ------------------------------------------------------------

    def at_atom(self) -> bool:
        t = self.peek()
        return t.kind == "int" or (t.kind == "ident" and t.text not in KEYWORDS)

    def atom(self) -> Atom:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Lit(int(t.text))
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            return Var(t.text)
        raise self.fail(f"expected atom, found {t.text!r}")

    # expressions --------------------------------------------------------

    def expr(self) -> Expr:
        t = self.peek()
        if self.at_keyword("let"):
            return self.let_expr()
        if self.at_keyword("case"):
            return self.case_expr()
        if self.at_punct("("):
            self.next()
            e = self.expr()
            self.expect_punct(")")
            return e
        if t.kind == "prim":
            op = self.next().text
            a = self.atom()
            b = self.atom()
            return PrimApp(op, (a, b))
        if t.kind == "int":
            return AtomExpr(self.atom())
        if t.kind == "ident" and t.text not in KEYWORDS:
            head = self.next().text
            args: list[Atom] = []
            while self.at_atom():
                args.append(self.atom())
            if args:
                return App(head, tuple(args))
            return AtomExpr(Var(head))
        raise self.fail(f"expected expression, found {t.text!r}")

    def let_expr(self) -> Expr:
        self.expect_keyword("let")
        binds = [self.bind()]
        while self.at_keyword("and"):
            self.next()
            binds.append(self.bind())
        self.expect_keyword("in")
        body = self.expr()
        return Let(BindGroup(_mentions_member(tuple(binds)), tuple(binds)), body)

    def bind(self) -> tuple[str, Rhs]:
        name = self.expect_ident()
        self.expect_punct("=")
        return name, self.rhs()

    def rhs(self) -> Rhs:
        if self.at_keyword("thunk"):
            self.next()
            return Thunk(self.expr())
        if self.at_punct("\\"):
            self.next()
            card = MULTI_SHOT
            if self.at_punct("{"):
                card = self.cardinality()
            params = [self.expect_ident()]
            while self.peek().kind == "ident" and self.peek().text not in KEYWORDS:
                params.append(self.expect_ident())
            self.expect_punct("->")
            return Lambda(card, tuple(params), self.expr())
        raise self.fail("expected right-hand side (lambda or thunk)")

    def cardinality(self) -> Cardinality:
        t = self.expect_punct("{")
        lo_tok = self.peek()
        if lo_tok.kind != "int" or lo_tok.text not in ("0", "1"):
            raise self.fail("entry lower bound must be 0 or 1")
        lo = int(self.next().text)
        self.expect_punct(",")
        hi_tok = self.peek()
        if hi_tok.kind == "punct" and hi_tok.text == "*":
            self.next()
            hi: int | float = INF
        elif hi_tok.kind == "int" and hi_tok.text in ("0", "1"):
            hi = int(self.next().text)
        else:
            raise self.fail("entry upper bound must be 0, 1 or *")
        self.expect_punct("}")
        try:
            return Cardinality(lo, hi)
        except ValueError as exc:
            raise ParseError(str(exc), t.line, t.col) from None

    def case_expr(self) -> Expr:
        self.expect_keyword("case")
        scrut = self.expr()
        self.expect_keyword("of")
        self.expect_punct("{")
        alts: list[tuple[int, Expr]] = []
        while self.peek().kind == "int":
            pat = int(self.next().text)
            self.expect_punct("->")
            body = self.expr()
            self.expect_punct(";")
            alts.append((pat, body))
        self.expect_keyword("default")
        binder = self.expect_ident()
        self.expect_punct("->")
        dbody = self.expr()
        self.expect_punct("}")
        return Case(scrut, tuple(alts), (binder, dbody))

    # program --------------------------------------------------------------

    def program(self) -> Program:
        tops: list[TopBind] = []
        while True:
            if self.peek().kind == "eof":
                raise self.fail("missing 'main' binding")
            name = self.expect_ident()
            params: list[str] = []
            while self.peek().kind == "ident" and self.peek().text not in KEYWORDS:
                params.append(self.expect_ident())
            self.expect_punct("=")
            body = self.expr()
            if name == "main" and not params:
                if self.at_punct(";"):
                    self.next()
                if self.peek().kind != "eof":
                    raise self.fail("trailing input after main")
                return Program(tuple(tops), body)
            self.expect_punct(";")
            tops.append(TopBind(name, tuple(params), body))


def parse(text: str) -> Program:
    """Parse program text; raises :class:`ParseError` with line:col info."""
    return _Parser(_tokenize(text)).program()


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


def _pp_expr(e: Expr, ind: int, out: list[str]) -> None:
    """Append ``e``'s text to ``out``; nested lines are indented by ``ind``."""
    pad = " " * ind
    if _is_simple(e):
        out.append(_pp_simple(e))
    elif isinstance(e, Let):
        for i, (name, rhs) in enumerate(e.group.binds):
            kw = f"\n{pad}and" if i else "let"
            out.append(f"{kw} {name} = {_pp_rhs_head(rhs)}")
            body = rhs.body
            if _is_simple(body):
                out.append(" " + _pp_simple(body))
            else:
                out.append("\n" + " " * (ind + 4))
                _pp_expr(body, ind + 4, out)
        if _is_simple(e.body):
            out.append(f"\n{pad}in {_pp_simple(e.body)}")
        else:
            out.append(f"\n{pad}in\n{pad}")
            _pp_expr(e.body, ind, out)
    elif isinstance(e, Case):
        if _is_simple(e.scrutinee):
            out.append(f"case {_pp_simple(e.scrutinee)} of {{")
        else:
            out.append("case\n" + " " * (ind + 4))
            _pp_expr(e.scrutinee, ind + 4, out)
            out.append(f"\n{pad}of {{")
        alt_pad = " " * (ind + 2)
        for pat, body in e.alts:
            out.append(f"\n{alt_pad}{pat} -> ")
            _pp_alt_body(body, ind + 2, out)
            out.append(";")
        binder, dbody = e.default
        out.append(f"\n{alt_pad}default {binder} -> ")
        _pp_alt_body(dbody, ind + 2, out)
        out.append(f"\n{pad}}}")
    else:
        raise AssertionError(e)


def _pp_alt_body(e: Expr, ind: int, out: list[str]) -> None:
    if _is_simple(e):
        out.append(_pp_simple(e))
    else:
        out.append("\n" + " " * (ind + 4))
        _pp_expr(e, ind + 4, out)


def print_program(p: Program) -> str:
    """Render a program; ``parse(print_program(p))`` is structurally ``p``.

    Every piece goes into one list, joined once, so a program's text is
    built in time linear in its length however deeply it nests.
    """
    out: list[str] = []
    for tb in p.top_binds:
        head = " ".join((tb.name,) + tb.params) + " ="
        if _is_simple(tb.body):
            out.append(f"{head} {_pp_simple(tb.body)};\n\n")
        else:
            out.append(head + "\n  ")
            _pp_expr(tb.body, 2, out)
            out.append(";\n\n")
    if _is_simple(p.main):
        out.append(f"main = {_pp_simple(p.main)}")
    else:
        out.append("main =\n  ")
        _pp_expr(p.main, 2, out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    path: str
    tag: str
    detail: str


def validate(p: Program) -> list[Violation]:
    """Check ANF shape, global name uniqueness, lambda arity and scoping.

    Returns an empty list exactly when the program is well-formed.
    """
    out: list[Violation] = []
    seen: set[str] = set()

    def binder(name: str, path: str) -> None:
        if name in seen:
            out.append(Violation(path, "NonUniqueName", name))
        seen.add(name)

    def check_atom(a: object, scope: frozenset[str], path: str) -> None:
        if isinstance(a, Var):
            if a.name not in scope:
                out.append(Violation(path, "UnboundVariable", a.name))
        elif not isinstance(a, Lit):
            out.append(Violation(path, "NonAtomicArg", type(a).__name__))

    def check_expr(e: Expr, scope: frozenset[str], path: str) -> None:
        if isinstance(e, AtomExpr):
            check_atom(e.atom, scope, path)
        elif isinstance(e, App):
            if e.head not in scope:
                out.append(Violation(path, "UnboundVariable", e.head))
            for a in e.args:
                check_atom(a, scope, path + "/arg")
        elif isinstance(e, PrimApp):
            if e.op not in PRIMOPS or len(e.args) != 2:
                out.append(Violation(path, "UnsaturatedPrimop", e.op))
            for a in e.args:
                check_atom(a, scope, path + "/arg")
        elif isinstance(e, Let):
            if not e.group.binds:
                out.append(Violation(path, "EmptyGroup", ""))
            names = e.group.binders()
            for name in names:
                binder(name, path + f"/let {name}")
            inner = scope | frozenset(names)
            for name, rhs in e.group.binds:
                check_rhs(rhs, inner, path + f"/let {name}")
            check_expr(e.body, inner, path + "/in")
        elif isinstance(e, Case):
            check_expr(e.scrutinee, scope, path + "/scrutinee")
            for pat, body in e.alts:
                check_expr(body, scope, path + f"/alt {pat}")
            dname, dbody = e.default
            binder(dname, path + "/default")
            check_expr(dbody, scope | {dname}, path + "/default")
        else:
            out.append(Violation(path, "NonAtomicArg", type(e).__name__))

    def check_rhs(r: Rhs, scope: frozenset[str], path: str) -> None:
        if isinstance(r, Lambda):
            if not r.params:
                out.append(Violation(path, "ZeroParamLambda", ""))
            for prm in r.params:
                binder(prm, path + f"/param {prm}")
            check_expr(r.body, scope | frozenset(r.params), path + "/rhs")
        else:
            check_expr(r.body, scope, path + "/rhs")

    tops = frozenset(tb.name for tb in p.top_binds)
    for tb in p.top_binds:
        binder(tb.name, f"top {tb.name}")
    for tb in p.top_binds:
        for prm in tb.params:
            binder(prm, f"top {tb.name}/param {prm}")
        check_expr(tb.body, tops | frozenset(tb.params), f"top {tb.name}")
    check_expr(p.main, tops, "main")
    return out


# ---------------------------------------------------------------------------
# Freshening
# ---------------------------------------------------------------------------


class ScopeError(Exception):
    pass


def freshen(p: Program) -> Program:
    """Rename binders so every name in the program is globally unique.

    Renaming is deterministic: the first occurrence of a name keeps it, later
    binders become ``name_1``, ``name_2``, ...  Alpha-equivalent output;
    idempotent; raises :class:`ScopeError` on unbound variables.
    """
    used: set[str] = set()

    def pick(base: str) -> str:
        if base not in used:
            used.add(base)
            return base
        k = 1
        while f"{base}_{k}" in used:
            k += 1
        name = f"{base}_{k}"
        used.add(name)
        return name

    def rename_atom(a: Atom, env: dict[str, str]) -> Atom:
        if isinstance(a, Var):
            if a.name not in env:
                raise ScopeError(f"unbound variable {a.name!r}")
            return Var(env[a.name])
        return a

    def rename_expr(e: Expr, env: dict[str, str]) -> Expr:
        if isinstance(e, AtomExpr):
            return AtomExpr(rename_atom(e.atom, env))
        if isinstance(e, App):
            if e.head not in env:
                raise ScopeError(f"unbound variable {e.head!r}")
            return App(env[e.head], tuple(rename_atom(a, env) for a in e.args))
        if isinstance(e, PrimApp):
            a, b = e.args
            return PrimApp(e.op, (rename_atom(a, env), rename_atom(b, env)))
        if isinstance(e, Let):
            env2 = dict(env)
            for name, _ in e.group.binds:
                env2[name] = pick(name)
            binds = tuple(
                (env2[name], rename_rhs(rhs, env2)) for name, rhs in e.group.binds
            )
            return Let(
                BindGroup(e.group.recursive, binds), rename_expr(e.body, env2)
            )
        if isinstance(e, Case):
            scrut = rename_expr(e.scrutinee, env)
            alts = tuple((pat, rename_expr(b, env)) for pat, b in e.alts)
            dname, dbody = e.default
            env2 = dict(env)
            env2[dname] = pick(dname)
            return Case(scrut, alts, (env2[dname], rename_expr(dbody, env2)))
        raise AssertionError(e)

    def rename_rhs(r: Rhs, env: dict[str, str]) -> Rhs:
        if isinstance(r, Lambda):
            env2 = dict(env)
            params = []
            for prm in r.params:
                env2[prm] = pick(prm)
                params.append(env2[prm])
            return Lambda(r.card, tuple(params), rename_expr(r.body, env2))
        return Thunk(rename_expr(r.body, env))

    top_env: dict[str, str] = {}
    for tb in p.top_binds:
        top_env[tb.name] = pick(tb.name)
    tops = []
    for tb in p.top_binds:
        env = dict(top_env)
        params = []
        for prm in tb.params:
            env[prm] = pick(prm)
            params.append(env[prm])
        tops.append(
            TopBind(top_env[tb.name], tuple(params), rename_expr(tb.body, env))
        )
    return Program(tuple(tops), rename_expr(p.main, dict(top_env)))
