"""Reference analyses the tests check liftlab against.

Each analysis is written from README's cost model as a plain recursion
over the AST, and :class:`Parser` as a plain recursive descent over the
grammar in ``liftlab.syntax``'s docstring.  Nothing here imports from
liftlab but the AST types of ``liftlab.syntax``, so a cross-check against
these functions cannot share a bug with the parser's loop, the scope walk,
the free variables the lifter stores, the closure slot rule or the growth
index it checks (``test_reference_imports_only_ast_types`` holds that
rule).  The parser is handed its tokens and its error constructor, since
the lexer and the error texts' positions are not what it checks.
"""

import math

from liftlab.syntax import (
    App,
    AtomExpr,
    BindGroup,
    Cardinality,
    Case,
    Lambda,
    Let,
    Lit,
    PrimApp,
    Program,
    Thunk,
    TopBind,
    Var,
)

PRIMOPS = ("+#", "-#", "*#", "%#", "<#")
MULTI_SHOT = Cardinality(0, math.inf)


class Parser:
    """Recursive descent over the token texts ``toks``, which end with
    ``""``; ``idents`` and ``ints`` map identifier and integer tokens to
    their atoms, and ``error(message, index)`` makes the exception raised
    at the ``index``-th token.  It recurses once per nesting level."""

    def __init__(self, toks, idents, ints, error):
        self.toks, self.idents, self.ints = toks, idents, ints
        self.error = error
        self.pos = 0

    def fail(self, message, index=None):
        return self.error(message, self.pos if index is None else index)

    def expect(self, text):
        t = self.toks[self.pos]
        if t != text:
            raise self.fail(f"expected {text!r}, found {t!r}")
        self.pos += 1

    def expect_ident(self):
        t = self.toks[self.pos]
        if t not in self.idents:
            raise self.fail(f"expected identifier, found {t!r}")
        self.pos += 1
        return t

    def atom(self):
        t = self.toks[self.pos]
        a = self.ints.get(t) or self.idents.get(t)
        if a is None:
            raise self.fail(f"expected atom, found {t!r}")
        self.pos += 1
        return a

    def expr(self):
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
            self.pos += 1
            args = []
            while self.toks[self.pos] in self.idents or self.toks[self.pos] in self.ints:
                args.append(self.atom())
            return App(t, tuple(args)) if args else AtomExpr(self.idents[t])
        raise self.fail(f"expected expression, found {t!r}")

    def let_expr(self):
        self.pos += 1  # "let"
        binds = [self.bind()]
        while self.toks[self.pos] == "and":
            self.pos += 1
            binds.append(self.bind())
        self.expect("in")
        return Let(BindGroup(tuple(binds)), self.expr())

    def bind(self):
        name = self.expect_ident()
        self.expect("=")
        return name, self.rhs()

    def rhs(self):
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

    def cardinality(self):
        brace = self.pos
        self.pos += 1  # "{"
        if self.toks[self.pos] not in ("0", "1"):
            raise self.fail("entry lower bound must be 0 or 1")
        lo = int(self.toks[self.pos])
        self.pos += 1
        self.expect(",")
        t = self.toks[self.pos]
        if t == "*":
            hi = math.inf
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

    def case_expr(self):
        self.pos += 1  # "case"
        scrut = self.expr()
        self.expect("of")
        self.expect("{")
        alts = []
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

    def program(self):
        tops = []
        while True:
            if self.toks[self.pos] == "":
                raise self.fail("missing 'main' binding")
            name = self.expect_ident()
            params = []
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


def free_vars(node, bound=frozenset()):
    """Names occurring free in an expression or right-hand side, less ``bound``."""
    if isinstance(node, Lambda):
        return free_vars(node.body, bound | set(node.params))
    if isinstance(node, Thunk):
        return free_vars(node.body, bound)
    if isinstance(node, AtomExpr):
        a = node.atom
        return frozenset() if isinstance(a, Lit) or a.name in bound else {a.name}
    if isinstance(node, App):
        out = set() if node.head in bound else {node.head}
        for a in node.args:
            if isinstance(a, Var) and a.name not in bound:
                out.add(a.name)
        return frozenset(out)
    if isinstance(node, PrimApp):
        return frozenset(
            a.name for a in node.args if isinstance(a, Var) and a.name not in bound
        )
    if isinstance(node, Let):
        inner = bound | {name for name, _ in node.group.binds}
        out = set(free_vars(node.body, inner))
        for _, rhs in node.group.binds:
            out |= free_vars(rhs, inner)
        return frozenset(out)
    if isinstance(node, Case):
        out = set(free_vars(node.scrutinee, bound))
        for _, body in node.alts:
            out |= free_vars(body, bound)
        dname, dbody = node.default
        out |= free_vars(dbody, bound | {dname})
        return frozenset(out)
    raise AssertionError(node)


def closure_slot_fvs(binder, rhs, top_names):
    """The variables a closure for ``binder = rhs`` captures: the right-hand
    side's free variables minus itself and minus top-level names."""
    return free_vars(rhs) - {binder} - top_names


def recursive(group):
    """Whether one of the group's binders occurs free in one of its
    right-hand sides."""
    names = {name for name, _ in group.binds}
    return any(names & free_vars(rhs) for _, rhs in group.binds)


def recursive_program(p):
    """Whether a let binder or top-level name of ``p`` reaches itself in the
    graph with an edge from each to every such name free in its
    right-hand side or body: a plain reachability search from each."""
    edges = {tb.name: free_vars(tb.body, frozenset(tb.params)) for tb in p.top_binds}
    for e in preorder(p):
        if isinstance(e, Let):
            for name, rhs in e.group.binds:
                edges[name] = free_vars(rhs)
    for start in edges:
        seen, todo = set(), [start]
        while todo:
            for name in edges[todo.pop()]:
                if name == start:
                    return True
                if name in edges and name not in seen:
                    seen.add(name)
                    todo.append(name)
    return False


def scaled(n, rhs):
    # A region entered at least once keeps its negative growth; one entered
    # at most once keeps its positive growth; one entered unboundedly often
    # turns positive growth infinite; one never entered contributes nothing.
    # A thunk is entered at most once, a lambda as annotated.
    lo, hi = (0, 1) if isinstance(rhs, Thunk) else (rhs.card.min_entries, rhs.card.max_entries)
    if n < 0:
        return n if lo == 1 else 0
    if hi == 0 or n == 0:
        return 0
    return n if hi == 1 else math.inf


def direct_growth(added, removed, e, top_names):
    """Net words per evaluation of ``e`` when every closure that captures a
    ``removed`` variable drops the removed ones and captures the ``added``
    ones it lacks; each right-hand side's words are scaled by its entry
    bounds, and a ``case`` counts its worst branch."""
    if isinstance(e, (AtomExpr, App, PrimApp)):
        return 0
    if isinstance(e, Let):
        total = direct_growth(added, removed, e.body, top_names)
        for name, rhs in e.group.binds:
            slots = closure_slot_fvs(name, rhs, top_names)
            if slots & removed:
                total += len(added - slots) - len(slots & removed)
            total += scaled(direct_growth(added, removed, rhs.body, top_names), rhs)
        return total
    if isinstance(e, Case):
        branches = [direct_growth(added, removed, body, top_names) for _, body in e.alts]
        branches.append(direct_growth(added, removed, e.default[1], top_names))
        return direct_growth(added, removed, e.scrutinee, top_names) + max(branches)
    raise AssertionError(e)


def subexprs(e):
    """Immediate sub-expressions: a let's right-hand-side bodies, then its
    body; a case's scrutinee, alternatives, then default.  Leaves have none."""
    if isinstance(e, Let):
        return (*[rhs.body for _, rhs in e.group.binds], e.body)
    if isinstance(e, Case):
        return (e.scrutinee, *[body for _, body in e.alts], e.default[1])
    return ()


def occurrences(e):
    """Names occurring in the node itself; none for ``let`` and ``case``."""
    if isinstance(e, AtomExpr):
        return (e.atom.name,) if isinstance(e.atom, Var) else ()
    if isinstance(e, App):
        return (e.head, *[a.name for a in e.args if isinstance(a, Var)])
    if isinstance(e, PrimApp):
        return tuple([a.name for a in e.args if isinstance(a, Var)])
    return ()


def preorder(p):
    """Every expression node of ``p``, each top-level body's then
    ``main``'s, in pre-order: a let before its right-hand sides' bodies,
    in order, and then its body; a case before its scrutinee, its
    alternatives and its default."""
    out = []

    def visit(e):
        out.append(e)
        if isinstance(e, Let):
            for _, rhs in e.group.binds:
                visit(rhs.body)
            visit(e.body)
        elif isinstance(e, Case):
            visit(e.scrutinee)
            for _, body in e.alts:
                visit(body)
            visit(e.default[1])

    for tb in p.top_binds:
        visit(tb.body)
    visit(p.main)
    return out


def growth_index(p):
    """The growth index of ``p``, read off :func:`preorder` in one loop
    over it reversed: per right-hand side, by id, its closure slots; per
    let and case, by id, its position in the list and the end of its
    subtree, a node object found in two places keeping its first place's;
    per variable, the ascending positions of the lets with a closure
    storing it; and the lets, in order."""
    nodes = preorder(p)
    top_names = frozenset(tb.name for tb in p.top_binds)
    slots, spans, capturers = {}, {}, {}
    # The subtree ends of the nodes after the current one whose parent is
    # at or before it, first child on top: a node's end is its last child's.
    ends = []
    for i in range(len(nodes) - 1, -1, -1):
        e = nodes[i]
        if isinstance(e, Let):
            for name, rhs in e.group.binds:
                slots[id(rhs)] = closure_slot_fvs(name, rhs, top_names)
                for v in slots[id(rhs)]:
                    at = capturers.setdefault(v, [])
                    if not at or at[-1] != i:
                        at.append(i)
            k = len(e.group.binds) + 1
        elif isinstance(e, Case):
            k = len(e.alts) + 2
        else:
            ends.append(i + 1)
            continue
        end = ends[-k]
        ends[-k:] = [end]
        spans[id(e)] = (i, end)
    for at in capturers.values():
        at.reverse()
    return slots, spans, capturers, [e for e in nodes if isinstance(e, Let)]


def bound_names(p):
    """Every binder and parameter, each listed just before the expression it
    scopes over: top-level names and params before their body, a let binder
    and its params before its right-hand side, a default binder after the
    scrutinee and alternatives."""
    names = []
    stack = [p.main]
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
            before = [item.scrutinee, *[body for _, body in item.alts]]
            stack += [item.default[1], item.default[0], *reversed(before)]
    return names


def occurrence_facts(p):
    """Per let binder of ``p``: whether it occurs as an argument (a non-head
    atom of an application or primop) and whether it is a known function
    (bound to a lambda)."""
    known = {}
    arguments = set()

    def visit(e):
        if isinstance(e, Let):
            for name, rhs in e.group.binds:
                known[name] = isinstance(rhs, Lambda)
                visit(rhs.body)
            visit(e.body)
        elif isinstance(e, Case):
            visit(e.scrutinee)
            for _, body in e.alts:
                visit(body)
            visit(e.default[1])
        elif isinstance(e, (App, PrimApp)):
            arguments.update(a.name for a in e.args if isinstance(a, Var))

    for tb in p.top_binds:
        visit(tb.body)
    visit(p.main)
    return {name: (name in arguments, k) for name, k in known.items()}
