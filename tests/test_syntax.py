import hashlib
import importlib.util
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import syntax
from liftlab.lifter import lift_program
from liftlab.syntax import (
    App,
    AtomExpr,
    BindGroup,
    Case,
    Cardinality,
    INF,
    Lambda,
    Let,
    Lit,
    MULTI_SHOT,
    ParseError,
    PrimApp,
    Program,
    ScopeError,
    Thunk,
    TopBind,
    Var,
    _fresh,
    freshen,
    parse,
    print_program,
    validate,
)

from conftest import PROGRAMS_DIR, renamings
from reference import Parser as ReferenceParser, bound_names, preorder, recursive


class TestParse:
    def test_annotated_lambda(self):
        p = parse("main = let f = \\{0,*} a b -> a in f 1 2")
        let = p.main
        assert isinstance(let, Let)
        name, rhs = let.group.binds[0]
        assert name == "f"
        assert isinstance(rhs, Lambda)
        assert rhs.card == MULTI_SHOT
        assert rhs.params == ("a", "b")
        assert let.body == App("f", (Lit(1), Lit(2)))

    def test_application_atoms(self):
        p = parse("main = g 5 x f")
        assert p.main == App("g", (Lit(5), Var("x"), Var("f")))

    def test_thunk_rhs(self):
        p = parse("main = let t = thunk (+# x y) in t")
        _, rhs = p.main.group.binds[0]
        assert isinstance(rhs, Thunk)
        assert rhs.body == PrimApp("+#", (Var("x"), Var("y")))

    def test_cardinality_forms(self):
        for text, card in [
            ("{0,1}", Cardinality(0, 1)),
            ("{1,1}", Cardinality(1, 1)),
            ("{1,*}", Cardinality(1, INF)),
            ("{0,0}", Cardinality(0, 0)),
        ]:
            p = parse(f"main = let f = \\{text} x -> x in f 1")
            assert p.main.group.binds[0][1].card == card

    def test_negative_literals_and_comments(self):
        p = parse("-- leading comment\nmain = -# -3 1  -- trailing\n")
        assert p.main == PrimApp("-#", (Lit(-3), Lit(1)))

    def test_top_binds_and_recursive_flag(self):
        p = parse("id x = x;\nmain = let f = \\ a -> f a in f 1")
        assert p.top_binds[0].name == "id"
        assert recursive(p.main.group)
        q = parse("main = let f = \\ a -> a in f 1")
        assert not recursive(q.main.group)

    def test_case_with_alts(self):
        p = parse("main = case 1 of { 0 -> 10; 1 -> 11; default z -> z }")
        assert p.main.alts == ((0, AtomExpr(Lit(10))), (1, AtomExpr(Lit(11))))
        assert p.main.default[0] == "z"

    def test_trailing_semicolon_after_main(self):
        assert parse("main = 42;") == Program((), AtomExpr(Lit(42)))

    @pytest.mark.parametrize(
        "bad",
        [
            "main = let f = 5 in f",
            "main = let f = \\{1,0} x -> x in f 1",
            "f x = x;",
            "main = 1 2",
            "main = case 1 of { default -> 2 }",
            "main = let f = \\ -> 2 in f",
        ],
    )
    def test_parse_errors_carry_position(self, bad):
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert err.value.line >= 1 and err.value.col >= 1

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="2:"):
            parse("main =\n  ?")


# Exact messages, including positions, recorded from the character-by-character
# lexer that the regex lexer replaced.
PINNED_ERRORS = [
    ("", "1:1: missing 'main' binding"),
    ("main = ", "1:8: expected expression, found ''"),
    ("main =\n  ?", "2:3: unexpected character '?'"),
    ("main = -", "1:8: unexpected character '-'"),
    ("main = let f = \\{1,0} x -> x in f 1", "1:17: entry lower bound exceeds upper bound"),
    ("main = 1;;", "1:10: trailing input after main"),
    ("main = let f = 5 in f", "1:16: expected right-hand side (lambda or thunk)"),
    ("f x = x;", "1:9: missing 'main' binding"),
    ("main = case 1 of { default -> 2 }", "1:28: expected identifier, found '->'"),
    ("main = -- only a comment", "1:8: expected expression, found ''"),
    ("main = let f = \\{2,1} x -> x in f 1", "1:18: entry lower bound must be 0 or 1"),
    ("main = let f = \\{0,2} x -> x in f 1", "1:20: entry upper bound must be 0, 1 or *"),
    ("main = let x = thunk 1 x in", "1:24: expected 'in', found 'x'"),
    ("main = case 1 of { 0 -> 1 default z -> z }", "1:27: expected ';', found 'default'"),
    ("main = (f 1", "1:12: expected ')', found ''"),
    ("main = +# 1", "1:12: expected atom, found ''"),
    ("f x = x\nmain = f 1", "2:6: expected ';', found '='"),
    ("main = let f = \\{0 x -> x in f 1", "1:20: expected ',', found 'x'"),
    ("main =\tlet\r\n\tx = thunk 1 in y z in", "2:21: trailing input after main"),
    ("\n\n  main", "3:7: expected '=', found ''"),
    ("main = 1\n-- c\n; 2", "3:3: trailing input after main"),
    ("main = f \u00e9 \u00bd", "1:12: unexpected character '\u00bd'"),
    ("main = x\x0b", "1:9: unexpected character '\\x0b'"),
]


@pytest.mark.parametrize("text,message", PINNED_ERRORS)
def test_parse_error_messages_pinned(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert message.startswith(f"{err.value.line}:{err.value.col}: ")


class TestLexicalErrors:
    @pytest.mark.parametrize(
        "text,col",
        [("main = \u00b2", 8), ("main = 1\u00b2", 9), ("main = -\u00b2", 9)],
    )
    def test_non_ascii_digit_is_unexpected(self, text, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"1:{col}: unexpected character '\u00b2'"

    def test_earliest_unexpected_character_wins(self):
        with pytest.raises(ParseError, match="^1:8: unexpected character '\\?'$"):
            parse("main = ? \u00b2 ! ?")

    def test_literal_past_int_string_limit(self):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("int-string limit disabled in this interpreter")
        digits = "9" * (limit + 1)
        with pytest.raises(ParseError, match="^2:5: integer literal too long"):
            parse(f"main =\n  f {digits}")

    def test_unicode_identifiers(self):
        assert parse("main = \u00e9t\u00e9\u00b2 _x1") == Program(
            (), App("\u00e9t\u00e9\u00b2", (Var("_x1"),))
        )


_TOKEN_ALPHABET = [
    "main", "f", "x", "y2", "_z", "let", "and", "in", "case", "of", "default",
    "thunk", "0", "1", "-3", "42", "+#", "-#", "*#", "%#", "<#", "=", ";",
    "\\", "{", "}", ",", "*", "(", ")", "->", "-", "#", "--", " ", " ", "\n",
    "\t", "?", "\u00b2", "\u00e9", "9" * 5000,
]


def reference_parse(text: str) -> Program:
    """``text`` parsed by the recursive descent in ``reference.py``, on the
    lexer's tokens and with the parser's error positions."""
    p = syntax._Parser(text)
    return ReferenceParser(p.toks, p.idents, p.ints, p.fail).program()


def parsed(parse_text, text: str) -> Program | str:
    """The program ``parse_text`` makes of ``text``, or its error's text."""
    try:
        return parse_text(text)
    except ParseError as err:
        return f"ParseError: {err}"


def _parses_or_raises_parse_error(text: str) -> None:
    try:
        p = parse(text)
    except ParseError as err:
        assert err.line >= 1 and err.col >= 1
        assert str(err).startswith(f"{err.line}:{err.col}: ")
    else:
        assert isinstance(p, Program)
        assert parse(print_program(p)) == p
    assert parsed(parse, text) == parsed(reference_parse, text)


_PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@_PROPERTY
@given(st.text())
def test_any_text_parses_or_raises_parse_error(text):
    _parses_or_raises_parse_error(text)


@_PROPERTY
@given(
    st.sampled_from(["", "main = "]),
    st.lists(st.sampled_from(_TOKEN_ALPHABET), max_size=40),
)
def test_token_soup_parses_or_raises_parse_error(prefix, tokens):
    _parses_or_raises_parse_error(prefix + "".join(tokens))


# What a token edit may insert: every symbol and keyword, and atoms.
_EDIT_TOKENS = sorted(syntax._SYMBOLS - {""}) + ["x", "main", "0", "1", "-3"]


def token_mutations(texts: list[str], n: int, seed: int) -> list[str]:
    """``n`` texts, each one of ``texts`` after one or two token edits: a
    token deleted, a token inserted before one, a token swapped with the
    next, or the text cut before a token."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 2)):
            spans = [m.span(1) for m in syntax._TOKEN.finditer(text)][:-1]
            if not spans:
                break
            i = rng.randrange(len(spans))
            a, b = spans[i]
            edit = rng.randrange(4)
            if edit == 0:
                text = text[:a] + text[b:]
            elif edit == 1:
                text = f"{text[:a]} {rng.choice(_EDIT_TOKENS)} {text[a:]}"
            elif edit == 2 and i + 1 < len(spans):
                c, d = spans[i + 1]
                text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
            else:
                text = text[:a]
        out.append(text)
    return out


def test_parser_matches_the_recursive_reference(corpus):
    # Every text, valid or not, must give what the recursive descent the
    # parser replaced gives: an equal program or the same error text.
    texts = [print_program(p) for p in corpus]
    texts += [f.read_text(encoding="utf-8") for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    outcomes = Counter()
    for text in texts + token_mutations(texts, 6_000, seed=20250810):
        got = parsed(parse, text)
        assert got == parsed(reference_parse, text), text
        outcomes[type(got) is str] += 1
    assert outcomes[False] > len(texts) + 500 and outcomes[True] > 3_000


def test_parse_needs_no_stack_of_its_own():
    # A let 500 deep in its bindings' bodies, parsed 200 frames down at the
    # default limit: the recursive descent took a few frames per level.
    text = "main = " + "".join(f"let x{k} = thunk " for k in range(500)) + "0"
    text += "".join(f" in x{k}" for k in reversed(range(500)))
    e = AtomExpr(Lit(0))
    for k in reversed(range(500)):
        e = Let(BindGroup(((f"x{k}", Thunk(e)),)), AtomExpr(Var(f"x{k}")))

    def down(n: int) -> Program:
        return parse(text) if n == 0 else down(n - 1)

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        p = down(200)
    finally:
        sys.setrecursionlimit(old)
    assert p == Program((), e)


class TestPrint:
    def test_literal_main(self):
        assert print_program(Program((), AtomExpr(Lit(42)))) == "main = 42\n"

    def test_nested_lets_golden(self):
        src = (
            "main = let a = thunk 10 in let b = \\ z -> "
            "case z of { 0 -> a; default z0 -> +# z0 a } in b 5"
        )
        expected = (
            "main =\n"
            "  let a = thunk 10\n"
            "  in\n"
            "  let b = \\ z ->\n"
            "      case z of {\n"
            "        0 -> a;\n"
            "        default z0 -> +# z0 a\n"
            "      }\n"
            "  in b 5\n"
        )
        assert print_program(parse(src)) == expected

    def test_roundtrip_hand_programs(self, hand_programs):
        for name, p in hand_programs.items():
            assert parse(print_program(p)) == p, name

    def test_roundtrip_generated(self, corpus, hand_programs):
        lifted_hand = [lift_program(p)[0] for p in hand_programs.values()]
        for p in corpus + [lift_program(p)[0] for p in corpus] + lifted_hand:
            assert parse(print_program(p)) == p

    def test_nonstandard_cardinality_survives(self):
        src = "main = let f = \\{1,1} u -> u in f 3"
        p = parse(src)
        assert parse(print_program(p)) == p
        assert "{1,1}" in print_program(p)


REPR_DIGEST = "8d4fcedeb844f6fe7feecced91e4da3a5eb0ce21c2829ac224aae935df1f1f89"


def _deep(n: int, leaf: int) -> Program:
    """Built from constructors, so that no parse is tested here: step k
    binds ``t{k} = thunk k`` and scrutinises ``t{k}``, whose default
    branch holds step k + 1, so the program nests 2n let and case levels."""
    e = AtomExpr(Lit(leaf))
    for k in range(n, 0, -1):
        case = Case(AtomExpr(Var(f"t{k}")), ((k, App("f", (Var(f"t{k}"),))),), (f"d{k}", e))
        e = Let(BindGroup(((f"t{k}", Thunk(AtomExpr(Lit(k)))),)), case)
    f = Lambda(MULTI_SHOT, ("a",), PrimApp("+#", (Var("a"), Lit(1))))
    return Program((TopBind("f", ("x",), Let(BindGroup((("g", f),)), App("g", (Var("x"),)))),), e)


class TestStructuralEquality:
    def test_deep_programs_compare_and_hash_without_recursion(self):
        p, twin, other = _deep(3000, 1), _deep(3000, 1), _deep(3000, 2)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            seen = (p == twin, twin == p, p != twin, hash(p) == hash(twin), p == other, p != other)
        finally:
            sys.setrecursionlimit(old)
        assert p is not twin
        assert seen == (True, True, False, True, False, True)

    def test_deep_program_prints_without_recursion(self):
        # pytest prints both sides of a failing ``==``.
        p = _deep(3000, 1)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            text = repr(p)
        finally:
            sys.setrecursionlimit(old)
        step = (
            "Let(group=BindGroup(binds=(('t{k}', Thunk(body=AtomExpr(atom=Lit(value={k})))),)), "
            "body=Case(scrutinee=AtomExpr(atom=Var(name='t{k}')), "
            "alts=(({k}, App(head='f', args=(Var(name='t{k}'),))),), default=('d{k}', "
        )
        top = (
            "Program(top_binds=(TopBind(name='f', params=('x',), body=Let(group=BindGroup("
            "binds=(('g', Lambda(card=Cardinality(min_entries=0, max_entries=inf), "
            "params=('a',), body=PrimApp(op='+#', args=(Var(name='a'), Lit(value=1))))),)), "
            "body=App(head='g', args=(Var(name='x'),)))),), main="
        )
        steps = "".join(step.format(k=k) for k in range(1, 3001))
        assert text == top + steps + "AtomExpr(atom=Lit(value=1))" + ")))" * 3000 + ")"

    def test_repr_is_the_generated_text(self, hand_programs):
        # sha256 of repr of every programs/*.stg and its lift output, taken
        # with the dataclass-generated repr.
        h = hashlib.sha256()
        for p in hand_programs.values():
            for q in (p, lift_program(p)[0]):
                h.update(repr(q).encode())
        assert h.hexdigest() == REPR_DIGEST
        assert repr(Case(AtomExpr(Lit(1)), (), ("d", App("f", ())))) == (
            "Case(scrutinee=AtomExpr(atom=Lit(value=1)), alts=(), "
            "default=('d', App(head='f', args=())))"
        )

    def test_fields_in_order_and_exact(self):
        # Each pair differs in one field, or in a node's type.
        e = PrimApp("+#", (Var("a"), Lit(1)))
        pairs = [
            (App("f", (Var("x"),)), App("f", (Var("y"),))),
            (App("f", (Var("x"),)), App("f", (Var("x"), Lit(1)))),
            (Lambda(MULTI_SHOT, ("a",), e), Lambda(Cardinality(0, 1), ("a",), e)),
            (Lambda(MULTI_SHOT, ("a",), e), Thunk(e)),
            (Case(e, ((1, e),), ("d", e)), Case(e, ((2, e),), ("d", e))),
            (Case(e, (), ("d", e)), Case(e, (), ("c", e))),
            (AtomExpr(Var("a")), Var("a")),
        ]
        for a, b in pairs:
            assert a != b and not a == b and b != a
            assert a == type(a)(*[getattr(a, f) for f in a.__dataclass_fields__])
        assert {parse("main = let t = thunk 1 in t"): 1}[parse("main = let t = thunk 1 in t")] == 1


class TestValidate:
    def test_hand_programs_clean(self, hand_programs):
        for name, p in hand_programs.items():
            assert validate(p) == [], name

    def test_generated_corpus_clean(self, corpus):
        for p in corpus[:200]:
            assert validate(p) == []

    def test_duplicate_binder(self):
        p = parse("main = let x = thunk 1 in let x = thunk 2 in x")
        tags = [v.tag for v in validate(p)]
        assert "NonUniqueName" in tags

    def test_non_atomic_argument(self):
        bad = Program((), App("g", (App("f", (Lit(1),)),)))
        tags = [v.tag for v in validate(bad)]
        assert "NonAtomicArg" in tags

    def test_zero_param_lambda(self):
        from liftlab.syntax import BindGroup

        lam = Lambda(MULTI_SHOT, (), AtomExpr(Lit(1)))
        bad = Program(
            (), Let(BindGroup((("f", lam),)), AtomExpr(Var("f")))
        )
        tags = [v.tag for v in validate(bad)]
        assert "ZeroParamLambda" in tags

    def test_unsaturated_primop(self):
        bad = Program((), PrimApp("##", (Lit(1), Lit(2))))
        assert [v.tag for v in validate(bad)] == ["UnsaturatedPrimop"]

    def test_unbound_variable(self):
        p = parse("main = g 5 x f")
        tags = {v.tag for v in validate(p)}
        assert tags == {"UnboundVariable"}


class TestFreshen:
    def test_unique_program_unchanged(self, hand_programs):
        for name, p in hand_programs.items():
            assert freshen(p) == p, name

    def test_second_binder_suffixed(self):
        p = freshen(parse("main = let x = thunk 1 in let x = thunk 2 in x"))
        outer = p.main
        inner = outer.body
        assert outer.group.binds[0][0] == "x"
        assert inner.group.binds[0][0] == "x_1"
        assert inner.body == AtomExpr(Var("x_1"))

    def test_shadowing_param_renamed_free_use_kept(self):
        src = "f y = case y of { default d -> let y = thunk (+# d 1) in y }; main = f 3"
        p = freshen(parse(src))
        body = p.top_binds[0].body
        assert body.scrutinee == AtomExpr(Var("y"))
        let = body.default[1]
        assert let.group.binds[0][0] == "y_1"
        assert validate(p) == []

    def test_idempotent(self, corpus):
        for p in corpus[:100]:
            assert freshen(p) == p

    def test_scope_error(self):
        with pytest.raises(ScopeError):
            freshen(parse("main = g 5 x f"))

    def test_name_bound_twice_in_one_group(self):
        p = parse("main = let f = \\ x -> x and f = \\ y -> y in f 1")
        with pytest.raises(ScopeError, match="'f' is bound twice in one group"):
            freshen(p)

    def test_name_bound_twice_at_top_level(self):
        with pytest.raises(ScopeError, match="^top f: 'f' is bound twice in one group$"):
            freshen(parse("f = 1; f = 2; main = f"))

    def test_unbound_variable_reported_before_twice_bound_name(self):
        with pytest.raises(ScopeError, match="^unbound variable 'g'$"):
            freshen(parse("f = 1; f = 2; main = g"))

    def test_repeated_parameter_renamed(self):
        p = freshen(parse("f x x = x;\nmain = f 1 2"))
        assert p.top_binds[0].params == ("x", "x_1")
        assert p.top_binds[0].body == AtomExpr(Var("x_1"))
        assert validate(p) == []

    def test_unchanged_subtrees_shared(self):
        p = parse("main = let x = thunk 1 in case x of { default y -> let x = thunk 2 in x }")
        q = freshen(p)
        assert q.main.group.binds[0][1] is p.main.group.binds[0][1]
        assert q.main.body.scrutinee is p.main.body.scrutinee
        assert q.main.body.default[1].body == AtomExpr(Var("x_1"))
        assert freshen(q) is q

    def test_shadowed_binder_is_not_a_recursive_reference(self):
        # The inner ``f`` shadows the outer one, so the outer group's
        # right-hand side does not refer to itself, and freshen renames the
        # inner binder without making it do so.
        p = parse("main = let f = \\ a -> let f = \\ b -> b in f a in f 1")
        q = freshen(p)
        assert q.main.group.binds[0][1].body.group.binders() == ("f_1",)
        assert not recursive(p.main.group) and not recursive(q.main.group)
        assert parse(print_program(q)) == q


class _CountingSet(set):
    """A set that counts its membership probes."""

    probes = 0

    def __contains__(self, name):
        self.probes += 1
        return super().__contains__(name)


class TestFreshNames:
    def test_picks_resume_after_the_last_suffix(self):
        used, last = _CountingSet({"y"}), {}
        for k in range(1, 301):
            assert _fresh("y", used, last) == f"y_{k}"
            used.add(f"y_{k}")
        assert used.probes <= 2 * 300

    def test_resumed_picks_match_probing_from_one(self):
        # Names taken in between, under the same base or another, are
        # skipped exactly as a probe from ``base_1`` would skip them.
        rng = random.Random(7)
        used, last = {"y", "y_3", "y_4", "y_1_1"}, {}
        for _ in range(200):
            base = rng.choice(["y", "y_1", "z"])
            if rng.random() < 0.3:
                used.add(f"{base}_{rng.randint(1, 60)}")
            expected, k = base, 0
            while expected in used:
                k += 1
                expected = f"{base}_{k}"
            assert _fresh(base, used, last) == expected
            used.add(expected)

    def test_freshen_numbers_many_rebindings_in_order(self):
        lets = "".join(f"let x = thunk {k} in\n" for k in range(300))
        p = freshen(parse(f"main =\n{lets}x\n"))
        names = [n for e in preorder(p) if isinstance(e, Let) for n in e.group.binders()]
        assert names == ["x"] + [f"x_{k}" for k in range(1, 300)]


def _binds_twice_at_one_site(p: Program) -> bool:
    sites = [[tb.name for tb in p.top_binds]]
    sites += [e.group.binders() for e in preorder(p) if isinstance(e, Let)]
    return any(len(set(names)) < len(names) for names in sites)


def _nested_ladder(seed: int) -> list[str]:
    """The benchmark's nested depth/width/rqs ladder, from its frozen
    input generator."""
    path = PROGRAMS_DIR.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [text for _, text in inputs.nested_texts(seed)]


# sha256 over, per text that parses and binds no name twice at one site,
# ``repr(validate(p))`` and ``print_program(freshen(p))`` or the
# ScopeError message, and over the ParseError message of every text that
# does not parse.  Texts: the printed acceptance corpus, programs/*.stg,
# the seed-5 nested ladder, and 3,000 seeded renamings of those.  Recorded
# with the two separate walkers that preceded the shared scope walk.
SCOPE_OUTPUT_DIGEST = "611ad12bd4ba4de72dbf92e37db18893a8a0f1d2417a40a91d7602d46e99ec32"


def test_scope_output_pinned(corpus):
    texts = [print_program(p) for p in corpus]
    texts += [f.read_text() for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    texts += _nested_ladder(5)
    texts += renamings(texts, 3000, 8)
    h = hashlib.sha256()
    outcomes = {"parse": 0, "scope": 0, "renamed": 0, "violations": 0}
    for text in texts:
        try:
            p = parse(text)
        except ParseError as exc:
            outcomes["parse"] += 1
            h.update(f"{exc}\n".encode())
            continue
        if _binds_twice_at_one_site(p):
            continue
        violations = validate(p)
        outcomes["violations"] += bool(violations)
        h.update(repr(violations).encode())
        try:
            q = freshen(p)
        except ScopeError as exc:
            outcomes["scope"] += 1
            h.update(f"{exc}\n".encode())
            continue
        outcomes["renamed"] += bound_names(q) != bound_names(p)
        h.update(print_program(q).encode())
    # Every kind of outcome is exercised, shadowing most of all.
    assert min(outcomes.values()) > 0, outcomes
    assert h.hexdigest() == SCOPE_OUTPUT_DIGEST


# Programs over a three-name pool, so shadowing, unbound names and names
# bound twice at one site are all common.
_NAMES = st.sampled_from(["a", "b", "c"])
_ATOMS = st.one_of(_NAMES.map(Var), st.integers(0, 2).map(Lit))
_LEAVES = st.one_of(
    _ATOMS.map(AtomExpr),
    st.builds(App, _NAMES, st.lists(_ATOMS, min_size=1, max_size=2).map(tuple)),
    st.builds(lambda x, y: PrimApp("+#", (x, y)), _ATOMS, _ATOMS),
)


def _compound(inner):
    params = st.lists(_NAMES, min_size=1, max_size=2).map(tuple)
    rhs = st.one_of(st.builds(Lambda, st.just(MULTI_SHOT), params, inner), inner.map(Thunk))
    binds = st.lists(st.tuples(_NAMES, rhs), min_size=1, max_size=3).map(tuple)
    alts = st.lists(st.tuples(st.integers(0, 2), inner), max_size=2).map(tuple)
    return st.one_of(
        st.builds(lambda bs, body: Let(BindGroup(bs), body), binds, inner),
        st.builds(lambda s, alts, d: Case(s, alts, d), inner, alts, st.tuples(_NAMES, inner)),
    )


_EXPRS = st.recursive(_LEAVES, _compound, max_leaves=12)
_TOPS = st.lists(
    st.builds(TopBind, _NAMES, st.lists(_NAMES, max_size=2).map(tuple), _EXPRS), max_size=2
)


@_PROPERTY
@given(_TOPS, _EXPRS)
def test_freshen_output_validates_and_is_a_fixed_point(tops, main):
    try:
        q = freshen(Program(tuple(tops), main))
    except ScopeError:
        return
    assert validate(q) == []
    assert freshen(q) == q
    assert parse(print_program(q)) == q
