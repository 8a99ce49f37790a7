"""Front end and reference semantics of jem."""
import dataclasses
import random
import string

import pytest

from jemaim.jem import ast
from jemaim.jem.compat import EMPTY, compat, plug
from jemaim.jem.interp import DEFAULT_FUEL, OPERANDS, RULES, JemConfig, NotWhole, RunResult, run, run_config
from jemaim.jem.ast import Pos
from jemaim.jem.parser import PUNCT, JemSyntaxError, Token, lex, parse_component
from jemaim.jem.printer import render_component
from jemaim.jem.typecheck import typecheck

from corpus import COMPONENTS, INEQUIVALENT_PAIRS, WHOLE_PROGRAMS, main_prog


def parse_ok(src):
    comp = parse_component(src)
    errs = typecheck(comp)
    assert errs == [], errs
    return comp


# well-typed programs without the entry point `main.main()` that a linked
# image needs (`compat.entry`): `run` refuses each before it steps
NO_ENTRY = {
    "no-main-object": """
class c {
  c(){}
  public m() : c()->Int { return 1; }
};
object o : c { };
""",
    "no-main-method": """
class c {
  c(){}
  public m() : c()->Int { return 1; }
};
object main : c { };
""",
    "main-takes-a-parameter": """
class main {
  main(){}
  public main(x) : main(Int)->Int { return 1; }
};
object main : main { };
""",
}

MAIN_RETURN_0 = """
class main {
  main(){}
  public main() : main()->Int { return 0; }
};
object main : main { };
"""


class TestParser:
    def test_minimal_class(self):
        comp = parse_component("class c { c(){} public m() : c()->Int { return 0; } };")
        assert [c.name for c in comp.classes] == ["c"]
        assert comp.classes[0].methods[0].sig.ret == ast.T_INT

    def test_empty_input_is_empty_component(self):
        assert parse_component("").classes == []

    def test_unbalanced_input_is_syntax_error(self):
        with pytest.raises(JemSyntaxError):
            parse_component("class c { class c")

    def test_error_carries_line_and_column(self):
        with pytest.raises(JemSyntaxError) as e:
            parse_component("class c {\n  ?\n};")
        assert "2:" in str(e.value)

    def test_imports_objects_fields(self):
        comp = parse_ok(
            """
            class-decl i { f : i(Int)->Bool };
            obj-decl io : i;
            class c {
              c(x:Int){ this.x = x; }
              x : Int;
              public get() : c()->Int { return this.x; }
              public probe(b) : c(Int)->Bool { return io.f(b); }
            };
            object oc : c { x = 3; };
            """
        )
        c = comp.classes[0]
        assert [ic.name for ic in c.import_classes] == ["i"]
        assert [io.name for io in c.import_objects] == ["io"]
        assert c.field_types == {"x": ast.T_INT}
        assert c.objects[0].fields == {"x": 3}

    def test_sequence_and_if_parse(self):
        comp = parse_ok(
            """
            class main {
              main(){}
              public main() : main()->Int {
                return var x : Int = 4;
                       if (x < 5) { x + 1 } else { x - 1 };
              }
            };
            object main : main { };
            """
        )
        body = comp.classes[0].methods[0].body
        assert isinstance(body, ast.Seq)

    def test_hyphenated_identifiers(self):
        comp = parse_ok(
            """
            class listof-c {
              listof-c(){}
              public get-by-name(n) : listof-c(Int)->Int { return n; }
            };
            """
        )
        assert comp.classes[0].name == "listof-c"



def reference_lex(src: str) -> list[Token]:
    """The hand-written lexer that `lex` replaced, kept as the reference that
    `TestLexer` compares it with."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        pos = Pos(line, col)
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_-"):
                j += 1
            # identifiers may contain '-' (class-decl, listof-t ...) but not end with it
            while src[j - 1] == "-":
                j -= 1
            toks.append(Token("ident", src[i:j], pos))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                toks.append(Token("punct", p, pos))
                i += len(p)
                col += len(p)
                break
        else:
            raise JemSyntaxError(pos, f"unexpected character {c!r}")
    toks.append(Token("eof", "", Pos(line, col)))
    return toks


def lexed(lexer, src):
    """`lexer`'s tokens as (kind, text, line, col) tuples, or its error message."""
    try:
        return [(t.kind, t.text, t.pos.line, t.pos.col) for t in lexer(src)]
    except JemSyntaxError as e:
        return str(e)


def expected_lex(src):
    """`lexed(lex, src)` as the reference gives it, with the two intended
    differences: an int-looking character that `int()` rejects is an
    unexpected character, and the end-of-input column counts a comment on the
    last line."""
    out = lexed(reference_lex, src)
    if isinstance(out, str):
        # the reference's tokens before its error, which starts at the offset its position gives
        line, col = map(int, out.split(":", 2)[:2])
        starts = [0] + [i + 1 for i, c in enumerate(src) if c == "\n"]
        toks = lexed(reference_lex, src[: starts[line - 1] + col - 1])[:-1]
    else:
        toks = out
    for kind, text, line, col in toks:
        if kind == "int" and not text.isdecimal():
            k = next(k for k, c in enumerate(text) if not c.isdecimal())
            return f"{line}:{col + k}: unexpected character {text[k]!r}"
    if isinstance(out, str):
        return out
    kind, text, line, _ = out[-1]
    return out[:-1] + [(kind, text, line, len(src) - src.rfind("\n"))]


# the 52 sources of the corpus: whole programs, components and both sides of each pair
CORPUS_SOURCES = [
    *WHOLE_PROGRAMS.values(),
    *COMPONENTS.values(),
    *(src for pair in INEQUIVALENT_PAIRS.values() for src in pair),
]

# pieces of random lexer inputs: the characters of each token class, `//`, and,
# less often, characters no class takes or that only the reference took (`²`)
LEX_PIECES = [
    *string.ascii_letters, *string.digits * 3, *"_-" * 4, *"".join(PUNCT) * 2, *["//"] * 4, *" \t\r\n" * 3,
    *"/\x0c\xa0$#éß٣½²",
]


class TestLexer:
    def test_corpus_lexes_as_the_reference(self):
        assert len(CORPUS_SOURCES) == 52
        for src in CORPUS_SOURCES:
            assert lexed(lex, src) == lexed(reference_lex, src) == expected_lex(src)

    def test_cut_and_damaged_corpus_lexes_as_the_reference(self):
        rng = random.Random(26)
        for src in CORPUS_SOURCES:
            cuts = [src[: i + 1] for i, c in enumerate(src) if c == "\n"]
            damaged = [src[:i] + src[i + 1 :] for i in rng.sample(range(len(src)), 20)]
            for s in cuts + damaged:
                assert lexed(lex, s) == expected_lex(s), s

    def test_random_strings_lex_as_the_reference(self):
        rng = random.Random(7)
        differ = set()
        for _ in range(3_000):
            s = "".join(rng.choices(LEX_PIECES, k=rng.randrange(40)))
            want = expected_lex(s)
            assert lexed(lex, s) == want, s
            if want != lexed(reference_lex, s):
                differ.add("unexpected character" if isinstance(want, str) else "end-of-input column")
        assert differ == {"unexpected character", "end-of-input column"}  # both intended differences occur

    def test_an_int_that_int_cannot_read_is_an_unexpected_character(self):
        with pytest.raises(JemSyntaxError) as e:
            lex("class main {\n  main(){}\n  public main() : main()->Int { return 1 + ²; }\n};")
        assert str(e.value) == "3:44: unexpected character '²'"
        with pytest.raises(JemSyntaxError) as e:
            lex("x = 12²3;")
        assert str(e.value) == "1:7: unexpected character '²'"

    def test_end_of_input_column_counts_a_trailing_comment(self):
        src = "class c {\n  c(){}\n  public get() : c()->Int { return 1; } // tail"
        assert len(src.split("\n")[-1]) == 47
        assert lex(src)[-1].pos == Pos(3, 48)
        with pytest.raises(JemSyntaxError) as e:
            parse_component(src)
        assert str(e.value) == "3:48: expected '}', found ''"


def same_ast(a, b) -> bool:
    """Structural equality that ignores source positions, walked without recursion."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if dataclasses.is_dataclass(x):
            todo += [(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x) if f.name != "pos"]
        elif isinstance(x, dict):
            if list(x) != list(y):
                return False
            todo += [(x[k], y[k]) for k in x]
        elif isinstance(x, (list, tuple)):
            if len(x) != len(y):
                return False
            todo += zip(x, y)
        elif x != y:
            return False
    return True


class TestPrinter:
    def test_long_binop_spine_round_trips(self):
        """1 000 left-nested `+` terms print as one parenthesised chain and parse back."""
        comp = parse_ok(main_prog(" + ".join(["1"] * 1000)))
        text = render_component(comp)
        assert "return (" + " + ".join(["1"] * 1000) + ");" in text
        assert same_ast(parse_component(text), comp)

    @pytest.mark.parametrize(
        "body, printed",
        [
            ("1 - 2 + 3", "(1 - 2 + 3)"),
            ("1 + (2 + 3)", "(1 + (2 + 3))"),
            ("(1 + 2 < 4) == true && false", "(((1 + 2) < 4 == true) && false)"),
            ("((true && true) == true) && true", "(((true && true) == true) && true)"),
            ("1 < 2 == (3 < 4)", "(1 < 2 == (3 < 4))"),
        ],
    )
    def test_levels_and_round_trip(self, body, printed):
        """A left operand at its parent's level loses its parentheses; others keep them."""
        comp = parse_component(main_prog(body))
        text = render_component(comp)
        assert f"return {printed};" in text
        assert same_ast(parse_component(text), comp)


# one minimal ill-typed component per checker diagnostic, and its first
# diagnostic; M is a class c whose one method m has return type t and body b
M = "class c {{ c(){{}} public m() : c()->{t} {{ return {b}; }} }};"
DIAGNOSTICS = {
    "unbound-variable": (M.format(t="Int", b="y"), "1:48: unbound variable 'y'"),
    "no-field-read": (M.format(t="Int", b="this.y"), "1:52: class 'c' has no field 'y'"),
    "no-field-write": (M.format(t="Unit", b="this.y = 1"), "1:53: class 'c' has no field 'y'"),
    "field-write-type": (
        "class c { c(f:Int){} f : Int; public m() : c()->Unit { return this.f = true; } };",
        "1:67: field 'f' has type Int, got Bool",
    ),
    "private-write": (
        "class a { a(x:Int){} x : Int; }; class b { b(){} public m(v) : b(a)->Unit { return v.x = 1; } };",
        "1:85: fields are private: cannot write 'x' through type a",
    ),
    "call-arity": (
        "class c { c(){} public f(x) : c(Int)->Int { return x; } public m() : c()->Int { return this.f(); } };",
        "1:92: 'f' takes 1 arguments, got 0",
    ),
    "call-on-int": (M.format(t="Int", b="var x : Int = 1; x.m()"), "1:66: cannot call 'm' on a value of type Int"),
    "if-condition": (M.format(t="Int", b="if (0) { 1 } else { 2 }"), "1:48: if condition must be Bool, got Int"),
    "plus-operands": (M.format(t="Int", b="1 + true"), "1:50: + expects Int operands, got Int and Bool"),
    "less-operands": (M.format(t="Bool", b="true < 1"), "1:54: < expects Int operands, got Bool and Int"),
    "and-operands": (M.format(t="Bool", b="1 && true"), "1:51: && expects Bool operands, got Int and Bool"),
    "new-undefined": (M.format(t="Int", b="new d()"), "1:48: cannot construct undefined class 'd'"),
    "ctor-argument": (
        "class c { c(f:Int){} f : Int; public m() : c()->c { return new c(true); } };",
        "1:60: constructor argument 1 has type Bool, expected Int",
    ),
    "instanceof-value": (M.format(t="Bool", b="instanceof(1 : c)"), "1:49: instanceof expects an object, got Int"),
    "instanceof-class": (M.format(t="Bool", b="instanceof(this : d)"), "1:49: unknown class 'd'"),
    "var-init": (M.format(t="Int", b="var x : Int = true; 1"), "1:48: var 'x' declared Int but initialised with Bool"),
    "unknown-class": ("class c { c(){} public m(x) : c(d)->Int { return 1; } };", "1:17: unknown class 'd'"),
    "duplicate-method": (
        "class c { c(){} public m() : c()->Int { return 1; } public m() : c()->Int { return 2; } };",
        "1:53: duplicate method 'm' in class 'c'",
    ),
    "duplicate-parameter": (
        "class c { c(){} public m(x, x) : c(Int,Int)->Int { return x; } };",
        "1:17: duplicate parameter name in 'm'",
    ),
    "declares-receiver": (
        "class c { c(){} public m() : d()->Int { return 1; } }; class d { d(){} };",
        "1:17: method 'm' declares receiver d, expected c",
    ),
    "declaration-conflict": (
        "class-decl c { m : c()->Bool }; class c { c(){} public m() : c()->Int { return 1; } };",
        "1:12: declaration of c.m conflicts with its definition",
    ),
    "obj-decl-unknown": ("obj-decl io : i; class c { c(){} };", "1:10: object declaration 'io' names unknown class 'i'"),
    "object-class": ("class c { c(){} }; object o : d { };", "1:20: object 'o' of undefined class 'd'"),
    "object-fields": (
        "class c { c(f:Int){} f : Int; }; object o : c { };",
        "1:34: object 'o' must initialise exactly the fields of 'c'",
    ),
    "object-field-ref": (
        "class c { c(f:c){} f : c; }; object o : c { f = nowhere; };",
        "1:30: field 'f': unknown object reference",
    ),
    "object-field-type": (
        "class c { c(f:Int){} f : Int; }; object o : c { f = true; };",
        "1:34: field 'f' initialiser has type Bool, declared Int",
    ),
}


class TestTypecheck:
    @pytest.mark.parametrize("name", sorted(DIAGNOSTICS))
    def test_first_diagnostic(self, name):
        src, first = DIAGNOSTICS[name]
        assert typecheck(parse_component(src))[0] == first

    def test_duplicate_class_rejected(self):
        comp = parse_component("class c { c(){} }; class c { c(){} };")
        assert any("duplicate class" in e for e in typecheck(comp))

    def test_unit_body_ok(self):
        parse_ok("class c { c(){} public u() : c()->Unit { return unit; } };")

    def test_if_condition_must_be_bool(self):
        comp = parse_component(
            "class c { c(){} public m() : c()->Unit { return if (0) {unit} else {unit}; } };"
        )
        assert any("must be Bool" in e for e in typecheck(comp))

    def test_private_fields_not_readable_cross_class(self):
        comp = parse_component(
            """
            class a { a(){} x : Int; public g() : a()->Int { return this.x; } };
            class b { b(){} public steal(v) : b(a)->Int { return v.x; } };
            """
        )
        assert any("private" in e for e in typecheck(comp))

    def test_duplicate_object_rejected(self):
        comp = parse_component(
            "class c { c(){} }; object o : c { }; class d { d(){} }; object o : d { };"
        )
        assert any("duplicate object" in e for e in typecheck(comp))

    def test_wrong_return_type(self):
        comp = parse_component("class c { c(){} public m() : c()->Bool { return 4; } };")
        assert any("declared Bool" in e for e in typecheck(comp))

    def test_wrong_argument_type(self):
        comp = parse_component(
            """
            class c {
              c(){}
              public f(b) : c(Bool)->Unit { return unit; }
              public m() : c()->Unit { return this.f(3); }
            };
            """
        )
        assert any("expected Bool" in e for e in typecheck(comp))

    def test_declared_method_receiver_is_the_declared_class(self):
        """A call's resolved signature names its receiver's class, which the
        compiler reads to tell an internal call from an outcall."""
        comp = parse_component(
            """
            class-decl i { ping : c()->Int };
            obj-decl io : i;
            class c {
              c(){}
              public go() : c()->Int { return io.ping(); }
            };
            """
        )
        assert any("declaration of i.ping must have receiver i" in e for e in typecheck(comp))

    def test_null_subsumes_into_class_types(self):
        parse_ok(
            """
            class c {
              c(){}
              public m() : c()->c { return null; }
              public test() : c()->Bool { return this.m() == null; }
            };
            """
        )


class TestInterp:
    def test_exit_terminates_with_value(self):
        prog = parse_ok(MAIN_RETURN_0.replace("return 0;", "return exit(7);"))
        r = run(prog)
        assert r.terminated and r.value == 7

    def test_self_call_loops_out_of_fuel(self):
        prog = parse_ok(
            """
            class main {
              main(){}
              public spin() : main()->Int { return this.spin(); }
              public main() : main()->Int { return this.spin(); }
            };
            object main : main { };
            """
        )
        assert run(prog, fuel=1000).kind == "fuel"

    def test_field_mutation_and_arithmetic(self):
        prog = parse_ok(
            """
            class main {
              main(acc:Int){ this.acc = acc; }
              acc : Int;
              public bump(n) : main(Int)->Int {
                return this.acc = this.acc + n; this.acc;
              }
              public main() : main()->Int {
                return this.bump(4); this.bump(5); exit(this.acc + 1);
              }
            };
            object main : main { acc = 0; };
            """
        )
        r = run(prog)
        assert r.terminated and r.value == 10

    def test_results_print_as_jem_writes_them(self):
        prog = parse_ok(MAIN_RETURN_0.replace("main()->Int", "main()->Bool").replace("return 0;", "return 1 < 2;"))
        assert repr(run(prog)) == "Terminated(true)"
        assert repr(RunResult("terminated", False)) == "Terminated(false)"
        assert repr(RunResult("terminated", 42)) == "Terminated(42)"

    def test_subtraction_saturates_at_zero(self):
        prog = parse_ok(MAIN_RETURN_0.replace("return 0;", "return exit(3 - 5);"))
        assert run(prog).value == 0

    def test_instanceof_on_heap_object(self):
        prog = parse_ok(
            """
            class c { c(){} };
            object o : c { };
            class main {
              main(){}
              public main() : main()->Int {
                return if (instanceof(o : c)) { exit(1) ; 0 } else { exit(0) ; 0 };
              }
            };
            object main : main { };
            """
        )
        assert run(prog).value == 1

    def test_new_allocates_fresh_objects(self):
        prog = parse_ok(
            """
            class main {
              main(){}
              public mk() : main()->main { return new main(); }
              public main() : main()->Int {
                return var a : main = this.mk();
                       var b : main = this.mk();
                       if (a == b) { exit(1) ; 0 } else { exit(2) ; 0 };
              }
            };
            object main : main { };
            """
        )
        assert run(prog).value == 2

    def test_cross_class_call(self):
        prog = parse_ok(
            """
            class helper {
              helper(){}
              public twice(n) : helper(Int)->Int { return n + n; }
            };
            object h : helper { };
            class main {
              main(){}
              public main() : main()->Int { return exit(h.twice(21)); }
            };
            object main : main { };
            """
        )
        assert run(prog).value == 42

    def test_var_bindings_are_method_local(self):
        prog = parse_ok(
            """
            class main {
              main(){}
              public probe() : main()->Int { return 5; }
              public main() : main()->Int {
                return var x : Int = 1; this.probe(); exit(x);
              }
            };
            object main : main { };
            """
        )
        assert run(prog).value == 1

    def test_run_requires_whole_program(self):
        prog = parse_component(
            """
            obj-decl missing : ghost;
            class-decl ghost { g : ghost()->Int };
            class main {
              main(){}
              public main() : main()->Int { return missing.g(); }
            };
            object main : main { };
            """
        )
        with pytest.raises(NotWhole):
            run(prog)

    @pytest.mark.parametrize("name", sorted(NO_ENTRY))
    def test_run_requires_an_entry_point(self, name, monkeypatch):
        """Fails at a parent that steps these: a null error for the first two,
        `Terminated(1)` for the third, whose `main` runs with `x` unbound."""
        monkeypatch.setattr(JemConfig, "initial", None)  # nothing is stepped
        with pytest.raises(NotWhole, match="^no (object named 'main'|method main\\(\\) on the main object's class)$"):
            run(parse_ok(NO_ENTRY[name]))

    def test_run_refuses_two_main_objects(self, monkeypatch):
        """`typecheck` refuses a second object `main`; `run`, which does not
        typecheck, refuses it by the entry rule (`compat.entry`) before any step."""
        other = "class helper { helper(){} }; object main : helper { };"
        prog = parse_component(MAIN_RETURN_0 + other)
        assert typecheck(prog) == ["7:30: duplicate object 'main'"]
        monkeypatch.setattr(JemConfig, "initial", None)  # nothing is stepped
        with pytest.raises(NotWhole, match="^more than one object named 'main'$"):
            run(prog)

    def test_fuel_monotonicity(self):
        prog = parse_ok(
            """
            class main {
              main(){}
              public count(n) : main(Int)->Int {
                return if (n < 1) { 0 } else { this.count(n - 1) };
              }
              public main() : main()->Int { return this.count(20); exit(9); }
            };
            object main : main { };
            """
        )
        base = run(prog)
        assert base.terminated
        for extra in (1, 17, 1000):
            again = run(prog, fuel=base.steps + extra)
            assert again.terminated and again.value == base.value


LOOP = """
class main {{
  main(){{}}
  {methods}
  public main() : main()->Int {{ return {call}; }}
}};
object main : main {{ }};
"""


def sum_program(pending: int, n: int) -> str:
    """`main.sum(n)` leaving `pending` operands of `+` on the stack per level."""
    body = "n + this.sum(n - 1)"
    for _ in range(pending - 1):
        body = f"1 + ({body})"
    return f"""
class main {{
  main(){{}}
  public sum(n) : main(Int)->Int {{
    return if (n < 1) {{ 0 }} else {{ {body} }};
  }}
  public main() : main()->Int {{ return this.sum({n}); }}
}};
object main : main {{ }};
"""


# loops whose body is not exactly `this.<same method>()`: stepped to the end of their fuel
NEAR_MISS_LOOPS = {
    "argument": ("public m(x) : main(Int)->Int { return this.m(x); }", "this.m(1)"),
    "other-receiver": ("public m() : main()->Int { return main.m(); }", "this.m()"),
    "mutual": (
        "public a() : main()->Int { return this.b(); }\n  public b() : main()->Int { return this.a(); }",
        "this.a()",
    ),
    "sequence": ("public m() : main()->Int { return this.m(); 1; }", "this.m()"),
    "conditional": ("public m() : main()->Int { return if (true) { this.m() } else { 1 }; }", "this.m()"),
}


# (result, steps) of each whole program at fuel 100 000: a change to the
# interpreter's frames moves no step
STEP_PINS = {
    'arith-add': ('Terminated(42)', 10),
    'arith-and': ('Terminated(5)', 21),
    'arith-compare': ('Terminated(1)', 13),
    'arith-equal': ('Terminated(7)', 17),
    'arith-nested': ('Terminated(11)', 18),
    'arith-sub': ('Terminated(42)', 10),
    'arith-sub-floor': ('Terminated(0)', 10),
    'converge-conditional': ('Terminated(13)', 13),
    'cross-call': ('Terminated(42)', 16),
    'cross-chatter': ('Terminated(7)', 30),
    'cross-object-flow': ('Terminated(35)', 54),
    'diverge-conditional': ('OutOfFuel', 100000),
    'diverge-spin': ('OutOfFuel', 100000),
    'exit-early': ('Terminated(9)', 7),
    'exit-value': ('Terminated(21)', 11),
    'fields-bool': ('Terminated(3)', 18),
    'fields-counter': ('Terminated(10)', 60),
    'if-nested': ('Terminated(11)', 20),
    'instanceof-neg': ('Terminated(0)', 11),
    'instanceof-null': ('Terminated(2)', 16),
    'instanceof-pos': ('Terminated(1)', 11),
    'new-aliasing': ('Terminated(8)', 43),
    'new-fields': ('Terminated(7)', 24),
    'new-identity': ('Terminated(2)', 31),
    'recursion-sum': ('Terminated(55)', 229),
    'seq-discard': ('Terminated(4)', 12),
    'var-chain': ('Terminated(7)', 24),
}


@pytest.mark.parametrize("name", sorted(WHOLE_PROGRAMS))
def test_jem_steps_are_pinned(name):
    r = run(parse_ok(WHOLE_PROGRAMS[name]), fuel=100_000)
    assert (repr(r), r.steps) == STEP_PINS[name]


def test_step_pins_cover_the_corpus():
    assert sorted(STEP_PINS) == sorted(WHOLE_PROGRAMS)
    assert sum(steps for text, steps in STEP_PINS.values() if text != "OutOfFuel") == 729


def test_every_expression_form_has_an_evaluation_rule():
    """Each concrete expression form is a leaf or has its operands and its
    rule in the interpreter's two tables."""
    forms = {c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, ast.Expr) and c is not ast.Expr}
    leaves = {ast.Lit, ast.Var, ast.This}
    assert leaves <= forms and not leaves & set(OPERANDS)
    assert set(OPERANDS) == set(RULES) == forms - leaves


class TestProvenLoops:
    def test_self_call_loop_stops_stepping(self):
        """Fails at a parent without the rule: the run steps 10**6 times."""
        prog = parse_ok(WHOLE_PROGRAMS["diverge-spin"])
        r = run(prog, fuel=10**6)
        assert (r.kind, r.value, r.steps, repr(r)) == ("fuel", None, 10**6, "OutOfFuel")
        assert r.executed <= 10

    def test_fuel_spent_before_the_loop_is_reached(self):
        """Passes without the rule too: runs stopped before the loop is entered."""
        prog = parse_ok(WHOLE_PROGRAMS["diverge-spin"])
        for fuel in range(1, 12):
            assert run(prog, fuel=fuel) == RunResult("fuel", None, fuel)

    @pytest.mark.parametrize("name", sorted(NEAR_MISS_LOOPS))
    def test_near_misses_step_to_the_end_of_their_fuel(self, name):
        """Passes without the rule too, by construction: these must not take it."""
        methods, call = NEAR_MISS_LOOPS[name]
        prog = parse_ok(LOOP.format(methods=methods, call=call))
        r = agrees_with_plain_stepping(prog, 5_000)
        assert r == RunResult("fuel", None, 5_000) and r.executed == 5_000


class TestDeterminismProgressPreservation:
    def gen_program(self, rng: random.Random) -> ast.JemComponent:
        """A random straight-line arithmetic/conditional program; always well typed."""

        def expr(depth):
            pick = rng.random()
            if depth <= 0 or pick < 0.3:
                return str(rng.randrange(10))
            if pick < 0.5:
                return f"({expr(depth - 1)} + {expr(depth - 1)})"
            if pick < 0.7:
                return f"({expr(depth - 1)} - {expr(depth - 1)})"
            cond = f"({expr(depth - 1)} < {expr(depth - 1)})"
            return f"(if {cond} {{ {expr(depth - 1)} }} else {{ {expr(depth - 1)} }})"

        src = f"""
        class main {{
          main(){{}}
          public main() : main()->Int {{ return exit({expr(3)}); }}
        }};
        object main : main {{ }};
        """
        comp = parse_component(src)
        assert typecheck(comp) == []
        return comp

    def test_generated_programs_run_deterministically(self):
        rng = random.Random(7)
        for _ in range(40):
            prog = self.gen_program(rng)
            r1, r2 = run(prog), run(prog)
            assert r1.terminated and r2.terminated
            assert r1.value == r2.value and r1.steps == r2.steps

    def test_progress_no_stuck_states(self):
        # every intermediate configuration either steps or is terminal
        rng = random.Random(11)
        for _ in range(20):
            prog = self.gen_program(rng)
            cfg = JemConfig.initial(prog)
            for _ in range(100_000):
                before = cfg.terminal
                cfg.step()
                if before is not None:
                    break
            assert cfg.terminal is not None and cfg.terminal.kind == "terminated"


def step_plainly(cfg: JemConfig, fuel: int) -> RunResult:
    """`run_config` spelled as one `JemConfig.step()` call per step."""
    for n in range(fuel):
        cfg.step()
        if cfg.terminal is not None:
            r = cfg.terminal
            r.steps = fuel if r.kind == "fuel" else n + 1
            r.executed = n + 1
            return r
    return RunResult("fuel", None, fuel, fuel)


def agrees_with_plain_stepping(comp: ast.JemComponent, fuel: int) -> RunResult:
    """`run` of `comp`, checked against plain stepping: the same result, the
    same steps executed and the same final configuration, heap included."""
    looped, plain = JemConfig.initial(comp), JemConfig.initial(comp)
    r, p = run_config(looped, fuel), step_plainly(plain, fuel)
    assert (r.kind, r.value, r.steps, r.executed) == (p.kind, p.value, p.steps, p.executed)
    assert looped == plain
    assert run(comp, fuel) == r
    return r


FIELD_PROG = """
class main {{
  main(f:Int){{ this.f = f; }}
  f : Int;
  public main() : main()->Int {{ return {body}; }}
}};
object main : main {{ f = 1; }};
"""

# programs that end in a null error, each with its message; the first and
# last are ill typed, and run unchecked
NULL_ERRORS = {
    "unbound-name": (main_prog("y"), "unbound y"),
    "call-on-null": (main_prog("var x : main = null; x.main()"), "call of 'main' on null"),
    "field-read-on-null": (FIELD_PROG.format(body="var x : main = null; x.f"), "field access on null"),
    "field-write-on-null": (FIELD_PROG.format(body="var x : main = null; x.f = 2; 0"), "field update on null"),
    "no-such-method": (main_prog("this.nosuch()"), "no method 'nosuch' on <main>"),
}

# bodies of main and the value each gives. `1 == true` and `if (1)` are ill
# typed: jem's `==` tells a bool from an int, and only `true` takes the then
# branch. The local `main` hides the object of that name.
VALUES = {
    "and-true": ("if (true && (1 < 2)) { 1 } else { 2 }", 1),
    "and-false": ("if ((1 < 2) && false) { 1 } else { 2 }", 2),
    "eq-bools": ("if ((2 < 1) == false) { 1 } else { 2 }", 1),
    "eq-same-object": ("if (this == main) { 1 } else { 2 }", 1),
    "eq-new-object": ("var o : main = new main(); if (o == this) { 1 } else { 2 }", 2),
    "eq-bool-and-int": ("if (1 == true) { 1 } else { 2 }", 2),
    "sub": ("7 - 3", 4),
    "sub-stops-at-zero": ("3 - 7", 0),
    "add-wraps": (f"{2**64 - 1} + 3", 2),
    "if-on-an-int": ("if (1) { 1 } else { 2 }", 2),
    "local-hides-object": ("var main : Int = 3; main", 3),
}

EXIT_THREE_DEEP = """
class main {
  main(){}
  public a() : main()->Int { return 1 + this.b(); }
  public b() : main()->Int { return 2 + this.c(); }
  public c() : main()->Int { return exit(5); 0; }
  public main() : main()->Int { return this.a() + 100; }
};
object main : main { };
"""


class TestRunAgreesWithPlainStepping:
    """`run`'s loop applies the commonest rules in place; each case ends as
    one `JemConfig.step()` call per step ends, configuration for configuration."""

    @pytest.mark.parametrize("name", sorted(WHOLE_PROGRAMS))
    def test_whole_programs(self, name):
        agrees_with_plain_stepping(parse_ok(WHOLE_PROGRAMS[name]), 100_000)

    @pytest.mark.parametrize("pending", [1, 4, 7])
    @pytest.mark.parametrize("levels", [20, 600, 1_700])
    def test_deep_recursion(self, pending, levels):
        r = agrees_with_plain_stepping(parse_ok(sum_program(pending, levels)), 10**6)
        assert r.value == levels * (levels + 1) // 2 + (pending - 1) * levels

    @pytest.mark.parametrize(
        "src",
        [WHOLE_PROGRAMS["cross-call"], sum_program(1, 20), WHOLE_PROGRAMS["diverge-spin"]],
        ids=["cross-call", "sum-20", "diverge-spin"],
    )
    def test_every_fuel(self, src):
        """Each fuel to one past the steps the run executes; diverge-spin's
        proven loop ends its run within 6 steps."""
        comp = parse_ok(src)
        last = run(comp, 100_000).executed
        assert last <= 439
        for fuel in range(1, last + 2):
            agrees_with_plain_stepping(comp, fuel)

    @pytest.mark.parametrize("name", sorted(NULL_ERRORS))
    def test_null_errors(self, name):
        src, message = NULL_ERRORS[name]
        r = agrees_with_plain_stepping(parse_component(src), 1_000)
        assert (r.kind, r.value) == ("nullerror", message)

    def test_exit_three_frames_deep(self):
        r = agrees_with_plain_stepping(parse_ok(EXIT_THREE_DEEP), 1_000)
        assert repr(r) == "Terminated(5)"

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_values(self, name):
        body, value = VALUES[name]
        r = agrees_with_plain_stepping(parse_component(main_prog(body)), 1_000)
        assert r.terminated and r.value == value

    def test_generated_programs(self):
        gen = TestDeterminismProgressPreservation()
        for seed, count in ((7, 40), (11, 20)):
            rng = random.Random(seed)
            for _ in range(count):
                assert agrees_with_plain_stepping(gen.gen_program(rng), DEFAULT_FUEL).terminated


class TestCompatPlug:
    CTX = """
    class-decl i { m : i()->Int };
    obj-decl impl : i;
    class main {
      main(){}
      public main() : main()->Int { return exit(impl.m()); }
    };
    object main : main { };
    """
    IMPL = """
    class i {
      i(){}
      public m() : i()->Int { return 12; }
    };
    object impl : i { };
    """

    def test_empty_components_are_compatible(self):
        assert compat(ast.JemComponent([]), ast.JemComponent([]))

    def test_satisfying_pair_is_compatible(self):
        assert compat(parse_component(self.CTX), parse_component(self.IMPL))

    def test_signature_mismatch_breaks_compat(self):
        impl = self.IMPL.replace("->Int { return 12; }", "->Bool { return true; }")
        assert not compat(parse_component(self.CTX), parse_component(impl))

    def test_plug_produces_runnable_whole_program(self):
        whole = plug(parse_component(self.CTX), parse_component(self.IMPL))
        assert whole is not EMPTY
        assert run(whole).value == 12

    def test_incompatible_pair_plugs_to_empty(self):
        impl = self.IMPL.replace("public m", "public n")
        assert plug(parse_component(self.CTX), parse_component(impl)) is EMPTY

    def test_duplicate_classes_plug_to_empty(self):
        ctx = parse_component(self.CTX)
        assert plug(ctx, parse_component(self.CTX)) is EMPTY

    def test_compat_is_symmetric(self):
        c1, c2 = parse_component(self.CTX), parse_component(self.IMPL)
        assert compat(c1, c2) == compat(c2, c1)
        assert compat(c1, c1) == compat(c1, c1)

    def test_empty_plug_runs_zero_steps(self):
        r = run(EMPTY)
        assert r.terminated and r.steps == 0


class TestPreservationConsequence:
    def test_generated_programs_terminate_at_their_declared_type(self):
        """Main is declared Int; every terminating generated run yields an Int
        (a directly observable consequence of subject reduction)."""
        gen = TestDeterminismProgressPreservation()
        rng = random.Random(23)
        for _ in range(30):
            prog = gen.gen_program(rng)
            r = run(prog)
            assert r.terminated and isinstance(r.value, int) and not isinstance(r.value, bool)
