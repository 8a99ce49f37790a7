"""Front end and reference semantics of jem."""
import dataclasses
import random

import pytest

from jemaim.jem import ast
from jemaim.jem.compat import EMPTY, compat, plug
from jemaim.jem.interp import OPERANDS, RULES, JemConfig, NotWhole, RunResult, run
from jemaim.jem.parser import JemSyntaxError, parse_component
from jemaim.jem.printer import render_component
from jemaim.jem.typecheck import typecheck

from corpus import WHOLE_PROGRAMS, main_prog


def parse_ok(src):
    comp = parse_component(src)
    errs = typecheck(comp)
    assert errs == [], errs
    return comp


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


class TestTypecheck:
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


def count_steps(monkeypatch) -> list:
    """Record every JemConfig.step call from here on."""
    calls = []
    step = JemConfig.step

    def counted(cfg):
        calls.append(1)
        return step(cfg)

    monkeypatch.setattr(JemConfig, "step", counted)
    return calls


LOOP = """
class main {{
  main(){{}}
  {methods}
  public main() : main()->Int {{ return {call}; }}
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
    def test_self_call_loop_stops_stepping(self, monkeypatch):
        """Fails at a parent without the rule: the run steps 10**6 times."""
        prog = parse_ok(WHOLE_PROGRAMS["diverge-spin"])
        calls = count_steps(monkeypatch)
        r = run(prog, fuel=10**6)
        assert (r.kind, r.value, r.steps, repr(r)) == ("fuel", None, 10**6, "OutOfFuel")
        assert len(calls) <= 10

    def test_fuel_spent_before_the_loop_is_reached(self):
        """Passes without the rule too: runs stopped before the loop is entered."""
        prog = parse_ok(WHOLE_PROGRAMS["diverge-spin"])
        for fuel in range(1, 12):
            assert run(prog, fuel=fuel) == RunResult("fuel", None, fuel)

    @pytest.mark.parametrize("name", sorted(NEAR_MISS_LOOPS))
    def test_near_misses_step_to_the_end_of_their_fuel(self, name, monkeypatch):
        """Passes without the rule too, by construction: these must not take it."""
        methods, call = NEAR_MISS_LOOPS[name]
        prog = parse_ok(LOOP.format(methods=methods, call=call))
        calls = count_steps(monkeypatch)
        assert run(prog, fuel=5_000) == RunResult("fuel", None, 5_000)
        assert len(calls) == 5_000


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
