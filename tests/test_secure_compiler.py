"""The secure compiler: encodings, module structure, sys behavior, attacks."""
import hashlib
import re
from collections import Counter

import pytest

from jemaim.aim import aimod
from jemaim.aim.isa import decode
from jemaim.aim.link import MethodSig as LinkSig
from jemaim.aim.machine import MachineState, run_state
from jemaim.aim.words import ARG_REGS, FORWARDCALL_EP, R_CALLER, R_RECV, Address, Descriptor, N_W, Nonce, Symbol, SYS_ID
from jemaim.compiler.comp import DATA_BASE, MAX_PARAMS, STATIC_BASE, CompileError, comp_class
from jemaim.compiler.encoding import ENC_OBJ, class_name_of_encoding, encode_class, encode_type, encode_value
from jemaim.compiler.pipeline import AimResult, agrees, boot_state, compaim, mylink, run_aim
from jemaim.compiler.prot import prot
from jemaim.compiler.sysmod import (
    FORWARDCALL,
    FORWARDRETURN,
    REGISTEROBJ,
    SYS_DEPTH_ADDR,
    SYS_EXIT_MARKS,
    SYS_WORDS,
    TESTOBJ,
    build_sys,
)
from jemaim.jem import ast
from jemaim.jem.interp import RunResult, run as jem_run
from jemaim.jem.parser import parse_component
from jemaim.jem.printer import render_component
from jemaim.jem.typecheck import Checker, typecheck
from jemaim.traces.engine import ComponentTracer, enumerate_traces
from jemaim.traces.actions import CallIn, CallOut, ReturnOut, Tick, call_vector, reg, vector

from corpus import COMPONENTS, INEQUIVALENT_PAIRS, WHOLE_PROGRAMS, main_prog
from test_traces import PIN_DOMAINS, PINNED_SOURCES, REGISTER_DOMAINS, REGISTER_SOURCES, TRACE_SET_PINS


def call_chain(n):
    """A program whose main calls `me()` n times in one receiver chain."""
    return f"""
class main {{
  main(){{}}
  public me() : main()->main {{ return this; }}
  public v() : main()->Int {{ return 7; }}
  public main() : main()->Int {{ return this{".me()" * n}.v(); }}
}};
object main : main {{ }};
"""


def parse_ok(src):
    comp = parse_component(src)
    assert typecheck(comp) == []
    return comp


class TestEncodings:
    def test_value_encoding_constants(self):
        assert encode_value(ast.NULL) == 0
        assert encode_value(ast.UNIT) == 1
        assert encode_value(True) == 2
        assert encode_value(False) == 3
        assert encode_value(42) == 42

    def test_type_encodings_distinct(self):
        ts = [ast.T_UNIT, ast.T_BOOL, ast.T_INT, ast.T_OBJ, "a", "b"]
        encs = [encode_type(t) for t in ts]
        assert len(set(encs)) == len(encs)

    def test_class_encoding_is_name_canonical(self):
        assert encode_class("cell") == encode_class("cell")
        assert encode_class("cell") != encode_class("cel")

    def test_class_name_decodes_class_encodings_only(self):
        for name in ("c", "cell", "listof-Obj", "Helper"):
            assert class_name_of_encoding(encode_class(name)) == name
        invalid_utf8 = encode_class("c") - ord("c") + 0xFF
        for word in (0, ENC_OBJ, Nonce("adv", 1), invalid_utf8):
            assert class_name_of_encoding(word) is None


class TestCompClass:
    def test_a_module_requires_exactly_the_methods_it_calls_out_to(self):
        comp = parse_ok(COMPONENTS["const"])
        assert prot(comp_class(comp, comp.classes[0], 2)).table.rm == []
        comp = parse_ok(WHOLE_PROGRAMS["cross-call"])
        rm = {cls.name: prot(comp_class(comp, cls, 2 + i)).table.rm for i, cls in enumerate(comp.classes)}
        assert rm["helper"] == []
        assert [sig for sig, _, _ in rm["main"]] == [LinkSig("twice", "helper", ("Int",), "Int")]

    def test_object_literal_first_word_is_class_encoding(self):
        comp = parse_ok(COMPONENTS["cell"])
        image = prot(comp_class(comp, comp.classes[0], 2))
        [(obj_off, _mask)] = list(image.masks[2].items())
        assert image.mem[Address(2, obj_off)] == encode_class("cell")

    def test_cross_class_new_is_a_compile_error(self):
        comp = parse_ok(
            """
            class a { a(){} };
            class b {
              b(){}
              public m() : b()->a { return new a(); }
            };
            """
        )
        with pytest.raises(CompileError):
            prot(comp_class(comp, comp.cls("b"), 3))

    def test_exports_sorted_lexicographically(self):
        comp = parse_ok(
            """
            class z {
              z(){}
              public beta() : z()->Int { return 1; }
              public alpha() : z()->Int { return 2; }
            };
            """
        )
        image = prot(comp_class(comp, comp.classes[0], 2))
        by_off = sorted((a.off, s.name) for s, a in image.table.em.items())
        assert [name for _, name in by_off] == ["alpha", "beta"]
        assert [off for off, _ in by_off] == [N_W, 2 * N_W]


class TestProt:
    def test_descriptor_has_one_entry_per_method_plus_return(self):
        comp = parse_ok(COMPONENTS["cell"])
        image = prot(comp_class(comp, comp.classes[0], 2))
        assert image.descs[0].n_entry == 2 + 1

    def test_exported_objects_carry_masks_not_offsets(self):
        comp = parse_ok(COMPONENTS["const"])
        image = prot(comp_class(comp, comp.classes[0], 2))
        [(key, val)] = list(image.table.eo.items())
        assert isinstance(val, Nonce)

    def test_distinct_compilations_draw_distinct_masks(self):
        comp = parse_ok(COMPONENTS["const"])
        m1 = prot(comp_class(comp, comp.classes[0], 2))
        m2 = prot(comp_class(comp, comp.classes[0], 2))
        assert list(m1.table.eo.values()) != list(m2.table.eo.values())


class TestSys:
    def test_sys_exports_four_entry_points(self):
        sys_img = build_sys()
        assert sys_img.table.em[TESTOBJ] == Address(SYS_ID, 0)
        assert sys_img.table.em[REGISTEROBJ] == Address(SYS_ID, N_W)
        assert sys_img.table.em[FORWARDCALL] == Address(SYS_ID, 2 * N_W)
        assert sys_img.table.em[FORWARDRETURN] == Address(SYS_ID, 3 * N_W)
        assert sys_img.table.rm == [] and sys_img.table.ro == []

    def test_sys_image_is_its_words_and_the_depth_word(self):
        img = build_sys()
        assert img.code == {SYS_ID: SYS_WORDS} and img.code[SYS_ID] is SYS_WORDS
        assert img.mem == {SYS_DEPTH_ADDR: 0} and SYS_DEPTH_ADDR == Address(SYS_ID, DATA_BASE)
        assert all(type(a) is Address for a in img.mem)
        assert img.descs == [Descriptor(SYS_ID, len(SYS_WORDS), 4)] and img.masks == {}

    def test_exit_marks_are_the_boundary_jumps_they_name(self):
        code = {SYS_ID: SYS_WORDS}
        assert sorted(kind for kind, _, _ in SYS_EXIT_MARKS.values()) == ["fwcall", "fwret", "regobj", "testobj"]
        for off, (_, rd, ri) in SYS_EXIT_MARKS.items():
            assert decode({}, code, SYS_ID, off, True) == ("jmp", (rd, ri))

    def test_each_sys_image_is_independent(self):
        a, b = build_sys(), build_sys()
        assert a.mem is not b.mem and a.descs is not b.descs and a.masks is not b.masks and a.code is not b.code
        assert a.table is not b.table and a.table.em is not b.table.em
        assert a.table.eo is not b.table.eo and a.table.rm is not b.table.rm and a.table.ro is not b.table.ro
        assert a.code[SYS_ID] is b.code[SYS_ID] is SYS_WORDS  # a tuple: nothing can write it
        a.code[SYS_ID] = (99,) + SYS_WORDS[1:]
        a.mem[SYS_DEPTH_ADDR] = 5
        a.descs.append(Descriptor(2, 64, 1))
        a.table.em.clear()
        a.table.rm.append((TESTOBJ, Symbol("i"), Symbol("s")))
        a.masks[SYS_ID] = {}
        c = build_sys()
        assert c.mem == b.mem and c.mem[SYS_DEPTH_ADDR] == 0 and c.code[SYS_ID][0] == SYS_WORDS[0]
        assert c.descs == b.descs == [Descriptor(SYS_ID, len(SYS_WORDS), 4)]
        assert c.table == b.table and len(c.table.em) == 4 and c.table.rm == [] and c.masks == {}

    def boot(self, extra_mem=None):
        st = boot_state(build_sys(), seed=1)
        if extra_mem:
            st.mem.update(extra_mem)
        return st

    def run_from(self, st, pc, regs, fuel=500):
        st.pc = Address(*pc)
        for r, w in regs.items():
            st.set_reg(r, w)
        return run_state(st, fuel)

    def test_forward_return_on_empty_stack_aborts(self):
        st = self.boot()
        kind, reason, st, _ = self.run_from(st, (SYS_ID, 3 * N_W), {0: 0, 6: 5})
        assert kind == "halted" and reason.startswith("abort")

    def test_forward_call_twice_in_a_row_aborts(self):
        # a protected module 2 entry point immediately re-enters forwardCall
        from jemaim.aim.isa import Assembler
        from jemaim.aim.words import Descriptor

        code = (
            Assembler().emit("movi", 3, 2)
            .emit("movi", 4, 0)
            .emit("movi", 5, 7)
            .emit("movi", 1, 2 * N_W)
            .emit("movi", 2, 1)
            .emit("jmp", 1, 2)
            .words()
        )
        st = self.boot({Address(2, i): w for i, w in enumerate(code)})
        st.descs.append(Descriptor(2, len(code) + 1, 1))
        # module 2 calls itself through sys; the second forwardCall must abort
        kind, reason, st, _ = self.run_from(
            st, (0, 900), {}, fuel=6
        )  # no unprotected code: start inside module 2 instead
        st2 = self.boot({Address(2, i): w for i, w in enumerate(code)})
        st2.descs.append(Descriptor(2, len(code) + 1, 1))
        st2.pc = Address(2, 0)
        kind, reason, st2, _ = run_state(st2, 200)
        assert kind == "halted" and reason.startswith("abort")

    def test_register_then_duplicate_register_aborts(self):
        st = self.boot()
        n = Nonce("attacker", 0)
        kind, reason, st, _ = self.run_from(
            st, (SYS_ID, N_W), {0: 0, 5: 800, 7: n, 8: encode_class("c")}
        )
        # returns to unprotected 800 which is empty memory: stuck there is fine
        assert n in st.gstore
        st.callstack.clear()
        kind, reason, st, _ = self.run_from(st, (SYS_ID, N_W), {0: 0, 5: 800, 7: n, 8: 7})
        assert kind == "halted" and reason.startswith("abort")

    def test_testobj_unknown_id_aborts(self):
        st = self.boot()
        kind, reason, st, _ = self.run_from(
            st, (SYS_ID, 0), {0: 0, 5: 800, 7: Nonce("ghost", 9), 8: encode_class("c")}
        )
        assert kind == "halted" and reason.startswith("abort")


# a class may be named Null: the type of `null` is `null`, a keyword no class
# can be named, so the two never meet
NULL_CLASS_PROG = """
class Null {
  Null(next:Null){ this.next = next; }
  next : Null;
  public none() : Null()->Null { return null; }
  public count() : Null()->Int {
    return var n : Null = this.next; if (n == null) { 1 } else { 1 + n.count() };
  }
};
object tail : Null { next = null; };
object head : Null { next = tail; };
class main {
  main(){}
  public main() : main()->Int { return if (head.none() == null) { head.count() } else { 0 }; }
};
object main : main { };
"""


# an object declared after the definition of a class other than its own: it
# belongs to the class it names, and is laid out in that class's module
MISPLACED_OBJECT_PROG = """
class helper {
  helper(v:Int){ this.v = v; }
  v : Int;
  public get() : helper()->Int { return this.v; }
};
class main {
  main(){}
  public main() : main()->Int { return ho.get() + 2; }
};
object main : main { };
object ho : helper { v = 40; };
"""


# Whole programs whose main returns no Int, each read from a field its
# static object initialises or from a literal. They stay out of corpus.py,
# whose programs the benchmark runs.
VALUE_PROG = """
class main {{
  main(u:Unit, b:Bool, n:main, me:main){{}}
  u : Unit;
  b : Bool;
  n : main;
  me : main;
  public main() : main()->{ret} {{ return {body}; }}
}};
object main : main {{ u = unit; b = false; n = null; me = main; }};
"""

# name -> (result type, main's body, the result as jem writes it)
VALUE_RESULTS = {
    "unit-literal": ("Unit", "unit", "unit"),
    "unit-field": ("Unit", "this.u", "unit"),
    "null-literal": ("main", "null", "null"),
    "null-field": ("main", "this.n", "null"),
    "true-literal": ("Bool", "true", "true"),
    "true-computed": ("Bool", "1 < 2", "true"),
    "false-literal": ("Bool", "false", "false"),
    "false-field": ("Bool", "this.b", "false"),
}


# Whole programs whose main runs one compilation path each that no corpus
# program runs, with the value both runs give. They stay out of corpus.py,
# whose programs the benchmark runs.
PATH_PROG = """
class main {{
  main(f:Int){{}}
  f : Int;
  public one() : main()->Int {{ return 1; }}
  public id(x) : main(Int)->Int {{ return x; }}
  public main() : main()->Int {{ return {body}; }}
}};
object main : main {{ f = 1; }};
"""
PATH_PROBES = {
    "seq-operand": ("(this.f = 3; 4) + this.f", 7),
    "call-result-outside-r6": ("this.id(this.one())", 1),
    "discarded-binop": ("this.one() + 2; this.f", 1),
    "copy-idiom": ("var x : Int = 5 - this.one(); x", 4),
    "discarded-field-of-this": ("this.f; 7", 7),
    "discarded-instanceof": ("instanceof(this : main); 7", 7),
}


NULL_RECEIVER_PROG = """
class main {{
  main(f:Int){{ this.f = f; }}
  f : Int;
  public main() : main()->Int {{ return var x : main = null; {body}; }}
}};
object main : main {{ f = 1; }};
"""


# jem results, each with the r6 of a halt that agrees with it, and the
# outcomes of a compiled run as (kind, reason, r6), where r6 None stands for
# the jem result's own
RELATION_JEM = {
    "Int": (RunResult("terminated", 42), 42),
    "Bool": (RunResult("terminated", True), 2),
    "unit": (RunResult("terminated", ast.UNIT), 1),
    "null": (RunResult("terminated", ast.NULL), 0),
    "object": (RunResult("terminated", ast.ObjRef("main")), Nonce("static-main-2-1", 0)),
    "OutOfFuel": (RunResult("fuel"), 0),
    "NullError": (RunResult("nullerror"), 0),
}
RELATION_AIM = {
    "halt": ("halted", "halt", None),
    "halt-other": ("halted", "halt", 7),
    "abort": ("halted", "abort:check", 0),
    "fuel": ("fuel", None, 0),
    "violation": ("violation", "bad load address", 0),
    "stuck": ("stuck", "undecodable at (2,0)", 0),
}
# an object result is compared by the halt alone; (NullError, fuel) and
# (OutOfFuel, abort) are among the pairs that disagree
AGREEING = {
    ("Int", "halt"), ("Bool", "halt"), ("unit", "halt"), ("null", "halt"), ("object", "halt"),
    ("object", "halt-other"), ("OutOfFuel", "fuel"), ("NullError", "abort"),
}


# `Obj` values that refer to an object of the running class: `==` must see
# one kind of word whether the value came through a parameter, a field set
# through one, or an outcall's result, or from `this`
OBJ_PROGS = {
    "parameter": """
class c {
  c(){}
  public same(x) : c(Obj)->Bool { return var y : Obj = this; x == y; }
};
object o : c { };
""",
    "field": """
class c {
  c(f:Obj){}
  f : Obj;
  public set(x) : c(Obj)->Unit { return this.f = x; }
  public check() : c()->Bool { return var y : Obj = this; this.f == y; }
};
object o : c { f = null; };
""",
    "outcall-result": """
class keep {
  keep(v:Obj){}
  v : Obj;
  public put(x) : keep(Obj)->Unit { return this.v = x; }
  public get() : keep()->Obj { return this.v; }
};
object k : keep { v = null; };
class c {
  c(){}
  public same() : c()->Bool { return k.put(this); var y : Obj = this; k.get() == y; }
};
object o : c { };
""",
}
OBJ_MAINS = {"parameter": "o.same(o)", "field": "o.set(o); o.check()", "outcall-result": "o.same()"}


class TestCompilerCorrectness:
    def test_agreement_relation(self):
        """agrees on hand-built results: exactly the pairs of AGREEING."""
        agreeing = {
            (j, a)
            for j, (jr, r6) in RELATION_JEM.items()
            for a, (kind, reason, value) in RELATION_AIM.items()
            if agrees(jr, AimResult(kind, reason, r6 if value is None else value, 0, None))
        }
        assert agreeing == AGREEING

    def test_class_named_null(self):
        comp = parse_ok(NULL_CLASS_PROG)
        jr = jem_run(comp, fuel=100_000)
        assert jr.kind == "terminated" and jr.value == 2
        assert agrees(jr, run_aim(compaim(comp), seed=3, fuel=300_000))

    def test_null_is_no_class_type(self):
        bad = NULL_CLASS_PROG.replace(
            "public none() : Null()->Null { return null; }",
            "public none() : Null()->Null { return null; }\n"
            "  public pick(b) : Null(Bool)->Null { return if (b) { null } else { 1 }; }",
        )
        assert typecheck(parse_component(bad)) == ["6:46: if branches have different types: null and Int"]

    @pytest.mark.parametrize("body", ["x.f", "x.f = 2; 0", "x.main()"], ids=["read", "write", "call"])
    def test_null_errors_abort(self, body):
        """A field read, a field write and a call on null: a null error in jem,
        an abort of the compiled program."""
        comp = parse_ok(NULL_RECEIVER_PROG.format(body=body))
        jr, ar = jem_run(comp, fuel=10_000), run_aim(compaim(comp), seed=3, fuel=100_000)
        assert (repr(jr), repr(ar)) == ("NullError", "Halted(r6=0) by abort")
        assert agrees(jr, ar)

    def test_object_declared_after_another_class(self):
        comp = parse_ok(MISPLACED_OBJECT_PROG)
        jr, ar = jem_run(comp), run_aim(compaim(comp), seed=3)
        assert (repr(jr), repr(ar)) == ("Terminated(42)", "Halted(r6=42)")
        assert agrees(jr, ar)

    @pytest.mark.parametrize("name", sorted(WHOLE_PROGRAMS))
    def test_source_and_compiled_agree(self, name):
        comp = parse_ok(WHOLE_PROGRAMS[name])
        jr = jem_run(comp, fuel=300_000)
        ar = run_aim(compaim(comp), seed=3, fuel=900_000)
        assert agrees(jr, ar), f"{jr!r} / {ar!r}"

    @pytest.mark.parametrize("name", sorted(VALUE_RESULTS))
    def test_non_int_results_agree(self, name):
        ret, body, printed = VALUE_RESULTS[name]
        comp = parse_ok(VALUE_PROG.format(ret=ret, body=body))
        jr = jem_run(comp)
        assert repr(jr) == f"Terminated({printed})"
        assert agrees(jr, run_aim(compaim(comp), seed=3))

    @pytest.mark.parametrize("name", sorted(PATH_PROBES))
    def test_path_probes_agree(self, name):
        body, value = PATH_PROBES[name]
        comp = parse_ok(PATH_PROG.format(body=body))
        jr = jem_run(comp)
        assert repr(jr) == f"Terminated({value})"
        assert agrees(jr, run_aim(compaim(comp), seed=3))

    @pytest.mark.parametrize("body", ["this.me", "this", "new main(unit, true, null, this)"])
    def test_object_results_terminate_on_both(self, body):
        comp = parse_ok(VALUE_PROG.format(ret="main", body=body))
        jr = jem_run(comp)
        assert jr.terminated
        assert agrees(jr, run_aim(compaim(comp), seed=3))

    @pytest.mark.parametrize("pending,n", [(1, 1400), (1, 3000), (7, 600), (7, 700), (7, 900)])
    def test_deep_recursion_agrees(self, pending, n):
        """Recursion past the depths where a fixed-size stack would give out,
        with `pending` operands of `+` left on the stack at every level."""
        body = "n + this.sum(n - 1)"
        for _ in range(pending - 1):
            body = f"1 + ({body})"
        src = WHOLE_PROGRAMS["recursion-sum"].replace("n + this.sum(n - 1)", body)
        comp = parse_ok(src.replace("this.sum(10)", f"this.sum({n})"))
        jr = jem_run(comp, fuel=100_000)
        assert jr.terminated
        assert agrees(jr, run_aim(compaim(comp), seed=3, fuel=1_000_000))

    def test_long_seq_spine(self):
        """1 100 `;`-sequenced statements: parser, typechecker, compiler and
        printer walk the spine without recursing down it."""
        body = "1; " * 1100 + "this.x"
        src = f"""
class main {{
  main(x:Int){{ this.x = x; }}
  x : Int;
  public main() : main()->Int {{ return {body}; }}
}};
object main : main {{ x = 0; }};
"""
        comp = parse_ok(src)
        text = render_component(comp)
        assert render_component(parse_component(text)) == text
        jr = jem_run(comp, fuel=100_000)
        assert jr.kind == "terminated" and jr.value == 0
        assert agrees(jr, run_aim(compaim(comp), seed=3, fuel=300_000))

    def test_long_binop_spine(self):
        """500 left-nested `+` terms: typechecker and compiler walk the left
        spine without recursing down it."""
        comp = parse_ok(main_prog(" + ".join(["1"] * 500)))
        jr, ar = jem_run(comp, fuel=100_000), run_aim(compaim(comp), seed=3, fuel=300_000)
        assert (repr(jr), repr(ar)) == ("Terminated(500)", "Halted(r6=500)")
        assert agrees(jr, ar)

    @pytest.mark.parametrize("name", sorted(OBJ_PROGS))
    def test_obj_of_the_running_class_compares_as_this(self, name):
        """Failed before the entry checks mapped such an `Obj` word to its
        internal id: jem gave Terminated(1) and aim Halted(r6=0)."""
        main = main_prog(f"if ({OBJ_MAINS[name]}) {{ 1 }} else {{ 0 }}")
        comp = parse_ok(OBJ_PROGS[name] + main)
        jr, ar = jem_run(comp), run_aim(compaim(comp), seed=3)
        assert (repr(jr), repr(ar)) == ("Terminated(1)", "Halted(r6=1)")
        assert agrees(jr, ar)

    def test_call_chain_typing_is_linear(self, monkeypatch):
        """The compiler reads each call's signature from the one typing pass
        instead of re-typing the receiver chain at every call."""
        n = 200
        src = call_chain(n)
        calls = 0
        real_expr = Checker.expr

        def counting_expr(self, *args):
            nonlocal calls
            calls += 1
            return real_expr(self, *args)

        monkeypatch.setattr(Checker, "expr", counting_expr)
        comp = parse_ok(src)
        image = compaim(comp)
        assert calls <= 4 * n
        jr = jem_run(comp, fuel=100_000)
        assert jr.kind == "terminated" and jr.value == 7
        assert agrees(jr, run_aim(image, seed=3, fuel=300_000))

    def test_compaim_checks_once(self, monkeypatch):
        """compaim's one typecheck is the only check: each class is checked
        once, and the compiler types no method body again."""
        counts = Counter()

        def counting(name):
            real = getattr(Checker, name)

            def wrapper(self, *args):
                counts[name] += 1
                return real(self, *args)

            return wrapper

        n = 200
        cross, chain = parse_ok(WHOLE_PROGRAMS["cross-call"]), parse_ok(call_chain(n))
        for name in ("check_class", "expr"):
            monkeypatch.setattr(Checker, name, counting(name))
        compaim(cross)
        assert counts["check_class"] == 2
        counts.clear()
        compaim(chain)
        assert counts["expr"] <= n + 10

    def test_two_class_component_gives_three_modules(self):
        comp = parse_ok(WHOLE_PROGRAMS["cross-call"])
        image = compaim(comp)
        assert sorted(image.module_ids()) == [1, 2, 3]

    def test_mylink_keeps_one_sys(self):
        c1 = parse_ok(COMPONENTS["const"])
        c2 = parse_ok(COMPONENTS["double"])
        linked = mylink(compaim(c1), compaim(c2, first_mid=5))
        assert sorted(linked.module_ids()) == [1, 2, 5]

    def test_static_objects_answer_testobj_right_after_linking(self):
        comp = parse_ok(COMPONENTS["const"])
        image = compaim(comp)
        st = boot_state(image, seed=0)
        [(key, mask)] = list(image.table.eo.items())
        st.pc = Address(SYS_ID, 0)
        st.set_reg(5, 800)
        st.set_reg(7, mask)
        st.set_reg(8, encode_class("c"))
        kind, reason, st, _ = run_state(st, 100)
        assert not (kind == "halted" and reason.startswith("abort"))
        assert st.reg(6) == 0  # class matches


class BoundaryScrub:
    """Checks, before every `jmp` out of a class module's protected code,
    that each register outside the calling convention holds zero. The
    convention: r0 (the jump writes the module id there), the jump's own two
    operand registers, r5 and r6; a call also passes its target in r3/r4 and
    its arguments in r7 upward."""

    def __init__(self):
        self.image = None
        self.jumps = 0

    def check(self, st):
        e = st._icache.get(st.pc) or st._decode()
        if e is None or e[1] != "jmp" or e[3] is None or st.pc.mid == SYS_ID:
            return
        rd, ri = e[4:]
        allowed = {0, rd, ri, 5, 6}
        if (st.reg(ri), st.reg(rd)) == (SYS_ID, FORWARDCALL_EP):
            table = self.image.table
            targets = {(a.mid, a.off): sig for sig, a in table.em.items()}
            targets.update({(iota, sigma): sig for sig, iota, sigma in table.rm})
            sig = targets[st.reg(3), st.reg(4)]
            allowed |= {3, 4, *range(7, 7 + len(sig.params))}
        leaked = {r: w for r, w in st.regs.items() if w != 0 and r not in allowed}
        assert not leaked, f"jmp at {st.pc} leaks {leaked}"
        self.jumps += 1


@pytest.fixture
def scrub(monkeypatch):
    checker = BoundaryScrub()
    step = MachineState.step

    def checked(self):
        checker.check(self)
        return step(self)

    monkeypatch.setattr(MachineState, "step", checked)
    return checker


def convention_prog(types: tuple, cross: bool) -> str:
    """A call of `f`, whose parameter i has type types[i], in the class itself
    or in another. Parameter i adds (i + 1) * 10**i to the result: an Int
    argument is that number, a Bool is true and an object is the callee's
    static object `o`, so 321 for three parameters says that each argument
    reached its parameter. Before the call, main makes an internal call with
    9 arguments, so registers past the call's last argument hold values when
    it is made."""
    callee = "helper" if cross else "main"
    terms, args = [], []
    for i, t in enumerate(types):
        w = (i + 1) * 10**i
        if t == "Int":
            terms.append(f"p{i}")
            args.append(str(w))
        elif t == "Bool":
            terms.append(f"(if (p{i}) {{ {w} }} else {{ 0 }})")
            args.append("true")
        else:
            terms.append(f"(if (p{i} == o) {{ {w} }} else {{ 0 }})")
            args.append("o")
    params = ", ".join(f"p{i}" for i in range(len(types)))
    ptypes = ",".join(callee if t == "Obj" else t for t in types)
    f = f"public f({params}) : {callee}({ptypes})->Int {{ return {' + '.join(terms)}; }}"
    recv = "o" if cross else "this"
    main = f"""
class main {{
  main(){{}}
  public wide(q0, q1, q2, q3, q4, q5, q6, q7, q8) : main(Int,Int,Int,Int,Int,Int,Int,Int,Int)->Int {{ return 0; }}
  {"" if cross else f}
  public main() : main()->Int {{ return this.wide(1, 2, 3, 4, 5, 6, 7, 8, 9) + {recv}.f({", ".join(args)}); }}
}};
object {"main" if cross else "o"} : main {{ }};
"""
    if not cross:
        return main + "object main : main { };\n"
    return f"class helper {{\n  helper(){{}}\n  {f}\n}};\nobject o : helper {{ }};\n" + main


class TestCallingConvention:
    """Calls with 1 to MAX_PARAMS parameters agree between jem and aim, and
    leave nothing at a boundary."""

    @pytest.mark.parametrize("cross", [False, True], ids=["internal", "cross-module"])
    @pytest.mark.parametrize("kinds", ["Int", "mixed"])
    @pytest.mark.parametrize("n", range(1, MAX_PARAMS + 1))
    def test_each_argument_reaches_its_parameter(self, scrub, n, kinds, cross):
        types = tuple("Int" if kinds == "Int" else ("Int", "Bool", "Obj")[i % 3] for i in range(n))
        comp = parse_ok(convention_prog(types, cross))
        expected = sum((i + 1) * 10**i for i in range(n))
        assert repr(jem_run(comp)) == f"Terminated({expected})"
        scrub.image = compaim(comp)
        assert repr(run_aim(scrub.image, seed=1)) == f"Halted(r6={expected})"
        assert scrub.jumps == (3 if cross else 1)  # the outcall and each return

    def test_more_parameters_than_registers_is_a_compile_error(self):
        comp = parse_ok(convention_prog(("Int",) * (MAX_PARAMS + 1), cross=False))
        with pytest.raises(CompileError, match="at most 9"):
            compaim(comp)


class TestRegisterHygiene:
    def test_whole_programs_leave_nothing_at_a_boundary(self, scrub):
        for src in WHOLE_PROGRAMS.values():
            scrub.image = compaim(parse_ok(src))
            run_aim(scrub.image, seed=1, fuel=300_000)
        assert scrub.jumps == 49  # returns and outcalls of class modules

    @pytest.mark.parametrize("domain", sorted(PIN_DOMAINS))
    def test_pinned_enumerations_leave_nothing_at_a_boundary(self, scrub, domain):
        """The 50 depth-4 enumerations of PINNED_SOURCES whose trace sets
        test_traces.py pins."""
        for src in PINNED_SOURCES.values():
            scrub.image = compaim(parse_ok(src))
            enumerate_traces(scrub.image, depth=4, domain=PIN_DOMAINS[domain]())
        assert scrub.jumps > 200

    def test_boundary_registers_outside_convention_are_zero(self):
        comp = parse_ok(COMPONENTS["cell"])
        image = compaim(comp)
        tracer = ComponentTracer(image, seed=2)
        [(key, mask)] = list(image.table.eo.items())
        [get_addr] = [a for s, a in image.table.em.items() if s.name == "get"]
        seg = tracer.call_method(tracer.initial(), get_addr, mask, ())
        assert isinstance(seg.reply, ReturnOut)
        st = seg.state
        for r in list(range(7, 32)) + [3, 4]:
            assert st.reg(r) == 0, f"r{r} leaked {st.reg(r)!r}"


class SysExitScrub:
    """Checks, at each of sys's four exit jumps, that only the registers the
    exit carries may be non-zero: the jump's operands, r5 and r6, and at
    forwardCall's exit also r3, r4 and the call's arguments. Its register
    sets are literal, so that it stays a reference for the names of the
    calling convention (aim/words.py) rather than reading them.

    A jump that leaves the component is not stepped by the trace engine,
    which observes it in place (`ComponentTracer._run`): so the state a run
    returns at such an exit is checked too."""

    def __init__(self):
        self.image = None
        self.exits = Counter()

    def check(self, st):
        e = st._icache.get(st.pc) or st._decode()
        if e is None or e[1] != "jmp" or st.pc.mid != SYS_ID:
            return
        rd, ri = e[4:]
        allowed = {rd, ri, 5, 6}
        kind = SYS_EXIT_MARKS[st.pc.off][0]
        if kind == "fwcall":
            table = self.image.table
            targets = {(a.mid, a.off): sig for sig, a in table.em.items()}
            targets.update({(iota, sigma): sig for sig, iota, sigma in table.rm})
            sig = targets[st.reg(3), st.reg(4)]
            allowed |= {3, 4, *range(7, 7 + len(sig.params))}
        leaked = {r: w for r, w in st.regs.items() if w != 0 and r not in allowed}
        assert not leaked, f"sys's {kind} exit leaks {leaked}"
        self.exits[kind] += 1


@pytest.fixture
def sys_scrub(monkeypatch):
    checker = SysExitScrub()
    step, run = MachineState.step, ComponentTracer._run

    def checked(self):
        checker.check(self)
        return step(self)

    def observed(self, *args, **kwargs):
        forwarded, reply, nxt = run(self, *args, **kwargs)
        if isinstance(reply, (CallOut, ReturnOut)):
            checker.check(nxt)
        return forwarded, reply, nxt

    monkeypatch.setattr(MachineState, "step", checked)
    monkeypatch.setattr(ComponentTracer, "_run", observed)
    return checker


def assert_vectors_round_trip(traces):
    """Every call action's vector is what the builder makes of what the
    reader reads of it: `call_vector` for a callee's entry (a forwarded
    call? or a call!), `vector` for a call? into sys."""
    calls = 0
    for t in traces:
        for a in t:
            if not isinstance(a, (CallIn, CallOut)):
                continue
            v, calls = a.regs, calls + 1
            assert reg(v, len(v)) == 0
            if isinstance(a, CallOut) or a.addr[0] != SYS_ID:
                args = [reg(v, r) for r in ARG_REGS[: len(v) - 7]]
                assert call_vector(reg(v, R_CALLER), reg(v, R_RECV), args) == v, a
            else:
                assert vector({i: reg(v, i) for i in range(len(v))}) == v, a
    assert calls


class TestSysLeavesNothingAtABoundary:
    def test_whole_programs(self, sys_scrub):
        for src in WHOLE_PROGRAMS.values():
            sys_scrub.image = compaim(parse_ok(src))
            run_aim(sys_scrub.image, seed=1, fuel=300_000)
        # every call and return of a whole program crosses sys, though some
        # end before they return; only the trace engine's environment calls
        # testObj and registerObj
        assert sys_scrub.exits == Counter(fwcall=40, fwret=36)

    @pytest.mark.parametrize("name, domain", list(TRACE_SET_PINS))
    def test_pinned_enumerations(self, sys_scrub, name, domain):
        """The 53 depth-4 enumerations whose trace sets test_traces.py pins;
        the domains that register reach all four exits."""
        adversary = {**PIN_DOMAINS, **REGISTER_DOMAINS}[domain]
        sys_scrub.image = compaim(parse_ok({**PINNED_SOURCES, **REGISTER_SOURCES}[name]))
        traces = enumerate_traces(sys_scrub.image, depth=4, domain=adversary())
        kinds = {"fwcall", "fwret", *(("testobj", "regobj") if domain in REGISTER_DOMAINS else ())}
        assert set(sys_scrub.exits) == kinds
        assert_vectors_round_trip(traces)


class TestDynamicTypechecks:
    """The typecheck op itself, exercised through the privileged instruction."""

    def boot(self):
        from jemaim.aim.isa import Assembler
        from jemaim.aim.words import Descriptor, NonceOracle
        from jemaim.aim.machine import MachineState

        code = Assembler().emit("tychk", 7, 8).emit("halt").words()
        mem = {Address(2, i): w for i, w in enumerate(code)}
        st = MachineState(pc=Address(2, 0), mem=mem, descs=[Descriptor(2, 17, 1)], oracle=NonceOracle(0))
        return st

    def check(self, value, enc):
        st = self.boot()
        st.set_reg(7, value)
        st.set_reg(8, enc)
        kind, reason, st, _ = run_state(st, 10)
        return kind == "halted" and reason == "halt"  # plain halt means the check passed

    def test_unit_value_against_unit_type_passes(self):
        from jemaim.compiler.encoding import ENC_UNIT

        assert self.check(encode_value(ast.UNIT), ENC_UNIT)

    def test_true_against_unit_type_aborts(self):
        from jemaim.compiler.encoding import ENC_UNIT

        assert not self.check(encode_value(True), ENC_UNIT)

    def test_bool_values_pass_bool(self):
        from jemaim.compiler.encoding import ENC_BOOL

        assert self.check(2, ENC_BOOL) and self.check(3, ENC_BOOL)
        assert not self.check(7, ENC_BOOL)

    def test_int_always_passes(self):
        from jemaim.compiler.encoding import ENC_INT

        assert self.check(0, ENC_INT) and self.check(987, ENC_INT)
        assert self.check(Nonce("x", 1), ENC_INT)

    def test_null_passes_class_type_without_consulting_gstore(self):
        enc = encode_class("c")
        assert self.check(0, enc)  # the global store is empty here

    def test_unknown_id_against_class_aborts(self):
        assert not self.check(Nonce("ghost", 3), encode_class("c"))

    def test_forged_nat_fails_a_foreign_class_parameter_check(self):
        """A Nat naming a data word that holds d's encoding is no d."""
        assert encode_class("d") == 200
        image = compaim(
            parse_ok(
                """
                class-decl d { get : d()->Int };
                class c {
                  c(k:Int){ this.k = k; }
                  k : Int;
                  public m(x) : c(d)->Int { return x.get(); }
                };
                object o : c { k = 200; };
                """
            )
        )
        [(_, mask)] = list(image.table.eo.items())
        [m_addr] = [a for s, a in image.table.em.items() if s.name == "m"]
        [forged] = [
            a.off for a, w in image.mem.items() if a.mid == m_addr.mid and a.off >= STATIC_BASE and w == encode_class("d")
        ]
        assert forged == STATIC_BASE + 1  # o's field k
        tracer = ComponentTracer(image)
        for x in (9, forged):
            assert isinstance(tracer.call_method(tracer.initial(), m_addr, mask, (x,)).reply, Tick), x


class TestMaskingTable:
    def test_release_is_idempotent(self):
        """Releasing an object twice keeps a single mask."""
        from jemaim.aim.isa import Assembler
        from jemaim.aim.words import Descriptor, NonceOracle
        from jemaim.aim.machine import MachineState

        a = Assembler().emit("movi", 5, 100).emit("tbl_add", 5)
        code = a.emit("movi", 5, 100).emit("tbl_add", 5).emit("halt").words()
        mem = {Address(2, i): w for i, w in enumerate(code)}
        mem[Address(2, 100)] = encode_class("c")  # an object whose class word is set
        st = MachineState(pc=Address(2, 0), mem=mem, descs=[Descriptor(2, 30, 1)], oracle=NonceOracle(0))
        kind, _, st, _ = run_state(st, 20)
        assert kind == "halted"
        assert st.masks == {(2, 100): st.reg(5), (2, st.reg(5)): 100}
        assert isinstance(st.reg(5), Nonce)

    def test_init_gives_distinct_masks_per_exported_object(self):
        comp = parse_ok(
            """
            class c { c(){} };
            object o1 : c { };
            object o2 : c { };
            """
        )
        image = prot(comp_class(comp, comp.classes[0], 2))
        masks = list(image.masks[2].values())
        assert len(masks) == 2 and masks[0] != masks[1]

    def test_mask_bijectivity_and_gstore_uniqueness_after_a_run(self):
        comp = parse_ok(WHOLE_PROGRAMS["cross-object-flow"])
        result = run_aim(compaim(comp), seed=0, fuel=900_000)
        st = result.state
        for (mid, w), v in st.masks.items():
            assert st.masks[mid, v] == w and isinstance(w, int) != isinstance(v, int)
        owners = [owner for _, owner in st.gstore.values()]
        assert all(isinstance(o, int) for o in owners)


class TestCompilerOutputWellFormed:
    def test_unlinked_modules_declare_all_their_symbols(self):
        from jemaim.aim.link import well_formed

        for name, src in COMPONENTS.items():
            comp = parse_ok(src)
            for i, cls in enumerate(comp.classes):
                image = prot(comp_class(comp, cls, 2 + i))
                assert well_formed(image), name


# `.aimod` dumps of all 52 corpus images (every whole program, every component,
# both sides of every inequivalent pair): (line count, sha256 of the lines joined
# by newlines) of every section. A mask's nonce stream name ends in a count of
# the compilations run so far in the process; that count is dropped from every
# mask before hashing, which leaves the dump independent of what ran before.
# A change that alters emitted code must say why and update the pin.
AIMOD_PINS = {
    "whole.arith-add": (22, "f30ef9f35988b176f6767caef1ce31a0d6882cb5ecf0cdef7a9e1c2c4227671b"),
    "whole.arith-sub": (22, "44e11ebf4926e4a61ce399de7580adf18c2e4e13839e2f8348ec6a542d2b9492"),
    "whole.arith-sub-floor": (22, "75c9c283e79f61f831132025485b6079a0ee40d76042bacff92a3362d95357ea"),
    "whole.arith-nested": (22, "013bc7cd1d816e42d8bbda19a7443f248752394dfa3420bdb5f164581d6cacdf"),
    "whole.arith-compare": (22, "1b0a09b8f22b43f17cfb7aeb76ec5c9d70a8a2a7936699cd3ceb1032f2be9c61"),
    "whole.arith-equal": (22, "026e8b202403cad91aedb62945c3a33429993191a1d5a7a4a26585d8bccaaeef"),
    "whole.arith-and": (22, "158b826fa94064a01444bb7930f082af07968425068e1b864f14905bc675c39a"),
    "whole.exit-early": (22, "c62d013eb7b092dba0cbfcf9ff892f121b18ae8402e99f9565e756e4918de909"),
    "whole.exit-value": (22, "d066022be5f943264ac740ecfd68c8308010179a5506fcc28632c7996bba90a6"),
    "whole.seq-discard": (22, "89afedc2108c806fcbdd0fb75997b17ef49c7f1b90daccde305b45d870ccab06"),
    "whole.var-chain": (22, "eca8158c19ed97e96974ff02343e56f94e292a1f0844fbe0c8aba90297ac9189"),
    "whole.if-nested": (22, "6c318ffde0de75a91770a1fa197be23407574ff7eedbc55e7f2b09e134e2ac22"),
    "whole.fields-counter": (23, "4795e158a32328e28bf5f3f65c57bdd372519384c5998432f193ca19ecc54035"),
    "whole.fields-bool": (22, "4ab80449c06f6b14650e29d1b884de4417ab313f6fa44d4f9028d9432dcf9121"),
    "whole.cross-call": (29, "d9121da0d31b49dd717ff46484e3cbb8f8f8b060e072918cabb06bd35002db95"),
    "whole.cross-object-flow": (31, "277a86b6614deb41254a15989f2eba26f5d3db5985f2b7a37b9af0af9751ac26"),
    "whole.cross-chatter": (37, "541ac5bda838f5b2d09795f5784cf01e97708bfa114a76b34df01de56a3a9a56"),
    "whole.instanceof-pos": (28, "6acd317aba7dcfaaf06e3b3c3603ac96769ecf788e8073c8803a3d55666a8ee0"),
    "whole.instanceof-neg": (28, "1a3a8f52b6fb8fe243d7db335740073cc70e9496477d0a2173de9fbf7fac4d9d"),
    "whole.instanceof-null": (22, "8aff835bd0d26050136efb52b04feb009853ba56a0cc3ab7677b13364741e65e"),
    "whole.new-identity": (23, "95100350253efdb76c5e3214a656e8791e9ccbcc7c16301c8808ef9a28f0b305"),
    "whole.new-fields": (30, "d00eca3046dec891f9d872008a45b0fc8a8e679270d4d67edadfe14a3a141f87"),
    "whole.new-aliasing": (31, "b2b00d6b1b3ce60d9579b53143c788ed88610ff885335dd7be380e36800f55b8"),
    "whole.recursion-sum": (23, "b93e540bcd8f8cb53af29feacb104e0df686def53444acd67961fe4bf9150150"),
    "whole.diverge-spin": (23, "69ea889ccdff328f3b41c0d7bb7034e34fea865d07f4cd4920f95f40e75c63aa"),
    "whole.diverge-conditional": (23, "600b79c0e94031c3752f318363bb0aa9df30faa288d3df2f92334741ebce717d"),
    "whole.converge-conditional": (23, "fdfcd4ceb9df177a71300d0de1fa7bdc6d92286b7fd401ac91e8df46bb9b21db"),
    "const": (22, "9c5eaccbabda55b5413c70c869c6ebed93d5588b3e2c39f619cd942866b6e806"),
    "double": (22, "edd79b58b069b736cfc3cc506cbc08dede13710290cc903af36f0ff03f6492f1"),
    "cell": (23, "b1d18fd1548fc1700cf4ca5cb9effae82b7fc6d39880e4c067266f91d9d786b8"),
    "keeper": (24, "176e4180227781ddefc09fa668c8ae8117e1e44df002adf1a6d93a8c428c5193"),
    "gate": (23, "8e60effa91f7176af5bdde4ba86d1918ec6055a3f3e4d6acd5e9a0382ab0625c"),
    "int-return.0": (22, "9c5eaccbabda55b5413c70c869c6ebed93d5588b3e2c39f619cd942866b6e806"),
    "int-return.1": (22, "53dffd78414a0adc9b1e09c6e77eb1bff2c5153d138d9c4417bc344326612cc6"),
    "bool-return.0": (22, "14ec9227e0a2a90f1aed17fcbae6f6e639e0ce7b47f2814c7067d9a69518444c"),
    "bool-return.1": (22, "69a8ae29fcb6a6a5c4b8ab91db849f8be81fdde94b6ef8bcba380db049fd45b8"),
    "unit-vs-state.0": (23, "b5b6ccf00ec844fbec506927046d0f25afe6a546d8a4a3f493fe1b3afed57cbc"),
    "unit-vs-state.1": (23, "9b3db5def9359c2ee11e03e69e8641ac600ebb6d690f1bd1c816e45a1ae249ba"),
    "callback-target.0": (24, "796cf2b00819004e8349820fa3d695a0dd883b8f8f206c17d3a8f26b4fed871e"),
    "callback-target.1": (24, "4872208e9ec5e3b74f6cc0366e53d64b9fa47378f8df3ab23d6ee705362ebaca"),
    "callback-param.0": (24, "083ba119c11e0f9811ff06923b6afeacae77c73951b22fb6d709216776debc58"),
    "callback-param.1": (24, "4fa0535fe9f923045f697d9a76cedfb5bbd3e3e4cb1aeab2095fa67b9c205e91"),
    "callback-vs-return.0": (24, "796cf2b00819004e8349820fa3d695a0dd883b8f8f206c17d3a8f26b4fed871e"),
    "callback-vs-return.1": (22, "4d9df06e8857ad6c353306a10ce120a302153f60de7ce2274d954e12ace964ba"),
    "stateful-second-round.0": (22, "025db02b4d0364e396005739e4a98b8b3260669dc5d798b9072fd0bb8f5c088e"),
    "stateful-second-round.1": (22, "a5addcba6510e5d825aad92d7a1fa0f01b585cf412f1862d213cbb0af1a0700e"),
    "length-divergence.0": (23, "aa2ddeee1282d1111cdee5c44148897b0d5208af6f68cab2f59c0ac54e8bb308"),
    "length-divergence.1": (23, "8cabd88173c3b9bd53c63b1d6f065008efedafb7dca8ac17b58dfd4e23518e3a"),
    "fresh-vs-static-object.0": (23, "4d009ef508a59bc9174162b36de2406cdc5dea16c4614e55b18480852ecbebc4"),
    "fresh-vs-static-object.1": (23, "5475cd3c60c5c0a75e42bff5d07a9797556e0d3edea854a5d3e737e02f2d183d"),
    "null-vs-object.0": (22, "86ceb824bca835498b87dc82e76a5b9920443fce1137753a3137dc92f60e62ec"),
    "null-vs-object.1": (22, "dad61417b4645404a03580d0b48511e1cc556bea117002ab531b17e99b9ad113"),
}
AIMOD_SOURCES = {
    **{f"whole.{name}": src for name, src in WHOLE_PROGRAMS.items()},
    **COMPONENTS,
    **{f"{name}.{side}": pair[side] for name, pair in INEQUIVALENT_PAIRS.items() for side in (0, 1)},
}


@pytest.mark.parametrize("name", list(AIMOD_PINS))
def test_compiled_image_is_pinned(name):
    text = re.sub(r"#(static-[^:]*)-[0-9]+:", r"#\1:", aimod.dump(compaim(parse_ok(AIMOD_SOURCES[name]))))
    lines = text.splitlines()
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == AIMOD_PINS[name]


def test_aimod_pins_cover_the_corpus():
    assert len(AIMOD_PINS) == 52 and set(AIMOD_PINS) == set(AIMOD_SOURCES)
