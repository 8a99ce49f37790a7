"""The secure compiler: encodings, module structure, sys behavior, attacks."""
import hashlib
import re
from collections import Counter

import pytest

from jemaim.aim import aimod
from jemaim.aim.link import MethodSig as LinkSig
from jemaim.aim.machine import run_state
from jemaim.aim.words import Address, N_W, Nonce, SYS_ID
from jemaim.compiler.comp import STATIC_BASE, CompileError, comp_class
from jemaim.compiler.encoding import ENC_OBJ, class_name_of_encoding, encode_class, encode_type, encode_value
from jemaim.compiler.pipeline import boot_state, compaim, mylink, run_aim
from jemaim.compiler.prot import prot
from jemaim.compiler.sysmod import FORWARDCALL, FORWARDRETURN, REGISTEROBJ, TESTOBJ, build_sys
from jemaim.jem import ast
from jemaim.jem.interp import run as jem_run
from jemaim.jem.parser import parse_component
from jemaim.jem.printer import render_component
from jemaim.jem.typecheck import Checker, typecheck
from jemaim.traces.engine import ComponentTracer
from jemaim.traces.actions import ReturnOut, Tick

from corpus import COMPONENTS, INEQUIVALENT_PAIRS, WHOLE_PROGRAMS, main_prog


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
        from jemaim.aim.isa import encode, ins
        from jemaim.aim.words import Descriptor

        code = (
            encode(ins("movi", 3, 2))
            + encode(ins("movi", 4, 0))
            + encode(ins("movi", 5, 7))
            + encode(ins("movi", 1, 2 * N_W))
            + encode(ins("movi", 2, 1))
            + encode(ins("jmp", 1, 2))
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


NULL_RECEIVER_PROG = """
class main {{
  main(f:Int){{ this.f = f; }}
  f : Int;
  public main() : main()->Int {{ return var x : main = null; {body}; }}
}};
object main : main {{ f = 1; }};
"""


class TestCompilerCorrectness:
    def test_class_named_null(self):
        comp = parse_ok(NULL_CLASS_PROG)
        jr = jem_run(comp, fuel=100_000)
        assert jr.kind == "terminated" and jr.value == 2
        ar = run_aim(compaim(comp), seed=3, fuel=300_000)
        assert ar.kind == "halted" and not ar.aborted and ar.value == encode_value(2)

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
        assert repr(jem_run(comp, fuel=10_000)) == "NullError"
        assert repr(run_aim(compaim(comp), seed=3, fuel=100_000)) == "Halted(r6=0) by abort"

    @pytest.mark.parametrize("name", sorted(WHOLE_PROGRAMS))
    def test_source_and_compiled_agree(self, name):
        comp = parse_ok(WHOLE_PROGRAMS[name])
        jr = jem_run(comp, fuel=300_000)
        ar = run_aim(compaim(comp), seed=3, fuel=900_000)
        if jr.kind == "terminated":
            assert ar.kind == "halted" and not ar.aborted
            assert ar.value == encode_value(jr.value)
        else:
            assert ar.kind == "fuel"

    @pytest.mark.parametrize("name", sorted(VALUE_RESULTS))
    def test_non_int_results_agree(self, name):
        ret, body, printed = VALUE_RESULTS[name]
        comp = parse_ok(VALUE_PROG.format(ret=ret, body=body))
        jr = jem_run(comp)
        assert repr(jr) == f"Terminated({printed})"
        ar = run_aim(compaim(comp), seed=3)
        assert ar.kind == "halted" and not ar.aborted and ar.value == encode_value(jr.value)

    @pytest.mark.parametrize("body", ["this.me", "this", "new main(unit, true, null, this)"])
    def test_object_results_terminate_on_both(self, body):
        comp = parse_ok(VALUE_PROG.format(ret="main", body=body))
        assert jem_run(comp).kind == "terminated"
        ar = run_aim(compaim(comp), seed=3)
        assert ar.kind == "halted" and not ar.aborted

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
        ar = run_aim(compaim(comp), seed=3, fuel=1_000_000)
        assert jr.kind == "terminated"
        assert ar.kind == "halted" and not ar.aborted
        assert ar.value == encode_value(jr.value)

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
        ar = run_aim(compaim(comp), seed=3, fuel=300_000)
        assert ar.kind == "halted" and not ar.aborted and ar.value == encode_value(0)

    def test_long_binop_spine(self):
        """500 left-nested `+` terms: typechecker and compiler walk the left
        spine without recursing down it."""
        comp = parse_ok(main_prog(" + ".join(["1"] * 500)))
        assert repr(jem_run(comp, fuel=100_000)) == "Terminated(500)"
        assert repr(run_aim(compaim(comp), seed=3, fuel=300_000)) == "Halted(r6=500)"

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
        ar = run_aim(image, seed=3, fuel=300_000)
        assert jr.kind == "terminated" and jr.value == 7
        assert ar.kind == "halted" and not ar.aborted and ar.value == encode_value(7)

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


class TestRegisterHygiene:
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


class TestDynamicTypechecks:
    """The typecheck op itself, exercised through the privileged instruction."""

    def boot(self):
        from jemaim.aim.isa import encode, ins
        from jemaim.aim.words import Descriptor, NonceOracle
        from jemaim.aim.machine import MachineState

        code = encode(ins("tychk", 7, 8)) + encode(ins("halt"))
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
        from jemaim.aim.isa import encode, ins
        from jemaim.aim.words import Descriptor, NonceOracle
        from jemaim.aim.machine import MachineState

        code = encode(ins("movi", 5, 100)) + encode(ins("tbl_add", 5)) + encode(
            ins("movi", 5, 100)
        ) + encode(ins("tbl_add", 5)) + encode(ins("halt"))
        mem = {Address(2, i): w for i, w in enumerate(code)}
        mem[Address(2, 100)] = encode_class("c")  # an object whose class word is set
        st = MachineState(pc=Address(2, 0), mem=mem, descs=[Descriptor(2, 30, 1)], oracle=NonceOracle(0))
        kind, _, st, _ = run_state(st, 20)
        assert kind == "halted"
        assert list(st.masks[2].fwd) == [100]
        assert len(st.masks[2].rev) == 1
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
        for mid, t in st.masks.items():
            assert len(t.fwd) == len(t.rev)
            for internal, mask in t.fwd.items():
                assert t.rev[mask] == internal
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
    "whole.arith-add": (909, "b56cc0d685a93deb7d9dd8830582a7fe28e1f82383776611e6d94805495672d7"),
    "whole.arith-sub": (927, "5f350e4c48f95665edee28f770bd41b2ffa66a93f040c3d76bb242b8235e55e1"),
    "whole.arith-sub-floor": (927, "7bf68472c3158845217a266da6fcb602b991e4ade5249df6483f35e583fb21fe"),
    "whole.arith-nested": (1155, "5eef6c98327f7161a0c8ea13b8268bde77b01a7c2d95d6ec03a1f1bdb03f6136"),
    "whole.arith-compare": (1038, "b8218cd4ad3b6e5c48ee6ae0408569f377dde4f45f04a7f4952eb1b6b031d48e"),
    "whole.arith-equal": (1152, "152622fad7e8627b495ad2c3f369de308ff4a747591f864cd39868294f0c0392"),
    "whole.arith-and": (1314, "a975d0538265259a240c4a5e22b167ee11a02d4e99ee61c8316ddbfb4a91fb5d"),
    "whole.exit-early": (886, "a77d7828d61aebba0e40b65acdccfc4fe6c1472c0b2b48f9ae74faa45a33bb54"),
    "whole.exit-value": (1000, "ba3f93242be4b40fcbb374a8e7369444143326bee685d04b5100ec5a25072a9d"),
    "whole.seq-discard": (909, "4421ec9ab76d45f81719507a43355a85c2241643f5e28da747dd7b3ed1feb513"),
    "whole.var-chain": (1342, "f9a4101a8c7585fe3a17bce9801aea8ad355c93032732debdfa344f3ed63390e"),
    "whole.if-nested": (1281, "7d4f6595702885298da96306d0f37ea3fcf3d89a9236eb323bbde7d2262524a0"),
    "whole.fields-counter": (2269, "debeee56bfc74326e8bb65fa22f7be29d213b93772d8795761350f5c9edfb67a"),
    "whole.fields-bool": (1213, "4546144ce2d15c320da8ff81da72f775e79a4db2b8767d1bb24f354030ebb216"),
    "whole.cross-call": (1700, "86d622f360b26b7ca870ed4a9f29e522f6647d2e7d23e497dba7988be16c56bc"),
    "whole.cross-object-flow": (3801, "b394bd04c769f0073f4ab40dc1ff4fd5950c64408a76a2ff6335130b07a8235f"),
    "whole.cross-chatter": (3068, "b8aabbb68e89882297650f3fd45d63a01e1051dbf8fb714e25c4153212a7cd5e"),
    "whole.instanceof-pos": (1231, "297044205b7aefccc42e4e68c01350cc6a21b7b42c4698edb343f8e47be4830d"),
    "whole.instanceof-neg": (1231, "d625d7dd96110952486eb9532e0cc417f193a28caf0681096088d86ebfc9c879"),
    "whole.instanceof-null": (1200, "96a9c1d7bae6b9c44c3248cb9a31b662dd70537a1489e97f9d6a66c0c0a066a1"),
    "whole.new-identity": (1855, "ee0ae6ab03edabfbfdda8105623737bb527b13ce801658c57230e0a6eba2539d"),
    "whole.new-fields": (2387, "9f33a0b5ec8d71c7678023439976d8ea252d1e2fc19eab54bf0cf144d2b3f394"),
    "whole.new-aliasing": (3397, "b6579003ddcfeac60657d9adb47e8d42ea826a4de3efd759a852b17910c53d7f"),
    "whole.recursion-sum": (1948, "127ccfd79c43f112e17233312c2487db00f74ce6244f623d7199862e9d58bd0e"),
    "whole.diverge-spin": (1030, "84aae477972b77d95e1aa6aa5dd986e5c983c594801e3101c1c259761e48b6e4"),
    "whole.diverge-conditional": (1273, "fef90915c63f597f0158af010b09e070a4f43ea48b996398ba536a673bbb6429"),
    "whole.converge-conditional": (1273, "26b75d514954158aa8282e2781e7a18ced55170b378937780b0f6657ee2f3585"),
    "const": (795, "f9fe8eb9cd3f6907099e0a1fdc60e54034f65f3330c7e9f48fbf609dd4dfcdea"),
    "double": (959, "685ca2340f7fc474e06870fca0ecbdc95c6c04efed1855858347600146e76b15"),
    "cell": (1374, "4cc52b970c2163932274b31e1f5d739071c91b531d0b9a17b6be23ceb1ef7644"),
    "keeper": (2075, "bc52759e9a9ac00f127f359d82d7c1085538f00a5a9b71ef029a84399cc761ba"),
    "gate": (1515, "558e1e310d52e5b50c5e3aa4d8132f7f45d7fc2258c93087931d70f73d97afe6"),
    "int-return.0": (795, "f9fe8eb9cd3f6907099e0a1fdc60e54034f65f3330c7e9f48fbf609dd4dfcdea"),
    "int-return.1": (795, "e45fe472f367d5ced51e22700a9dc79f5c4bb7c12453209e49f664f6d45ae065"),
    "bool-return.0": (795, "7b6a97612e14dc1d9d6b18cc4a3740c0645d5e096ae5b6178b3efb4466b50c72"),
    "bool-return.1": (795, "22953216195e9a68de0ec7a99828ee1cbac99d8c78598410ded1ccd97baaa94f"),
    "unit-vs-state.0": (1398, "6b0d3ee3e25fffba6d8c3315db844257375435f47a02466232cbcd88a8025b90"),
    "unit-vs-state.1": (1185, "c7da0151ecd60e3eebb12c78b4c7aeeb9731405b4a2f5d4e1ef65a4a6eff63b5"),
    "callback-target.0": (1009, "6237656eaf5a386e8ff75ac12e5caf1fae3f1b1b09d0517b1698434c1be42c9a"),
    "callback-target.1": (1009, "ee95d50887ee11e5c8a3bf2a68578a45bfeea08c765e5a4584680d639d94947e"),
    "callback-param.0": (1063, "12f79192de0e21bf9af11d1dc0071d81e461017d324e5c82c828b5a05617b377"),
    "callback-param.1": (1063, "9b24795cd5ad01bec6ddb8a5f57a494bc2e5466dab791ea917d4677a682652b4"),
    "callback-vs-return.0": (1009, "6237656eaf5a386e8ff75ac12e5caf1fae3f1b1b09d0517b1698434c1be42c9a"),
    "callback-vs-return.1": (795, "4736903a2e9f064e4a83013c05884cc2949381ce79138a29e09a67a665ee5458"),
    "stateful-second-round.0": (1315, "4cbf4f2a5b62bcc6730f3a89972f171f1f289c79d51be879e5afe2d34f8f95d4"),
    "stateful-second-round.1": (1834, "7eea54f0fb2367f7f17c584ee9c3d21324ef8fd041f7056019ab7f70b2eff49d"),
    "length-divergence.0": (1793, "126893735aaa4c70b34f877656c12cd214b99fa66727f2bcfb50220f76e68ebe"),
    "length-divergence.1": (1698, "512530ce7d07b8a1f58c8393189fde3870247060496843271f730097947f849a"),
    "fresh-vs-static-object.0": (1120, "c3f84e64375a05091acdc54e8a7fb2e957c0e46ab73b38564c045cd3ef122763"),
    "fresh-vs-static-object.1": (1090, "e7dacb0452ac2d1ae06c8a6aeac0682b836ef9f090aa0a449dfe1ae19b77842a"),
    "null-vs-object.0": (797, "05ec7af81feec9198765ff125b84ee09549f5f5465289560ac58cc5349801afd"),
    "null-vs-object.1": (797, "49c6f56cd1f3f4eefcf39e9d5b7d1319c020f1b7dfb75ba82e550757434c3357"),
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
