"""The secure compiler: encodings, module structure, sys behavior, attacks."""
import hashlib
import re

import pytest

from jemaim.aim import aimod
from jemaim.aim.link import MethodSig as LinkSig
from jemaim.aim.machine import run_state
from jemaim.aim.words import Address, N_W, Nonce, SYS_ID, Symbol
from jemaim.compiler.comp import SIGTAB_BASE, CompileError, comp_class
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


def parse_ok(src):
    comp = parse_component(src)
    assert typecheck(comp) == []
    return comp


class TestEncodings:
    def test_value_encoding_constants(self):
        assert encode_value("null") == 0
        assert encode_value("unit") == 1
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
    def test_instanceof_requirement_always_present(self):
        comp = parse_ok(COMPONENTS["const"])
        cc = comp_class(comp, comp.classes[0], 2)
        sigs = [sig for sig, _, _ in cc.required_methods]
        assert LinkSig("instanceof", "Obj", ("Obj", "Obj"), "Bool") in sigs

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

    def test_instanceof_resolves_to_sys_testobj_after_linking(self):
        comp = parse_ok(COMPONENTS["const"])
        module = prot(comp_class(comp, comp.classes[0], 2))
        [(sig, iota, sigma)] = [e for e in module.table.rm if e[0] == TESTOBJ]
        linked = mylink(module, build_sys())
        assert linked.is_whole()
        # the symbols were substituted by testObj's address (1, 0)
        resolved = [w for w in linked.mem.values() if w in (iota, sigma)]
        assert resolved == []

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
        src = f"""
class main {{
  main(){{}}
  public me() : main()->main {{ return this; }}
  public v() : main()->Int {{ return 7; }}
  public main() : main()->Int {{ return this{".me()" * n}.v(); }}
}};
object main : main {{ }};
"""
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

        assert self.check(encode_value("unit"), ENC_UNIT)

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
        """A Nat naming a signature-table word that holds d's encoding is no d."""
        image = compaim(
            parse_ok(
                """
                class-decl d { get : d()->Int };
                class c {
                  c(){}
                  public m(x) : c(d)->Int { return x.get(); }
                };
                object o : c { };
                """
            )
        )
        [(_, mask)] = list(image.table.eo.items())
        [m_addr] = [a for s, a in image.table.em.items() if s.name == "m"]
        [forged] = [
            a.off for a, w in image.mem.items() if a.mid == m_addr.mid and a.off >= SIGTAB_BASE and w == encode_class("d")
        ]
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
# by newlines) of the sections DESC, CODE, DATA, EXPORT-M, REQUIRE-M and
# REQUIRE-O. A mask's nonce stream name ends in a count of the compilations run
# so far in the process; the count is dropped from the nonces that linking
# substitutes into CODE and DATA, and MASKS and EXPORT-O, which hold only masks,
# are left out. A change that alters emitted code must say why and update the pin.
AIMOD_PINS = {
    "whole.arith-add": (912, "a8f5ecd6f806e1301a42dfb20d6577f1fb6a8678316261562b83cf6ea0a415d6"),
    "whole.arith-sub": (930, "1f93c6d849057c1f55541eda1bdf7c8db131deed327800ae8dfd7974cf9b8c8a"),
    "whole.arith-sub-floor": (930, "f150d5d68cf437f11f46a57c39ce719ae7826c8f65e994434c71ca126c333a1c"),
    "whole.arith-nested": (1158, "0b1359ba30f0bdbc61132730655877a77458d4b78bf79aba065bd56bc9068ff6"),
    "whole.arith-compare": (1041, "c36ee1913b836e14a4a91d552134d43fb70ac6ce705c42a383b3c24edeace49a"),
    "whole.arith-equal": (1155, "37cedab0a86bb6641d1e06694b0a999fb49d485ed7221d24962826c62ed88785"),
    "whole.arith-and": (1317, "dbe0663a09254b72652f9375ad6e628ba70adfd135125206e74abef120f20f87"),
    "whole.exit-early": (889, "ea10a7ba5b1efa148e1f731f593484d19a6a48a601edc5c7231dc4c069d11b6e"),
    "whole.exit-value": (1003, "5d64677af33f93d17bab81a60c09420468a61bb36fb1b1043a7246744952e021"),
    "whole.seq-discard": (912, "59ecb437102020fa9de7e76cbb1c17b3bbc5d6095c7394a1ec4656bf1b4bb1d4"),
    "whole.var-chain": (1345, "65e2020bd9cf92255d9a22fd1398f1a4595d458f8bfbfa02d306c86b1785cfdd"),
    "whole.if-nested": (1284, "7e51a83e3c9f6e472202ea1b1d6db816e49eba0652b881c380f351c5c9219ba7"),
    "whole.fields-counter": (2272, "ad4208963b9dd890f054183d067dda2dc7965c3636a0f2c58834e6a10a147175"),
    "whole.fields-bool": (1216, "ecf5eeb7d104d5ab4eca82177faa3816c4d4cc0241384f42d7e1cca231995a0f"),
    "whole.cross-call": (1714, "72f86dc7a734a4d310bffdaad1c90d8376a5cf2cc00271e37bb9468cf645dca0"),
    "whole.cross-object-flow": (3826, "ec6d2df138dfa42152ff48a5f7d861f44487e24304f066bece0201a262ae8588"),
    "whole.cross-chatter": (3098, "d54203dee8850c35332fcab3f8fcc2b1127707f2e06312f35ec8d9c99fa1d601"),
    "whole.instanceof-pos": (1245, "2c56bd39c12b967bd913e97d7a4f9824ee3e770bb4e4e389b7cdfa1340583077"),
    "whole.instanceof-neg": (1245, "d1c9ada4c213eaf8771dfa5cc768a5f2f7eed399495be0070b9b7c1d4921438d"),
    "whole.instanceof-null": (1209, "d57bb36cf12d9c11205059df590593077328e8a1af319e37231727cefca43412"),
    "whole.new-identity": (1858, "352e27d5d873b5443067c356ad98fa3e1a5db956b9b360a69eb227b7cc521748"),
    "whole.new-fields": (2406, "ef829a695ac0b8fbb73fe6b96330100c2bcfd3b721070840000847aee5ef6258"),
    "whole.new-aliasing": (3422, "8a4809fc3c7fac63122e18c903230b9a98aca2d868760fc1956682b8cf26e43b"),
    "whole.recursion-sum": (1951, "9233664816bc454a2f9c15e4b7502f274d6195712d80814a8596eb89a221b382"),
    "whole.diverge-spin": (1281, "ba0f461f7bff4904b1f6acbc0da21971670e92872105a1eaa447e19369ce6ebb"),
    "whole.diverge-conditional": (1524, "e92299d979e3ae07deec791b54f517cda1446c78f4a0af45aaab180406eb4f49"),
    "whole.converge-conditional": (1524, "6bb3e0a8b317b2657606a1cdd93475ae3837b710dbeb3a0685d0a51e7758698c"),
    "const": (798, "94fd99f313682424e044770d0923e4415e0c779351473ecffe5818bb5519560a"),
    "double": (962, "db31e0e440a8b8e0175c4a0a7b330e1b51e99c6584b1ebcf3cbc95a97b0e22c6"),
    "cell": (1377, "e7da35d4d6c6768d2f202299356298bbd77704d23acafba33bc4dee507413f8a"),
    "keeper": (2078, "6edaa8078ea36474b11953917ce38c7bb3f2f239390f17207a228b2be52f5d7c"),
    "gate": (1518, "3e1470ceb32fea450ba43ebb578c2a589842835f07395ef37895b16bdb5a881b"),
    "int-return.0": (798, "94fd99f313682424e044770d0923e4415e0c779351473ecffe5818bb5519560a"),
    "int-return.1": (798, "26337c792b8e1c865a008fd31811ec6e1a9b5100c6c87401c00617f72b95f348"),
    "bool-return.0": (798, "5acf094f45ba3d7b4a1c1b4a584eef331fe4b25670b9910f4906fa5d5fb50fc0"),
    "bool-return.1": (798, "8690e10c4ea47bdbcbc0f8a66262e3f8daf1a295070d5188998babd346397279"),
    "unit-vs-state.0": (1401, "0478dc51ac7464d430c97dc99a99037127d85410a9b044a0ce3ae2ba541cd5e4"),
    "unit-vs-state.1": (1188, "0972d6663af9dad0e80d354bda1747f87bdf7a88cc14cbe60f0066a77d45d2bd"),
    "callback-target.0": (1017, "cb05e71e166cea661040b38238a42070c62c26fbbc7a7d0d29a03c7e95962180"),
    "callback-target.1": (1017, "f70730c510e2ab59c743c6e2bfdabfbe898b822813a2036b789d965fb7452303"),
    "callback-param.0": (1072, "9c9c844c19c83aec5a5b0d1acd08b6d90d7be9058416263d7dd5c5777d9b2ad0"),
    "callback-param.1": (1072, "554a98de8b5d05797273443ea7514fd5702ea9975fc2436729a52765e80c85ef"),
    "callback-vs-return.0": (1017, "cb05e71e166cea661040b38238a42070c62c26fbbc7a7d0d29a03c7e95962180"),
    "callback-vs-return.1": (798, "7b175cec8bfb77aa9d4a10eb4806fe1a1b56a600b87c0842709961154185c40f"),
    "stateful-second-round.0": (1318, "b0b1a2e99c297f858e2151837dc67d907cb712423d2e25fce89e8f9ef67e8c4c"),
    "stateful-second-round.1": (1837, "4d82e55e622cf802be9ee4dbfb79476a71ba2d70e02d0e9a034878254d9c5d60"),
    "length-divergence.0": (2044, "f14899eb069773f6bf2a0dbcc788d54ece9e1cd617ebba3b1f42d09398d61442"),
    "length-divergence.1": (1949, "6d1751142cdce0f6cfbdd33dbdb14b8d7106bce7a2bff771f06f33212f4e50ba"),
    "fresh-vs-static-object.0": (1123, "1cd314399707e9964f0b6202a5c47384d170e28a5a20b3a33bb602b0fe552bb2"),
    "fresh-vs-static-object.1": (1093, "e5e46dbe5a40fd0d1f7f23b75e4fe4ea392a8d5b4d3498b5253bcd39569d9c01"),
    "null-vs-object.0": (800, "fbbd92f35196a37d3a5a15cab6acd86e2a93ee76dc08fd1de913dd7cb133dadb"),
    "null-vs-object.1": (800, "aad194a0487b09c9d5fb1976470193f6f99ad7eeed1847e0aea2fe362616be93"),
}
AIMOD_SOURCES = {
    **{f"whole.{name}": src for name, src in WHOLE_PROGRAMS.items()},
    **COMPONENTS,
    **{f"{name}.{side}": pair[side] for name, pair in INEQUIVALENT_PAIRS.items() for side in (0, 1)},
}
AIMOD_PINNED_SECTIONS = ("DESC", "CODE", "DATA", "EXPORT-M", "REQUIRE-M", "REQUIRE-O")


@pytest.mark.parametrize("name", list(AIMOD_PINS))
def test_compiled_image_is_pinned(name):
    text = re.sub(r"#(static-[^:]*)-[0-9]+:", r"#\1:", aimod.dump(compaim(parse_ok(AIMOD_SOURCES[name]))))
    lines, keep = [], False
    for line in text.splitlines():
        if line in aimod.SECTIONS:
            keep = line in AIMOD_PINNED_SECTIONS
        if keep:
            lines.append(line)
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == AIMOD_PINS[name]


def test_aimod_pins_cover_the_corpus():
    assert len(AIMOD_PINS) == 52 and set(AIMOD_PINS) == set(AIMOD_SOURCES)
