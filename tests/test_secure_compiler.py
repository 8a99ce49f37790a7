"""The secure compiler: encodings, module structure, sys behavior, attacks."""
import pytest

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

from corpus import COMPONENTS, WHOLE_PROGRAMS, main_prog


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
        ts = [ast.T_UNIT, ast.T_BOOL, ast.T_INT, ast.T_OBJ, ast.t_class("a"), ast.t_class("b")]
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


class TestCompilerCorrectness:
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
