"""The aim VM: decoding, PMA access predicates, stepping, determinism."""
import random

import pytest

from jemaim.aim import access
from jemaim.aim.isa import Assembler, decode, encode, ins
from jemaim.aim.machine import SF, ZF, MachineState, run_state
from jemaim.aim.words import N_W, Address, Descriptor, Nonce, NonceOracle, Symbol


def load_words(mem, mid, base, words):
    for i, w in enumerate(words):
        mem[Address(mid, base + i)] = w


def machine(program, descs=(), pc=(0, 0), seed=0):
    mem = {}
    load_words(mem, pc[0], pc[1], program)
    return MachineState(pc=Address(*pc), mem=mem, descs=list(descs), oracle=NonceOracle(seed))


class TestDecode:
    def test_halt_roundtrip(self):
        mem = {Address(0, 0): 11}
        st = machine([11])
        assert st.peek().name == "halt"

    def test_unknown_opcode_is_undecodable(self):
        st = machine([9999])
        assert st.peek() is None
        assert st.step()[0] == "stuck"

    def test_jmp_roundtrip_through_encoder(self):
        words = encode(ins("jmp", 3, 4))
        st = machine(words)
        i = st.peek()
        assert i.name == "jmp" and i.ops == (3, 4)

    def test_operand_register_must_be_nat(self):
        st = machine([7, Symbol("x"), 4])
        assert st.peek() is None

    def test_privileged_ops_undecodable_in_unprotected_memory(self):
        st = machine(encode(ins("stk_push", 1, 2, 3)))
        assert st.peek() is None
        desc = Descriptor(2, 64, 1)
        st2 = machine(encode(ins("stk_push", 1, 2, 3)), descs=[desc], pc=(2, 16))
        assert st2.peek() is not None


class TestAssembler:
    def test_duplicate_label_raises(self):
        asm = Assembler().label("a").emit("halt")
        with pytest.raises(ValueError, match="duplicate label 'a'"):
            asm.label("a")


class TestEntryPoints:
    def test_entry_point_grid(self):
        d = Descriptor(2, 64, 3)
        descs = [d]
        for off in (0, 16, 32):
            assert access.entry_point(descs, Address(2, off))
        assert not access.entry_point(descs, Address(2, 48))
        assert not access.entry_point(descs, Address(2, 17))

    def test_forward_return_ep(self):
        assert access.forward_return_ep(Address(1, 3 * N_W))
        assert not access.forward_return_ep(Address(1, 2 * N_W))
        assert not access.forward_return_ep(Address(2, 3 * N_W))

    def test_unprotected_has_no_entry_points(self):
        assert not access.entry_point([Descriptor(2, 64, 3)], Address(0, 0))

    def test_method_entry_points_exclude_slot_zero(self):
        descs = [Descriptor(2, 64, 3)]
        assert not access.method_entry_point(descs, Address(2, 0))
        assert access.method_entry_point(descs, Address(2, 16))


class TestAccessTable:
    DESCS = [Descriptor(2, 64, 2), Descriptor(3, 64, 2)]

    def test_same_module_code_to_data_write(self):
        assert access.write_allowed(self.DESCS, Address(2, 10), Address(2, 100))

    def test_cross_module_read_denied(self):
        assert not access.read_allowed(self.DESCS, Address(2, 10), Address(3, 100))

    def test_unprotected_to_unprotected_free(self):
        assert access.write_allowed(self.DESCS, Address(0, 1), Address(0, 2))
        assert access.read_allowed(self.DESCS, Address(0, 1), Address(0, 2))
        assert access.valid_jump(self.DESCS, Address(0, 1), Address(0, 2))

    def test_unprotected_reads_entry_points_only(self):
        assert access.read_allowed(self.DESCS, Address(0, 1), Address(2, 16))
        assert not access.read_allowed(self.DESCS, Address(0, 1), Address(2, 17))

    def test_jump_rules(self):
        assert access.valid_jump(self.DESCS, Address(0, 5), Address(2, 16))
        assert not access.valid_jump(self.DESCS, Address(0, 5), Address(2, 17))
        assert access.valid_jump(self.DESCS, Address(2, 10), Address(2, 40))
        assert access.valid_jump(self.DESCS, Address(2, 10), Address(3, 16))
        assert not access.valid_jump(self.DESCS, Address(2, 10), Address(3, 17))
        assert access.valid_jump(self.DESCS, Address(2, 10), Address(0, 7))

    def test_data_is_never_executable_cross_module(self):
        assert not access.valid_jump(self.DESCS, Address(0, 0), Address(2, 100))


class TestStep:
    def test_movi_add_halt(self):
        prog = encode(ins("movi", 1, 20)) + encode(ins("movi", 2, 22)) + encode(ins("add", 1, 2)) + encode(ins("halt"))
        st = machine(prog)
        kind, reason, st, steps = run_state(st, 100)
        assert kind == "halted" and st.reg(1) == 42

    def test_cmp_on_distinct_nonces_clears_zf(self):
        st = machine(encode(ins("cmp", 1, 2)) + encode(ins("halt")))
        st.set_reg(1, Nonce("a", 0))
        st.set_reg(2, Nonce("a", 1))
        run_state(st, 10)
        assert st.flags[ZF] == 0

    def test_cmp_same_nonce_sets_zf(self):
        st = machine(encode(ins("cmp", 1, 2)) + encode(ins("halt")))
        n = Nonce("a", 0)
        st.set_reg(1, n)
        st.set_reg(2, n)
        run_state(st, 10)
        assert st.flags[ZF] == 1

    def test_add_treats_nonce_as_zero(self):
        st = machine(encode(ins("add", 1, 2)) + encode(ins("halt")))
        st.set_reg(1, 5)
        st.set_reg(2, Nonce("a", 0))
        run_state(st, 10)
        assert st.reg(1) == 5

    def test_sub_takes_absolute_value_and_sets_sf(self):
        st = machine(encode(ins("movi", 1, 3)) + encode(ins("movi", 2, 5)) + encode(ins("sub", 1, 2)) + encode(ins("halt")))
        run_state(st, 10)
        assert st.reg(1) == 2 and st.flags[SF] == 1 and st.flags[ZF] == 0

    def test_cross_module_store_violates(self):
        descs = [Descriptor(2, 32, 1), Descriptor(3, 32, 1)]
        prog = encode(ins("movi", 1, 3)) + encode(ins("movi", 2, 40)) + encode(ins("movs", 1, 5, 2))
        st = machine(prog, descs=descs, pc=(2, 0))
        kind, reason, st, _ = run_state(st, 10)
        assert kind == "violation"

    def test_jmp_stamps_caller_id_into_r0(self):
        descs = [Descriptor(2, 33, 2)]
        prog = encode(ins("movi", 1, 16)) + encode(ins("movi", 2, 2)) + encode(ins("jmp", 1, 2))
        st = machine(prog, pc=(0, 0), descs=descs)
        st.mem[Address(2, 16)] = 11  # halt at the entry point
        kind, _, st, _ = run_state(st, 10)
        assert kind == "halted" and st.reg(0) == 0 and st.pc == Address(2, 16)

    def test_zero_clears_every_register(self):
        st = machine(encode(ins("zero")) + encode(ins("halt")))
        for i in range(40):
            st.set_reg(i, i + 1)
        run_state(st, 10)
        assert all(st.reg(i) == 0 for i in range(64))

    def test_clone_between_zero_and_halt_still_aborts(self):
        st = machine(encode(ins("zero")) + encode(ins("halt")), descs=[Descriptor(2, 17, 1)], pc=(2, 0))
        assert st.step() == ("ok", None)
        assert st.clone().step() == ("halted", "abort:check")

    def test_new_draws_distinct_nonces(self):
        prog = encode(ins("new", 1)) + encode(ins("new", 2)) + encode(ins("new", 3)) + encode(ins("halt"))
        st = machine(prog)
        run_state(st, 10)
        seen = {st.reg(1), st.reg(2), st.reg(3)}
        assert len(seen) == 3 and all(isinstance(x, Nonce) for x in seen)

    def test_self_jump_loop_exhausts_fuel(self):
        st = machine(encode(ins("movi", 1, 0)) + encode(ins("movi", 2, 0)) + encode(ins("jmp", 1, 2)))
        kind, *_ = run_state(st, 100)
        assert kind == "fuel"

    def test_je_jumps_within_module_when_flag_set(self):
        prog = (
            encode(ins("movi", 1, 1))
            + encode(ins("movi", 2, 1))
            + encode(ins("cmp", 1, 2))
            + encode(ins("movi", 3, 18))
            + encode(ins("je", 3, ZF))
            + encode(ins("halt"))  # skipped when ZF is set
        )
        st = machine(prog)
        st.mem[Address(0, 18)] = 9  # zero
        st.mem[Address(0, 19)] = 11  # halt
        kind, _, st, _ = run_state(st, 20)
        assert kind == "halted" and st.pc == Address(0, 19)


class TestDeterminismAndIsolation:
    def random_program(self, rng):
        words = []
        for _ in range(rng.randrange(4, 12)):
            op = rng.choice(["movi", "add", "sub", "cmp", "new", "zero"])
            if op == "movi":
                words += encode(ins("movi", rng.randrange(8), rng.randrange(100)))
            elif op in ("add", "sub", "cmp"):
                words += encode(ins(op, rng.randrange(8), rng.randrange(8)))
            elif op == "new":
                words += encode(ins("new", rng.randrange(8)))
            else:
                words += encode(ins("zero"))
        words += encode(ins("halt"))
        return words

    def test_identical_seeds_identical_runs(self):
        rng = random.Random(3)
        for _ in range(25):
            prog = self.random_program(rng)
            a = machine(prog, seed=5)
            b = machine(prog, seed=5)
            ka, _, sa, na = run_state(a, 1000)
            kb, _, sb, nb = run_state(b, 1000)
            assert (ka, na) == (kb, nb)
            assert sa.regs == sb.regs and sa.flags == sb.flags

    def test_nonce_stream_is_duplicate_free(self):
        o = NonceOracle(1)
        drawn = [o.fresh() for _ in range(1000)]
        assert len(set(drawn)) == 1000

    def test_attacker_cannot_touch_protected_memory(self):
        descs = [Descriptor(2, 32, 1)]
        protected = {Address(2, i): 7 for i in range(40)}
        rng = random.Random(9)
        for _ in range(50):
            prog = []
            for _ in range(6):
                prog += encode(ins("movi", rng.randrange(4), rng.choice([0, 2, 16, 33, 100])))
                prog += encode(ins(rng.choice(["movs", "movl"]), rng.randrange(4), rng.randrange(4), rng.randrange(4)))
            prog += encode(ins("halt"))
            st = machine(prog, descs=descs)
            st.mem.update(protected)
            run_state(st, 200)
            assert all(st.mem[a] == 7 for a in protected)
