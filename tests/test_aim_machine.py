"""The aim VM: decoding, PMA access predicates, stepping, determinism."""
import itertools
import random
from typing import NamedTuple

import pytest

from jemaim.aim import access
from jemaim.aim.isa import MAX_FLAG, MAX_REG, OPTABLE, Assembler, Label
from jemaim.aim.machine import HANDLERS, SF, ZF, MachineState, run_state
from jemaim.aim.words import Address, Descriptor, Nonce, NonceOracle, Symbol
from jemaim.compiler import pipeline
from jemaim.compiler.comp import comp_class
from jemaim.compiler.encoding import ENC_OBJ, V_NULL, encode_class
from jemaim.compiler.pipeline import boot_state, compaim, run_aim
from jemaim.jem.interp import run as jem_run
from jemaim.jem.parser import parse_component
from jemaim.traces.actions import FuelExceeded, Tick
from jemaim.traces.engine import RESUME_PAD, AdversaryDomain, ComponentTracer, enumerate_traces

from corpus import COMPONENTS, INEQUIVALENT_PAIRS, WHOLE_PROGRAMS
from test_jem_lang import LOOP, NEAR_MISS_LOOPS, sum_program
from test_traces import plain_traces


def load_words(mem, mid, base, words):
    for i, w in enumerate(words):
        mem[Address(mid, base + i)] = w


def machine(program, descs=(), pc=(0, 0), seed=0):
    mem = {}
    load_words(mem, pc[0], pc[1], program)
    return MachineState(pc=Address(*pc), mem=mem, descs=list(descs), oracle=NonceOracle(seed))


def entry_at_pc(st):
    """The entry `step` applies at pc, or None when the state is stuck: the
    cached one in protected code, else decoded afresh."""
    return st._icache.get(st.pc) or st._decode()


class TestDecode:
    def test_halt_roundtrip(self):
        mem = {Address(0, 0): 11}
        st = machine([11])
        assert entry_at_pc(st)[1] == "halt"

    def test_unknown_opcode_is_undecodable(self):
        st = machine([9999])
        assert entry_at_pc(st) is None
        assert st.step()[0] == "stuck"

    def test_jmp_roundtrip_through_encoder(self):
        words = Assembler().emit("jmp", 3, 4).words()
        st = machine(words)
        e = entry_at_pc(st)
        assert e[1] == "jmp" and e[4:] == (3, 4)

    def test_operand_register_must_be_nat(self):
        st = machine([7, Symbol("x"), 4])
        assert entry_at_pc(st) is None

    def test_privileged_ops_undecodable_in_unprotected_memory(self):
        st = machine(Assembler().emit("stk_push", 1, 2, 3).words())
        assert entry_at_pc(st) is None
        desc = Descriptor(2, 64, 1)
        st2 = machine(Assembler().emit("stk_push", 1, 2, 3).words(), descs=[desc], pc=(2, 16))
        assert entry_at_pc(st2) is not None


class TestAssembler:
    def test_duplicate_label_raises(self):
        asm = Assembler().label("a").emit("halt")
        with pytest.raises(ValueError, match="duplicate label 'a'"):
            asm.label("a")

    def test_here_counts_words_not_instructions_or_labels(self):
        a = Assembler()
        assert a.here() == 0
        a.emit("movi", 1, 7)
        assert a.here() == 3
        a.label("x")
        assert a.here() == 3
        a.raw(0, 0, 0, 0)
        assert a.here() == 7
        a.emit("halt").label("y").label("z")
        assert a.here() == 8
        assert len(a.words()) == 8

    def test_labels_resolve_forward_and_backward(self):
        a = Assembler()
        a.label("top")
        a.emit("movi", 1, Label("end"))  # forward
        a.emit("je", 1, ZF)
        a.raw(Label("mid"), 5)
        a.label("mid")
        a.emit("movi", 2, Label("top"))  # backward
        a.emit("movi", 3, Label("mid"))
        a.label("end")
        a.emit("halt")
        assert a.words() == [3, 1, 14, 8, 1, ZF, 8, 5, 3, 2, 0, 3, 3, 8, 11]

    def test_words_match_the_encoder(self):
        a = Assembler()
        want = []
        for name, (_, kinds) in OPTABLE.items():
            ops = tuple(range(1, len(kinds) + 1))
            a.emit(name, *ops)
            want += [OPTABLE[name][0], *ops]
        assert a.words() == want

    def test_symbols_and_nonces_pass_through(self):
        w = [Symbol("c.m.off"), Nonce("static-c", 0)]
        a = Assembler().emit("movi", 1, w[0]).raw(w[1])
        assert a.words() == [3, 1, w[0], w[1]]

    def test_words_can_be_read_twice(self):
        a = Assembler().emit("movi", 1, Label("l")).label("l").emit("halt")
        assert a.words() == a.words() == [3, 1, 3, 11]

    @pytest.mark.parametrize("ops", [(), (1,), (1, 2, 3)])
    def test_a_wrong_operand_count_raises(self, ops):
        with pytest.raises(ValueError, match="movi takes 2 operands"):
            Assembler().emit("movi", *ops)

    def test_an_unknown_opcode_raises(self):
        with pytest.raises(KeyError):
            Assembler().emit("nop")

    def test_an_undefined_label_raises_at_words(self):
        a = Assembler().emit("movi", 1, Label("nowhere"))
        with pytest.raises(KeyError):
            a.words()


class TestEntryPoints:
    def test_entry_point_grid(self):
        d = Descriptor(2, 64, 3)
        descs = [d]
        for off in (0, 16, 32):
            assert access.entry_point(descs, Address(2, off))
        assert not access.entry_point(descs, Address(2, 48))
        assert not access.entry_point(descs, Address(2, 17))

    def test_unprotected_has_no_entry_points(self):
        assert not access.entry_point([Descriptor(2, 64, 3)], Address(0, 0))


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
        prog = Assembler().emit("movi", 1, 20).emit("movi", 2, 22).emit("add", 1, 2).emit("halt").words()
        st = machine(prog)
        kind, reason, st, steps = run_state(st, 100)
        assert kind == "halted" and st.reg(1) == 42

    def test_cmp_on_distinct_nonces_clears_zf(self):
        st = machine(Assembler().emit("cmp", 1, 2).emit("halt").words())
        st.set_reg(1, Nonce("a", 0))
        st.set_reg(2, Nonce("a", 1))
        run_state(st, 10)
        assert st.flags[ZF] == 0

    def test_cmp_same_nonce_sets_zf(self):
        st = machine(Assembler().emit("cmp", 1, 2).emit("halt").words())
        n = Nonce("a", 0)
        st.set_reg(1, n)
        st.set_reg(2, n)
        run_state(st, 10)
        assert st.flags[ZF] == 1

    def test_add_treats_nonce_as_zero(self):
        st = machine(Assembler().emit("add", 1, 2).emit("halt").words())
        st.set_reg(1, 5)
        st.set_reg(2, Nonce("a", 0))
        run_state(st, 10)
        assert st.reg(1) == 5

    def test_sub_takes_absolute_value_and_sets_sf(self):
        st = machine(Assembler().emit("movi", 1, 3).emit("movi", 2, 5).emit("sub", 1, 2).emit("halt").words())
        run_state(st, 10)
        assert st.reg(1) == 2 and st.flags[SF] == 1 and st.flags[ZF] == 0

    def test_cross_module_store_violates(self):
        descs = [Descriptor(2, 32, 1), Descriptor(3, 32, 1)]
        prog = Assembler().emit("movi", 1, 3).emit("movi", 2, 40).emit("movs", 1, 5, 2).words()
        st = machine(prog, descs=descs, pc=(2, 0))
        kind, reason, st, _ = run_state(st, 10)
        assert kind == "violation"

    def test_jmp_stamps_caller_id_into_r0(self):
        descs = [Descriptor(2, 33, 2)]
        prog = Assembler().emit("movi", 1, 16).emit("movi", 2, 2).emit("jmp", 1, 2).words()
        st = machine(prog, pc=(0, 0), descs=descs)
        st.mem[Address(2, 16)] = 11  # halt at the entry point
        kind, _, st, _ = run_state(st, 10)
        assert kind == "halted" and st.reg(0) == 0 and st.pc == Address(2, 16)

    def test_zero_clears_every_register(self):
        st = machine(Assembler().emit("zero").emit("halt").words())
        for i in range(40):
            st.set_reg(i, i + 1)
        run_state(st, 10)
        assert all(st.reg(i) == 0 for i in range(64))

    def test_clone_between_zero_and_halt_still_aborts(self):
        st = machine(Assembler().emit("zero").emit("halt").words(), descs=[Descriptor(2, 17, 1)], pc=(2, 0))
        assert st.step() == ("ok", None)
        assert st.clone().step() == ("halted", "abort:check")

    def test_new_draws_distinct_nonces(self):
        prog = Assembler().emit("new", 1).emit("new", 2).emit("new", 3).emit("halt").words()
        st = machine(prog)
        run_state(st, 10)
        seen = {st.reg(1), st.reg(2), st.reg(3)}
        assert len(seen) == 3 and all(isinstance(x, Nonce) for x in seen)

    def test_self_jump_loop_exhausts_fuel(self):
        st = machine(Assembler().emit("movi", 1, 0).emit("movi", 2, 0).emit("jmp", 1, 2).words())
        kind, *_ = run_state(st, 100)
        assert kind == "fuel"

    def test_je_jumps_within_module_when_flag_set(self):
        prog = (
            Assembler().emit("movi", 1, 1)
            .emit("movi", 2, 1)
            .emit("cmp", 1, 2)
            .emit("movi", 3, 18)
            .emit("je", 3, ZF)
            .emit("halt")  # skipped when ZF is set
            .words()
        )
        st = machine(prog)
        st.mem[Address(0, 18)] = 9  # zero
        st.mem[Address(0, 19)] = 11  # halt
        kind, _, st, _ = run_state(st, 20)
        assert kind == "halted" and st.pc == Address(0, 19)


class TestDeterminismAndIsolation:
    def random_program(self, rng):
        a = Assembler()
        for _ in range(rng.randrange(4, 12)):
            op = rng.choice(["movi", "add", "sub", "cmp", "new", "zero"])
            if op == "movi":
                a.emit("movi", rng.randrange(8), rng.randrange(100))
            elif op in ("add", "sub", "cmp"):
                a.emit(op, rng.randrange(8), rng.randrange(8))
            elif op == "new":
                a.emit("new", rng.randrange(8))
            else:
                a.emit("zero")
        return a.emit("halt").words()

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
            a = Assembler()
            for _ in range(6):
                a.emit("movi", rng.randrange(4), rng.choice([0, 2, 16, 33, 100]))
                a.emit(rng.choice(["movs", "movl"]), rng.randrange(4), rng.randrange(4), rng.randrange(4))
            st = machine(a.emit("halt").words(), descs=descs)
            st.mem.update(protected)
            run_state(st, 200)
            assert all(st.mem[a] == 7 for a in protected)


# Module 2 runs the instruction under test; module 3 is the other module.
GRID_DESCS = [Descriptor(2, 64, 2), Descriptor(3, 64, 2)]
# where the instruction sits: own code (a cached pc), unprotected memory, and
# module 2's data section, reached by falling off the end of its code
GRID_SOURCES = {"own code": Address(2, 20), "unprotected": Address(0, 20), "own data": Address(2, 64)}
GRID_TARGETS = [
    (2, 5), (2, 63), (2, 64), (2, 100),  # own code and own data
    (3, 5), (3, 0), (3, 16), (3, 32), (3, 100),  # other code, its entry points, its data
    (0, 7),  # unprotected memory
    (0, -1), (2, -1), (3, -16),  # negative offsets
    (Symbol("m"), 16), (3, Symbol("o")), (Nonce("n", 0), 0), (0, Nonce("n", 1)),
]
# instruction words with r2 = target module id and r3 = target offset, and the
# predicate that decides whether it may run
GRID_OPS = {
    "movl": (Assembler().emit("movl", 1, 2, 3).words(), access.read_allowed),
    "movs": (Assembler().emit("movs", 2, 1, 3).words(), access.write_allowed),
    "jmp": (Assembler().emit("jmp", 3, 2).words(), access.valid_jump),
}


class TestMachineAgreesWithPredicates:
    @pytest.mark.parametrize("op", sorted(GRID_OPS))
    @pytest.mark.parametrize("source", sorted(GRID_SOURCES))
    def test_grid(self, op, source):
        words, allowed = GRID_OPS[op]
        pc = GRID_SOURCES[source]
        for mid, off in GRID_TARGETS:
            # a movi just before the instruction, so that the data-section pc is
            # reached by falling off the code
            st = machine(Assembler().emit("movi", 9, 9).words() + words, descs=GRID_DESCS, pc=(pc.mid, pc.off - 3))
            st.set_reg(1, 5)
            st.set_reg(2, mid)
            st.set_reg(3, off)
            assert st.step() == ("ok", None) and st.pc == pc
            expected = "ok" if allowed(GRID_DESCS, pc, Address(mid, off)) else "violation"
            assert st.step()[0] == expected, (op, source, (mid, off))
            assert (pc in st._icache) == (source == "own code")


# r0-r20, each holding a word that no rule computes
SENTINELS = {i: Nonce("sentinel", i) for i in range(21)}
# module 2's data holds an object of class c at offset 100, masked as MASK
MASK = Nonce("mask", 0)
# words for a named register: none, module ids, an entry point, the object,
# its class, its mask, an unknown nonce and a symbol
OPERAND_WORDS = [0, 2, 3, 16, 100, encode_class("c"), MASK, Nonce("x", 0), Symbol("s")]


def register_probe(name, regs_named, loaded):
    """Every instance of opcode `name` whose register operands are
    `regs_named`, in turn, with its other operands drawn from a few words,
    each as a state at (2,20) in module 2's code with the registers of
    `loaded` set, and every combination of OPERAND_WORDS in the registers
    it names: (state, named registers)."""
    kinds = OPTABLE[name][1]
    regs = iter(regs_named)
    choices = [[next(regs)] if k == "r" else [ZF, SF] if k == "f" else [0, 42] for k in kinds]
    for operands in itertools.product(*choices):
        named = sorted({o for o, k in zip(operands, kinds) if k == "r"})
        for words in itertools.product(OPERAND_WORDS, repeat=len(named)):
            st = machine(Assembler().emit(name, *operands).words(), descs=GRID_DESCS, pc=(2, 20))
            st.mem[Address(2, 100)] = encode_class("c")
            st.add_mask(2, 100, MASK)
            st.gstore[MASK] = (encode_class("c"), 2)
            st.callstack.append((1, 2, 3))
            for i, w in {**loaded, **dict(zip(named, words))}.items():
                st.set_reg(i, w)
            yield st, named


class TestRulesTouchOnlyTheRegistersTheyName:
    """A rule reads and writes only the registers its instruction names, but
    for three exceptions: `jmp` writes r0 and `gst_add` reads it, `zero`
    clears every register, and an abort clears every register and ends the
    run. The trace engine's call prefixes rest on this (traces/engine.py).
    Every opcode of OPTABLE is probed, so a new one is covered too."""

    @pytest.mark.parametrize("name", sorted(OPTABLE))
    def test_writes(self, name):
        """Naming r6, r7 and r8 among sentinels in r0-r20, a rule leaves
        every other sentinel as it was, but r0 after a `jmp`."""
        for st, named in register_probe(name, (6, 7, 8), SENTINELS):
            status, reason = st.step()
            if name == "zero" or status == "halted" and reason.startswith("abort:"):
                assert st.regs == {}
                continue
            kept = {i: w for i, w in SENTINELS.items() if i not in named and (i, name) != (0, "jmp")}
            assert {i: st.reg(i) for i in kept} == kept, (name, named)
            assert set(st.regs) <= set(SENTINELS)

    @pytest.mark.parametrize("name", sorted(OPTABLE))
    def test_reads(self, name):
        """Naming r21 and up, a rule behaves alike with r0-r20 holding
        sentinels and with them unset (r0 is set in both for `gst_add`), and
        leaves the sentinels as the first test says."""
        probed = {i: w for i, w in SENTINELS.items() if (i, name) != (0, "gst_add")}
        unprobed = {i: w for i, w in SENTINELS.items() if i not in probed}
        pairs = zip(register_probe(name, (21, 22, 23), SENTINELS), register_probe(name, (21, 22, 23), unprobed))
        for (st, named), (bare, _) in pairs:
            outcome, bare_outcome = st.step(), bare.step()

            def seen(s, outcome):
                return outcome, s.pc, s.flags, s.mem, s.gstore, s.masks, s.callstack, s.oracle.cursor, s._last_op

            assert seen(st, outcome) == seen(bare, bare_outcome), (name, named)
            cleared = name == "zero" or outcome[0] == "halted" and outcome[1].startswith("abort:")
            assert st.regs == ({} if cleared else {**probed, **bare.regs}), (name, named)


class TestDecodeCache:
    def test_unprotected_code_runs_what_it_wrote(self):
        # offsets 0-12 overwrite the immediate of `movi 5, 1` at 13 with 42
        prog = (
            Assembler().emit("movi", 1, 0)
            .emit("movi", 2, 15)
            .emit("movi", 3, 42)
            .emit("movs", 1, 3, 2)
            .emit("movi", 5, 1)
            .emit("halt")
            .words()
        )
        st = machine(prog)
        st.pc = Address(0, 13)
        e = entry_at_pc(st)
        assert (e[1], e[4:]) == ("movi", (5, 1))  # decoded before the write
        st.pc = Address(0, 0)
        before = st.clone()
        unwritten = st.clone()
        assert run_state(st, 20)[0] == "halted" and st.reg(5) == 42
        assert run_state(before, 20)[0] == "halted" and before.reg(5) == 42
        unwritten.pc = Address(0, 13)  # skips the write: its memory is unchanged
        assert run_state(unwritten, 20)[0] == "halted" and unwritten.reg(5) == 1

    def test_privileged_op_in_protected_data_is_stuck(self):
        st = machine(Assembler().emit("stk_push", 1, 2, 3).words(), descs=GRID_DESCS, pc=(2, 64))
        assert entry_at_pc(st) is None
        assert st.step()[0] == "stuck"
        assert not st.callstack and not st._icache

    def test_load_from_protected_data_is_denied(self):
        st = machine(Assembler().emit("movl", 1, 2, 3).words(), descs=GRID_DESCS, pc=(2, 70))
        st.set_reg(2, 2)
        st.set_reg(3, 100)
        kind, reason, _, _ = run_state(st, 10)
        assert kind == "violation" and reason.startswith("read denied")


class RefInstr(NamedTuple):
    """An instruction as `reference_instr` reads it: its name and operands."""

    name: str
    ops: tuple

    @property
    def width(self) -> int:
        return 1 + len(self.ops)


def reference_instr(read, off, privileged_ok):
    """The instruction at `off` by the decoding rule stated apart from
    `isa.decode`: `read(off)` gives each word, and OPTABLE the operand kinds."""
    w = read(off)
    found = [(name, op, kinds) for name, (op, kinds) in OPTABLE.items() if isinstance(w, int) and w == op]
    if not found:
        return None
    [(name, op, kinds)] = found
    if op >= 64 and not privileged_ok:
        return None
    ops = tuple(read(off + 1 + i) for i in range(len(kinds)))
    for v, kind in zip(ops, kinds):
        bound = {"r": MAX_REG, "f": MAX_FLAG + 1}.get(kind)
        if bound is not None and not (isinstance(v, int) and 0 <= v < bound):
            return None
    return RefInstr(name, ops)


def reference_entry(st):
    """The entry for pc: `reference_instr` through `load`, its `HANDLERS`
    method, the fall-through address, the descriptor whose code holds pc, and
    the spin rule."""
    pc = st.pc
    s = access.find_module(st.descs, pc)
    if s is not None and not access.code_range(s, pc):
        s = None
    i = reference_instr(lambda o: st.load((pc.mid, o)), pc.off, s is not None)
    if i is None:
        return None
    handler = HANDLERS[i.name]
    if s is not None and i.name == "movi" and i.ops[1] == pc.off and pc.off + 9 <= s.code_len:
        c, j = (reference_instr(lambda o: st.load((s.mid, o)), o, True) for o in (pc.off + 3, pc.off + 6))
        if c is not None and c.name == "cmp" and c.ops[0] == c.ops[1] and j == RefInstr("je", (i.ops[0], ZF)):
            handler = MachineState._op_spin
    return (handler, i.name, Address(pc.mid, pc.off + i.width), s, *i.ops)


def decoded_as_reference(st):
    """`_decode` at pc, checked against `reference_entry` and cached exactly
    in protected code."""
    expected = reference_entry(st)
    st._icache.clear()
    e = st._decode()
    assert e == expected, st.pc
    assert e is None or type(e[2]) is Address
    assert (st.pc in st._icache) == (e is not None and e[3] is not None)
    return e


# the 52 images of the .aimod pins
DECODED_SOURCES = {
    **{f"whole.{name}": src for name, src in WHOLE_PROGRAMS.items()},
    **COMPONENTS,
    **{f"{name}.{side}": pair[side] for name, pair in INEQUIVALENT_PAIRS.items() for side in (0, 1)},
}


class TestDecodeAgreesWithTheReference:
    @pytest.mark.parametrize("name", sorted(DECODED_SOURCES))
    def test_every_code_offset(self, name):
        """Each offset of each module's code, padding included, and the words
        just outside it; in a booted state, whose code sits in its tuples, and
        in one that keeps every word in `mem`, alike."""
        img = compaim(parse_component(DECODED_SOURCES[name]))
        booted = boot_state(img)
        flat = booted.clone()
        flat.mem.update((Address(mid, off), w) for mid, ws in img.code.items() for off, w in enumerate(ws))
        flat.code, flat._icache = {}, {}
        assert booted.code and all(d.mid in booted.code for d in booted.descs)
        for d in booted.descs:
            for off in range(-1, d.code_len + 4):
                booted.pc = flat.pc = Address(d.mid, off)
                assert decoded_as_reference(booted) == decoded_as_reference(flat)

    def test_a_symbol_opcode(self):
        for pc in ((0, 0), (2, 20)):
            st = machine([Symbol("op"), 1, 2], descs=GRID_DESCS, pc=pc)
            assert decoded_as_reference(st) is None

    @pytest.mark.parametrize("pc", [(0, 0), (2, 20)], ids=["unprotected", "protected"])
    def test_register_and_flag_bounds(self, pc):
        cases = {
            ("movi", MAX_REG - 1, 1): True,
            ("movi", MAX_REG, 1): False,
            ("movi", -1, 1): False,
            ("je", 1, MAX_FLAG): True,
            ("je", 1, MAX_FLAG + 1): False,
        }
        for (name, *ops), ok in cases.items():
            st = machine(Assembler().emit(name, *ops).words(), descs=GRID_DESCS, pc=pc)
            assert (decoded_as_reference(st) is not None) == ok, (name, ops)

    def test_a_privileged_opcode_decodes_only_in_protected_code(self):
        words = Assembler().emit("stk_push", 1, 2, 3).words()
        assert decoded_as_reference(machine(words, descs=GRID_DESCS, pc=(0, 20))) is None
        assert decoded_as_reference(machine(words, descs=GRID_DESCS, pc=(2, 64))) is None
        e = decoded_as_reference(machine(words, descs=GRID_DESCS, pc=(2, 20)))
        assert e[1:] == ("stk_push", Address(2, 24), GRID_DESCS[0], 1, 2, 3)

    def test_an_unprotected_pc_is_not_cached(self):
        st = machine(Assembler().emit("movi", 1, 7).words(), descs=GRID_DESCS, pc=(0, 20))
        e = decoded_as_reference(st)
        assert e[1:] == ("movi", Address(0, 23), None, 1, 7) and not st._icache
        assert st.step() == ("ok", None) and not st._icache


def shared(program, words=()):
    """A state that runs `program` from (2,20) in module 2's code, with the
    (address, word) pairs of `words` written, laid out as `boot_state` lays
    out an image: module 2's code section a tuple in `code`, every other
    word in `mem`."""
    st = machine(program, descs=GRID_DESCS, pc=(2, 20))
    st.mem.update(words)
    st.code = {2: tuple(st.mem.pop(Address(2, off), 0) for off in range(GRID_DESCS[0].code_len))}
    return st


class TestSharedCode:
    def test_clones_of_a_tracer_state_share_one_code_map(self):
        img = compaim(parse_component(COMPONENTS["cell"]))
        st = ComponentTracer(img).initial()
        a, b = st.clone(), st.clone()
        assert a.code is st.code and b.code is st.code and st.code is img.code
        assert sorted(st.code) == sorted(d.mid for d in img.descs)
        assert all(len(st.code[d.mid]) == d.code_len for d in img.descs)
        assert st.mem.items() >= img.mem.items()
        assert not any(off < len(st.code.get(mid, ())) for mid, off in st.mem)

    def test_data_and_unprotected_writes_stay_in_their_clone(self):
        # store 7 at (2,100), module 2's data, then at (0,100), unprotected
        prog = (
            Assembler().emit("movi", 1, 2)
            .emit("movi", 2, 100)
            .emit("movi", 3, 7)
            .emit("movs", 1, 3, 2)
            .emit("movi", 1, 0)
            .emit("movs", 1, 3, 2)
            .emit("halt")
            .words()
        )
        st = shared(prog)
        code = dict(st.code)
        a, b = st.clone(), st.clone()
        assert run_state(a, 20)[0] == "halted"
        assert a.mem[Address(2, 100)] == 7 and a.mem[Address(0, 100)] == 7
        for other in (st, b):
            assert Address(2, 100) not in other.mem and Address(0, 100) not in other.mem
        assert a.code is st.code and st.code == code
        assert run_state(b, 20)[0] == "halted" and b.mem[Address(0, 100)] == 7

    def test_movl_reads_its_own_code_section(self):
        # (2,5) is a word of module 2's code, read by its own movl
        prog = Assembler().emit("movi", 2, 2).emit("movi", 3, 5).emit("movl", 1, 2, 3).emit("halt").words()
        st = shared(prog, {Address(2, 5): 4242})
        assert st.code[2][5] == 4242 and Address(2, 5) not in st.mem
        assert run_state(st, 10)[0] == "halted" and st.reg(1) == 4242

    def test_tbl_add_reads_the_class_word(self):
        prog = Assembler().emit("movi", 1, 100).emit("tbl_add", 1).emit("halt").words()
        st = shared(prog, {Address(2, 100): encode_class("c")})
        assert run_state(st, 10)[0] == "halted"
        mask = st.reg(1)
        assert isinstance(mask, Nonce) and st.gstore[mask] == (encode_class("c"), 2)

    def test_boot_state_shares_the_image_code(self):
        img = compaim(parse_component(COMPONENTS["cell"]))
        st = boot_state(img)
        assert st.code is img.code and all(st.mem[a] == w for a, w in img.mem.items())
        for other in (st, st.clone(), st.clone().clone(), boot_state(img, seed=3)):
            assert all(other.code[m] is img.code[m] for m in img.code)


class TestChecks:
    """Two machine checks that no corpus program reaches, run on hand-built
    states: `tychk` at `Obj`, and `tbl_add` drawing a mask G already holds."""

    @pytest.mark.parametrize(
        "word, reason",
        [(V_NULL, "halt"), (MASK, "halt"), (5, "abort:typecheck-obj"), (Nonce("x", 0), "abort:typecheck-obj")],
    )
    def test_tychk_admits_null_and_a_registered_mask_at_obj(self, word, reason):
        prog = Assembler().emit("movi", 1, word).emit("movi", 2, ENC_OBJ).emit("tychk", 1, 2).emit("halt").words()
        st = shared(prog)
        st.gstore[MASK] = (encode_class("c"), 3)
        assert run_state(st, 10)[:2] == ("halted", reason)

    def test_tbl_add_aborts_when_its_fresh_mask_is_already_known(self):
        prog = Assembler().emit("movi", 1, 100).emit("tbl_add", 1).emit("halt").words()
        st = shared(prog, {Address(2, 100): encode_class("c")})
        st.gstore[NonceOracle(0).fresh()] = (encode_class("c"), 3)  # the mask tbl_add draws
        assert run_state(st, 10)[:2] == ("halted", "abort:gstore-duplicate")
        assert st.regs == {}


def plain_run(st, fuel, trail=None):
    """`run_state` without the spin rule: each step decodes with
    `reference_instr` and applies its opcode's handler, so a spin is stepped
    like any loop. When `trail` is a list, each step's (pc, instruction) is
    appended to it."""
    for n in range(fuel):
        pc = st.pc
        s = access.find_module(st.descs, pc)
        if s is not None and not access.code_range(s, pc):
            s = None
        i = reference_instr(lambda o: st.load((pc.mid, o)), pc.off, s is not None)
        if i is None:
            return ("stuck", f"undecodable at {pc}", st, n + 1)
        if trail is not None:
            trail.append((pc, i))
        out = HANDLERS[i.name](st, (None, i.name, Address(pc.mid, pc.off + i.width), s, *i.ops))
        st._last_op = i.name
        if out:
            return (*out, st, n + 1)
    return ("fuel", None, st, fuel)


def plain_run_aim(img, fuel, trail=None):
    """`run_aim` of `img` at seed 1, driven by `plain_run`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "run_state", lambda st, f: plain_run(st, f, trail))
        return run_aim(img, seed=1, fuel=fuel)


def steps_to_spin(img) -> int:
    """The plain steps a run of `img` takes up to and including the head of
    its first spin, a `movi 11, L` at L (compiler/comp.py)."""
    trail = []
    plain_run_aim(img, 1_000, trail)
    heads = [n for n, (pc, i) in enumerate(trail) if i == RefInstr("movi", (11, pc.off))]
    assert heads, "no spin within 1 000 steps"
    return 1 + heads[0]


# the whole programs that reach a proven loop
LOOPING = ("diverge-conditional", "diverge-spin")


@pytest.fixture
def step_calls(monkeypatch):
    calls = [0]
    step = MachineState.step

    def counted(self):
        calls[0] += 1
        return step(self)

    monkeypatch.setattr(MachineState, "step", counted)
    return calls


def observed(kind, reason, steps, st) -> tuple:
    """A run's outcome and everything a rule may write in its final state."""
    return (kind, reason, steps, st.pc, st.regs, st.flags, st.mem, st.masks, st.gstore, st.callstack, st._last_op)


def observed_aim(r) -> tuple:
    return observed(r.kind, r.reason, r.steps, r.state)


def observed_state(run) -> tuple:
    kind, reason, st, steps = run
    return observed(kind, reason, steps, st)


def warm_loop(*body) -> list:
    """A protected loop from (2,0): the instructions of `body`, then a jump
    back to its head. From the second pass on, each in-place rule of `body`
    runs on a warm cache."""
    a = Assembler().label("top")
    for name, *ops in body:
        a.emit(name, *ops)
    return a.emit("movi", 9, Label("top")).emit("cmp", 0, 0).emit("je", 9, ZF).words()


NONCE, SYMBOL = Nonce("adv", 0), Symbol("x")

# loops whose in-place rule runs once and, after its last instruction writes a
# register, faults or reads a Nonce as 0 on the next pass: body, registers
# preset, and the outcome
WARM_FAULTS = {
    "movl-nonce-address": ([("movl", 1, 2, 3), ("movi", 3, NONCE)], {3: 100}, "bad load address"),
    "movs-nonce-address": ([("movs", 2, 1, 3), ("movi", 2, NONCE)], {3: 100}, "bad store address"),
    "movl-other-module": ([("movl", 1, 2, 3), ("movi", 2, 3)], {3: 10}, "read denied (2,0)->(3,10)"),
    "movl-negative-offset": ([("movl", 1, 2, 3), ("movi", 3, -1)], {3: 100}, "read denied (2,0)->(0,-1)"),
    "movs-other-module": ([("movs", 2, 1, 3), ("movi", 2, 3)], {3: 100}, "write denied (2,0)->(3,100)"),
    "movs-own-code": ([("movs", 2, 1, 3), ("movi", 3, 10)], {2: 2, 3: 100}, "write denied (2,0)->(2,10)"),
    "add-symbol": ([("add", 1, 2), ("movi", 2, SYMBOL)], {2: 5}, "symbol in arithmetic"),
    "sub-symbol": ([("sub", 1, 2), ("movi", 1, SYMBOL)], {1: 5, 2: 7}, "symbol in arithmetic"),
    "add-nonce": ([("add", 1, 2), ("movi", 2, NONCE)], {2: 5}, None),
    "sub-nonce": ([("sub", 1, 2), ("movi", 1, NONCE)], {1: 5, 2: 7}, None),
    "je-to-symbol": ([("cmp", 0, 0), ("je", 5, ZF), ("movi", 5, SYMBOL)], {5: 6}, "bad branch offset"),
}


def zero_loop(*end) -> list:
    """A protected loop from (2,0) that clears the registers, runs movi, movi
    and je in place and, on its second pass, jumps to the instructions of
    `end`."""
    a = Assembler().label("top").emit("zero").emit("movi", 1, 7).emit("movi", 8, Label("end")).emit("je", 8, ZF)
    a.emit("movi", 9, Label("top")).emit("cmp", 0, 0).emit("je", 9, ZF).label("end")
    for name in end:
        a.emit(name)
    return a.words()


class TestRunStateAgreesWithPlainStepping:
    def test_run_state(self, step_calls):
        total = 0
        for name, src in WHOLE_PROGRAMS.items():
            img = compaim(parse_component(src))
            step_calls[0] = 0
            r = run_aim(img, seed=1, fuel=300_000)
            if name in LOOPING:
                # proven at its head, however the loop reaches it; the plain
                # stepper is compared at a fuel it can afford
                assert (repr(r), r.steps) == ("OutOfFuel", 300_000)
                assert step_calls[0] <= steps_to_spin(img) + 6, name
                r = run_aim(img, seed=1, fuel=3_000)
                assert observed_aim(r) == observed_aim(plain_run_aim(img, 3_000)), name
                continue
            assert observed_aim(r) == observed_aim(plain_run_aim(img, 300_000)), name
            if r.kind == "halted" and not r.aborted:
                total += r.steps
        assert total == 5_260  # the terminating corpus, as perfbench counts it

    def test_corpus_aim_steps_per_jem_step(self):
        """Compiled code takes 5 260 aim steps for the 729 jem steps of the
        terminating corpus: 7.2 per jem step, with frames and operands in
        registers (compiler/comp.py), entry checks and sys included."""
        aim = jem = 0
        for src in WHOLE_PROGRAMS.values():
            r = run_aim(compaim(parse_component(src)), seed=1, fuel=300_000)
            if r.kind == "halted" and not r.aborted:
                aim += r.steps
                jem += jem_run(parse_component(src), fuel=100_000).steps
        assert (aim, jem) == (5_260, 729)
        assert round(aim / jem, 2) == 7.22

    def test_component_tracer_run(self, step_calls):
        """The trace engine makes one `step()` call per step; `run_state` from
        a poked state ends as plain stepping does, in as many steps."""
        methods, call = NEAR_MISS_LOOPS["sequence"]
        img = compaim(parse_component(LOOP.format(methods=methods, call=call)))
        tracer = ComponentTracer(img, segment_fuel=500)
        [(_, mask)] = list(img.table.eo.items())
        [m] = [a for s, a in img.table.em.items() if s.name == "m"]
        seg = tracer.call_method(tracer.initial(), m, mask, ())
        assert isinstance(seg.reply, FuelExceeded) and step_calls[0] == 500

        # a direct poke aborts: one `step()` call per step, and as many steps
        # as run_state takes from that state
        step_calls[0] = 0
        seg = tracer.poke(tracer.initial(), m, {})
        assert isinstance(seg.reply, Tick)
        poked = step_calls[0]
        st = tracer.initial()
        st.set_reg(5, RESUME_PAD)
        st.pc = m
        plain = st.clone()
        r = run_state(st, 500)
        assert observed_state(r) == observed_state(plain_run(plain, 500))
        assert poked == r[3] > 1

    @pytest.mark.parametrize("pending", [1, 4, 7])
    @pytest.mark.parametrize("levels", [20, 600, 1_700])
    def test_deep_recursion(self, pending, levels):
        img = compaim(parse_component(sum_program(pending, levels)))
        r = run_aim(img, seed=1, fuel=200_000)
        assert r.kind == "halted" and observed_aim(r) == observed_aim(plain_run_aim(img, 200_000))

    def test_deep_recursion_runs_in_place(self, step_calls):
        """Fails at a parent that calls `step()` once per step."""
        r = run_aim(compaim(parse_component(sum_program(1, 600))), seed=1, fuel=100_000)
        assert (repr(r), r.steps) == ("Halted(r6=180300)", 25_931) and step_calls[0] <= 200

    @pytest.mark.parametrize(
        "src",
        [WHOLE_PROGRAMS["cross-call"], sum_program(1, 20), WHOLE_PROGRAMS["diverge-conditional"]],
        ids=["cross-call", "sum-20", "diverge-conditional"],
    )
    def test_every_fuel(self, src):
        """Each fuel to the end of the run, or to 12 steps past the spin's
        head, ends as plain stepping does."""
        img = compaim(parse_component(src))
        r = run_aim(img, seed=1, fuel=100_000)
        last = r.steps if r.kind == "halted" else steps_to_spin(img) + 12
        plain = plain_run_aim(img, 0).state
        for fuel in range(1, last + 1):
            kind, reason, _, _ = plain_run(plain, 1)
            assert observed_aim(run_aim(img, seed=1, fuel=fuel)) == observed(kind, reason, fuel, plain), fuel

    @pytest.mark.parametrize("name", sorted(WARM_FAULTS))
    def test_a_rule_that_faults_on_a_warm_cache(self, name):
        body, regs, reason = WARM_FAULTS[name]
        st = machine(warm_loop(*body), descs=GRID_DESCS, pc=(2, 0))
        st.regs.update(regs)
        plain = st.clone()
        r = run_state(st, 100)
        assert observed_state(r) == observed_state(plain_run(plain, 100))
        if reason is None:
            assert r[:2] == ("fuel", None)
        else:
            assert r[:2] == ("violation", reason) and r[3] > len(body) + 3  # on a later pass

    @pytest.mark.parametrize("end", [["halt"], ["zero", "halt"]], ids=["halt", "zero-halt"])
    def test_halt_after_rules_run_in_place(self, end):
        """`halt` reads the last op, which `run_state` may have run in place:
        after `je`, it halts; after `zero`, it is the abort idiom."""
        st = machine(zero_loop(*end), descs=GRID_DESCS, pc=(2, 0))
        plain = st.clone()
        r = run_state(st, 100)
        assert observed_state(r) == observed_state(plain_run(plain, 100))
        assert r[:2] == ("halted", "halt" if end == ["halt"] else "abort:check")


def spin_at(off, cmp=(0, 0), je=(11, ZF), target=None):
    """The spin `movi 11, L; cmp 0, 0; je 11, ZF` at L = `off`, or a variant
    with other `cmp` or `je` operands or another `movi` target."""
    return Assembler().emit("movi", 11, off if target is None else target).emit("cmp", *cmp).emit("je", *je).words()


def spin_entries(st) -> list:
    """The cached entries of `st` that have the spin handler."""
    return [e for e in st._icache.values() if e[0] == MachineState._op_spin]


# loops the machine must step: each runs forever, but it is not the spin in
# protected code, so nothing proves it (descriptors, pc, program, registers
# and SF preset)
STEPPED_LOOPS = {
    "unprotected": ([], (0, 20), spin_at(20), {}, 0),
    "distinct-cmp-registers": (GRID_DESCS, (2, 20), spin_at(20, cmp=(1, 2)), {}, 0),
    "je-on-sf": (GRID_DESCS, (2, 20), spin_at(20, je=(11, SF)), {}, 1),
    "je-on-another-register": (GRID_DESCS, (2, 20), spin_at(20, je=(12, ZF)), {12: 20}, 0),
    "movi-to-another-label": (GRID_DESCS, (2, 20), spin_at(20, target=23), {}, 0),
    "past-the-code-section": ([Descriptor(2, 28, 1)], (2, 20), spin_at(20), {}, 0),
}


class TestProvenLoops:
    def test_spin_stops_stepping(self, step_calls):
        """Fails at a parent without the rule by its count of steps."""
        img = compaim(parse_component(WHOLE_PROGRAMS["diverge-spin"]))
        r = run_aim(img, seed=1, fuel=10**6)
        assert (r.kind, r.reason, r.steps, repr(r)) == ("fuel", None, 10**6, "OutOfFuel")
        assert step_calls[0] <= 200

    def test_every_fuel_ends_as_plain_stepping_does(self):
        """Fuel spent before the loop, at its head and on each residue of its
        period of 3: result and final machine state as the plain stepper's."""
        img = compaim(parse_component(WHOLE_PROGRAMS["diverge-spin"]))
        for fuel in range(1, steps_to_spin(img) + 13):
            r, p = run_aim(img, seed=1, fuel=fuel), plain_run_aim(img, fuel)
            assert (r.kind, r.reason, r.value, r.steps) == (p.kind, p.reason, p.value, p.steps) == ("fuel", None, r.value, fuel)
            a, b = r.state, p.state
            assert (a.pc, a.regs, a.flags, a.mem, a._last_op) == (b.pc, b.regs, b.flags, b.mem, b._last_op), fuel

    def test_a_self_call_body_compiles_to_the_spin(self):
        comp = parse_component(WHOLE_PROGRAMS["diverge-spin"])
        compaim(comp)  # checks the component, leaving the facts the compiler reads
        cc = comp_class(comp, comp.classes[0], 2)
        a = Assembler()
        cc.emit_body(a, comp.classes[0].method("spin"))
        assert a.words() == spin_at(0)

    @pytest.mark.parametrize("name", sorted(NEAR_MISS_LOOPS))
    def test_near_misses_compile_without_the_spin(self, name):
        """Passes without the rule too, by construction: these must not take it."""
        methods, call = NEAR_MISS_LOOPS[name]
        comp = parse_component(LOOP.format(methods=methods, call=call))
        img = compaim(comp)
        cc = comp_class(comp, comp.classes[0], 2)
        for m in comp.classes[0].methods:
            a = Assembler()
            cc.emit_body(a, m)
            assert a.here() > 9, m.name  # more than a spin: 3 instructions of 3 words
        r = run_aim(img, seed=1, fuel=5_000)
        assert (repr(r), r.steps) == ("OutOfFuel", 5_000) and not spin_entries(r.state)
        assert observed_aim(r) == observed_aim(plain_run_aim(img, 5_000))

    @pytest.mark.parametrize("name", sorted(STEPPED_LOOPS))
    def test_loops_that_are_not_the_spin_are_stepped(self, name):
        descs, pc, program, regs, sf = STEPPED_LOOPS[name]
        st = machine(program, descs=descs, pc=pc)
        st.regs.update(regs)
        st.flags[SF] = sf
        plain = st.clone()
        r = run_state(st, 300)
        assert r[:2] == ("fuel", None) and not spin_entries(st)
        assert observed_state(r) == observed_state(plain_run(plain, 300))

    def test_the_spin_in_protected_code_is_proven(self, step_calls):
        st = machine(spin_at(20), descs=GRID_DESCS, pc=(2, 20))
        st.set_reg(11, 7)
        plain = st.clone()
        kind, _, _, steps = run_state(st, 10**6)
        assert (kind, steps) == ("fuel", 10**6) and step_calls[0] <= 5
        plain_run(plain, 10**6 % 300 + 300)  # the same residue of the period
        assert (st.pc, st.regs, st.flags, st._last_op) == (plain.pc, plain.regs, plain.flags, plain._last_op)

    @pytest.mark.parametrize("side", [0, 1])
    def test_length_divergence_trace_set(self, side, step_calls):
        """Fails at a parent without the rule by its count of steps: there
        each segment that ends on fuel steps its 100 000 steps."""
        img = compaim(parse_component(INEQUIVALENT_PAIRS["length-divergence"][side]))
        traces = enumerate_traces(img, depth=3)
        assert step_calls[0] < 10_000
        assert traces == plain_traces(img, 3, AdversaryDomain())[0]
