"""The aim VM: decoding, PMA access predicates, stepping, determinism."""
import random

import pytest

from jemaim.aim import access
from jemaim.aim.isa import Assembler, encode, ins
from jemaim.aim.machine import HANDLERS, SF, ZF, MachineState, run_state
from jemaim.aim.words import N_W, Address, Descriptor, Nonce, NonceOracle, Symbol
from jemaim.compiler import pipeline
from jemaim.compiler.comp import comp_class
from jemaim.compiler.encoding import encode_class
from jemaim.compiler.pipeline import boot_state, compaim, run_aim
from jemaim.jem.parser import parse_component
from jemaim.traces.actions import FuelExceeded, Tick
from jemaim.traces.engine import RESUME_PAD, AdversaryDomain, ComponentTracer, enumerate_traces

from corpus import COMPONENTS, INEQUIVALENT_PAIRS, WHOLE_PROGRAMS
from test_jem_lang import LOOP, NEAR_MISS_LOOPS
from test_traces import plain_traces


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
    "movl": (encode(ins("movl", 1, 2, 3)), access.read_allowed),
    "movs": (encode(ins("movs", 2, 1, 3)), access.write_allowed),
    "jmp": (encode(ins("jmp", 3, 2)), access.valid_jump),
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
            st = machine(encode(ins("movi", 9, 9)) + words, descs=GRID_DESCS, pc=(pc.mid, pc.off - 3))
            st.set_reg(1, 5)
            st.set_reg(2, mid)
            st.set_reg(3, off)
            assert st.step() == ("ok", None) and st.pc == pc
            expected = "ok" if allowed(GRID_DESCS, pc, Address(mid, off)) else "violation"
            assert st.step()[0] == expected, (op, source, (mid, off))
            assert (pc in st._icache) == (source == "own code")


class TestDecodeCache:
    def test_unprotected_code_runs_what_it_wrote(self):
        # offsets 0-12 overwrite the immediate of `movi 5, 1` at 13 with 42
        prog = (
            encode(ins("movi", 1, 0))
            + encode(ins("movi", 2, 15))
            + encode(ins("movi", 3, 42))
            + encode(ins("movs", 1, 3, 2))
            + encode(ins("movi", 5, 1))
            + encode(ins("halt"))
        )
        st = machine(prog)
        st.pc = Address(0, 13)
        assert st.peek() == ins("movi", 5, 1)  # decoded before the write
        st.pc = Address(0, 0)
        before = st.clone()
        unwritten = st.clone()
        assert run_state(st, 20)[0] == "halted" and st.reg(5) == 42
        assert run_state(before, 20)[0] == "halted" and before.reg(5) == 42
        unwritten.pc = Address(0, 13)  # skips the write: its memory is unchanged
        assert run_state(unwritten, 20)[0] == "halted" and unwritten.reg(5) == 1

    def test_privileged_op_in_protected_data_is_stuck(self):
        st = machine(encode(ins("stk_push", 1, 2, 3)), descs=GRID_DESCS, pc=(2, 64))
        assert st.peek() is None
        assert st.step()[0] == "stuck"
        assert not st.callstack and not st._icache

    def test_load_from_protected_data_is_denied(self):
        st = machine(encode(ins("movl", 1, 2, 3)), descs=GRID_DESCS, pc=(2, 70))
        st.set_reg(2, 2)
        st.set_reg(3, 100)
        kind, reason, _, _ = run_state(st, 10)
        assert kind == "violation" and reason.startswith("read denied")


def shared(program, words=()):
    """A state that runs `program` from (2,20) in module 2's code, with the
    (address, word) pairs of `words` written, its protected code then split
    off into the shared map."""
    st = machine(program, descs=GRID_DESCS, pc=(2, 20))
    st.mem.update(words)
    st.share_code()
    return st


class TestSharedCode:
    def test_clones_of_a_tracer_state_share_one_code_map(self):
        img = compaim(parse_component(COMPONENTS["cell"]))
        st = ComponentTracer(img).initial()
        a, b = st.clone(), st.clone()
        assert a.code is st.code and b.code is st.code
        code_len = {d.mid: d.code_len for d in img.descs}
        assert set(st.code) == {x for x in img.mem if x.off < code_len.get(x.mid, 0)}
        assert {**st.mem, **st.code}.items() >= img.mem.items()
        assert not st.mem.keys() & st.code.keys()

    def test_data_and_unprotected_writes_stay_in_their_clone(self):
        # store 7 at (2,100), module 2's data, then at (0,100), unprotected
        prog = (
            encode(ins("movi", 1, 2))
            + encode(ins("movi", 2, 100))
            + encode(ins("movi", 3, 7))
            + encode(ins("movs", 1, 3, 2))
            + encode(ins("movi", 1, 0))
            + encode(ins("movs", 1, 3, 2))
            + encode(ins("halt"))
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
        prog = encode(ins("movi", 2, 2)) + encode(ins("movi", 3, 5)) + encode(ins("movl", 1, 2, 3)) + encode(ins("halt"))
        st = shared(prog, {Address(2, 5): 4242})
        assert Address(2, 5) in st.code and Address(2, 5) not in st.mem
        assert run_state(st, 10)[0] == "halted" and st.reg(1) == 4242

    def test_tbl_add_reads_the_class_word(self):
        prog = encode(ins("movi", 1, 100)) + encode(ins("tbl_add", 1)) + encode(ins("halt"))
        st = shared(prog, {Address(2, 100): encode_class("c")})
        assert run_state(st, 10)[0] == "halted"
        mask = st.reg(1)
        assert isinstance(mask, Nonce) and st.gstore[mask] == (encode_class("c"), 2)

    def test_boot_state_keeps_every_word_in_mem(self):
        img = compaim(parse_component(COMPONENTS["cell"]))
        st = boot_state(img)
        assert st.code == {} and all(st.mem[a] == w for a, w in img.mem.items())


def plain_run(st, fuel, trail=None):
    """`run_state` without the spin rule: each step decodes with `peek` and
    applies its opcode's handler, so a spin is stepped like any loop. When
    `trail` is a list, each step's (pc, instruction) is appended to it."""
    for n in range(fuel):
        pc, i = st.pc, st.peek()
        if i is None:
            return ("stuck", f"undecodable at {pc}", st, n + 1)
        if trail is not None:
            trail.append((pc, i))
        s = st.module(pc.mid)
        if s is not None and not access.code_range(s, pc):
            s = None
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
    heads = [n for n, (pc, i) in enumerate(trail) if i == ins("movi", 11, pc.off)]
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


class TestOneStepCallPerStep:
    def test_run_state(self, step_calls):
        total = 0
        for name, src in WHOLE_PROGRAMS.items():
            img = compaim(parse_component(src))
            step_calls[0] = 0
            r = run_aim(img, seed=1, fuel=300_000)
            if name in LOOPING:
                assert (repr(r), r.steps) == ("OutOfFuel", 300_000)
                assert step_calls[0] <= steps_to_spin(img) + 6
                continue
            assert step_calls[0] == r.steps
            if r.kind == "halted" and not r.aborted:
                total += r.steps
        assert total == 12_168  # the terminating corpus, as perfbench counts it

    def test_component_tracer_run(self, step_calls):
        methods, call = NEAR_MISS_LOOPS["sequence"]
        img = compaim(parse_component(LOOP.format(methods=methods, call=call)))
        tracer = ComponentTracer(img, segment_fuel=500)
        [(_, mask)] = list(img.table.eo.items())
        [m] = [a for s, a in img.table.em.items() if s.name == "m"]
        seg = tracer.call_method(tracer.initial(), m, mask, ())
        assert isinstance(seg.reply, FuelExceeded) and step_calls[0] == 500

        # a direct poke aborts: as many calls as run_state takes from that state
        step_calls[0] = 0
        seg = tracer.poke(tracer.initial(), m, {})
        assert isinstance(seg.reply, Tick)
        poked = step_calls[0]
        st = tracer.initial()
        st.set_reg(5, RESUME_PAD)
        st.pc = m
        step_calls[0] = 0
        _, _, _, steps = run_state(st, 500)
        assert poked == steps == step_calls[0] and steps > 1


def spin_at(off, cmp=(0, 0), je=(11, ZF), target=None):
    """The spin `movi 11, L; cmp 0, 0; je 11, ZF` at L = `off`, or a variant
    with other `cmp` or `je` operands or another `movi` target."""
    return encode(ins("movi", 11, off if target is None else target)) + encode(ins("cmp", *cmp)) + encode(ins("je", *je))


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
    def test_near_misses_compile_without_the_spin(self, name, step_calls):
        """Passes without the rule too, by construction: these must not take it."""
        methods, call = NEAR_MISS_LOOPS[name]
        comp = parse_component(LOOP.format(methods=methods, call=call))
        img = compaim(comp)
        cc = comp_class(comp, comp.classes[0], 2)
        for m in comp.classes[0].methods:
            a = Assembler()
            cc.emit_body(a, m)
            assert len(a.items) > 4, m.name  # the label and more than a spin
        r = run_aim(img, seed=1, fuel=5_000)
        assert (repr(r), r.steps, step_calls[0]) == ("OutOfFuel", 5_000, 5_000)

    @pytest.mark.parametrize("name", sorted(STEPPED_LOOPS))
    def test_loops_that_are_not_the_spin_are_stepped(self, name, step_calls):
        descs, pc, program, regs, sf = STEPPED_LOOPS[name]
        st = machine(program, descs=descs, pc=pc)
        st.regs.update(regs)
        st.flags[SF] = sf
        plain = st.clone()
        kind, _, _, steps = run_state(st, 300)
        assert (kind, steps, step_calls[0]) == ("fuel", 300, 300)
        plain_run(plain, 300)
        assert (st.pc, st.regs, st.flags) == (plain.pc, plain.regs, plain.flags)

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
