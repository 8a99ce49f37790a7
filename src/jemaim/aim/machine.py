"""The aim virtual machine.

A machine state carries the program counter, an unbounded register file
(unwritten registers read 0), two flags, a sparse memory, the code sections,
the descriptor list and a nonce oracle. Stepping applies exactly one rule;
any access-control failure terminates the run as a Violation, an undecodable
word as Stuck.

An instruction decodes to an entry ``(handler, name, fall-through address,
module, *operands)``: its `HANDLERS` method, which moves pc to the fall-through
unless it jumps, and the descriptor whose code section holds it (else None).
`_decode` builds the entry at a pc with no cached one: `access.find_module`
finds the descriptor, as it does for `halt`, and `isa.decode`, the only code
that knows operand kinds, reads the words by the read rule below and gives
the name and operands.
Entries in protected code are cached per pc, in a dict that clones share. That
is sound as no rule writes protected code: `access.write_allowed` needs the
writer's own `data_range` for a protected target, and the privileged ops write
only sys's call-depth word, in its data. Unprotected memory, and a data section
reached by falling off the code, are decoded afresh on every step.

For the same reason protected code need not sit in `mem`: `code` maps a
module id to its code section as a tuple, the image's own map (`boot_state`
passes it on uncopied), which clones share, so a clone copies only data and
unprotected words. Every read follows one rule: a word inside its module's
tuple comes from the tuple, any other word from `mem` (0 if unwritten). `load`,
`isa.decode` and `run_state`'s inline `movl` apply it. A module without a
tuple keeps its code in `mem`, so a state built by hand with every word in
`mem` runs too.

One idiom in protected code is a proven loop: `movi r, L; cmp x, x; je r, ZF`
at L, the spin the compiler emits (compiler/comp.py). One pass of it writes
only r := L and ZF := 1 and jumps back to L; it touches no memory, nonce,
masking table, G or S. From any state, then, the state after one pass is a
fixed point of the pass, and every later step cycles through the same three
states with period 3. `_decode` recognises the idiom when it caches the entry
at its head, and gives that entry the `spin` handler: a `movi` that then
reports ('spin', None). `run_state` and the trace engine end the run there, as
they would at fuel exhaustion; only the head's entry differs, so no other
step pays for the check.

`step()` is the definition of every rule, fault and fault message. `run_state`,
which drives whole programs, also runs seven rules in its own loop, with pc,
the registers, the flags and the last op's name in locals: `movi`, `add`,
`sub`, `cmp`, `je`, `movl` and `movs` (`IN_PLACE`), each as its handler does.
It does so only at a pc with a cached entry, so in protected code, and only
when the rule cannot fault: Nat addresses that the code-section check admits,
Nat operands of `add` and `sub` (a Nonce, read as 0, goes to `step()`), and a
Nat branch target. Every other step writes the locals back and calls
`step()`, which applies it to the untouched state: a miss, any other opcode
(the spin head's entry has the spin handler, not movi's) and an operand that
may fault. The trace engine calls `step()` for each instruction it runs, as
the benchmark's traced run counts a segment's steps by those calls.

The masking tables, the global store G and the global call stack S are
side-state manipulated only through the privileged opcodes; no other
instruction can observe them.

A rule reads and writes only the registers its instruction names, with three
exceptions: `jmp` writes r0 (`R_CALLER`) and `gst_add` reads it, `zero`
clears every register, and an abort clears every register as it ends the
run. The trace engine's call prefixes rest on this (traces/engine.py).

A suspended state, one that the trace engine holds between two injections, is
never mutated: every injection runs on a clone. So one suspended state may sit
in several places of a search at once, and `fingerprint` stands for it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from ..compiler.encoding import (
    CLASS_ENC_BASE,
    ENC_BOOL,
    ENC_INT,
    ENC_OBJ,
    ENC_UNIT,
    V_FALSE,
    V_NULL,
    V_TRUE,
    V_UNIT,
)
from . import access
from .isa import FLAGS, OPTABLE, SF, ZF, decode
from .words import MASK64, R_CALLER, Address, Descriptor, Nonce, NonceOracle, Symbol, Word, address_of


@dataclass
class MachineState:
    pc: Address
    mem: dict[Address, Word]
    descs: list[Descriptor]
    oracle: NonceOracle
    regs: dict[int, Word] = field(default_factory=dict)
    flags: dict[int, int] | None = None  # None: cleared by __post_init__
    # the masking tables: (module id, internal id) -> mask and (module id, mask) -> internal id
    masks: dict[tuple[int, Word], Word] = field(default_factory=dict)
    gstore: dict[Word, tuple[Word, Word]] = field(default_factory=dict)
    callstack: list[tuple[Word, Word, Word]] = field(default_factory=list)
    sys_depth_addr: Address | None = None
    _last_op: str | None = field(default=None, repr=False)  # tells the zero;halt abort from halt
    code: dict[int, tuple[Word, ...]] = field(default_factory=dict, repr=False)  # module id -> code section, shared by clones
    _icache: dict = field(default_factory=dict, repr=False)  # pc -> entry, shared by clones

    def __post_init__(self):
        if self.flags is None:
            self.reset_flags()

    def reset_flags(self):
        self.flags = dict.fromkeys(FLAGS, 0)

    def reg(self, i: int) -> Word:
        return self.regs.get(i, 0)

    def set_reg(self, i: int, w: Word):
        if w == 0:
            self.regs.pop(i, None)
        else:
            self.regs[i] = w

    def add_mask(self, mid: int, internal: int, mask: Nonce):
        """Enter `mask` for module `mid`'s object `internal`, in both directions."""
        self.masks[mid, internal] = mask
        self.masks[mid, mask] = internal

    def clone(self) -> "MachineState":
        return MachineState(
            pc=self.pc,
            mem=dict(self.mem),
            descs=self.descs,
            oracle=self.oracle.clone(),
            regs=dict(self.regs),
            flags=dict(self.flags),
            masks=dict(self.masks),
            gstore=dict(self.gstore),
            callstack=list(self.callstack),
            sys_depth_addr=self.sys_depth_addr,
            _last_op=self._last_op,
            code=self.code,
            _icache=self._icache,
        )

    def fingerprint(self) -> tuple:
        """A hashable summary of the state such that two clones of one state
        with equal fingerprints behave alike from any run that first sets pc,
        registers and flags. It holds what such a reset keeps: `mem` (data and
        unprotected words, and code kept outside `code`), the oracle's cursor, the
        masks, G, S and `_last_op`. The rest (`code`, `_icache`, `descs`,
        `sys_depth_addr`, the oracle's stream) a clone shares with its
        original."""
        return (
            frozenset(self.mem.items()),
            self.oracle.cursor,
            frozenset(self.masks.items()),
            frozenset(self.gstore.items()),
            tuple(self.callstack),
            self._last_op,
        )

    def load(self, a) -> Word:
        """The word at `a` by the read rule: from its module's code tuple when
        `a` lies inside it, else from `mem` (a plain tuple finds an Address
        key), 0 if unwritten."""
        mid, off = a
        c = self.code.get(mid, ())
        return c[off] if 0 <= off < len(c) else self.mem.get(a, 0)

    # -- decoding ---------------------------------------------------------

    def _decode(self):
        """The entry of the instruction at pc, or None when it is undecodable.
        Privileged opcodes decode, and entries are cached, only in protected code."""
        pc = self.pc
        mid, off = pc
        s = access.find_module(self.descs, pc)
        if s is not None and not 0 <= off < s.code_len:
            s = None
        d = decode(self.mem, self.code, mid, off, s is not None)
        if d is None:
            return None
        name, ops = d
        e = (HANDLERS[name], name, Address(mid, off + 1 + len(ops)), s, *ops)
        if s is not None:
            if name == "movi" and ops[1] == off and self._spins(s, off, ops[0]):
                e = (MachineState._op_spin, *e[1:])
            self._icache[pc] = e
        return e

    def _spins(self, s: Descriptor, off: int, r: int) -> bool:
        """Whether the `movi r, off` at `off` heads a spin: `cmp x, x; je r, ZF`
        follow it, and all three lie in `s`'s code."""
        if off + 9 > s.code_len:  # three instructions of three words each
            return False
        c, j = (decode(self.mem, self.code, s.mid, o, True) for o in (off + 3, off + 6))
        return c is not None and c[0] == "cmp" and c[1][0] == c[1][1] and j == ("je", (r, ZF))

    # -- stepping ---------------------------------------------------------

    def step(self):
        """Apply one rule. Returns ('ok',None) | ('spin',None) | ('halted',r) |
        ('violation',r) | ('stuck',r); 'spin' when the rule was the head of a
        spin, which the machine never leaves. At a cached pc that is one dict
        lookup and one handler call. The handlers define every rule:
        `run_state` runs the seven of `IN_PLACE` in its loop when they cannot
        fault, and hands every other step here."""
        e = self._icache.get(self.pc) or self._decode()
        if e is None:
            return ("stuck", f"undecodable at {self.pc}")
        out = e[0](self, e)
        self._last_op = e[1]
        return out or ("ok", None)

    def _abort(self, reason: str):
        # abort: all registers and flags reset, then halt
        self.regs.clear()
        self.reset_flags()
        return ("halted", f"abort:{reason}")

    def _op_movi(self, e):
        _, _, nxt, _, rd, w = e
        if w == 0:
            self.regs.pop(rd, None)
        else:
            self.regs[rd] = w
        self.pc = nxt

    def _op_spin(self, e):
        self._op_movi(e)
        return ("spin", None)

    def _op_movl(self, e):
        _, _, nxt, s, rd, rs, ri = e
        regs = self.regs
        mid, off = regs.get(rs, 0), regs.get(ri, 0)
        if not (isinstance(mid, int) and isinstance(off, int)):
            return ("violation", "bad load address")
        # from s's code section, read_allowed admits unprotected memory and s's own memory
        if s is not None:
            ok = off >= 0 and (mid == 0 or mid == s.mid)
        else:
            ok = access.read_allowed(self.descs, self.pc, Address(mid, off))
        if not ok:
            return ("violation", f"read denied {self.pc}->{Address(mid, off)}")
        # `load`, inlined as a sixth of the steps of compiled code are movl
        c = self.code.get(mid, ())
        self.set_reg(rd, c[off] if off < len(c) else self.mem.get((mid, off), 0))
        self.pc = nxt

    def _op_movs(self, e):
        _, _, nxt, s, rd, rs, ri = e
        regs = self.regs
        mid, off = regs.get(rd, 0), regs.get(ri, 0)
        if not (isinstance(mid, int) and isinstance(off, int)):
            return ("violation", "bad store address")
        # from s's code section, write_allowed admits unprotected memory and s's data section
        if s is not None:
            ok = off >= 0 and (mid == 0 or (mid == s.mid and off >= s.code_len))
        else:
            ok = access.write_allowed(self.descs, self.pc, Address(mid, off))
        if not ok:
            return ("violation", f"write denied {self.pc}->{Address(mid, off)}")
        self.mem[Address(mid, off)] = self.reg(rs)
        self.pc = nxt

    def _arith(self, w: Word):
        return w if isinstance(w, int) else 0 if isinstance(w, Nonce) else None

    def _op_add(self, e):
        _, _, nxt, _, rd, rs = e
        vd, vs = self._arith(self.reg(rd)), self._arith(self.reg(rs))
        if vd is None or vs is None:
            return ("violation", "symbol in arithmetic")
        v = (vd + vs) & MASK64
        self.set_reg(rd, v)
        self.flags[ZF] = 1 if v == 0 else 0
        self.pc = nxt

    def _op_sub(self, e):
        _, _, nxt, _, rd, rs = e
        vd, vs = self._arith(self.reg(rd)), self._arith(self.reg(rs))
        if vd is None or vs is None:
            return ("violation", "symbol in arithmetic")
        v = vd - vs
        self.set_reg(rd, abs(v) & MASK64)
        self.flags[ZF] = 1 if v == 0 else 0
        self.flags[SF] = 1 if v < 0 else 0
        self.pc = nxt

    def _op_cmp(self, e):
        _, _, nxt, _, rd, rs = e
        self.flags[ZF] = 1 if self.reg(rd) == self.reg(rs) else 0
        self.pc = nxt

    def _op_jmp(self, e):
        _, _, _, _, rd, ri = e
        off, mid = self.reg(rd), self.reg(ri)
        if not (isinstance(mid, int) and isinstance(off, int)):
            return ("violation", f"unresolvable jump target ({mid},{off})")
        tgt = Address(mid, off)
        if not access.valid_jump(self.descs, self.pc, tgt):
            return ("violation", f"jump denied {self.pc}->{tgt}")
        self.set_reg(R_CALLER, self.pc.mid)
        self.pc = tgt

    def _op_je(self, e):
        _, _, nxt, _, rd, fi = e
        off = self.reg(rd)
        if self.flags[fi] != 1:
            self.pc = nxt
        elif isinstance(off, int):
            self.pc = Address(self.pc.mid, off)
        else:
            return ("violation", "bad branch offset")

    def _op_zero(self, e):
        self.regs.clear()
        self.pc = e[2]

    def _op_new(self, e):
        self.set_reg(e[4], self.oracle.fresh())
        self.pc = e[2]

    def _op_halt(self, e):
        # the zero;halt sequence in protected code is the abort idiom
        if self._last_op == "zero" and access.find_module(self.descs, self.pc) is not None:
            return ("halted", "abort:check")
        return ("halted", "halt")

    # -- privileged scaffolding ops: their entries name the running module --

    def _op_tbl_get(self, e):
        # load direction only: a mask resolves to its internal id; anything
        # else (a raw Nat, null, an unknown nonce) aborts, so internal offsets
        # cannot be laundered into valid ids
        _, _, nxt, _, rd, ri = e
        k = self.reg(ri)
        if not (isinstance(k, Nonce) and (self.pc.mid, k) in self.masks):
            return self._abort("masking-table-miss")
        self.set_reg(rd, self.masks[self.pc.mid, k])
        self.pc = nxt

    def _op_tbl_add(self, e):
        # release direction: an internal object id is ensured a mask, globally
        # registered, and the register is replaced by the mask; other words
        # (masks, null, primitives) pass through untouched
        _, _, nxt, s, ri = e
        mid = s.mid
        w = self.reg(ri)
        if isinstance(w, int) and w >= s.code_len:
            cls = self.load((mid, w))
            if isinstance(cls, int) and cls >= CLASS_ENC_BASE:
                if (mid, w) not in self.masks:
                    mask = self.oracle.fresh()
                    self.add_mask(mid, w, mask)
                    if mask in self.gstore:
                        return self._abort("gstore-duplicate")
                    self.gstore[mask] = (cls, mid)
                self.set_reg(ri, self.masks[mid, w])
        self.pc = nxt

    def _sync_depth(self):
        if self.sys_depth_addr is not None:
            self.mem[self.sys_depth_addr] = len(self.callstack)

    def _op_stk_push(self, e):
        _, _, nxt, _, ra, rb, rc = e
        self.callstack.append((self.reg(ra), self.reg(rb), self.reg(rc)))
        self._sync_depth()
        self.reset_flags()
        self.pc = nxt

    def _op_stk_pop(self, e):
        _, _, nxt, _, ra, rb, rc = e
        if not self.callstack:
            return self._abort("callstack-empty")
        x, y, z = self.callstack.pop()
        if isinstance(z, Symbol):
            z = 0
        self.set_reg(ra, x)
        self.set_reg(rb, y)
        self.set_reg(rc, z)
        self._sync_depth()
        self.reset_flags()
        self.pc = nxt

    def _op_gst_test(self, e):
        _, _, nxt, _, rd, rm, rc = e
        k = self.reg(rm)
        if k not in self.gstore:
            return self._abort("gstore-missing")
        enc, _owner = self.gstore[k]
        self.set_reg(rd, 0 if enc == self.reg(rc) else 1)
        self.pc = nxt

    def _op_gst_add(self, e):
        _, _, nxt, _, rm, rc = e
        k = self.reg(rm)
        if k in self.gstore:
            return self._abort("gstore-duplicate")
        self.gstore[k] = (self.reg(rc), self.reg(R_CALLER))
        self.pc = nxt

    def _op_tychk(self, e):
        _, _, nxt, _, rv, rt = e
        failed = self._typecheck(self.reg(rv), self.reg(rt))
        if failed:
            return self._abort(failed)
        self.pc = nxt

    def _typecheck(self, w: Word, enc: Word) -> str | None:
        """None when `w` has the type encoded by `enc`, else the abort reason."""
        if enc == ENC_UNIT:
            return None if w == V_UNIT else "typecheck-unit"
        if enc == ENC_BOOL:
            return None if w in (V_TRUE, V_FALSE) else "typecheck-bool"
        if enc == ENC_INT:
            return None
        if enc == ENC_OBJ:
            if w == V_NULL or (isinstance(w, Nonce) and w in self.gstore):
                return None
            return "typecheck-obj"
        if isinstance(enc, int) and enc >= CLASS_ENC_BASE:
            if w == V_NULL:
                return None
            if isinstance(w, Nonce):
                if w not in self.gstore:
                    return "typecheck-unknown-id"
                return None if self.gstore[w][0] == enc else "typecheck-class"
            if isinstance(w, int):
                # a Nat is an object only as an internal id this module has masked
                # (what tbl_get yields); any other Nat, say the offset of a data
                # word that happens to hold the class encoding, is forged
                if (self.pc.mid, w) in self.masks and self.load((self.pc.mid, w)) == enc:
                    return None
            return "typecheck-class"
        return "typecheck-bad-encoding"


# opcode name -> handler, built once from the opcode table and read-only
HANDLERS = MappingProxyType({name: getattr(MachineState, f"_op_{name}") for name in OPTABLE})

# the rules `run_state` runs in place, 99.8 % of the steps compiled whole
# programs take; its loop tells them by their handlers
IN_PLACE = ("movi", "add", "sub", "cmp", "je", "movl", "movs")
_MOVI, _ADD, _SUB, _CMP, _JE, _MOVL, _MOVS = (HANDLERS[name] for name in IN_PLACE)
_MISS = (None,)  # the entry `run_state` reads at a pc with none cached


def run_state(state: MachineState, fuel: int):
    """Drive a state to a terminal. Returns (kind, reason, state, steps).

    kind is one of 'halted', 'violation', 'stuck', 'fuel'. A run that reaches
    a spin returns ('fuel', None, state, fuel) at once, `state` being exactly
    the one stepping to the end of the fuel leaves. The loop runs the rules
    of `IN_PLACE` itself when they cannot fault, and every other step by
    `step()` (see the module docstring).
    """
    get = state._icache.get
    mem, code = state.mem, state.code
    pc, regs, flags, last = state.pc, state.regs, state.flags, state._last_op
    for n in range(fuel):
        e = get(pc, _MISS)
        h = e[0]
        if h is _MOVI:
            _, last, pc, _, rd, w = e
            if w == 0:
                regs.pop(rd, None)
            else:
                regs[rd] = w
            continue
        elif h is _ADD:
            _, op, nxt, _, rd, rs = e
            a, b = regs.get(rd, 0), regs.get(rs, 0)
            if type(a) is int and type(b) is int:
                v = (a + b) & MASK64
                if v == 0:
                    regs.pop(rd, None)
                else:
                    regs[rd] = v
                flags[ZF] = 1 if v == 0 else 0
                pc, last = nxt, op
                continue
        elif h is _JE:
            _, op, nxt, _, rd, fi = e
            if flags[fi] != 1:
                pc, last = nxt, op
                continue
            off = regs.get(rd, 0)
            if type(off) is int:
                pc, last = address_of((pc[0], off)), op
                continue
        elif h is _MOVL:
            _, op, nxt, s, rd, rs, ri = e
            mid, off = regs.get(rs, 0), regs.get(ri, 0)
            if type(mid) is int and type(off) is int and off >= 0 and (mid == 0 or mid == s.mid):
                # `load`, inlined as a sixth of the steps of compiled code are movl
                c = code.get(mid, ())
                w = c[off] if off < len(c) else mem.get((mid, off), 0)
                if w == 0:
                    regs.pop(rd, None)
                else:
                    regs[rd] = w
                pc, last = nxt, op
                continue
        elif h is _SUB:
            _, op, nxt, _, rd, rs = e
            a, b = regs.get(rd, 0), regs.get(rs, 0)
            if type(a) is int and type(b) is int:
                v = a - b
                w = abs(v) & MASK64
                if w == 0:
                    regs.pop(rd, None)
                else:
                    regs[rd] = w
                flags[ZF] = 1 if v == 0 else 0
                flags[SF] = 1 if v < 0 else 0
                pc, last = nxt, op
                continue
        elif h is _MOVS:
            _, op, nxt, s, rd, rs, ri = e
            mid, off = regs.get(rd, 0), regs.get(ri, 0)
            if type(mid) is int and type(off) is int and off >= 0 and (mid == 0 or (mid == s.mid and off >= s.code_len)):
                mem[address_of((mid, off))] = regs.get(rs, 0)
                pc, last = nxt, op
                continue
        elif h is _CMP:
            _, last, pc, _, rd, rs = e
            flags[ZF] = 1 if regs.get(rd, 0) == regs.get(rs, 0) else 0
            continue
        # a miss, another rule, or an operand that may fault: `step()` applies the rule
        state.pc, state._last_op = pc, last
        status, reason = state.step()
        if status != "ok":
            if status == "spin":
                # of the steps left, two close the first pass at the fixed
                # point, and each whole pass from there changes nothing
                left = fuel - n - 1
                for _ in range(left if left <= 2 else 2 + (left - 2) % 3):
                    state.step()
                return ("fuel", None, state, fuel)
            return (status, reason, state, n + 1)
        pc, regs, flags, last = state.pc, state.regs, state.flags, state._last_op
    state.pc, state._last_op = pc, last
    return ("fuel", None, state, fuel)
