"""The aim virtual machine.

A machine state carries the program counter, an unbounded register file
(unwritten registers read 0), two flags, a sparse memory, the descriptor list
and a nonce oracle. Stepping applies exactly one rule; any access-control
failure terminates the run as a Violation, an undecodable word as Stuck.

An instruction decodes to an entry ``(handler, name, fall-through address,
module, *operands)``: its `HANDLERS` method, which moves pc to the fall-through
unless it jumps, and the descriptor whose code section holds it (else None).
Entries in protected code are cached per pc, in a dict that clones share. That
is sound as no rule writes protected code: `access.write_allowed` needs the
writer's own `data_range` for a protected target, and the privileged ops write
only sys's call-depth word, in its data. Unprotected memory, and a data section
reached by falling off the code, are decoded afresh on every step.

For the same reason the words of protected code may leave `mem`:
`share_code` moves them into `code`, a map that clones share, so that a clone
copies only unprotected and data words. Reads go through `load`, which finds
a word in either map. A state built by `boot_state` or by hand keeps every
word in `mem`; the trace engine calls `share_code` on each state it boots.

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

The masking tables, the global store G and the global call stack S are
side-state manipulated only through the privileged opcodes; no other
instruction can observe them.

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
from .isa import FLAGS, OPTABLE, SF, ZF, Instr, decode
from .words import MASK64, Address, Descriptor, Nonce, NonceOracle, Symbol, Word

# the register in which a call leaves the caller's module id
R_CALLER = 0


@dataclass
class MaskingTable:
    fwd: dict[int, Nonce] = field(default_factory=dict)
    rev: dict[Nonce, int] = field(default_factory=dict)

    def add(self, internal: int, mask: Nonce):
        self.fwd[internal] = mask
        self.rev[mask] = internal

    def clone(self) -> "MaskingTable":
        t = MaskingTable()
        t.fwd = dict(self.fwd)
        t.rev = dict(self.rev)
        return t


@dataclass
class MachineState:
    pc: Address
    mem: dict[Address, Word]
    descs: list[Descriptor]
    oracle: NonceOracle
    regs: dict[int, Word] = field(default_factory=dict)
    flags: dict[int, int] | None = None  # None: cleared by __post_init__
    masks: dict[int, MaskingTable] = field(default_factory=dict)
    gstore: dict[Word, tuple[Word, Word]] = field(default_factory=dict)
    callstack: list[tuple[Word, Word, Word]] = field(default_factory=list)
    sys_depth_addr: Address | None = None
    _last_op: str | None = field(default=None, repr=False)  # tells the zero;halt abort from halt
    code: dict[Address, Word] = field(default_factory=dict, repr=False)  # protected code words, shared by clones
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

    def table(self, mid: int) -> MaskingTable:
        if mid not in self.masks:
            self.masks[mid] = MaskingTable()
        return self.masks[mid]

    def clone(self) -> "MachineState":
        return MachineState(
            pc=self.pc,
            mem=dict(self.mem),
            descs=self.descs,
            oracle=self.oracle.clone(),
            regs=dict(self.regs),
            flags=dict(self.flags),
            masks={k: v.clone() for k, v in self.masks.items()},
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
        unprotected words once `share_code` ran), the oracle's cursor, the
        masks (each non-empty `fwd`: `rev` is its inverse, and `table` makes
        an empty table on any ask), G, S and `_last_op`. The rest (`code`,
        `_icache`, `descs`, `sys_depth_addr`, the oracle's stream) a clone
        shares with its original."""
        return (
            frozenset(self.mem.items()),
            self.oracle.cursor,
            frozenset((mid, frozenset(t.fwd.items())) for mid, t in self.masks.items() if t.fwd),
            frozenset(self.gstore.items()),
            tuple(self.callstack),
            self._last_op,
        )

    def share_code(self):
        """Move the words of every protected code section from `mem` into
        `code`, which clones share instead of copying."""
        code_len = {d.mid: d.code_len for d in self.descs}
        code = {a: w for a, w in self.mem.items() if 0 <= a[1] < code_len.get(a[0], 0)}
        self.mem = {a: w for a, w in self.mem.items() if a not in code}
        self.code = {**self.code, **code}

    def load(self, a) -> Word:
        """The word at `a` (a plain tuple finds an Address key), 0 if unwritten."""
        w = self.mem.get(a)
        return self.code.get(a, 0) if w is None else w

    # -- decoding ---------------------------------------------------------

    def module(self, mid: int) -> Descriptor | None:
        """The descriptor of module `mid` (None for unprotected memory or an unknown
        id), found in `descs` at each ask: by `_decode` at an uncached pc, and by `halt`."""
        return None if mid == 0 else access.find_module(self.descs, Address(mid, 0))

    def _decode(self):
        """The entry of the instruction at pc, or None when it is undecodable.
        Privileged opcodes decode, and entries are cached, only in protected code."""
        pc = self.pc
        mid, off = pc
        s = self.module(mid)
        if s is not None and not access.code_range(s, pc):
            s = None
        i = decode(lambda o: self.load((mid, o)), off, s is not None)
        if i is None:
            return None
        e = (HANDLERS[i.name], i.name, Address(mid, off + i.width), s, *i.ops)
        if s is not None:
            if i.name == "movi" and i.ops[1] == off and self._spins(s, off, i.ops[0]):
                e = (MachineState._op_spin, *e[1:])
            self._icache[pc] = e
        return e

    def _spins(self, s: Descriptor, off: int, r: int) -> bool:
        """Whether the `movi r, off` at `off` heads a spin: `cmp x, x; je r, ZF`
        follow it, and all three lie in `s`'s code."""
        if off + 9 > s.code_len:  # three instructions of three words each
            return False
        c, j = (decode(lambda o: self.load((s.mid, o)), o, True) for o in (off + 3, off + 6))
        return c is not None and c.name == "cmp" and c.ops[0] == c.ops[1] and j == Instr("je", (r, ZF))

    def peek(self) -> Instr | None:
        """The instruction at pc, or None when the state is stuck: rebuilt from
        the cached entry in protected code, decoded afresh elsewhere."""
        e = self._icache.get(self.pc) or self._decode()
        return None if e is None else Instr(e[1], e[4:])

    # -- stepping ---------------------------------------------------------

    def step(self):
        """Apply one rule. Returns ('ok',None) | ('spin',None) | ('halted',r) |
        ('violation',r) | ('stuck',r); 'spin' when the rule was the head of a
        spin, which the machine never leaves. At a cached pc that is one dict
        lookup and one handler call."""
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
        a = (mid, off)
        w = self.mem.get(a)
        self.set_reg(rd, self.code.get(a, 0) if w is None else w)
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
        if self._last_op == "zero" and self.module(self.pc.mid) is not None:
            return ("halted", "abort:check")
        return ("halted", "halt")

    # -- privileged scaffolding ops: their entries name the running module --

    def _op_tbl_get(self, e):
        # load direction only: a mask resolves to its internal id; anything
        # else (a raw Nat, null, an unknown nonce) aborts, so internal offsets
        # cannot be laundered into valid ids
        _, _, nxt, _, rd, ri = e
        t = self.table(self.pc.mid)
        k = self.reg(ri)
        if not (isinstance(k, Nonce) and k in t.rev):
            return self._abort("masking-table-miss")
        self.set_reg(rd, t.rev[k])
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
                t = self.table(mid)
                if w not in t.fwd:
                    mask = self.oracle.fresh()
                    t.add(w, mask)
                    if mask in self.gstore:
                        return self._abort("gstore-duplicate")
                    self.gstore[mask] = (cls, mid)
                self.set_reg(ri, t.fwd[w])
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
                if w in self.table(self.pc.mid).fwd and self.load((self.pc.mid, w)) == enc:
                    return None
            return "typecheck-class"
        return "typecheck-bad-encoding"


# opcode name -> handler, built once from the opcode table and read-only
HANDLERS = MappingProxyType({name: getattr(MachineState, f"_op_{name}") for name in OPTABLE})


def run_state(state: MachineState, fuel: int):
    """Drive a state to a terminal. Returns (kind, reason, state, steps).

    kind is one of 'halted', 'violation', 'stuck', 'fuel'. A run that reaches
    a spin returns ('fuel', None, state, fuel) at once, `state` being exactly
    the one stepping to the end of the fuel leaves.
    """
    for n in range(fuel):
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
    return ("fuel", None, state, fuel)
