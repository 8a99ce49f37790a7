"""The aim virtual machine.

A machine state carries the program counter, an unbounded register file
(unwritten registers read 0), two flags, a sparse memory, the descriptor list
and a nonce oracle. Stepping applies exactly one rule; any access-control
failure terminates the run as a Violation, an undecodable word as Stuck.

The masking tables, the global store G and the global call stack S are
side-state manipulated only through the privileged opcodes; no other
instruction can observe them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
from .isa import SF, ZF, decode
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
    flags: dict[int, int] = field(default_factory=lambda: {ZF: 0, SF: 0})
    masks: dict[int, MaskingTable] = field(default_factory=dict)
    gstore: dict[Word, tuple[Word, Word]] = field(default_factory=dict)
    callstack: list[tuple[Word, Word, Word]] = field(default_factory=list)
    sys_depth_addr: Address | None = None
    _last_op: str | None = field(default=None, repr=False)  # tells the zero;halt abort from halt
    _icache: dict = field(default_factory=dict, repr=False)

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
            _icache=self._icache,
        )

    # -- decoding ---------------------------------------------------------

    def current_module(self) -> Descriptor | None:
        return access.find_module(self.descs, self.pc)

    def peek(self):
        """Decode the instruction at pc, or None when the state is stuck.

        Protected code sections are immutable at run time (no write rule
        reaches them), so their decodings are cached."""
        pc = self.pc
        if pc.mid != 0:
            hit = self._icache.get(pc)
            if hit is not None:
                return hit
        s = self.current_module()
        priv = s is not None and access.code_range(s, pc)
        mid = pc.mid

        def read(off):
            return self.mem.get(Address(mid, off), 0)

        out = decode(read, pc.off, priv)
        if priv:
            self._icache[pc] = out
        return out

    # -- stepping ---------------------------------------------------------

    def step(self):
        """Apply one rule. Returns ('ok',reason) | ('halted',r) | ('violation',r) | ('stuck',r)."""
        instr = self.peek()
        if instr is None:
            return ("stuck", f"undecodable at {self.pc}")
        out = getattr(self, f"_op_{instr.name}")(instr)
        self._last_op = instr.name
        return out

    def _advance(self, width: int):
        self.pc = Address(self.pc.mid, self.pc.off + width)
        return ("ok", None)

    def _abort(self, reason: str):
        # abort: all registers and flags reset, then halt
        self.regs.clear()
        self.flags = {ZF: 0, SF: 0}
        return ("halted", f"abort:{reason}")

    def _op_movi(self, i):
        self.set_reg(i.ops[0], i.ops[1])
        return self._advance(i.width)

    def _op_movl(self, i):
        rd, rs, ri = i.ops
        mid, off = self.reg(rs), self.reg(ri)
        if not (isinstance(mid, int) and isinstance(off, int)):
            return ("violation", "bad load address")
        tgt = Address(mid, off)
        if not access.read_allowed(self.descs, self.pc, tgt):
            return ("violation", f"read denied {self.pc}->{tgt}")
        self.set_reg(rd, self.mem.get(tgt, 0))
        return self._advance(i.width)

    def _op_movs(self, i):
        rd, rs, ri = i.ops
        mid, off = self.reg(rd), self.reg(ri)
        if not (isinstance(mid, int) and isinstance(off, int)):
            return ("violation", "bad store address")
        tgt = Address(mid, off)
        if not access.write_allowed(self.descs, self.pc, tgt):
            return ("violation", f"write denied {self.pc}->{tgt}")
        self.mem[tgt] = self.reg(rs)
        return self._advance(i.width)

    def _arith(self, w: Word):
        if isinstance(w, int):
            return w
        if isinstance(w, Nonce):
            return 0
        return None

    def _op_add(self, i):
        rd, rs = i.ops
        vd, vs = self._arith(self.reg(rd)), self._arith(self.reg(rs))
        if vd is None or vs is None:
            return ("violation", "symbol in arithmetic")
        v = (vd + vs) & MASK64
        self.set_reg(rd, v)
        self.flags[ZF] = 1 if v == 0 else 0
        return self._advance(i.width)

    def _op_sub(self, i):
        rd, rs = i.ops
        vd, vs = self._arith(self.reg(rd)), self._arith(self.reg(rs))
        if vd is None or vs is None:
            return ("violation", "symbol in arithmetic")
        v = vd - vs
        self.set_reg(rd, abs(v) & MASK64)
        self.flags[ZF] = 1 if v == 0 else 0
        self.flags[SF] = 1 if v < 0 else 0
        return self._advance(i.width)

    def _op_cmp(self, i):
        rd, rs = i.ops
        self.flags[ZF] = 1 if self.reg(rd) == self.reg(rs) else 0
        return self._advance(i.width)

    def _op_jmp(self, i):
        rd, ri = i.ops
        off, mid = self.reg(rd), self.reg(ri)
        if not (isinstance(mid, int) and isinstance(off, int)):
            return ("violation", f"unresolvable jump target ({mid},{off})")
        tgt = Address(mid, off)
        if not access.valid_jump(self.descs, self.pc, tgt):
            return ("violation", f"jump denied {self.pc}->{tgt}")
        self.set_reg(R_CALLER, self.pc.mid)
        self.pc = tgt
        return ("ok", None)

    def _op_je(self, i):
        rd, fi = i.ops
        if self.flags[fi] == 1:
            off = self.reg(rd)
            if not isinstance(off, int):
                return ("violation", "bad branch offset")
            self.pc = Address(self.pc.mid, off)
            return ("ok", None)
        return self._advance(i.width)

    def _op_zero(self, i):
        self.regs.clear()
        return self._advance(i.width)

    def _op_new(self, i):
        self.set_reg(i.ops[0], self.oracle.fresh())
        return self._advance(i.width)

    def _op_halt(self, i):
        # the zero;halt sequence in protected code is the abort idiom
        if self._last_op == "zero" and self.current_module() is not None:
            return ("halted", "abort:check")
        return ("halted", "halt")

    # -- privileged scaffolding ops ---------------------------------------

    def _op_tbl_get(self, i):
        # load direction only: a mask resolves to its internal id; anything
        # else (a raw Nat, null, an unknown nonce) aborts, so internal offsets
        # cannot be laundered into valid ids
        rd, ri = i.ops
        t = self.table(self.pc.mid)
        k = self.reg(ri)
        if isinstance(k, Nonce) and k in t.rev:
            self.set_reg(rd, t.rev[k])
        else:
            return self._abort("masking-table-miss")
        return self._advance(i.width)

    def _op_tbl_add(self, i):
        # release direction: an internal object id is ensured a mask, globally
        # registered, and the register is replaced by the mask; other words
        # (masks, null, primitives) pass through untouched
        (ri,) = i.ops
        mid = self.pc.mid
        w = self.reg(ri)
        s = self.current_module()
        if isinstance(w, int) and s is not None and w >= s.code_len:
            cls = self.mem.get(Address(mid, w), 0)
            if isinstance(cls, int) and cls >= CLASS_ENC_BASE:
                t = self.table(mid)
                if w not in t.fwd:
                    mask = self.oracle.fresh()
                    t.add(w, mask)
                    if mask in self.gstore:
                        return self._abort("gstore-duplicate")
                    self.gstore[mask] = (cls, mid)
                self.set_reg(ri, t.fwd[w])
        return self._advance(i.width)

    def _sync_depth(self):
        if self.sys_depth_addr is not None:
            self.mem[self.sys_depth_addr] = len(self.callstack)

    def _op_stk_push(self, i):
        ra, rb, rc = i.ops
        self.callstack.append((self.reg(ra), self.reg(rb), self.reg(rc)))
        self._sync_depth()
        self.flags = {ZF: 0, SF: 0}
        return self._advance(i.width)

    def _op_stk_pop(self, i):
        ra, rb, rc = i.ops
        if not self.callstack:
            return self._abort("callstack-empty")
        x, y, z = self.callstack.pop()
        if isinstance(z, Symbol):
            z = 0
        self.set_reg(ra, x)
        self.set_reg(rb, y)
        self.set_reg(rc, z)
        self._sync_depth()
        self.flags = {ZF: 0, SF: 0}
        return self._advance(i.width)

    def _op_gst_test(self, i):
        rd, rm, rc = i.ops
        k = self.reg(rm)
        if k not in self.gstore:
            return self._abort("gstore-missing")
        enc, _owner = self.gstore[k]
        self.set_reg(rd, 0 if enc == self.reg(rc) else 1)
        return self._advance(i.width)

    def _op_gst_add(self, i):
        rm, rc = i.ops
        k = self.reg(rm)
        if k in self.gstore:
            return self._abort("gstore-duplicate")
        self.gstore[k] = (self.reg(rc), self.reg(R_CALLER))
        return self._advance(i.width)

    def _op_tychk(self, i):
        rv, rt = i.ops
        w, enc = self.reg(rv), self.reg(rt)
        if enc == ENC_UNIT:
            return self._advance(i.width) if w == V_UNIT else self._abort("typecheck-unit")
        if enc == ENC_BOOL:
            return self._advance(i.width) if w in (V_TRUE, V_FALSE) else self._abort("typecheck-bool")
        if enc == ENC_INT:
            return self._advance(i.width)
        if enc == ENC_OBJ:
            if w == V_NULL or (isinstance(w, Nonce) and w in self.gstore):
                return self._advance(i.width)
            return self._abort("typecheck-obj")
        if isinstance(enc, int) and enc >= CLASS_ENC_BASE:
            if w == V_NULL:
                return self._advance(i.width)
            if isinstance(w, Nonce):
                if w not in self.gstore:
                    return self._abort("typecheck-unknown-id")
                if self.gstore[w][0] != enc:
                    return self._abort("typecheck-class")
                return self._advance(i.width)
            if isinstance(w, int):
                # a Nat is an object only as an internal id this module has masked
                # (what tbl_get yields); any other Nat, say an offset into the
                # signature table, is forged
                if w in self.table(self.pc.mid).fwd and self.mem.get(Address(self.pc.mid, w), 0) == enc:
                    return self._advance(i.width)
                return self._abort("typecheck-class")
            return self._abort("typecheck-class")
        return self._abort("typecheck-bad-encoding")


def run_state(state: MachineState, fuel: int):
    """Drive a state to a terminal. Returns (kind, reason, state, steps).

    kind is one of 'halted', 'violation', 'stuck', 'fuel'.
    """
    for n in range(fuel):
        status, reason = state.step()
        if status != "ok":
            return (status, reason, state, n + 1)
    return ("fuel", None, state, fuel)
