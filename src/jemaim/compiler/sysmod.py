"""The trusted central module: global store, global call stack, four procedures.

Module id 1 with entry points
    (1,0)      testObj        (1,N_W)    registerObj
    (1,2*N_W)  forwardCall    (1,3*N_W)  forwardReturn

Call-stack frames are (return id, return offset, callee id) triples pushed by
forwardCall from (r0, r5, r3). forwardReturn aborts unless the returning
module's authenticated id equals the recorded callee, then transfers to the
recorded return address. The frame depth is mirrored at the first data word so
forwardCall can test emptiness with a plain load.

sys keeps its scratch values out of r7-r15, the argument registers
(compiler/comp.py), which forwardCall passes on untouched: forwardCall uses
r1, r2 and r16 and forwardReturn r4, and each zeroes its scratch before its
boundary jump, but for the jump's own target registers.

sys is assembled and laid out once, at import: `SYS_WORDS` are its code
words, `SYS_EXIT_MARKS` its boundary jumps, which the trace engine reads
instead of decoding them, and `build_sys()` gives each caller a fresh image
over a copy of the one layout.
"""
from __future__ import annotations

from types import MappingProxyType

from ..aim.isa import Assembler
from ..aim.link import ProgramImage, SymbolTable
from ..aim.words import FORWARDCALL_EP, FORWARDRETURN_EP, REGISTEROBJ_EP, SYS_ID, TESTOBJ_EP, Address, Descriptor, addresses
from ..jem.ast import MethodSig
from .comp import DATA_BASE, always_jump, jump_if, trampoline

SYS_DEPTH_ADDR = Address(SYS_ID, DATA_BASE)

TESTOBJ = MethodSig("testObj", "Obj", ("Obj", "Obj"), "Bool")
REGISTEROBJ = MethodSig("registerObj", "Obj", ("Obj", "Obj"), "Unit")
FORWARDCALL = MethodSig("forwardCall", "Obj", (), "Unit")
FORWARDRETURN = MethodSig("forwardReturn", "Obj", (), "Unit")


def _assemble() -> tuple[tuple, MappingProxyType]:
    """The code words of sys, and its four boundary jmp instructions by
    offset, each as (kind, rd, ri): its role and its operands; both read-only."""
    a = Assembler()
    marks: dict[int, tuple[str, int, int]] = {}

    def exit_jump(kind: str, rd: int, ri: int):
        # `jmp rd, ri` to (r[ri], r[rd]), recorded where it is emitted
        marks[a.here()] = (kind, rd, ri)
        a.emit("jmp", rd, ri)

    trampoline(a, "testobj")
    trampoline(a, "regobj")
    trampoline(a, "fwcall")
    trampoline(a, "fwret")

    # testObj(w in r7, w' in r8): abort if unknown, else r6 := 0/1 on match/mismatch
    a.label("testobj")
    a.emit("gst_test", 6, 7, 8)
    for r in (1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15):
        a.emit("movi", r, 0)
    exit_jump("testobj", 5, 0)

    # registerObj(w in r7, w' in r8): abort if already known; owner is the caller id
    a.label("regobj")
    a.emit("gst_add", 7, 8)
    a.emit("movi", 6, 1)
    for r in (1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15):
        a.emit("movi", r, 0)
    exit_jump("regobj", 5, 0)

    # forwardCall: target in (r3, r4), caller resume offset in r5
    a.label("fwcall")
    a.emit("movi", 2, SYS_ID)
    a.emit("movi", 1, DATA_BASE)
    a.emit("movl", 1, 2, 1)
    a.emit("movi", 2, 0)
    a.emit("cmp", 1, 2)
    jump_if(a, "fc_fresh", 2)
    a.emit("stk_pop", 1, 2, 16)
    a.emit("stk_push", 1, 2, 16)
    a.emit("cmp", 1, 0)  # the module that called last may not call again
    jump_if(a, "sys_abort", 2)
    a.label("fc_fresh")
    a.emit("movi", 1, SYS_ID)
    a.emit("cmp", 3, 1)  # no forwarding into sys itself
    jump_if(a, "sys_abort", 2)
    a.emit("stk_push", 0, 5, 3)
    a.emit("movi", 5, FORWARDRETURN_EP)
    for r in (0, 1, 2, 16):
        a.emit("movi", r, 0)
    exit_jump("fwcall", 4, 3)

    # forwardReturn: pop (id, n, callee); abort unless the returner is the callee
    a.label("fwret")
    a.emit("stk_pop", 2, 1, 3)
    a.emit("cmp", 3, 0)
    jump_if(a, "fr_ok", 4)
    always_jump(a, "sys_abort", 4)
    a.label("fr_ok")
    a.emit("movi", 5, 1)
    for r in (0, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15):
        a.emit("movi", r, 0)
    exit_jump("fwret", 1, 2)

    a.label("sys_abort")
    a.emit("zero")
    a.emit("halt")
    return tuple(a.words()), MappingProxyType(marks)


# sys is one fixed assembly, made once, and laid out once: its memory with
# the depth word, and its exports, both read-only; build_sys copies them
SYS_WORDS, SYS_EXIT_MARKS = _assemble()
_SYS_MEM = MappingProxyType({**dict(zip(addresses(SYS_ID, len(SYS_WORDS)), SYS_WORDS)), SYS_DEPTH_ADDR: 0})
_SYS_EM = MappingProxyType(
    {
        TESTOBJ: Address(SYS_ID, TESTOBJ_EP),
        REGISTEROBJ: Address(SYS_ID, REGISTEROBJ_EP),
        FORWARDCALL: Address(SYS_ID, FORWARDCALL_EP),
        FORWARDRETURN: Address(SYS_ID, FORWARDRETURN_EP),
    }
)
_SYS_DESC = Descriptor(SYS_ID, len(SYS_WORDS), 4)


def build_sys() -> ProgramImage:
    """A fresh sys image over copies of the layout: its maps and lists are
    the caller's to change."""
    return ProgramImage(_SYS_MEM.copy(), [_SYS_DESC], SymbolTable(em=_SYS_EM.copy()), {})
