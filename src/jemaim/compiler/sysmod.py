"""The trusted central module: global store, global call stack, four procedures.

Module id 1 with entry points
    (1,0)      testObj        (1,N_W)    registerObj
    (1,2*N_W)  forwardCall    (1,3*N_W)  forwardReturn

Registers are named by their roles in the calling convention (aim/words.py).
Call-stack frames are (return id, return offset, callee id) triples pushed by
forwardCall from the caller id, the resume designator and the callee's module
id. forwardReturn aborts unless the returning module's authenticated id
equals the recorded callee, then transfers to the recorded return address.
The frame depth is mirrored at the first data word so forwardCall can test
emptiness with a plain load.

sys keeps its scratch values out of the argument registers, which forwardCall
passes on untouched: forwardCall uses the jump registers and R_SYS_SCRATCH and
forwardReturn R_CALLEE_OFF, and each procedure scrubs what its exit must not
carry before its boundary jump.

sys is assembled and laid out once, at import: `SYS_WORDS` are its code
words, `SYS_EXIT_MARKS` its boundary jumps, which the trace engine reads
instead of decoding them, and `build_sys()` gives each caller a fresh image
whose code is the `SYS_WORDS` tuple itself and whose memory is a copy of the
depth word.
"""
from __future__ import annotations

from types import MappingProxyType

from ..aim.isa import Assembler
from ..aim.link import ProgramImage, SymbolTable
from ..aim.words import FORWARDCALL_EP, FORWARDRETURN_EP, REGISTEROBJ_EP, SYS_ID, TESTOBJ_EP, Address, Descriptor
from ..aim.words import ARG_REGS, R_CALLEE_MID, R_CALLEE_OFF, R_CALLER, R_JUMP_MID, R_JUMP_OFF, R_RECV, R_RESUME, R_SYS_SCRATCH
from ..jem.ast import MethodSig
from .comp import ABORT, DATA_BASE, abort_block, abort_unless_equal, jump_if, scrub, trampoline

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

    w, w2 = ARG_REGS[:2]  # the two words testObj and registerObj take
    unused = (R_JUMP_OFF, R_JUMP_MID, R_CALLEE_MID, R_CALLEE_OFF, *ARG_REGS)  # what their exits must not carry

    # testObj(w, w'): abort if w is unknown, else result := 0/1 on match/mismatch
    a.label("testobj")
    a.emit("gst_test", R_RECV, w, w2)
    scrub(a, unused)
    exit_jump("testobj", R_RESUME, R_CALLER)

    # registerObj(w, w'): abort if already known; owner is the caller id
    a.label("regobj")
    a.emit("gst_add", w, w2)
    a.emit("movi", R_RECV, 1)
    scrub(a, unused)
    exit_jump("regobj", R_RESUME, R_CALLER)

    # forwardCall: target in (R_CALLEE_MID, R_CALLEE_OFF), caller's resume offset in R_RESUME
    s1, s2 = R_JUMP_OFF, R_JUMP_MID  # its scratch until its exit jump
    a.label("fwcall")
    a.emit("movi", s2, SYS_ID)
    a.emit("movi", s1, DATA_BASE)
    a.emit("movl", s1, s2, s1)
    a.emit("movi", s2, 0)
    a.emit("cmp", s1, s2)
    jump_if(a, "fc_fresh", s2)
    a.emit("stk_pop", s1, s2, R_SYS_SCRATCH)
    a.emit("stk_push", s1, s2, R_SYS_SCRATCH)
    a.emit("cmp", s1, R_CALLER)  # the module that called last may not call again
    jump_if(a, ABORT, s2)
    a.label("fc_fresh")
    a.emit("movi", s1, SYS_ID)
    a.emit("cmp", R_CALLEE_MID, s1)  # no forwarding into sys itself
    jump_if(a, ABORT, s2)
    a.emit("stk_push", R_CALLER, R_RESUME, R_CALLEE_MID)
    a.emit("movi", R_RESUME, FORWARDRETURN_EP)
    scrub(a, (R_CALLER, s1, s2, R_SYS_SCRATCH))
    exit_jump("fwcall", R_CALLEE_OFF, R_CALLEE_MID)

    # forwardReturn: pop (id, n, callee); abort unless the returner is the callee
    a.label("fwret")
    a.emit("stk_pop", R_JUMP_MID, R_JUMP_OFF, R_CALLEE_MID)
    abort_unless_equal(a, R_CALLEE_MID, R_CALLER, R_CALLEE_OFF)
    a.emit("movi", R_RESUME, 1)
    scrub(a, (R_CALLER, R_CALLEE_MID, R_CALLEE_OFF, *ARG_REGS))
    exit_jump("fwret", R_JUMP_OFF, R_JUMP_MID)

    abort_block(a)
    return tuple(a.words()), MappingProxyType(marks)


# sys is one fixed assembly, made once, and laid out once: its memory, the
# depth word alone, and its exports, both read-only; build_sys copies them
SYS_WORDS, SYS_EXIT_MARKS = _assemble()
_SYS_MEM = MappingProxyType({SYS_DEPTH_ADDR: 0})
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
    the caller's to change, and its code is `SYS_WORDS`."""
    return ProgramImage(_SYS_MEM.copy(), [_SYS_DESC], SymbolTable(em=_SYS_EM.copy()), {}, {SYS_ID: SYS_WORDS})
