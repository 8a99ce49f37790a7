"""The trusted central module: global store, global call stack, four procedures.

Module id 1 with entry points
    (1,0)      testObj        (1,N_W)    registerObj
    (1,2*N_W)  forwardCall    (1,3*N_W)  forwardReturn

Call-stack frames are (return id, return offset, callee id) triples pushed by
forwardCall from (r0, r5, r3). forwardReturn aborts unless the returning
module's authenticated id equals the recorded callee, then transfers to the
recorded return address. The frame depth is mirrored at the first data word so
forwardCall can test emptiness with a plain load.
"""
from __future__ import annotations

from ..aim.isa import ZF, Assembler, Label
from ..aim.link import ProgramImage, SymbolTable
from ..aim.words import FORWARDCALL_EP, FORWARDRETURN_EP, REGISTEROBJ_EP, SYS_ID, TESTOBJ_EP, Address, Descriptor
from ..jem.ast import MethodSig
from .comp import DATA_BASE, always_jump, trampoline

SYS_DEPTH_ADDR = Address(SYS_ID, DATA_BASE)

TESTOBJ = MethodSig("testObj", "Obj", ("Obj", "Obj"), "Bool")
REGISTEROBJ = MethodSig("registerObj", "Obj", ("Obj", "Obj"), "Unit")
FORWARDCALL = MethodSig("forwardCall", "Obj", (), "Unit")
FORWARDRETURN = MethodSig("forwardReturn", "Obj", (), "Unit")


def _assemble() -> tuple[list, dict[int, str]]:
    """The code words of sys and the offsets of its four boundary jmp
    instructions, by role."""
    a = Assembler()
    marks: dict[int, str] = {}
    trampoline(a, "testobj")
    trampoline(a, "regobj")
    trampoline(a, "fwcall")
    trampoline(a, "fwret")

    # testObj(w in r7, w' in r8): abort if unknown, else r6 := 0/1 on match/mismatch
    a.label("testobj")
    a.emit("gst_test", 6, 7, 8)
    for r in (1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15):
        a.emit("movi", r, 0)
    marks[a.here()] = "testobj"
    a.emit("jmp", 5, 0)

    # registerObj(w in r7, w' in r8): abort if already known; owner is the caller id
    a.label("regobj")
    a.emit("gst_add", 7, 8)
    a.emit("movi", 6, 1)
    for r in (1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15):
        a.emit("movi", r, 0)
    marks[a.here()] = "regobj"
    a.emit("jmp", 5, 0)

    # forwardCall: target in (r3, r4), caller resume offset in r5
    a.label("fwcall")
    a.emit("movi", 10, SYS_ID)
    a.emit("movi", 9, DATA_BASE)
    a.emit("movl", 9, 10, 9)
    a.emit("movi", 10, 0)
    a.emit("cmp", 9, 10)
    a.emit("movi", 11, Label("fc_fresh"))
    a.emit("je", 11, ZF)
    a.emit("stk_pop", 9, 10, 11)
    a.emit("stk_push", 9, 10, 11)
    a.emit("cmp", 9, 0)  # the module that called last may not call again
    a.emit("movi", 12, Label("sys_abort"))
    a.emit("je", 12, ZF)
    a.label("fc_fresh")
    a.emit("movi", 9, SYS_ID)
    a.emit("cmp", 3, 9)  # no forwarding into sys itself
    a.emit("movi", 12, Label("sys_abort"))
    a.emit("je", 12, ZF)
    a.emit("stk_push", 0, 5, 3)
    a.emit("movi", 5, FORWARDRETURN_EP)
    for r in (0, 1, 2, 9, 10, 11, 12):
        a.emit("movi", r, 0)
    marks[a.here()] = "fwcall"
    a.emit("jmp", 4, 3)

    # forwardReturn: pop (id, n, callee); abort unless the returner is the callee
    a.label("fwret")
    a.emit("stk_pop", 2, 1, 3)
    a.emit("cmp", 3, 0)
    a.emit("movi", 9, Label("fr_ok"))
    a.emit("je", 9, ZF)
    always_jump(a, "sys_abort")
    a.label("fr_ok")
    a.emit("movi", 5, 1)
    for r in (0, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15):
        a.emit("movi", r, 0)
    marks[a.here()] = "fwret"
    a.emit("jmp", 1, 2)

    a.label("sys_abort")
    a.emit("zero")
    a.emit("halt")
    return a.words(), marks


def sys_exit_marks() -> dict[int, str]:
    """Offsets of the four boundary jmp instructions inside sys, by role."""
    return _assemble()[1]


def build_sys() -> ProgramImage:
    words, _ = _assemble()
    mem = {Address(SYS_ID, i): w for i, w in enumerate(words)}
    mem[SYS_DEPTH_ADDR] = 0
    table = SymbolTable(
        em={
            TESTOBJ: Address(SYS_ID, TESTOBJ_EP),
            REGISTEROBJ: Address(SYS_ID, REGISTEROBJ_EP),
            FORWARDCALL: Address(SYS_ID, FORWARDCALL_EP),
            FORWARDRETURN: Address(SYS_ID, FORWARDRETURN_EP),
        }
    )
    return ProgramImage(mem, [Descriptor(SYS_ID, len(words), 4)], table, {})
