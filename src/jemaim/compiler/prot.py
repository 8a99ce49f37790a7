"""The protective wrapper: entry points, dynamic checks, masking, exports.

prot() assembles a compiled class into a protected module:

    [EP 0: return entry]  [EP i: method i]  ...   (N_W words each)
    [return-entry code] [method-entry code]* [method bodies]* [exit] [abort]
    [data: stack pointer, heap pointer, outcall counter, static objects,
     heap ... the stack, far above]

Method entry points admit only jumps forwarded by sys (r0=1, r5=3*N_W), load
masked receivers, typecheck receiver and parameters, run the body, mask the
result and return through sys. The return entry point (offset 0) accepts only
sys, pops the outcall triple off the module's stack and typechecks the
returned value before resuming. Exports bind methods to their entry points
and objects to masks.
"""
from __future__ import annotations

from ..aim.isa import ZF, Assembler, Label
from ..aim.link import ObjKey, ProgramImage, SymbolTable
from ..aim.words import FORWARDRETURN_EP, N_W, SYS_ID, Address, Descriptor, Nonce
from ..jem import ast
from .comp import DATA_BASE, OCD, SP, ClassCompiler, CompileError, always_jump, jump_if, trampoline
from .encoding import encode_type

_instance = 0


def _check_eq(cc, a: Assembler, reg: int, value):
    ok = cc.fresh_label("chk")
    a.emit("movi", 1, value)
    a.emit("cmp", reg, 1)
    jump_if(a, ok, tmp=2)
    always_jump(a, "abort")
    a.label(ok)


def _param_check(cc, a: Assembler, reg: int, t: str):
    if t == cc.cls.name:
        skip = cc.fresh_label("pnull")
        a.emit("movi", 1, 0)
        a.emit("cmp", reg, 1)
        jump_if(a, skip)
        a.emit("tbl_get", reg, reg)
        a.emit("movi", 1, cc.own_enc)
        a.emit("tychk", reg, 1)
        a.label(skip)
    else:
        a.emit("movi", 1, encode_type(t))
        a.emit("tychk", reg, 1)


def _method_entry(cc, a: Assembler, m: ast.Method):
    a.label(f"epimpl_{m.name}")
    _check_eq(cc, a, 0, SYS_ID)  # jumps must come via sys
    _check_eq(cc, a, 5, FORWARDRETURN_EP)  # with the forward-return address armed
    a.emit("tbl_get", 6, 6)  # receiver: unknown or null masks abort
    a.emit("movi", 1, cc.own_enc)
    a.emit("tychk", 6, 1)
    for i, pt in enumerate(m.sig.params):
        _param_check(cc, a, 7 + i, pt)
    ret = cc.fresh_label("epret")
    a.emit("movi", 5, Label(ret))
    always_jump(a, f"body_{m.name}")
    a.label(ret)
    cc.mask_out(a, 6, m.sig.ret)
    for r in (1, 2, 3, 4):
        a.emit("movi", r, 0)
    for r in range(7, 16):
        a.emit("movi", r, 0)
    a.emit("movi", 5, 1)
    a.emit("movi", 1, FORWARDRETURN_EP)
    a.emit("movi", 2, SYS_ID)
    a.emit("jmp", 1, 2)


def _return_entry(cc, a: Assembler):
    a.label("retimpl")
    _check_eq(cc, a, 0, SYS_ID)  # only sys forwards returns
    # there must be an outstanding outcall
    a.emit("movi", 10, cc.mid)
    a.emit("movi", 9, OCD)
    a.emit("movl", 1, 10, 9)
    a.emit("movi", 2, 0)
    a.emit("cmp", 1, 2)
    jump_if(a, "abort")
    a.emit("movi", 2, 1)
    a.emit("sub", 1, 2)
    a.emit("movs", 10, 1, 9)
    # pop the [this, return type, resume] triple
    a.emit("movi", 9, SP)
    a.emit("movl", 9, 10, 9)
    a.emit("movi", 11, 3)
    a.emit("sub", 9, 11)
    a.emit("movi", 11, SP)
    a.emit("movs", 10, 9, 11)
    a.emit("movl", 12, 10, 9)  # saved current object
    a.emit("movi", 11, 1)
    a.emit("add", 9, 11)
    a.emit("movl", 1, 10, 9)  # expected return-type encoding
    a.emit("movi", 11, 1)
    a.emit("add", 9, 11)
    a.emit("movl", 2, 10, 9)  # resume offset
    own = cc.fresh_label("ret_own")
    go = cc.fresh_label("ret_go")
    a.emit("movi", 11, cc.own_enc)
    a.emit("cmp", 1, 11)
    jump_if(a, own)
    a.emit("tychk", 6, 1)
    always_jump(a, go)
    a.label(own)
    a.emit("movi", 11, 0)
    a.emit("cmp", 6, 11)
    jump_if(a, go)  # null return needs no unmasking
    a.emit("tbl_get", 6, 6)
    a.emit("tychk", 6, 1)
    a.label(go)
    a.emit("cmp", 0, 0)
    a.emit("je", 2, ZF)


def prot(cc: ClassCompiler) -> ProgramImage:
    """Wrap a compiled class into a protected aim module."""
    k = len(cc.methods)
    a = Assembler()
    trampoline(a, "retimpl")
    for m in cc.methods:
        trampoline(a, f"epimpl_{m.name}")
    _return_entry(cc, a)
    for m in cc.methods:
        _method_entry(cc, a, m)
    for m in cc.methods:
        cc.emit_body(a, m)
    cc.emit_exit(a)
    cc.emit_abort(a)
    code = a.words()
    code_len = len(code)
    if code_len >= DATA_BASE:
        raise CompileError(f"code section of {cc.cls.name!r} exceeds the data base")

    mem = {Address(cc.mid, i): w for i, w in enumerate(code)}
    for off, w in cc.data_words().items():
        mem[Address(cc.mid, off)] = w

    # masking table for statically exported objects: one fresh mask each.
    # The stream names the compilation, not just the class and module id: a
    # mask of one compilation must be a stale, unknown id in every other, or
    # a mask taken from a second compile of the same class reaches the bodies
    # of the first (acceptance criterion 2 counts 50 such escapes on `cell`)
    global _instance
    _instance += 1
    stream = f"static-{cc.cls.name}-{cc.mid}-{_instance}"
    masks: dict[int, Nonce] = {}
    eo: dict[ObjKey, Nonce] = {}
    for seq, (key, obj_off) in enumerate(cc.exported_objects):
        mask = Nonce(stream, seq)
        masks[obj_off] = mask
        eo[key] = mask

    em = {}
    for i, m in enumerate(cc.methods):
        em[m.sig] = Address(cc.mid, (i + 1) * N_W)

    table = SymbolTable(em=em, eo=eo, rm=cc.required_methods, ro=cc.required_objects)
    desc = Descriptor(cc.mid, code_len, k + 1)
    return ProgramImage(mem, [desc], table, {cc.mid: masks})
