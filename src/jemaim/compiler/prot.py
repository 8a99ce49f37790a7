"""The protective wrapper: entry points, dynamic checks, masking, exports.

prot() assembles a compiled class into a protected module:

    [EP 0: return entry]  [EP i: method i]  ...   (N_W words each)
    [return-entry code] [method-entry code, body, return path]* [abort]
    [overflow] [data: stack pointer, heap pointer, outcall counter, static
    objects, heap ... the stack, far above]

The registers of a crossing are those of the calling convention
(aim/words.py). Method entry points admit only jumps forwarded by sys: the
caller id must be sys and the resume designator forwardReturn. They load
masked receivers and typecheck receiver and parameters, then set up a body as
comp.py describes (MID := module id, FP := SP, the resume designator := the
return path) and fall into it. The return path masks the result, sets
SP := FP, scrubs forwardCall's target and the argument registers and enters
sys's forwardReturn. The return entry point (offset 0) accepts only sys, pops
the outcall triple off the module's stack, reloads MID and FP from it and
typechecks the returned value before resuming. A parameter or returned value
typed `Obj` that is a mask of the module's own class is then unmasked, as
`this` is (`_unmask_own`). Exports bind methods to their entry points and
objects to masks.

The checks' scratch registers are the first two of `POOL`, below every
argument register, so no check clobbers a parameter.
"""
from __future__ import annotations

from ..aim.isa import ZF, Assembler, Label
from ..aim.link import ObjKey, ProgramImage, SymbolTable
from ..aim.words import ARG_REGS, FORWARDRETURN_EP, N_W, R_CALLEE_MID, R_CALLEE_OFF, R_CALLER, R_RECV, R_RESUME, SYS_ID
from ..aim.words import Address, Descriptor, Nonce
from ..jem import ast
from .comp import ABORT, DATA_BASE, FP, MID, OCD, SP, ClassCompiler, CompileError, abort_unless_equal, always_jump, enter_sys, jump_if
from .comp import scrub, trampoline
from .encoding import encode_type

_instance = 0


def _param_check(cc, a: Assembler, reg: int, t: str):
    if t == cc.cls.name:
        skip = cc.fresh_label("pnull")
        a.emit("movi", 1, 0)
        a.emit("cmp", reg, 1)
        jump_if(a, skip, 2)
        a.emit("tbl_get", reg, reg)
        a.emit("movi", 1, cc.own_enc)
        a.emit("tychk", reg, 1)
        a.label(skip)
    else:
        a.emit("movi", 1, encode_type(t))
        a.emit("tychk", reg, 1)
        if t == ast.T_OBJ:
            _unmask_own(cc, a, reg, 1, 2)


def _unmask_own(cc, a: Assembler, reg: int, s: int, u: int):
    """An Obj word in `reg` that is no null and whose class in G is the
    module's own becomes its internal id, as `this` is, so that `==` on two
    Obj values compares one kind of word; through scratch `s` and `u`."""
    skip = cc.fresh_label("objown")
    a.emit("movi", s, 0)
    a.emit("cmp", reg, s)
    jump_if(a, skip, u)
    a.emit("movi", u, cc.own_enc)
    a.emit("gst_test", s, reg, u)  # 0 on a match, 1 on a mismatch
    a.emit("movi", u, 1)
    a.emit("cmp", s, u)
    jump_if(a, skip, u)
    a.emit("tbl_get", reg, reg)
    a.label(skip)


def _method_entry(cc, a: Assembler, m: ast.Method):
    """The checks of method `m`'s entry point, its body and its return path."""
    a.label(f"epimpl_{m.name}")
    a.emit("movi", 1, SYS_ID)
    abort_unless_equal(a, R_CALLER, 1, 2)  # jumps must come via sys
    a.emit("movi", 1, FORWARDRETURN_EP)
    abort_unless_equal(a, R_RESUME, 1, 2)  # with the forward-return address armed
    a.emit("tbl_get", R_RECV, R_RECV)  # receiver: unknown or null masks abort
    a.emit("movi", 1, cc.own_enc)
    a.emit("tychk", R_RECV, 1)
    for r, pt in zip(ARG_REGS, m.sig.params):
        _param_check(cc, a, r, pt)
    if ast.calls_itself(m):  # the body is a spin: nothing returns
        cc.emit_body(a, m)
        return
    ret = cc.fresh_label("epret")
    a.emit("movi", R_RESUME, Label(ret))
    a.emit("movi", MID, cc.mid)
    a.emit("movi", 1, SP)
    a.emit("movl", FP, MID, 1)
    cc.emit_body(a, m)
    a.label(ret)
    cc.mask_out(a, R_RECV, m.sig.ret)
    a.emit("movi", 1, SP)
    a.emit("movs", MID, FP, 1)
    # the jump registers carry the jump; nothing else leaves but R_RESUME and R_RECV
    scrub(a, (R_CALLEE_MID, R_CALLEE_OFF, *ARG_REGS))
    a.emit("movi", R_RESUME, 1)
    enter_sys(a, FORWARDRETURN_EP)


def _return_entry(cc, a: Assembler):
    a.label("retimpl")
    a.emit("movi", 1, SYS_ID)
    abort_unless_equal(a, R_CALLER, 1, 2)  # only sys forwards returns
    a.emit("movi", MID, cc.mid)
    # there must be an outstanding outcall
    a.emit("movi", 3, OCD)
    a.emit("movl", 1, MID, 3)
    a.emit("movi", 2, 0)
    a.emit("cmp", 1, 2)
    jump_if(a, ABORT, 2)
    a.emit("movi", 2, 1)
    a.emit("sub", 1, 2)
    a.emit("movs", MID, 1, 3)
    # pop the [FP, return type, resume] triple
    a.emit("movi", 3, SP)
    a.emit("movl", 1, MID, 3)
    a.emit("movi", 2, 3)
    a.emit("sub", 1, 2)
    a.emit("movs", MID, 1, 3)
    a.emit("movl", FP, MID, 1)  # the frame of the body that called out
    a.emit("movi", 2, 1)
    a.emit("add", 1, 2)
    a.emit("movl", 3, MID, 1)  # expected return-type encoding
    a.emit("add", 1, 2)
    a.emit("movl", 2, MID, 1)  # resume offset
    own = cc.fresh_label("ret_own")
    go = cc.fresh_label("ret_go")
    a.emit("movi", 1, cc.own_enc)
    a.emit("cmp", 3, 1)
    jump_if(a, own, 1)
    a.emit("tychk", R_RECV, 3)
    calls = (n.sig for m in cc.methods for n in ast.walk(m.body) if isinstance(n, ast.Call))
    if any(sig.recv != cc.cls.name and sig.ret == ast.T_OBJ for sig in calls):
        obj = cc.fresh_label("ret_obj")  # an outcall returning Obj returned
        a.emit("movi", 1, encode_type(ast.T_OBJ))
        a.emit("cmp", 3, 1)
        jump_if(a, obj, 1)
        always_jump(a, go, 1)
        a.label(obj)
        _unmask_own(cc, a, R_RECV, 1, 3)
    always_jump(a, go, 1)
    a.label(own)
    a.emit("movi", 1, 0)
    a.emit("cmp", R_RECV, 1)
    jump_if(a, go, 1)  # null return needs no unmasking
    a.emit("tbl_get", R_RECV, R_RECV)
    a.emit("tychk", R_RECV, 3)
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
    cc.emit_shared(a)
    code = tuple(a.words())
    code_len = len(code)
    if code_len >= DATA_BASE:
        raise CompileError(f"code section of {cc.cls.name!r} exceeds the data base")
    mem = {Address(cc.mid, off): w for off, w in cc.data_words().items()}

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
    return ProgramImage(mem, [desc], table, {cc.mid: masks}, {cc.mid: code})
