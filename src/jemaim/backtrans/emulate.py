"""Action-by-action emulation of a common trace prefix into context code.

The emulator folds over the prefix keeping: object knowledge V (canonical id ->
(type, registry number)), the environment's registrations R, a frame stack
mirroring the system call stack, the step counter i, and the witness code
table (class, method) -> MethodCode. Action i writes its code, which first
advances Helper's step counter (`incr_step`), into the block that runs when
the counter is i: a call the context makes opens that block in the method it
runs in, `here()`, and its frame records the block's index, so the
component's return nests into the block of the call it answers and reads the
call's result there (`retvar`); a callback opens it in the stub of the called
method, which `here()` then names until the environment returns from it; that
return becomes an arm of the stub's value cascade. Ids the component hands
out are entered in Helper's per-type registries (`add_object`) and denoted by
their registry number (`get_by_name`, `create_new`). Every witness name comes
from these skel builders. Every inability to express an action in source is a
Fail; those are exactly the prefixes whose machine run ends in a termination
tick.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..aim.words import FORWARDCALL_EP, FORWARDRETURN_EP, REGISTEROBJ_EP, SYS_ID, TESTOBJ_EP
from ..compiler.encoding import V_FALSE, V_NULL, V_TRUE, V_UNIT, encode_class
from ..jem import ast
from ..jem.ast import T_BOOL, T_INT, T_OBJ, T_UNIT
from ..traces.actions import CallIn, CallOut, ReturnIn, ReturnOut, Tick
from .interface import Interface
from .skel import (
    HELPER,
    MAIN,
    MethodCode,
    add_object,
    arg_var,
    create_new,
    get_by_name,
    incr_step,
    param,
    recv_var,
    retvar,
)


class Fail(Exception):
    """Emulation failure: the action violates a source-level abstraction."""

    def __init__(self, rule: str):
        super().__init__(rule)
        self.rule = rule


@dataclass
class Frame:
    caller: object  # id word of the module that performed the call
    callee: object  # id word expected to answer (0 = the environment)
    ret_t: str
    method: tuple  # context method holding the call's code
    block: int  # index of the action that opened that block


@dataclass
class EmulState:
    iface: Interface
    i: int = 0
    V: dict = field(default_factory=dict)  # id -> (type, registry number)
    R: dict = field(default_factory=dict)  # id -> registered class encoding
    frames: list = field(default_factory=list)
    code: dict = field(default_factory=dict)  # (class, method) -> MethodCode
    named: int = 0  # registry numbers handed out, contiguous from 1

    def __post_init__(self):
        # statically known objects carry the numbers skel's prelude registers
        for _name, cls, word, idx in self.iface.exported_objects + self.iface.required_objects:
            self.V[word] = (cls, idx)
            self.named = idx

    def here(self) -> tuple:
        """The context method now running: the stub of the innermost open
        callback, else Helper.main."""
        return next((f.method for f in reversed(self.frames) if f.callee == 0), MAIN)

    def number(self, w, t: str) -> int:
        """Give a newly seen id the next registry number."""
        self.named += 1
        self.V[w] = (t, self.named)
        return self.named

    def open_block(self, method: tuple, exprs: list):
        """Code of action i in `method`, run when Helper's step counter is i."""
        self.code.setdefault(method, MethodCode()).blocks.setdefault(self.i, []).extend(exprs)

    def nest(self, frame: Frame, exprs: list):
        """Code that runs once the call of `frame` has returned."""
        self.code[frame.method].blocks[frame.block].extend(exprs)


def integer_for(w):
    """Integers map to themselves, unguessable ids to 0; symbols never occur
    in whole-program traces."""
    if isinstance(w, int):
        return w
    if isinstance(w, str) and w.startswith("$"):
        raise Fail("integerFor-symbol")
    return 0


def arg_word(regs, j: int):
    """The word a call passes as parameter j: register 7 + j, or 0 when the
    action records fewer registers."""
    return regs[7 + j] if 7 + j < len(regs) else 0


def emulate_value(w, t: str, st: EmulState):
    """A source expression denoting w at type t, or Fail."""
    iface = st.iface
    if t == T_UNIT:
        if w == V_UNIT:
            return ast.Lit(ast.UNIT)
        raise Fail("value-unit")
    if t == T_BOOL:
        if w == V_TRUE:
            return ast.Lit(True)
        if w == V_FALSE:
            return ast.Lit(False)
        raise Fail("value-bool")
    if t == T_INT:
        return ast.Lit(integer_for(w))
    # object types
    if w == V_NULL:
        return ast.Lit(ast.NULL)
    if isinstance(w, int):
        raise Fail("value-fake-id")
    if w in st.V:
        vt, idx = st.V[w]
        if t != T_OBJ and vt != t:
            raise Fail("value-retyped")
        return get_by_name(vt, idx)
    if iface.is_external(t) or t == T_OBJ:
        enc = st.R.get(w)
        if enc is None:
            raise Fail("value-unregistered")
        cname = iface.class_of_encoding(enc)
        if cname is None or cname not in iface.external_classes:
            raise Fail("value-unmakeable")
        if t != T_OBJ and encode_class(t) != enc:
            raise Fail("value-class-mismatch")
        return create_new(cname, st.number(w, cname))
    raise Fail("value-unknown-internal")


def method_knowledge(st: EmulState, addr):
    sig = st.iface.methods.get(tuple(addr))
    if sig is None:
        raise Fail("address-unknown")
    return sig


def emulate_action(action, st: EmulState) -> EmulState:
    """One action of the common prefix; mutates and returns the state."""
    i = st.i
    if isinstance(action, CallIn):
        _emulate_call_in(action, st)
    elif isinstance(action, ReturnIn):
        _emulate_return_in(action, st)
    elif isinstance(action, CallOut):
        _emulate_call_out(action, st)
    elif isinstance(action, ReturnOut):
        _emulate_return_out(action, st)
    elif isinstance(action, Tick):
        raise Fail("tick-in-prefix")
    else:
        raise Fail("segment-fuel-in-prefix")
    st.i = i + 1
    return st


def _emulate_call_in(a: CallIn, st: EmulState):
    addr = tuple(a.addr)
    regs = a.regs
    if addr == (SYS_ID, FORWARDCALL_EP):
        # a call that sys refused to forward; mirror its abort conditions
        if st.frames and regs[0] == st.frames[-1].caller:
            raise Fail("forwardCall-repeat-caller")
        if len(regs) > 3 and regs[3] == SYS_ID:
            raise Fail("forwardCall-into-sys")
        raise Fail("forwardCall-bad-target")
    if addr == (SYS_ID, TESTOBJ_EP):
        _emulate_testobj(a, st)
        return
    if addr == (SYS_ID, REGISTEROBJ_EP):
        _emulate_regobj(a, st)
        return
    sig = method_knowledge(st, addr)
    if regs[0] != SYS_ID or regs[5] != FORWARDRETURN_EP:
        raise Fail("entry-bypassing-sys")
    recv_w = regs[6]
    if recv_w == V_NULL:
        raise Fail("null-receiver")
    recv_e = emulate_value(recv_w, sig.recv, st)
    exprs = [incr_step(), ast.VarDecl(recv_var(st.i), sig.recv, recv_e)]
    arg_vars = []
    for j, pt in enumerate(sig.params):
        e = emulate_value(arg_word(regs, j), pt, st)
        name = arg_var(st.i, j)
        exprs.append(ast.VarDecl(name, pt, e))
        arg_vars.append(ast.Var(name))
    exprs.append(
        ast.VarDecl(retvar(st.i), sig.ret, ast.Call(ast.Var(recv_var(st.i)), sig.name, arg_vars))
    )
    _context_call(st, exprs, addr[0], sig.ret)


def _emulate_testobj(a: CallIn, st: EmulState):
    regs = a.regs
    w, enc = regs[7], regs[8]
    if w not in st.V and w not in st.R:
        raise Fail("testObj-unknown-id")
    cname = st.iface.class_of_encoding(enc) or HELPER
    target = emulate_value(w, st.V[w][0] if w in st.V else T_OBJ, st)
    exprs = [incr_step(), ast.VarDecl(retvar(st.i), T_BOOL, ast.InstanceOf(target, cname))]
    _context_call(st, exprs, SYS_ID, T_BOOL)


def _emulate_regobj(a: CallIn, st: EmulState):
    regs = a.regs
    w, enc = regs[7], regs[8]
    if w in st.V or w in st.R:
        raise Fail("registerObj-known-id")
    st.R[w] = enc
    exprs = [incr_step(), ast.VarDecl(retvar(st.i), T_UNIT, ast.Lit(ast.UNIT))]
    _context_call(st, exprs, SYS_ID, T_UNIT)


def _context_call(st: EmulState, exprs: list, callee, ret_t: str):
    """The context makes a call as action i: its block opens in here()."""
    here = st.here()
    st.open_block(here, exprs)
    st.frames.append(Frame(0, callee, ret_t, here, st.i))


def _emulate_return_in(a: ReturnIn, st: EmulState):
    if tuple(a.addr) != (SYS_ID, FORWARDRETURN_EP):
        raise Fail("returnback-bad-address")
    if not st.frames:
        raise Fail("returnback-without-call")
    frame = st.frames[-1]
    if a.caller != frame.callee:
        raise Fail("returnback-wrong-id")
    value = emulate_value(a.value, frame.ret_t, st)
    st.frames.pop()
    st.code[frame.method].returns.append((st.i, [incr_step(), value]))


def _emulate_call_out(a: CallOut, st: EmulState):
    sig = method_knowledge(st, tuple(a.addr))
    stub_method = (sig.recv, sig.name)
    exprs = [incr_step()]
    for j, pt in enumerate(sig.params):
        exprs += _registration(st, arg_word(a.regs, j), pt, ast.Var(param(j)))
    st.open_block(stub_method, exprs)
    st.frames.append(Frame(a.addr[0], 0, sig.ret, stub_method, st.i))


def _emulate_return_out(a: ReturnOut, st: EmulState):
    if not st.frames or st.frames[-1].callee == 0:
        raise Fail("return-without-call")
    frame = st.frames.pop()
    st.nest(frame, [incr_step(), *_registration(st, a.value, frame.ret_t, ast.Var(retvar(frame.block)))])


def _registration(st: EmulState, w, t: str, e: ast.Expr) -> list:
    """Code registering `e`, which holds the id w the component passed at type
    t, when that id is new and the context has a registry for it."""
    if isinstance(w, int) or w in st.V or not (st.iface.is_internal(t) or (t == T_OBJ and w not in st.R)):
        return []
    return [add_object(t, e, st.number(w, t))]


def emulate(prefix, iface: Interface):
    """Emulate a common prefix. Returns the final state, or None on Fail — the
    do-nothing differentiator (termination is emulation failure)."""
    st = EmulState(iface)
    try:
        for action in prefix:
            emulate_action(action, st)
    except Fail:
        return None
    return st
