"""Action-by-action emulation of a common trace prefix into context code.

The emulator folds over the prefix keeping: object knowledge V (canonical id ->
(type, registry number)), the environment's registrations R, a bracket stack
mirroring the system call stack (caller id, callee id, expected return type),
the placement stack naming the context method receiving code, and the step
counter. Every inability to express an action in source is a Fail; those are
exactly the prefixes whose machine run ends in a termination tick.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..aim.words import FORWARDCALL_EP, FORWARDRETURN_EP, REGISTEROBJ_EP, SYS_ID, TESTOBJ_EP
from ..compiler.encoding import V_FALSE, V_NULL, V_TRUE, V_UNIT, encode_class
from ..jem import ast
from ..jem.ast import T_BOOL, T_INT, T_OBJ, T_UNIT, JemType, t_class
from ..traces.actions import CallIn, CallOut, ReturnIn, ReturnOut, Tick
from .interface import Interface
from .skel import oc_call


class Fail(Exception):
    """Emulation failure: the action violates a source-level abstraction."""

    def __init__(self, rule: str):
        super().__init__(rule)
        self.rule = rule


@dataclass
class CodeAddition:
    """An expression block destined for a context method, optionally step-guarded."""

    exprs: list
    method: tuple  # (class name, method name)
    guard: int | None = None
    kind: str = "effect"  # 'effect' | 'retval' | 'nest'

    def guarded(self) -> bool:
        return self.guard is not None


@dataclass
class Frame:
    caller: object  # id word of the module that performed the call
    callee: object  # id word expected to answer (0 = the environment)
    ret_t: JemType
    method: tuple | None  # context method the call code was placed in


@dataclass
class EmulState:
    iface: Interface
    i: int = 0
    V: dict = field(default_factory=dict)  # id -> (JemType, registry number)
    R: dict = field(default_factory=dict)  # id -> registered class encoding
    frames: list = field(default_factory=list)
    placement: list = field(default_factory=lambda: [("Helper", "main")])
    names: dict = field(default_factory=dict)
    additions: list = field(default_factory=list)

    def here(self) -> tuple:
        return self.placement[-1]

    def nonce_to_int(self, w) -> int:
        if isinstance(w, int):
            return w
        if w not in self.names:
            self.names[w] = max(self.names.values(), default=0) + 1
        return self.names[w]


def integer_for(w):
    """Integers map to themselves, unguessable ids to 0; symbols never occur
    in whole-program traces."""
    if isinstance(w, int):
        return w
    if isinstance(w, str) and w.startswith("$"):
        raise Fail("integerFor-symbol")
    return 0


def emulate_value(w, t: JemType, st: EmulState):
    """A source expression denoting w at type t, or Fail."""
    iface = st.iface
    if t == T_UNIT:
        if w == V_UNIT:
            return ast.Lit("unit")
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
        return ast.Lit("null")
    if isinstance(w, int):
        raise Fail("value-fake-id")
    if w in st.V:
        vt, idx = st.V[w]
        if t != T_OBJ and vt != t:
            raise Fail("value-retyped")
        return oc_call(f"getByName-{vt}", ast.Lit(idx))
    if iface.is_external(t) or t == T_OBJ:
        enc = st.R.get(w)
        if enc is None:
            raise Fail("value-unregistered")
        cname = iface.class_of_encoding(enc)
        if cname is None or cname not in iface.external_classes:
            raise Fail("value-unmakeable")
        if t != T_OBJ and encode_class(t.cname) != enc:
            raise Fail("value-class-mismatch")
        idx = st.nonce_to_int(w)
        st.V[w] = (t_class(cname), idx)
        return oc_call(f"createNew-{cname}", ast.Lit(idx))
    raise Fail("value-unknown-internal")


def method_knowledge(st: EmulState, addr):
    sig = st.iface.methods.lookup(addr)
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
    exprs = [oc_call("incrStep"), ast.VarDecl(f"o-{st.i}", sig.recv, recv_e)]
    arg_vars = []
    for j, pt in enumerate(sig.params):
        w = regs[7 + j] if 7 + j < len(regs) else 0
        e = emulate_value(w, pt, st)
        name = f"arg-{st.i}-{j + 1}"
        exprs.append(ast.VarDecl(name, pt, e))
        arg_vars.append(ast.Var(name))
    exprs.append(
        ast.VarDecl(f"retvar-{st.i}", sig.ret, ast.Call(ast.Var(f"o-{st.i}"), sig.name, arg_vars))
    )
    st.additions.append(CodeAddition(exprs, st.here(), guard=st.i))
    st.frames.append(Frame(caller=0, callee=addr[0], ret_t=sig.ret, method=st.here()))


def _emulate_testobj(a: CallIn, st: EmulState):
    regs = a.regs
    w, enc = regs[7], regs[8]
    if w not in st.V and w not in st.R:
        raise Fail("testObj-unknown-id")
    cname = st.iface.class_of_encoding(enc) or "Helper"
    target = emulate_value(w, st.V[w][0] if w in st.V else T_OBJ, st)
    exprs = [
        oc_call("incrStep"),
        ast.VarDecl(f"retvar-{st.i}", T_BOOL, ast.InstanceOf(target, cname)),
    ]
    st.additions.append(CodeAddition(exprs, st.here(), guard=st.i))
    st.frames.append(Frame(caller=0, callee=SYS_ID, ret_t=T_BOOL, method=st.here()))


def _emulate_regobj(a: CallIn, st: EmulState):
    regs = a.regs
    w, enc = regs[7], regs[8]
    if w in st.V or w in st.R:
        raise Fail("registerObj-known-id")
    st.R[w] = enc
    exprs = [oc_call("incrStep"), ast.VarDecl(f"retvar-{st.i}", T_UNIT, ast.Lit("unit"))]
    st.additions.append(CodeAddition(exprs, st.here(), guard=st.i))
    st.frames.append(Frame(caller=0, callee=SYS_ID, ret_t=T_UNIT, method=st.here()))


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
    method = st.placement.pop()
    st.additions.append(
        CodeAddition([oc_call("incrStep"), value], method, guard=st.i, kind="retval")
    )


def _emulate_call_out(a: CallOut, st: EmulState):
    sig = method_knowledge(st, tuple(a.addr))
    stub_method = (str(sig.recv), sig.name)
    exprs = [oc_call("incrStep")]
    for j, pt in enumerate(sig.params):
        w = a.regs[7 + j] if 7 + j < len(a.regs) else 0
        if st.iface.is_internal(pt) and not isinstance(w, int) and w not in st.V:
            idx = st.nonce_to_int(w)
            st.V[w] = (pt, idx)
            exprs.append(oc_call(f"addObject-{pt.cname}", ast.Var(f"x-{j + 1}"), ast.Lit(idx)))
        elif pt == T_OBJ and not isinstance(w, int) and w not in st.V and w not in st.R:
            idx = st.nonce_to_int(w)
            st.V[w] = (T_OBJ, idx)
            exprs.append(oc_call("addObject-Obj", ast.Var(f"x-{j + 1}"), ast.Lit(idx)))
    st.additions.append(CodeAddition(exprs, stub_method, guard=st.i))
    st.frames.append(Frame(caller=a.addr[0], callee=0, ret_t=sig.ret, method=stub_method))
    st.placement.append(stub_method)


def _emulate_return_out(a: ReturnOut, st: EmulState):
    if not st.frames or st.frames[-1].callee == 0:
        raise Fail("return-without-call")
    frame = st.frames.pop()
    exprs = [oc_call("incrStep")]
    t = frame.ret_t
    w = a.value
    if st.iface.is_internal(t) and not isinstance(w, int) and w not in st.V:
        idx = st.nonce_to_int(w)
        st.V[w] = (t, idx)
        exprs.append(oc_call(f"addObject-{t.cname}", ast.Var(f"retvar-{st.i - 1}"), ast.Lit(idx)))
    elif t == T_OBJ and not isinstance(w, int) and w != V_NULL and w not in st.V and w not in st.R:
        idx = st.nonce_to_int(w)
        st.V[w] = (T_OBJ, idx)
        exprs.append(oc_call("addObject-Obj", ast.Var(f"retvar-{st.i - 1}"), ast.Lit(idx)))
    # runs right after the call expression returns: nest into the caller's block
    st.additions.append(CodeAddition(exprs, frame.method, guard=st.i - 1, kind="nest"))


def emulate(prefix, iface: Interface):
    """Emulate a common prefix. Returns the final state, or None on Fail — the
    do-nothing differentiator (termination is emulation failure)."""
    st = EmulState(iface)
    st.names = dict(iface.seeded_name_table())
    for name, cls, word, idx in iface.exported_objects + iface.required_objects:
        st.V[word] = (t_class(cls), idx)
    try:
        for action in prefix:
            emulate_action(action, st)
    except Fail:
        return None
    return st
