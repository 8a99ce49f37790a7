"""Differentiating code for the first pair of diverging component actions.

Returns the additions that make the witness terminate (exit 1) against the
first component and diverge (oc.diverge()) against the second, covering every
case pair: differing returns by value kind, differing callback targets,
callees or parameters, deferred/absent actions, and termination ticks.
Value comparisons nest inside the final emulated block so the bound retvar is
in scope; callback-side code becomes new step-guarded blocks in stub methods.
"""
from __future__ import annotations

from ..jem import ast
from ..jem.ast import T_OBJ
from ..traces.actions import CallOut, FuelExceeded, ReturnOut, Tick
from .emulate import CodeAddition, EmulState, Fail, emulate_value, method_knowledge
from .skel import oc_call, seq


def exit_expr():
    return ast.Seq(ast.Exit(ast.Lit(1)), ast.Lit("unit"))


def diverge_expr():
    return oc_call("diverge")


def _compare(probe: ast.Expr, known: ast.Expr, hit_first: bool) -> ast.Expr:
    """if (probe == known) then detect-first else detect-second."""
    hit = exit_expr() if hit_first else diverge_expr()
    miss = diverge_expr() if hit_first else exit_expr()
    return ast.If(ast.BinOp("==", probe, known), hit, miss)


def _value_probe(w1, w2, t, st: EmulState, probe: ast.Expr):
    """Comparison addition for two differing words of type t; tries the first
    component's value and falls back to the dual when only the second is
    expressible (every case has its mirrored dual)."""
    try:
        known = emulate_value(w1, t, st)
        return _compare(probe, known, hit_first=True)
    except Fail:
        known = emulate_value(w2, t, st)
        return _compare(probe, known, hit_first=False)


def diff(a1, a2, i: int, st: EmulState) -> list[CodeAddition]:
    """Additions A1, A2 for the diverging !-actions at step index i."""
    here = st.here()
    absent = (FuelExceeded, type(None))
    # length differences: one component never answers
    if isinstance(a2, absent) or isinstance(a1, absent):
        present = a1 if isinstance(a2, absent) else a2
        if isinstance(present, Tick):
            return []  # Diff-length-tick: nothing to add
        if isinstance(present, CallOut):
            sig = method_knowledge(st, tuple(present.addr))
            return [CodeAddition([exit_expr()], (str(sig.recv), sig.name), guard=i)]
        return [CodeAddition([exit_expr()], here, guard=i)]
    # tick against a real action: only the real action's side can act
    if isinstance(a1, Tick) or isinstance(a2, Tick):
        live = a2 if isinstance(a1, Tick) else a1
        if isinstance(live, CallOut):
            sig = method_knowledge(st, tuple(live.addr))
            return [CodeAddition([diverge_expr()], (str(sig.recv), sig.name), guard=i)]
        return [CodeAddition([diverge_expr()], here, guard=i)]
    if isinstance(a1, ReturnOut) and isinstance(a2, ReturnOut):
        if a1.value == a2.value:
            return []  # return addresses and ids cannot differ (Diff-rets-addr)
        if not st.frames:
            return []
        t = st.frames[-1].ret_t
        probe = ast.Var(f"retvar-{i - 1}")
        cmp = _value_probe(a1.value, a2.value, t, st, probe)
        return [CodeAddition([cmp], here, guard=i - 1, kind="nest")]
    if isinstance(a1, CallOut) and isinstance(a2, CallOut):
        if tuple(a1.addr) != tuple(a2.addr):
            s1 = method_knowledge(st, tuple(a1.addr))
            s2 = method_knowledge(st, tuple(a2.addr))
            return [
                CodeAddition([exit_expr()], (str(s1.recv), s1.name), guard=i),
                CodeAddition([diverge_expr()], (str(s2.recv), s2.name), guard=i),
            ]
        sig = method_knowledge(st, tuple(a1.addr))
        stub = (str(sig.recv), sig.name)
        if a1.regs[6] != a2.regs[6]:
            cmp = _value_probe(a1.regs[6], a2.regs[6], sig.recv, st, ast.This())
            return [CodeAddition([cmp], stub, guard=i)]
        for j, pt in enumerate(sig.params):
            w1 = a1.regs[7 + j] if 7 + j < len(a1.regs) else 0
            w2 = a2.regs[7 + j] if 7 + j < len(a2.regs) else 0
            if w1 != w2:
                cmp = _value_probe(w1, w2, pt, st, ast.Var(f"x-{j + 1}"))
                return [CodeAddition([cmp], stub, guard=i)]
        return []  # remaining register slots are fixed by the calling convention
    # mixed kinds: callback against return
    if isinstance(a1, CallOut) and isinstance(a2, ReturnOut):
        sig = method_knowledge(st, tuple(a1.addr))
        return [
            CodeAddition([exit_expr()], (str(sig.recv), sig.name), guard=i),
            CodeAddition([diverge_expr()], here, guard=i),
        ]
    if isinstance(a1, ReturnOut) and isinstance(a2, CallOut):
        sig = method_knowledge(st, tuple(a2.addr))
        return [
            CodeAddition([diverge_expr()], (str(sig.recv), sig.name), guard=i),
            CodeAddition([exit_expr()], here, guard=i),
        ]
    return []
