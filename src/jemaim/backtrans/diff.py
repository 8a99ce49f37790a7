"""Differentiating code for the first pair of diverging component actions.

diff writes into the emulation's code table the blocks that make the witness
terminate (exit 1) against the first component and diverge (Helper's
self-calling `diverge`) against the second, covering every case pair:
differing returns by value kind, differing callback targets, callees or
parameters, deferred/absent actions, and termination ticks. A comparison of
two return values nests into the block of the call they answer, where that
call's result (`retvar`) is bound; all other code opens the divergence step's
block in the context method that runs next: the called stub after a
callback, here() after a return.
"""
from __future__ import annotations

from ..jem import ast
from ..traces.actions import CallOut, FuelExceeded, ReturnOut, Tick
from .emulate import EmulState, Fail, arg_word, emulate_value, method_knowledge
from .skel import diverge, param, retvar


def exit_expr():
    return ast.Seq(ast.Exit(ast.Lit(1)), ast.Lit(ast.UNIT))


def _compare(probe: ast.Expr, known: ast.Expr, hit_first: bool) -> ast.Expr:
    """if (probe == known) then detect-first else detect-second."""
    hit = exit_expr() if hit_first else diverge()
    miss = diverge() if hit_first else exit_expr()
    return ast.If(ast.BinOp("==", probe, known), hit, miss)


def _value_probe(w1, w2, t, st: EmulState, probe: ast.Expr):
    """Comparison for two differing words of type t; tries the first
    component's value and falls back to the dual when only the second is
    expressible (every case has its mirrored dual)."""
    try:
        known = emulate_value(w1, t, st)
        return _compare(probe, known, hit_first=True)
    except Fail:
        known = emulate_value(w2, t, st)
        return _compare(probe, known, hit_first=False)


def diff(a1, a2, st: EmulState):
    """Write the code telling apart the diverging !-actions a1, a2 at step st.i."""

    def at(action) -> tuple:
        """The context method that runs next when the component performs `action`."""
        if isinstance(action, CallOut):
            sig = method_knowledge(st, action.addr)
            return (sig.recv, sig.name)
        return st.here()

    absent = (FuelExceeded, type(None))
    # length differences: one component never answers
    if isinstance(a2, absent) or isinstance(a1, absent):
        present = a1 if isinstance(a2, absent) else a2
        if not isinstance(present, Tick):  # Diff-length-tick: nothing to add
            st.open_block(at(present), [exit_expr()])
        return
    # tick against a real action: only the real action's side can act
    if isinstance(a1, Tick) or isinstance(a2, Tick):
        st.open_block(at(a2 if isinstance(a1, Tick) else a1), [diverge()])
        return
    if isinstance(a1, ReturnOut) and isinstance(a2, ReturnOut):
        # equal values: return addresses and ids cannot differ (Diff-rets-addr)
        if a1.value != a2.value and st.frames:
            frame = st.frames[-1]
            probe = ast.Var(retvar(frame.block))
            st.nest(frame, [_value_probe(a1.value, a2.value, frame.ret_t, st, probe)])
        return
    if isinstance(a1, CallOut) and isinstance(a2, CallOut) and tuple(a1.addr) == tuple(a2.addr):
        sig = method_knowledge(st, a1.addr)
        if a1.regs[6] != a2.regs[6]:
            st.open_block(at(a1), [_value_probe(a1.regs[6], a2.regs[6], sig.recv, st, ast.This())])
            return
        for j, pt in enumerate(sig.params):
            w1, w2 = arg_word(a1.regs, j), arg_word(a2.regs, j)
            if w1 != w2:
                st.open_block(at(a1), [_value_probe(w1, w2, pt, st, ast.Var(param(j)))])
                return
        return  # remaining register slots are fixed by the calling convention
    # different callees, or a callback against a return
    st.open_block(at(a1), [exit_expr()])
    st.open_block(at(a2), [diverge()])
