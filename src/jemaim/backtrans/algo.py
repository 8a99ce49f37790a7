"""Witness generation: prefix emulation + differentiation into one code table.

algo(c1, c2, t1, t2) builds a context that terminates when plugged with the
first component and diverges when plugged with the second (or mirrored,
depending on which trace extends the common prefix). Emulation of the common
prefix and diff at the first divergence write into one table of witness code,
(class, method) -> step blocks and return arms; skel then builds each context
method body from its entry once. When the prefix cannot be emulated, the
do-nothing context is the witness, and the failed rule is reported.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..compiler.pipeline import compaim
from ..jem import ast
from ..jem.compat import EMPTY, plug
from ..jem.interp import DEFAULT_FUEL, run
from ..traces.equiv import first_divergence
from .diff import diff
from .emulate import EmulState, Fail, emulate_action
from .interface import build_interface
from .skel import skel


@dataclass
class Witness:
    context: ast.JemComponent
    emulation_failed: str | None  # "action <index>: <rule>" when the prefix cannot be emulated
    steps: int


def algo(c1: ast.JemComponent, c2: ast.JemComponent, t1, t2, image=None, image2=None) -> Witness:
    """Build the distinguishing context for two trace-inequivalent components."""
    image = image if image is not None else compaim(c1)
    image2 = image2 if image2 is not None else compaim(c2)
    iface = build_interface(c1, c2, image, image2)
    prefix, a1, a2, _ = first_divergence(t1, t2)
    st = EmulState(iface)
    try:
        for action in prefix:
            emulate_action(action, st)
    except Fail as f:
        # termination is emulation failure: the do-nothing context differentiates
        return Witness(skel(c1, iface, {}), f"action {st.i}: {f.rule}", 0)
    diff(a1, a2, st)
    return Witness(skel(c1, iface, st.code), None, st.i)


@dataclass
class Verdict:
    first: object
    second: object

    @property
    def distinguishing(self) -> bool:
        t1 = self.first.kind == "terminated"
        t2 = self.second.kind == "terminated"
        return t1 != t2


class PlugFailure(Exception):
    pass


def verify_witness(context: ast.JemComponent, c1: ast.JemComponent, c2: ast.JemComponent, fuel: int = DEFAULT_FUEL) -> Verdict:
    """Run the plugged pairs and report the termination/divergence verdicts.
    Raises PlugFailure, naming the side, when the context does not plug into
    a component: the empty program would terminate on both sides."""
    wholes = []
    for side, c in (("first", c1), ("second", c2)):
        whole = plug(context, c)
        if whole is EMPTY:
            raise PlugFailure(f"the context does not plug into the {side} component (incompatible or ill-typed)")
        wholes.append(whole)
    return Verdict(run(wholes[0], fuel), run(wholes[1], fuel))
