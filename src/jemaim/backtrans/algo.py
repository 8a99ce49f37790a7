"""Witness generation: prefix emulation + differentiation into one code table.

algo(c1, c2, t1, t2, image, image2), given the linked images, builds a context
that terminates when plugged with the first component and diverges when
plugged with the second (or mirrored, depending on which trace extends the
common prefix). Emulation of the common prefix and diff at the first divergence
write into one table of witness code, (class, method) -> step blocks and return
arms; skel then builds each context method body from its entry once. When the
prefix cannot be emulated, the do-nothing context is the witness, and the
failed rule is reported.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from ..jem import ast
from ..jem.compat import compat, join, plug_errors
from ..jem.interp import DEFAULT_FUEL, run
from ..jem.typecheck import typecheck
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


def algo(c1: ast.JemComponent, c2: ast.JemComponent, t1, t2, image, image2) -> Witness:
    """Build the distinguishing context for two trace-inequivalent components."""
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
    """The context does not plug into the `side` component: the empty program
    would terminate on both sides. The message gives the first of `diagnostics`
    without its line:col, which points into the witness template; `part` names
    the part whose check they are ("context", "first", "second"), or is None."""

    def __init__(self, side: str, diagnostics: list[str], part: str | None = None):
        reason = re.sub(r"^\d+:\d+: ", "", diagnostics[0])
        super().__init__(f"the context does not plug into the {side} component: {reason}")
        self.diagnostics, self.part = diagnostics, part


def verify_witness(context: ast.JemComponent, c1: ast.JemComponent, c2: ast.JemComponent, fuel: int = DEFAULT_FUEL) -> Verdict:
    """Check each part once, plug the context into both components and run them.
    Raises PlugFailure on a side's first fault, in this order: incompatible
    imports, the context's check, the component's check, a name both define."""
    checked = {"context": typecheck(context), "first": typecheck(c1), "second": typecheck(c2)}
    for side, c in (("first", c1), ("second", c2)):
        joining = plug_errors(context, c)
        for part in ("context", side, None) if compat(context, c) else (None,):
            errors = checked[part] if part else joining
            if errors:
                raise PlugFailure(side, errors, part)
    return Verdict(run(join(context, c1), fuel), run(join(context, c2), fuel))
