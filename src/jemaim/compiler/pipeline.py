"""The whole compiler pipeline: compaim, the secure linker, and machine boot."""
from __future__ import annotations

from dataclasses import dataclass

from ..aim.link import LinkError, ProgramImage, merge
from ..aim.machine import MachineState, run_state
from ..aim.isa import Assembler
from ..aim.words import FORWARDCALL_EP, R_CALLEE_MID, R_CALLEE_OFF, R_RECV, R_RESUME, SYS_ID, Address, NonceOracle, Word
from ..jem import ast
from ..jem.compat import NotWhole, entry
from ..jem.interp import DEFAULT_FUEL, RunResult
from ..jem.typecheck import typecheck
from .comp import comp_class, enter_sys
from .encoding import encode_value
from .prot import prot
from .sysmod import SYS_DEPTH_ADDR, build_sys


class CompilationError(Exception):
    """A component that does not typecheck; `diagnostics` are the checker's."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("component does not typecheck: " + "; ".join(diagnostics))
        self.diagnostics = diagnostics


def modules(component: ast.JemComponent, first_mid: int = 2) -> list[ProgramImage]:
    """prot(comp(C)) for every class, module ids from `first_mid` on, then sys."""
    errors = typecheck(component)
    if errors:
        raise CompilationError(errors)
    images = [
        prot(comp_class(component, cls, first_mid + i))
        for i, cls in enumerate(component.classes)
    ]
    return images + [build_sys()]


def compaim(component: ast.JemComponent, first_mid: int = 2) -> ProgramImage:
    """Every class's protected module joined with a single sys module."""
    return mylink(*modules(component, first_mid))


def _strip_sys(image: ProgramImage) -> ProgramImage:
    out = image.clone()
    out.descs = [d for d in out.descs if d.mid != SYS_ID]
    out.mem = {a: w for a, w in out.mem.items() if a.mid != SYS_ID}
    out.code.pop(SYS_ID, None)
    out.table.em = out.table.methods()
    out.masks.pop(SYS_ID, None)
    return out


def mylink(*images: ProgramImage) -> ProgramImage:
    """Join images keeping exactly one occurrence of the sys module."""
    if not images:
        raise LinkError("nothing to link")
    parts = []
    seen_sys = False
    for img in images:
        if SYS_ID in img.module_ids():
            if seen_sys:
                img = _strip_sys(img)
            seen_sys = True
        parts.append(img)
    out = parts[0]
    for img in parts[1:]:
        out = merge(out, img)
    return out


def boot_state(image: ProgramImage, seed: int = 0) -> MachineState:
    """Machine state for a linked image: masking tables installed and every
    statically exported object registered in the global store. The state's
    `code` is the image's map itself, not a copy."""
    st = MachineState(
        pc=Address(0, 0),
        mem=dict(image.mem),
        descs=list(image.descs),
        oracle=NonceOracle(seed),
        code=image.code,
    )
    if any(d.mid == SYS_ID for d in image.descs):
        st.sys_depth_addr = SYS_DEPTH_ADDR
        st.mem.setdefault(SYS_DEPTH_ADDR, 0)
    for mid, entries in image.masks.items():
        for off, mask in entries.items():
            st.add_mask(mid, off, mask)
            enc = image.mem.get(Address(mid, off))
            st.gstore[mask] = (enc, mid)
    return st


@dataclass
class AimResult:
    kind: str  # 'halted' | 'violation' | 'stuck' | 'fuel'
    reason: str | None
    value: Word
    steps: int
    state: MachineState

    @property
    def aborted(self) -> bool:
        return self.kind == "halted" and (self.reason or "").startswith("abort")

    def __repr__(self):
        if self.kind == "halted":
            return f"Halted(r6={self.value!r})" + (" by abort" if self.aborted else "")
        if self.kind == "fuel":
            return "OutOfFuel"
        return self.kind.capitalize()


BOOT_OFF = 1000
BOOT_RET = 1100


def run_aim(image: ProgramImage, seed: int = 0, fuel: int = DEFAULT_FUEL) -> AimResult:
    """Run a whole linked program: a bootstrap in unprotected memory calls the
    entry (`compat.entry`) through sys and halts on the returned value. An image
    without sys, with unfulfilled requirements or without an entry is NotWhole."""
    if SYS_ID not in image.module_ids():
        raise NotWhole("image does not link in the sys module (sys.aimod)")
    if not image.is_whole():
        raise NotWhole("image carries unfulfilled requirements")
    em, eo = image.table.em, image.table.eo
    key, sig = entry(eo, lambda cls, name: next((s for s in em if s.recv == cls and s.name == name), None))
    addr, mask = em[sig], eo[key]
    st = boot_state(image, seed)
    boot = Assembler()
    for r, w in ((R_CALLEE_MID, addr.mid), (R_CALLEE_OFF, addr.off), (R_RESUME, BOOT_RET), (R_RECV, mask)):
        boot.emit("movi", r, w)
    enter_sys(boot, FORWARDCALL_EP)
    for off, code in ((BOOT_OFF, boot), (BOOT_RET, Assembler().emit("halt"))):
        for i, w in enumerate(code.words()):
            st.mem[Address(0, off + i)] = w
    st.pc = Address(0, BOOT_OFF)
    kind, reason, st, steps = run_state(st, fuel)
    return AimResult(kind, reason, st.reg(R_RECV), steps, st)


def agrees(jem: RunResult, aim: AimResult) -> bool:
    """Whether a whole program's source run and compiled run agree: jem's
    Terminated(v) with a halt that is no abort and has r6 = encode_value(v)
    (any r6 for an object), OutOfFuel with fuel, NullError with an abort."""
    if jem.terminated:
        clean = aim.kind == "halted" and not aim.aborted
        return clean and (isinstance(jem.value, ast.ObjRef) or aim.value == encode_value(jem.value))
    if jem.kind == "fuel":
        return aim.kind == "fuel"
    return aim.aborted
