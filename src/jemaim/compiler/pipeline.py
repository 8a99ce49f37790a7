"""The whole compiler pipeline: compaim, the secure linker, and machine boot."""
from __future__ import annotations

from dataclasses import dataclass

from ..aim.link import LinkError, ProgramImage, merge
from ..aim.machine import MachineState, run_state
from ..aim.isa import encode, ins
from ..aim.words import FORWARDCALL_EP, SYS_ID, Address, NonceOracle, Word
from ..jem import ast
from ..jem.interp import DEFAULT_FUEL
from ..jem.typecheck import typecheck
from .comp import comp_class
from .prot import prot
from .sysmod import SYS_DEPTH_ADDR, build_sys


class CompilationError(Exception):
    """A component that does not typecheck; `diagnostics` are the checker's."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("component does not typecheck: " + "; ".join(diagnostics))
        self.diagnostics = diagnostics


class UnresolvedSymbols(Exception):
    pass


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
    out.table.em = {k: v for k, v in out.table.em.items() if v.mid != SYS_ID}
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
    statically exported object registered in the global store."""
    st = MachineState(
        pc=Address(0, 0),
        mem=dict(image.mem),
        descs=list(image.descs),
        oracle=NonceOracle(seed),
    )
    if any(d.mid == SYS_ID for d in image.descs):
        st.sys_depth_addr = SYS_DEPTH_ADDR
        st.mem.setdefault(SYS_DEPTH_ADDR, 0)
    for mid, entries in image.masks.items():
        t = st.table(mid)
        for off, mask in entries.items():
            t.add(off, mask)
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


def find_entry(image: ProgramImage):
    """The EM/EO pair for the program entry `main.main()`."""
    main_cls = None
    mask = None
    for key, w in image.table.eo.items():
        if key.name == "main":
            main_cls, mask = key.cls, w
    if main_cls is None:
        raise UnresolvedSymbols("no exported object named 'main'")
    for sig, addr in image.table.em.items():
        if sig.name == "main" and sig.recv == main_cls and not sig.params:
            return addr, mask
    raise UnresolvedSymbols("no exported method main on the main object's class")


def run_aim(image: ProgramImage, seed: int = 0, fuel: int = DEFAULT_FUEL) -> AimResult:
    """Run a whole linked program: a bootstrap in unprotected memory calls
    main.main() through sys and halts on the returned value."""
    if SYS_ID not in image.module_ids():
        raise UnresolvedSymbols("image does not link in the sys module (sys.aimod)")
    if not image.is_whole():
        raise UnresolvedSymbols("image carries unfulfilled requirements")
    addr, mask = find_entry(image)
    st = boot_state(image, seed)
    boot = []
    boot += encode(ins("movi", 3, addr.mid))
    boot += encode(ins("movi", 4, addr.off))
    boot += encode(ins("movi", 5, BOOT_RET))
    boot += encode(ins("movi", 6, mask))
    boot += encode(ins("movi", 1, FORWARDCALL_EP))
    boot += encode(ins("movi", 2, SYS_ID))
    boot += encode(ins("jmp", 1, 2))
    for i, w in enumerate(boot):
        st.mem[Address(0, BOOT_OFF + i)] = w
    st.mem[Address(0, BOOT_RET)] = 11  # halt
    st.pc = Address(0, BOOT_OFF)
    kind, reason, st, steps = run_state(st, fuel)
    return AimResult(kind, reason, st.reg(6), steps, st)
