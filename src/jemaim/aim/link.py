"""Symbol tables, module/program images, compatibility and the merge algebra.

Link keys are jem signatures: a module exports and requires methods under
`MethodSig` (jem/ast.py), whose types are names, and fulfilment matches all
four parts. Objects are keyed by name and class name (`ObjKey`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from ..jem.ast import MethodSig
from .words import SYS_ID, Address, Descriptor, Nonce, Symbol, Word


class LinkError(Exception):
    pass


class ObjKey(NamedTuple):
    name: str
    cls: str

    def render(self) -> str:
        return f"{self.name} : {self.cls}"


@dataclass
class SymbolTable:
    """RM/RO are lists: distinct modules may require one signature under distinct symbols."""

    em: dict[MethodSig, Address] = field(default_factory=dict)
    eo: dict[ObjKey, Word] = field(default_factory=dict)
    rm: list[tuple[MethodSig, Symbol, Symbol]] = field(default_factory=list)
    ro: list[tuple[ObjKey, Symbol]] = field(default_factory=list)

    def symbols(self) -> set[Symbol]:
        out = set()
        for _, iota, sigma in self.rm:
            out.add(iota)
            out.add(sigma)
        out.update(sym for _, sym in self.ro)
        return out

    def methods(self) -> dict[MethodSig, Address]:
        """The component's methods: every exported method but sys's four."""
        return {sig: a for sig, a in self.em.items() if a.mid != SYS_ID}

    def exports(self) -> list[tuple[ObjKey, Word]]:
        """The exported objects and their words in canonical order, which a trace numbers N0, N1, ..."""
        return sorted(self.eo.items())

    def clone(self) -> "SymbolTable":
        return SymbolTable(dict(self.em), dict(self.eo), list(self.rm), list(self.ro))


@dataclass
class ProgramImage:
    """A (possibly partial) aim program: memory, descriptors, symbol table.

    `code` maps a module id to its code section, a tuple of exactly the
    descriptor's `code_len` words; no rule writes code, so the tuples are
    built once and link, boot and every clone share them by reference. `mem`
    holds every other word, the data sections and unprotected memory, and
    never an address inside a code tuple. A module without a tuple keeps its
    code in `mem`, as hand-built images do.

    `masks` records each protected module's masking-table seed (internal object
    offset -> cross-module id) for its statically exported objects.
    """

    mem: dict[Address, Word]
    descs: list[Descriptor]
    table: SymbolTable
    masks: dict[int, dict[int, Nonce]] = field(default_factory=dict)
    code: dict[int, tuple[Word, ...]] = field(default_factory=dict)

    def is_whole(self) -> bool:
        return not self.table.rm and not self.table.ro

    def module_ids(self) -> set[int]:
        return {s.mid for s in self.descs}

    def clone(self) -> "ProgramImage":
        return ProgramImage(
            dict(self.mem),
            list(self.descs),
            self.table.clone(),
            {k: dict(v) for k, v in self.masks.items()},
            dict(self.code),
        )

    def substitute(self, eta: dict[Symbol, Word]):
        """Replace every symbol of `eta` in `mem` and in the code tuples, in
        place; a tuple that holds none of them is kept as it is."""
        if not eta:
            return
        self.mem = substitute(self.mem, eta)
        syms = eta.keys()
        self.code = {mid: ws if syms.isdisjoint(ws) else tuple(map(eta.get, ws, ws)) for mid, ws in self.code.items()}


def substitute(mem: dict[Address, Word], eta: dict[Symbol, Word]) -> dict[Address, Word]:
    """Pointwise substitution; Nats and nonces are unchanged, unmatched symbols kept."""
    out = dict(mem)
    if eta:
        for a, w in mem.items():
            if w.__class__ is Symbol and w in eta:
                out[a] = eta[w]
    return out


def _satisfies(em: dict, rm: list) -> bool:
    return all(key in em for key, _, _ in rm)


def compat(p1: ProgramImage, p2: ProgramImage) -> bool:
    """Mutual satisfaction plus disjoint memories and descriptor ids."""
    return (
        disjoint(p1, p2)
        and _satisfies(p1.table.em, p2.table.rm)
        and _satisfies(p2.table.em, p1.table.rm)
        and all(key in p1.table.eo for key, _ in p2.table.ro)
        and all(key in p2.table.eo for key, _ in p1.table.ro)
    )


def _resolve(rm: list, em: dict, eta: dict):
    residual = []
    for key, iota, sigma in rm:
        if key in em:
            addr = em[key]
            eta[iota] = addr.mid
            eta[sigma] = addr.off
        else:
            residual.append((key, iota, sigma))
    return residual


def _resolve_objects(ro: list, eo: dict, eta: dict):
    residual = []
    for key, sigma in ro:
        if key in eo:
            eta[sigma] = eo[key]
        else:
            residual.append((key, sigma))
    return residual


def _in_code(mem: dict[Address, Word], code: dict[int, tuple[Word, ...]]) -> bool:
    """Whether a key of `mem` lies inside a tuple of `code`."""
    return any(0 <= off < len(code[mid]) for mid, off in mem if mid in code)


def disjoint(p1: ProgramImage, p2: ProgramImage) -> bool:
    return (
        not (p1.module_ids() & p2.module_ids())
        and p1.mem.keys().isdisjoint(p2.mem.keys())
        and not _in_code(p1.mem, p2.code)
        and not _in_code(p2.mem, p1.code)
    )


def merge(p1: ProgramImage, p2: ProgramImage) -> ProgramImage:
    """Join two images: fulfilled requirements vanish and their symbols are
    substituted throughout the merged memory and code; unmet requirements are
    carried, so images may resolve across a chain of merges. Only a code
    tuple that holds a substituted symbol is rebuilt; the rest are shared."""
    if not disjoint(p1, p2):
        raise LinkError("incompatible images: overlapping memories or module ids")
    eta: dict[Symbol, Word] = {}
    rm1 = _resolve(p1.table.rm, p2.table.em, eta)
    rm2 = _resolve(p2.table.rm, p1.table.em, eta)
    ro1 = _resolve_objects(p1.table.ro, p2.table.eo, eta)
    ro2 = _resolve_objects(p2.table.ro, p1.table.eo, eta)
    table = SymbolTable(
        em={**p1.table.em, **p2.table.em},
        eo={**p1.table.eo, **p2.table.eo},
        rm=rm1 + rm2,
        ro=ro1 + ro2,
    )
    masks = {k: dict(v) for k, v in p1.masks.items()}
    for k, v in p2.masks.items():
        masks.setdefault(k, {}).update(v)
    out = ProgramImage({**p1.mem, **p2.mem}, list(p1.descs) + list(p2.descs), table, masks, {**p1.code, **p2.code})
    out.substitute(eta)
    return out


def well_formed(p: ProgramImage) -> bool:
    """Descriptor ids are distinct; each code tuple is its descriptor's
    `code_len` words and `mem` holds no address inside one; every symbol in
    memory and code is declared by RM/RO."""
    code_len = {s.mid: s.code_len for s in p.descs}
    if len(code_len) != len(p.descs):
        return False
    if any(code_len.get(mid) != len(ws) for mid, ws in p.code.items()) or _in_code(p.mem, p.code):
        return False
    declared = p.table.symbols()
    words = itertools.chain(p.mem.values(), *p.code.values())
    return all(w in declared for w in words if isinstance(w, Symbol))
