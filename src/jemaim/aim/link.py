"""Symbol tables, module/program images, compatibility and the merge algebra.

Link keys are jem signatures: a module exports and requires methods under
`MethodSig` (jem/ast.py), whose types are names, and fulfilment matches all
four parts. Objects are keyed by name and class name (`ObjKey`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..jem.ast import MethodSig
from .words import Address, Descriptor, Nonce, Symbol, Word


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

    def clone(self) -> "SymbolTable":
        return SymbolTable(dict(self.em), dict(self.eo), list(self.rm), list(self.ro))


@dataclass
class ProgramImage:
    """A (possibly partial) aim program: memory, descriptors, symbol table.

    `masks` records each protected module's masking-table seed (internal object
    offset -> cross-module id) for its statically exported objects.
    """

    mem: dict[Address, Word]
    descs: list[Descriptor]
    table: SymbolTable
    masks: dict[int, dict[int, Nonce]] = field(default_factory=dict)

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
        )


def substitute(mem: dict[Address, Word], eta: dict[Symbol, Word]) -> dict[Address, Word]:
    """Pointwise substitution; Nats and nonces are unchanged, unmatched symbols kept."""
    if not eta:
        return dict(mem)
    out = {}
    for a, w in mem.items():
        if isinstance(w, Symbol) and w in eta:
            w = eta[w]
        out[a] = w
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


def disjoint(p1: ProgramImage, p2: ProgramImage) -> bool:
    return not (p1.module_ids() & p2.module_ids()) and not (set(p1.mem) & set(p2.mem))


def merge(p1: ProgramImage, p2: ProgramImage) -> ProgramImage:
    """Join two images: fulfilled requirements vanish and their symbols are
    substituted throughout the merged memory; unmet requirements are carried,
    so images may resolve across a chain of merges."""
    if not disjoint(p1, p2):
        raise LinkError("incompatible images: overlapping memories or module ids")
    eta: dict[Symbol, Word] = {}
    rm1 = _resolve(p1.table.rm, p2.table.em, eta)
    rm2 = _resolve(p2.table.rm, p1.table.em, eta)
    ro1 = _resolve_objects(p1.table.ro, p2.table.eo, eta)
    ro2 = _resolve_objects(p2.table.ro, p1.table.eo, eta)
    mem = dict(p1.mem)
    mem.update(p2.mem)
    mem = substitute(mem, eta)
    table = SymbolTable(
        em={**p1.table.em, **p2.table.em},
        eo={**p1.table.eo, **p2.table.eo},
        rm=rm1 + rm2,
        ro=ro1 + ro2,
    )
    masks = {k: dict(v) for k, v in p1.masks.items()}
    for k, v in p2.masks.items():
        masks.setdefault(k, {}).update(v)
    return ProgramImage(mem, list(p1.descs) + list(p2.descs), table, masks)


def well_formed(p: ProgramImage) -> bool:
    """Every symbol in memory is declared by RM/RO; descriptor ids are distinct."""
    ids = [s.mid for s in p.descs]
    if len(ids) != len(set(ids)):
        return False
    declared = p.table.symbols()
    for w in p.mem.values():
        if isinstance(w, Symbol) and w not in declared:
            return False
    return True
