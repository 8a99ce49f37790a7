"""Shared interface metadata for the back-translation of a component pair."""
from __future__ import annotations

from dataclasses import dataclass

from ..aim.link import MethodSig as LinkSig
from ..aim.words import SYS_ID
from ..compiler.encoding import class_name_of_encoding
from ..jem import ast


class ImportMismatch(Exception):
    """The two components differ in imports or class layout: trivially distinguishable."""


def jem_sig(sig: LinkSig) -> ast.MethodSig:
    return ast.MethodSig(
        sig.name, ast.type_named(sig.recv), tuple(map(ast.type_named, sig.params)), ast.type_named(sig.ret)
    )


@dataclass
class Interface:
    internal_classes: list[str]
    external_classes: list[str]
    methods: dict  # action address -> jem method signature (rule methodKnowledge)
    exported_objects: list  # (name, class, canonical id, registry index)
    required_objects: list  # (name, class, "$symbol", registry index)

    def is_internal(self, t: ast.JemType) -> bool:
        return t.kind == "class" and t.cname in self.internal_classes

    def is_external(self, t: ast.JemType) -> bool:
        return t.kind == "class" and t.cname in self.external_classes

    def class_of_encoding(self, enc):
        """The internal or external class `enc` encodes, or None for any other word."""
        name = class_name_of_encoding(enc)
        return name if name in self.internal_classes or name in self.external_classes else None


def build_interface(c1: ast.JemComponent, c2: ast.JemComponent, image, image2) -> Interface:
    """Shared knowledge of the pair: internal/external classes, method addresses,
    object registries. Exports coincide across the pair; requirements are the
    union (each compilation only requires the methods it calls)."""
    if _import_shape(c1) != _import_shape(c2):
        raise ImportMismatch("components import different interfaces or objects")
    if sorted(c.name for c in c1.classes) != sorted(c.name for c in c2.classes):
        raise ImportMismatch("components define different classes")
    internal = sorted(c.name for c in c1.classes)
    ics, ios = c1.all_imports()
    external = sorted({ic.name for ic in ics})

    methods = {}
    for sig, addr in image.table.em.items():
        if addr.mid != SYS_ID:
            methods[(addr.mid, addr.off)] = jem_sig(sig)
    for img in (image, image2):
        for sig, iota, sigma in img.table.rm:
            methods[(f"${iota.name}", f"${sigma.name}")] = jem_sig(sig)

    eo, idx = [], 1
    canon = {}
    for k, mask in sorted(image.table.eo.items()):
        cname = f"N{len(canon)}"
        canon[mask] = cname
        eo.append((k.name, k.cls, cname, idx))
        idx += 1
    ro = []
    for k, sym in sorted(image.table.ro, key=lambda e: (e[0].render(), e[1].name)):
        ro.append((k.name, k.cls, f"${sym.name}", idx))
        idx += 1
    return Interface(internal, external, methods, eo, ro)


def _import_shape(c: ast.JemComponent):
    ics, ios = c.all_imports()
    return (
        sorted((ic.name, tuple(sorted(map(repr, ic.sigs)))) for ic in ics),
        sorted((io.name, io.cname) for io in ios),
    )
