"""Shared interface metadata for the back-translation of a component pair."""
from __future__ import annotations

from dataclasses import dataclass

from ..compiler.encoding import class_name_of_encoding
from ..jem import ast
from ..traces.actions import rename


class ImportMismatch(Exception):
    """The two components differ in imports or class layout: trivially distinguishable."""


@dataclass
class Interface:
    internal_classes: list[str]
    external_classes: list[str]
    methods: dict  # action address -> jem method signature (rule methodKnowledge)
    exported_objects: list  # (name, class, canonical id, registry index)
    required_objects: list  # (name, class, "$symbol", registry index)
    names: frozenset  # every class, interface and object name either component declares

    def is_internal(self, t: str) -> bool:
        return t in self.internal_classes

    def is_external(self, t: str) -> bool:
        return t in self.external_classes

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

    methods = {(addr.mid, addr.off): sig for sig, addr in image.table.methods().items()}
    for img in (image, image2):
        for sig, iota, sigma in img.table.rm:
            methods[(f"${iota.name}", f"${sigma.name}")] = sig

    # exported objects carry the names a trace of the component starts from
    exports = image.table.exports()
    names = rename((), {}, [mask for _, mask in exports])[1]
    eo = [(k.name, k.cls, names[mask], idx) for idx, (k, mask) in enumerate(exports, 1)]
    requires = sorted(image.table.ro, key=lambda e: (e[0].render(), e[1].name))
    ro = [(k.name, k.cls, f"${sym.name}", idx) for idx, (k, sym) in enumerate(requires, len(eo) + 1)]
    return Interface(internal, external, methods, eo, ro, _declared(c1) | _declared(c2))


def _declared(c: ast.JemComponent) -> frozenset:
    ics, ios = c.all_imports()
    return frozenset(x.name for x in (*c.classes, *ics, *ios, *(o for cl in c.classes for o in cl.objects)))


def _import_shape(c: ast.JemComponent):
    ics, ios = c.all_imports()
    return (
        sorted((ic.name, tuple(sorted(ic.sigs))) for ic in ics),
        sorted((io.name, io.cname) for io in ios),
    )
