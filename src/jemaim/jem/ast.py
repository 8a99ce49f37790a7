"""Abstract syntax of jem: types, expressions, classes, components."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Pos:
    line: int = 0
    col: int = 0

    def __repr__(self):
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class JemType:
    kind: str  # 'Unit' | 'Bool' | 'Int' | 'Obj' | 'class'
    cname: str | None = None

    def __str__(self):
        return self.cname if self.kind == "class" else self.kind


T_UNIT = JemType("Unit")
T_BOOL = JemType("Bool")
T_INT = JemType("Int")
T_OBJ = JemType("Obj")
BUILTIN_TYPES = {str(t): t for t in (T_UNIT, T_BOOL, T_INT, T_OBJ)}


def t_class(name: str) -> JemType:
    return JemType("class", name)


def type_named(name: str) -> JemType:
    """The type `str` renders as `name`: the inverse of `str(JemType)`."""
    return BUILTIN_TYPES.get(name) or t_class(name)


def is_object_type(t: JemType) -> bool:
    return t.kind in ("class", "Obj")


# -- expressions -----------------------------------------------------------


@dataclass
class Expr:
    pos: Pos = field(default_factory=Pos, kw_only=True)


@dataclass
class Lit(Expr):
    # value: 'unit' | True | False | int | 'null'
    value: object = None


@dataclass
class Var(Expr):
    name: str = ""


@dataclass
class This(Expr):
    pass


@dataclass
class FieldGet(Expr):
    obj: Expr = None
    fname: str = ""


@dataclass
class FieldSet(Expr):
    obj: Expr = None
    fname: str = ""
    value: Expr = None


@dataclass
class Call(Expr):
    recv: Expr = None
    mname: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class BinOp(Expr):
    op: str = ""  # + - == < &&
    left: Expr = None
    right: Expr = None


@dataclass
class New(Expr):
    cname: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Seq(Expr):
    first: Expr = None
    second: Expr = None


@dataclass
class If(Expr):
    cond: Expr = None
    then: Expr = None
    els: Expr = None


@dataclass
class Exit(Expr):
    value: Expr = None


@dataclass
class InstanceOf(Expr):
    value: Expr = None
    cname: str = ""


@dataclass
class VarDecl(Expr):
    name: str = ""
    vtype: JemType = None
    value: Expr = None


# -- declarations ----------------------------------------------------------


@dataclass(frozen=True)
class MethodSig:
    name: str
    recv: JemType
    params: tuple[JemType, ...]
    ret: JemType


@dataclass
class Method:
    name: str
    params: list[str]
    sig: MethodSig
    body: Expr
    pos: Pos = field(default_factory=Pos)


@dataclass
class Ctor:
    params: list[str]
    pos: Pos = field(default_factory=Pos)


@dataclass
class ImportClass:
    name: str
    sigs: list[MethodSig]
    pos: Pos = field(default_factory=Pos)


@dataclass
class ImportObj:
    name: str
    cname: str
    pos: Pos = field(default_factory=Pos)


@dataclass
class ObjectDef:
    name: str
    cname: str
    fields: dict[str, object]  # field name -> literal value ('unit', bool, int, 'null', obj name)
    pos: Pos = field(default_factory=Pos)


@dataclass
class JemClass:
    name: str
    import_classes: list[ImportClass]
    import_objects: list[ImportObj]
    ctor: Ctor
    field_types: dict[str, JemType]
    methods: list[Method]
    objects: list[ObjectDef]
    pos: Pos = field(default_factory=Pos)

    def method(self, name: str) -> Method | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass
class JemComponent:
    classes: list[JemClass]

    def cls(self, name: str) -> JemClass | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    def all_imports(self) -> tuple[list[ImportClass], list[ImportObj]]:
        ics, ios = [], []
        for c in self.classes:
            ics.extend(c.import_classes)
            ios.extend(c.import_objects)
        return ics, ios
