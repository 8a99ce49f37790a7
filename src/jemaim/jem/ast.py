"""Abstract syntax of jem: types, signatures, expressions, classes, components.

A jem type is its name: "Unit", "Bool", "Int", "Obj" or a class name. These
four are keywords, so no class bears their names, and a name denotes one type
from the parser through the compiler and the linker to the back-translator.
A method signature is a `MethodSig` of names; it is also the key under which
compiled modules export and require methods (aim/link.py).

A jem value is one Python value from the parser to the compiler: `UNIT`,
`NULL`, a `bool`, an `int` or an `ObjRef`. A literal's `Lit.value` and an
object's field initialisers hold exactly the values the interpreter computes
with, and `compiler/encoding.py` encodes every one but an `ObjRef`. As
`True == 1` in Python, a `bool` is told from an `int` by `isinstance` before
any lookup or comparison by value.

The checker leaves four facts on the nodes for the compiler: `Call.sig`,
`Var.slot` (`None` for a static object), `VarDecl.slot` and `Method.nvars`.
Equality, `repr` and printing ignore them (`compare=False, repr=False`).

Long `+` chains nest to the left: the checker, the compiler and the printer
walk them in a loop, `left_spine`, and do not recurse down left operands.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


@dataclass(frozen=True)
class Pos:
    line: int = 0
    col: int = 0

    def __repr__(self):
        return f"{self.line}:{self.col}"


T_UNIT = "Unit"
T_BOOL = "Bool"
T_INT = "Int"
T_OBJ = "Obj"
BUILTIN_TYPES = (T_UNIT, T_BOOL, T_INT, T_OBJ)


class Keyword(Enum):
    """The two jem values that are keywords; each prints as its keyword."""

    UNIT = "unit"
    NULL = "null"

    def __repr__(self):
        return self.value


UNIT = Keyword.UNIT
NULL = Keyword.NULL


@dataclass(frozen=True)
class ObjRef:
    """A reference to the object named `name`."""

    name: str

    def __repr__(self):
        return f"<{self.name}>"


class MethodSig(NamedTuple):
    """A method's name and the names of its receiver, parameter and result
    types. Linking fulfils a required method on all four parts."""

    name: str
    recv: str
    params: tuple[str, ...]
    ret: str

    def type_text(self) -> str:
        """`recv(p,…)->ret`, as a method header writes it."""
        return f"{self.recv}({','.join(self.params)})->{self.ret}"

    def render(self) -> str:
        """`name : recv(p,…)->ret`, as declarations and `.aimod` files write it."""
        return f"{self.name} : {self.type_text()}"


# -- expressions -----------------------------------------------------------


@dataclass
class Expr:
    pos: Pos = field(default_factory=Pos, kw_only=True)


@dataclass
class Lit(Expr):
    value: object = None  # a jem value


@dataclass
class Var(Expr):
    name: str = ""
    slot: int | None = field(default=None, compare=False, repr=False)


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
    sig: MethodSig | None = field(default=None, compare=False, repr=False)


@dataclass
class BinOp(Expr):
    op: str = ""  # + - == < &&
    left: Expr = None
    right: Expr = None


def left_spine(e: Expr) -> tuple[Expr, list[BinOp]]:
    """The first operand that is not a `BinOp` down `e`'s left operands, and
    the `BinOp`s on the way, innermost first (in evaluation order)."""
    spine = []
    while isinstance(e, BinOp):
        spine.append(e)
        e = e.left
    return e, spine[::-1]


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
    vtype: str = ""
    value: Expr = None
    slot: int | None = field(default=None, compare=False, repr=False)


# -- declarations ----------------------------------------------------------


@dataclass
class Method:
    name: str
    params: list[str]
    sig: MethodSig
    body: Expr
    pos: Pos = field(default_factory=Pos)
    nvars: int = field(default=0, compare=False, repr=False)


def calls_itself(m: Method) -> bool:
    """The body is exactly `this.<m>()`, a proven loop: the receiver is the
    non-null object just entered, whose class never changes, so the call
    enters `m` again and touches no heap cell on the way. The interpreter
    stops there (jem/interp.py) and the compiler emits a spin in its place
    (compiler/comp.py), so both sides stop at the same loops."""
    b = m.body
    return isinstance(b, Call) and isinstance(b.recv, This) and b.mname == m.name and not b.args


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
    fields: dict[str, object]  # field name -> jem value
    pos: Pos = field(default_factory=Pos)


@dataclass
class JemClass:
    name: str
    import_classes: list[ImportClass]
    import_objects: list[ImportObj]
    ctor: Ctor
    field_types: dict[str, str]  # field name -> type
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
