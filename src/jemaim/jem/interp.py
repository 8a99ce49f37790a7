"""Small-step interpreter for jem with fuel-bounded execution.

Configurations carry the mutable object store, a stack of per-method binding
frames, the current focus (an expression or a value) and an explicit
continuation. Each step() applies exactly one deterministic transition.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..aim.words import MASK64
from . import ast

DEFAULT_FUEL = 1_000_000


class Unit:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "unit"


class Null:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "null"


UNIT = Unit()
NULL = Null()


@dataclass(frozen=True)
class ObjRef:
    name: str

    def __repr__(self):
        return f"<{self.name}>"


@dataclass
class ObjCell:
    cname: str
    fields: dict[str, object]


class NotWhole(Exception):
    pass


@dataclass
class RunResult:
    kind: str  # 'terminated' | 'fuel' | 'nullerror'
    value: object = None
    steps: int = 0

    @property
    def terminated(self):
        return self.kind == "terminated"

    def __repr__(self):
        if self.kind == "terminated":
            return f"Terminated({self.value!r})"
        if self.kind == "fuel":
            return "OutOfFuel"
        return "NullError"


@dataclass
class JemConfig:
    comp: ast.JemComponent
    heap: dict[str, ObjCell]
    bstack: list[dict[str, object]]
    this_stack: list[object]
    kont: list[tuple]
    focus: tuple  # ('expr', Expr) | ('value', v)
    fresh: int = 0
    terminal: RunResult | None = None
    _classes: dict[str, ast.JemClass] = field(default_factory=dict)

    @staticmethod
    def initial(comp: ast.JemComponent) -> "JemConfig":
        """The configuration about to evaluate `main.main()`."""
        heap = {}
        for c in comp.classes:
            for o in c.objects:
                heap[o.name] = ObjCell(o.cname, dict(o.fields))
        # object-name initialisers become references
        for cell in heap.values():
            for f, v in cell.fields.items():
                cell.fields[f] = _literal_value(v)
        call = ast.Call(ast.Var("main"), "main", [])
        return JemConfig(
            comp=comp,
            heap=heap,
            bstack=[{}],
            this_stack=[NULL],
            kont=[],
            focus=("expr", call),
            _classes={c.name: c for c in comp.classes},
        )

    def cls(self, name):
        return self._classes.get(name)

    # -- single deterministic transition ------------------------------------

    def step(self) -> "JemConfig":
        if self.terminal is not None:
            return self
        kind, payload = self.focus
        if kind == "expr":
            self._step_expr(payload)
        else:
            self._step_value(payload)
        return self

    def _die(self, kind, value=None):
        self.terminal = RunResult(kind, value)

    def _step_expr(self, e: ast.Expr):
        if isinstance(e, ast.Lit):
            self.focus = ("value", _literal_value(e.value))
        elif isinstance(e, ast.Var):
            frame = self.bstack[-1]
            if e.name in frame:
                self.focus = ("value", frame[e.name])
            elif e.name in self.heap:
                self.focus = ("value", ObjRef(e.name))
            else:
                self._die("nullerror", f"unbound {e.name}")
        elif isinstance(e, ast.This):
            self.focus = ("value", self.this_stack[-1])
        elif isinstance(e, ast.Seq):
            self.kont.append(("seq", e.second))
            self.focus = ("expr", e.first)
        elif isinstance(e, ast.If):
            self.kont.append(("if", e.then, e.els))
            self.focus = ("expr", e.cond)
        elif isinstance(e, ast.FieldGet):
            self.kont.append(("fieldget", e.fname))
            self.focus = ("expr", e.obj)
        elif isinstance(e, ast.FieldSet):
            self.kont.append(("fieldset-obj", e.fname, e.value))
            self.focus = ("expr", e.obj)
        elif isinstance(e, ast.Call):
            self.kont.append(("call-recv", e.mname, list(e.args)))
            self.focus = ("expr", e.recv)
        elif isinstance(e, ast.New):
            if not e.args:
                self._alloc(e.cname, [])
            else:
                self.kont.append(("new-args", e.cname, list(e.args[1:]), []))
                self.focus = ("expr", e.args[0])
        elif isinstance(e, ast.BinOp):
            self.kont.append(("binop-l", e.op, e.right))
            self.focus = ("expr", e.left)
        elif isinstance(e, ast.Exit):
            self.kont.append(("exit",))
            self.focus = ("expr", e.value)
        elif isinstance(e, ast.InstanceOf):
            self.kont.append(("instanceof", e.cname))
            self.focus = ("expr", e.value)
        elif isinstance(e, ast.VarDecl):
            self.kont.append(("vardecl", e.name))
            self.focus = ("expr", e.value)
        else:
            self._die("nullerror", f"unevaluable {type(e).__name__}")

    def _alloc(self, cname: str, args: list):
        c = self.cls(cname)
        name = f"o${cname}${self.fresh}"
        self.fresh += 1
        self.heap[name] = ObjCell(cname, dict(zip(c.field_types, args)))
        self.focus = ("value", ObjRef(name))

    def _step_value(self, v):
        if not self.kont:
            self._die("terminated", v)
            return
        frame = self.kont.pop()
        tag = frame[0]
        if tag == "seq":
            self.focus = ("expr", frame[1])
        elif tag == "if":
            self.focus = ("expr", frame[1] if v is True else frame[2])
        elif tag == "fieldget":
            if v is NULL or not isinstance(v, ObjRef):
                self._die("nullerror", "field access on null")
                return
            self.focus = ("value", self.heap[v.name].fields[frame[1]])
        elif tag == "fieldset-obj":
            self.kont.append(("fieldset-val", v, frame[1]))
            self.focus = ("expr", frame[2])
        elif tag == "fieldset-val":
            obj, fname = frame[1], frame[2]
            if obj is NULL or not isinstance(obj, ObjRef):
                self._die("nullerror", "field update on null")
                return
            self.heap[obj.name].fields[fname] = v
            self.focus = ("value", UNIT)
        elif tag == "call-recv":
            mname, args = frame[1], frame[2]
            if not args:
                self._invoke(v, mname, [])
            else:
                self.kont.append(("call-args", v, mname, args[1:], []))
                self.focus = ("expr", args[0])
        elif tag == "call-args":
            recv, mname, rest, done = frame[1], frame[2], frame[3], frame[4]
            done = done + [v]
            if rest:
                self.kont.append(("call-args", recv, mname, rest[1:], done))
                self.focus = ("expr", rest[0])
            else:
                self._invoke(recv, mname, done)
        elif tag == "new-args":
            cname, rest, done = frame[1], frame[2], frame[3]
            done = done + [v]
            if rest:
                self.kont.append(("new-args", cname, rest[1:], done))
                self.focus = ("expr", rest[0])
            else:
                self._alloc(cname, done)
        elif tag == "binop-l":
            self.kont.append(("binop-r", frame[1], v))
            self.focus = ("expr", frame[2])
        elif tag == "binop-r":
            self._binop(frame[1], frame[2], v)
        elif tag == "exit":
            self._die("terminated", v)
        elif tag == "instanceof":
            cname = frame[1]
            ok = isinstance(v, ObjRef) and self.heap[v.name].cname == cname
            self.focus = ("value", ok)
        elif tag == "vardecl":
            self.bstack[-1][frame[1]] = v
            self.focus = ("value", UNIT)
        elif tag == "return":
            self.bstack.pop()
            self.this_stack.pop()
            self.focus = ("value", v)
        else:
            self._die("nullerror", f"bad continuation {tag}")

    def _invoke(self, recv, mname, args):
        if recv is NULL or not isinstance(recv, ObjRef):
            self._die("nullerror", f"call of {mname!r} on null")
            return
        c = self.cls(self.heap[recv.name].cname)
        m = c.method(mname) if c else None
        if m is None:
            self._die("nullerror", f"no method {mname!r} on {recv}")
            return
        self.bstack.append(dict(zip(m.params, args)))
        self.this_stack.append(recv)
        self.kont.append(("return",))
        self.focus = ("expr", m.body)

    def _binop(self, op, lv, rv):
        if op == "+":
            self.focus = ("value", (lv + rv) & MASK64)
        elif op == "-":
            self.focus = ("value", lv - rv if lv >= rv else 0)
        elif op == "<":
            self.focus = ("value", lv < rv)
        elif op == "&&":
            self.focus = ("value", lv is True and rv is True)
        elif op == "==":
            self.focus = ("value", _value_eq(lv, rv))
        else:
            self._die("nullerror", f"bad operator {op}")


def _value_eq(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _literal_value(v):
    if v == "unit":
        return UNIT
    if v == "null":
        return NULL
    if isinstance(v, tuple) and v[0] == "objref":
        return ObjRef(v[1])
    return v


def is_whole(comp: ast.JemComponent) -> bool:
    from .compat import satisfies

    return satisfies(comp, comp)


def run(comp: ast.JemComponent, fuel: int = DEFAULT_FUEL) -> RunResult:
    """Execute a whole program from `main.main()` under a step budget."""
    if not comp.classes:
        return RunResult("terminated", UNIT, 0)
    if not is_whole(comp):
        raise NotWhole("component has unsatisfied imports")
    cfg = JemConfig.initial(comp)
    for n in range(fuel):
        cfg.step()
        if cfg.terminal is not None:
            cfg.terminal.steps = n + 1
            return cfg.terminal
    return RunResult("fuel", None, fuel)
