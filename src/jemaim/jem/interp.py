"""Small-step interpreter for jem with fuel-bounded execution.

A configuration is the focus (an expression or a value), the environment
and `this` of the running method, one continuation and the mutable object
store. Entering a method pushes a `return` frame that saves the caller's
environment and `this` onto the continuation; returning restores them, as in
a CEK machine. Each step() applies exactly one deterministic transition.

One loop is recognised instead of stepped: entering a method whose body is
exactly `this.<same method>()` (no arguments). Stepping that body evaluates
`this` to the receiver just entered, which is a non-null object whose class
never changes, finds the same method and enters it again, reading and writing
no heap cell on the way; so every run reaching such a call runs out of fuel,
whatever the fuel. The configuration is marked out of fuel at once, and
`run` reports it exactly as if the loop had been stepped to the end.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..aim.words import MASK64
from . import ast
from .ast import NULL, UNIT, ObjRef
from .compat import satisfies
from .printer import render_value

DEFAULT_FUEL = 1_000_000


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
            v = self.value
            text = repr(v) if isinstance(v, ObjRef) else render_value(v)
            return f"Terminated({text})"
        if self.kind == "fuel":
            return "OutOfFuel"
        return "NullError"


@dataclass
class JemConfig:
    comp: ast.JemComponent
    heap: dict[str, ObjCell]
    env: dict[str, object]  # the running method's parameters and locals
    this: object
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
        call = ast.Call(ast.Var("main"), "main", [])
        return JemConfig(
            comp=comp,
            heap=heap,
            env={},
            this=NULL,
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
            self.focus = ("value", e.value)
        elif isinstance(e, ast.Var):
            if e.name in self.env:
                self.focus = ("value", self.env[e.name])
            elif e.name in self.heap:
                self.focus = ("value", ObjRef(e.name))
            else:
                self._die("nullerror", f"unbound {e.name}")
        elif isinstance(e, ast.This):
            self.focus = ("value", self.this)
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
            if not isinstance(v, ObjRef):
                self._die("nullerror", "field access on null")
                return
            self.focus = ("value", self.heap[v.name].fields[frame[1]])
        elif tag == "fieldset-obj":
            self.kont.append(("fieldset-val", v, frame[1]))
            self.focus = ("expr", frame[2])
        elif tag == "fieldset-val":
            obj, fname = frame[1], frame[2]
            if not isinstance(obj, ObjRef):
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
            self.env[frame[1]] = v
            self.focus = ("value", UNIT)
        elif tag == "return":
            _, self.env, self.this = frame
            self.focus = ("value", v)
        else:
            self._die("nullerror", f"bad continuation {tag}")

    def _invoke(self, recv, mname, args):
        if not isinstance(recv, ObjRef):
            self._die("nullerror", f"call of {mname!r} on null")
            return
        c = self.cls(self.heap[recv.name].cname)
        m = c.method(mname) if c else None
        if m is None:
            self._die("nullerror", f"no method {mname!r} on {recv}")
            return
        if _calls_itself(m):
            self._die("fuel")
            return
        self.kont.append(("return", self.env, self.this))
        self.env = dict(zip(m.params, args))
        self.this = recv
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


def _calls_itself(m: ast.Method) -> bool:
    """The body is exactly `this.<m>()`: a proven loop (see the module docstring)."""
    b = m.body
    return isinstance(b, ast.Call) and isinstance(b.recv, ast.This) and b.mname == m.name and not b.args


def _value_eq(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def is_whole(comp: ast.JemComponent) -> bool:
    return satisfies(comp, comp)


def run(comp: ast.JemComponent, fuel: int = DEFAULT_FUEL) -> RunResult:
    """Execute a whole program from `main.main()` under a step budget.

    A run that enters a proven loop (a method whose body is `this.<same
    method>()`) stops stepping there and returns `RunResult("fuel", None,
    fuel)`: the result stepping the loop to the end gives, `steps` being the
    fuel the run would have used."""
    if not comp.classes:
        return RunResult("terminated", UNIT, 0)
    if not is_whole(comp):
        raise NotWhole("component has unsatisfied imports")
    cfg = JemConfig.initial(comp)
    for n in range(fuel):
        cfg.step()
        if cfg.terminal is not None:
            cfg.terminal.steps = fuel if cfg.terminal.kind == "fuel" else n + 1
            return cfg.terminal
    return RunResult("fuel", None, fuel)
