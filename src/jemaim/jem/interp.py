"""Small-step interpreter for jem with fuel-bounded execution.

A configuration is the focus (an expression or a value), the environment
and `this` of the running method, one continuation and the mutable object
store, as in a CEK machine. The continuation's frames have two shapes.
`(RETURN, env, this)` is pushed on entering a method and restores the
caller's environment and `this` on return. `(e, operands_left,
values_so_far)` evaluates a compound expression `e`: its `OPERANDS` are
evaluated left to right, each value popping the frame once, and then its
entry in `RULES` applies to their values. Lit, Var and This are the leaves.
Each step() applies exactly one deterministic transition. `step()` and the
`RULES` entries define every rule and every fault.

`run_config` drives a configuration without a call per step. It keeps the
focus, the environment, `this` and the continuation's `append`/`pop` in
locals, and applies these rules itself: the leaves (Lit, This, and a Var
bound in the environment or the heap), pushing an operand frame, popping a
value into the next operand or into a `RETURN` frame, and the BinOp, If and
Seq rules (`binop` computes BinOp's value for both). Every other rule (Call,
New, FieldGet, FieldSet, Exit, InstanceOf, VarDecl) and every fault goes to
the configuration: the loop writes its locals back, calls the `RULES` entry
or `step()`, and reads them again.

One loop is recognised instead of stepped: entering a method whose body is
exactly `this.<same method>()` (no arguments; `ast.calls_itself`). Stepping
that body evaluates `this` to the receiver just entered, which is a non-null
object whose class never changes, finds the same method and enters it again,
reading and writing no heap cell on the way; so every run reaching such a call
runs out of fuel, whatever the fuel. The configuration is marked out of fuel
at once, and `run` reports it exactly as if the loop had been stepped to the
end. The compiler reads the same predicate and emits such a body as a spin
that the aim machine ends in the same way (aim/machine.py).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..aim.words import MASK64
from . import ast
from .ast import NULL, UNIT, BinOp, If, Lit, ObjRef, Seq, This, Var
from .compat import NotWhole, entry, satisfies
from .printer import render_value

DEFAULT_FUEL = 1_000_000
RETURN = "return"  # the tag of a return frame, told apart by identity


@dataclass
class ObjCell:
    cname: str
    fields: dict[str, object]


@dataclass
class RunResult:
    kind: str  # 'terminated' | 'fuel' | 'nullerror'
    value: object = None
    steps: int = 0
    # the steps the run executed; below `steps` when a proven loop ends it
    executed: int = field(default=0, compare=False)

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
        """The configuration about to call the program entry (`compat.entry`)."""
        heap = {}
        for c in comp.classes:
            for o in c.objects:
                heap[o.name] = ObjCell(o.cname, dict(o.fields))
        (name, _), m = _entry(comp)
        call = ast.Call(ast.Var(name), m.name, [])
        return JemConfig(
            heap=heap,
            env={},
            this=NULL,
            kont=[],
            focus=("expr", call),
            _classes={c.name: c for c in comp.classes},
        )

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
        t = type(e)
        if t is ast.Lit:
            self.focus = ("value", e.value)
        elif t is ast.Var:
            if e.name in self.env:
                self.focus = ("value", self.env[e.name])
            elif e.name in self.heap:
                self.focus = ("value", ObjRef(e.name))
            else:
                self._die("nullerror", f"unbound {e.name}")
        elif t is ast.This:
            self.focus = ("value", self.this)
        elif t in OPERANDS:
            ops = OPERANDS[t](e)
            if ops:
                self.kont.append((e, ops[1:], ()))
                self.focus = ("expr", ops[0])
            else:
                RULES[t](self, e, ())
        else:
            self._die("nullerror", f"unevaluable {t.__name__}")

    def _step_value(self, v):
        if not self.kont:
            self._die("terminated", v)
            return
        e, rest, done = self.kont.pop()
        if e is RETURN:  # (RETURN, env, this)
            self.env, self.this = rest, done
            self.focus = ("value", v)
        elif rest:
            self.kont.append((e, rest[1:], (*done, v)))
            self.focus = ("expr", rest[0])
        else:
            RULES[type(e)](self, e, (*done, v))

    def _eval(self, e: ast.Expr):
        self.focus = ("expr", e)

    def _fieldget(self, e: ast.FieldGet, vs):
        if not isinstance(vs[0], ObjRef):
            self._die("nullerror", "field access on null")
            return
        self.focus = ("value", self.heap[vs[0].name].fields[e.fname])

    def _fieldset(self, e: ast.FieldSet, vs):
        if not isinstance(vs[0], ObjRef):
            self._die("nullerror", "field update on null")
            return
        self.heap[vs[0].name].fields[e.fname] = vs[1]
        self.focus = ("value", UNIT)

    def _instanceof(self, e: ast.InstanceOf, vs):
        self.focus = ("value", isinstance(vs[0], ObjRef) and self.heap[vs[0].name].cname == e.cname)

    def _vardecl(self, e: ast.VarDecl, vs):
        self.env[e.name] = vs[0]
        self.focus = ("value", UNIT)

    def _alloc(self, e: ast.New, vs):
        name = f"o${e.cname}${self.fresh}"
        self.fresh += 1
        self.heap[name] = ObjCell(e.cname, dict(zip(self._classes[e.cname].field_types, vs)))
        self.focus = ("value", ObjRef(name))

    def _invoke(self, e: ast.Call, vs):
        recv, mname = vs[0], e.mname
        if not isinstance(recv, ObjRef):
            self._die("nullerror", f"call of {mname!r} on null")
            return
        c = self._classes.get(self.heap[recv.name].cname)
        m = c.method(mname) if c else None
        if m is None:
            self._die("nullerror", f"no method {mname!r} on {recv}")
            return
        if ast.calls_itself(m):
            self._die("fuel")
            return
        self.kont.append((RETURN, self.env, self.this))
        self.env = dict(zip(m.params, vs[1:]))
        self.this = recv
        self.focus = ("expr", m.body)

    def _binop(self, e: ast.BinOp, vs):
        v = binop(e.op, *vs)
        if v is None:
            self._die("nullerror", f"bad operator {e.op}")
        else:
            self.focus = ("value", v)


# each compound form's operands, in evaluation order
OPERANDS = {
    ast.Seq: lambda e: (e.first,),
    ast.If: lambda e: (e.cond,),
    ast.FieldGet: lambda e: (e.obj,),
    ast.FieldSet: lambda e: (e.obj, e.value),
    ast.Call: lambda e: (e.recv, *e.args),
    ast.New: lambda e: e.args,
    ast.BinOp: lambda e: (e.left, e.right),
    ast.Exit: lambda e: (e.value,),
    ast.InstanceOf: lambda e: (e.value,),
    ast.VarDecl: lambda e: (e.value,),
}

# each compound form's rule, applied to the configuration, the form and its operands' values
RULES = {
    ast.Seq: lambda cfg, e, vs: cfg._eval(e.second),
    ast.If: lambda cfg, e, vs: cfg._eval(e.then if vs[0] is True else e.els),
    ast.FieldGet: JemConfig._fieldget,
    ast.FieldSet: JemConfig._fieldset,
    ast.Call: JemConfig._invoke,
    ast.New: JemConfig._alloc,
    ast.BinOp: JemConfig._binop,
    ast.Exit: lambda cfg, e, vs: cfg._die("terminated", vs[0]),
    ast.InstanceOf: JemConfig._instanceof,
    ast.VarDecl: JemConfig._vardecl,
}


def binop(op: str, lv, rv):
    """The value of `lv op rv`, or None for an operator jem does not have:
    `+` wraps at 2**64, `-` stops at 0."""
    if op == "+":
        return (lv + rv) & MASK64
    if op == "-":
        return lv - rv if lv >= rv else 0
    if op == "<":
        return lv < rv
    if op == "&&":
        return lv is True and rv is True
    if op == "==":
        return _value_eq(lv, rv)
    return None


def _value_eq(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _entry(comp: ast.JemComponent):
    """The program entry of `comp` (`compat.entry`): its object and method."""
    objects = [(o.name, o.cname) for c in comp.classes for o in c.objects]
    return entry(objects, lambda cname, name: (cls := comp.cls(cname)) and cls.method(name))


def run(comp: ast.JemComponent, fuel: int = DEFAULT_FUEL) -> RunResult:
    """Execute a whole program from its entry (`compat.entry`) under a step budget.

    A run that enters a proven loop (a method whose body is `this.<same
    method>()`) stops stepping there and returns `RunResult("fuel", None,
    fuel)`: the result stepping the loop to the end gives, `steps` being the
    fuel the run would have used. Raises NotWhole, before any step, for an
    unsatisfied import or a missing entry point; the empty component
    terminates with `unit` in 0 steps."""
    if not comp.classes:
        return RunResult("terminated", UNIT, 0)
    if not satisfies(comp, comp):
        raise NotWhole("component has unsatisfied imports")
    _entry(comp)
    return run_config(JemConfig.initial(comp), fuel)


def run_config(cfg: JemConfig, fuel: int) -> RunResult:
    """Step `cfg` until it is terminal or `fuel` steps are spent, and return
    the result; `cfg` is left as exactly that many `step()` calls leave it.
    The loop applies the rules named in the module docstring itself and
    hands every other rule and every fault to the configuration."""
    heap, kont = cfg.heap, cfg.kont
    push, pop = kont.append, kont.pop
    env, this = cfg.env, cfg.this
    kind, x = cfg.focus
    is_expr = kind == "expr"
    for n in range(fuel):
        if is_expr:
            t = type(x)
            if t is Var:
                if x.name in env:
                    x, is_expr = env[x.name], False
                    continue
                if x.name in heap:
                    x, is_expr = ObjRef(x.name), False
                    continue
            elif t is Lit:
                x, is_expr = x.value, False
                continue
            elif t is This:
                x, is_expr = this, False
                continue
            elif t in OPERANDS:
                ops = OPERANDS[t](x)
                if ops:
                    push((x, ops[1:], ()))
                    x = ops[0]
                    continue
            # an unbound name, an unevaluable form or a form without operands
            cfg.focus, cfg.env, cfg.this = ("expr", x), env, this
            cfg.step()
        elif kont:
            e, rest, done = pop()
            if e is RETURN:  # (RETURN, env, this)
                env, this = rest, done
                continue
            if rest:
                push((e, rest[1:], (*done, x)))
                x, is_expr = rest[0], True
                continue
            t = type(e)
            if t is BinOp:
                v = binop(e.op, done[0], x)
                if v is not None:
                    x = v
                    continue
            elif t is If:
                x, is_expr = e.then if x is True else e.els, True
                continue
            elif t is Seq:
                x, is_expr = e.second, True
                continue
            cfg.focus, cfg.env, cfg.this = ("value", x), env, this
            RULES[t](cfg, e, (*done, x))
        else:
            cfg.focus, cfg.env, cfg.this = ("value", x), env, this
            cfg.step()
        if cfg.terminal is not None:
            r = cfg.terminal
            r.steps = fuel if r.kind == "fuel" else n + 1
            r.executed = n + 1
            return r
        kind, x = cfg.focus
        is_expr = kind == "expr"
        env, this = cfg.env, cfg.this
    cfg.focus, cfg.env, cfg.this = ("expr" if is_expr else "value", x), env, this
    return RunResult("fuel", None, fuel, fuel)
