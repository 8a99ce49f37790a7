"""Static semantics of jem.

typecheck() returns a list of "line:col: message" diagnostics; the component is
well typed iff the list is empty. Checking a component in isolation treats its
imported class declarations as assumed interfaces.

The Checker writes what it resolves onto the nodes it is about (jem/ast.py):
each call's signature, each local's slot and each method's number of slots,
which are its parameters, then each new local name in pre-order, counted on
entry to its VarDecl. The base compiler reads these in place of typing.

Types are names (jem/ast.py). The type of `null` is the name `null`, a
keyword, so no class shares it.
"""
from __future__ import annotations

from . import ast
from .ast import BUILTIN_TYPES, T_BOOL, T_INT, T_OBJ, T_UNIT

T_NULL = "null"


def is_class_type(t: str) -> bool:
    return t not in BUILTIN_TYPES and t != T_NULL


def is_object_type(t: str) -> bool:
    return t == T_OBJ or is_class_type(t)


class Env:
    """Name environment for one component: own classes, assumed interfaces, objects."""

    def __init__(self, comp: ast.JemComponent):
        self.comp = comp
        self.classes = {c.name: c for c in comp.classes}
        self.interfaces: dict[str, dict[str, ast.MethodSig]] = {}
        declared: dict[str, str] = {}
        for c in comp.classes:
            for ic in c.import_classes:
                sigs = self.interfaces.setdefault(ic.name, {})
                for s in ic.sigs:
                    sigs.setdefault(s.name, s)
            for io in c.import_objects:
                declared.setdefault(io.name, io.cname)
        # a defined object's class takes precedence over a declaration of it
        self.objects = declared | {o.name: o.cname for c in comp.classes for o in c.objects}

    def known_class(self, name: str) -> bool:
        return name in self.classes or name in self.interfaces

    def object_class(self, name: str) -> str | None:
        """The class of a static object, defined here or declared as imported."""
        return self.objects.get(name)

    def method_sig(self, cname: str, mname: str) -> ast.MethodSig | None:
        c = self.classes.get(cname)
        if c is not None:
            m = c.method(mname)
            if m is not None:
                return m.sig
        return self.interfaces.get(cname, {}).get(mname)


def subsume(actual: str, expected: str) -> bool:
    if actual == expected:
        return True
    if actual == T_NULL:
        return is_object_type(expected)
    if expected == T_OBJ:
        return is_object_type(actual)
    return False


def unify(t1: str, t2: str) -> str | None:
    if t1 == t2:
        return t1
    if t1 == T_NULL and is_object_type(t2):
        return t2
    if t2 == T_NULL and is_object_type(t1):
        return t1
    return None


def duplicates(classes: list[ast.JemClass]) -> list[str]:
    """A check's first diagnostics: each class, then object, defined again."""
    errors = []
    for kind, defs in (("class", classes), ("object", [o for c in classes for o in c.objects])):
        seen: set[str] = set()
        for d in defs:
            if d.name in seen:
                errors.append(f"{d.pos.line}:{d.pos.col}: duplicate {kind} {d.name!r}")
            seen.add(d.name)
    return errors


class Checker:
    def __init__(self, comp: ast.JemComponent):
        self.env = Env(comp)
        self.errors: list[str] = []
        self.locals: dict[str, int] = {}  # slot of each name of the method being checked

    def err(self, pos: ast.Pos, msg: str):
        self.errors.append(f"{pos.line}:{pos.col}: {msg}")

    # -- declarations -------------------------------------------------------

    def check(self) -> list[str]:
        self.errors += duplicates(self.env.comp.classes)
        for c in self.env.comp.classes:
            self.check_class(c)
        return self.errors

    def check_class(self, c: ast.JemClass):
        for ic in c.import_classes:
            own = self.env.classes.get(ic.name)
            if own is not None:
                for s in ic.sigs:
                    m = own.method(s.name)
                    if m is None or m.sig != s:
                        self.err(ic.pos, f"declaration of {ic.name}.{s.name} conflicts with its definition")
            for s in ic.sigs:
                if s.recv != ic.name:
                    self.err(ic.pos, f"declaration of {ic.name}.{s.name} must have receiver {ic.name}")
                self.check_type_known(s.recv, ic.pos)
                for p in s.params:
                    self.check_type_known(p, ic.pos)
                self.check_type_known(s.ret, ic.pos)
        for io in c.import_objects:
            if not self.env.known_class(io.cname):
                self.err(io.pos, f"object declaration {io.name!r} names unknown class {io.cname!r}")
        if list(c.ctor.params) != list(c.field_types):
            self.err(c.ctor.pos, f"constructor of {c.name!r} must take the fields in declaration order")
        for ft in c.field_types.values():
            self.check_type_known(ft, c.pos)
        seen_m: set[str] = set()
        for m in c.methods:
            if m.name in seen_m:
                self.err(m.pos, f"duplicate method {m.name!r} in class {c.name!r}")
            seen_m.add(m.name)
            self.check_method(c, m)
        for o in c.objects:
            self.check_object(c, o)

    def check_method(self, c: ast.JemClass, m: ast.Method):
        if m.sig.recv != c.name:
            self.err(m.pos, f"method {m.name!r} declares receiver {m.sig.recv}, expected {c.name}")
        if len(set(m.params)) != len(m.params):
            self.err(m.pos, f"duplicate parameter name in {m.name!r}")
        for t in m.sig.params:
            self.check_type_known(t, m.pos)
        self.check_type_known(m.sig.ret, m.pos)
        self.locals = {p: i for i, p in enumerate(m.params)}
        t = self.expr(m.body, dict(zip(m.params, m.sig.params)), c)
        m.nvars = len(self.locals)
        if t is not None and not subsume(t, m.sig.ret):
            self.err(m.pos, f"body of {m.name!r} has type {t}, declared {m.sig.ret}")

    def check_object(self, c: ast.JemClass, o: ast.ObjectDef):
        cls = self.env.classes.get(o.cname)
        if cls is None:
            self.err(o.pos, f"object {o.name!r} of undefined class {o.cname!r}")
            return
        if set(o.fields) != set(cls.field_types):
            self.err(o.pos, f"object {o.name!r} must initialise exactly the fields of {o.cname!r}")
            return
        for fname, v in o.fields.items():
            ft = cls.field_types[fname]
            vt = self.literal_type(v)
            if vt is None:
                self.err(o.pos, f"field {fname!r}: unknown object reference")
            elif not subsume(vt, ft):
                self.err(o.pos, f"field {fname!r} initialiser has type {vt}, declared {ft}")

    def literal_type(self, v) -> str | None:
        if v is ast.UNIT:
            return T_UNIT
        if isinstance(v, bool):
            return T_BOOL
        if isinstance(v, int):
            return T_INT
        if v is ast.NULL:
            return T_NULL
        if isinstance(v, ast.ObjRef):
            return self.env.object_class(v.name)
        return None

    def check_type_known(self, t: str, pos: ast.Pos):
        if is_class_type(t) and not self.env.known_class(t):
            self.err(pos, f"unknown class {t!r}")

    # -- expressions --------------------------------------------------------

    def expr(self, e: ast.Expr, scope: dict[str, str], c: ast.JemClass) -> str | None:
        while isinstance(e, ast.Seq):
            self.expr(e.first, scope, c)
            e = e.second
        if isinstance(e, ast.BinOp):
            leaf, spine = ast.left_spine(e)
            t = self.expr(leaf, scope, c)
            for b in spine:
                t = self.binop(b, t, self.expr(b.right, scope, c))
            return t
        if isinstance(e, ast.Lit):
            return self.literal_type(e.value)
        if isinstance(e, ast.Var):
            if e.name in scope:
                e.slot = self.locals[e.name]
                return scope[e.name]
            e.slot = None
            cname = self.env.object_class(e.name)
            if cname is not None:
                return cname
            self.err(e.pos, f"unbound variable {e.name!r}")
            return None
        if isinstance(e, ast.This):
            return c.name
        if isinstance(e, ast.FieldGet):
            t = self.expr(e.obj, scope, c)
            if t is None:
                return None
            if t != c.name:
                self.err(e.pos, f"fields are private: cannot read {e.fname!r} through type {t}")
                return None
            if e.fname not in c.field_types:
                self.err(e.pos, f"class {c.name!r} has no field {e.fname!r}")
                return None
            return c.field_types[e.fname]
        if isinstance(e, ast.FieldSet):
            t = self.expr(e.obj, scope, c)
            vt = self.expr(e.value, scope, c)
            if t is not None and t != c.name:
                self.err(e.pos, f"fields are private: cannot write {e.fname!r} through type {t}")
            elif e.fname not in c.field_types:
                self.err(e.pos, f"class {c.name!r} has no field {e.fname!r}")
            elif vt is not None and not subsume(vt, c.field_types[e.fname]):
                self.err(e.pos, f"field {e.fname!r} has type {c.field_types[e.fname]}, got {vt}")
            return T_UNIT
        if isinstance(e, ast.Call):
            rt = self.expr(e.recv, scope, c)
            ats = [self.expr(a, scope, c) for a in e.args]
            if rt is None:
                return None
            if not is_class_type(rt):
                self.err(e.pos, f"cannot call {e.mname!r} on a value of type {rt}")
                return None
            sig = e.sig = self.env.method_sig(rt, e.mname)
            if sig is None:
                self.err(e.pos, f"class {rt!r} has no method {e.mname!r}")
                return None
            if len(ats) != len(sig.params):
                self.err(e.pos, f"{e.mname!r} takes {len(sig.params)} arguments, got {len(ats)}")
                return sig.ret
            for i, (at, pt) in enumerate(zip(ats, sig.params)):
                if at is not None and not subsume(at, pt):
                    self.err(e.pos, f"argument {i + 1} of {e.mname!r} has type {at}, expected {pt}")
            return sig.ret
        if isinstance(e, ast.New):
            cls = self.env.classes.get(e.cname)
            if cls is None:
                self.err(e.pos, f"cannot construct undefined class {e.cname!r}")
                return None
            fts = list(cls.field_types.values())
            ats = [self.expr(a, scope, c) for a in e.args]
            if len(ats) != len(fts):
                self.err(e.pos, f"constructor of {e.cname!r} takes {len(fts)} arguments, got {len(ats)}")
            else:
                for i, (at, ft) in enumerate(zip(ats, fts)):
                    if at is not None and not subsume(at, ft):
                        self.err(e.pos, f"constructor argument {i + 1} has type {at}, expected {ft}")
            return e.cname
        if isinstance(e, ast.If):
            ct = self.expr(e.cond, scope, c)
            if ct is not None and ct != T_BOOL:
                self.err(e.pos, f"if condition must be Bool, got {ct}")
            # branch-local declarations do not escape the branch
            t1 = self.expr(e.then, dict(scope), c)
            t2 = self.expr(e.els, dict(scope), c)
            if t1 is None or t2 is None:
                return t1 or t2
            t = unify(t1, t2)
            if t is None:
                self.err(e.pos, f"if branches have different types: {t1} and {t2}")
            return t
        if isinstance(e, ast.Exit):
            return self.expr(e.value, scope, c)
        if isinstance(e, ast.InstanceOf):
            t = self.expr(e.value, scope, c)
            if t is not None and not (is_object_type(t) or t == T_NULL):
                self.err(e.pos, f"instanceof expects an object, got {t}")
            if not self.env.known_class(e.cname):
                self.err(e.pos, f"unknown class {e.cname!r}")
            return T_BOOL
        if isinstance(e, ast.VarDecl):
            e.slot = self.locals.setdefault(e.name, len(self.locals))
            vt = self.expr(e.value, scope, c)
            self.check_type_known(e.vtype, e.pos)
            if vt is not None and not subsume(vt, e.vtype):
                self.err(e.pos, f"var {e.name!r} declared {e.vtype} but initialised with {vt}")
            scope[e.name] = e.vtype
            return T_UNIT
        self.err(e.pos, f"unhandled expression {type(e).__name__}")
        return None

    def binop(self, e: ast.BinOp, lt: str | None, rt: str | None) -> str | None:
        if lt is None or rt is None:
            return {"==": T_BOOL, "<": T_BOOL, "&&": T_BOOL}.get(e.op, T_INT)
        if e.op in ("+", "-"):
            if lt != T_INT or rt != T_INT:
                self.err(e.pos, f"{e.op} expects Int operands, got {lt} and {rt}")
            return T_INT
        if e.op == "<":
            if lt != T_INT or rt != T_INT:
                self.err(e.pos, f"< expects Int operands, got {lt} and {rt}")
            return T_BOOL
        if e.op == "&&":
            if lt != T_BOOL or rt != T_BOOL:
                self.err(e.pos, f"&& expects Bool operands, got {lt} and {rt}")
            return T_BOOL
        if e.op == "==":
            if unify(lt, rt) is None:
                self.err(e.pos, f"== expects operands of one type, got {lt} and {rt}")
            return T_BOOL
        self.err(e.pos, f"unknown operator {e.op!r}")
        return None


def typecheck(comp: ast.JemComponent) -> list[str]:
    return Checker(comp).check()
