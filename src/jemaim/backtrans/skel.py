"""The witness context: stub classes, per-type registries, the Helper class.

The context implements every interface the component pair imports (stub
classes with default-returning methods and a factory), declares everything the
pair exports (so plugging succeeds), and equips Helper with the step counter,
the divergence loop, and per-type object registries backed by linked-list
classes. Registries are pre-populated with all statically known objects in
main's prelude, using the same numbering the emulator assigns to ids.

The witness code of Helper.main and of the stub methods comes from a table
(class, method) -> MethodCode, which emulation and differentiation fill; each
method body is built from its entry once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..jem import ast
from ..jem.ast import JemType, T_BOOL, T_INT, T_UNIT, t_class, type_named
from .interface import ImportMismatch, Interface

MAIN = ("Helper", "main")


class UnknownMethod(Exception):
    """Witness code was written for a method the context does not define."""


@dataclass
class MethodCode:
    """The witness code of one context method.

    `blocks` maps an action index to the expressions of the block guarded by
    `oc.isStep(index)`, in the order the blocks were opened; `returns` lists the
    (index, expressions) arms of the trailing value cascade, latest outermost."""

    blocks: dict = field(default_factory=dict)
    returns: list = field(default_factory=list)

    def body(self, value: ast.Expr, *effects: ast.Expr) -> ast.Expr:
        """`effects`, then the step blocks, then `value` under the return cascade."""
        blocks = [
            ast.If(oc_call("isStep", ast.Lit(i)), seq(*exprs, ast.Lit("unit")), ast.Lit("unit"))
            for i, exprs in self.blocks.items()
        ]
        for i, exprs in self.returns:
            value = ast.If(oc_call("isStep", ast.Lit(i)), seq(*exprs), value)
        return seq(*effects, *blocks, value)


def default_value(t: JemType):
    if t == T_UNIT:
        return ast.Lit("unit")
    if t == T_BOOL:
        return ast.Lit(True)
    if t == T_INT:
        return ast.Lit(0)
    return ast.Lit("null")


def oc_call(mname, *args):
    return ast.Call(ast.Var("oc"), mname, list(args))


def seq(*exprs):
    out = exprs[-1]
    for e in reversed(exprs[:-1]):
        out = ast.Seq(e, out)
    return out


def _method(name, params, recv, ptypes, ret, body):
    return ast.Method(name, params, ast.MethodSig(name, recv, tuple(ptypes), ret), body)


def _listof(tname: str) -> ast.JemClass:
    """Linked-list registry node for one object type."""
    t = type_named(tname)
    me = t_class(f"listof-{tname}")
    get = _method(
        "getByName",
        ["k"],
        me,
        [T_INT],
        t,
        ast.If(
            ast.BinOp("==", ast.FieldGet(ast.This(), "n"), ast.Var("k")),
            ast.FieldGet(ast.This(), "v"),
            ast.If(
                ast.BinOp("==", ast.FieldGet(ast.This(), "next"), ast.Lit("null")),
                ast.Lit("null"),
                ast.Call(ast.FieldGet(ast.This(), "next"), "getByName", [ast.Var("k")]),
            ),
        ),
    )
    append = _method(
        "append",
        ["o", "k"],
        me,
        [t, T_INT],
        me,
        ast.New(f"listof-{tname}", [ast.Var("o"), ast.Var("k"), ast.This()]),
    )
    return ast.JemClass(
        name=f"listof-{tname}",
        import_classes=[],
        import_objects=[],
        ctor=ast.Ctor(["v", "n", "next"]),
        field_types={"v": t, "n": T_INT, "next": me},
        methods=[get, append],
        objects=[
            ast.ObjectDef(f"sentinel-{tname}", f"listof-{tname}", {"v": "null", "n": 0, "next": "null"})
        ],
    )


def _stub_class(name: str, sigs: list, code: dict) -> ast.JemClass:
    methods = []
    for sig in sigs:
        params = [f"x-{j + 1}" for j in range(len(sig.params))]
        body = code.pop((name, sig.name), MethodCode()).body(default_value(sig.ret))
        methods.append(_method(sig.name, params, sig.recv, sig.params, sig.ret, body))
    factory = _method(f"mk-{name}", [], t_class(name), [], t_class(name), ast.New(name, []))
    if any(m.name == factory.name for m in methods):
        raise ImportMismatch(f"interface {name} collides with the factory name {factory.name}")
    return ast.JemClass(
        name=name,
        import_classes=[],
        import_objects=[],
        ctor=ast.Ctor([]),
        field_types={},
        methods=methods + [factory],
        objects=[ast.ObjectDef(f"static-for-{name}", name, {})],
    )


def skel(c1: ast.JemComponent, iface: Interface, code: dict) -> ast.JemComponent:
    """The differentiating context of a component pair (c1 stands for both), with
    the witness code `code` maps (class, method) -> MethodCode to."""
    ics, ios = c1.all_imports()
    by_name: dict[str, list] = {}
    for ic in ics:
        sigs = by_name.setdefault(ic.name, [])
        known = {s.name for s in sigs}
        sigs.extend(s for s in ic.sigs if s.name not in known)
    if "Helper" in by_name or any(c.name == "Helper" for c in c1.classes):
        raise ImportMismatch("the name Helper must be fresh")

    code = dict(code)
    stubs = [_stub_class(name, by_name[name], code) for name in sorted(by_name)]
    # stub objects for every object declaration the pair imports
    declared = {o.name for s in stubs for o in s.objects}
    for io in sorted({(io.name, io.cname) for io in ios}):
        name, cname = io
        if name in declared:
            continue
        for s in stubs:
            if s.name == cname:
                s.objects.append(ast.ObjectDef(name, cname, {}))

    registry_types = sorted(iface.internal_classes) + sorted(iface.external_classes) + ["Obj"]
    registries = [_listof(t) for t in registry_types]

    helper = _helper_class(c1, iface, registry_types, code.pop(MAIN, MethodCode()))
    if code:
        raise UnknownMethod(", ".join(f"{c}.{m}" for c, m in code))
    return ast.JemComponent(registries + stubs + [helper])


def _helper_class(
    c1: ast.JemComponent, iface: Interface, registry_types: list[str], main: MethodCode
) -> ast.JemClass:
    fields: dict[str, JemType] = {"step": T_INT}
    obj_fields: dict[str, object] = {"step": 0}
    for t in registry_types:
        fields[f"head-{t}"] = t_class(f"listof-{t}")
        obj_fields[f"head-{t}"] = ("objref", f"sentinel-{t}")

    me = t_class("Helper")
    methods = [
        _method(
            "isStep",
            ["x"],
            me,
            [T_INT],
            T_BOOL,
            ast.If(
                ast.BinOp("==", ast.FieldGet(ast.This(), "step"), ast.Var("x")),
                ast.Lit(True),
                ast.Lit(False),
            ),
        ),
        _method(
            "incrStep",
            [],
            me,
            [],
            T_UNIT,
            ast.FieldSet(ast.This(), "step", ast.BinOp("+", ast.FieldGet(ast.This(), "step"), ast.Lit(1))),
        ),
        _method("diverge", [], me, [], T_UNIT, ast.Call(ast.This(), "diverge", [])),
        _method("main", [], me, [], T_INT, main.body(ast.Lit(0), *_prelude(iface))),
    ]
    for t in registry_types:
        tt = type_named(t)
        methods.append(
            _method(
                f"addObject-{t}",
                ["o", "k"],
                me,
                [tt, T_INT],
                T_UNIT,
                ast.FieldSet(
                    ast.This(),
                    f"head-{t}",
                    ast.Call(ast.FieldGet(ast.This(), f"head-{t}"), "append", [ast.Var("o"), ast.Var("k")]),
                ),
            )
        )
        methods.append(
            _method(
                f"getByName-{t}",
                ["k"],
                me,
                [T_INT],
                tt,
                ast.Call(ast.FieldGet(ast.This(), f"head-{t}"), "getByName", [ast.Var("k")]),
            )
        )
    for t in sorted(iface.external_classes):
        methods.append(
            _method(
                f"createNew-{t}",
                ["k"],
                me,
                [T_INT],
                t_class(t),
                seq(
                    ast.VarDecl("o", t_class(t), ast.Call(ast.Var(f"static-for-{t}"), f"mk-{t}", [])),
                    ast.Call(ast.This(), f"addObject-{t}", [ast.Var("o"), ast.Var("k")]),
                    ast.Var("o"),
                ),
            )
        )
    # the witness imports everything the component pair exports
    import_classes = []
    for c in c1.classes:
        import_classes.append(ast.ImportClass(c.name, [m.sig for m in c.methods]))
    import_objects = [
        ast.ImportObj(name, cls) for name, cls, _, _ in iface.exported_objects
    ]
    return ast.JemClass(
        name="Helper",
        import_classes=import_classes,
        import_objects=import_objects,
        ctor=ast.Ctor(list(fields)),
        field_types=fields,
        methods=methods,
        objects=[
            ast.ObjectDef("oc", "Helper", dict(obj_fields)),
            ast.ObjectDef("main", "Helper", dict(obj_fields)),
        ],
    )


def _prelude(iface: Interface) -> list[ast.Expr]:
    """main's opening: register every statically known object under its number."""
    return [
        oc_call(f"addObject-{cls}", ast.Var(name), ast.Lit(idx))
        for name, cls, _word, idx in iface.exported_objects + iface.required_objects
    ]
