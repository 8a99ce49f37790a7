"""Render jem ASTs back to concrete syntax (round-trips through the parser)."""
from __future__ import annotations

from . import ast
from .parser import LEVELS


def render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, ast.ObjRef):
        return v.name
    return repr(v)


def render_expr(e: ast.Expr) -> str:
    if isinstance(e, ast.Lit):
        return render_value(e.value)
    if isinstance(e, ast.Var):
        return e.name
    if isinstance(e, ast.This):
        return "this"
    if isinstance(e, ast.FieldGet):
        return f"{_atom(e.obj)}.{e.fname}"
    if isinstance(e, ast.FieldSet):
        return f"{_atom(e.obj)}.{e.fname} = {render_expr(e.value)}"
    if isinstance(e, ast.Call):
        args = ", ".join(render_expr(a) for a in e.args)
        return f"{_atom(e.recv)}.{e.mname}({args})"
    if isinstance(e, ast.BinOp):
        return _render_binop(e)
    if isinstance(e, ast.New):
        args = ", ".join(render_expr(a) for a in e.args)
        return f"new {e.cname}({args})"
    if isinstance(e, ast.Seq):
        parts = []
        while isinstance(e, ast.Seq):
            parts.append(render_expr(e.first))
            e = e.second
        return "; ".join(parts + [render_expr(e)])
    if isinstance(e, ast.If):
        return (
            f"if ({render_expr(e.cond)}) {{ {render_expr(e.then)} }}"
            f" else {{ {render_expr(e.els)} }}"
        )
    if isinstance(e, ast.Exit):
        return f"exit({render_expr(e.value)})"
    if isinstance(e, ast.InstanceOf):
        return f"instanceof({render_expr(e.value)} : {e.cname})"
    if isinstance(e, ast.VarDecl):
        return f"var {e.name} : {e.vtype} = {render_expr(e.value)}"
    raise ValueError(f"unprintable {type(e).__name__}")


LEVEL = {op: level for level, ops in enumerate(LEVELS) for op in ops}


def _render_binop(e: ast.BinOp) -> str:
    """Parenthesise each operation, except a left operand at its parent's level,
    which parses back the same without: `(1 + 1 + 1)`, not `((1 + 1) + 1)`."""
    leaf, spine = ast.left_spine(e)
    parts, opened = [render_expr(leaf)], 0
    for b, parent in zip(spine, spine[1:] + [None]):
        parts.append(f" {b.op} {render_expr(b.right)}")
        if parent is None or LEVEL.get(parent.op) != LEVEL.get(b.op):
            parts.append(")")
            opened += 1
    return "(" * opened + "".join(parts)


def _atom(e: ast.Expr) -> str:
    s = render_expr(e)
    if isinstance(e, (ast.Lit, ast.Var, ast.This, ast.FieldGet, ast.Call, ast.InstanceOf)):
        return s
    return f"({s})"


def render_component(comp: ast.JemComponent) -> str:
    out = []
    for c in comp.classes:
        for ic in c.import_classes:
            sigs = ", ".join(s.render() for s in ic.sigs)
            out.append(f"class-decl {ic.name} {{ {sigs} }};")
        for io in c.import_objects:
            out.append(f"obj-decl {io.name} : {io.cname};")
        out.append(f"class {c.name} {{")
        inits = " ".join(f"this.{f} = {f};" for f in c.field_types)
        ctor_params = ", ".join(f"{f}:{t}" for f, t in c.field_types.items())
        out.append(f"  {c.name}({ctor_params}){{ {inits} }}")
        for f, t in c.field_types.items():
            out.append(f"  {f} : {t};")
        for m in c.methods:
            ps = ", ".join(m.params)
            out.append(f"  public {m.name}({ps}) : {m.sig.type_text()} {{")
            out.append(f"    return {render_expr(m.body)};")
            out.append("  }")
        out.append("};")
        for o in c.objects:
            fields = " ".join(f"{f} = {render_value(v)};" for f, v in o.fields.items())
            out.append(f"object {o.name} : {o.cname} {{ {fields} }};")
        out.append("")
    return "\n".join(out)
