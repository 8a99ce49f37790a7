"""The witness context: stub classes, per-type registries, the Helper class.

The context implements every interface the pair imports (stub classes whose
methods return defaults, with a factory), declares all the pair exports, and
equips Helper with a step counter, a divergence loop and per-type object
registries, which main's prelude fills with the statically known objects.

These fixed classes are jem text, parsed from templates over the pair's names.
Only what varies with the traces is AST: Helper's imports, and the bodies of
Helper.main and of the stub methods, built from a table (class, method) ->
MethodCode that emulation and differentiation fill through the builders
below. skel is the one module that names witness entities.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from string import Template

from ..jem import ast
from ..jem.parser import parse_component
from .interface import ImportMismatch, Interface

HELPER = "Helper"
MAIN = (HELPER, "main")


class UnknownMethod(Exception):
    """Witness code was written for a method the context does not define."""


# -- builders of witness code: i is an action index, j a parameter index from
# 0, k a registry number, and t a type (or type name) that has a registry
def _oc(mname: str, *args: ast.Expr) -> ast.Expr:
    return ast.Call(ast.Var("oc"), mname, list(args))


def incr_step() -> ast.Expr:
    return _oc("incrStep")


def diverge() -> ast.Expr:
    return _oc("diverge")


def add_object(t, e: ast.Expr, k: int) -> ast.Expr:
    return _oc(f"addObject-{t}", e, ast.Lit(k))


def get_by_name(t, k: int) -> ast.Expr:
    return _oc(f"getByName-{t}", ast.Lit(k))


def create_new(t, k: int) -> ast.Expr:
    return _oc(f"createNew-{t}", ast.Lit(k))


def retvar(i: int) -> str:
    """The variable bound to the result of the call made as action i."""
    return f"retvar-{i}"


def recv_var(i: int) -> str:
    return f"o-{i}"


def arg_var(i: int, j: int) -> str:
    return f"arg-{i}-{j + 1}"


def param(j: int) -> str:
    return f"x-{j + 1}"


def seq(*exprs):
    return reduce(lambda rest, e: ast.Seq(e, rest), reversed(exprs[:-1]), exprs[-1])


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
            ast.If(_oc("isStep", ast.Lit(i)), seq(*exprs, ast.Lit("unit")), ast.Lit("unit"))
            for i, exprs in self.blocks.items()
        ]
        for i, exprs in self.returns:
            value = ast.If(_oc("isStep", ast.Lit(i)), seq(*exprs), value)
        return seq(*effects, *blocks, value)


# -- the fixed classes, as jem text
LISTOF = Template("""
class listof-$t {
  listof-$t(v:$t, n:Int, next:listof-$t){ }
  v : $t; n : Int; next : listof-$t;
  public getByName(k) : listof-$t(Int)->$t {
    return if (this.n == k) { this.v } else { if (this.next == null) { null } else { this.next.getByName(k) } };
  }
  public append(o, k) : listof-$t($t,Int)->listof-$t { return new listof-$t(o, k, this); }
};
object sentinel-$t : listof-$t { v = null; n = 0; next = null; };
""")

# main's `0` becomes the value under its return cascade, after the prelude
HELPER_CLASS = Template("""
class Helper {
  Helper(step:Int$params){ }
  step : Int;$fields
  public isStep(x) : Helper(Int)->Bool { return if (this.step == x) { true } else { false }; }
  public incrStep() : Helper()->Unit { return this.step = this.step + 1; }
  public diverge() : Helper()->Unit { return this.diverge(); }
  public main() : Helper()->Int { return 0; }$registries$factories
};
object oc : Helper { step = 0;$inits };
object main : Helper { step = 0;$inits };
""")
# Helper's share of each registry type t, by the place it fills in HELPER_CLASS
HELPER_PARTS = {
    "params": Template(", head-$t:listof-$t"),
    "fields": Template("\n  head-$t : listof-$t;"),
    "registries": Template("""
  public addObject-$t(o, k) : Helper($t,Int)->Unit { return this.head-$t = this.head-$t.append(o, k); }
  public getByName-$t(k) : Helper(Int)->$t { return this.head-$t.getByName(k); }"""),
    "inits": Template(" head-$t = sentinel-$t;"),
}
# the factory of each external class t
FACTORY = Template("""
  public createNew-$t(k) : Helper(Int)->$t { return var o : $t = static-for-$t.mk-$t(); this.addObject-$t(o, k); o; }""")

# each stub method returns the default of its type
STUB_METHOD = Template("""
  public $name($params) : $type { return $default; }""")
DEFAULTS = {"Unit": "unit", "Bool": "true", "Int": "0"}
STUB_CLASS = Template("""
class $t {
  $t(){ }$methods
  public mk-$t() : $t()->$t { return new $t(); }
};
object static-for-$t : $t { };$objects
""")


def _each(template: Template, names) -> str:
    return "".join(template.substitute(t=t) for t in names)


def _stub_class(name: str, sigs: list, objects: list) -> str:
    if f"mk-{name}" in {s.name for s in sigs}:
        raise ImportMismatch(f"interface {name} collides with the factory name mk-{name}")
    methods = "".join(
        STUB_METHOD.substitute(
            name=s.name, params=", ".join(map(param, range(len(s.params)))),
            type=s.type_text(), default=DEFAULTS.get(s.ret, "null"),
        )
        for s in sigs
    )
    objects = "".join(f"\nobject {o} : {name} {{ }};" for o in objects)
    return STUB_CLASS.substitute(t=name, methods=methods, objects=objects)


def skel(c1: ast.JemComponent, iface: Interface, code: dict) -> ast.JemComponent:
    """The differentiating context of a component pair (c1 stands for both), with
    the witness code `code` maps (class, method) -> MethodCode to."""
    ics, ios = c1.all_imports()
    by_name: dict[str, dict] = {}  # interface -> method name -> the first signature declared
    for ic in ics:
        sigs = by_name.setdefault(ic.name, {})
        for s in ic.sigs:
            sigs.setdefault(s.name, s)
    if HELPER in by_name or any(c.name == HELPER for c in c1.classes):
        raise ImportMismatch(f"the name {HELPER} must be fresh")
    # stub objects for every object declaration the pair imports
    statics = {f"static-for-{name}" for name in by_name}
    imported = sorted({(io.name, io.cname) for io in ios if io.name not in statics})
    stubs = [_stub_class(c, by_name[c].values(), [o for o, cls in imported if cls == c]) for c in sorted(by_name)]

    registry_types = sorted(iface.internal_classes) + sorted(iface.external_classes) + ["Obj"]
    parts = {place: _each(template, registry_types) for place, template in HELPER_PARTS.items()}
    helper_text = HELPER_CLASS.substitute(parts, factories=_each(FACTORY, sorted(iface.external_classes)))
    context = parse_component(_each(LISTOF, registry_types) + "".join(stubs) + helper_text)
    code = dict(code)
    for stub in context.classes[len(registry_types) : -1]:
        for m in stub.methods[:-1]:  # all but the factory
            m.body = code.pop((stub.name, m.name), MethodCode()).body(m.body)
    helper = context.classes[-1]
    main = helper.method(MAIN[1])
    prelude = [add_object(t, ast.Var(o), k) for o, t, _, k in iface.exported_objects + iface.required_objects]
    main.body = code.pop(MAIN, MethodCode()).body(main.body, *prelude)
    if code:
        raise UnknownMethod(", ".join(f"{c}.{m}" for c, m in code))
    # the witness imports everything the component pair exports
    helper.import_classes = [ast.ImportClass(c.name, [m.sig for m in c.methods]) for c in c1.classes]
    helper.import_objects = [ast.ImportObj(name, cls) for name, cls, _, _ in iface.exported_objects]
    return context
