"""The witness context: stub classes, per-type registries, the Helper class.

The context implements every interface the pair imports (stub classes whose
methods return defaults, with a factory), declares all the pair exports, and
equips Helper with a step counter, a divergence loop and per-type object
registries, which main's prelude fills with the statically known objects.

The fixed classes are a library, LIBRARY, parsed once from jem text when this
module is imported. In it each witness name is a placeholder `$…`, which no
component can spell, as `$` is no jem character. A witness is one renaming
pass over the library: it copies every node, maps each placeholder to a name,
and instantiates each declaration named after a type hole once per type, in
order: `…-$t` per registry type, `…-$i` per imported interface. What varies
with the traces is built as AST in code: the stub methods, Helper's imports,
and the bodies of Helper.main and of the stub methods, from a table
(class, method) -> MethodCode that emulation and differentiation fill through
the builders below. The builders write placeholders too, and the same pass
maps them, so skel is the one module that names witness entities.

The names come from a fresh-name supply: each witness class and object name
(Helper, oc, listof-T, sentinel-T, static-for-I) is today's name unless the
pair declares it already, and then the first of `<name>-1`, `<name>-2` … that
neither the pair nor the witness takes. A stub's factory `mk-I` is drawn the
same way, against the method names of interface I. A component's own names
are never renamed. `$main`, the entry, is `compat.ENTRY`, never drawn fresh.

Positions: a node copied from the library carries its line:col in
LIBRARY_TEXT; a node built in code carries Pos() (0:0). verify_witness strips
the position from the reason it reports, and the CLI re-parses the rendered
witness, so its diagnostics point into the rendered file.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby
from operator import attrgetter, itemgetter

from ..jem import ast
from ..jem.compat import ENTRY
from ..jem.parser import parse_component
from ..jem.typecheck import Env
from .interface import Interface

HELPER = "$Helper"
MAIN = (HELPER, "$main")


class UnknownMethod(Exception):
    """Witness code was written for a method the context does not define."""


# -- builders of witness code: i is an action index, j a parameter index from
# 0, k a registry number, and t a type (or type name) that has a registry
def _oc(mname: str, *args: ast.Expr) -> ast.Expr:
    return ast.Call(ast.Var("$oc"), f"${mname}", list(args))


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
            ast.If(_oc("isStep", ast.Lit(i)), seq(*exprs, ast.Lit(ast.UNIT)), ast.Lit(ast.UNIT))
            for i, exprs in self.blocks.items()
        ]
        for i, exprs in self.returns:
            value = ast.If(_oc("isStep", ast.Lit(i)), seq(*exprs), value)
        return seq(*effects, *blocks, value)


# -- the library: the registry list of each registry type $t, the stub of each
# imported interface $i, and Helper, whose declarations over $t and $i are its
# share of each registry and each factory; main's `0` becomes the value under
# its return cascade, after the prelude
LIBRARY_TEXT = """
class $listof-$t {
  $listof-$t(v:$t, n:Int, next:$listof-$t){ }
  v : $t; n : Int; next : $listof-$t;
  public getByName(k) : $listof-$t(Int)->$t {
    return if (this.n == k) { this.v } else { if (this.next == null) { null } else { this.next.getByName(k) } };
  }
  public append(o, k) : $listof-$t($t,Int)->$listof-$t { return new $listof-$t(o, k, this); }
};
object $sentinel-$t : $listof-$t { v = null; n = 0; next = null; };
class $i {
  $i(){ }
  public $mk-$i() : $i()->$i { return new $i(); }
};
object $static-for-$i : $i { };
class $Helper {
  $Helper(step:Int, $head-$t:$listof-$t){ }
  step : Int; $head-$t : $listof-$t;
  public $isStep(x) : $Helper(Int)->Bool { return if (this.step == x) { true } else { false }; }
  public $incrStep() : $Helper()->Unit { return this.step = this.step + 1; }
  public $diverge() : $Helper()->Unit { return this.$diverge(); }
  public $main() : $Helper()->Int { return 0; }
  public $addObject-$t(o, k) : $Helper($t,Int)->Unit { return this.$head-$t = this.$head-$t.append(o, k); }
  public $getByName-$t(k) : $Helper(Int)->$t { return this.$head-$t.getByName(k); }
  public $createNew-$i(k) : $Helper(Int)->$i { return var o : $i = $static-for-$i.$mk-$i(); this.$addObject-$i(o, k); o; }
};
object $oc : $Helper { step = 0; $head-$t = $sentinel-$t; };
object $main : $Helper { step = 0; $head-$t = $sentinel-$t; };
"""
HOLES = ("$t", "$i")
# the witness names of a type: all of REGISTRY for each registry type, and
# FACTORY too for each interface; FRESH are class and object names
REGISTRY = ("listof", "sentinel", "head", "addObject", "getByName")
FACTORY = ("createNew", "static-for", "mk")
FRESH = {"Helper", "oc", "listof", "sentinel", "static-for"}
# each stub method returns the default of its type
DEFAULTS = {"Unit": ast.UNIT, "Bool": True, "Int": 0}

_name, _key = attrgetter("name"), itemgetter(0)


def _hole(name: str) -> str | None:
    """The type hole a library declaration is instantiated over, by its name:
    the name's last `-`-separated part, when that is a hole."""
    tail = name.rpartition("-")[2]
    return tail if tail in HOLES else None


def _each(items, name, names: dict, maps: dict):
    """(item, map) for each library declaration of `items`, in order: a run
    of declarations over one hole of `maps` once per type of it, with that
    type's map, and any other declaration once with `names`."""
    for hole, run in groupby(items, lambda x: _hole(name(x))):
        run = list(run)
        for m in maps.get(hole, (names,)):
            for x in run:
                yield x, m


def _instance(c: ast.JemClass, names: dict, maps: dict) -> ast.JemClass:
    """A copy of library class `c` under `names`; within it, declarations over
    a hole of `maps` other than the class's own come once per type."""
    maps = {h: ms for h, ms in maps.items() if h != _hole(c.name)}

    def each(items, name=str):
        return _each(items, name, names, maps)

    def sig(s: ast.MethodSig, m: dict) -> ast.MethodSig:
        return ast.MethodSig(m.get(s.name, s.name), m.get(s.recv, s.recv), tuple(m.get(p, p) for p in s.params), m.get(s.ret, s.ret))

    def fields(o: ast.ObjectDef, m: dict) -> dict:
        return {
            m2.get(f, f): ast.ObjRef(m2.get(v.name, v.name)) if isinstance(v, ast.ObjRef) else v
            for (f, v), m2 in _each(o.fields.items(), _key, m, maps)
        }

    return ast.JemClass(
        names.get(c.name, c.name),
        [],
        [],
        ast.Ctor([m.get(p, p) for p, m in each(c.ctor.params)], c.ctor.pos),
        {m.get(f, f): m.get(t, t) for (f, t), m in each(c.field_types.items(), _key)},
        [
            ast.Method(m.get(x.name, x.name), list(x.params), sig(x.sig, m), ast.renamed(x.body, m), x.pos)
            for x, m in each(c.methods, _name)
        ],
        [ast.ObjectDef(m.get(o.name, o.name), m.get(o.cname, o.cname), fields(o, m), o.pos) for o, m in each(c.objects, _name)],
        c.pos,
    )


def _parse_library(text: str) -> ast.JemComponent:
    """The component `text` spells with placeholders. The lexer reads each `$`
    as `_`, which the text does not use otherwise and which keeps every
    column; the names then get their `$` back."""
    assert "_" not in text
    back = {h.replace("$", "_"): h for h in re.findall(r"\$[\w$-]*\w", text)}
    return ast.JemComponent([_instance(c, back, {}) for c in parse_component(text.replace("$", "_")).classes])


LIBRARY = _parse_library(LIBRARY_TEXT)  # read-only: every witness copies it


def _names(iface: Interface, methods: dict) -> tuple[dict, dict]:
    """The map of a witness's placeholders to its names, and per hole the map
    for each of its types, in order. `methods` maps each imported interface to
    its methods by name, beside which its stub declares the factory `mk-<I>`."""
    taken = set(iface.names)

    def fresh(base: str, taken: set = taken) -> str:
        name, n = base, 0
        while name in taken:
            n += 1
            name = f"{base}-{n}"
        taken.add(name)
        return name

    def name(r: str, t: str) -> str:
        if r == "mk":
            return fresh(f"mk-{t}", set(methods[t]))
        return fresh(f"{r}-{t}") if r in FRESH else f"{r}-{t}"

    names = {f"${n}": fresh(n) if n in FRESH else n for n in ("Helper", "oc", "isStep", "incrStep", "diverge")}
    names["$main"] = ENTRY
    registry = sorted(iface.internal_classes) + sorted(iface.external_classes) + ["Obj"]
    interfaces = sorted(iface.external_classes)
    for types, roles in ((registry, REGISTRY), (interfaces, FACTORY)):
        for t in types:
            names.update({f"${r}-{t}": name(r, t) for r in roles})
    maps = {
        hole: [names | {hole: t} | {f"${r}-{hole}": names[f"${r}-{t}"] for r in roles} for t in types]
        for hole, types, roles in (("$t", registry, REGISTRY), ("$i", interfaces, REGISTRY + FACTORY))
    }
    return names, maps


def skel(c1: ast.JemComponent, iface: Interface, code: dict) -> ast.JemComponent:
    """The differentiating context of a component pair (c1 stands for both), with
    the witness code `code` maps (class, method) -> MethodCode to."""
    by_name = Env(c1).interfaces  # interface -> method name -> the first signature declared
    names, maps = _names(iface, by_name)
    classes = [_instance(c, m, maps) for c, m in _each(LIBRARY.classes, _name, names, maps)]
    code = dict(code)

    def body(key: tuple, value: ast.Expr, *effects: ast.Expr) -> ast.Expr:
        return ast.renamed(code.pop(key, MethodCode()).body(value, *effects), names)

    # stub methods, and stub objects for every object declaration the pair imports
    _, ios = c1.all_imports()
    imported = sorted({(io.name, io.cname) for io in ios})
    for stub, i in zip(classes[len(maps["$t"]) : -1], sorted(iface.external_classes)):
        stub.methods[:0] = [
            ast.Method(s.name, list(map(param, range(len(s.params)))), s, body((i, s.name), ast.Lit(DEFAULTS.get(s.ret, ast.NULL))))
            for s in by_name[i].values()
        ]
        stub.objects += [ast.ObjectDef(o, i, {}) for o, cls in imported if cls == i]
    helper = classes[-1]
    main = helper.method(names[MAIN[1]])
    prelude = [add_object(t, ast.Var(o), k) for o, t, _, k in iface.exported_objects + iface.required_objects]
    main.body = body(MAIN, main.body, *prelude)
    if code:
        raise UnknownMethod(", ".join(f"{c}.{m}" for c, m in code))
    # the witness imports everything the component pair exports
    helper.import_classes = [ast.ImportClass(c.name, [m.sig for m in c.methods]) for c in c1.classes]
    helper.import_objects = [ast.ImportObj(name, cls) for name, cls, _, _ in iface.exported_objects]
    return ast.JemComponent(classes)
