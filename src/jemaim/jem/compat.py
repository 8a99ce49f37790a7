"""Component satisfaction, the program entry, compatibility and plugging of separately checked parts."""
from __future__ import annotations

from . import ast
from .typecheck import duplicates, typecheck

# The designated empty program: plugging failures produce it; it runs zero steps.
EMPTY = ast.JemComponent([])
ENTRY = "main"  # the name of the entry object and of its method, which `entry` alone reads


class NotWhole(Exception):
    """A program or linked image that cannot start: something it needs is missing, or its entry."""


def satisfies(provider: ast.JemComponent, consumer: ast.JemComponent) -> bool:
    """provider ⊩ consumer: every import declaration of `consumer` is implemented."""
    classes = {c.name: c for c in provider.classes}
    objects = {}
    for c in provider.classes:
        for o in c.objects:
            objects[o.name] = o.cname
    for c in consumer.classes:
        for ic in c.import_classes:
            impl = classes.get(ic.name)
            if impl is None:
                return False
            for sig in ic.sigs:
                m = impl.method(sig.name)
                if m is None or m.sig != sig:
                    return False
        for io in c.import_objects:
            if objects.get(io.name) != io.cname:
                return False
    return True


def entry(objects, method):
    """The program entry of a source program or a linked image, given its (object name, class)
    pairs and `method(class, name)`, a class's method or None: the one object `main` and its
    class's method `main()` without parameters. Raises NotWhole unless there is exactly one."""
    mains = [o for o in objects if o[0] == ENTRY]
    if len(mains) != 1:
        raise NotWhole(f"{'more than one' if mains else 'no'} object named {ENTRY!r}")
    m = method(mains[0][1], ENTRY)
    if m is None or m.params:
        raise NotWhole(f"no method {ENTRY}() on the {ENTRY} object's class")
    return mains[0], m


def compat(c1: ast.JemComponent, c2: ast.JemComponent) -> bool:
    """Mutual satisfaction; total and symmetric by construction."""
    return satisfies(c1, c2) and satisfies(c2, c1)


def join(context: ast.JemComponent, component: ast.JemComponent) -> ast.JemComponent:
    """The whole program of a context and a component: their classes in order."""
    return ast.JemComponent(list(context.classes) + list(component.classes))


def plug_errors(context: ast.JemComponent, component: ast.JemComponent) -> list[str]:
    """What joining adds to a context and a component that each typecheck:
    incompatible imports, or the join check's diagnostic for each class and
    object name both define. Else the join is well typed; it is not checked."""
    if not compat(context, component):
        return ["the imports are incompatible"]
    return duplicates(join(context, component).classes)


def plug(context: ast.JemComponent, component: ast.JemComponent) -> ast.JemComponent:
    """Check each part, then join them into a whole program, or EMPTY on failure."""
    return EMPTY if typecheck(context) or typecheck(component) or plug_errors(context, component) else join(context, component)
