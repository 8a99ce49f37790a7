"""Component satisfaction, mutual compatibility, and plugging of separately checked parts."""
from __future__ import annotations

from . import ast
from .typecheck import duplicates, typecheck

# The designated empty program: plugging failures produce it; it runs zero steps.
EMPTY = ast.JemComponent([])


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
