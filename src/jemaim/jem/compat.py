"""Component satisfaction, mutual compatibility, and context plugging."""
from __future__ import annotations

from . import ast
from .typecheck import typecheck

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


def _join(context: ast.JemComponent, component: ast.JemComponent) -> ast.JemComponent:
    return ast.JemComponent(list(context.classes) + list(component.classes))


def plug_errors(context: ast.JemComponent, component: ast.JemComponent) -> list[str]:
    """Why plugging fails: that the imports are incompatible, or the typecheck
    diagnostics of the context, the component or their join, whichever fails
    first. Empty exactly when the plug succeeds."""
    if not compat(context, component):
        return ["the imports are incompatible"]
    return typecheck(context) or typecheck(component) or typecheck(_join(context, component))


def plug(context: ast.JemComponent, component: ast.JemComponent) -> ast.JemComponent:
    """Concatenate context and component into a whole program, or EMPTY on failure."""
    return EMPTY if plug_errors(context, component) else _join(context, component)
