"""Command-line surface for the toolchain.

Subcommands: check, run_jem, compile, link, run_aim, trace, trace_diff,
backtranslate, verify_witness. Failures print a machine-parsable `error:` line
and exit nonzero. Identical invocations with identical seeds produce identical
outputs.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .aim import aimod
from .aim.link import LinkError
from .backtrans.algo import PlugFailure, algo, verify_witness
from .backtrans.interface import ImportMismatch
from .compiler.comp import CompileError
from .compiler.pipeline import CompilationError, UnresolvedSymbols, modules, mylink, run_aim
from .jem.interp import DEFAULT_FUEL, NotWhole, run
from .jem.parser import JemSyntaxError, parse_component
from .jem.printer import render_component
from .jem.typecheck import typecheck
from .traces.actions import parse_trace, render_trace
from .traces.engine import DEFAULT_DEPTH, AdversaryDomain, enumerate_traces
from .traces.equiv import InterfaceMismatch, trace_equiv

DEFAULT_SEED = 0


class CliError(Exception):
    pass


def _load_component(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e
    try:
        return parse_component(text)
    except JemSyntaxError as e:
        raise CliError(f"{path}:{e}") from e


def _load_trace(path: str):
    try:
        return parse_trace(Path(path).read_text())
    except ValueError as e:
        raise ValueError(f"{path}:{e}") from e


def _reject(path: str, errors: list[str]):
    for err in errors:
        print(f"{path}:{err}", file=sys.stderr)
    raise CliError(f"{path}: component does not typecheck")


def _load_compiled(path: str):
    """The component in `path` and its modules, checked once, by `modules`."""
    comp = _load_component(path)
    try:
        return comp, modules(comp)
    except CompilationError as e:
        _reject(path, e.diagnostics)


def cmd_check(args) -> int:
    comp = _load_component(args.file)
    errors = typecheck(comp)
    for err in errors:
        print(f"{args.file}:{err}", file=sys.stderr)
    return 1 if errors else 0


def cmd_run_jem(args) -> int:
    comp = _load_component(args.file)
    if errors := typecheck(comp):
        _reject(args.file, errors)
    try:
        result = run(comp, fuel=args.fuel)
    except NotWhole as e:
        raise CliError(f"not a whole program: {e}") from e
    print(repr(result))
    return 0


def cmd_compile(args) -> int:
    comp, images = _load_compiled(args.file)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    names = [cls.name for cls in comp.classes] + ["sys"]
    for name, image in zip(names, images):
        (outdir / f"{name}.aimod").write_text(aimod.dump(image))
    print(f"wrote {len(images)} modules to {outdir}")
    return 0


def cmd_link(args) -> int:
    images = [aimod.load(Path(p).read_text()) for p in args.files]
    try:
        linked = mylink(*images)
    except LinkError as e:
        raise CliError(f"Incompatible: {e}") from e
    Path(args.output).write_text(aimod.dump(linked))
    print(f"wrote {args.output}")
    return 0


def cmd_run_aim(args) -> int:
    image = aimod.load(Path(args.file).read_text())
    try:
        result = run_aim(image, seed=args.seed, fuel=args.fuel)
    except UnresolvedSymbols as e:
        raise CliError(str(e)) from e
    print(f"{result!r} r6={result.value!r}")
    return 0


def cmd_trace(args) -> int:
    _, images = _load_compiled(args.file)
    traces = enumerate_traces(mylink(*images), depth=args.depth, domain=AdversaryDomain(), seed=args.seed)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(traces, key=lambda t: (len(t), tuple(a.render() for a in t)))
    for i, t in enumerate(ordered):
        (outdir / f"trace-{i:04d}.trace").write_text(render_trace(t))
    print(f"wrote {len(ordered)} traces to {outdir}")
    return 0


def cmd_trace_diff(args) -> int:
    (_, i1), (_, i2) = _load_compiled(args.first), _load_compiled(args.second)
    try:
        result = trace_equiv(mylink(*i1), mylink(*i2), depth=args.depth, seed=args.seed)
    except InterfaceMismatch as e:
        raise CliError(str(e)) from e
    if result.equivalent:
        print(f"equivalent at depth {args.depth}")
        return 0
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "t1.trace").write_text(render_trace(result.t1))
    (outdir / "t2.trace").write_text(render_trace(result.t2))
    print(f"inequivalent: wrote {outdir}/t1.trace and {outdir}/t2.trace")
    return 0


def cmd_backtranslate(args) -> int:
    (c1, i1), (c2, i2) = _load_compiled(args.first), _load_compiled(args.second)
    t1, t2 = _load_trace(args.trace1), _load_trace(args.trace2)
    try:
        witness = algo(c1, c2, t1, t2, image=mylink(*i1), image2=mylink(*i2))
    except ImportMismatch as e:
        raise CliError(str(e)) from e
    Path(args.output).write_text(render_component(witness.context))
    note = f" (emulation failed at {witness.emulation_failed}; do-nothing context)" if witness.emulation_failed else ""
    print(f"wrote {args.output}{note}")
    return 0


def cmd_verify_witness(args) -> int:
    paths = {"context": args.witness, "first": args.first, "second": args.second}
    witness, c1, c2 = (_load_component(path) for path in paths.values())
    try:
        verdict = verify_witness(witness, c1, c2, fuel=args.fuel)
    except PlugFailure as e:
        if e.part is None:
            raise
        _reject(paths[e.part], e.diagnostics)
    print(f"{'component':<12} {'verdict':<16}")
    print(f"{args.first:<12} {verdict.first!r:<16}")
    print(f"{args.second:<12} {verdict.second!r:<16}")
    print(f"distinguishing: {verdict.distinguishing}")
    return 0 if verdict.distinguishing else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jemaim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fuel=False, depth=False, seed=False):
        if fuel:
            sp.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
        if depth:
            sp.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        if seed:
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sp = sub.add_parser("check", help="typecheck a .jem component")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("run_jem", help="run a whole jem program under fuel")
    sp.add_argument("file")
    common(sp, fuel=True)
    sp.set_defaults(func=cmd_run_jem)

    sp = sub.add_parser("compile", help="compile a component to .aimod modules plus sys")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", default="out")
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("link", help="link .aimod images (one sys kept)")
    sp.add_argument("files", nargs="+")
    sp.add_argument("-o", "--output", default="prog.aimod")
    sp.set_defaults(func=cmd_link)

    sp = sub.add_parser("run_aim", help="run a linked whole image")
    sp.add_argument("file")
    common(sp, fuel=True, seed=True)
    sp.set_defaults(func=cmd_run_aim)

    sp = sub.add_parser("trace", help="enumerate bounded traces of a compiled component")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", default="traces")
    common(sp, depth=True, seed=True)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("trace_diff", help="compare bounded trace sets of two components")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("-o", "--output", default="divergence")
    common(sp, depth=True, seed=True)
    sp.set_defaults(func=cmd_trace_diff)

    sp = sub.add_parser("backtranslate", help="build a distinguishing source context")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("trace1")
    sp.add_argument("trace2")
    sp.add_argument("-o", "--output", default="witness.jem")
    sp.set_defaults(func=cmd_backtranslate)

    sp = sub.add_parser("verify_witness", help="run the witness against both components")
    sp.add_argument("witness")
    sp.add_argument("first")
    sp.add_argument("second")
    common(sp, fuel=True)
    sp.set_defaults(func=cmd_verify_witness)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, LinkError, aimod.AimodError, NotWhole, CompileError, PlugFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # any other failure is still reported as one error line
        message = " ".join(str(e).split())
        print(f"error: {type(e).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
