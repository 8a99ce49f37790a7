"""Inputs, ops and known answers of the three jemaim benchmark workloads.

A workload is a fixed batch of ops built from the seed. An op runs one input
through the toolchain and returns a row: its counts, its verdict and whether
that verdict is the op's known answer. Every call into the toolchain goes
through a module attribute (``parser.parse_component``, not a name imported
into this module), so that the traced run can wrap it at that binding.

Importing this module imports ``jemaim`` and ``tests/corpus.py``; the caller
puts ``src`` and ``tests`` on ``sys.path`` first.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from jemaim.aim import aimod
from jemaim.backtrans import algo as backtrans
from jemaim.compiler import comp as compiler
from jemaim.compiler import pipeline, prot, sysmod
from jemaim.compiler.encoding import encode_value
from jemaim.jem import interp, parser, printer, typecheck
from jemaim.traces import equiv
from jemaim.traces.engine import AdversaryDomain

from corpus import COMPONENTS, INEQUIVALENT_PAIRS, WHOLE_PROGRAMS

# Fixed fuels. The corpus programs use the fuels of acceptance criterion 1,
# which the step-count baseline (729 jem / 12 176 aim steps) was taken with.
# Generated programs reach about 63 k jem steps and about 500 k aim steps at
# 11.8 aim steps per jem step, so their aim fuel is doubled.
CORPUS_JEM_FUEL = 100_000
CORPUS_AIM_FUEL = 300_000
GEN_JEM_FUEL = 100_000
GEN_AIM_FUEL = 600_000
AIM_SEED = 1
TRACE_DEPTH = 4
WITNESS_DEPTH = 3
WITNESS_FUEL = 1_000_000

# Generated recursion programs of the timed batch: (pending `+` operands per
# level, depth band [lo, lo + width)). Their depths stay below both stack
# limits of the compiled code, so every op passes at the commit that added the
# benchmark.
GEN_BANDS = (
    (1, 100, 20),
    (1, 600, 30),
    (1, 1200, 60),
    (4, 300, 20),
    (4, 900, 40),
    (7, 100, 10),
    (7, 500, 20),
)

# Recursion programs past a stack limit of the compiled code (ROADMAP item 2):
# (pending operands, band lo, band width, limit). They are checked once per
# run, untimed. At that commit the compiled frame stack gives out between
# 1 320 and 1 330 levels (the frame guard then spins until fuel runs out) and
# the unguarded evaluation stack between 1 000 and 1 050 levels at 4 pending
# operands and between 560 and 600 at 7. The bands never straddle a limit, so
# the same probes fail under every seed.
STACK_LIMIT_BANDS = (
    (1, 1400, 60, "frame-limit"),
    (1, 1700, 60, "frame-limit"),
    (4, 1100, 50, "eval-stack"),
    (7, 600, 20, "eval-stack"),
    (7, 900, 40, "eval-stack"),
)

# The aim results recorded for each limit, while the jem run terminates:
# the frame limit runs out of fuel; the evaluation stack ends in a violation,
# a stuck machine or an abort, depending on the depth.
STACK_LIMIT_RESULTS = {
    "frame-limit": {"fuel"},
    "eval-stack": {"violation", "stuck", "abort"},
}

DOMAINS = {
    "default": AdversaryDomain,
    "illtyped": lambda: AdversaryDomain(illtyped=True, forged_ids=(9,)),
}

# Canonical trace-set sizes at depth 4, recorded at the seed commit; canonical
# sets do not depend on the oracle seed.
TRACE_COUNTS = {
    ("const", "default"): 9,
    ("const", "illtyped"): 21,
    ("double", "default"): 46,
    ("double", "illtyped"): 521,
    ("cell", "default"): 161,
    ("cell", "illtyped"): 1446,
    ("keeper", "default"): 937,
    ("keeper", "illtyped"): 5773,
    ("gate", "default"): 426,
    ("gate", "illtyped"): 3901,
}


@dataclass
class Op:
    name: str
    run: Callable[[], dict]


def recursion_program(pending: int, n: int) -> str:
    """`main.sum(n)` leaving `pending` operands of `+` on the stack per level."""
    body = "n + this.sum(n - 1)"
    for _ in range(pending - 1):
        body = f"1 + ({body})"
    return f"""
class main {{
  main(){{}}
  public sum(n) : main(Int)->Int {{
    return if (n < 1) {{ 0 }} else {{ {body} }};
  }}
  public main() : main()->Int {{ return this.sum({n}); }}
}};
object main : main {{ }};
"""


def _code_words(image) -> int:
    return sum(d.code_len for d in image.descs)


def compile_run(src: str, jem_fuel: int, aim_fuel: int) -> dict:
    """parse → typecheck → reference jem run → per-class compile, sys module
    → .aimod round trip → link → aim run; passes when both runs terminate
    with the same encoded value or neither terminates."""
    comp = parser.parse_component(src)
    errors = typecheck.typecheck(comp)
    if errors:
        raise ValueError("does not typecheck: " + "; ".join(errors))
    ref = interp.run(comp, fuel=jem_fuel)
    images = [prot.prot(compiler.comp_class(comp, cls, 2 + i)) for i, cls in enumerate(comp.classes)]
    images.append(sysmod.build_sys())
    images = [aimod.load(aimod.dump(img)) for img in images]
    linked = pipeline.mylink(*images)
    res = pipeline.run_aim(linked, seed=AIM_SEED, fuel=aim_fuel)
    src_term = ref.kind == "terminated"
    aim_term = res.kind == "halted" and not res.aborted
    ok = src_term == aim_term and (not src_term or res.value == encode_value(ref.value))
    return {
        "ok": ok,
        "verdict": f"{ref!r} / {res!r}",
        "jem_kind": ref.kind,
        "aim_kind": "abort" if res.aborted else res.kind,
        "terminating": src_term and aim_term,
        "jem_steps": ref.steps,
        "aim_steps": res.steps,
        "code_words": _code_words(linked),
    }


def trace_equiv_op(comp, domain_name: str, seed: int, expected: int) -> dict:
    """A component against a second compilation of itself; passes when the
    result is Equivalent with the recorded trace count."""
    img1, img2 = pipeline.compaim(comp), pipeline.compaim(comp)
    res = equiv.trace_equiv(img1, img2, depth=TRACE_DEPTH, domain=DOMAINS[domain_name](), seed=seed)
    traces = res.traces if res.equivalent else 0
    return {
        "ok": res.equivalent and traces == expected,
        "verdict": f"Equivalent({traces})" if res.equivalent else "Inequivalent",
        "traces": traces,
        "code_words": _code_words(img1) + _code_words(img2),
    }


def witness_op(c1, c2) -> dict:
    """compaim both sides → trace_equiv → algo → typecheck(witness) →
    verify_witness; passes when the witness typechecks and distinguishes."""
    img1, img2 = pipeline.compaim(c1), pipeline.compaim(c2)
    res = equiv.trace_equiv(img1, img2, depth=WITNESS_DEPTH)
    if res.equivalent:
        return {"ok": False, "verdict": f"Equivalent({res.traces})", "code_words": _code_words(img1) + _code_words(img2)}
    w = backtrans.algo(c1, c2, res.t1, res.t2, image=img1, image2=img2)
    errors = typecheck.typecheck(w.context)
    v = backtrans.verify_witness(w.context, c1, c2, fuel=WITNESS_FUEL)
    return {
        "ok": not errors and v.distinguishing,
        "verdict": f"{v.first!r} / {v.second!r}" + (" ill-typed witness" if errors else ""),
        "emulated_steps": w.steps,
        "verify_jem_steps": v.first.steps + v.second.steps,
        "witness": w.context,
        "code_words": _code_words(img1) + _code_words(img2),
    }


def witness_lines(context) -> int:
    return len(printer.render_component(context).splitlines())


def _recursion_op(pending: int, n: int) -> Op:
    src = recursion_program(pending, n)
    return Op(f"sum{pending}/{n}", lambda: compile_run(src, GEN_JEM_FUEL, GEN_AIM_FUEL))


def _compile_run_batch(rng: random.Random) -> list[Op]:
    ops = [
        Op(f"corpus/{name}", lambda src=src: compile_run(src, CORPUS_JEM_FUEL, CORPUS_AIM_FUEL))
        for name, src in WHOLE_PROGRAMS.items()
    ]
    for pending, lo, width in GEN_BANDS:
        ops.append(_recursion_op(pending, lo + rng.randrange(width)))
    return ops


def stack_limit_probes(workload: str, seed: int) -> list[tuple[Op, str]]:
    """The workload's untimed stack-limit probes, each with the limit it crosses."""
    if workload != "compile-run":
        return []
    rng = random.Random(f"stack-limit:{seed}")
    return [(_recursion_op(pending, lo + rng.randrange(width)), limit) for pending, lo, width, limit in STACK_LIMIT_BANDS]


def probe_outcome(row: dict, limit: str) -> str:
    """'recorded' when a probe fails as recorded for its limit, 'fixed' when
    both runs now agree, otherwise what went wrong."""
    if row["ok"]:
        return "fixed"
    if row.get("jem_kind") == "terminated" and row.get("aim_kind") in STACK_LIMIT_RESULTS[limit]:
        return "recorded"
    return f"not the recorded {limit} failure: {row['verdict']}"


def _trace_equiv_batch(rng: random.Random, seed: int) -> list[Op]:
    ops = []
    for name, src in COMPONENTS.items():
        comp = parser.parse_component(src)
        for domain in DOMAINS:
            expected = TRACE_COUNTS[(name, domain)]
            ops.append(Op(f"{name}/{domain}", lambda c=comp, d=domain, e=expected: trace_equiv_op(c, d, seed, e)))
    rng.shuffle(ops)
    return ops


def _witness_batch(rng: random.Random) -> list[Op]:
    ops = []
    for name, (a, b) in INEQUIVALENT_PAIRS.items():
        c1, c2 = parser.parse_component(a), parser.parse_component(b)
        ops.append(Op(name, lambda c1=c1, c2=c2: witness_op(c1, c2)))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The workload's batch of ops; the same seed gives the same batch."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "compile-run":
        return _compile_run_batch(rng)
    if workload == "trace-equiv":
        return _trace_equiv_batch(rng, seed)
    if workload == "witness":
        return _witness_batch(rng)
    raise ValueError(f"unknown workload {workload!r}")
