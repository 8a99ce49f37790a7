"""Spans and counters for the traced run.

The recorder wraps the public functions of each layer at the module bindings
their callers use (``jemaim.compiler.pipeline.typecheck`` is the binding
``compaim`` calls, ``jemaim.jem.typecheck.typecheck`` the one the benchmark
calls). Each call becomes a span: op id, span id, parent span, name, start and
end. Spans stay in memory until the run writes them out. The hot methods
get counters only: ``MachineState.clone`` while the recorder is installed,
``MachineState.step`` only while a trace segment runs, so that ``run_aim``
runs at full speed.
"""
from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

from jemaim.aim import aimod
from jemaim.aim.machine import MachineState
from jemaim.backtrans import algo as backtrans
from jemaim.compiler import comp as compiler
from jemaim.compiler import pipeline, prot, sysmod
from jemaim.jem import compat, interp, parser, typecheck
from jemaim.traces import engine, equiv
from jemaim.traces.actions import FuelExceeded

# span name -> per-layer time metric that takes the span's self time
LAYER_OF_SPAN = {
    "jem.parse": "jem.parse_s",
    "jem.typecheck": "jem.parse_s",
    "jem.run": "jem.run_s",
    "compiler.compaim": "compiler.compile_s",
    "compiler.comp_class": "compiler.compile_s",
    "compiler.prot": "compiler.compile_s",
    "compiler.build_sys": "compiler.compile_s",
    "aim.link": "aim.link_s",
    "aim.dump": "aim.link_s",
    "aim.load": "aim.link_s",
    "aim.run": "aim.run_s",
    "traces.equiv": "traces.equiv_s",
    "traces.enumerate": "traces.enum_s",
    "traces.canonicalize": "traces.canon_s",
    "traces.segment": "traces.segment_s",
    "backtrans.algo": "backtrans.algo_s",
    "backtrans.verify": "backtrans.verify_s",
}

SEGMENT_METHODS = ("call_method", "call_sysproc", "returnback", "poke")


class Recorder:
    def __init__(self):
        self.spans = []  # (op id, span id, parent span id, name, start, end)
        self.stack = []
        self.op_id = None
        self.counts = Counter()
        self._saved = []
        self._segment_depth = 0

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.op_id, sid, parent, name, perf_counter(), None])
        self.stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid][5] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, on_result=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(sid)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        c = self.counts

        def on_jem_run(r):
            c["jem.runs"] += 1
            c["jem.steps"] += r.steps
            c["jem.fuel_runs"] += r.kind == "fuel"

        def on_aim_run(r):
            c["aim.steps"] += r.steps
            c["aim.fuel_runs"] += r.kind == "fuel"
            c["aim.aborts"] += r.aborted

        def on_module(_):
            c["compiler.modules"] += 1

        def on_equiv(r):
            c["traces.traces"] += r.traces if r.equivalent else 0

        def on_algo(w):
            c["backtrans.emulated_steps"] += w.steps

        def on_verify(v):
            c["backtrans.verify_jem_steps"] += v.first.steps + v.second.steps

        plan = [
            (parser, "parse_component", "jem.parse", None),
            (typecheck, "typecheck", "jem.typecheck", None),
            (pipeline, "typecheck", "jem.typecheck", None),
            (compat, "typecheck", "jem.typecheck", None),
            (interp, "run", "jem.run", on_jem_run),
            (backtrans, "run", "jem.run", on_jem_run),
            (pipeline, "compaim", "compiler.compaim", None),
            (compiler, "comp_class", "compiler.comp_class", on_module),
            (pipeline, "comp_class", "compiler.comp_class", on_module),
            (prot, "prot", "compiler.prot", None),
            (pipeline, "prot", "compiler.prot", None),
            (sysmod, "build_sys", "compiler.build_sys", on_module),
            (pipeline, "build_sys", "compiler.build_sys", on_module),
            (pipeline, "mylink", "aim.link", None),
            (aimod, "dump", "aim.dump", None),
            (aimod, "load", "aim.load", None),
            (pipeline, "run_aim", "aim.run", on_aim_run),
            (equiv, "trace_equiv", "traces.equiv", on_equiv),
            (equiv, "enumerate_traces", "traces.enumerate", None),
            (engine, "canonicalize", "traces.canonicalize", None),
            (backtrans, "algo", "backtrans.algo", on_algo),
            (backtrans, "verify_witness", "backtrans.verify", on_verify),
        ]
        for owner, attr, name, on_result in plan:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), on_result))
        for attr in SEGMENT_METHODS:
            self._patch(engine.ComponentTracer, attr, self._segment(getattr(engine.ComponentTracer, attr)))
        self._patch(MachineState, "clone", self._counted(MachineState.clone, "traces.clones"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counted(self, fn, key):
        c = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            c[key] += 1
            return fn(*args)

        return wrapper

    def _segment(self, fn):
        """A segment span; MachineState.step is counted while the outermost
        segment runs and restored when it ends."""
        rec, c = self, self.counts
        step = MachineState.__dict__["step"]
        counted_step = self._counted(step, "traces.segment_steps")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._segment_depth == 0:
                MachineState.step = counted_step
            rec._segment_depth += 1
            sid = rec.begin("traces.segment")
            try:
                seg = fn(*args, **kwargs)
            finally:
                rec.end(sid)
                rec._segment_depth -= 1
                if rec._segment_depth == 0:
                    MachineState.step = step
            c["traces.segments"] += 1
            c["traces.fuel_segments"] += isinstance(seg.reply, FuelExceeded)
            return seg

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Self time and inclusive time per span name, in seconds."""
        inclusive, self_t = Counter(), Counter()
        for _, _, parent, name, start, end in self.spans:
            d = end - start
            inclusive[name] += d
            self_t[name] += d
            if parent is not None:
                self_t[self.spans[parent][3]] -= d
        return self_t, inclusive

    def write_spans(self, path):
        with open(path, "w") as f:
            for op_id, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"op": op_id, "span": sid, "parent": parent, "name": name, "start": start, "end": end}) + "\n")
