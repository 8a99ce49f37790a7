"""Labelled-transition view of compiled components.

A tracer drives a compiled (possibly unlinked) component against a synthesized
environment living in unprotected memory. The environment acts by injecting
?-actions — entering sys's forwardCall with a method target, probing
testObj/registerObj, jumping to forwardReturn, or poking an entry point
directly — and the component then runs deterministically to its next
observable: an exit through one of sys's boundary jumps (Callback!/Return!),
a termination tick, or the segment fuel pseudo-action. Enumeration never
pokes: entry points admit only jumps that sys forwards, so a poke only ticks.

Every injection takes the one path through `ComponentTracer._enter`: clone the
state, clear registers and flags, load the injected registers, set pc and run.
The run decodes an instruction of its own only at sys's four boundary jumps.
The id a Return! names is read off r0 whenever pc reaches forwardReturn: the
machine's `jmp` stamps r0 with the id of the module that jumped there, and a
returnback injection sets r0 to the id it claims.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from ..aim.words import FORWARDCALL_EP, FORWARDRETURN_EP, REGISTEROBJ_EP, SYS_ID, TESTOBJ_EP, Address, Nonce, Symbol
from ..compiler.pipeline import boot_state
from ..compiler.sysmod import sys_exit_marks
from ..compiler.encoding import V_FALSE, V_NULL, V_TRUE, V_UNIT, class_name_of_encoding, encode_class
from .actions import CallIn, CallOut, FuelExceeded, ReturnIn, ReturnOut, Tick, canonicalize

RESUME_PAD = 40
DEFAULT_DEPTH = 4
DEFAULT_SEGMENT_FUEL = 100_000


@dataclass
class Segment:
    """One component response: the recorded ?-action, the reply, the next state."""

    action: object
    reply: object
    state: object | None  # suspended machine state, None when the trace ended


def _vector(regs: dict) -> tuple:
    """Injected registers as the register vector of a call? action."""
    return tuple(regs.get(i, 0) for i in range(max(6, *regs) + 1))


class ComponentTracer:
    def __init__(self, image, seed: int = 0, segment_fuel: int = DEFAULT_SEGMENT_FUEL):
        self.image = image
        self.seed = seed
        self.segment_fuel = segment_fuel
        self.marks = sys_exit_marks()
        self.method_eps = {addr: sig for sig, addr in image.table.em.items() if addr.mid != SYS_ID}
        self.rm_by_syms = {(iota, sigma): sig for sig, iota, sigma in image.table.rm}
        # canonical seeding: exported masks in deterministic table order
        self.seed_masks = [image.table.eo[k] for k in sorted(image.table.eo)]
        self._adv = 0

    def fresh_adv_nonce(self) -> Nonce:
        self._adv += 1
        return Nonce("adv", self._adv)

    def initial(self):
        return boot_state(self.image, self.seed)

    def initial_knowledge(self) -> "Knowledge":
        # exported object bindings are public: the environment reads them
        # straight off the symbol table
        return Knowledge(
            typed=tuple((self.image.table.eo[k], k.cls) for k in sorted(self.image.table.eo))
        )

    # -- injections -----------------------------------------------------------

    def call_method(self, state, ep: Address, recv, args) -> Segment:
        regs = {3: ep.mid, 4: ep.off, 5: RESUME_PAD, 6: recv, **dict(enumerate(args, 7))}
        forwarded, reply, nxt = self._enter(state, Address(SYS_ID, FORWARDCALL_EP), regs, watch_forward=ep)
        if forwarded:
            action = CallIn((ep.mid, ep.off), (SYS_ID, 0, 0, 0, 0, FORWARDRETURN_EP, recv, *args))
        else:
            action = CallIn((SYS_ID, FORWARDCALL_EP), _vector(regs))
        return Segment(action, reply, nxt)

    def call_sysproc(self, state, off: int, w7, w8) -> Segment:
        regs = {5: RESUME_PAD, 7: w7, 8: w8}
        _, reply, nxt = self._enter(state, Address(SYS_ID, off), regs)
        return Segment(CallIn((SYS_ID, off), _vector(regs)), reply, nxt)

    def returnback(self, state, value, ident) -> Segment:
        _, reply, nxt = self._enter(state, Address(SYS_ID, FORWARDRETURN_EP), {0: ident, 6: value})
        return Segment(ReturnIn((SYS_ID, FORWARDRETURN_EP), value, ident), reply, nxt)

    def poke(self, state, addr: Address, regs: dict) -> Segment:
        regs = {5: RESUME_PAD, **regs}
        _, reply, nxt = self._enter(state, addr, regs)
        return Segment(CallIn((addr.mid, addr.off), _vector(regs)), reply, nxt)

    # -- the deterministic component run ---------------------------------------

    def _enter(self, state, pc: Address, regs: dict, watch_forward=None):
        """Run a clone of `state` from `pc` with only `regs` set: (forwarded, reply, next state)."""
        st = state.clone()
        st.regs = {}
        st.flags = {0: 0, 1: 0}
        for i, w in regs.items():
            st.set_reg(i, w)
        st.pc = pc
        return self._run(st, watch_forward)

    def _run(self, st, watch_forward):
        forwarded = False
        returner = None
        marks = self.marks
        for _ in range(self.segment_fuel):
            pc = st.pc
            if pc.mid == SYS_ID:
                if pc.off == FORWARDRETURN_EP:
                    returner = st.reg(0)
                elif pc.off in marks:
                    rd, ri = st.peek().ops
                    t_off, t_mid = st.reg(rd), st.reg(ri)
                    if t_mid == 0 or isinstance(t_mid, Symbol) or isinstance(t_off, Symbol):
                        kind = marks[pc.off]
                        if kind == "fwcall":
                            sig = self.rm_by_syms.get((t_mid, t_off))
                            k = len(sig.params) if sig else 0
                            regs = (0, 0, 0, 0, 0, FORWARDRETURN_EP, st.reg(6), *(st.reg(7 + i) for i in range(k)))
                            return forwarded, CallOut((t_mid, t_off), regs), st
                        ident = returner if kind == "fwret" else SYS_ID
                        return forwarded, ReturnOut((t_mid, t_off), st.reg(6), ident), st
            status, _reason = st.step()
            if status != "ok":
                return forwarded, Tick(), None
            if watch_forward is not None and st.pc == watch_forward:
                forwarded = True
        return forwarded, FuelExceeded(), None


@dataclass
class AdversaryDomain:
    """Finite menus approximating the universally quantified context."""

    illtyped: bool = False
    forged_ids: tuple = ()
    register_classes: tuple = ()  # extra class names offered to registerObj

    def value_menu(self, tname: str, knowledge: "Knowledge") -> list:
        if tname == "Int":
            return [0, 1] + ([Nonce("adv-guess", 0)] if self.illtyped else [])
        if tname == "Bool":
            return [V_TRUE, V_FALSE] + ([7] if self.illtyped else [])
        if tname == "Unit":
            return [V_UNIT] + ([V_TRUE] if self.illtyped else [])
        out = [V_NULL] + knowledge.of_type(tname)
        if self.illtyped:
            out += [5, Nonce("adv-guess", 1)]
        return out

    def recv_menu(self, tname: str, knowledge: "Knowledge") -> list:
        out = knowledge.of_type(tname)
        if self.illtyped:
            out = out + [V_NULL, 3, Nonce("adv-guess", 2)]
        return out


@dataclass
class Knowledge:
    """What the environment has observed: typed ids, registered fresh objects."""

    typed: tuple = ()  # ordered (word, type-name) pairs
    registered: tuple = ()  # (nonce, class-name) registered via registerObj

    def of_type(self, tname: str) -> list:
        seen, out = set(), []
        for w, t in self.typed + self.registered:
            if (t == tname or tname == "Obj") and w not in seen:
                seen.add(w)
                out.append(w)
        return out

    def learn(self, w, tname):
        if isinstance(w, (Nonce, Symbol)) and (w, tname) not in self.typed:
            return replace(self, typed=self.typed + ((w, tname),))
        return self

    def register(self, w, cname):
        return replace(self, registered=self.registered + ((w, cname),))


def _injections(tracer: ComponentTracer, knowledge: Knowledge, pending: tuple, domain: AdversaryDomain):
    """All ?-moves the environment may try from this state; never empty."""
    out = []
    for addr, sig in sorted(tracer.method_eps.items()):
        recvs = domain.recv_menu(sig.recv, knowledge)
        menus = [domain.value_menu(p, knowledge) for p in sig.params]
        for recv in recvs:
            for args in itertools.product(*menus):
                out.append(("call", addr, recv, args))
    if pending:
        ret_t = pending[-1]
        for v in domain.value_menu(ret_t, knowledge):
            out.append(("returnback", v, 0))
        for ident in domain.forged_ids:
            out.append(("returnback", domain.value_menu(ret_t, knowledge)[0], ident))
    else:
        out.append(("returnback", V_UNIT, 0))  # premature return: always a tick
    for cname in domain.register_classes:
        out.append(("register", encode_class(cname)))
    for w in knowledge.of_type("Obj")[:2] + [V_NULL]:
        for cname in domain.register_classes[:1]:
            out.append(("testobj", w, encode_class(cname)))
    return out


def _apply(tracer, state, inj, knowledge: Knowledge, pending: tuple):
    """Perform one ?-move; returns the segment and what the environment then
    knows and still owes: a Callback! pushes its return type on `pending`
    and teaches the types of the words it passes."""
    kind = inj[0]
    if kind == "call":
        _, addr, recv, args = inj
        seg = tracer.call_method(state, addr, recv, args)
    elif kind == "returnback":
        _, v, ident = inj
        seg = tracer.returnback(state, v, ident)
        pending = pending[:-1]
    elif kind == "register":
        _, enc = inj
        fresh = tracer.fresh_adv_nonce()
        seg = tracer.call_sysproc(state, REGISTEROBJ_EP, fresh, enc)
        if isinstance(seg.reply, ReturnOut):
            knowledge = knowledge.register(fresh, class_name_of_encoding(enc))
    else:
        _, w, enc = inj
        seg = tracer.call_sysproc(state, TESTOBJ_EP, w, enc)
    if isinstance(seg.reply, CallOut):
        sig = tracer.rm_by_syms.get(tuple(seg.reply.addr))
        pending += (sig.ret if sig else "Obj",)
        if sig is not None:
            for w, t in zip(seg.reply.regs[6:], (sig.recv, *sig.params)):
                knowledge = knowledge.learn(w, t)
    return seg, knowledge, pending


def enumerate_traces(image, depth: int = DEFAULT_DEPTH, domain: AdversaryDomain | None = None, seed: int = 0) -> set:
    """Breadth-first trace set over the adversary menu, canonicalized."""
    domain = domain or AdversaryDomain()
    tracer = ComponentTracer(image, seed)
    results = {()}
    frontier = [(tracer.initial(), (), tracer.initial_knowledge(), ())]
    for _ in range(depth):
        nxt = []
        for state, trace, knowledge, pending in frontier:
            for inj in _injections(tracer, knowledge, pending, domain):
                seg, k2, p2 = _apply(tracer, state, inj, knowledge, pending)
                t2 = trace + (seg.action, seg.reply)
                results.add(canonicalize(t2, tracer.seed_masks))
                if seg.state is not None:
                    nxt.append((seg.state, t2, k2, p2))
        frontier = nxt
    return results


def random_trace(image, rng: random.Random, depth: int = DEFAULT_DEPTH, domain=None, seed: int = 0):
    """One random adversarial trace of 1 to `depth` moves, canonicalized."""
    domain = domain or AdversaryDomain()
    tracer = ComponentTracer(image, seed)
    state, trace, knowledge, pending = tracer.initial(), (), tracer.initial_knowledge(), ()
    for _ in range(rng.randrange(1, depth + 1)):
        injs = _injections(tracer, knowledge, pending, domain)
        seg, knowledge, pending = _apply(tracer, state, rng.choice(injs), knowledge, pending)
        trace = trace + (seg.action, seg.reply)
        state = seg.state
        if state is None:
            break
    return canonicalize(trace, tracer.seed_masks)
