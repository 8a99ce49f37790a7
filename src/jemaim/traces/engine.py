"""Labelled-transition view of compiled components.

A tracer drives a compiled (possibly unlinked) component against a synthesized
environment living in unprotected memory. The environment acts by injecting
?-actions — entering sys's forwardCall with a method target, probing
testObj/registerObj, jumping to forwardReturn, or poking an entry point
directly — and the component then runs deterministically to its next
observable: an exit through one of sys's boundary jumps (Callback!/Return!),
a termination tick, or the segment fuel pseudo-action. Enumeration never
pokes: entry points admit only jumps that sys forwards, so a poke only ticks.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from ..aim.words import Address, N_W, Nonce, SYS_ID, Symbol
from ..compiler.pipeline import boot_state
from ..compiler.sysmod import sys_exit_marks
from ..compiler.encoding import V_FALSE, V_NULL, V_TRUE, V_UNIT, class_name_of_encoding, encode_class
from .actions import (
    CallIn,
    CallOut,
    FuelExceeded,
    ReturnIn,
    ReturnOut,
    Tick,
    canonicalize,
)

RESUME_PAD = 40
DEFAULT_DEPTH = 4
DEFAULT_SEGMENT_FUEL = 100_000


@dataclass
class Segment:
    """One component response: the recorded ?-action, the reply, the next state."""

    action: object
    reply: object
    state: object | None  # suspended machine state, None when the trace ended


class ComponentTracer:
    def __init__(self, image, seed: int = 0, segment_fuel: int = DEFAULT_SEGMENT_FUEL):
        self.image = image
        self.seed = seed
        self.segment_fuel = segment_fuel
        self.marks = sys_exit_marks()
        self.method_eps = {
            addr: sig for sig, addr in image.table.em.items() if addr.mid != SYS_ID
        }
        self.rm_by_syms = {}
        for sig, iota, sigma in image.table.rm:
            self.rm_by_syms[(iota, sigma)] = sig
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
        st = state.clone()
        st.regs = {}
        st.flags = {0: 0, 1: 0}
        st.set_reg(3, ep.mid)
        st.set_reg(4, ep.off)
        st.set_reg(5, RESUME_PAD)
        st.set_reg(6, recv)
        for i, w in enumerate(args):
            st.set_reg(7 + i, w)
        st.pc = Address(SYS_ID, 2 * N_W)
        forwarded, reply, nxt = self._run(st, watch_forward=ep)
        if forwarded:
            action = CallIn((ep.mid, ep.off), (1, 0, 0, 0, 0, 3 * N_W, recv, *args))
        else:
            action = CallIn((SYS_ID, 2 * N_W), (0, 0, 0, ep.mid, ep.off, RESUME_PAD, recv, *args))
        return Segment(action, reply, nxt)

    def call_sysproc(self, state, off: int, w7, w8) -> Segment:
        st = state.clone()
        st.regs = {}
        st.flags = {0: 0, 1: 0}
        st.set_reg(5, RESUME_PAD)
        st.set_reg(7, w7)
        st.set_reg(8, w8)
        st.pc = Address(SYS_ID, off)
        action = CallIn((SYS_ID, off), (0, 0, 0, 0, 0, RESUME_PAD, 0, w7, w8))
        _, reply, nxt = self._run(st)
        return Segment(action, reply, nxt)

    def returnback(self, state, value, ident) -> Segment:
        st = state.clone()
        st.regs = {}
        st.flags = {0: 0, 1: 0}
        st.set_reg(0, ident)
        st.set_reg(6, value)
        st.pc = Address(SYS_ID, 3 * N_W)
        action = ReturnIn((SYS_ID, 3 * N_W), value, ident)
        _, reply, nxt = self._run(st, last_returner=ident)
        return Segment(action, reply, nxt)

    def poke(self, state, addr: Address, regs: dict) -> Segment:
        st = state.clone()
        st.regs = {}
        st.flags = {0: 0, 1: 0}
        vec = [0, 0, 0, 0, 0, RESUME_PAD, 0]
        for i, w in sorted(regs.items()):
            st.set_reg(i, w)
            while len(vec) <= i:
                vec.append(0)
            vec[i] = w
        st.set_reg(5, regs.get(5, RESUME_PAD))
        vec[5] = regs.get(5, RESUME_PAD)
        st.pc = addr
        action = CallIn((addr.mid, addr.off), tuple(vec))
        _, reply, nxt = self._run(st)
        return Segment(action, reply, nxt)

    # -- the deterministic component run ---------------------------------------

    def _run(self, st, watch_forward=None, last_returner=None):
        forwarded = False
        returner = last_returner
        for _ in range(self.segment_fuel):
            if st.pc.mid == SYS_ID and st.pc.off in self.marks:
                kind = self.marks[st.pc.off]
                instr = st.peek()
                rd, ri = instr.ops
                t_off, t_mid = st.reg(rd), st.reg(ri)
                symbolic = isinstance(t_mid, Symbol) or isinstance(t_off, Symbol)
                if kind == "fwcall" and (symbolic or t_mid == 0):
                    sig = self.rm_by_syms.get((t_mid, t_off))
                    k = len(sig.params) if sig else 0
                    regs = (0, 0, 0, 0, 0, 3 * N_W, st.reg(6), *(st.reg(7 + i) for i in range(k)))
                    return forwarded, CallOut((t_mid, t_off), regs), st
                if kind == "fwret" and (symbolic or t_mid == 0):
                    return forwarded, ReturnOut((t_mid, t_off), st.reg(6), returner), st
                if kind in ("testobj", "regobj") and (symbolic or t_mid == 0):
                    return forwarded, ReturnOut((t_mid, t_off), st.reg(6), SYS_ID), st
            instr = st.peek()
            if instr is not None and instr.name == "jmp":
                t_off, t_mid = st.reg(instr.ops[0]), st.reg(instr.ops[1])
                if t_mid == SYS_ID and t_off == 3 * N_W:
                    returner = st.pc.mid
            status, _reason = st.step()
            if status != "ok":
                return forwarded, Tick(), None
            if watch_forward is not None and st.pc == watch_forward:
                forwarded = True
        return forwarded, FuelExceeded(), None


@dataclass
class AdversaryDomain:
    """Finite menus approximating the universally quantified context."""

    ints: tuple = (0, 1)
    illtyped: bool = False
    forged_ids: tuple = ()
    register_classes: tuple = ()  # extra class names offered to registerObj

    def value_menu(self, tname: str, knowledge: "Knowledge") -> list:
        if tname == "Int":
            out = list(self.ints)
            if self.illtyped:
                out.append(Nonce("adv-guess", 0))
            return out
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


def _learn_from_reply(knowledge: Knowledge, reply, tracer: ComponentTracer) -> Knowledge:
    if isinstance(reply, CallOut):
        sig = tracer.rm_by_syms.get(tuple(reply.addr))
        if sig is not None:
            knowledge = knowledge.learn(reply.regs[6], sig.recv)
            for i, pt in enumerate(sig.params):
                if 7 + i < len(reply.regs):
                    knowledge = knowledge.learn(reply.regs[7 + i], pt)
    return knowledge


def _injections(tracer: ComponentTracer, knowledge: Knowledge, pending: tuple, domain: AdversaryDomain):
    """All ?-moves the environment may try from this state."""
    out = []
    for addr, sig in sorted(tracer.method_eps.items()):
        recvs = domain.recv_menu(sig.recv, knowledge)
        menus = [domain.value_menu(p, knowledge) for p in sig.params]
        for recv in recvs:
            for args in itertools.product(*menus) if menus else [()]:
                out.append(("call", addr, recv, tuple(args), sig))
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
    kind = inj[0]
    if kind == "call":
        _, addr, recv, args, sig = inj
        seg = tracer.call_method(state, addr, recv, args)
        new_pending = pending
    elif kind == "returnback":
        _, v, ident = inj
        seg = tracer.returnback(state, v, ident)
        new_pending = pending[:-1] if pending else pending
    elif kind == "register":
        _, enc = inj
        fresh = tracer.fresh_adv_nonce()
        seg = tracer.call_sysproc(state, N_W, fresh, enc)
        if isinstance(seg.reply, ReturnOut):
            knowledge = knowledge.register(fresh, class_name_of_encoding(enc))
        new_pending = pending
    elif kind == "testobj":
        _, w, enc = inj
        seg = tracer.call_sysproc(state, 0, w, enc)
        new_pending = pending
    if isinstance(seg.reply, CallOut):
        sig = tracer.rm_by_syms.get(tuple(seg.reply.addr))
        new_pending = new_pending + ((sig.ret if sig else "Obj"),)
    knowledge = _learn_from_reply(knowledge, seg.reply, tracer)
    return seg, knowledge, new_pending


def enumerate_traces(
    image,
    depth: int = DEFAULT_DEPTH,
    domain: AdversaryDomain | None = None,
    seed: int = 0,
    segment_fuel: int = DEFAULT_SEGMENT_FUEL,
) -> set:
    """Breadth-first trace set over the adversary menu, canonicalized."""
    domain = domain or AdversaryDomain()
    tracer = ComponentTracer(image, seed, segment_fuel)
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


def random_trace(image, rng: random.Random, depth: int = DEFAULT_DEPTH, domain=None, seed: int = 0, segment_fuel: int = DEFAULT_SEGMENT_FUEL):
    """One random adversarial trace (raw, not canonicalized)."""
    domain = domain or AdversaryDomain()
    tracer = ComponentTracer(image, seed, segment_fuel)
    state, trace, knowledge, pending = tracer.initial(), (), tracer.initial_knowledge(), ()
    for _ in range(rng.randrange(1, depth + 1)):
        injs = _injections(tracer, knowledge, pending, domain)
        if not injs:
            break
        seg, knowledge, pending = _apply(tracer, state, rng.choice(injs), knowledge, pending)
        trace = trace + (seg.action, seg.reply)
        state = seg.state
        if state is None:
            break
    return canonicalize(trace, tracer.seed_masks)
