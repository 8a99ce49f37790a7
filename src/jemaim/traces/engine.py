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
The booted state keeps its protected code in a map that all its clones share
(`MachineState.share_code`), so a clone copies only data and unprotected
words. The run looks at pc only when it is in the tracer's stop set: sys's
four boundary jumps, forwardReturn and the method entry points. It decodes an
instruction of its own only at a boundary jump. The id a Return! names is read
off r0 whenever pc reaches forwardReturn: the machine's `jmp` stamps r0 with
the id of the module that jumped there, and a returnback injection sets r0 to
the id it claims.

Enumeration canonicalizes along the search path: each frontier entry carries
its canonical trace and the nonce renaming that trace used, and an extension
renames only its two new actions (`actions.rename`).

Enumeration runs each distinct segment once, as explicit-state model checkers
hash the states they visit (Holzmann, "The Model Checker SPIN", 1997). A memo
that lives for one enumeration maps (fingerprint of the suspended state,
injection) to the raw segment: action, reply and next state. The key is sound
because `_enter` clears registers and flags and sets pc, so a run depends only
on what `MachineState.fingerprint` holds and on the injected registers, which
the injection fixes; what the environment knows and owes only chooses the
menu, and is updated per path (`_learn`), hits included. A next state may so
sit in several frontier entries, which is safe as an injection never mutates
the state it starts from. A `register` move is never memoised: it draws a fresh
adversary nonce, so two runs from one key differ. The states after it carry
that nonce in G or memory, so their own keys stay sound.

A run that reaches a spin, the compiled form of a proven loop, ends there with
`FuelExceeded` and `forwarded` as stepping to the end of the segment fuel
would give them: a spin never leaves itself (aim/machine.py), and its pcs are
in no stop set, as the compiler emits spins only in method bodies, past every
entry point, and sys has none.

`ComponentTracer.random_trace` draws traces by the same moves, each from the
one state the tracer boots on its first use (`booted`).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import cached_property

from ..aim.words import FORWARDCALL_EP, FORWARDRETURN_EP, REGISTEROBJ_EP, SYS_ID, TESTOBJ_EP, Address, Nonce, Symbol
from ..compiler.pipeline import boot_state
from ..compiler.sysmod import SYS_EXIT_MARKS
from ..compiler.encoding import V_FALSE, V_NULL, V_TRUE, V_UNIT, class_name_of_encoding, encode_class
from .actions import CallIn, CallOut, FuelExceeded, ReturnIn, ReturnOut, Tick, canonicalize, rename

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
        self.marks = SYS_EXIT_MARKS
        self.method_eps = {addr: sig for sig, addr in image.table.em.items() if addr.mid != SYS_ID}
        # the pcs at which _run looks at the state before stepping
        self.stops = frozenset(
            [Address(SYS_ID, off) for off in self.marks] + [Address(SYS_ID, FORWARDRETURN_EP), *self.method_eps]
        )
        self.rm_by_syms = {(iota, sigma): sig for sig, iota, sigma in image.table.rm}
        # canonical seeding: exported masks in deterministic table order
        self.seed_masks = [image.table.eo[k] for k in sorted(image.table.eo)]
        self._adv = 0

    def fresh_adv_nonce(self) -> Nonce:
        self._adv += 1
        return Nonce("adv", self._adv)

    def initial(self):
        """A freshly booted state, its protected code split off for its clones to share."""
        st = boot_state(self.image, self.seed)
        st.share_code()
        return st

    @cached_property
    def booted(self):
        """The state enumeration and every random trace start from, booted once
        per tracer and never mutated."""
        return self.initial()

    def random_trace(self, rng: random.Random, depth: int = DEFAULT_DEPTH, domain=None):
        """One random adversarial trace of 1 to `depth` moves, canonicalized. The
        adversary's nonces are counted afresh for each trace."""
        domain = domain or AdversaryDomain()
        self._adv = 0
        state, trace, knowledge, pending = self.booted, (), self.initial_knowledge(), ()
        for _ in range(rng.randrange(1, depth + 1)):
            injs = _injections(self, knowledge, pending, domain)
            seg, knowledge, pending = _apply(self, state, rng.choice(injs), knowledge, pending)
            trace = trace + (seg.action, seg.reply)
            state = seg.state
            if state is None:
                break
        return canonicalize(trace, self.seed_masks)

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
        st.reset_flags()
        for i, w in regs.items():
            st.set_reg(i, w)
        st.pc = pc
        return self._run(st, watch_forward)

    def _run(self, st, watch_forward):
        forwarded = False
        returner = None
        marks, stops, step = self.marks, self.stops, st.step
        for _ in range(self.segment_fuel):
            pc = st.pc
            if pc in stops:
                if pc.mid != SYS_ID:
                    forwarded = forwarded or pc == watch_forward
                elif pc.off == FORWARDRETURN_EP:
                    returner = st.reg(0)
                else:
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
            status, _reason = step()
            if status != "ok":
                if status == "spin":
                    break  # the rest of the fuel would be spent in the spin
                return forwarded, Tick(), None
        # fuel ran out, perhaps on the very step that reached the watched entry
        return forwarded or st.pc == watch_forward, FuelExceeded(), None


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


def _segment(tracer, state, inj) -> Segment:
    """Run one ?-move from `state`. The segment is a function of the state's
    fingerprint and `inj`, but for `register`, which draws a fresh nonce."""
    kind = inj[0]
    if kind == "call":
        _, addr, recv, args = inj
        return tracer.call_method(state, addr, recv, args)
    if kind == "returnback":
        _, v, ident = inj
        return tracer.returnback(state, v, ident)
    if kind == "register":
        return tracer.call_sysproc(state, REGISTEROBJ_EP, tracer.fresh_adv_nonce(), inj[1])
    _, w, enc = inj
    return tracer.call_sysproc(state, TESTOBJ_EP, w, enc)


def _learn(tracer, inj, seg: Segment, knowledge: Knowledge, pending: tuple):
    """What the environment knows and still owes after `inj` gave `seg`: a
    returnback pays the last pending return, a registration that returned
    adds its nonce, and a Callback! pushes its return type on `pending` and
    teaches the types of the words it passes."""
    if inj[0] == "returnback":
        pending = pending[:-1]
    elif inj[0] == "register" and isinstance(seg.reply, ReturnOut):
        # the fresh nonce is the registered word, r7 of the call?
        knowledge = knowledge.register(seg.action.regs[7], class_name_of_encoding(inj[1]))
    if isinstance(seg.reply, CallOut):
        sig = tracer.rm_by_syms.get(tuple(seg.reply.addr))
        pending += (sig.ret if sig else "Obj",)
        if sig is not None:
            for w, t in zip(seg.reply.regs[6:], (sig.recv, *sig.params)):
                knowledge = knowledge.learn(w, t)
    return knowledge, pending


def _apply(tracer, state, inj, knowledge: Knowledge, pending: tuple):
    """Perform one ?-move: the segment, and what the environment then knows and owes."""
    seg = _segment(tracer, state, inj)
    return (seg, *_learn(tracer, inj, seg, knowledge, pending))


def enumerate_traces(image, depth: int = DEFAULT_DEPTH, domain: AdversaryDomain | None = None, seed: int = 0) -> set:
    """Breadth-first trace set over the adversary menu, canonicalized; each
    distinct segment runs once."""
    domain = domain or AdversaryDomain()
    tracer = ComponentTracer(image, seed)
    results = {()}
    seeded = rename((), {}, tracer.seed_masks)[1]
    # (fingerprint, injection) -> (segment, fingerprint of its next state)
    memo = {}
    boot = tracer.booted
    frontier = [(boot, boot.fingerprint(), (), seeded, tracer.initial_knowledge(), ())]
    for _ in range(depth):
        nxt = []
        for state, fp, trace, names, knowledge, pending in frontier:
            for inj in _injections(tracer, knowledge, pending, domain):
                ran = memo.get((fp, inj))
                if ran is None:
                    seg = _segment(tracer, state, inj)
                    ran = seg, None if seg.state is None else seg.state.fingerprint()
                    if inj[0] != "register":
                        memo[fp, inj] = ran
                seg, fp2 = ran
                k2, p2 = _learn(tracer, inj, seg, knowledge, pending)
                actions, n2 = rename((seg.action, seg.reply), names)
                t2 = trace + actions
                results.add(t2)
                if seg.state is not None:
                    nxt.append((seg.state, fp2, t2, n2, k2, p2))
        frontier = nxt
    return results
