"""Labelled-transition view of compiled components.

A tracer drives a compiled (possibly unlinked) component against a synthesized
environment living in unprotected memory. The environment acts by injecting
?-actions — entering sys's forwardCall with a method target, probing
testObj/registerObj, jumping to forwardReturn, or poking an entry point
directly — and the component then runs deterministically to its next
observable: an exit through one of sys's boundary jumps (Callback!/Return!),
a termination tick, or the segment fuel pseudo-action. Enumeration never
pokes: entry points admit only jumps that sys forwards, so a poke only ticks.

Every injection starts on the one path through `ComponentTracer._enter`: clone
the state, clear registers and flags, load the injected registers, set pc and
run.
The booted state's code sections are the image's tuples, which all its
clones share (aim/machine.py), so a clone copies only data and unprotected
words. The run looks at pc only when it is in `STOPS`, one set for every
tracer, fixed at import from sys's one assembly: sys's four boundary jumps and
forwardReturn. It decodes nothing of its own: a boundary jump's role and
operand registers are read from sys's table of them (`SYS_EXIT_MARKS`).
Registers are named by their roles in the calling convention (aim/words.py),
and call vectors are built and read by traces/actions.py. The id a Return!
names is read off R_CALLER whenever pc reaches forwardReturn: the machine's
`jmp` stamps it with the id of the module that jumped there, and a returnback
injection sets it to the id it claims. A call is `forwarded`, and recorded as
a call to the entry point it names, once the run reaches forwardCall's
boundary jump with a protected target: sys jumps there to exactly the
R_CALLEE_MID/R_CALLEE_OFF pair that the call loaded, and no component code
runs before it.

Call prefixes. Every call into one entry point from one state runs sys's
forwardCall, the entry trampoline and the entry's R_CALLER and R_RESUME
checks before it reads its receiver or an argument, so that part, the call
prefix (`CallPrefix`), runs once for all of them: an `_enter` with only
forwardCall's target and R_RESUME set, paused before the first instruction
that is `zero` or names a register of `CALL_REGS` (`_pauses`), and before a
boundary exit, whose reply reads them. Each call then loads those registers
into a copy of the paused state (the last call takes the state itself) and
runs on with the fuel left and `forwarded` and the returner carried over.
This is sound as a rule reads and writes only the registers its instruction
names, but that `jmp` writes R_CALLER, `gst_add` reads it, `zero` clears
every register and an abort clears every register and ends the run
(aim/machine.py). So up to the pause a run with `CALL_REGS` loaded takes the
same steps and leaves them as loaded, and a prefix that ends before it pauses
ends every call alike. `Graph._expand`
gives the calls of one entry point in its menu one prefix; a call made
alone, as `random_trace` makes them, has a prefix of its own.

Traces are the label paths of a state graph (`Graph`), as explicit-state
model checkers hash the states they visit (Holzmann, "The Model Checker SPIN",
1997). A node is the key (state id, knowledge, pending, names id), and its
moves, computed once in menu order, are (pair id, next node or None). The
suffixes a search could add after a trace depend on that key alone, so the
graph is expanded per key, not per trace. `Graph.step` determinises the moves
of a tuple of nodes, and every walk reads them: `Graph.traces` walks them
from the root to `depth` (`enumerate_traces`), and `trace_equiv` walks them
on the product of two graphs (traces/equiv.py).

- State ids. Each fingerprint of a suspended state is interned to a small int
  when the state is first seen. A move is a function of its state id,
  knowledge and pending: `_enter` clears registers and flags and sets pc, so
  a run depends only on what `MachineState.fingerprint` holds and on the
  injected registers, which the injection fixes. Knowledge and pending return
  types choose the menu (`_injections`, run once per distinct pair) and, with
  the segment, fix what `_learn` gives. A move that draws carries what it
  draws: a registration's injection holds its nonce, the first that no
  registration on the path drew. One state may sit under several nodes, which
  is safe as an injection never mutates the state it starts from.
- The entry memo maps (state id, knowledge, pending) to those moves' raw
  segments, each with the id of its next state and what the environment
  knows and owes after it.
- Names ids. A trace is renamed canonically along its path (`actions.rename`),
  and the map its renaming used is the names id of its node. Each edge of the
  graph renames its raw (action, reply) once, under its node's map, which
  `rename` gives back as it is when it names nothing new, else copied with
  the fresh names appended. A child's map is interned by (parent names id,
  fresh names), so no map is hashed, and a child that names nothing new keeps
  its parent's id.

Labels are interned in a `TraceTable` that the two graphs of one
`trace_equiv` share: a renamed pair gets its pair id when an edge first
renames it, so equal labels get equal ids on both sides.

Ids and caches are assigned in traversal order, so a walk does not depend on
hash order, and nor do the ids it adds to its table.

A run that reaches a spin, the compiled form of a proven loop, ends there with
`FuelExceeded` and `forwarded` as stepping to the end of the segment fuel
would give them: a spin never leaves itself (aim/machine.py), and its pcs are
not in `STOPS`, as sys has none.

`ComponentTracer.random_trace` draws traces by the same moves, each from the
one state the tracer boots on its first use (`booted`).
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

from ..aim.isa import OPTABLE
from ..aim.words import FORWARDCALL_EP, FORWARDRETURN_EP, REGISTEROBJ_EP, SYS_ID, TESTOBJ_EP, Address, Nonce, Symbol
from ..aim.words import ARG_REGS, R_CALLEE_MID, R_CALLEE_OFF, R_CALLER, R_RECV, R_RESUME
from ..compiler.pipeline import boot_state
from ..compiler.sysmod import SYS_EXIT_MARKS
from ..compiler.encoding import V_FALSE, V_NULL, V_TRUE, V_UNIT, class_name_of_encoding, encode_class
from .actions import CallIn, CallOut, FuelExceeded, ReturnIn, ReturnOut, Tick, call_vector, canonicalize, reg, rename, vector

RESUME_PAD = 40
DEFAULT_DEPTH = 4
DEFAULT_SEGMENT_FUEL = 100_000
# what a call injection loads: the receiver and the arguments
CALL_REGS = frozenset((R_RECV, *ARG_REGS))
# opcode name -> how many of its first operands hold every register it names
REG_SPAN = {name: kinds.rfind("r") + 1 for name, (_, kinds) in OPTABLE.items()}
# the pcs at which a run looks at the state before stepping: sys's four
# boundary jumps and forwardReturn, fixed by sys's one assembly
STOPS = frozenset([Address(SYS_ID, off) for off in SYS_EXIT_MARKS] + [Address(SYS_ID, FORWARDRETURN_EP)])


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
        self.method_eps = {addr: sig for sig, addr in image.table.methods().items()}
        self.rm_by_syms = {(iota, sigma): sig for sig, iota, sigma in image.table.rm}
        self.seed_masks = [mask for _, mask in image.table.exports()]

    def initial(self):
        """A freshly booted state, sharing the image's code tuples."""
        return boot_state(self.image, self.seed)

    @cached_property
    def booted(self):
        """The state enumeration and every random trace start from, booted once
        per tracer and never mutated."""
        return self.initial()

    def random_trace(self, rng: random.Random, depth: int = DEFAULT_DEPTH, domain=None):
        """One random adversarial trace of 1 to `depth` moves, canonicalized."""
        domain = domain or AdversaryDomain()
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
        return Knowledge(typed=tuple((mask, k.cls) for k, mask in self.image.table.exports()))

    # -- injections -----------------------------------------------------------

    def call_method(self, state, ep: Address, recv, args, prefix: CallPrefix | None = None) -> Segment:
        """Call `ep` on `recv` with `args` from `state`: `prefix`, a prefix of
        `state` and `ep` (a new one when None), run on from its pause with
        the receiver and the arguments loaded."""
        prefix = prefix or CallPrefix()
        regs = {R_CALLEE_MID: ep.mid, R_CALLEE_OFF: ep.off, R_RESUME: RESUME_PAD}
        loaded = {R_RECV: recv, **dict(zip(ARG_REGS, args))}
        if prefix.run is None:
            prefix.run = self._enter(state, Address(SYS_ID, FORWARDCALL_EP), regs, pause=True)
        forwarded, reply, nxt = prefix.run
        prefix.calls -= 1
        if reply is None:
            st, fuel, returner = nxt
            st = st.clone() if prefix.calls else st
            for i, w in loaded.items():
                st.set_reg(i, w)
            forwarded, reply, nxt = self._run(st, fuel, forwarded, returner)
        if forwarded:
            action = CallIn((ep.mid, ep.off), call_vector(SYS_ID, recv, args))
        else:
            action = CallIn((SYS_ID, FORWARDCALL_EP), vector({**regs, **loaded}))
        return Segment(action, reply, nxt)

    def call_sysproc(self, state, off: int, w, w2) -> Segment:
        regs = {R_RESUME: RESUME_PAD, ARG_REGS[0]: w, ARG_REGS[1]: w2}
        _, reply, nxt = self._enter(state, Address(SYS_ID, off), regs)
        return Segment(CallIn((SYS_ID, off), vector(regs)), reply, nxt)

    def returnback(self, state, value, ident) -> Segment:
        _, reply, nxt = self._enter(state, Address(SYS_ID, FORWARDRETURN_EP), {R_CALLER: ident, R_RECV: value})
        return Segment(ReturnIn((SYS_ID, FORWARDRETURN_EP), value, ident), reply, nxt)

    def poke(self, state, addr: Address, regs: dict) -> Segment:
        regs = {R_RESUME: RESUME_PAD, **regs}
        _, reply, nxt = self._enter(state, addr, regs)
        return Segment(CallIn((addr.mid, addr.off), vector(regs)), reply, nxt)

    # -- the deterministic component run ---------------------------------------

    def _enter(self, state, pc: Address, regs: dict, pause=False):
        """Run a clone of `state` from `pc` with only `regs` set, as `_run` runs it."""
        st = state.clone()
        st.regs = {}
        st.reset_flags()
        for i, w in regs.items():
            st.set_reg(i, w)
        st.pc = pc
        return self._run(st, self.segment_fuel, pause=pause)

    def _run(self, st, fuel: int, forwarded=False, returner=None, pause=False):
        """Step `st` for at most `fuel` steps to its next observable:
        (forwarded, reply, next state). With `pause` it stops where
        `_pauses` says and before a boundary exit; the reply is then None and
        the next state (st, fuel left, returner), which a run without `pause`
        takes on."""
        marks, stops, step = SYS_EXIT_MARKS, STOPS, st.step
        for n in range(fuel):
            pc = st.pc
            if pc in stops:
                if pc.off == FORWARDRETURN_EP:
                    returner = st.reg(R_CALLER)
                else:
                    kind, rd, ri = marks[pc.off]
                    t_off, t_mid = st.reg(rd), st.reg(ri)
                    if t_mid == 0 or isinstance(t_mid, Symbol) or isinstance(t_off, Symbol):
                        if pause:
                            return forwarded, None, (st, fuel - n, returner)
                        if kind == "fwcall":
                            sig = self.rm_by_syms.get((t_mid, t_off))
                            args = [st.reg(r) for r in ARG_REGS[: len(sig.params) if sig else 0]]
                            return forwarded, CallOut((t_mid, t_off), call_vector(0, st.reg(R_RECV), args)), st
                        ident = returner if kind == "fwret" else SYS_ID
                        return forwarded, ReturnOut((t_mid, t_off), st.reg(R_RECV), ident), st
                    # forwardCall jumps into a protected module: sys forwarded the call
                    forwarded = forwarded or kind == "fwcall"
            if pause and _pauses(st):
                return forwarded, None, (st, fuel - n, returner)
            status, _reason = step()
            if status != "ok":
                if status == "spin":
                    break  # the rest of the fuel would be spent in the spin
                return forwarded, Tick(), None
        return forwarded, FuelExceeded(), None


def _pauses(st) -> bool:
    """Whether a call prefix pauses before the instruction at pc: it is
    `zero` or names a register of `CALL_REGS`. An undecodable one ends
    every run alike."""
    e = st._icache.get(st.pc) or st._decode()
    return e is not None and (e[1] == "zero" or not CALL_REGS.isdisjoint(e[4 : 4 + REG_SPAN[e[1]]]))


class CallPrefix:
    """The run that the next `calls` calls into one entry point from one
    state share, up to its pause: run by the first of them, taken by the
    last, copied by the others."""

    __slots__ = ("calls", "run")

    def __init__(self, calls: int = 1):
        self.calls, self.run = calls, None


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


@dataclass(frozen=True)
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
    # a registration draws the first nonce that no registration on this path drew
    fresh = Nonce("adv", len(knowledge.registered) + 1)
    for cname in domain.register_classes:
        out.append(("register", fresh, encode_class(cname)))
    for w in knowledge.of_type("Obj")[:2] + [V_NULL]:
        for cname in domain.register_classes[:1]:
            out.append(("testobj", w, encode_class(cname)))
    return out


def _segment(tracer, state, inj, prefixes=None) -> Segment:
    """Run one ?-move from `state`, a call from its entry point's prefix in
    `prefixes` if given. The segment is a function of the state's
    fingerprint and `inj`."""
    kind = inj[0]
    if kind == "call":
        _, addr, recv, args = inj
        return tracer.call_method(state, addr, recv, args, prefixes and prefixes[addr])
    if kind == "returnback":
        _, v, ident = inj
        return tracer.returnback(state, v, ident)
    _, w, enc = inj
    return tracer.call_sysproc(state, REGISTEROBJ_EP if kind == "register" else TESTOBJ_EP, w, enc)


def _learn(tracer, inj, seg: Segment, knowledge: Knowledge, pending: tuple):
    """What the environment knows and still owes after `inj` gave `seg`: a
    returnback pays the last pending return, a registration that returned
    adds its nonce, and a Callback! pushes its return type on `pending` and
    teaches the types of the words it passes."""
    if inj[0] == "returnback":
        pending = pending[:-1]
    elif inj[0] == "register" and isinstance(seg.reply, ReturnOut):
        knowledge = knowledge.register(inj[1], class_name_of_encoding(inj[2]))
    if isinstance(seg.reply, CallOut):
        sig = tracer.rm_by_syms.get(tuple(seg.reply.addr))
        pending += (sig.ret if sig else "Obj",)
        if sig is not None:
            for r, t in zip((R_RECV, *ARG_REGS), (sig.recv, *sig.params)):
                knowledge = knowledge.learn(reg(seg.reply.regs, r), t)
    return knowledge, pending


def _apply(tracer, state, inj, knowledge: Knowledge, pending: tuple):
    """Perform one ?-move: the segment, and what the environment then knows and owes."""
    seg = _segment(tracer, state, inj)
    return (seg, *_learn(tracer, inj, seg, knowledge, pending))


class TraceTable:
    """Labels, the pairs of renamed actions, interned to ints. Ids are dense
    and assigned in order of first use."""

    def __init__(self):
        self.pair_ids = {}  # renamed (action, reply) -> pair id
        self.pairs = []  # pair id -> renamed (action, reply)

    def pair_id(self, actions: tuple) -> int:
        """The id of the renamed pair `actions`."""
        return _number(self.pair_ids, actions, self.pairs, actions)


def _number(ids: dict, key, items: list, item) -> int:
    """The number of `key` in `ids`; a new key gets the next number, and
    `item` is appended to `items` as its value."""
    n = ids.setdefault(key, len(items))
    if n == len(items):
        items.append(item)
    return n


class Graph:
    """One image's state graph under `domain`, built as it is walked. A node
    is the key (state id, knowledge, pending, names id); states, names maps
    and nodes are numbered by first reach, the root being node 0. A node's
    moves are computed once, on first demand."""

    ROOT = 0

    def __init__(self, image, domain: AdversaryDomain | None, seed: int, table: TraceTable):
        self.tracer = tracer = ComponentTracer(image, seed)
        self.domain, self.table = domain or AdversaryDomain(), table
        self.sids, self.states = {}, []  # fingerprint -> state id -> a state with that fingerprint
        self.menus, self.entries = {}, {}  # (knowledge, pending) -> menu; (state id, knowledge, pending) -> entries
        self.names_ids, self.names = {}, [rename((), {}, tracer.seed_masks)[1]]  # (names id, fresh names) -> names id -> map
        self.nodes, self.keys, self.edges = {}, [], {}  # key -> node -> key; node -> moves
        self.succ = {}  # sorted tuple of nodes -> its determinised moves
        root = (self._sid(tracer.booted), tracer.initial_knowledge(), (), 0)
        _number(self.nodes, root, self.keys, root)

    def _sid(self, state):
        return None if state is None else _number(self.sids, state.fingerprint(), self.states, state)

    def _expand(self, sid, knowledge, pending) -> list:
        """The state's moves under the menu of (knowledge, pending): each
        segment, with the id of its next state and what the environment
        knows and owes after it. The calls of one entry point share a prefix."""
        entries = self.entries.get((sid, knowledge, pending))
        if entries is None:
            menu = self.menus.get((knowledge, pending))
            if menu is None:
                menu = self.menus[knowledge, pending] = _injections(self.tracer, knowledge, pending, self.domain)
            state, entries = self.states[sid], []
            calls = Counter(inj[1] for inj in menu if inj[0] == "call")
            prefixes = {ep: CallPrefix(n) for ep, n in calls.items()}
            for inj in menu:
                seg = _segment(self.tracer, state, inj, prefixes)
                entries.append((seg, self._sid(seg.state), *_learn(self.tracer, inj, seg, knowledge, pending)))
            self.entries[sid, knowledge, pending] = entries
        return entries

    def moves(self, n: int) -> list:
        """Node `n`'s moves in menu order: (pair id, next node or None)."""
        out = self.edges.get(n)
        if out is None:
            sid, knowledge, pending, nid = self.keys[n]
            names, out = self.names[nid], []
            for seg, sid2, k2, p2 in self._expand(sid, knowledge, pending):
                actions, names2 = rename((seg.action, seg.reply), names)
                pid = self.table.pair_id(actions)
                if sid2 is None:
                    out.append((pid, None))
                    continue
                nid2 = nid
                if names2 is not names:  # a copy with the fresh names appended
                    fresh = tuple(itertools.islice(names2.items(), len(names), None))
                    nid2 = _number(self.names_ids, (nid, fresh), self.names, names2)
                key = (sid2, k2, p2, nid2)
                out.append((pid, _number(self.nodes, key, self.keys, key)))
            self.edges[n] = out
        return out

    def step(self, nodes: tuple) -> dict:
        """The determinised moves of a sorted tuple of nodes: each pair id
        one of them offers, in order of first offer, with the sorted tuple of
        the nodes it leads to, empty when the trace ends there."""
        out = self.succ.get(nodes)
        if out is None:
            targets = {}
            for n in nodes:
                for pid, n2 in self.moves(n):
                    reached = targets.setdefault(pid, set())
                    if n2 is not None:
                        reached.add(n2)
            out = self.succ[nodes] = {pid: tuple(sorted(reached)) for pid, reached in targets.items()}
        return out

    def traces(self, depth: int) -> set:
        """The traces of at most `depth` moves, as tuples of renamed actions,
        by one walk of the determinised moves from the root. A trace reaches
        one tuple of nodes, so each is reached once."""
        pairs = self.table.pairs
        out, level = {()}, [((self.ROOT,), ())]
        for _ in range(depth):
            nxt = []
            for nodes, trace in level:
                for pid, reached in self.step(nodes).items():
                    t2 = trace + pairs[pid]
                    out.add(t2)
                    if reached:
                        nxt.append((reached, t2))
            level = nxt
        return out


def enumerate_traces(image, depth: int = DEFAULT_DEPTH, domain: AdversaryDomain | None = None, seed: int = 0) -> set:
    """The canonical traces of at most `depth` moves, as tuples."""
    return Graph(image, domain, seed, TraceTable()).traces(depth)
