"""Trace actions: decorated calls and returns, termination ticks, serialization.

?-decorated actions are performed by the environment, !-decorated ones by the
component. Canonicalization renames nonces to N0, N1, ... — statically
exported object masks first (in table order, so two components with the same
interface canonicalize identically), then by first occurrence in the trace.
Linking symbols print as $name and are already stable across components.
A call action records registers as a call vector, r0 up: `vector` builds one,
`call_vector` the one a callee sees at its entry, and `reg` reads one.
`rename` canonicalizes one step at a time: a trace extended by some actions
renames only those, under the map its prefix left; what it gives depends on
that map only through the names of the actions' own `nonces`, and through
the map's size when one of them is unnamed.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..aim.words import FORWARDRETURN_EP, R_CALLER, R_RECV, R_RESUME, Nonce, Symbol, Word, parse_word


@dataclass(frozen=True)
class CallIn:
    """Call? — the environment enters the component."""

    addr: tuple
    regs: tuple

    decoration = "?"

    def render(self):
        return f"call? {_addr(self.addr)} [{','.join(map(str, self.regs))}]"


@dataclass(frozen=True)
class CallOut:
    """Callback! — the component calls a required method of the environment."""

    addr: tuple
    regs: tuple

    decoration = "!"

    def render(self):
        return f"call! {_addr(self.addr)} [{','.join(map(str, self.regs))}]"


@dataclass(frozen=True)
class ReturnIn:
    """Returnback? — the environment returns from a callback."""

    addr: tuple
    value: Word
    caller: Word

    decoration = "?"

    def render(self):
        return f"ret? {_addr(self.addr)} {self.value} id={self.caller}"


@dataclass(frozen=True)
class ReturnOut:
    """Return! — the component returns to the environment."""

    addr: tuple
    value: Word
    mid: Word

    decoration = "!"

    def render(self):
        return f"ret! {_addr(self.addr)} {self.value} id={self.mid}"


@dataclass(frozen=True)
class Tick:
    decoration = "!"

    def render(self):
        return "tick"


@dataclass(frozen=True)
class FuelExceeded:
    """Pseudo-action: the component did not answer within the segment budget."""

    decoration = "!"

    def render(self):
        return "segment-fuel-exceeded"


Action = object
Trace = tuple


def vector(regs: dict) -> tuple:
    """Registers by number as a call vector: r0 up to the highest of `regs`,
    and at least to the receiver."""
    return tuple(regs.get(i, 0) for i in range(max((R_RECV, *regs)) + 1))


def call_vector(caller, recv, args) -> tuple:
    """The call vector a callee sees at its entry: the caller id, sys's
    forwardReturn as the resume designator, the receiver and the arguments."""
    v = [0] * R_RECV + [recv, *args]  # the argument registers, ARG_REGS, follow the receiver
    v[R_CALLER], v[R_RESUME] = caller, FORWARDRETURN_EP
    return tuple(v)


def reg(regs: tuple, i: int) -> Word:
    """Register `i` of a call vector: 0 when the vector stops short of it, as
    the machine reads an unwritten register."""
    return regs[i] if i < len(regs) else 0


def is_input(a: Action) -> bool:
    return a.decoration == "?"


def _addr(addr) -> str:
    a, b = addr
    return f"({a},{b})"


def rename(actions, names: dict, seed_masks=()) -> tuple[Trace, dict]:
    """Canonical renaming of `actions` that follow a prefix renamed by `names`
    (nonce -> "N<k>"): the words of `seed_masks` are named first, then each
    new nonce by first occurrence. Returns the renamed actions and the map
    that covers them. The map is `names` itself when nothing new is named,
    else a copy, so that every extension of a prefix can share its map."""
    new = names

    def word(w):
        nonlocal new
        if isinstance(w, Nonce):
            k = new.get(w)
            if k is None:
                if new is names:
                    new = dict(names)
                k = new[w] = f"N{len(new)}"
            return k
        if isinstance(w, Symbol):
            return str(w)
        return w

    for n in seed_masks:
        word(n)
    out = []
    for a in actions:
        if isinstance(a, CallIn):
            a = CallIn(tuple(word(x) for x in a.addr), tuple(word(w) for w in a.regs))
        elif isinstance(a, CallOut):
            a = CallOut(tuple(word(x) for x in a.addr), tuple(word(w) for w in a.regs))
        elif isinstance(a, ReturnIn):
            a = ReturnIn(tuple(word(x) for x in a.addr), word(a.value), word(a.caller))
        elif isinstance(a, ReturnOut):
            a = ReturnOut(tuple(word(x) for x in a.addr), word(a.value), word(a.mid))
        out.append(a)
    return tuple(out), new


def canonicalize(trace, seed_masks=()) -> Trace:
    """Rename nonces to N<k> strings in order: `seed_masks` first, then by
    first occurrence in the trace."""
    return rename(trace, {}, seed_masks)[0]


def render_trace(trace) -> str:
    return "\n".join(a.render() for a in trace) + "\n"


def parse_trace(text: str) -> Trace:
    """Parse rendered actions, one a line; a ValueError names the failing line as `n: `."""
    out = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(_parse_action(line))
        except ValueError as e:
            raise ValueError(f"{n}: {e}") from e
    return tuple(out)


def _parse_action(line: str):
    kind, _, rest = line.partition(" ")
    if kind == "tick":
        return Tick()
    if kind == "segment-fuel-exceeded":
        return FuelExceeded()
    addr_s, _, rest = rest.partition(" ")
    addr = tuple(_parse_word(x) for x in addr_s.strip("()").split(","))
    if kind in ("call?", "call!"):
        regs = tuple(_parse_word(x) for x in rest.strip("[]").split(",") if x)
        return (CallIn if kind == "call?" else CallOut)(addr, regs)
    if kind in ("ret?", "ret!"):
        value_s, _, id_s = rest.partition(" id=")
        value, ident = _parse_word(value_s.strip()), _parse_word(id_s.strip())
        if kind == "ret?":
            return ReturnIn(addr, value, ident)
        return ReturnOut(addr, value, ident)
    raise ValueError(f"unparseable action line: {line!r}")


def _parse_word(s: str):
    """A rendered word; the canonical `N<k>` and `$name` strings stay strings."""
    return s if s.startswith(("$", "N")) else parse_word(s)
