"""Core value domain of the aim machine: words, addresses, descriptors, nonce oracles.

A word's text is its `str`: a decimal Nat, a `$name` symbol or a
`#stream:seq` nonce; `parse_word` reads each back. `.aimod` files and
rendered traces both write words so.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple, Union

# Spacing between consecutive entry points of a protected module.
N_W = 16

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Symbol:
    """A linking placeholder; erased by substitution when its requirement is fulfilled."""

    name: str

    def __repr__(self):
        return f"${self.name}"


@dataclass(frozen=True)
class Nonce:
    """An unguessable token. Nonces compare by identity of (stream, seq) and never by value."""

    stream: str
    seq: int

    def __repr__(self):
        return f"#{self.stream}:{self.seq}"


Word = Union[int, Symbol, Nonce]


def parse_word(s: str) -> Word:
    """The word whose text is `s`."""
    if s.startswith("$"):
        return Symbol(s[1:])
    if s.startswith("#"):
        stream, _, seq = s[1:].rpartition(":")
        return Nonce(stream, int(seq))
    return int(s)


class Address(NamedTuple):
    mid: int
    off: int

    def __repr__(self):
        return f"({self.mid},{self.off})"


# The Address of a (mid, off) pair: `Address._make` without its Python-level
# length check, for callers that build one key per word
address_of = partial(tuple.__new__, Address)


def addresses(mid: int, n: int, off: int = 0):
    """The keys Address(mid, off) ... Address(mid, off + n - 1), built in bulk."""
    return map(address_of, zip(repeat(mid), range(off, off + n)))


UNPROTECTED = 0
SYS_ID = 1

# Offsets of the entry points of sys, the trusted central module.
TESTOBJ_EP = 0
REGISTEROBJ_EP = N_W
FORWARDCALL_EP = 2 * N_W
FORWARDRETURN_EP = 3 * N_W

# The calling convention sys mediates: the register of each role at a boundary crossing
R_CALLER = 0  # the caller id: `jmp` stamps it with the id of the module that jumped
R_JUMP_OFF, R_JUMP_MID = 1, 2  # a boundary jump's target, `jmp R_JUMP_OFF, R_JUMP_MID`
R_CALLEE_MID, R_CALLEE_OFF = 3, 4  # forwardCall's target
R_RESUME = 5  # the resume designator
R_RECV = 6  # the receiver of a call, and the result of a return
MAX_PARAMS = 9
ARG_REGS = tuple(range(R_RECV + 1, R_RECV + 1 + MAX_PARAMS))  # argument i travels in ARG_REGS[i]
R_SYS_SCRATCH = ARG_REGS[-1] + 1  # sys's scratch, above every argument


@dataclass(frozen=True)
class Descriptor:
    """Protected-module layout: id, code-section length, number of entry points."""

    mid: int
    code_len: int
    n_entry: int

    def __post_init__(self):
        if self.mid < 1:
            raise ValueError("protected module ids start at 1")
        if self.n_entry * N_W >= self.code_len:
            raise ValueError("entry points must lie inside the code section")


class NonceOracle:
    """Deterministic stream of fresh nonces; identical seeds yield identical streams."""

    def __init__(self, seed: int = 0, stream: str | None = None):
        self.stream = stream if stream is not None else f"h{seed}"
        self.cursor = 0

    def fresh(self) -> Nonce:
        n = Nonce(self.stream, self.cursor)
        self.cursor += 1
        return n

    def clone(self) -> "NonceOracle":
        o = NonceOracle(stream=self.stream)
        o.cursor = self.cursor
        return o


def is_nat(w: Word) -> bool:
    return isinstance(w, int)
