"""Core value domain of the aim machine: words, addresses, descriptors, nonce oracles."""
from __future__ import annotations

from dataclasses import dataclass
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


class Address(NamedTuple):
    mid: int
    off: int

    def __repr__(self):
        return f"({self.mid},{self.off})"


UNPROTECTED = 0
SYS_ID = 1

# Offsets of the entry points of sys, the trusted central module.
TESTOBJ_EP = 0
REGISTEROBJ_EP = N_W
FORWARDCALL_EP = 2 * N_W
FORWARDRETURN_EP = 3 * N_W


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
