"""Instruction set: fixed-width encoding, one word per opcode and per operand.

Operand kinds: 'r' register index (a small Nat), 'f' flag index (0=ZF, 1=SF),
'w' immediate word (any word, including symbols pre-link).

The opcodes from 64 up are privileged scaffolding ops: they decode only when the
program counter lies inside a protected code range, so unprotected code can
never execute them (decode yields Undecodable there).

`Assembler` is the one encoder: the compiler, sys and `run_aim`'s bootstrap
emit every instruction through it, and `decode` reads them back.
"""
from __future__ import annotations

from dataclasses import dataclass

from .words import Word

# name -> (opcode, operand kinds)
OPTABLE = {
    "movl": (1, "rrr"),
    "movs": (2, "rrr"),
    "movi": (3, "rw"),
    "add": (4, "rr"),
    "sub": (5, "rr"),
    "cmp": (6, "rr"),
    "jmp": (7, "rr"),
    "je": (8, "rf"),
    "zero": (9, ""),
    "new": (10, "r"),
    "halt": (11, ""),
    # privileged
    "tbl_get": (64, "rr"),
    "tbl_add": (65, "r"),
    "stk_push": (66, "rrr"),
    "stk_pop": (67, "rrr"),
    "gst_test": (68, "rrr"),
    "gst_add": (69, "rr"),
    "tychk": (70, "rr"),
}

MAX_REG = 4096
ZF, SF = 0, 1  # flag indices: zero, sign
FLAGS = (ZF, SF)
MAX_FLAG = SF

# opcode -> (name, the exclusive bound of each operand, 0 for a word, whether privileged)
_BOUND = {"r": MAX_REG, "f": MAX_FLAG + 1, "w": 0}
_DECODING = {op: (name, tuple(_BOUND[k] for k in kinds), op >= 64) for name, (op, kinds) in OPTABLE.items()}


def opcode_of(name: str, ops: tuple) -> int:
    """The opcode of `name`, checked to take as many operands as `ops` holds."""
    opcode, kinds = OPTABLE[name]
    if len(ops) != len(kinds):
        raise ValueError(f"{name} takes {len(kinds)} operands, got {len(ops)}")
    return opcode


def decode(mem, code, mid: int, off: int, privileged_ok: bool) -> tuple[str, tuple[Word, ...]] | None:
    """Decode the instruction at (mid, off): its name and operands.

    A word is read as `MachineState.load` reads it: from module `mid`'s tuple
    in `code` when it lies inside it, else from `mem`, else 0. Returns None
    (Undecodable) when the opcode word is unknown, a privileged opcode
    appears outside protected code, or a register/flag operand is not a Nat
    in range.
    """
    c = code.get(mid, ())
    n = len(c)
    d = _DECODING.get(c[off] if 0 <= off < n else mem.get((mid, off), 0))
    if d is None or (d[2] and not privileged_ok):
        return None
    name, bounds, _ = d
    ops = []
    for bound in bounds:
        off += 1
        v = c[off] if 0 <= off < n else mem.get((mid, off), 0)
        if bound and not (isinstance(v, int) and 0 <= v < bound):
            return None
        ops.append(v)
    return name, tuple(ops)


class Assembler:
    """Tiny label-resolving assembler producing a word list from offset 0.

    `emit` checks an instruction's arity (`opcode_of`) and appends its
    opcode and operands straight to one word list; `label` records the
    length of that list, so `here()` is the offset of the next word.
    `words()` is one pass that swaps each `Label` word for its label's
    offset. An unknown opcode raises KeyError at `emit`,
    a wrong operand count or a duplicate label ValueError, and an undefined
    label KeyError at `words()`.
    """

    def __init__(self):
        self._words: list[Word] = []
        self._labels: dict[str, int] = {}

    def emit(self, name: str, *ops) -> "Assembler":
        self._words.append(opcode_of(name, ops))
        self._words += ops
        return self

    def raw(self, *words: Word) -> "Assembler":
        self._words += words
        return self

    def label(self, name: str) -> "Assembler":
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._words)
        return self

    def here(self) -> int:
        """Offset of the next emitted word."""
        return len(self._words)

    def words(self) -> list[Word]:
        labels = self._labels
        return [labels[w.name] if w.__class__ is Label else w for w in self._words]


@dataclass(frozen=True)
class Label:
    """Forward reference to an assembler label, usable as a movi immediate."""

    name: str
