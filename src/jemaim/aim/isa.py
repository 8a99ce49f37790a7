"""Instruction set: fixed-width encoding, one word per opcode and per operand.

Operand kinds: 'r' register index (a small Nat), 'f' flag index (0=ZF, 1=SF),
'w' immediate word (any word, including symbols pre-link).

The opcodes from 64 up are privileged scaffolding ops: they decode only when the
program counter lies inside a protected code range, so unprotected code can
never execute them (decode yields Undecodable there).
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

BY_OPCODE = {op: (name, kinds) for name, (op, kinds) in OPTABLE.items()}
PRIVILEGED = {name for name, (op, _) in OPTABLE.items() if op >= 64}

MAX_REG = 4096
ZF, SF = 0, 1  # flag indices: zero, sign
FLAGS = (ZF, SF)
MAX_FLAG = SF


@dataclass(frozen=True)
class Instr:
    name: str
    ops: tuple[Word, ...]

    @property
    def width(self) -> int:
        return 1 + len(self.ops)

    def __repr__(self):
        return " ".join([self.name] + [repr(o) for o in self.ops])


def ins(name: str, *ops: Word) -> Instr:
    opcode, kinds = OPTABLE[name]
    if len(ops) != len(kinds):
        raise ValueError(f"{name} takes {len(kinds)} operands, got {len(ops)}")
    return Instr(name, tuple(ops))


def encode(instr: Instr) -> list[Word]:
    opcode, _ = OPTABLE[instr.name]
    return [opcode] + list(instr.ops)


def decode(read, off: int, privileged_ok: bool) -> Instr | None:
    """Decode the instruction at offset `off` using `read(off) -> Word`.

    Returns None (Undecodable) when the opcode word is unknown, a privileged
    opcode appears outside protected code, or a register/flag operand is not a
    Nat in range.
    """
    w = read(off)
    if not isinstance(w, int) or w not in BY_OPCODE:
        return None
    name, kinds = BY_OPCODE[w]
    if name in PRIVILEGED and not privileged_ok:
        return None
    ops = []
    for i, kind in enumerate(kinds):
        v = read(off + 1 + i)
        if kind == "r":
            if not isinstance(v, int) or not (0 <= v < MAX_REG):
                return None
        elif kind == "f":
            if not isinstance(v, int) or not (0 <= v <= MAX_FLAG):
                return None
        ops.append(v)
    return Instr(name, tuple(ops))


class Assembler:
    """Tiny label-resolving assembler producing a word list from offset 0."""

    def __init__(self):
        self.items: list = []  # Instr | ("label", name)
        self._n = 0
        self._labels: set[str] = set()

    def emit(self, name: str, *ops) -> "Assembler":
        i = ins(name, *ops)
        self.items.append(i)
        self._n += i.width
        return self

    def raw(self, *words: Word) -> "Assembler":
        self.items.append(("raw", list(words)))
        self._n += len(words)
        return self

    def label(self, name: str) -> "Assembler":
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels.add(name)
        self.items.append(("label", name))
        return self

    def here(self) -> int:
        """Offset of the next emitted word."""
        return self._n

    def words(self) -> list[Word]:
        # first pass: resolve labels to absolute offsets
        labels: dict[str, int] = {}
        off = 0
        for it in self.items:
            if isinstance(it, tuple) and it[0] == "label":
                labels[it[1]] = off
            elif isinstance(it, tuple):
                off += len(it[1])
            else:
                off += it.width
        out: list[Word] = []
        for it in self.items:
            if isinstance(it, tuple) and it[0] == "label":
                continue
            raw = it[1] if isinstance(it, tuple) else encode(it)
            for w in raw:
                if isinstance(w, Label):
                    w = labels[w.name]
                out.append(w)
        return out


@dataclass(frozen=True)
class Label:
    """Forward reference to an assembler label, usable as a movi immediate."""

    name: str
