"""Value and type encodings shared by the compiler and the machine's typecheck op.

Values: null=0, unit=1, true=2, false=3, integers encode as themselves.
Type encodings live in a disjoint space: primitives at 10..13, class types at
100 + the base-256 value of the class name (name-canonical, so separately
compiled modules agree without a shared enumeration).
"""
from __future__ import annotations

V_NULL = 0
V_UNIT = 1
V_TRUE = 2
V_FALSE = 3

ENC_UNIT = 10
ENC_BOOL = 11
ENC_INT = 12
ENC_OBJ = 13

CLASS_ENC_BASE = 100


def encode_class(name: str) -> int:
    return CLASS_ENC_BASE + int.from_bytes(name.encode("utf-8"), "big")


def class_name_of_encoding(enc: int) -> str:
    n = enc - CLASS_ENC_BASE
    return n.to_bytes((n.bit_length() + 7) // 8, "big").decode("utf-8")
