"""Value and type encodings: how jem values and types are represented as aim words.

A type is its name (jem/ast.py), and `encode_type` is the one map from type
names to encodings. The link key of a method is its jem `MethodSig`.

Values: null=0, unit=1, true=2, false=3, integers encode as themselves.
Type encodings live in a disjoint space: primitives at 10..13, class types at
100 + the base-256 value of the UTF-8 class name (name-canonical, so separately
compiled modules agree without a shared enumeration). Compiled objects carry
their class encoding in their first word.

The compiler emits these words; the machine's `tychk` reads the type
encodings, and its `tbl_add` recognises an object by a class-encoding word.
"""
from __future__ import annotations

from ..jem import ast

V_NULL = 0
V_UNIT = 1
V_TRUE = 2
V_FALSE = 3

ENC_UNIT = 10
ENC_BOOL = 11
ENC_INT = 12
ENC_OBJ = 13

CLASS_ENC_BASE = 100


def encode_value(v) -> int:
    """comp(v) for every jem value but an object reference."""
    if isinstance(v, bool):
        return V_TRUE if v else V_FALSE
    if isinstance(v, int):
        return v
    if v is ast.UNIT:
        return V_UNIT
    if v is ast.NULL:
        return V_NULL
    raise ValueError(f"not a literal: {v!r}")


def encode_class(name: str) -> int:
    return CLASS_ENC_BASE + int.from_bytes(name.encode("utf-8"), "big")


def class_name_of_encoding(enc) -> str | None:
    """The class name `enc` encodes, or None when `enc` is no class encoding.

    `enc` may be any machine word, including one an adversary chose.
    """
    if not isinstance(enc, int) or enc <= CLASS_ENC_BASE:
        return None
    n = enc - CLASS_ENC_BASE
    try:
        return n.to_bytes((n.bit_length() + 7) // 8, "big").decode("utf-8")
    except UnicodeDecodeError:
        return None


_BUILTIN_ENCODINGS = {ast.T_UNIT: ENC_UNIT, ast.T_BOOL: ENC_BOOL, ast.T_INT: ENC_INT, ast.T_OBJ: ENC_OBJ}


def encode_type(t: str) -> int:
    return _BUILTIN_ENCODINGS.get(t) or encode_class(t)
