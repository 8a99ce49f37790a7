"""Compiler-facing value/type encodings and signature rendering."""
from __future__ import annotations

from ..encoding import (
    ENC_BOOL,
    ENC_INT,
    ENC_OBJ,
    ENC_UNIT,
    V_FALSE,
    V_NULL,
    V_TRUE,
    V_UNIT,
    encode_class,
)
from ..aim.link import MethodSig as LinkSig
from ..jem import ast


def encode_value(v) -> int:
    """comp(v) for jem literals; integers encode as themselves."""
    if v == "unit":
        return V_UNIT
    if v is True:
        return V_TRUE
    if v is False:
        return V_FALSE
    if v == "null":
        return V_NULL
    if isinstance(v, int):
        return v
    raise ValueError(f"not a literal: {v!r}")


def encode_type(t: ast.JemType) -> int:
    if t.kind == "Unit":
        return ENC_UNIT
    if t.kind == "Bool":
        return ENC_BOOL
    if t.kind == "Int":
        return ENC_INT
    if t.kind == "Obj":
        return ENC_OBJ
    return encode_class(t.cname)


def link_sig(sig: ast.MethodSig) -> LinkSig:
    """Render a jem signature into the structural key used by symbol tables."""
    return LinkSig(sig.name, str(sig.recv), tuple(str(p) for p in sig.params), str(sig.ret))
