"""The PMA access-control predicate family over module descriptor lists.

Memory is split into unprotected space (module id 0) and protected modules,
each a code section [0, code_len) followed by an unbounded data section.
Entry points sit at offsets m*N_W for m < n_entry.
"""
from __future__ import annotations

from .words import Address, Descriptor, N_W, SYS_ID, UNPROTECTED, is_nat


def find_module(descs, a: Address) -> Descriptor | None:
    for s in descs:
        if s.mid == a.mid:
            return s
    return None


def unprotected(a: Address) -> bool:
    return a.mid == UNPROTECTED


def code_range(s: Descriptor, a: Address) -> bool:
    return a.mid == s.mid and 0 <= a.off < s.code_len


def data_range(s: Descriptor, a: Address) -> bool:
    return a.mid == s.mid and a.off >= s.code_len


def entry_point(descs, a: Address) -> bool:
    s = find_module(descs, a)
    if s is None:
        return False
    return a.off % N_W == 0 and 0 <= a.off // N_W < s.n_entry


def method_entry_point(descs, a: Address) -> bool:
    """Entry points other than slot 0 (slot 0 is the return entry point)."""
    s = find_module(descs, a)
    if s is None:
        return False
    return a.off % N_W == 0 and 1 <= a.off // N_W < s.n_entry


def return_entry_point(descs, a: Address) -> bool:
    s = find_module(descs, a)
    return s is not None and a.off == 0


def forward_return_ep(a: Address) -> bool:
    return a == Address(SYS_ID, 3 * N_W)


def _addr_ok(a: Address) -> bool:
    return is_nat(a.mid) and is_nat(a.off) and a.mid >= 0 and a.off >= 0


def read_allowed(descs, frm: Address, to: Address) -> bool:
    if not (_addr_ok(frm) and _addr_ok(to)):
        return False
    if unprotected(to):
        return True
    if unprotected(frm):
        return entry_point(descs, to)
    s = find_module(descs, frm)
    return s is not None and code_range(s, frm) and to.mid == s.mid


def write_allowed(descs, frm: Address, to: Address) -> bool:
    if not (_addr_ok(frm) and _addr_ok(to)):
        return False
    if unprotected(to):
        return True
    s = find_module(descs, frm)
    return s is not None and code_range(s, frm) and data_range(s, to)


def valid_jump(descs, frm: Address, to: Address) -> bool:
    if not (_addr_ok(frm) and _addr_ok(to)):
        return False
    if unprotected(frm) and unprotected(to):
        return True
    if unprotected(frm):
        return entry_point(descs, to)
    s = find_module(descs, frm)
    if s is None:
        return False
    if unprotected(to):
        return True
    if to.mid == s.mid:
        return code_range(s, frm) and code_range(s, to)
    return entry_point(descs, to)
