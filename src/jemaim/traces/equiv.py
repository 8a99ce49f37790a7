"""Trace-set equality and the first-divergence split fed to the back-translator.

`trace_equiv` explores both components into one `TraceTable`, where equal
canonical traces get equal ids, so equality of the trace sets is equality of
two sets of ints. Only when they differ are the traces materialised as tuples,
to choose the divergence pair: the least trace only the first set holds, by
`_trace_key` (unticked first, then shorter, then rendered order), and its best
mate in the second set (`_best_mate`); failing that, the same with the roles
swapped.

The two explorations run in lock-step, level by level, an on-the-fly check in
the sense of Fernandez & Mounier, "'On the Fly' Verification of Behavioural
Equivalences and Preorders" (CAV 1991). After level d, the search stops when
the first side's new ids hold one the second side's lack that does not end in
`Tick`, and the pair is chosen from the ids gathered so far. It is the pair
the whole search to `depth` would choose:

- Both sets hold every even-length prefix of their traces, so their traces of
  length at most 2d are exactly the ids of levels up to d.
- `_trace_key` ranks every unticked trace first, then by length, so the least
  trace only the first set holds is an unticked one of length at most 2d,
  and it is already in hand.
- Take any mate longer than 2d, and let c be its common length with t1, the
  trace chosen; c is at most 2d. Its prefix of length c or c+1, the even
  one, is in the pool too. That prefix has the same common length and is
  shorter, and being even and at most 2d+1 long, it is at most 2d long. So
  every mate with `_best_mate`'s top key is already in hand.

A difference that only ticks, or that only the second side shows, does not
stop the search, as a later level may add a trace that ranks first; nor does
a pair of equal sets, which is `Equivalent` only once both explorations reach
`depth`.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..aim.words import SYS_ID
from .actions import FuelExceeded, Tick, is_input
from . import engine
from .engine import DEFAULT_DEPTH, AdversaryDomain

# one component's trace set; perfbench/tracing.py times enumerations at this binding
enumerate_traces = engine.enumerate_traces


class InterfaceMismatch(Exception):
    pass


class NotComparable(Exception):
    """The traces differ first at a ?-action: an adversary mismatch, not a component one."""


def same_interface(img1, img2) -> bool:
    em1 = {k for k, a in img1.table.em.items() if a.mid != SYS_ID}
    em2 = {k for k, a in img2.table.em.items() if a.mid != SYS_ID}
    return em1 == em2 and set(img1.table.eo) == set(img2.table.eo)


@dataclass
class Inequivalent:
    t1: tuple  # a trace of the first component
    t2: tuple  # the second component's trace sharing the longest odd prefix

    equivalent = False


@dataclass
class Equivalent:
    traces: int

    equivalent = True


def trace_equiv(img1, img2, depth: int = DEFAULT_DEPTH, domain: AdversaryDomain | None = None, seed: int = 0):
    """Set equality of canonical bounded trace sets; a witness pair otherwise.
    The two explorations run level by level in lock-step, and stop at the
    first level that fixes the witness pair."""
    if not same_interface(img1, img2):
        raise InterfaceMismatch("components expose different method or object bindings")
    table = engine.TraceTable()
    ids1, ids2 = set(), set()
    levels = zip(engine.explore(img1, depth, domain, seed, table), engine.explore(img2, depth, domain, seed, table))
    for new1, new2 in levels:
        ids1 |= new1
        ids2 |= new2
        if any(not isinstance(table.last(t)[1], Tick) for t in new1 - new2):
            return _divergence(table, ids1, ids2)
    if ids1 == ids2:
        return Equivalent(len(ids1))
    return _divergence(table, ids1, ids2)


def _divergence(table, ids1, ids2) -> Inequivalent:
    """The witness pair of two differing trace id sets: the first trace only
    the first set holds, by `_trace_key`, and its best mate in the second;
    else the same with the sets' roles swapped."""
    traces = table.traces(ids1 | ids2)
    t1s, t2s = {traces[i] for i in ids1}, {traces[i] for i in ids2}
    only1 = t1s - t2s
    if only1:
        t1 = min(only1, key=_trace_key)
        return Inequivalent(t1, _best_mate(t1, t2s))
    t2 = min(t2s - t1s, key=_trace_key)
    return Inequivalent(_best_mate(t2, t1s), t2)


def _trace_key(t):
    # prefer divergences the back-translator can replay: a tick ending stems
    # from a triggered check (or a null dereference), not from observable output
    ticked = 1 if t and isinstance(t[-1], Tick) else 0
    return (ticked, len(t), _rendered(t))


def _rendered(t) -> tuple:
    return tuple(a.render() for a in t)


def _common_len(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _best_mate(t, pool) -> tuple:
    """The pool trace sharing the longest prefix with t, then the shortest,
    then the first in rendered order; trimmed to the divergence pair."""
    keys = {cand: (-_common_len(t, cand), len(cand)) for cand in pool}
    top = min(keys.values())
    best = min((cand for cand, key in keys.items() if key == top), key=_rendered)
    # trim the mate to the divergence pair: shared prefix plus its next action
    c = _common_len(t, best)
    return best[: c + 1]


def first_divergence(t1, t2):
    """Split two traces into (common prefix, differing action 1, differing action 2, index).

    The prefix is the longest shared odd-length prefix; the differing actions
    are !-actions (an exhausted trace contributes the absent action, modelled
    by the segment-fuel pseudo-action)."""
    i = _common_len(t1, t2)
    if i == len(t1) and i == len(t2):
        raise ValueError("traces are identical")
    a1 = t1[i] if i < len(t1) else FuelExceeded()
    a2 = t2[i] if i < len(t2) else FuelExceeded()
    if i % 2 == 0:
        # positions alternate ?-!; an even index is an environment move
        raise NotComparable(f"traces diverge at a ?-action (index {i})")
    if is_input(a1) or is_input(a2):
        raise NotComparable("divergence actions must be component moves")
    return t1[:i], a1, a2, i
