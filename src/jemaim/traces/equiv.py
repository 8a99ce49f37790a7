"""Trace-set equality and the first-divergence split fed to the back-translator.

`trace_equiv` decides equality on the product of the two components' state
graphs (traces/engine.py), as Hopcroft & Karp decide the equivalence of
automata ("A Linear Algorithm for Testing Equivalence of Finite Automata",
1971), level by level in the sense of Fernandez & Mounier, "'On the Fly'
Verification of Behavioural Equivalences and Preorders" (CAV 1991):

- A product state is a pair of sorted tuples of nodes, one per side: the
  nodes one trace reaches. Its moves are each label (pair id) its nodes
  offer, with the tuple of nodes that label leads to (`Graph.step`). That is
  the subset construction done on the fly, so a node that offers one label
  twice needs no special case (Bonchi & Pous, "Checking NFA Equivalence in
  Almost Linear Time Using Bisimulation up to Congruence", POPL 2013).
- Each product state carries the number of traces that reach it. A trace
  reaches exactly one, and its extensions are its product state's labels, so
  the traces are 1 + the sum, over levels, of count times labels. When every
  product state reached has equal label sets on both sides, the sets are
  equal, and `Equivalent` reports that sum without materialising a trace.

Otherwise the divergence pair is chosen from the two trace sets, each
walked to the level that fixes it by `Graph.traces`. It is the least trace
only the first set holds, by `_trace_key` (unticked first, then shorter, then
rendered order), and its best mate in the second set (`_best_mate`); failing
that, the same with the roles swapped.

The walk stops after level d when a product state's first side offers a label
the second lacks whose reply is not `Tick`. That is the level at which two
level-by-level searches would first see a trace of d moves that only the
first set holds and that does not end in `Tick`: such a trace's parent is in
both sets, since a trace only the first holds that does not end in `Tick`
stops the walk at its own level, and one that ends in `Tick` has no
extension. The pair chosen from the traces of at most d moves is the one the
whole search to `depth` would choose:

- `_trace_key` ranks every unticked trace first, then by length, so the least
  trace only the first set holds is an unticked one of at most d moves, and
  it is already in hand.
- Take any mate longer than 2d, and let c be its common length with t1, the
  trace chosen; c is at most 2d. Its prefix of length c or c+1, the even
  one, is in the pool too. That prefix has the same common length and is
  shorter, and being even and at most 2d+1 long, it is at most 2d long. So
  every mate with `_best_mate`'s top key is already in hand.

A difference that only ticks, or that only the second side shows, does not
stop the walk, as a later level may add a trace that ranks first; the pair is
then chosen at `depth`.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    t1, t2 = img1.table, img2.table
    return t1.methods().keys() == t2.methods().keys() and t1.eo.keys() == t2.eo.keys()


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
    """Set equality of canonical bounded trace sets, decided on the product of
    the two state graphs; a witness pair otherwise, chosen once a level fixes it."""
    if not same_interface(img1, img2):
        raise InterfaceMismatch("components expose different method or object bindings")
    table = engine.TraceTable()
    g1, g2 = (engine.Graph(img, domain, seed, table) for img in (img1, img2))
    root = (engine.Graph.ROOT,)
    level, count, differs = {(root, root): 1}, 1, False
    for d in range(1, depth + 1):
        nxt = {}
        for (s1, s2), mult in level.items():
            m1, m2 = g1.step(s1), g2.step(s2)
            if m1.keys() != m2.keys():
                differs = True
                if any(not isinstance(table.pairs[pid][1], Tick) for pid in m1.keys() - m2.keys()):
                    return _divergence(g1.traces(d), g2.traces(d))
            count += mult * len(m1)
            if d < depth:
                for pid, n1 in m1.items():
                    n2 = m2.get(pid)
                    if n1 and n2:
                        nxt[n1, n2] = nxt.get((n1, n2), 0) + mult
        level = nxt
    if differs:
        return _divergence(g1.traces(depth), g2.traces(depth))
    return Equivalent(count)


def _divergence(t1s, t2s) -> Inequivalent:
    """The witness pair of two differing trace sets: the first trace only
    the first set holds, by `_trace_key`, and its best mate in the second;
    else the same with the sets' roles swapped."""
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
