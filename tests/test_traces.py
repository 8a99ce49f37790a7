"""Trace engine: observation, enumeration, canonicalization, divergence splits."""
import hashlib
import random
from dataclasses import fields

import pytest

from jemaim.aim.isa import ZF
from jemaim.aim.machine import MachineState
from jemaim.aim.words import FORWARDCALL_EP, SYS_ID, Address, Nonce
from jemaim.compiler.pipeline import compaim
from jemaim.jem.parser import parse_component
from jemaim.traces.actions import (
    CallIn,
    CallOut,
    FuelExceeded,
    ReturnIn,
    ReturnOut,
    Tick,
    canonicalize,
    is_input,
    parse_trace,
    rename,
    render_trace,
)
from jemaim.traces.engine import (
    RESUME_PAD,
    AdversaryDomain,
    ComponentTracer,
    _apply,
    _injections,
    enumerate_traces,
)
from jemaim.traces.equiv import (
    InterfaceMismatch,
    NotComparable,
    _best_mate,
    first_divergence,
    trace_equiv,
)

from corpus import COMPONENTS, INEQUIVALENT_PAIRS


def image_of(src, first_mid=2):
    return compaim(parse_component(src), first_mid=first_mid)


@pytest.fixture(scope="module")
def const_image():
    return image_of(COMPONENTS["const"])


@pytest.fixture(scope="module")
def cell_image():
    return image_of(COMPONENTS["cell"])


class TestObservation:
    def test_forwarded_call_recorded_at_method_entry(self, const_image):
        tracer = ComponentTracer(const_image)
        [(_, mask)] = list(const_image.table.eo.items())
        [addr] = [a for s, a in const_image.table.em.items() if s.name == "get"]
        seg = tracer.call_method(tracer.initial(), addr, mask, ())
        assert isinstance(seg.action, CallIn)
        assert tuple(seg.action.addr) == (addr.mid, addr.off)
        assert seg.action.regs[0] == 1 and seg.action.regs[5] == 48
        assert isinstance(seg.reply, ReturnOut)
        assert seg.reply.value == 1 and seg.reply.mid == addr.mid

    def test_direct_entry_poke_aborts(self, const_image):
        tracer = ComponentTracer(const_image)
        [addr] = [a for s, a in const_image.table.em.items() if s.name == "get"]
        seg = tracer.poke(tracer.initial(), addr, {})
        assert isinstance(seg.reply, Tick)

    def test_premature_returnback_ticks(self, const_image):
        tracer = ComponentTracer(const_image)
        seg = tracer.returnback(tracer.initial(), 1, 0)
        assert isinstance(seg.action, ReturnIn)
        assert isinstance(seg.reply, Tick)

    def test_outcall_generates_callback_with_symbolic_target(self):
        img = image_of(INEQUIVALENT_PAIRS["callback-target"][0])
        tracer = ComponentTracer(img)
        [(_, mask)] = list(img.table.eo.items())
        [addr] = [a for s, a in img.table.em.items() if s.name == "go"]
        seg = tracer.call_method(tracer.initial(), addr, mask, ())
        assert isinstance(seg.reply, CallOut)
        assert all(str(w).startswith("$") for w in seg.reply.addr)
        assert seg.reply.regs[5] == 48

    def test_returnback_resumes_component(self):
        img = image_of(INEQUIVALENT_PAIRS["callback-param"][0])
        tracer = ComponentTracer(img)
        [(_, mask)] = list(img.table.eo.items())
        [addr] = [a for s, a in img.table.em.items() if s.name == "go"]
        seg = tracer.call_method(tracer.initial(), addr, mask, ())
        assert isinstance(seg.reply, CallOut)
        seg2 = tracer.returnback(seg.state, 9, 0)
        assert isinstance(seg2.reply, ReturnOut) and seg2.reply.value == 9

    def test_returnback_with_forged_id_ticks(self):
        img = image_of(INEQUIVALENT_PAIRS["callback-param"][0])
        tracer = ComponentTracer(img)
        [(_, mask)] = list(img.table.eo.items())
        [addr] = [a for s, a in img.table.em.items() if s.name == "go"]
        seg = tracer.call_method(tracer.initial(), addr, mask, ())
        seg2 = tracer.returnback(seg.state, 9, 7)
        assert isinstance(seg2.reply, Tick)

    def test_fuel_ending_on_arrival_at_the_entry_point_forwards(self, const_image):
        [(_, mask)] = list(const_image.table.eo.items())
        [addr] = [a for s, a in const_image.table.em.items() if s.name == "get"]
        # the steps sys's forwardCall takes to reach the method's entry point
        st = ComponentTracer(const_image).initial()
        for i, w in {3: addr.mid, 4: addr.off, 5: RESUME_PAD, 6: mask}.items():
            st.set_reg(i, w)
        st.pc = Address(SYS_ID, FORWARDCALL_EP)
        k = 0
        while st.pc != addr:
            assert st.step() == ("ok", None)
            k += 1

        def call(fuel):
            tracer = ComponentTracer(const_image, segment_fuel=fuel)
            return tracer.call_method(tracer.initial(), addr, mask, ())

        full = call(10_000)
        assert isinstance(full.reply, ReturnOut)
        arrived, short = call(k), call(k - 1)
        assert isinstance(arrived.reply, FuelExceeded) and arrived.action == full.action
        assert isinstance(short.reply, FuelExceeded)
        assert short.action == CallIn((SYS_ID, FORWARDCALL_EP), (0, 0, 0, addr.mid, addr.off, RESUME_PAD, mask))


class TestEnumeration:
    def test_depth_zero_is_just_the_empty_trace(self, const_image):
        assert enumerate_traces(const_image, depth=0) == {()}

    def test_doubling_component_traces(self):
        img = image_of(COMPONENTS["double"])
        traces = enumerate_traces(img, depth=1)
        replies = {}
        for t in traces:
            if len(t) == 2 and isinstance(t[0], CallIn) and isinstance(t[1], ReturnOut):
                replies[t[0].regs[7]] = t[1].value
        assert replies[0] == 0 and replies[1] == 2

    def test_alternation_and_tick_absorption(self, cell_image):
        for t in enumerate_traces(cell_image, depth=3):
            for i, a in enumerate(t):
                assert is_input(a) == (i % 2 == 0)
                if isinstance(a, Tick):
                    assert i == len(t) - 1

    def test_monotone_in_depth(self, cell_image):
        t2 = enumerate_traces(cell_image, depth=2)
        t3 = enumerate_traces(cell_image, depth=3)
        assert t2 <= t3

    def test_determinism_between_runs(self, cell_image):
        assert enumerate_traces(cell_image, depth=2) == enumerate_traces(cell_image, depth=2)

    def test_canonical_sets_equal_across_oracle_seeds(self):
        for name, src in COMPONENTS.items():
            a = enumerate_traces(image_of(src), depth=2, seed=0)
            b = enumerate_traces(image_of(src), depth=2, seed=99)
            assert a == b, name

    def test_component_replies_deterministic_given_prefix(self, cell_image):
        tracer = ComponentTracer(cell_image, seed=5)
        [(_, mask)] = list(cell_image.table.eo.items())
        [put] = [a for s, a in cell_image.table.em.items() if s.name == "put"]
        [get] = [a for s, a in cell_image.table.em.items() if s.name == "get"]
        runs = []
        for _ in range(2):
            st = tracer.initial()
            seg = tracer.call_method(st, put, mask, (7,))
            seg = tracer.call_method(seg.state, get, mask, ())
            runs.append(seg.reply)
        assert runs[0] == runs[1] and runs[0].value == 7


# Depth-4 canonical trace sets of every component and of both sides of every
# inequivalent pair under both adversary domains: (count, sha256 of the sorted rendered traces joined by newlines).
# A change that alters any canonical trace must say why and update the pin.
TRACE_SET_PINS = {
    ("const", "default"): (9, "438a90e737490150cb64061ad33ccccb3322568dabc163cc05311070da3a4a1f"),
    ("const", "illtyped"): (21, "34a276584e891fa9530c162922830117b6f348bda42c874a534e43eccb605c03"),
    ("double", "default"): (46, "94c8d27235e1d3fa7cd3adfe78bc2c2efb29d4ebf2fd1b50edf4a8f394f2dadd"),
    ("double", "illtyped"): (521, "6212d5588992851ec41ac370a236ebf54c01033523b1a184fa47febde2ad9ba8"),
    ("cell", "default"): (161, "7b2d2a794f9fd7acfa10edca4804622e3860527b5ce64cc7af1f38d7c1689017"),
    ("cell", "illtyped"): (1446, "96a3add19c7f48b238b5ca0300b411fcfda155070893770d0f7693bd2315daa0"),
    ("keeper", "default"): (937, "e1fddc08b3c644e7bfa286603979d6e3bb791b7971e668655f3e90574d7330ca"),
    ("keeper", "illtyped"): (5773, "65e67f3c9a4bc633dab61b66f52501b7e08051b406ccb11ff5b4218db5f7e75e"),
    ("gate", "default"): (426, "73575bbf78289dab6186ef66f74159ff3eaef02f9bd2bded12aca77d82273fc6"),
    ("gate", "illtyped"): (3901, "8146ee2951e0acb57c34730469d76b290d003f0238cd7b44eb31aae480369abf"),
    # both sides of every inequivalent pair, named "<pair>.<side>"
    ("bool-return.0", "default"): (9, "9f627bec29e5641c84d890242bf3f1757024a7926ffa725b2cc23a4f74f58e80"),
    ("bool-return.0", "illtyped"): (21, "2df8bb6b1534fa2a116ab948ae0d1e013bc769243b32f83a55be3773217ede97"),
    ("bool-return.1", "default"): (9, "3754c8e7e1d9cbba2b3567a70d636fd28a48934eed2ee6cec4034279be72e750"),
    ("bool-return.1", "illtyped"): (21, "13a0588031aec7de9495a88b22ebda10682c235776e77e48ba0b3fd541c43368"),
    ("callback-param.0", "default"): (28, "6b08288ee3e47b905267c705d6d64a139078ac487b24d42fa366709b36442839"),
    ("callback-param.0", "illtyped"): (93, "6a1953a222ce2def7f64daecdd8b91636387b2ed49bccd584cd1c8dc071c206b"),
    ("callback-param.1", "default"): (28, "12fa58f0662410c8cc774409fa68d9dbb6c57ec67829a2e5ca36eb7a69758f98"),
    ("callback-param.1", "illtyped"): (93, "af68777b64fb7322b4b3e58924c7a721325b3caf7bfe2129766f621a6c85f868"),
    ("callback-target.0", "default"): (28, "7c04c84e8a060153fdd172df648bed73898a1187600af074a38b53bb351dfa97"),
    ("callback-target.0", "illtyped"): (93, "4898dd4d67ab5446683512bc0c8bd239ae90bb7e8d142b726a87c6512d5d03e6"),
    ("callback-target.1", "default"): (28, "8f7b352180f90d65d4b288f246ca7b92720635b1b9210094da852665ad7e0c93"),
    ("callback-target.1", "illtyped"): (93, "651317133201277be580bfbe12c23a77ee898878c20ebd9eedeff7d1f08436f2"),
    ("callback-vs-return.0", "default"): (28, "7c04c84e8a060153fdd172df648bed73898a1187600af074a38b53bb351dfa97"),
    ("callback-vs-return.0", "illtyped"): (93, "4898dd4d67ab5446683512bc0c8bd239ae90bb7e8d142b726a87c6512d5d03e6"),
    ("callback-vs-return.1", "default"): (9, "0e5e3714ce114df336ab2a3667df839e78e48e2c717c495c6335244cfc09b81c"),
    ("callback-vs-return.1", "illtyped"): (21, "c0611669b26d0905c3316a83acabf91136d5abf1bc5d35caae40d4f086041f55"),
    ("fresh-vs-static-object.0", "default"): (46, "3a41b21ea221c2387c52342fe70047e6dbdc9f92bca036bdd3cc76a6abc42187"),
    ("fresh-vs-static-object.0", "illtyped"): (136, "7cdb762f26a22ae488206c60af2ee334a0287eeecd74af8393be9ce719686003"),
    ("fresh-vs-static-object.1", "default"): (46, "2d643f723ab752af352e9ff22134cbb7c5a80501b91cd3bb47361f799473061c"),
    ("fresh-vs-static-object.1", "illtyped"): (136, "e5e1caab35866100d32b5d0ed9ec250e70e06a6b9d34acd4e63fa38aa5166740"),
    ("int-return.0", "default"): (9, "438a90e737490150cb64061ad33ccccb3322568dabc163cc05311070da3a4a1f"),
    ("int-return.0", "illtyped"): (21, "34a276584e891fa9530c162922830117b6f348bda42c874a534e43eccb605c03"),
    ("int-return.1", "default"): (9, "9f627bec29e5641c84d890242bf3f1757024a7926ffa725b2cc23a4f74f58e80"),
    ("int-return.1", "illtyped"): (21, "2df8bb6b1534fa2a116ab948ae0d1e013bc769243b32f83a55be3773217ede97"),
    ("length-divergence.0", "default"): (7, "cbe692efc40a4fd7ffafe7d9e97792f9cacb7153ecd5963e6c9447aa6fbde3cf"),
    ("length-divergence.0", "illtyped"): (19, "b02d4cb06854c7cbb0eb957e5312a1b3cc566ab15dc4de3b8bde0aa36966938f"),
    ("length-divergence.1", "default"): (13, "41c03add8dcaa1813e14ded85dba3f150677a4272f7ca9d72caf1d3d853e4b42"),
    ("length-divergence.1", "illtyped"): (37, "4e38070219a6d346caae7ee24ca4e314e071307c3996927b183433e427128a10"),
    ("null-vs-object.0", "default"): (9, "151d65157273028fec05f5e187da6efb65a548b72a7af4d8a6c700dc602bda87"),
    ("null-vs-object.0", "illtyped"): (21, "b5c416b5568c7db630d89090e1bfb7fe911a3c396e7eda6a355b36d1de0d4112"),
    ("null-vs-object.1", "default"): (9, "00d023086c5209ca8db691dd4da14ddeae4b86c8e52bbdf3d1b97f96245e628c"),
    ("null-vs-object.1", "illtyped"): (21, "2530f6794647a7fc2229d387285e5dd7d29b5418e7e679cea706d38fab2ce340"),
    ("stateful-second-round.0", "default"): (9, "eb9c597ec2d675c93243d7220a04623045f63556160668a75d742592d8a3be79"),
    ("stateful-second-round.0", "illtyped"): (21, "afb4f5b86bc8b7f834f2dffff83a503c26cef074c7fb767572b95ab306040a7d"),
    ("stateful-second-round.1", "default"): (9, "22d8b6cc408d9c8fd290af88598077b295f664babdcddb5604e819dab7ee4738"),
    ("stateful-second-round.1", "illtyped"): (21, "33fd734dca60cddc26345ce06c3fe4ddec1773af1a03cf18210afc4526b09905"),
    ("unit-vs-state.0", "default"): (46, "3d8ccfb8b0eddc94ae473669261f64173528f1b702af211b5f1aff8362afe748"),
    ("unit-vs-state.0", "illtyped"): (136, "f660d932aed2c2a08ed20c2e74a38f834907f719c9498ba59c45397af99d14db"),
    ("unit-vs-state.1", "default"): (46, "5a0e05c50bff4a4f3d50bea782e02dfbd59e9d8a991bd851f9a8768d20d02501"),
    ("unit-vs-state.1", "illtyped"): (136, "532700ed4399a86f5868823fce5b3db58c088cbff720c33d6cf06e18470e8b0d"),
}
PINNED_SOURCES = {
    **COMPONENTS,
    **{f"{name}.{side}": pair[side] for name, pair in INEQUIVALENT_PAIRS.items() for side in (0, 1)},
}
PIN_DOMAINS = {"default": AdversaryDomain, "illtyped": lambda: AdversaryDomain(illtyped=True, forged_ids=(9,))}


@pytest.mark.parametrize("name, domain", list(TRACE_SET_PINS))
def test_canonical_trace_set_is_pinned(name, domain):
    traces = enumerate_traces(image_of(PINNED_SOURCES[name]), depth=4, domain=PIN_DOMAINS[domain]())
    text = "\n".join(sorted(render_trace(t) for t in traces))
    assert (len(traces), hashlib.sha256(text.encode()).hexdigest()) == TRACE_SET_PINS[name, domain]


def raw_traces(image, depth, domain):
    """The tracer and the uncanonicalized traces of a breadth-first search
    with the engine's moves, enumerated here apart from its renaming."""
    tracer = ComponentTracer(image)
    out = {()}
    frontier = [(tracer.initial(), (), tracer.initial_knowledge(), ())]
    for _ in range(depth):
        nxt = []
        for state, trace, knowledge, pending in frontier:
            for inj in _injections(tracer, knowledge, pending, domain):
                seg, k2, p2 = _apply(tracer, state, inj, knowledge, pending)
                t2 = trace + (seg.action, seg.reply)
                out.add(t2)
                if seg.state is not None:
                    nxt.append((seg.state, t2, k2, p2))
        frontier = nxt
    return tracer, out


@pytest.mark.parametrize("domain", sorted(PIN_DOMAINS))
@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_renaming_along_the_path_canonicalizes_whole_traces(name, domain):
    img = image_of(COMPONENTS[name])
    tracer, raw = raw_traces(img, 3, PIN_DOMAINS[domain]())
    whole = {canonicalize(t, tracer.seed_masks) for t in raw}
    assert enumerate_traces(img, depth=3, domain=PIN_DOMAINS[domain]()) == whole
    # the adversary's guesses, and keeper's fresh objects, are nonces named along the way
    if domain == "illtyped" or name == "keeper":
        assert any(f"N{len(tracer.seed_masks)}" in render_trace(t) for t in whole)


def plain_traces(image, depth, domain):
    """The engine's enumeration without its memo: every injection runs its
    segment. Returns the canonical trace set, the number of injections, and
    how many of them are distinct runs: one per distinct (fingerprint,
    injection) key, and one per `register` move."""
    tracer = ComponentTracer(image)
    results, keys, injections, registers = {()}, set(), 0, 0
    seeded = rename((), {}, tracer.seed_masks)[1]
    frontier = [(tracer.initial(), (), seeded, tracer.initial_knowledge(), ())]
    for _ in range(depth):
        nxt = []
        for state, trace, names, knowledge, pending in frontier:
            fp = state.fingerprint()
            for inj in _injections(tracer, knowledge, pending, domain):
                injections += 1
                if inj[0] == "register":
                    registers += 1
                else:
                    keys.add((fp, inj))
                seg, k2, p2 = _apply(tracer, state, inj, knowledge, pending)
                actions, n2 = rename((seg.action, seg.reply), names)
                t2 = trace + actions
                results.add(t2)
                if seg.state is not None:
                    nxt.append((seg.state, t2, n2, k2, p2))
        frontier = nxt
    return results, injections, len(keys) + registers


# the register_classes=("i",) pair of test_backtranslator.py's
# TestRegisteredObjectWitness: the adversary registers an object of class i
REGISTERED = """
class-decl i { poke : i()->Unit };
class c {
  c(){}
  public feed(x) : c(i)->Int { return x.poke(); 5; }
};
object o : c { };
"""
MEMO_CASES = {
    **{(name, domain): (COMPONENTS[name], PIN_DOMAINS[domain]) for name in COMPONENTS for domain in PIN_DOMAINS},
    ("registered.0", "register-i"): (REGISTERED, lambda: AdversaryDomain(register_classes=("i",))),
    ("registered.1", "register-i"): (
        REGISTERED.replace("return x.poke(); 5;", "return 5;"),
        lambda: AdversaryDomain(register_classes=("i",)),
    ),
}


class TestMemoisedEnumeration:
    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_memoised_equals_plain(self, case):
        src, domain = MEMO_CASES[case]
        img = image_of(src)
        plain, _, _ = plain_traces(img, 3, domain())
        assert enumerate_traces(img, depth=3, domain=domain()) == plain

    @staticmethod
    def segments_run(img, depth, domain, monkeypatch):
        """How many segments one enumeration runs: its `_enter` calls."""
        entered = 0
        enter = ComponentTracer._enter

        def counted(*args, **kwargs):
            nonlocal entered
            entered += 1
            return enter(*args, **kwargs)

        monkeypatch.setattr(ComponentTracer, "_enter", counted)
        enumerate_traces(img, depth=depth, domain=domain)
        monkeypatch.undo()
        return entered

    @pytest.mark.parametrize("domain", sorted(PIN_DOMAINS))
    def test_each_distinct_segment_runs_once(self, domain, monkeypatch):
        img = image_of(COMPONENTS["keeper"])
        _, injections, distinct = plain_traces(img, 4, PIN_DOMAINS[domain]())
        entered = self.segments_run(img, 4, PIN_DOMAINS[domain](), monkeypatch)
        assert entered == distinct
        assert 5 * entered <= injections

    @pytest.mark.parametrize("case", ["registered.0", "registered.1"])
    def test_every_register_move_runs(self, case, monkeypatch):
        src, domain = MEMO_CASES[case, "register-i"]
        img = image_of(src)
        _, _, distinct = plain_traces(img, 4, domain())
        assert self.segments_run(img, 4, domain(), monkeypatch) == distinct

    def test_every_state_field_is_keyed_reset_or_shared(self):
        """A field the fingerprint leaves out must be one that `_enter` sets
        afresh, or one a clone shares with its original."""
        keyed = {"mem", "oracle", "masks", "gstore", "callstack", "_last_op"}
        reset = {"pc", "regs", "flags"}
        shared = {"descs", "sys_depth_addr", "code", "_icache"}
        assert {f.name for f in fields(MachineState)} == keyed | reset | shared

    def test_fingerprint_tells_apart_each_keyed_field(self, cell_image):
        st = ComponentTracer(cell_image).initial()
        fp = st.fingerprint()
        keyed = {
            "mem": lambda s: s.mem.__setitem__(Address(0, 7), 1),
            "oracle": lambda s: s.oracle.fresh(),
            "masks": lambda s: s.table(2).add(99, Nonce("m", 0)),
            "gstore": lambda s: s.gstore.__setitem__(Nonce("g", 0), (1, 2)),
            "callstack": lambda s: s.callstack.append((0, 0, 0)),
            "_last_op": lambda s: setattr(s, "_last_op", "zero"),
        }
        for name, change in keyed.items():
            c = st.clone()
            change(c)
            assert c.fingerprint() != fp, name
        c = st.clone()
        c.pc, c.flags[ZF] = Address(2, 0), 1
        c.set_reg(6, 5)
        c.table(3)  # an empty table behaves as an absent one
        assert c.fingerprint() == fp

    def test_injections_leave_the_suspended_state_unchanged(self, cell_image):
        tracer = ComponentTracer(cell_image)
        st = tracer.initial()
        before = (st.fingerprint(), st.pc, dict(st.regs), dict(st.flags))
        domain = PIN_DOMAINS["illtyped"]()
        for inj in _injections(tracer, tracer.initial_knowledge(), (), domain):
            _apply(tracer, st, inj, tracer.initial_knowledge(), ())
        assert (st.fingerprint(), st.pc, dict(st.regs), dict(st.flags)) == before


class TestSerialization:
    def test_trace_round_trips_through_text(self, cell_image):
        traces = sorted(enumerate_traces(cell_image, depth=2), key=repr)
        for t in traces:
            assert parse_trace(render_trace(t)) == t if t else True

    def test_trace_line_format_shape(self, const_image):
        traces = enumerate_traces(const_image, depth=1)
        line = next(
            t[0].render() for t in traces if t and isinstance(t[0], CallIn) and t[0].regs[0] == 1
        )
        assert line.startswith("call? (2,16) [1,0,0,0,0,48,N0")


class TestEquiv:
    def test_component_equivalent_to_itself(self, const_image):
        r = trace_equiv(const_image, const_image, depth=2)
        assert r.equivalent

    def test_constants_pair_inequivalent(self):
        a, b = INEQUIVALENT_PAIRS["int-return"]
        r = trace_equiv(image_of(a), image_of(b), depth=2)
        assert not r.equivalent
        prefix, a1, a2, i = first_divergence(r.t1, r.t2)
        assert i % 2 == 1
        assert isinstance(a1, ReturnOut) and isinstance(a2, ReturnOut)
        assert a1.value == 1 and a2.value == 2

    def test_private_difference_not_observable(self):
        base = COMPONENTS["cell"]
        other = base.replace("v = 0;", "v = 0; }; object spare : cell { v = 9;").replace(
            "object store", "object store2", 1
        )
        # simpler: differing private field initial value that no method reads
        c1 = """
class c {
  c(hidden:Int){ this.hidden = hidden; }
  hidden : Int;
  public get() : c()->Int { return 4; }
};
object o : c { hidden = 1; };
"""
        c2 = c1.replace("hidden = 1;", "hidden = 2;")
        r = trace_equiv(image_of(c1), image_of(c2), depth=3)
        assert r.equivalent

    def test_interface_mismatch_rejected(self):
        with pytest.raises(InterfaceMismatch):
            trace_equiv(image_of(COMPONENTS["const"]), image_of(COMPONENTS["double"]), depth=1)

    @pytest.mark.parametrize("name", sorted(INEQUIVALENT_PAIRS))
    def test_all_pairs_detected(self, name):
        a, b = INEQUIVALENT_PAIRS[name]
        r = trace_equiv(image_of(a), image_of(b), depth=3)
        assert not r.equivalent
        prefix, a1, a2, i = first_divergence(r.t1, r.t2)
        assert not is_input(a1) and not is_input(a2)

    def test_best_mate_ignores_pool_order(self):
        """Mates that tie on shared prefix and length go to the first in
        rendered order, whatever order the pool comes in."""
        call = CallIn((2, 16), (1,))
        t = (call, ReturnOut((0, 40), 1, 2))
        a = (call, ReturnOut((0, 40), 2, 2))
        b = (call, ReturnOut((0, 40), 3, 2))
        assert _best_mate(t, [a, b]) == _best_mate(t, [b, a]) == a

    def test_first_divergence_rejects_input_divergence(self):
        t1 = (CallIn((2, 16), (1, 0)), ReturnOut((0, 40), 1, 2))
        t2 = (CallIn((2, 32), (1, 0)), ReturnOut((0, 40), 1, 2))
        with pytest.raises(NotComparable):
            first_divergence(t1, t2)

    def test_shorter_trace_contributes_absent_action(self):
        t1 = (CallIn((2, 16), (1,)), ReturnOut((0, 40), 1, 2))
        t2 = (CallIn((2, 16), (1,)),)
        prefix, a1, a2, i = first_divergence(t1, t2)
        assert isinstance(a2, FuelExceeded) and isinstance(a1, ReturnOut)


class TestRandomWalks:
    def test_random_traces_are_reproducible(self, cell_image):
        r1 = [ComponentTracer(cell_image).random_trace(random.Random(k)) for k in range(20)]
        r2 = [ComponentTracer(cell_image).random_trace(random.Random(k)) for k in range(20)]
        assert r1 == r2

    def test_one_tracer_draws_what_fresh_tracers_draw(self):
        img = image_of(REGISTERED)
        domain = AdversaryDomain(illtyped=True, register_classes=("i",))
        tracer = ComponentTracer(img)
        shared = [tracer.random_trace(random.Random(k), depth=4, domain=domain) for k in range(40)]
        fresh = [ComponentTracer(img).random_trace(random.Random(k), depth=4, domain=domain) for k in range(40)]
        assert shared == fresh
        assert any("call? (1,16)" in render_trace(t) for t in shared)


EXTERNAL_BOOL = """
class-decl i { flag : i()->Bool };
obj-decl io : i;
class c {
  c(){}
  public go() : c()->Int { return if (io.flag()) { 1 } else { 2 }; }
};
object o : c { };
"""

NESTED_OUTCALLS = """
class-decl i { one : i()->Int, two : i()->Int };
obj-decl io : i;
class c {
  c(tag:Int){ this.tag = tag; }
  tag : Int;
  public go() : c()->Int {
    return var a : Int = io.one();
           var b : Int = io.two();
           a + b + this.tag;
  }
};
object o : c { tag = 100; };
"""


class TestOutcallProtocol:
    def start_go(self, src):
        img = image_of(src)
        tracer = ComponentTracer(img)
        [(_, mask)] = list(img.table.eo.items())
        [addr] = [a for s, a in img.table.em.items() if s.name == "go"]
        return tracer, tracer.call_method(tracer.initial(), addr, mask, ())

    def test_ill_typed_returnback_aborts_at_return_entry(self):
        tracer, seg = self.start_go(EXTERNAL_BOOL)
        assert isinstance(seg.reply, CallOut)
        bad = tracer.returnback(seg.state, 7, 0)  # 7 is not a Bool encoding
        assert isinstance(bad.reply, Tick)
        good = tracer.returnback(seg.state, 2, 0)
        assert isinstance(good.reply, ReturnOut) and good.reply.value == 1

    def test_nested_outcalls_restore_the_current_object(self):
        tracer, seg = self.start_go(NESTED_OUTCALLS)
        assert isinstance(seg.reply, CallOut)
        seg2 = tracer.returnback(seg.state, 30, 0)
        assert isinstance(seg2.reply, CallOut)  # the second outcall
        seg3 = tracer.returnback(seg2.state, 7, 0)
        # this.tag is only reachable if the frame survived both trips
        assert isinstance(seg3.reply, ReturnOut) and seg3.reply.value == 137

    def test_reentrant_call_during_callback(self):
        img = image_of(NESTED_OUTCALLS)
        tracer = ComponentTracer(img)
        [(_, mask)] = list(img.table.eo.items())
        [addr] = [a for s, a in img.table.em.items() if s.name == "go"]
        seg = tracer.call_method(tracer.initial(), addr, mask, ())
        assert isinstance(seg.reply, CallOut)
        # instead of answering, call the component again (legal in the source)
        inner = tracer.call_method(seg.state, addr, mask, ())
        assert isinstance(inner.reply, CallOut)
        r1 = tracer.returnback(inner.state, 1, 0)
        assert isinstance(r1.reply, CallOut)
        r2 = tracer.returnback(r1.state, 2, 0)
        assert isinstance(r2.reply, ReturnOut) and r2.reply.value == 103
        # the outer activation is still suspended and can be answered now
        r3 = tracer.returnback(r2.state, 10, 0)
        assert isinstance(r3.reply, CallOut)
        r4 = tracer.returnback(r3.state, 20, 0)
        assert isinstance(r4.reply, ReturnOut) and r4.reply.value == 130

    def test_segment_fuel_pseudo_action(self):
        src = """
class c {
  c(){}
  public spin() : c()->Int { return this.spin(); }
};
object o : c { };
"""
        img = image_of(src)
        tracer = ComponentTracer(img, segment_fuel=2_000)
        [(_, mask)] = list(img.table.eo.items())
        [addr] = [a for s, a in img.table.em.items() if s.name == "spin"]
        seg = tracer.call_method(tracer.initial(), addr, mask, ())
        assert isinstance(seg.reply, FuelExceeded)


class TestReturnEntryPointPredicate:
    def test_slot_zero_is_the_return_entry(self):
        from jemaim.aim import access
        from jemaim.aim.words import Address, Descriptor

        descs = [Descriptor(2, 64, 3)]
        assert access.return_entry_point(descs, Address(2, 0))
        assert not access.return_entry_point(descs, Address(2, 16))
        assert not access.return_entry_point(descs, Address(0, 0))
