"""Trace engine: observation, enumeration, canonicalization, divergence splits."""
import functools
import hashlib
import random
from collections import Counter
from dataclasses import fields

import pytest

from jemaim.aim.isa import ZF
from jemaim.aim.machine import MachineState
from jemaim.aim.words import FORWARDCALL_EP, FORWARDRETURN_EP, SYS_ID, Address, Nonce
from jemaim.compiler.pipeline import compaim
from jemaim.compiler.sysmod import SYS_DEPTH_ADDR, SYS_WORDS
from jemaim.jem.parser import parse_component
from jemaim.traces import engine
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
    CallPrefix,
    ComponentTracer,
    Graph,
    TraceTable,
    _apply,
    _injections,
    enumerate_traces,
)
from jemaim.traces.equiv import (
    Equivalent,
    Inequivalent,
    InterfaceMismatch,
    NotComparable,
    _best_mate,
    _divergence,
    _trace_key,
    first_divergence,
    trace_equiv,
)

from corpus import COMPONENTS, INEQUIVALENT_PAIRS
from test_backtranslator import LOCAL_PAIRS


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

    def test_a_forward_sys_refuses_is_a_call_into_sys(self, cell_image):
        """With the environment's own frame on top of sys's call stack, sys
        refuses the environment's next call: forwardCall aborts before its
        exit, so the call is recorded into sys, with its whole vector, and
        ticks."""
        tracer = ComponentTracer(cell_image)
        [(_, mask)] = list(cell_image.table.eo.items())
        [put] = [a for s, a in cell_image.table.em.items() if s.name == "put"]
        st = tracer.initial()
        st.callstack.append((0, RESUME_PAD, 2))
        st.mem[SYS_DEPTH_ADDR] = 1
        seg = tracer.call_method(st, put, mask, (1,))
        assert seg.action == CallIn((1, 32), (0, 0, 0, 2, 32, 40, mask, 1))
        assert isinstance(seg.reply, Tick) and seg.state is None


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
    # REGISTER_SOURCES and cell under the domains that register (REGISTER_DOMAINS)
    ("registered.0", "register-i"): (235, "42f6298b93e13a0a8ec4160e4c2451d59a1581f9ca2138bd5d6496c79d89ff9d"),
    ("registered.1", "register-i"): (426, "e3ad759ddea80c5d3d94033806622ddc0bb8d280b5d693ed2df700b20cf9d1cb"),
    ("cell", "register-all"): (9569, "f40cf5c4e9421786fd7759856ab8c869f55ebf75a24e5584a45f392a6ca00e7a"),
}
PINNED_SOURCES = {
    **COMPONENTS,
    **{f"{name}.{side}": pair[side] for name, pair in INEQUIVALENT_PAIRS.items() for side in (0, 1)},
}
REGISTER_SOURCES = {"registered.0": REGISTERED, "registered.1": REGISTERED.replace("return x.poke(); 5;", "return 5;")}
PIN_DOMAINS = {"default": AdversaryDomain, "illtyped": lambda: AdversaryDomain(illtyped=True, forged_ids=(9,))}
REGISTER_DOMAINS = {
    "register-i": lambda: AdversaryDomain(register_classes=("i",)),
    "register-all": lambda: AdversaryDomain(illtyped=True, forged_ids=(9,), register_classes=("i", "c")),
}


@pytest.mark.parametrize("name, domain", list(TRACE_SET_PINS))
def test_canonical_trace_set_is_pinned(name, domain):
    """The pinned set, and its count as the product walk of trace_equiv
    counts it against a second compilation of the source."""
    adversary = {**PIN_DOMAINS, **REGISTER_DOMAINS}[domain]
    src = {**PINNED_SOURCES, **REGISTER_SOURCES}[name]
    traces = enumerate_traces(image_of(src), depth=4, domain=adversary())
    text = "\n".join(sorted(render_trace(t) for t in traces))
    assert (len(traces), hashlib.sha256(text.encode()).hexdigest()) == TRACE_SET_PINS[name, domain]
    assert trace_equiv(image_of(src), image_of(src), depth=4, domain=adversary()) == Equivalent(len(traces))


# depth-7 trace counts under the illtyped domain, as enumeration counted them
# before trace_equiv walked the product of state graphs
DEEP_COUNTS = {"keeper": 722_648, "gate": 488_276}


@pytest.mark.parametrize("name", sorted(DEEP_COUNTS))
def test_deep_self_equivalence_counts_every_trace(name):
    img1, img2 = (image_of(COMPONENTS[name]) for _ in range(2))
    r = trace_equiv(img1, img2, depth=7, domain=PIN_DOMAINS["illtyped"]())
    assert r == Equivalent(DEEP_COUNTS[name])


@pytest.mark.parametrize("domain", sorted(PIN_DOMAINS))
@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_determinised_walk_reaches_each_trace_once(name, domain):
    """`Graph.traces` follows the subset construction, so its set holds as
    many traces as trace_equiv's product walk counts, at every depth."""
    img, img2 = (image_of(COMPONENTS[name]) for _ in range(2))
    for depth in range(1, 5):
        traces = enumerate_traces(img, depth, PIN_DOMAINS[domain]())
        assert len(traces) == trace_equiv(img, img2, depth, PIN_DOMAINS[domain]()).traces


# sha256 of each TRACE_SET_PINS graph walked to depth 4 (graph_numbering):
# its table's pairs, its names maps and its node keys, each list in id order,
# and its nodes' moves by node; taken when each segment kept a cache of its
# renamings
GRAPH_NUMBERING_PINS = {
    ("const", "default"): "01b721cd820c4959c722b130877860284c029027e96973279fb8a8f49371b425",
    ("const", "illtyped"): "d19f6ed1353d2dc077f4f007d027c3311caded1decc0ffc2ed94872687061178",
    ("double", "default"): "797c138a50d739c343d7eddb9c56bad26c8a7729a0a177e711dbc1cf4d1b957f",
    ("double", "illtyped"): "dcf8936ea96d2547382756b8fbbbf05d17cfd60a2dbd21edfd2ca661f2a44854",
    ("cell", "default"): "759679c24fce38280fbb7e9963b433e0c5b36dc301ed69dcb756eed4e832c9b9",
    ("cell", "illtyped"): "3715e61728c01b717b5a037e0e67a382470994a37ae393d52f440e93997c8b1c",
    ("keeper", "default"): "120170b47ac143474167ad93858b7401dd7e421f105f12e8072e3e2af5d1c9b0",
    ("keeper", "illtyped"): "a9eb3decbb0a77a5d26266e6ff73d9a2fe15a5d2e080d8af02fd0fe733466fab",
    ("gate", "default"): "28ccdb80827e230b434b674c7bd58a8bc607456b46a682562e61d1eb0c958a21",
    ("gate", "illtyped"): "1233d090c9e8454de6b03116b17e0805bbe4b5a56b97fb2726dc950f99308822",
    ("bool-return.0", "default"): "3b291b1235b8d0e82e83bcc39f0fae9f13073b9645496eaedd11e0dee51c5449",
    ("bool-return.0", "illtyped"): "7cf0e67f02324c38e9e3159d84fbcc539364f092cb29b64e5e2df8921f72c6ba",
    ("bool-return.1", "default"): "ba77ae92d80c37aeed0535b8d32d7ce7cb255f24e9760be8cb44730b5baf1199",
    ("bool-return.1", "illtyped"): "cec28c5e59b26fc8484cb76a005c5db732cd3c1a9c53535ae7b61687ee7464fb",
    ("callback-param.0", "default"): "6158011bf7c575e0682de3a08e3607cc86fd59921d7fee0cc9329faf621ee99a",
    ("callback-param.0", "illtyped"): "52b260d195ca6608494e8682da0690605b2083b98a807ce87d82ebaade0478b0",
    ("callback-param.1", "default"): "891fe0c1eb69692bd9f58188e19c3078f6b333d9ccb097682b90a2b33174fdec",
    ("callback-param.1", "illtyped"): "0cbaf209016a9b97e4d14705a3e9ca830d627adc25be4125c6b6928572f3dde9",
    ("callback-target.0", "default"): "1cf0be617405db854a843ad33bde6af602a82ec08600c5fc918f7076dac15129",
    ("callback-target.0", "illtyped"): "6b869fa738fb6fc2d80d5674fb249db4b4b77a85482306c80e5d7a74c197f299",
    ("callback-target.1", "default"): "3e5e64738eb10635b8d4ca451a8db6972701a008da115a22bd26d4d9b94f104c",
    ("callback-target.1", "illtyped"): "13895c7c9509fdd3af890500a0dc4f40f05d1295e06981fddd1bc9a6c53d7306",
    ("callback-vs-return.0", "default"): "1cf0be617405db854a843ad33bde6af602a82ec08600c5fc918f7076dac15129",
    ("callback-vs-return.0", "illtyped"): "6b869fa738fb6fc2d80d5674fb249db4b4b77a85482306c80e5d7a74c197f299",
    ("callback-vs-return.1", "default"): "295f79147fb92699034bd84564869e4fb0bae0a1891090ebb3c1ef57aa05daa0",
    ("callback-vs-return.1", "illtyped"): "f183df6413880d3c8f1d52046d273b5819158043e654ef1f184d8dd6087bdd2b",
    ("fresh-vs-static-object.0", "default"): "45361f90ea7921b95bad624aba89f262f9f375aee94f3e95e527a3d1c8e11411",
    ("fresh-vs-static-object.0", "illtyped"): "c6908645447b49832a32f0bbc1cd2a74651a563f7d08efd1a0f8a98e9127bc32",
    ("fresh-vs-static-object.1", "default"): "91a4e0da67f097b9808ade8c27d4c6c5e34b16bf9f8ede0e661da2a395be5a5a",
    ("fresh-vs-static-object.1", "illtyped"): "c105f62442634e1dfff2352b477b6d51cbcd004de2bc02f6d6662a6b1aafb74a",
    ("int-return.0", "default"): "01b721cd820c4959c722b130877860284c029027e96973279fb8a8f49371b425",
    ("int-return.0", "illtyped"): "d19f6ed1353d2dc077f4f007d027c3311caded1decc0ffc2ed94872687061178",
    ("int-return.1", "default"): "3b291b1235b8d0e82e83bcc39f0fae9f13073b9645496eaedd11e0dee51c5449",
    ("int-return.1", "illtyped"): "7cf0e67f02324c38e9e3159d84fbcc539364f092cb29b64e5e2df8921f72c6ba",
    ("length-divergence.0", "default"): "9a39a67effa791f632acfb3e9256a1c01dde49db69f6d0388e8b557f9a9b754d",
    ("length-divergence.0", "illtyped"): "1661425447ce6fc45a74a24ed9d863ad854057b2cc3acb5ea224c438ddb3a838",
    ("length-divergence.1", "default"): "017ca6e13bd537e77796c9adec5fe7fa71ba846f11c03b0ac03968cf8860af47",
    ("length-divergence.1", "illtyped"): "a44f309a667edc7624aae674273d837e164b2b8f76713094a32819e9d01576f8",
    ("null-vs-object.0", "default"): "cbd25a1ef9abe3b6b0cc3e3cb9dbf41975190abe1f6071c9d3de24984a3ec96d",
    ("null-vs-object.0", "illtyped"): "2c72eb46a10033a5c97645c32b20517ab2bdd3e25db7a65382f3d571e1f39d5e",
    ("null-vs-object.1", "default"): "804ceccb77e0b6d41da9edb7d403c9404a3ebb8bd650bb10f9b4627688002399",
    ("null-vs-object.1", "illtyped"): "c25590c3da8048d44e54ffb3cc55feb2934e00add1b7e234bd3997ff472d4092",
    ("stateful-second-round.0", "default"): "c050dc2815ac263cc0de8cca7a234dacf5e61fd59948e9d063f347ed9c1c8634",
    ("stateful-second-round.0", "illtyped"): "2ac37106db5be23942ca20a0d2e5e08b960aee05115553d3185b325a6715f3ae",
    ("stateful-second-round.1", "default"): "aa362e5f5575c91311198f5f62379e04430cfc0cf35b20e3f8cdff0dcb2f3785",
    ("stateful-second-round.1", "illtyped"): "dda80ec645da803398d5162c9dc24031a074c894c1fa57ce55548fd3a41d3e57",
    ("unit-vs-state.0", "default"): "d9bced327471afdcb758f53efbc0c30e74373748a04b5ffa48533df05317ec48",
    ("unit-vs-state.0", "illtyped"): "cf8950d1fb67b571b283ee28122452b06a6511fed0cb859f3ae5a71dd3aa3b5c",
    ("unit-vs-state.1", "default"): "863812343792387ab567b3628489c0cdd9595b2477109e3b01e3f40f4646763f",
    ("unit-vs-state.1", "illtyped"): "fba1f73de9dbf87f81f7f9de76f876c05966188ada6010e8177f18dc534c8196",
    ("registered.0", "register-i"): "81ada6268beb5f1ed7710342fc3d93e1ad329fff0ec237bda9647de28d205d22",
    ("registered.1", "register-i"): "7a6452687f78fd86975d466afba912aab9e0271d0f47ae4994bf37c6b7a9e674",
    ("cell", "register-all"): "28fe67dc87f3599d5a5189ce0d844f3e0a0f161e7e6918dd85fa0b1eebeb5852",
}


def graph_numbering(src, domain) -> str:
    """The digest of GRAPH_NUMBERING_PINS. A node key's knowledge and a
    names map's nonces are left out: masks are drawn from a stream that
    depends on how many compilations ran before (prot._instance)."""
    table = TraceTable()
    graph = Graph(image_of(src), domain, 0, table)
    graph.traces(4)
    nodes = [(sid, pending, nid) for sid, _, pending, nid in graph.keys]
    names = [tuple(m.values()) for m in graph.names]
    moves = [graph.edges[n] for n in sorted(graph.edges)]
    return hashlib.sha256(repr((table.pairs, names, nodes, moves)).encode()).hexdigest()


@pytest.mark.parametrize("name, domain", list(TRACE_SET_PINS))
def test_graph_numbering_is_pinned(name, domain):
    """Renaming each graph edge afresh gives the pair ids, names ids and
    node ids that a cache of renamings per segment gave."""
    adversary = {**PIN_DOMAINS, **REGISTER_DOMAINS}[domain]
    src = {**PINNED_SOURCES, **REGISTER_SOURCES}[name]
    assert graph_numbering(src, adversary()) == GRAPH_NUMBERING_PINS[name, domain]


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
    """The engine's enumeration without its memos: every injection runs its
    segment. Returns the canonical trace set, the number of injections, the
    distinct (fingerprint, injection) keys among them, and the distinct
    (knowledge, pending) pairs of the nodes expanded."""
    tracer = ComponentTracer(image)
    results, keys, menus, injections = {()}, set(), set(), 0
    seeded = rename((), {}, tracer.seed_masks)[1]
    frontier = [(tracer.initial(), (), seeded, tracer.initial_knowledge(), ())]
    for _ in range(depth):
        nxt = []
        for state, trace, names, knowledge, pending in frontier:
            fp = state.fingerprint()
            menus.add((knowledge, pending))
            for inj in engine._injections(tracer, knowledge, pending, domain):
                injections += 1
                keys.add((fp, inj))
                seg, k2, p2 = _apply(tracer, state, inj, knowledge, pending)
                actions, n2 = rename((seg.action, seg.reply), names)
                t2 = trace + actions
                results.add(t2)
                if seg.state is not None:
                    nxt.append((seg.state, t2, n2, k2, p2))
        frontier = nxt
    return results, injections, keys, menus


MEMO_CASES = {
    **{(name, domain): (COMPONENTS[name], PIN_DOMAINS[domain]) for name in COMPONENTS for domain in PIN_DOMAINS},
    **{(name, "register-i"): (src, REGISTER_DOMAINS["register-i"]) for name, src in REGISTER_SOURCES.items()},
}

# MEMO_CASES by test id: keeper's cases by their domain alone
SEGMENT_CASES = {(d if n == "keeper" else f"{n}/{d}"): (n, d) for n, d in sorted(MEMO_CASES)}


class TestMemoisedEnumeration:
    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_memoised_equals_plain(self, case):
        src, domain = MEMO_CASES[case]
        img = image_of(src)
        plain = plain_traces(img, 4, domain())[0]
        assert enumerate_traces(img, depth=4, domain=domain()) == plain

    @staticmethod
    def counted_run(img, depth, domain, monkeypatch):
        """One enumeration on a graph of its own, with its runs from scratch
        (`_enter` calls: call prefixes and every other move), its continued
        calls (the `_run` calls that no `_enter` makes), its `rename` calls
        and the (knowledge, pending) of each `_injections` call counted."""
        calls = Counter()
        menus = Counter()
        enter, run = ComponentTracer._enter, ComponentTracer._run
        rename_, injections = engine.rename, engine._injections

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        def menu(tracer, knowledge, pending, domain):
            menus[knowledge, pending] += 1
            return injections(tracer, knowledge, pending, domain)

        monkeypatch.setattr(ComponentTracer, "_enter", counting("entered", enter))
        monkeypatch.setattr(ComponentTracer, "_run", counting("ran", run))
        monkeypatch.setattr(engine, "rename", counting("renamed", rename_))
        monkeypatch.setattr(engine, "_injections", menu)
        graph = Graph(img, domain, 0, TraceTable())
        traces = graph.traces(depth)
        monkeypatch.undo()
        calls["continued"] = calls.pop("ran") - calls["entered"]
        return traces, calls, menus, graph

    # (call prefixes, calls) run by each MEMO_CASES enumeration at depth 4
    SEGMENT_RUNS = {
        ("cell", "default"): (8, 12),
        ("cell", "illtyped"): (10, 80),
        ("const", "default"): (2, 2),
        ("const", "illtyped"): (2, 8),
        ("double", "default"): (3, 6),
        ("double", "illtyped"): (4, 48),
        ("gate", "default"): (14, 28),
        ("gate", "illtyped"): (18, 216),
        ("keeper", "default"): (45, 75),
        ("keeper", "illtyped"): (45, 540),
        ("registered.0", "register-i"): (10, 23),
        ("registered.1", "register-i"): (5, 11),
    }

    @pytest.mark.parametrize("case", list(SEGMENT_CASES))
    def test_each_distinct_segment_runs_once(self, case, monkeypatch):
        """A call runs its prefix once per distinct (fingerprint, entry point)
        and continues once per distinct (fingerprint, injection), as every
        prefix here pauses; any other move runs once per distinct
        (fingerprint, injection), a registration's included, as its
        injection carries the nonce it registers."""
        name, domain_name = SEGMENT_CASES[case]
        src, domain = MEMO_CASES[name, domain_name]
        img = image_of(src)
        _, injections, keys, _ = plain_traces(img, 4, domain())
        _, calls, _, _ = self.counted_run(img, 4, domain(), monkeypatch)
        call_keys = [(fp, inj) for fp, inj in keys if inj[0] == "call"]
        prefixes = {(fp, inj[1]) for fp, inj in call_keys}
        assert calls["entered"] == len(prefixes) + len(keys) - len(call_keys)
        assert calls["continued"] == len(call_keys)
        assert (len(prefixes), len(call_keys)) == self.SEGMENT_RUNS[name, domain_name]
        if name == "keeper":
            assert 5 * (calls["entered"] + calls["continued"]) <= injections

    @pytest.mark.parametrize("domain", sorted(PIN_DOMAINS))
    def test_renaming_runs_once_per_graph_edge(self, domain, monkeypatch):
        """One `rename` seeds the map, and each edge of the graph renames its
        segment once: far fewer renamings than traces."""
        img = image_of(COMPONENTS["keeper"])
        traces, calls, _, graph = self.counted_run(img, 4, PIN_DOMAINS[domain](), monkeypatch)
        assert calls["renamed"] == 1 + sum(map(len, graph.edges.values()))
        assert 5 * calls["renamed"] <= len(traces)

    @pytest.mark.parametrize(
        "case", [("keeper", "default"), ("keeper", "illtyped"), ("registered.0", "register-i")], ids="/".join
    )
    def test_each_menu_is_built_once(self, case, monkeypatch):
        src, domain = MEMO_CASES[case]
        img = image_of(src)
        menus = plain_traces(img, 4, domain())[3]
        _, _, built, _ = self.counted_run(img, 4, domain(), monkeypatch)
        assert set(built) == menus
        assert set(built.values()) == {1}

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
            "masks": lambda s: s.add_mask(2, 99, Nonce("m", 0)),
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
        assert c.fingerprint() == fp

    def test_injections_leave_the_suspended_state_unchanged(self, cell_image):
        tracer = ComponentTracer(cell_image)
        st = tracer.initial()
        before = (st.fingerprint(), st.pc, dict(st.regs), dict(st.flags))
        domain = PIN_DOMAINS["illtyped"]()
        for inj in _injections(tracer, tracer.initial_knowledge(), (), domain):
            _apply(tracer, st, inj, tracer.initial_knowledge(), ())
        assert (st.fingerprint(), st.pc, dict(st.regs), dict(st.flags)) == before


@pytest.mark.parametrize("domain", sorted({**PIN_DOMAINS, **REGISTER_DOMAINS}))
@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_shared_table_interns_equal_traces_alike(name, domain):
    """The graphs of two compilations of one component walked with one
    shared table, as `trace_equiv` walks its two sides: the second adds no
    label, and both give the memo-free trace set."""
    adversary = {**PIN_DOMAINS, **REGISTER_DOMAINS}[domain]
    table = TraceTable()
    g1, g2 = (Graph(image_of(COMPONENTS[name]), adversary(), 0, table) for _ in range(2))
    traces = g1.traces(3)
    labels = len(table.pairs)
    assert g2.traces(3) == traces == plain_traces(image_of(COMPONENTS[name]), 3, adversary())[0]
    assert len(table.pairs) == labels
    assert [pid for pid, _ in g1.moves(Graph.ROOT)] == [pid for pid, _ in g2.moves(Graph.ROOT)]
    assert all(t[:k] in traces for t in traces for k in range(0, len(t), 2))


def tuple_set_divergence(img1, img2, depth):
    """The divergence pair chosen from the two components' trace sets as
    tuples, each enumerated without memos or table."""
    t1s, t2s = (plain_traces(img, depth, AdversaryDomain())[0] for img in (img1, img2))
    assert t1s != t2s
    return _tuple_choice(t1s, t2s)


def _tuple_choice(t1s, t2s):
    only1 = t1s - t2s
    if only1:
        t1 = min(only1, key=_trace_key)
        return t1, _best_mate(t1, t2s)
    t2 = min(t2s - t1s, key=_trace_key)
    return _best_mate(t2, t1s), t2


# one level-1 difference, which ticks (m), and an unticked one at level 2 (set, then get)
TICK_FIRST = """
class c {
  c(v:Int){}
  v : Int;
  public m() : c()->Int { return %s; }
  public set() : c()->Unit { return this.v = %s; unit; }
  public get() : c()->Int { return this.v; }
};
object o : c { v = 0; };
"""
TICK_FIRST_PAIR = (TICK_FIRST % ("var x : c = null; x.get()", 1), TICK_FIRST % (0, 2))


# each side's source of every pair: the corpus pairs, the test-local pairs
# of tests/test_backtranslator.py, and TICK_FIRST's
DIVERGENT_PAIRS = {
    **INEQUIVALENT_PAIRS,
    **{f"local/{name}": (a.replace("@@", ha), b.replace("@@", hb)) for name, ((a, ha), (b, hb), _) in LOCAL_PAIRS.items()},
    "local/tick-first": TICK_FIRST_PAIR,
}


@functools.cache
def _plain_tuple_set(name, side, domain):
    """The memo-free trace set of one side of a divergent pair at depth 4."""
    return frozenset(plain_traces(image_of(DIVERGENT_PAIRS[name][side]), 4, PIN_DOMAINS[domain]())[0])


# (pair, depth, order, domain); a corpus pair at depth 3 in its own order under
# the default domain goes by the pair's name alone
DIVERGENCE_CASES = {
    (name if (name in INEQUIVALENT_PAIRS, depth, order, domain) == (True, 3, "fwd", "default") else f"{name}/depth-{depth}/{order}/{domain}"): (name, depth, order, domain)
    for name in sorted(DIVERGENT_PAIRS)
    for depth in (1, 2, 3, 4)
    for order in ("fwd", "rev")
    for domain in sorted(PIN_DOMAINS)
}


@pytest.mark.parametrize("case", list(DIVERGENCE_CASES))
def test_divergence_is_chosen_as_from_tuple_sets(case):
    """Lock-step trace_equiv, stopped early or not, picks the pair chosen
    from the whole depth-`depth` tuple sets; the traces of a level-by-level
    search to depth d are those of length at most 2d."""
    name, depth, order, domain = DIVERGENCE_CASES[case]
    sides = (0, 1) if order == "fwd" else (1, 0)
    t1s, t2s = ({t for t in _plain_tuple_set(name, side, domain) if len(t) <= 2 * depth} for side in sides)
    img1, img2 = (image_of(DIVERGENT_PAIRS[name][side]) for side in sides)
    r = trace_equiv(img1, img2, depth=depth, domain=PIN_DOMAINS[domain]())
    if t1s == t2s:
        assert r == Equivalent(len(t1s))
    else:
        assert (r.t1, r.t2) == _tuple_choice(t1s, t2s)


def test_a_ticked_first_difference_does_not_stop_the_search():
    """Stopping at the first level that differs would pick the ticked trace;
    the unticked difference one level on is preferred, as at full depth."""
    img1, img2 = (image_of(src) for src in TICK_FIRST_PAIR)
    first = tuple_set_divergence(img1, img2, 1)
    assert isinstance(first[0][-1], Tick)
    for depth in (2, 3):
        r = trace_equiv(img1, img2, depth=depth)
        assert (r.t1, r.t2) == tuple_set_divergence(img1, img2, depth)
        assert len(r.t1) == 4 and isinstance(r.t1[-1], ReturnOut)


def test_an_early_stop_runs_fewer_segments(monkeypatch):
    """int-return differs at level 1: its depth-3 trace_equiv runs fewer
    segments than the two whole enumerations."""
    runs = [0]
    enter = ComponentTracer._enter

    def counted(*args, **kwargs):
        runs[0] += 1
        return enter(*args, **kwargs)

    monkeypatch.setattr(ComponentTracer, "_enter", counted)
    img1, img2 = (image_of(src) for src in INEQUIVALENT_PAIRS["int-return"])
    assert not trace_equiv(img1, img2, depth=3).equivalent
    stopped, runs[0] = runs[0], 0
    for img in (img1, img2):
        enumerate_traces(img, depth=3)
    assert stopped < runs[0]


def test_equivalence_materialises_no_trace(monkeypatch):
    """An Equivalent verdict is counted on the product of the graphs: it
    walks no graph's traces and renames once per graph edge. Of its 1 110
    segments (as many as the per-trace search ran, which made 11 544
    extensions and renamings), the calls share one prefix per state and
    entry point."""
    calls = Counter()

    def counting(attr, fn):
        def counted(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return counted

    counted = [(ComponentTracer, "_enter"), (ComponentTracer, "_run"), (Graph, "traces")]
    for owner, attr in counted + [(engine, "rename"), (engine, "_segment")]:
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    img1, img2 = (image_of(COMPONENTS["keeper"]) for _ in range(2))
    assert trace_equiv(img1, img2, depth=4, domain=PIN_DOMAINS["illtyped"]()) == Equivalent(5773)
    assert calls["traces"] == 0
    # 1 080 calls from 90 prefixes, and 30 other moves; one renaming per
    # graph edge, and one per graph to seed its map
    assert calls["_segment"] == 1110
    assert (calls["_enter"], calls["_run"] - calls["_enter"], calls["rename"]) == (90 + 30, 1080, 1110 + 2)


def count_steps(monkeypatch) -> list:
    """A counter of `MachineState.step` calls from now on."""
    steps = [0]
    step = MachineState.step

    def counted(st):
        steps[0] += 1
        return step(st)

    monkeypatch.setattr(MachineState, "step", counted)
    return steps


def test_calls_share_sys_and_the_entry_checks(monkeypatch):
    """Keeper under illtyped at depth 4 runs sys's forwardCall, the entry
    trampoline and the r0/r5 entry checks once per state and entry point:
    7 410 aim steps, against 23 250 when each call ran them itself. The
    engine makes one `step()` call per step it runs, which perfbench's
    count of segment steps relies on."""
    steps = count_steps(monkeypatch)
    assert len(enumerate_traces(image_of(COMPONENTS["keeper"]), depth=4, domain=PIN_DOMAINS["illtyped"]())) == 5773
    assert steps[0] == 7410


def scratch_call(tracer, state, ep, recv, args, steps):
    """A call run by one `_enter` with every register it loads, as each call
    ran before calls shared prefixes: (forwarded, reply, next state, the
    steps of `steps` it took). `forwarded` is found apart from the engine:
    whether plain `step()`s of a clone, started alike, reach `ep` within the
    steps the run took to its reply."""
    regs = {3: ep.mid, 4: ep.off, 5: RESUME_PAD, 6: recv, **dict(enumerate(args, 7))}
    pc = Address(SYS_ID, FORWARDCALL_EP)
    before = steps[0]
    _, reply, nxt = tracer._enter(state, pc, regs)
    n = steps[0] - before
    st = state.clone()
    st.regs, st.pc = {}, pc
    st.reset_flags()
    for i, w in regs.items():
        st.set_reg(i, w)
    forwarded = st.pc == ep
    for _ in range(n):
        st.step()
        forwarded = forwarded or st.pc == ep
    return forwarded, reply, nxt, n


def check_shared_prefixes(img, domain, monkeypatch) -> int:
    """Enumerate `img` at depth 4, checking each call, run from the prefix
    its state and entry point share, against `scratch_call`: the action
    (which shows `forwarded`), the reply, the next state and the step count
    must be equal. Returns the number of calls checked."""
    steps = count_steps(monkeypatch)
    enter, call_method = ComponentTracer._enter, ComponentTracer.call_method
    entered, prefix_steps, checks = [0], {}, [0]

    def counted_enter(*args, **kwargs):
        before = steps[0]
        out = enter(*args, **kwargs)
        entered[0] = steps[0] - before
        return out

    def summary(st):
        return None if st is None else (st.fingerprint(), st.pc, st.regs, st.flags)

    def checked(tracer, state, ep, recv, args, prefix=None):
        assert prefix is not None
        first = prefix.run is None
        before = steps[0]
        seg = call_method(tracer, state, ep, recv, args, prefix)
        if first:
            prefix_steps[prefix] = entered[0]
        shared = steps[0] - before + (0 if first else prefix_steps[prefix])
        forwarded, reply, nxt, scratch = scratch_call(tracer, state, ep, recv, args, steps)
        if forwarded:
            action = CallIn((ep.mid, ep.off), (SYS_ID, 0, 0, 0, 0, FORWARDRETURN_EP, recv, *args))
        else:
            action = CallIn((SYS_ID, FORWARDCALL_EP), (0, 0, 0, ep.mid, ep.off, RESUME_PAD, recv, *args))
        assert (seg.action, seg.reply, shared, summary(seg.state)) == (action, reply, scratch, summary(nxt))
        checks[0] += 1
        return seg

    monkeypatch.setattr(ComponentTracer, "_enter", counted_enter)
    monkeypatch.setattr(ComponentTracer, "call_method", checked)
    enumerate_traces(img, depth=4, domain=domain)
    monkeypatch.undo()
    return checks[0]


# a component whose classes call each other, kept out of corpus.py, whose
# COMPONENTS perfbench pins by count: a call of c.go is forwarded into c's
# module and, inside the same segment, forwarded again into helper's
CROSS_CLASS = """
class-decl i { ping : i()->Int };
obj-decl io : i;
class helper {
  helper(n:Int){ this.n = n; }
  n : Int;
  public bump(k) : helper(Int)->Int { return this.n = this.n + k; io.ping(); this.n; }
};
object h : helper { n = 0; };
class c {
  c(){}
  public go(k) : c(Int)->Int { return h.bump(k) + 1; }
};
object o : c { };
"""

# CROSS_CLASS's depth-4 trace sets, pinned as TRACE_SET_PINS are
CROSS_CLASS_PINS = {
    "default": (934, "2fe8b494ec66a91bf0f30a9938c62e20f34b3ba8ed5f8c645069bca8bec5de4e"),
    "illtyped": (13_748, "6fb72b7a47af6c7e6f81904a77096d1c017793154306a847f437d69ca433a675"),
}


@pytest.mark.parametrize("domain", sorted(CROSS_CLASS_PINS))
def test_classes_that_call_each_other_trace_through_sys(domain):
    """A call of c.go reaches io.ping through helper: two forwards into
    protected modules in one segment. Its trace set is pinned and equals
    that of a second compilation; SHARED_PREFIX_CASES holds it too."""
    img = image_of(CROSS_CLASS)
    traces = enumerate_traces(img, depth=4, domain=PIN_DOMAINS[domain]())
    text = "\n".join(sorted(render_trace(t) for t in traces))
    assert (len(traces), hashlib.sha256(text.encode()).hexdigest()) == CROSS_CLASS_PINS[domain]
    [go] = [a for s, a in img.table.em.items() if s.name == "go"]
    assert any(isinstance(t[1], CallOut) for t in traces if t and t[0].addr == (go.mid, go.off))
    assert trace_equiv(img, image_of(CROSS_CLASS), depth=4, domain=PIN_DOMAINS[domain]()) == Equivalent(len(traces))


SHARED_PREFIX_CASES = {
    **MEMO_CASES,
    ("cell", "register-all"): (COMPONENTS["cell"], REGISTER_DOMAINS["register-all"]),
    **{("cross-class", domain): (CROSS_CLASS, PIN_DOMAINS[domain]) for domain in PIN_DOMAINS},
}


@pytest.mark.parametrize("case", sorted(SHARED_PREFIX_CASES), ids="/".join)
def test_shared_prefixes_run_as_from_scratch(case, monkeypatch):
    src, domain = SHARED_PREFIX_CASES[case]
    assert check_shared_prefixes(image_of(src), domain(), monkeypatch) > 0


def sys_variant(patch: str):
    """cell's image with the `movi 16, 0` of sys's forwardCall made
    `movi 7, 0` (it names the first argument), three `zero`s, or `movi 3, 0`
    (its boundary jump then exits to unprotected memory, a Callback! that
    reads the arguments)."""
    img = image_of(COMPONENTS["cell"])
    [off] = [o for o in range(len(SYS_WORDS)) if SYS_WORDS[o : o + 3] == (3, 16, 0)]
    words = {"names-r7": (3, 7, 0), "zero": (9, 9, 9), "exit": (3, 3, 0)}[patch]
    img.code[SYS_ID] = SYS_WORDS[:off] + words + SYS_WORDS[off + 3 :]
    return img


@pytest.mark.parametrize("patch", ["names-r7", "zero", "exit"])
def test_a_sys_that_touches_the_arguments_pauses_earlier(patch, monkeypatch):
    """Each prefix pauses inside sys, before the instruction that names r7 or
    clears every register, or before the boundary exit, where cell's own sys
    lets it reach the method's entry; every call still equals its run from
    scratch."""

    def paused_at(img):
        tracer = ComponentTracer(img)
        [(_, mask)] = list(img.table.eo.items())
        [put] = [a for s, a in img.table.em.items() if s.name == "put"]
        prefix = CallPrefix(2)
        tracer.call_method(tracer.booted, put, mask, (1,), prefix)
        st, fuel, _ = prefix.run[2]
        return st.pc, tracer.segment_fuel - fuel

    (pc, steps), (pc0, steps0) = paused_at(sys_variant(patch)), paused_at(image_of(COMPONENTS["cell"]))
    assert pc.mid == SYS_ID and pc0.mid != SYS_ID and steps < steps0
    assert check_shared_prefixes(sys_variant(patch), PIN_DOMAINS["illtyped"](), monkeypatch) > 0


class Twin(tuple):
    """A move offered a second time: the same injection, after which the
    environment knows one more word of the component's class."""


def offer_each_move_twice(monkeypatch):
    """Make every node nondeterministic: each move's twin gives the same
    label and leads to another node, as it teaches one more typed word."""
    injections, learn = engine._injections, engine._learn

    def twice(tracer, knowledge, pending, domain):
        return [m for inj in injections(tracer, knowledge, pending, domain) for m in (inj, Twin(inj))]

    def learn_more(tracer, inj, seg, knowledge, pending):
        knowledge, pending = learn(tracer, inj, seg, knowledge, pending)
        if isinstance(inj, Twin):
            knowledge = knowledge.learn(Nonce("twin", 0), tracer.initial_knowledge().typed[0][1])
        return knowledge, pending

    monkeypatch.setattr(engine, "_injections", twice)
    monkeypatch.setattr(engine, "_learn", learn_more)


@pytest.mark.parametrize("name", ["cell", "stateful-second-round"])
def test_nondeterministic_labels_are_determinised(name, monkeypatch):
    """Under twinned moves, one label leads to several nodes; the graph's
    traces, and trace_equiv's count and verdict, agree with the memo-free
    tuple sets."""
    offer_each_move_twice(monkeypatch)
    depth = 3
    sources = INEQUIVALENT_PAIRS[name] if name in INEQUIVALENT_PAIRS else (COMPONENTS[name],) * 2
    img1, img2 = (image_of(src) for src in sources)
    graph = Graph(img1, AdversaryDomain(), 0, TraceTable())
    traces = graph.traces(depth)
    assert any(len(reached) > 1 for n in list(graph.edges) for reached in graph.step((n,)).values())
    t1s, t2s = (plain_traces(img, depth, AdversaryDomain())[0] for img in (img1, img2))
    assert traces == t1s
    r = trace_equiv(img1, img2, depth=depth)
    if name == "cell":
        assert t1s == t2s and r == Equivalent(len(t1s))
    else:
        assert t1s != t2s and (r.t1, r.t2) == _tuple_choice(t1s, t2s)


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

    def test_divergence_mirrors_when_only_the_second_set_has_more(self):
        """When the first set holds no trace the second lacks, the pair is the
        second set's least extra trace, unticked first and then shortest, and
        its best mate in the first, in that order."""
        call = CallIn((2, 16), (1,))
        r1, r2, r3 = (ReturnOut((0, 40), v, 2) for v in (1, 2, 3))
        t1s = {(), (call, r1)}
        t2s = t1s | {(call, Tick()), (call, r3), (call, r2), (call, r2, call, r1)}
        assert _divergence(t1s, t2s) == Inequivalent((call, r1), (call, r2))
        assert _divergence(t2s, t1s) == Inequivalent((call, r2), (call, r1))

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
