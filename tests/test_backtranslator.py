"""Back-translation: skeleton, emulation, differentiation, witness correctness."""
import hashlib
import random
import re
import sys
import zlib
from collections import Counter

import pytest

from jemaim.aim import aimod
from jemaim.compiler.encoding import encode_class, encode_value
from jemaim.compiler.pipeline import compaim
from jemaim.backtrans.algo import PlugFailure, algo, verify_witness
from jemaim.backtrans.diff import diff
from jemaim.backtrans.emulate import (
    EmulState,
    Fail,
    Frame,
    emulate,
    emulate_action,
    emulate_value,
    integer_for,
)
from jemaim.backtrans.interface import ImportMismatch, build_interface
from jemaim.backtrans.skel import LIBRARY, MAIN, MethodCode, UnknownMethod, create_new, get_by_name, skel
from jemaim.jem import ast, parser
from jemaim.jem.compat import EMPTY, compat, join, plug, plug_errors
from jemaim.jem.interp import run
from jemaim.jem.parser import JemSyntaxError, parse_component
from jemaim.jem.printer import render_component
from jemaim.jem.typecheck import typecheck
from jemaim.traces.actions import CallIn, CallOut, FuelExceeded, ReturnIn, ReturnOut, Tick, rename
from jemaim.traces.engine import AdversaryDomain, ComponentTracer
from jemaim.traces.equiv import first_divergence, trace_equiv

from corpus import COMPONENTS, INEQUIVALENT_PAIRS, WHOLE_PROGRAMS


def parse_ok(src):
    comp = parse_component(src)
    errs = typecheck(comp)
    assert errs == [], errs
    return comp


def iface_for(src):
    c = parse_ok(src)
    img = compaim(c)
    return c, img, build_interface(c, c, img, img)


CALLBACK_SRC = INEQUIVALENT_PAIRS["callback-param"][0]


class TestSkeleton:
    def test_empty_imports_gives_helper_machinery_only(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        context = skel(c, iface, {})
        names = [cl.name for cl in context.classes]
        assert "Helper" in names and all(n == "Helper" or n.startswith("listof-") for n in names)
        assert typecheck(context) == []

    def test_stub_classes_with_defaults(self):
        c, img, iface = iface_for(CALLBACK_SRC)
        context = skel(c, iface, {})
        stub = context.cls("i")
        assert stub is not None
        take = stub.method("take")
        assert isinstance(take.body, ast.Lit) and take.body.value == 0
        assert any(o.name == "static-for-i" for o in stub.objects)
        assert any(o.name == "io" for o in stub.objects)

    def test_skeleton_plugs_with_the_component(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        context = skel(c, iface, {})
        whole = plug(context, c)
        assert whole is not EMPTY
        r = run(whole, fuel=100_000)
        assert r.terminated and r.value == 0

    def test_diverge_runs_out_of_fuel(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        context = skel(c, iface, {})
        m = context.cls("Helper").method("main")
        m.body = ast.Seq(ast.Call(ast.Var("oc"), "diverge", []), ast.Lit(0))
        whole = plug(context, c)
        assert whole is not EMPTY
        assert run(whole, fuel=50_000).kind == "fuel"

    def test_helper_step_machinery(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        context = skel(c, iface, {})
        m = context.cls("Helper").method("main")
        m.body = ast.Seq(
            ast.Call(ast.Var("oc"), "incrStep", []),
            ast.If(
                ast.Call(ast.Var("oc"), "isStep", [ast.Lit(1)]),
                ast.Lit(5),
                ast.Lit(6),
            ),
        )
        r = run(plug(context, c), fuel=100_000)
        assert r.value == 5

    def test_mismatched_imports_rejected(self):
        c1 = parse_ok(COMPONENTS["const"])
        c2 = parse_ok(CALLBACK_SRC)  # imports an interface c1 does not
        with pytest.raises(ImportMismatch):
            build_interface(c1, c2, compaim(c1), compaim(c2))

    @pytest.mark.parametrize(
        "src",
        [
            *COMPONENTS.values(),
            *(side for pair in INEQUIVALENT_PAIRS.values() for side in pair),
            "class c { c(){} public get() : c()->Int { return 1; } }; object p : c { }; object o : c { };",
        ],
        ids=[*COMPONENTS, *(f"{name}/{k}" for name in INEQUIVALENT_PAIRS for k in (1, 2)), "two-objects"],
    )
    def test_exported_ids_are_the_tracer_seeding(self, src):
        """The canonical id of each exported object is the name the tracer's
        renaming seeds its mask with; every corpus component exports one
        object, so a component with two, declared out of table order, joins."""
        c, img, iface = iface_for(src)
        seed_masks = ComponentTracer(img).seed_masks
        names = rename((), {}, seed_masks)[1]
        assert [cid for _, _, cid, _ in iface.exported_objects] == [names[m] for m in seed_masks]


class TestEmulateValues:
    def test_primitive_values(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        st = EmulState(iface)
        assert emulate_value(1, ast.T_UNIT, st).value == ast.UNIT
        assert emulate_value(2, ast.T_BOOL, st).value is True
        assert emulate_value(3, ast.T_BOOL, st).value is False
        assert emulate_value(7, ast.T_INT, st).value == 7
        with pytest.raises(Fail):
            emulate_value(7, ast.T_BOOL, st)
        with pytest.raises(Fail):
            emulate_value(2, ast.T_UNIT, st)

    def test_integer_for(self):
        assert integer_for(5) == 5
        assert integer_for("N3") == 0
        with pytest.raises(Fail):
            integer_for("$sym")

    def test_known_static_object(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        st = EmulState(iface)
        assert emulate_value("N0", "c", st) == get_by_name("c", 1)

    def test_unknown_internal_id_fails(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        st = EmulState(iface)
        with pytest.raises(Fail):
            emulate_value("N9", "c", st)

    def test_registered_external_id_creates(self):
        from jemaim.compiler.encoding import encode_class

        c, img, iface = iface_for(CALLBACK_SRC)
        st = EmulState(iface)
        st.R["N5"] = encode_class("i")
        e = emulate_value("N5", "i", st)
        assert "N5" in st.V and e == create_new("i", st.V["N5"][1])

    def test_unregistered_external_id_fails(self):
        c, img, iface = iface_for(CALLBACK_SRC)
        st = EmulState(iface)
        with pytest.raises(Fail):
            emulate_value("N5", "i", st)

    def test_null_at_object_types(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        st = EmulState(iface)
        assert emulate_value(0, "c", st).value == ast.NULL
        assert emulate_value(0, ast.T_OBJ, st).value == ast.NULL


class TestEmulateActions:
    def test_method_call_produces_guarded_call(self):
        c, img, iface = iface_for(COMPONENTS["double"])
        [addr] = [a for s, a in img.table.em.items() if s.name == "dbl" and a.mid != 1]
        st = EmulState(iface)
        emulate_action(CallIn((addr.mid, addr.off), (1, 0, 0, 0, 0, 48, "N0", 1)), st)
        assert list(st.code) == [MAIN] and list(st.code[MAIN].blocks) == [0]
        assert st.i == 1 and len(st.frames) == 1 and st.frames[0].block == 0

    def test_bypassing_sys_fails(self):
        c, img, iface = iface_for(COMPONENTS["double"])
        [addr] = [a for s, a in img.table.em.items() if s.name == "dbl" and a.mid != 1]
        st = EmulState(iface)
        with pytest.raises(Fail):
            emulate_action(CallIn((addr.mid, addr.off), (0, 0, 0, 0, 0, 40, "N0", 1)), st)

    def test_null_receiver_fails(self):
        c, img, iface = iface_for(COMPONENTS["double"])
        [addr] = [a for s, a in img.table.em.items() if s.name == "dbl" and a.mid != 1]
        st = EmulState(iface)
        with pytest.raises(Fail):
            emulate_action(CallIn((addr.mid, addr.off), (1, 0, 0, 0, 0, 48, 0, 1)), st)

    def test_returnback_without_call_fails(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        st = EmulState(iface)
        with pytest.raises(Fail):
            emulate_action(ReturnIn((1, 48), 1, 0), st)

    def test_returnback_wrong_id_fails(self):
        c, img, iface = iface_for(CALLBACK_SRC)
        st = EmulState(iface)
        key = next(k for k in iface.methods if isinstance(k[0], str))
        emulate_action(CallOut(key, (0, 0, 0, 0, 0, 48, "$x")), st)
        with pytest.raises(Fail):
            emulate_action(ReturnIn((1, 48), 5, 7), st)

    def test_callback_then_returnback_balances(self):
        c, img, iface = iface_for(CALLBACK_SRC)
        [addr] = [a for s, a in img.table.em.items() if s.name == "go" and a.mid != 1]
        key = next(k for k in iface.methods if isinstance(k[0], str))
        st = EmulState(iface)
        emulate_action(CallIn((addr.mid, addr.off), (1, 0, 0, 0, 0, 48, "N0")), st)
        emulate_action(CallOut(key, (0, 0, 0, 0, 0, 48, "$obj", 5)), st)
        assert st.here() == ("i", "take")
        emulate_action(ReturnIn((1, 48), 9, 0), st)
        assert st.here() == MAIN
        assert [i for i, _ in st.code["i", "take"].returns] == [2]
        assert len(st.frames) == 1  # the original method call is still open

    def test_forwardcall_misuse_fails(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        st = EmulState(iface)
        with pytest.raises(Fail):
            emulate_action(CallIn((1, 32), (0, 0, 0, 1, 0, 40, 0)), st)

    def test_testobj_of_unknown_fails_and_registered_passes(self):
        from jemaim.compiler.encoding import encode_class

        c, img, iface = iface_for(COMPONENTS["const"])
        st = EmulState(iface)
        with pytest.raises(Fail):
            emulate_action(CallIn((1, 0), (0, 0, 0, 0, 0, 40, 0, "N4", encode_class("c"))), st)
        st2 = EmulState(iface)
        emulate_action(CallIn((1, 0), (0, 0, 0, 0, 0, 40, 0, "N0", encode_class("c"))), st2)
        assert isinstance(st2.code[MAIN].blocks[0][-1].value, ast.InstanceOf)

    def test_register_twice_fails(self):
        from jemaim.compiler.encoding import encode_class

        c, img, iface = iface_for(COMPONENTS["const"])
        st = EmulState(iface)
        enc = encode_class("c")
        emulate_action(CallIn((1, 16), (0, 0, 0, 0, 0, 40, 0, "N7", enc)), st)
        st.frames.pop()
        with pytest.raises(Fail):
            emulate_action(CallIn((1, 16), (0, 0, 0, 0, 0, 40, 0, "N7", enc)), st)


# a component taking an imported interface's object, beside a second interface
RULES_SRC = """
class-decl i { ping : i()->Int };
class-decl j { pong : j()->Int };
obj-decl io : i;
class c {
  c(){}
  public get() : c()->Int { return 1; }
  public use(x) : c(i)->Int { return 0; }
};
object o : c { };
"""


# the rules that no corpus trace reaches
EMULATION_RULES = (
    "value-retyped",
    "value-unmakeable",
    "value-class-mismatch",
    "address-unknown",
    "tick-in-prefix",
    "segment-fuel-in-prefix",
    "forwardCall-repeat-caller",
    "forwardCall-bad-target",
    "returnback-bad-address",
    "return-without-call",
)


def rule_prefixes(img) -> dict:
    """rule -> a prefix built by hand whose last action emulation refuses by
    that rule, for RULES_SRC's image `img`; N0 is the static object o, of class c."""
    get, use = ({s.name: a for s, a in img.table.methods().items()}[m] for m in ("get", "use"))
    call_get = CallIn(tuple(get), (1, 0, 0, 0, 0, 48, "N0"))

    def call_use(x):
        return CallIn(tuple(use), (1, 0, 0, 0, 0, 48, "N0", x))

    def register(w, cls):  # registerObj(w, encode_class(cls)) and its reply
        return [CallIn((1, 16), (0, 0, 0, 0, 0, 40, 0, w, encode_class(cls))), ReturnOut((0, 40), 1, 1)]

    return {
        "value-retyped": [call_use("N0")],
        "value-unmakeable": [*register("N5", "c"), call_use("N5")],
        "value-class-mismatch": [*register("N5", "j"), call_use("N5")],
        "address-unknown": [CallIn((get.mid, get.off + 1), (1, 0, 0, 0, 0, 48, "N0"))],
        "tick-in-prefix": [call_get, Tick()],
        "segment-fuel-in-prefix": [call_get, FuelExceeded()],
        "forwardCall-repeat-caller": [call_get, CallIn((1, 32), (0, 0, 0, get.mid, get.off, 40))],
        "forwardCall-bad-target": [CallIn((1, 32), (0, 0, 0, get.mid, get.off, 40))],
        "returnback-bad-address": [call_get, ReturnIn((get.mid, 0), 1, 0)],
        "return-without-call": [ReturnOut((0, 40), 1, 2)],
    }


@pytest.mark.parametrize("rule", EMULATION_RULES)
def test_emulation_names_the_rule_that_refuses(rule):
    """Each of these rules refuses the last action of its prefix, and
    emulation reports it by index and name."""
    c, img, iface = iface_for(RULES_SRC)
    prefix = rule_prefixes(img)[rule]
    assert emulate(prefix, iface).failed == f"action {len(prefix) - 1}: {rule}"


class TestTerminationIsEmulationFailure:
    @pytest.mark.parametrize("name", sorted(COMPONENTS))
    def test_biconditional_on_random_traces(self, name):
        c = parse_ok(COMPONENTS[name])
        img = compaim(c)
        iface = build_interface(c, c, img, img)
        domain = AdversaryDomain(illtyped=True, forged_ids=(7,), register_classes=())
        tracer = ComponentTracer(img)
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        for k in range(60):
            t = tracer.random_trace(rng, depth=3, domain=domain)
            if not t:
                continue
            ticked = isinstance(t[-1], Tick)
            prefix = t[:-1] if ticked else t
            failed = emulate(prefix, iface).failed
            if ticked:
                assert failed, f"{name}: tick without Fail on {t}"
            else:
                assert failed is None, f"{name}: Fail without tick ({failed}) on {t}"


def diverging_state(pair: str):
    """Emulation state of a pair's depth-2 common prefix and its diverging actions."""
    c1, c2 = (parse_ok(src) for src in INEQUIVALENT_PAIRS[pair])
    img1, img2 = compaim(c1), compaim(c2)
    r = trace_equiv(img1, img2, depth=2)
    prefix, a1, a2, i = first_divergence(r.t1, r.t2)
    st = emulate(prefix, build_interface(c1, c2, img1, img2))
    assert st.failed is None and st.i == i
    return st, a1, a2


class TestDiff:
    def test_return_difference_nests_comparison(self):
        st, a1, a2 = diverging_state("int-return")
        before = {m: {i: list(b) for i, b in mc.blocks.items()} for m, mc in st.code.items()}
        diff(a1, a2, st)
        after = {m: {i: list(b) for i, b in mc.blocks.items()} for m, mc in st.code.items()}
        assert list(after) == list(before) and list(after[MAIN]) == list(before[MAIN]) == [0]
        [cmp] = after[MAIN][0][len(before[MAIN][0]) :]
        assert isinstance(cmp, ast.If) and cmp.cond.left == ast.Var("retvar-0")

    def test_callback_target_difference_hits_both_stubs(self):
        st, a1, a2 = diverging_state("callback-target")
        diff(a1, a2, st)
        assert {m for m, mc in st.code.items() if st.i in mc.blocks} == {("i", "ping"), ("i", "pong")}


class TestMethodCode:
    def test_block_ordering_preserved(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        main = MethodCode({0: [ast.Lit(1)], 1: [ast.Lit(2)]})
        body = render_component(skel(c, iface, {MAIN: main}))
        assert body.index("isStep(0)") < body.index("isStep(1)")

    def test_unknown_method_rejected(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        with pytest.raises(UnknownMethod):
            skel(c, iface, {("Helper", "nope"): MethodCode({0: [ast.Lit(1)]})})

    def test_nest_extends_existing_block(self):
        c, img, iface = iface_for(COMPONENTS["const"])
        st = EmulState(iface)
        st.open_block(MAIN, [ast.Lit(1)])
        st.nest(Frame(0, 2, ast.T_INT, MAIN, 0), [ast.Lit(9)])
        src = render_component(skel(c, iface, st.code))
        assert src.count("isStep(0)") == 1 and "1; 9" in src


class TestWitnessEndToEnd:
    @pytest.mark.parametrize("name", sorted(INEQUIVALENT_PAIRS))
    def test_pair_distinguished(self, name):
        a, b = INEQUIVALENT_PAIRS[name]
        c1, c2 = parse_ok(a), parse_ok(b)
        img1, img2 = compaim(c1), compaim(c2)
        r = trace_equiv(img1, img2, depth=3)
        assert not r.equivalent
        w = algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)
        # the emitted witness is well typed and round-trips through the printer
        text = render_component(w.context)
        reparsed = parse_component(text)
        assert typecheck(reparsed) == []
        v = verify_witness(w.context, c1, c2, fuel=600_000)
        assert v.distinguishing, f"{name}: {v.first!r} vs {v.second!r}"

    def test_verification_leaves_the_compilation_unchanged(self):
        """verify_witness checks c1 again on its own; the facts that check
        leaves on c1's nodes compile it as before."""
        c1, c2 = (parse_ok(src) for src in INEQUIVALENT_PAIRS["callback-param"])

        def dump():
            return re.sub(r"#(static-[^:]*)-[0-9]+:", r"#\1:", aimod.dump(compaim(c1)))

        before = dump()
        img1, img2 = compaim(c1), compaim(c2)
        r = trace_equiv(img1, img2, depth=3)
        w = algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)
        assert verify_witness(w.context, c1, c2, fuel=600_000).distinguishing
        assert dump() == before

    def test_swapped_arguments_mirror(self):
        a, b = INEQUIVALENT_PAIRS["int-return"]
        c1, c2 = parse_ok(a), parse_ok(b)
        img1, img2 = compaim(c1), compaim(c2)
        r = trace_equiv(img1, img2, depth=2)
        w = algo(c2, c1, r.t2, r.t1, image=img2, image2=img1)
        v = verify_witness(w.context, c2, c1, fuel=600_000)
        assert v.distinguishing


class TestEmulationRoundTrips:
    def test_method_emulation_recovers_exported_signatures(self):
        """Looking up a compiled method's address yields exactly the signature
        the compiler exported, for every exported method of every component."""
        for name, src in COMPONENTS.items():
            c = parse_ok(src)
            img = compaim(c)
            iface = build_interface(c, c, img, img)
            for sig, addr in img.table.em.items():
                if addr.mid == 1:
                    continue
                got = iface.methods[addr.mid, addr.off]
                assert got == sig, (name, sig)

    def test_value_emulation_round_trips_through_encoding(self):
        """encode(emulate(w, t)) == w for every literal the emulator can name."""
        c, img, iface = iface_for(COMPONENTS["const"])
        cases = [
            (1, ast.T_UNIT, ast.UNIT),
            (2, ast.T_BOOL, True),
            (3, ast.T_BOOL, False),
            (0, ast.T_INT, 0),
            (41, ast.T_INT, 41),
            (0, "c", ast.NULL),
        ]
        for w, t, expected in cases:
            st = EmulState(iface)
            e = emulate_value(w, t, st)
            assert isinstance(e, ast.Lit) and e.value == expected
            assert encode_value(e.value) == w

    def test_witnesses_always_typecheck(self):
        """Every generated context is well typed, even on mirrored inputs."""
        for name, (a, b) in INEQUIVALENT_PAIRS.items():
            c1, c2 = parse_ok(a), parse_ok(b)
            img1, img2 = compaim(c1), compaim(c2)
            r = trace_equiv(img1, img2, depth=3)
            for cс1, cс2, t1, t2, i1, i2 in [
                (c1, c2, r.t1, r.t2, img1, img2),
                (c2, c1, r.t2, r.t1, img2, img1),
            ]:
                w = algo(cс1, cс2, t1, t2, image=i1, image2=i2)
                assert typecheck(w.context) == [], name


class TestRegisteredObjectWitness:
    """The registerObj -> createNew path: the adversary fabricates an external
    object, registers it, and hands it to the component; the witness replays
    the interaction with a real context object."""

    SRC1 = """
class-decl i { poke : i()->Unit };
class c {
  c(){}
  public feed(x) : c(i)->Int { return x.poke(); 5; }
};
object o : c { };
"""

    def test_pair_distinguished_through_registered_object(self):
        from jemaim.traces.engine import AdversaryDomain

        src2 = self.SRC1.replace("return x.poke(); 5;", "return 5;")
        c1, c2 = parse_ok(self.SRC1), parse_ok(src2)
        img1, img2 = compaim(c1), compaim(c2)
        domain = AdversaryDomain(register_classes=("i",))
        r = trace_equiv(img1, img2, depth=3, domain=domain)
        assert not r.equivalent
        # the divergence involves the component calling poke on the fabricated object
        w = algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)
        assert typecheck(w.context) == []
        v = verify_witness(w.context, c1, c2, fuel=600_000)
        assert v.distinguishing, f"{v.first!r} vs {v.second!r}"


class TestEmulationFailurePath:
    def test_unreplayable_prefix_yields_do_nothing_context(self):
        """A prefix that bypasses sys cannot be emulated: the algorithm falls
        back to the skeleton with an empty main, which differentiates nothing
        but still typechecks and plugs."""
        a, b = INEQUIVALENT_PAIRS["int-return"]
        c1, c2 = parse_ok(a), parse_ok(b)
        img1, img2 = compaim(c1), compaim(c2)
        [addr] = [ad for s, ad in img1.table.em.items() if s.name == "get"]
        bad_prefix = (CallIn((addr.mid, addr.off), (0, 0, 0, 0, 0, 40, "N0")),)
        t1 = bad_prefix + (ReturnOut((0, 40), 1, 2),)
        t2 = bad_prefix + (ReturnOut((0, 40), 2, 2),)
        w = algo(c1, c2, t1, t2, image=img1, image2=img2)
        assert w.emulation_failed
        assert w.emulation_failed == "action 0: entry-bypassing-sys"
        assert typecheck(w.context) == []
        main = w.context.cls("Helper").method("main")
        from jemaim.jem.printer import render_expr

        assert "retvar" not in render_expr(main.body)
        v = verify_witness(w.context, c1, c2, fuel=200_000)
        assert v.first.terminated and v.second.terminated


# a component that answers a call only after a callback of its own
CALLBACK_THEN_RETURN = """
class-decl i { ping : i()->Int };
obj-decl io : i;
class c {
  c(){}
  public go() : c()->Int { return io.ping(); @@; }
};
object o : c { };
"""


class TestReturnAfterCallback:
    """The component's ret! answers the context's call? made before the
    callback, not the callback's ret?: the witness probes that call's result."""

    @pytest.mark.parametrize("first, second", [("7", "8"), ("8", "7")])
    def test_pair_distinguished(self, first, second):
        c1 = parse_ok(CALLBACK_THEN_RETURN.replace("@@", first))
        c2 = parse_ok(CALLBACK_THEN_RETURN.replace("@@", second))
        img1, img2 = compaim(c1), compaim(c2)
        r = trace_equiv(img1, img2, depth=3)
        assert not r.equivalent
        w = algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)
        assert typecheck(w.context) == []
        v = verify_witness(w.context, c1, c2, fuel=200_000)
        assert v.distinguishing, f"{v.first!r} vs {v.second!r}"


PREFIX_SOURCES = {
    **COMPONENTS,
    **{f"{name}.{side}": pair[side] for name, pair in INEQUIVALENT_PAIRS.items() for side in (0, 1)},
    "new-after-callback": CALLBACK_THEN_RETURN.replace("Int { return io.ping(); @@;", "c { return io.ping(); new c();"),
}


@pytest.mark.parametrize("name", sorted(PREFIX_SOURCES))
def test_every_emulated_prefix_gives_a_well_typed_context(name):
    c = parse_ok(PREFIX_SOURCES[name])
    img = compaim(c)
    iface = build_interface(c, c, img, img)
    domain = AdversaryDomain(illtyped=True, forged_ids=(9,))
    tracer = ComponentTracer(img)
    rng = random.Random(name)
    prefixes = set()
    for _ in range(30):
        t = tracer.random_trace(rng, depth=4, domain=domain)
        n = len(t)
        if isinstance(t[-1], FuelExceeded):
            n -= 1  # the component never answered
        elif isinstance(t[-1], Tick):
            n -= 2  # a ?-action answered by tick cannot be emulated (criterion 5)
        prefixes.update(t[:k] for k in range(1, n + 1))
    for prefix in sorted(prefixes, key=len):
        st = emulate(prefix, iface)
        assert st.failed is None, prefix
        assert typecheck(skel(c, iface, st.code)) == [], prefix


def test_skel_leaves_the_component_unchanged():
    """Two classes import one interface with different method sets: skel merges
    them into its own stub without touching the component's declarations."""
    src = """
class-decl i { ping : i()->Int };
obj-decl io : i;
class a {
  a(){}
  public go() : a()->Int { return io.ping(); @@; }
};
object oa : a { };
class-decl i { ping : i()->Int, pong : i()->Int };
obj-decl io : i;
class b {
  b(){}
  public run() : b()->Int { return io.pong(); }
};
object ob : b { };
"""
    c1, c2 = parse_ok(src.replace("@@", "1")), parse_ok(src.replace("@@", "2"))
    before = render_component(c1)
    img1, img2 = compaim(c1), compaim(c2)
    r = trace_equiv(img1, img2, depth=3)
    w = algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)
    assert render_component(c1) == before
    assert [m.name for m in w.context.cls("i").methods] == ["ping", "pong", "mk-i"]


# (line count, sha256) of the rendered witness of every INEQUIVALENT_PAIRS entry
# for its depth-3 divergence, with the pair in its order ("fwd") and swapped ("rev")
WITNESS_PINS = {
    ('bool-return', 'fwd'): (62, 'e6dd1780880a3870266199eedc6322b1f776bd0731e1122861bab3af82c1283a'),
    ('bool-return', 'rev'): (62, '75c5f6fb84c089cb077d3e75bfbf8219b8f3cdab4187601c710ec5f0e843c0c7'),
    ('callback-param', 'fwd'): (98, '7fdeb2e15d2e62341eb4aa1b24e645754d1833d5d09206a0b411b046d50ffe45'),
    ('callback-param', 'rev'): (98, 'a22e86baedfa34c0950554806ea1fbd8afd0d5e7e0a0625cb40fac7c92840e12'),
    ('callback-target', 'fwd'): (101, '33b716c2c613981d97dd5b5b34d3b362fbe6c4ee4520d48b2d490913c8ed13e3'),
    ('callback-target', 'rev'): (101, 'e4f452bf7d4f4606a06cc25aa566f7d1522c57f1b21aba608ff66abef2cfa2b8'),
    ('callback-vs-return', 'fwd'): (98, 'c25253e3ff0910b08716191f493ad2d8b09990b0cb923cd9369e2bbf7579041d'),
    ('callback-vs-return', 'rev'): (98, 'a4dcd7366657a78aca11330061b3fb2dc1ed384679302388beeabcb95797cd77'),
    ('fresh-vs-static-object', 'fwd'): (62, '0ec54e559f8fd0f16142835095b1f24a74448fb1b2075e89a53a831e7165162d'),
    ('fresh-vs-static-object', 'rev'): (62, '52a96c90bf3b9fd494fd35ea3c4e87294fd07b953e608366d53b0958b669cbaa'),
    ('int-return', 'fwd'): (62, '8f609488708331e882562bd9741909258c5b41058b4098f3ccb4f69ea45a8430'),
    ('int-return', 'rev'): (62, 'b131b94042457324329c406cba46d62f9fb39a066cd2ecc651b3f6b2d5ce8895'),
    ('length-divergence', 'fwd'): (62, '1d37137f936558fa79b039cc2109d299ea6efd5999c42d09b27f15b46c6e759a'),
    ('length-divergence', 'rev'): (62, '1d37137f936558fa79b039cc2109d299ea6efd5999c42d09b27f15b46c6e759a'),
    ('null-vs-object', 'fwd'): (62, 'fdbf67e300d250464cbb29a54f0c2ecdd3b2b1d3ae7665669afa233046194383'),
    ('null-vs-object', 'rev'): (62, '39bb7993f3c427ce42dd3b4240b185a128307f6d725a43ac461dfe191fb6bd05'),
    ('stateful-second-round', 'fwd'): (62, 'aa015006d335fbd4fd64abeee5018563df2ba4051f38f0897ca957ed2745b74c'),
    ('stateful-second-round', 'rev'): (62, '1538e747709c2c0f9705df4c5b9062701c457e5d2b8979c50eb8625ae8d8da76'),
    ('unit-vs-state', 'fwd'): (62, '38cdc369c6af55ffd7262bb44cdcac4f88a65aa8a1ac485bd63f71d15604b612'),
    ('unit-vs-state', 'rev'): (62, '5cdcd970f8f2475b4ee949b1ae3e8cffff5785d3784c238ae295ccf72492f6e2'),
}


@pytest.mark.parametrize("name", sorted(INEQUIVALENT_PAIRS))
def test_witnesses_are_pinned(name):
    a, b = INEQUIVALENT_PAIRS[name]
    c1, c2 = parse_ok(a), parse_ok(b)
    img1, img2 = compaim(c1), compaim(c2)
    r = trace_equiv(img1, img2, depth=3)
    for order, w in (
        ("fwd", algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)),
        ("rev", algo(c2, c1, r.t2, r.t1, image=img2, image2=img1)),
    ):
        text = render_component(w.context)
        assert (len(text.splitlines()), hashlib.sha256(text.encode()).hexdigest()) == WITNESS_PINS[name, order]


# (repr, steps) of both verify_witness runs of the witnesses above, at fuel 10**6:
# the diverging side reports the whole fuel whether it was stepped or recognised
VERDICT_PINS = {
    ('bool-return', 'fwd'): (('Terminated(1)', 121), ('OutOfFuel', 1000000)),
    ('bool-return', 'rev'): (('Terminated(1)', 121), ('OutOfFuel', 1000000)),
    ('callback-param', 'fwd'): (('Terminated(1)', 172), ('OutOfFuel', 1000000)),
    ('callback-param', 'rev'): (('Terminated(1)', 172), ('OutOfFuel', 1000000)),
    ('callback-target', 'fwd'): (('Terminated(1)', 163), ('OutOfFuel', 1000000)),
    ('callback-target', 'rev'): (('Terminated(1)', 163), ('OutOfFuel', 1000000)),
    ('callback-vs-return', 'fwd'): (('Terminated(1)', 163), ('OutOfFuel', 1000000)),
    ('callback-vs-return', 'rev'): (('Terminated(1)', 135), ('OutOfFuel', 1000000)),
    ('fresh-vs-static-object', 'fwd'): (('Terminated(1)', 146), ('OutOfFuel', 1000000)),
    ('fresh-vs-static-object', 'rev'): (('Terminated(1)', 146), ('OutOfFuel', 1000000)),
    ('int-return', 'fwd'): (('Terminated(1)', 121), ('OutOfFuel', 1000000)),
    ('int-return', 'rev'): (('Terminated(1)', 121), ('OutOfFuel', 1000000)),
    ('length-divergence', 'fwd'): (('OutOfFuel', 1000000), ('Terminated(1)', 273)),
    ('length-divergence', 'rev'): (('Terminated(1)', 273), ('OutOfFuel', 1000000)),
    ('null-vs-object', 'fwd'): (('Terminated(1)', 121), ('OutOfFuel', 1000000)),
    ('null-vs-object', 'rev'): (('Terminated(1)', 146), ('OutOfFuel', 1000000)),
    ('stateful-second-round', 'fwd'): (('Terminated(1)', 245), ('OutOfFuel', 1000000)),
    ('stateful-second-round', 'rev'): (('Terminated(1)', 275), ('OutOfFuel', 1000000)),
    ('unit-vs-state', 'fwd'): (('Terminated(1)', 224), ('OutOfFuel', 1000000)),
    ('unit-vs-state', 'rev'): (('Terminated(1)', 217), ('OutOfFuel', 1000000)),
}


@pytest.mark.parametrize("name", sorted(INEQUIVALENT_PAIRS))
def test_verdicts_are_pinned(name):
    a, b = INEQUIVALENT_PAIRS[name]
    c1, c2 = parse_ok(a), parse_ok(b)
    img1, img2 = compaim(c1), compaim(c2)
    r = trace_equiv(img1, img2, depth=3)
    for order, w, first, second in (
        ("fwd", algo(c1, c2, r.t1, r.t2, image=img1, image2=img2), c1, c2),
        ("rev", algo(c2, c1, r.t2, r.t1, image=img2, image2=img1), c2, c1),
    ):
        v = verify_witness(w.context, first, second, fuel=10**6)
        assert ((repr(v.first), v.first.steps), (repr(v.second), v.second.steps)) == VERDICT_PINS[name, order]


README_PAIR = """
class c {
  c(){}
  public get() : c()->Int { return 1; }
};
object o : c { };
"""


class TestUnpluggableContext:
    def test_captured_witness_name_is_refused(self):
        """The README pair with its object renamed onto the witness's `main`,
        the program entry, which is the one witness name not drawn fresh: the
        witness is ill typed, and verify_witness says so instead of running the
        empty program on both sides (Terminated(unit) / Terminated(unit))."""
        src = README_PAIR.replace("object o :", "object main :")
        c1, c2 = parse_ok(src), parse_ok(src.replace("return 1;", "return 2;"))
        img1, img2 = compaim(c1), compaim(c2)
        r = trace_equiv(img1, img2, depth=2)
        assert not r.equivalent
        w = algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)
        # the prelude is built in code, not copied from the library text: 0:0
        assert typecheck(w.context)[0] == "0:0: argument 1 of 'addObject-c' has type Helper, expected c"
        # the reason is the first diagnostic, without its position
        with pytest.raises(PlugFailure, match="the first component: argument 1 of 'addObject-c' has type Helper, expected c$"):
            verify_witness(w.context, c1, c2)

    def test_failing_side_is_named(self):
        c1, c2 = parse_ok(README_PAIR), parse_ok(README_PAIR.replace("return 1;", "return 2;"))
        img1, img2 = compaim(c1), compaim(c2)
        r = trace_equiv(img1, img2, depth=2)
        w = algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)
        v = verify_witness(w.context, c1, c2)
        assert (repr(v.first), repr(v.second)) == ("Terminated(1)", "OutOfFuel")
        # the witness imports object o, which this component does not define
        other = parse_ok(README_PAIR.replace("object o :", "object p :"))
        with pytest.raises(PlugFailure, match="the second component: the imports are incompatible$"):
            verify_witness(w.context, c1, other)


def join_check(context, component):
    """Plugging with the join checked in full: the incompatibility, or the
    diagnostics of the context, the component or their join, whichever fails
    first."""
    if not compat(context, component):
        return ["the imports are incompatible"]
    return typecheck(context) or typecheck(component) or typecheck(join(context, component))


def witness_of(c1, c2, depth):
    img1, img2 = compaim(c1), compaim(c2)
    r = trace_equiv(img1, img2, depth=depth)
    return algo(c1, c2, r.t1, r.t2, image=img1, image2=img2).context


OBJECT_CLASH = (
    "class a { a(){} public get() : a()->Int { return 1; } }; object x : a { };",
    "class b { b(){} public get() : b()->Int { return 2; } }; object x : b { };",
)


def test_plug_errors_agrees_with_the_join_check():
    """Parts that each typecheck, are compatible and share no class or object
    name join into a well-typed whole: checking each part once, in plug's order,
    and then `plug_errors` fails exactly when the join check does, on the same
    first diagnostic."""
    parts = [parse_component(src) for src in (*COMPONENTS.values(), *WHOLE_PROGRAMS.values())]
    parts += [parse_component(src) for pair in INEQUIVALENT_PAIRS.values() for src in pair]
    plugs = [(context, component) for context in parts for component in parts]
    for a, b in INEQUIVALENT_PAIRS.values():
        c1, c2 = parse_component(a), parse_component(b)
        for w in (witness_of(c1, c2, 3), witness_of(c2, c1, 3)):
            plugs += [(w, part) for part in parts] + [(part, w) for part in parts]
    for name in ("oc", "main", "sentinel-c"):
        src = README_PAIR.replace("object o :", f"object {name} :")
        c1, c2 = parse_component(src), parse_component(src.replace("return 1;", "return 2;"))
        w = witness_of(c1, c2, 2)
        plugs += [(w, c1), (w, c2)]
    a, b = (parse_component(src) for src in OBJECT_CLASH)
    plugs += [(a, b), (b, a)]

    checked = {}
    outcomes = Counter()
    disagreements = []
    for context, component in plugs:
        expected = join_check(context, component)
        for part in (context, component):
            if id(part) not in checked:
                checked[id(part)] = typecheck(part)
        ill_typed = checked[id(context)] or checked[id(component)]
        got = plug_errors(context, component)
        if compat(context, component):
            got = ill_typed or got
        if got[:1] != expected[:1]:
            disagreements.append((render_component(context), render_component(component), expected[:1], got[:1]))
        if not expected:
            outcome = "plugs"
        elif not compat(context, component):
            outcome = "incompatible"
        elif ill_typed:
            outcome = "ill-typed part"
        else:
            outcome = re.sub(r"^\d+:\d+: | '.*'$", "", expected[0])
        outcomes[outcome] += 1
    assert disagreements == []
    assert set(outcomes) == {"plugs", "incompatible", "ill-typed part", "duplicate class", "duplicate object"}


class TestChecksPerPlug:
    """Whole checks: 2 per `plug`, and 3 per `verify_witness`, one per part,
    whether it runs the plugged programs or refuses a plug."""

    ILL_TYPED = README_PAIR.replace("return 1;", "return true;")

    def setup_method(self):
        self.c1 = parse_ok(README_PAIR)
        self.c2 = parse_ok(README_PAIR.replace("return 1;", "return 2;"))
        self.w = witness_of(self.c1, self.c2, 2)

    def test_plug_checks_each_part_once(self, checks):
        assert plug(self.w, self.c1) is not EMPTY
        assert checks["check"] == 2
        checks.clear()
        assert plug(self.w, parse_component(README_PAIR.replace("object o :", "object p :"))) is EMPTY
        assert checks["check"] == 2

    def test_verify_witness_checks_each_part_once(self, checks):
        assert verify_witness(self.w, self.c1, self.c2).distinguishing
        assert checks["check"] == 3

    def test_each_plug_failure_checks_each_part_once(self, checks):
        unrelated = parse_component(README_PAIR.replace("object o :", "object p :"))
        ill_typed = parse_component(self.ILL_TYPED)
        unrelated_ill_typed = parse_component(self.ILL_TYPED.replace("object o :", "object p :"))
        helper = parse_component(README_PAIR + "class Helper { Helper(){} };")
        src = README_PAIR.replace("object o :", "object main :")
        main1, main2 = parse_ok(src), parse_ok(src.replace("return 1;", "return 2;"))
        captured = witness_of(main1, main2, 2)
        cases = [
            ((self.w, unrelated, self.c2), "first", None, "the imports are incompatible"),
            ((captured, main1, main2), "first", "context", "argument 1 of 'addObject-c' has type Helper, expected c"),
            ((self.w, ill_typed, self.c2), "first", "first", "body of 'get' has type Bool, declared Int"),
            ((self.c1, self.c1, self.c2), "first", None, "duplicate class 'c'"),
            # a side with two faults reports the one that comes first in plug's order
            ((self.w, unrelated_ill_typed, self.c2), "first", None, "the imports are incompatible"),
            ((self.c1, ill_typed, self.c2), "first", "first", "body of 'get' has type Bool, declared Int"),
            ((self.w, self.c1, unrelated), "second", None, "the imports are incompatible"),
            ((self.w, self.c1, ill_typed), "second", "second", "body of 'get' has type Bool, declared Int"),
            ((self.w, self.c1, helper), "second", None, "duplicate class 'Helper'"),
        ]
        for args, side, part, reason in cases:
            checks.clear()
            with pytest.raises(PlugFailure) as failure:
                verify_witness(*args)
            assert checks["check"] == 3, (side, reason)
            assert str(failure.value) == f"the context does not plug into the {side} component: {reason}"
            assert failure.value.part == part
            if part is not None:
                assert failure.value.diagnostics == typecheck(args[("context", "first", "second").index(part)])


HYPHENATED_PAIR = """
class-decl an-io { ping : an-io(Int)->Int };
obj-decl the-io : an-io;
class my-cell {
  my-cell(){}
  public get-it() : my-cell()->Int { return the-io.ping(1) + @@; }
};
object a-cell : my-cell { };
"""


@pytest.mark.parametrize("order", ["fwd", "rev"])
def test_hyphenated_names_through_the_witness_library(order):
    """Class, interface and object names with `-` are substituted into the
    witness's fixed classes (listof-T, head-T, addObject-T ...) and still give a
    well-typed witness that prints, parses back and tells the sides apart."""
    c1, c2 = parse_ok(HYPHENATED_PAIR.replace("@@", "1")), parse_ok(HYPHENATED_PAIR.replace("@@", "2"))
    if order == "rev":
        c1, c2 = c2, c1
    img1, img2 = compaim(c1), compaim(c2)
    r = trace_equiv(img1, img2, depth=3)
    assert not r.equivalent
    w = algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)
    assert w.emulation_failed is None
    assert typecheck(w.context) == []
    text = render_component(w.context)
    for name in ("class listof-my-cell", "head-an-io", "addObject-my-cell(a-cell, 1)", "createNew-an-io"):
        assert name in text
    assert render_component(parse_component(text)) == text
    v = verify_witness(w.context, c1, c2, fuel=10**6)
    assert v.distinguishing, f"{v.first!r} vs {v.second!r}"


# the README pair with one of its names on a witness name, the name the witness
# draws in its place, and the prelude, which registers the pair's object
CAPTURES = {
    "oc": (README_PAIR.replace("object o :", "object oc :"), "object oc-1 : Helper", "oc-1.addObject-c(oc, 1)"),
    "sentinel-c": (
        README_PAIR.replace("object o :", "object sentinel-c :"),
        "object sentinel-c-1 : listof-c",
        "oc.addObject-c(sentinel-c, 1)",
    ),
    "Helper": (
        """
class Helper {
  Helper(){}
  public get() : Helper()->Int { return 1; }
};
object o : Helper { };
""",
        "class Helper-1 {",
        "oc.addObject-Helper(o, 1)",
    ),
    "listof-c": (
        README_PAIR + "class listof-c {\n  listof-c(){}\n  public f() : listof-c()->Int { return 3; }\n};\n",
        "class listof-c-1 {",
        "oc.addObject-c(o, 1)",
    ),
}


@pytest.mark.parametrize("order", ["fwd", "rev"])
@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_witness_names_avoid_the_pair(name, order):
    """A witness class or object name that the pair declares is drawn fresh,
    and the pair's own names, including the objects the prelude registers,
    are kept: the witness typechecks and tells the sides apart."""
    src, drawn, prelude = CAPTURES[name]
    c1, c2 = parse_ok(src), parse_ok(src.replace("return 1;", "return 2;"))
    if order == "rev":
        c1, c2 = c2, c1
    w = witness_of(c1, c2, 2)
    assert typecheck(w) == []
    text = render_component(w)
    assert drawn in text and f"return {prelude};" in text
    assert render_component(parse_component(text)) == text
    v = verify_witness(w, c1, c2)
    assert v.distinguishing, f"{v.first!r} vs {v.second!r}"


# the pairs' own names that a witness name may capture: classes and interfaces
# share the witness's class names, objects its object names; `main` is left
# out, as the witness's program entry is not drawn fresh
ONTO_WITNESS_NAMES = {
    "Helper": ("c", "i"),
    "listof-c": ("c", "i"),
    "oc": ("o", "io"),
    "sentinel-c": ("o", "io"),
    "static-for-i": ("o", "io"),
}
# every name at once: Helper as class c turns the registry names into `…-Helper`
ALL_AT_ONCE = {"c": "Helper", "o": "oc", "i": "listof-Helper", "io": "sentinel-Helper"}


def _name(n: str) -> str:
    """A pattern matching the jem name `n`, not a longer name containing it."""
    return rf"(?<![\w-]){re.escape(n)}(?![\w-])"


def _renamed(src: str, names: dict) -> str:
    return re.sub("|".join(map(_name, names)), lambda m: names[m[0]], src)


def _captures():
    for pair, (a, _) in sorted(INEQUIVALENT_PAIRS.items()):
        declared = [n for n in ALL_AT_ONCE if re.search(_name(n), a)]
        for onto, olds in ONTO_WITNESS_NAMES.items():
            for old in olds:
                if old in declared:
                    yield f"{pair}/{old}={onto}", pair, {old: onto}
        yield f"{pair}/all", pair, {n: ALL_AT_ONCE[n] for n in declared}


CAPTURE_CASES = {case: (pair, names) for case, pair, names in _captures()}


@pytest.mark.parametrize("order", ["fwd", "rev"])
@pytest.mark.parametrize("case", list(CAPTURE_CASES))
def test_pairs_on_witness_names_distinguish(case, order):
    """Each inequivalent pair with its classes, objects and interface renamed
    onto the witness's own names still gets a distinguishing witness."""
    pair, names = CAPTURE_CASES[case]
    c1, c2 = (parse_ok(_renamed(src, names)) for src in INEQUIVALENT_PAIRS[pair])
    if order == "rev":
        c1, c2 = c2, c1
    w = witness_of(c1, c2, 3)
    assert typecheck(w) == []
    v = verify_witness(w, c1, c2, fuel=10**6)
    assert v.distinguishing, f"{v.first!r} vs {v.second!r}"


FACTORY_NAME = """
class-decl i { mk-i : i()->Int };
obj-decl io : i;
class c {
  c(){}
  public go() : c()->Int { return io.mk-i() + @@; }
};
object o : c { };
"""
# poke's callback re-enters the stub of the pending io.ping(), against a return
CALLBACK_IN_ONE_STUB = """
class-decl i { ping : i()->Int };
obj-decl io : i;
class c {
  c(flag:Bool){}
  flag : Bool;
  public go() : c()->Int { return this.flag = true; io.ping(); 0; }
  public poke() : c()->Int { return if (this.flag) { @@ } else { 5 }; }
};
object o : c { flag = false; };
"""
TICK = """
class c {
  c(){}
  public get() : c()->Int { return @@; }
};
object o : c { };
"""
RECEIVERS = """
class-decl i { ping : i()->Int };
obj-decl io1 : i;
obj-decl io2 : i;
class c {
  c(){}
  public go() : c()->Int { return @@.ping(); }
};
object o : c { };
"""
# test-local pairs: each side's source, and a pattern its witness holds
LOCAL_PAIRS = {
    "factory-name": ((FACTORY_NAME, "1"), (FACTORY_NAME, "2"), r"public mk-i-1\(\) : i\(\)->i"),
    # the return side's code follows the pending call
    "callback-in-one-stub": ((CALLBACK_IN_ONE_STUB, "io.ping()"), (CALLBACK_IN_ONE_STUB, "5"), r"= o-2\.poke\(\); (oc\.diverge\(\)|exit\(1\))"),
    "tick-against-return": ((TICK, "exit(1)"), (TICK, "5"), r"if \(oc\.isStep\(1\)\) \{ oc\.diverge\(\)"),
    "callback-receivers": ((RECEIVERS, "io1"), (RECEIVERS, "io2"), r"if \(\(this == oc\.getByName-i\(2\)\)\)"),
}


@pytest.mark.parametrize("order", ["fwd", "rev"])
@pytest.mark.parametrize("name", sorted(LOCAL_PAIRS))
def test_local_pair_distinguished(name, order):
    """An interface method named like its stub's factory; a callback that
    re-enters the stub of the pending call, against a return; a tick against
    a return; callbacks that differ only in the receiver."""
    (src1, hole1), (src2, hole2), pattern = LOCAL_PAIRS[name]
    c1, c2 = parse_ok(src1.replace("@@", hole1)), parse_ok(src2.replace("@@", hole2))
    if order == "rev":
        c1, c2 = c2, c1
    w = witness_of(c1, c2, 3)
    assert typecheck(w) == []
    assert re.search(pattern, render_component(w))
    v = verify_witness(w, c1, c2)
    assert v.distinguishing, f"{v.first!r} vs {v.second!r}"


def _pair_runs():
    """(c1, c2, t1, t2, image1, image2) for every INEQUIVALENT_PAIRS entry in
    both orders, as the witness pins build them."""
    runs = []
    for name in sorted(INEQUIVALENT_PAIRS):
        c1, c2 = (parse_ok(src) for src in INEQUIVALENT_PAIRS[name])
        img1, img2 = compaim(c1), compaim(c2)
        r = trace_equiv(img1, img2, depth=3)
        runs += [(c1, c2, r.t1, r.t2, img1, img2), (c2, c1, r.t2, r.t1, img2, img1)]
    return runs


def _nodes(comp):
    """Every AST node and every list or dict a node holds, in `comp`."""
    for c in comp.classes:
        yield from (c, c.ctor, c.ctor.params, c.field_types, c.methods, c.objects, c.import_classes, c.import_objects)
        yield from (*c.import_classes, *c.import_objects)
        for m in c.methods:
            yield from (m, m.params)
            for e in ast.walk(m.body):
                yield e
                if isinstance(e, (ast.Call, ast.New)):
                    yield e.args
        for o in c.objects:
            yield from (o, o.fields)


class TestWitnessLibrary:
    def test_algo_parses_no_text(self, monkeypatch):
        runs = _pair_runs()
        calls = Counter()

        def counting(name, real):
            def wrapped(*args):
                calls[name] += 1
                return real(*args)

            return wrapped

        monkeypatch.setattr(parser, "lex", counting("lex", parser.lex))
        for mod in [m for m in sys.modules.values() if getattr(m, "parse_component", None) is parser.parse_component]:
            monkeypatch.setattr(mod, "parse_component", counting("parse_component", parser.parse_component))
        for c1, c2, t1, t2, img1, img2 in runs:
            algo(c1, c2, t1, t2, image=img1, image2=img2)
        assert calls == Counter()

    def test_witnesses_share_no_node(self):
        """The checker writes onto the nodes it checks and skel assigns method
        bodies, so no node may be shared by two witnesses or with the library."""
        witnesses = [algo(c1, c2, t1, t2, image=i1, image2=i2).context for c1, c2, t1, t2, i1, i2 in _pair_runs()]
        seen = {}
        for owner, comp in enumerate([LIBRARY, *witnesses]):
            for node in _nodes(comp):
                assert seen.setdefault(id(node), owner) == owner, node

    def test_witnesses_build_alike_after_checks_and_runs(self):
        runs = _pair_runs()

        def build():
            return [algo(c1, c2, t1, t2, image=i1, image2=i2).context for c1, c2, t1, t2, i1, i2 in runs]

        first = build()
        texts = [render_component(w) for w in first]
        for w, (c1, c2, *_) in zip(first, runs):
            assert typecheck(w) == []
            assert verify_witness(w, c1, c2, fuel=10**5).distinguishing
        assert [render_component(w) for w in build()] == texts

    def test_library_names_are_placeholders(self):
        """Every name of a witness entity in the library starts with `$`, which
        no jem source can spell."""
        with pytest.raises(JemSyntaxError):
            parse_component("class $c { $c(){} };")
        assert [c.name for c in LIBRARY.classes] == ["$listof-$t", "$i", "$Helper"]
        assert [o.name for c in LIBRARY.classes for o in c.objects] == ["$sentinel-$t", "$static-for-$i", "$oc", "$main"]
