"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here: exact agreement for differential and security
criteria, zero escapes for the attack corpora, wall-clock bounds where stated.
"""
import itertools
import random
import time
import zlib
from contextlib import contextmanager

from jemaim.aim import access
from jemaim.aim.isa import Assembler
from jemaim.aim.link import MethodSig as LinkSig
from jemaim.aim.link import ProgramImage, SymbolTable, merge, well_formed
from jemaim.aim.machine import run_state
from jemaim.aim.words import Address, Descriptor, N_W, Nonce, SYS_ID, Symbol
from jemaim.backtrans.algo import algo, verify_witness
from jemaim.backtrans.interface import build_interface
from jemaim.backtrans.emulate import emulate
from jemaim.compiler.encoding import encode_class
from jemaim.compiler.pipeline import agrees, boot_state, compaim, mylink, run_aim
from jemaim.jem.interp import run as jem_run
from jemaim.jem.parser import parse_component
from jemaim.jem.typecheck import typecheck
from jemaim.traces.actions import Tick
from jemaim.traces.engine import RESUME_PAD, AdversaryDomain, ComponentTracer, enumerate_traces
from jemaim.traces.equiv import trace_equiv

from corpus import COMPONENTS, INEQUIVALENT_PAIRS, WHOLE_PROGRAMS


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n}: FAIL — {desc}")
        raise
    print(f"\nACCEPTANCE {n}: PASS — {desc}")


def parse_ok(src):
    comp = parse_component(src)
    assert typecheck(comp) == []
    return comp


def test_criterion_1_compiler_correctness():
    with criterion(1, "source and compiled runs agree on the whole-program corpus"):
        assert len(WHOLE_PROGRAMS) >= 20
        start = time.monotonic()
        for name, src in WHOLE_PROGRAMS.items():
            comp = parse_ok(src)
            jr = jem_run(comp, fuel=100_000)
            ar = run_aim(compaim(comp), seed=1, fuel=300_000)
            assert agrees(jr, ar), f"{name}: {jr!r} / {ar!r}"
        assert time.monotonic() - start < 10.0


def _entry_for(image, mname):
    [addr] = [a for s, a in image.table.em.items() if s.name == mname and a.mid != SYS_ID]
    return addr


def _attack_call(image, ep, recv, args, seed=11):
    """Drive one forwarded call against a booted image; returns (kind, reason, state)."""
    st = boot_state(image, seed)
    st.set_reg(3, ep.mid)
    st.set_reg(4, ep.off)
    st.set_reg(5, RESUME_PAD)
    st.set_reg(6, recv)
    for i, w in enumerate(args):
        st.set_reg(7 + i, w)
    st.pc = Address(SYS_ID, 2 * N_W)
    kind, reason, st, _ = run_state(st, 200_000)
    return kind, reason, st


def test_criterion_2_object_id_guessing():
    with criterion(2, "1,000 fabricated object ids never reach a method body"):
        comp = parse_ok(COMPONENTS["cell"])
        image = compaim(comp)
        stale = compaim(parse_ok(COMPONENTS["cell"]))  # a different linked instance
        [(obj_off, _)] = list(image.masks[2].items())
        ep = _entry_for(image, "put")
        fabricated = []
        fabricated += list(range(1, 401))  # small Nats
        fabricated += [65536 + 8300 + k for k in range(300)]  # data-section offsets
        fabricated += list(stale.masks[2].values()) * 50  # stale masks, other instance
        fabricated += [Nonce("adv-guess", k) for k in range(1000 - len(fabricated))]
        assert len(fabricated) >= 1000
        escapes = 0
        for bad in fabricated:
            kind, reason, st = _attack_call(image, ep, bad, (7,))
            if not (kind == "halted" and (reason or "").startswith("abort")):
                escapes += 1
            elif st.mem[Address(2, obj_off + 1)] != 0:
                escapes += 1  # the body ran and mutated the field
        assert escapes == 0


def test_criterion_3_call_stack_shortcutting():
    with criterion(3, "the scripted shortcut halts at the forwardReturn id check"):
        # M2 (unprotected) calls M (compiled module 2); M out-calls into M1
        # (attacker module 7); M1 escapes to unprotected code that jumps to
        # forwardReturn claiming the pending frame. Authentication stamps the
        # true caller id, so the recorded callee check must abort the machine.
        src = INEQUIVALENT_PAIRS["callback-vs-return"][0]
        comp = parse_ok(src)
        component = compaim(comp)
        esc_pad = 600
        attacker_code = Assembler().emit("movi", 1, esc_pad).emit("movi", 2, 0).emit("jmp", 1, 2).words()
        attacker = ProgramImage(
            mem={Address(7, i): w for i, w in enumerate(attacker_code)},
            descs=[Descriptor(7, N_W + 1, 1)],
            table=SymbolTable(em={LinkSig("ping", "i", (), "Int"): Address(7, 0)}),
        )
        linked = mylink(component, attacker)
        # the component still requires its object import: plug it into the
        # image's code and memory by the substitution `merge` applies
        env_obj = Nonce("env-obj", 0)
        assert linked.table.ro
        linked.substitute({sym: env_obj for _, sym in linked.table.ro})
        st = boot_state(linked, seed=4)
        assert not any(isinstance(w, Symbol) for w in itertools.chain(st.mem.values(), *st.code.values()))
        [(_, mask)] = list(component.table.eo.items())
        for key, _ in linked.table.ro:
            st.gstore[env_obj] = (encode_class(key.cls), 0)
        # unprotected escape pad: jump to forwardReturn pretending to answer
        fr = Assembler().emit("movi", 1, 3 * N_W).emit("movi", 2, 1).emit("jmp", 1, 2).words()
        for i, w in enumerate(fr):
            st.mem[Address(0, esc_pad + i)] = w
        ep = _entry_for(component, "go")
        st.set_reg(3, ep.mid)
        st.set_reg(4, ep.off)
        st.set_reg(5, RESUME_PAD)
        st.set_reg(6, mask)
        st.pc = Address(SYS_ID, 2 * N_W)
        kind, reason, st, _ = run_state(st, 100_000)
        assert kind == "halted" and (reason or "").startswith("abort")
        # forwardReturn popped the outcall frame, found the wrong returner id
        # and aborted; the original caller frame is still pending, untouched
        assert st.callstack == [(0, RESUME_PAD, 2)]
        assert st.pc.mid == SYS_ID


ILL_TYPED_MENU = {
    "Unit": [0, 2, 3, 7],
    "Bool": [0, 1, 7],
    "Int": [],  # every word inhabits Int
}


def test_criterion_4_ill_typed_and_nonexistent_arguments():
    with criterion(4, "ill-typed and unregistered arguments abort before the body"):
        checked = 0
        escapes = 0
        for name, src in COMPONENTS.items():
            comp = parse_ok(src)
            image = compaim(comp)
            masks = {k.cls: w for k, w in image.table.eo.items()}
            snapshot_keys = [
                Address(mid, off + 1 + k)
                for mid, entries in image.masks.items()
                for off in entries
                for k in range(3)
            ]
            for sig, addr in image.table.em.items():
                if addr.mid == SYS_ID:
                    continue
                recv = masks[sig.recv]
                good_args = [_well_typed_value(t, masks) for t in sig.params]
                for slot, t in enumerate(sig.params):
                    if t == "Int":
                        continue  # every word inhabits Int: no check can fail
                    menu = list(ILL_TYPED_MENU.get(t, [1, 2, 3, 7]))
                    menu.append(Nonce("unregistered", slot))  # never registered in G
                    if t not in ("Unit", "Bool"):
                        menu.append(Nonce("unregistered", 100 + slot))
                    for bad in menu:
                        args = list(good_args)
                        args[slot] = bad
                        kind, reason, st = _attack_call(image, addr, recv, args)
                        checked += 1
                        ok = kind == "halted" and (reason or "").startswith("abort")
                        if not ok or any(st.mem.get(a, 0) != boot_state(image).mem.get(a, 0) for a in snapshot_keys):
                            escapes += 1
                # an unregistered id in the receiver slot must also abort
                kind, reason, st = _attack_call(image, addr, Nonce("unregistered", 999), good_args)
                checked += 1
                if not (kind == "halted" and (reason or "").startswith("abort")):
                    escapes += 1
        assert checked > 0 and escapes == 0


def _well_typed_value(tname, masks):
    if tname == "Unit":
        return 1
    if tname == "Bool":
        return 2
    if tname == "Int":
        return 5
    if tname == "Obj":
        return 0
    return masks.get(tname, 0)


def test_criterion_5_termination_is_emulation_failure():
    with criterion(5, "trace ends in tick iff prefix emulation fails (>=1000 traces per component)"):
        start = time.monotonic()
        domain = AdversaryDomain(illtyped=True, forged_ids=(9,))
        for name, src in COMPONENTS.items():
            comp = parse_ok(src)
            image = compaim(comp)
            iface = build_interface(comp, comp, image, image)
            tracer = ComponentTracer(image)
            rng = random.Random(0xC0FFEE ^ zlib.crc32(name.encode()) & 0xFFFF)
            seen = 0
            while seen < 1000:
                t = tracer.random_trace(rng, depth=4, domain=domain)
                if not t:
                    continue
                seen += 1
                ticked = isinstance(t[-1], Tick)
                prefix = t[:-1] if ticked else t
                failed = emulate(prefix, iface).failed
                if ticked:
                    assert failed, f"{name}: tick without emulation failure\n{t}"
                else:
                    assert failed is None, f"{name}: emulation failure without tick ({failed})\n{t}"
        assert time.monotonic() - start < 60.0


def test_criterion_6_backtranslation_end_to_end():
    with criterion(6, "10/10 inequivalent pairs yield opposite termination verdicts"):
        assert len(INEQUIVALENT_PAIRS) >= 10
        wins = 0
        for name, (a, b) in INEQUIVALENT_PAIRS.items():
            c1, c2 = parse_ok(a), parse_ok(b)
            img1, img2 = compaim(c1), compaim(c2)
            r = trace_equiv(img1, img2, depth=3)
            assert not r.equivalent, name
            w = algo(c1, c2, r.t1, r.t2, image=img1, image2=img2)
            assert typecheck(w.context) == [], name
            v = verify_witness(w.context, c1, c2, fuel=1_000_000)
            assert v.distinguishing, f"{name}: {v.first!r} vs {v.second!r}"
            wins += 1
        assert wins == len(INEQUIVALENT_PAIRS)


REGION_TABLE_RWX = {
    # (from-region, to-region) -> permission letters, transcribed from the
    # access-control table plus the entry-point read rule
    ("U", "U"): "rwx",
    ("U", "EP"): "rx",
    ("U", "CODE"): "",
    ("U", "DATA"): "",
    ("SAME", "U"): "rwx",
    ("SAME", "EP"): "rx",
    ("SAME", "CODE"): "rx",
    ("SAME", "DATA"): "rw",
    ("OTHER", "U"): "rwx",
    ("OTHER", "EP"): "x",
    ("OTHER", "CODE"): "",
    ("OTHER", "DATA"): "",
}


def _region(descs, a):
    s = access.find_module(descs, a)
    if s is None:
        return "U"
    if access.entry_point(descs, a):
        return "EP"
    return "CODE" if a.off < s.code_len else "DATA"


def test_criterion_7_pma_access_table():
    with criterion(7, "access predicates match the permission table on a 3-module grid"):
        descs = [Descriptor(1, 70, 4), Descriptor(2, 64, 3), Descriptor(3, 48, 1)]
        addrs = [Address(0, off) for off in (0, 1, 9, 250)]
        for d in descs:
            offs = {0, 1, N_W, N_W + 1, 2 * N_W, d.code_len - 1, d.code_len, d.code_len + 9}
            addrs += [Address(d.mid, off) for off in sorted(offs)]
        pairs = [(f, t) for f in addrs for t in addrs]
        assert len(pairs) >= 500
        mism = []
        for f, t in pairs:
            fr, tr = _region(descs, f), _region(descs, t)
            if fr != "U" and tr != "U":
                fr2 = "SAME" if f.mid == t.mid else "OTHER"
                # executing from a data offset grants nothing
                key = (fr2, tr)
                perms = REGION_TABLE_RWX[key]
                if fr == "DATA" and fr2 == "SAME":
                    perms = ""
                if fr2 == "OTHER" and fr == "DATA":
                    perms = "x" if tr == "EP" else ""
            else:
                key = (fr if fr == "U" else ("SAME" if f.mid == t.mid else "OTHER"), tr)
                perms = REGION_TABLE_RWX[key]
            expect_r, expect_w, expect_x = ("r" in perms, "w" in perms, "x" in perms)
            got = (
                access.read_allowed(descs, f, t),
                access.write_allowed(descs, f, t),
                access.valid_jump(descs, f, t),
            )
            if got != (expect_r, expect_w, expect_x):
                mism.append((f, t, key, perms, got))
        assert mism == [], mism[:5]


def test_criterion_8_linking_algebra():
    with criterion(8, "200 randomized merges: fulfilled symbols vanish, orders agree"):
        rng = random.Random(88)
        probe = Assembler().emit("movi", 1, 5).emit("halt").words()
        for round_ in range(200):
            names = [f"m{k}" for k in range(4)]
            rng.shuffle(names)
            syms = [Symbol(f"s{round_}.{k}") for k in range(6)]
            em1 = {LinkSig(names[0], "c", (), "Int"): Address(2, 16)}
            em2 = {
                LinkSig(names[1], "c", (), "Int"): Address(3, 16),
                LinkSig(names[2], "c", (), "Int"): Address(3, 32),
            }
            rm1 = [(LinkSig(names[1], "c", (), "Int"), syms[0], syms[1])]
            if rng.random() < 0.5:
                rm1.append((LinkSig("ghost", "g", (), "Int"), syms[4], syms[5]))
            rm2 = [(LinkSig(names[0], "c", (), "Int"), syms[2], syms[3])]
            mem1 = {Address(2, 0): syms[0], Address(2, 1): syms[1], Address(2, 2): 9}
            if len(rm1) > 1:
                mem1[Address(2, 3)] = syms[4]
            mem2 = {Address(3, 0): syms[2], Address(3, 1): syms[3]}
            p1 = ProgramImage(mem1, [Descriptor(2, 64, 2)], SymbolTable(em1, {}, rm1, []))
            p2 = ProgramImage(mem2, [Descriptor(3, 64, 3)], SymbolTable(em2, {}, rm2, []))
            a = merge(p1.clone(), p2.clone())
            b = merge(p2.clone(), p1.clone())
            assert well_formed(a) and well_formed(b)
            fulfilled = {syms[0], syms[1], syms[2], syms[3]}
            assert not (fulfilled & set(a.mem.values()))
            carried = {s for _, i, o in a.table.rm for s in (i, o)}
            assert carried == ({syms[4], syms[5]} if len(rm1) > 1 else set())
            assert a.mem == b.mem and a.table.em == b.table.em
            assert sorted(map(repr, a.table.rm)) == sorted(map(repr, b.table.rm))
            # probe run: both merge orders execute identically
            results = []
            for img in (a, b):
                st = boot_state(img, seed=0)
                for i, w in enumerate(probe):
                    st.mem[Address(0, 900 + i)] = w
                st.pc = Address(0, 900)
                kind, _, st, steps = run_state(st, 50)
                results.append((kind, steps, st.reg(1)))
            assert results[0] == results[1]


def test_criterion_9_trace_determinism_and_canonicalization():
    with criterion(9, "re-enumeration under a different oracle seed is canonically identical"):
        for name, src in COMPONENTS.items():
            comp = parse_ok(src)
            t_a = enumerate_traces(compaim(comp), depth=2, seed=0)
            t_b = enumerate_traces(compaim(comp), depth=2, seed=1234)
            assert t_a == t_b, name
