"""Textual `.aimod` image format.

Sections appear in fixed order: DESC, CODE, DATA, MASKS, EXPORT-M, EXPORT-O,
REQUIRE-M, REQUIRE-O. CODE/DATA lines are `mid:off <word>` split by whether the
offset lies in the module's code section. Words print as aim/words.py spells
them: decimal Nats, `$name` symbols, or `#stream:seq` nonces. Printing is
canonical (sorted), so parse(print(x)) == x and print(parse(s)) == s for
emitted files.

CODE and DATA lines are nearly all of a file, so both directions take one
short path over them: `dump` unpacks each address once and prints a Nat as
it is, and `load` reads a Nat straight with `int`, sending only `$` and `#`
words through `parse_word`. A malformed line anywhere, or content before the
first header, raises `AimodError("line N: ...")`, counting lines from 1.
"""
from __future__ import annotations

from .link import MethodSig, ObjKey, ProgramImage, SymbolTable
from .words import Address, Descriptor, Nonce, Symbol, Word, address_of, parse_word


class AimodError(Exception):
    pass


def render_word(w: Word) -> str:
    if isinstance(w, (int, Symbol, Nonce)):
        return str(w)
    raise AimodError(f"unrenderable word {w!r}")


def _parse_sig(s: str) -> MethodSig:
    name, _, rest = s.partition(" : ")
    recv, _, rest = rest.partition("(")
    params, _, ret = rest.partition(")->")
    ptypes = tuple(p for p in params.split(",") if p)
    return MethodSig(name.strip(), recv.strip(), ptypes, ret.strip())


def dump(p: ProgramImage) -> str:
    code_len = {s.mid: s.code_len for s in p.descs}
    lines = ["DESC"]
    for s in sorted(p.descs, key=lambda d: d.mid):
        lines.append(f"{s.mid} {s.code_len} {s.n_entry}")
    code, data = ["CODE"], ["DATA"]
    for (mid, off), w in sorted(p.mem.items()):
        entry = f"{mid}:{off} {w}" if w.__class__ is int else f"{mid}:{off} {render_word(w)}"
        # a module without a descriptor has no code: off < off is false
        (code if off < code_len.get(mid, off) else data).append(entry)
    lines += code
    lines += data
    lines.append("MASKS")
    for mid in sorted(p.masks):
        for off in sorted(p.masks[mid]):
            lines.append(f"{mid}:{off} {render_word(p.masks[mid][off])}")
    lines.append("EXPORT-M")
    for k in sorted(p.table.em, key=MethodSig.render):
        a = p.table.em[k]
        lines.append(f"{k.render()} -> {a.mid}:{a.off}")
    lines.append("EXPORT-O")
    for k in sorted(p.table.eo, key=lambda o: o.render()):
        lines.append(f"{k.render()} -> {render_word(p.table.eo[k])}")
    lines.append("REQUIRE-M")
    for k, iota, sigma in sorted(p.table.rm, key=lambda e: (e[0].render(), e[1].name)):
        lines.append(f"{k.render()} -> {render_word(iota)} ; {render_word(sigma)}")
    lines.append("REQUIRE-O")
    for k, sigma in sorted(p.table.ro, key=lambda e: (e[0].render(), e[1].name)):
        lines.append(f"{k.render()} -> {render_word(sigma)}")
    return "\n".join(lines) + "\n"


SECTIONS = frozenset({"DESC", "CODE", "DATA", "MASKS", "EXPORT-M", "EXPORT-O", "REQUIRE-M", "REQUIRE-O"})


def load(text: str) -> ProgramImage:
    section = None
    words = False  # in CODE or DATA, where nearly every line is
    descs: list[Descriptor] = []
    mem: dict[Address, Word] = {}
    masks: dict[int, dict[int, Nonce]] = {}
    table = SymbolTable()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line in SECTIONS:
            section = line
            words = line == "CODE" or line == "DATA"
            continue
        try:
            if words:
                addr, word = line.split(None, 1)
                mid, off = addr.split(":")
                mem[address_of((int(mid), int(off)))] = parse_word(word) if word[0] in "$#" else int(word)
            elif section == "DESC":
                mid, clen, nent = line.split()
                descs.append(Descriptor(int(mid), int(clen), int(nent)))
            elif section == "MASKS":
                addr, word = line.split(None, 1)
                mid, off = addr.split(":")
                w = parse_word(word)
                if not isinstance(w, Nonce):
                    raise AimodError("mask must be a nonce")
                masks.setdefault(int(mid), {})[int(off)] = w
            elif section == "EXPORT-M":
                sig, _, addr = line.rpartition(" -> ")
                mid, off = addr.split(":")
                table.em[_parse_sig(sig)] = Address(int(mid), int(off))
            elif section == "EXPORT-O":
                key, _, word = line.rpartition(" -> ")
                name, _, cls = key.partition(" : ")
                table.eo[ObjKey(name.strip(), cls.strip())] = parse_word(word)
            elif section == "REQUIRE-M":
                sig, _, rest = line.rpartition(" -> ")
                iota, _, sigma = rest.partition(" ; ")
                table.rm.append((_parse_sig(sig), parse_word(iota.strip()), parse_word(sigma.strip())))
            elif section == "REQUIRE-O":
                key, _, word = line.rpartition(" -> ")
                name, _, cls = key.partition(" : ")
                table.ro.append((ObjKey(name.strip(), cls.strip()), parse_word(word)))
            else:
                raise AimodError("content before any section header")
        except Exception as e:
            raise AimodError(f"line {lineno}: {e}") from e
    return ProgramImage(mem, descs, table, masks)
