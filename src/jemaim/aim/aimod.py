"""Textual `.aimod` image format.

Sections appear in fixed order: DESC, CODE, DATA, MASKS, EXPORT-M, EXPORT-O,
REQUIRE-M, REQUIRE-O. Words print as aim/words.py spells them: decimal Nats,
`$name` symbols, or `#stream:seq` nonces. Printing is canonical (sorted), so
parse(print(x)) == x and print(parse(s)) == s for emitted files.

CODE and DATA hold nearly all of a file, one line per run of contiguous
words: `mid:off w1 w2 ... wn` puts word i at `mid:off+i`. `dump` writes each
module's code tuple as one CODE line, `mid:0` and its `code_len` words, and
`mem` in DATA as maximal runs over the sorted addresses; a run breaks at a
gap and at a change of module. A run of one word, `mid:off w`, is a line of
the earlier one-word-per-line form, so this one grammar reads files of both
forms to the same image. A word's text must not hold whitespace, which
would split it in two; `dump` refuses such a word. `load` reads a run of
Nats with one `int` per word and sends only the `$` and `#` words through
`parse_word`. Once every line is read it places the runs by address, so
neither the section a run sits in nor the order of sections matters: a word
inside a descriptor's code section goes into that module's code tuple, and
any other word to `mem`. It refuses a word address given twice, a module id
given twice, and a code section that misses a word, the last named by its
module's DESC line and the first offset it misses. A malformed line
anywhere, or content before the first header, raises
`AimodError("line N: ...")`, counting lines from 1.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter

from .link import MethodSig, ObjKey, ProgramImage, SymbolTable
from .words import Address, Descriptor, Nonce, Symbol, Word, addresses, parse_word


class AimodError(Exception):
    pass


def render_word(w: Word) -> str:
    # a bool is an int to isinstance, but its text `True` is no word
    if isinstance(w, int) and not isinstance(w, bool):
        return str(w)
    if isinstance(w, (Symbol, Nonce)):
        text = str(w)
        if text.split() == [text]:
            return text
        raise AimodError(f"word {text!r} holds whitespace")
    raise AimodError(f"unrenderable word {w!r}")


def _parse_sig(s: str) -> MethodSig:
    name, _, rest = s.partition(" : ")
    recv, _, rest = rest.partition("(")
    params, _, ret = rest.partition(")->")
    ptypes = tuple(p for p in params.split(",") if p)
    return MethodSig(name.strip(), recv.strip(), ptypes, ret.strip())


def _run(mid: int, off: int, words) -> str:
    return f"{mid}:{off} " + " ".join([str(w) if w.__class__ is int else render_word(w) for w in words])


def dump(p: ProgramImage) -> str:
    lines = ["DESC"]
    for s in sorted(p.descs, key=lambda d: d.mid):
        lines.append(f"{s.mid} {s.code_len} {s.n_entry}")
    lines.append("CODE")
    lines += [_run(mid, 0, p.code[mid]) for mid in sorted(p.code)]
    lines.append("DATA")
    mem = p.mem
    keys = sorted(mem)
    # Over sorted distinct keys, (mid, off - index) never decreases, and a
    # run is a stretch where it stays the same: bisect finds each run's end.
    def lead(i):
        return keys[i][0], keys[i][1] - i
    start, n = 0, len(keys)
    while start < n:
        mid, off = keys[start]
        end = bisect_right(range(n), (mid, off - start), start, key=lead)
        lines.append(_run(mid, off, map(mem.__getitem__, keys[start:end])))
        start = end
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
    desc_line: dict[int, int] = {}  # module id -> the line of its DESC
    runs: list[tuple[int, int, int, list[Word]]] = []  # (line, mid, off, words)
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
                addr, *texts = line.split()
                if not texts:
                    raise AimodError("a run needs at least one word")
                mid, off = map(int, addr.split(":"))
                if mid < 0 or off < 0:
                    raise AimodError("an address is two Nats")
                if "$" in line or "#" in line:
                    ws = [parse_word(t) if t[0] in "$#" else int(t) for t in texts]
                else:
                    ws = list(map(int, texts))
                runs.append((lineno, mid, off, ws))
            elif section == "DESC":
                mid, clen, nent = line.split()
                d = Descriptor(int(mid), int(clen), int(nent))
                if d.mid in desc_line:
                    raise AimodError(f"module {d.mid} is described twice")
                desc_line[d.mid] = lineno
                descs.append(d)
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
    mem, code = _place(runs, descs)
    for d in descs:
        if None in code[d.mid]:
            missing = code[d.mid].index(None)
            raise AimodError(f"line {desc_line[d.mid]}: the code section of module {d.mid} misses offset {missing}")
    return ProgramImage(mem, descs, table, masks, {mid: tuple(ws) for mid, ws in code.items()})


def _place(runs, descs: list[Descriptor]) -> tuple[dict[Address, Word], dict[int, list]]:
    """`mem` and each module's code section as a list, None where no run gave
    a word, from the runs in file order: the part of a run inside a code
    section goes into that module's list, the rest to `mem`. A list has at
    most one slot more than the words given for its module, room for the
    first one missing, so the file's size bounds it and not `code_len`."""
    given = Counter()
    for _, mid, _, ws in runs:
        given[mid] += len(ws)
    code: dict[int, list] = {d.mid: [None] * min(d.code_len, given[d.mid] + 1) for d in descs}
    mem: dict[Address, Word] = {}
    for lineno, mid, off, ws in runs:
        n = len(ws)
        section = code.get(mid, ())
        if off < len(section):
            k = min(n, len(section) - off)
            if section[off : off + k].count(None) != k:
                raise AimodError(f"line {lineno}: a word address is given twice")
            section[off : off + k] = ws if k == n else ws[:k]
            ws, off, n = ws[k:], off + k, n - k
        size = len(mem)
        mem.update(zip(addresses(mid, n, off), ws))
        if len(mem) != size + n:
            raise AimodError(f"line {lineno}: a word address is given twice")
    return mem, code
