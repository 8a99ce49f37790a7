"""The base compiler: one jem class to aim code, data and a symbol table.

Code generation is a stack machine over one memory-resident stack per module.
Per-module data layout (data section starts at the fixed base D):

    D+0  stack pointer SP               D+3..     signature table (prot)
    D+1  heap bump pointer              D+8300..  static objects, then heap
    D+2  outstanding-outcall counter    2^32..    the stack, growing upward

A body pushes its activation record [resume offset, this, vars...] at SP and
evaluates above it; the compiler tracks the number of temporaries above the
record, so the record sits at a known distance below SP at every instruction.
An outcall pushes a [saved this, return-type encoding, resume offset] triple
on the same stack, which the return entry point pops. One guard at body entry
spins once SP passes STACK_LIMIT; nothing lives above the stack, so the guard
needs no per-method headroom.
Objects are [class encoding, fields...]; an internal object id is its data
offset. Values of the module's own class are internal ids inside the module;
every other object value is a cross-module id (mask) or comp(null).

The compiler types nothing itself. Slots, frame sizes and each call's resolved
signature (internal call or outcall, and the return type an outcall carries)
come from the checker's `Typing`, recorded by one check of the class.

Register discipline: r0 caller id, r1/r2 ALU and branch scratch, r3/r4 jump
targets, r5 return designator, r6 this/result, r7+ parameters, r9..r12
addressing scratch. Local control flow uses cmp/je only; `jmp` appears solely
at the module exits, so caller-callee authentication stamps r0 exactly at
boundary crossings.
"""
from __future__ import annotations

from ..aim.isa import SF, ZF, Assembler, Label
from ..aim.link import ObjKey
from ..aim.words import FORWARDCALL_EP, N_W, SYS_ID, Symbol
from ..jem import ast
from ..jem.typecheck import Checker
from .encoding import encode_class, encode_type, encode_value

DATA_BASE = 65536
SP = DATA_BASE + 0
HP = DATA_BASE + 1
OCD = DATA_BASE + 2
SIGTAB_BASE = DATA_BASE + 3
STATIC_BASE = DATA_BASE + 8300
STACK_BASE = 1 << 32
STACK_LIMIT = 1 << 33

# every class requires instanceof; linking rebinds it to the system test procedure
INSTANCEOF_KEY = ast.MethodSig("instanceof", "Obj", ("Obj", "Obj"), "Bool")


class CompileError(Exception):
    pass


def always_jump(a: Assembler, label: str, tmp: int = 11):
    """Unconditional local jump: local control flow never uses `jmp`."""
    a.emit("movi", tmp, Label(label))
    a.emit("cmp", 0, 0)
    a.emit("je", tmp, ZF)


def trampoline(a: Assembler, target: str):
    """One entry-point slot: an always-jump to `target`, padded to N_W words."""
    start = a.here()
    always_jump(a, target, tmp=1)
    a.raw(*([0] * (N_W - (a.here() - start))))


class ClassCompiler:
    """Unlinked compilation of one class: body emitters plus table ingredients.

    prot() assembles the protected module around it.
    """

    def __init__(self, component: ast.JemComponent, cls: ast.JemClass, mid: int):
        self.comp = component
        self.cls = cls
        self.mid = mid
        self.methods = sorted(cls.methods, key=lambda m: m.name)  # entry point i+1 belongs to methods[i]
        checker = Checker(component)
        checker.check_class(cls)
        self.env, self.typing = checker.env, checker.typing
        self.own_enc = encode_class(cls.name)
        self._rm: dict[ast.MethodSig, tuple[Symbol, Symbol]] = {}
        self._ro: dict[ObjKey, Symbol] = {}
        self._labels = 0
        self.depth = 0  # temporaries above the activation record at the emission point
        self.framesize = 0  # words in the activation record of the body being emitted
        # static object layout
        self.obj_offsets: dict[str, int] = {}
        off = STATIC_BASE
        for o in cls.objects:
            self.obj_offsets[o.name] = off
            off += 1 + len(component.cls(o.cname).field_types)
        self.heap_start = off
        self.inst_syms = (Symbol(f"{cls.name}.instanceof.id"), Symbol(f"{cls.name}.instanceof.off"))
        self._rm[INSTANCEOF_KEY] = self.inst_syms

    # -- symbol management ---------------------------------------------------

    def require_method(self, sig: ast.MethodSig) -> tuple[Symbol, Symbol]:
        if sig not in self._rm:
            base = f"{self.cls.name}.{sig.recv}.{sig.name}"
            self._rm[sig] = (Symbol(base + ".id"), Symbol(base + ".off"))
        return self._rm[sig]

    def require_object(self, name: str, cname: str) -> Symbol:
        key = ObjKey(name, cname)
        if key not in self._ro:
            self._ro[key] = Symbol(f"{self.cls.name}.obj.{name}")
        return self._ro[key]

    @property
    def required_methods(self) -> list[tuple[ast.MethodSig, Symbol, Symbol]]:
        out = [(INSTANCEOF_KEY, *self.inst_syms)]
        for sig, (i, s) in sorted(self._rm.items()):
            if sig != INSTANCEOF_KEY:
                out.append((sig, i, s))
        return out

    @property
    def required_objects(self) -> list[tuple[ObjKey, Symbol]]:
        return sorted(self._ro.items())

    @property
    def exported_objects(self) -> list[tuple[ObjKey, int]]:
        return [(ObjKey(o.name, o.cname), self.obj_offsets[o.name]) for o in self.cls.objects]

    def fresh_label(self, stem: str) -> str:
        self._labels += 1
        return f"{stem}_{self._labels}"

    # -- emission helpers ------------------------------------------------------

    def jump_if_zf(self, a: Assembler, label: str):
        a.emit("movi", 11, Label(label))
        a.emit("je", 11, ZF)

    def load_sp(self, a: Assembler):
        """r9 := SP; r10 := module id."""
        a.emit("movi", 10, self.mid)
        a.emit("movi", 9, SP)
        a.emit("movl", 9, 10, 9)

    def push(self, a: Assembler, reg: int):
        self.load_sp(a)
        a.emit("movs", 10, reg, 9)
        a.emit("movi", 11, 1)
        a.emit("add", 9, 11)
        a.emit("movi", 11, SP)
        a.emit("movs", 10, 9, 11)
        self.depth += 1

    def pop(self, a: Assembler, reg: int):
        self.load_sp(a)
        a.emit("movi", 11, 1)
        a.emit("sub", 9, 11)
        a.emit("movi", 11, SP)
        a.emit("movs", 10, 9, 11)
        a.emit("movl", reg, 10, 9)
        self.depth -= 1

    def frame_addr(self, a: Assembler, back: int):
        """r9 := the address `back` words below the end of the activation
        record, which lies under the current temporaries; r10 := module id."""
        self.load_sp(a)
        a.emit("movi", 11, self.depth + back)
        a.emit("sub", 9, 11)

    def var_addr(self, a: Assembler, slot: int):
        """r9 := address offset of var slot; r10 := module id."""
        self.frame_addr(a, self.framesize - 2 - slot)

    def push_value(self, a: Assembler, value: int):
        a.emit("movi", 1, value)
        self.push(a, 1)

    # -- method bodies ---------------------------------------------------------

    def emit_body(self, a: Assembler, m: ast.Method):
        self.framesize = 2 + self.typing.nvars[id(m)]
        a.label(f"body_{m.name}")
        # stack-overflow backstop: spin in place once SP passes the limit
        a.emit("movi", 10, self.mid)
        a.emit("movi", 9, SP)
        a.emit("movl", 1, 10, 9)
        a.emit("movi", 2, STACK_LIMIT)
        a.emit("sub", 1, 2)
        ok = self.fresh_label("stack_ok")
        spin = self.fresh_label("spin")
        a.emit("movi", 11, Label(ok))
        a.emit("je", 11, SF)
        a.label(spin)
        always_jump(a, spin)
        a.label(ok)
        # push activation record [r5, r6, params...]
        self.load_sp(a)
        a.emit("movs", 10, 5, 9)
        a.emit("movi", 11, 1)
        a.emit("add", 9, 11)
        a.emit("movs", 10, 6, 9)
        for i in range(len(m.params)):
            a.emit("movi", 11, 1)
            a.emit("add", 9, 11)
            a.emit("movs", 10, 7 + i, 9)
        a.emit("movi", 9, SP)
        a.emit("movl", 1, 10, 9)
        a.emit("movi", 2, self.framesize)
        a.emit("add", 1, 2)
        a.emit("movs", 10, 1, 9)
        # body expression leaves its value on the stack above the record
        self.depth = 0
        self.expr(a, m.body)
        # epilogue: r6 := result, restore r5, pop the record, local return
        self.pop(a, 6)
        self.frame_addr(a, self.framesize)
        a.emit("movl", 5, 10, 9)
        a.emit("movi", 11, SP)
        a.emit("movs", 10, 9, 11)
        a.emit("cmp", 0, 0)
        a.emit("je", 5, ZF)

    # -- expressions -------------------------------------------------------------

    def expr(self, a: Assembler, e: ast.Expr):
        while isinstance(e, ast.Seq):
            self.expr(a, e.first)
            self.pop(a, 1)
            e = e.second
        if isinstance(e, ast.BinOp):
            # walk the left spine in a loop: long `+` chains nest to the left
            spine = []
            while isinstance(e, ast.BinOp):
                spine.append(e)
                e = e.left
            self.expr(a, e)
            for b in reversed(spine):
                self.expr(a, b.right)
                self.binop(a, b)
        elif isinstance(e, ast.Lit):
            self.push_value(a, encode_value(e.value))
        elif isinstance(e, ast.Var):
            self.compile_var(a, e)
        elif isinstance(e, ast.This):
            self.frame_addr(a, self.framesize - 1)
            a.emit("movl", 1, 10, 9)
            self.push(a, 1)
        elif isinstance(e, ast.VarDecl):
            self.expr(a, e.value)
            self.pop(a, 2)
            self.var_addr(a, self.typing.slots[id(e)])
            a.emit("movs", 10, 2, 9)
            self.push_value(a, encode_value("unit"))
        elif isinstance(e, ast.FieldGet):
            self.expr(a, e.obj)
            self.pop(a, 1)
            self.null_abort(a, 1)
            a.emit("movi", 11, 1 + list(self.cls.field_types).index(e.fname))
            a.emit("add", 1, 11)
            a.emit("movi", 10, self.mid)
            a.emit("movl", 1, 10, 1)
            self.push(a, 1)
        elif isinstance(e, ast.FieldSet):
            self.expr(a, e.obj)
            self.expr(a, e.value)
            self.pop(a, 2)
            self.pop(a, 1)
            self.null_abort(a, 1)
            a.emit("movi", 11, 1 + list(self.cls.field_types).index(e.fname))
            a.emit("add", 1, 11)
            a.emit("movi", 10, self.mid)
            a.emit("movs", 10, 2, 1)
            self.push_value(a, encode_value("unit"))
        elif isinstance(e, ast.If):
            self.compile_if(a, e)
        elif isinstance(e, ast.New):
            self.compile_new(a, e)
        elif isinstance(e, ast.Exit):
            self.expr(a, e.value)
            self.pop(a, 1)
            a.emit("movi", 6, 0)
            a.emit("add", 6, 1)
            a.emit("halt")
            self.depth += 1  # what follows is unreachable; count the value its type promises
        elif isinstance(e, ast.InstanceOf):
            self.compile_instanceof(a, e)
        elif isinstance(e, ast.Call):
            self.compile_call(a, e)
        else:
            raise CompileError(f"cannot compile {type(e).__name__}")

    def compile_var(self, a: Assembler, e: ast.Var):
        slot = self.typing.slots.get(id(e))
        if slot is not None:
            self.var_addr(a, slot)
            a.emit("movl", 1, 10, 9)
            self.push(a, 1)
        else:
            self.push_value(a, self.object_word(e.name))

    def null_abort(self, a: Assembler, reg: int):
        a.emit("movi", 11, 0)
        a.emit("cmp", reg, 11)
        self.jump_if_zf(a, "abort")

    def binop(self, a: Assembler, e: ast.BinOp):
        """Apply `e.op` to the two operands on top of the stack."""
        self.pop(a, 2)
        self.pop(a, 1)
        if e.op == "+":
            a.emit("add", 1, 2)
            self.push(a, 1)
        elif e.op == "-":
            neg = self.fresh_label("neg")
            done = self.fresh_label("done")
            a.emit("sub", 1, 2)
            a.emit("movi", 11, Label(neg))
            a.emit("je", 11, SF)
            always_jump(a, done)
            a.label(neg)
            a.emit("movi", 1, 0)
            a.label(done)
            self.push(a, 1)
        elif e.op == "<":
            a.emit("sub", 1, 2)
            self.push_flag(a, SF)
        elif e.op == "==":
            a.emit("cmp", 1, 2)
            self.push_flag(a, ZF)
        elif e.op == "&&":
            # true=2: the sum is 4 exactly when both are true
            a.emit("add", 1, 2)
            a.emit("movi", 2, 4)
            a.emit("cmp", 1, 2)
            self.push_flag(a, ZF)
        else:
            raise CompileError(f"operator {e.op}")

    def push_flag(self, a: Assembler, flag: int):
        """Push comp(true) if `flag` is set else comp(false)."""
        yes = self.fresh_label("flag_yes")
        done = self.fresh_label("flag_done")
        a.emit("movi", 11, Label(yes))
        a.emit("je", 11, flag)
        a.emit("movi", 1, encode_value(False))
        always_jump(a, done)
        a.label(yes)
        a.emit("movi", 1, encode_value(True))
        a.label(done)
        self.push(a, 1)

    def compile_if(self, a: Assembler, e: ast.If):
        then_l = self.fresh_label("then")
        end_l = self.fresh_label("endif")
        self.expr(a, e.cond)
        self.pop(a, 1)
        a.emit("movi", 2, encode_value(True))
        a.emit("cmp", 1, 2)
        self.jump_if_zf(a, then_l)
        depth = self.depth
        self.expr(a, e.els)
        always_jump(a, end_l)
        a.label(then_l)
        self.depth = depth
        self.expr(a, e.then)
        a.label(end_l)

    def compile_new(self, a: Assembler, e: ast.New):
        if e.cname != self.cls.name:
            raise CompileError(
                f"class {self.cls.name!r} cannot allocate {e.cname!r}: objects are"
                " created by their defining class"
            )
        for x in e.args:
            self.expr(a, x)
        n = len(e.args)
        a.emit("movi", 10, self.mid)
        a.emit("movi", 9, HP)
        a.emit("movl", 1, 10, 9)
        a.emit("movi", 2, self.own_enc)
        a.emit("movs", 10, 2, 1)
        for i in reversed(range(n)):
            self.pop(a, 2)  # clobbers r9..r11, keeps r1
            a.emit("movi", 9, 1 + i)
            a.emit("add", 9, 1)
            a.emit("movi", 10, self.mid)
            a.emit("movs", 10, 2, 9)
        a.emit("movi", 9, 1 + n)
        a.emit("add", 9, 1)
        a.emit("movi", 10, self.mid)
        a.emit("movi", 11, HP)
        a.emit("movs", 10, 9, 11)
        self.push(a, 1)

    def compile_instanceof(self, a: Assembler, e: ast.InstanceOf):
        # the instanceof requirement symbols are materialised so linking rebinds them
        a.emit("movi", 11, self.inst_syms[0])
        a.emit("movi", 11, self.inst_syms[1])
        self.expr(a, e.value)
        self.pop(a, 1)
        enc = encode_class(e.cname)
        lfalse = self.fresh_label("inst_false")
        ltrue = self.fresh_label("inst_true")
        lnonce = self.fresh_label("inst_nonce")
        ldone = self.fresh_label("inst_done")
        a.emit("movi", 2, 0)
        a.emit("cmp", 1, 2)
        self.jump_if_zf(a, lfalse)  # null
        a.emit("movi", 2, 0)
        a.emit("add", 2, 1)  # r2 := arithmetic view; 0 exactly for a nonce here
        a.emit("movi", 11, 0)
        a.emit("cmp", 2, 11)
        self.jump_if_zf(a, lnonce)
        # internal id: compare the object's class word
        a.emit("movi", 10, self.mid)
        a.emit("movl", 2, 10, 1)
        a.emit("movi", 11, enc)
        a.emit("cmp", 2, 11)
        self.jump_if_zf(a, ltrue)
        always_jump(a, lfalse)
        a.label(lnonce)
        a.emit("movi", 11, enc)
        a.emit("gst_test", 2, 1, 11)
        a.emit("movi", 11, 0)
        a.emit("cmp", 2, 11)
        self.jump_if_zf(a, ltrue)
        a.label(lfalse)
        a.emit("movi", 1, encode_value(False))
        always_jump(a, ldone)
        a.label(ltrue)
        a.emit("movi", 1, encode_value(True))
        a.label(ldone)
        self.push(a, 1)

    # -- calls ---------------------------------------------------------------

    def compile_call(self, a: Assembler, e: ast.Call):
        sig = self.typing.sigs[id(e)]
        self.expr(a, e.recv)
        for x in e.args:
            self.expr(a, x)
        n = len(e.args)
        for i in reversed(range(n)):
            self.pop(a, 7 + i)
        self.pop(a, 6)
        self.null_abort(a, 6)
        if sig.recv == self.cls.name:
            resume = self.fresh_label("iresume")
            a.emit("movi", 5, Label(resume))
            always_jump(a, f"body_{e.mname}")
            a.label(resume)
            self.push(a, 6)
        else:
            self.compile_outcall(a, sig, n)

    def compile_outcall(self, a: Assembler, sig: ast.MethodSig, n: int):
        iota, sigma = self.require_method(sig)
        resume = self.fresh_label("oresume")
        # push the outcall triple [this, return-type encoding, resume offset]
        # above the temporaries; the return entry point pops it
        self.load_sp(a)
        a.emit("movi", 1, 0)
        a.emit("add", 1, 9)
        a.emit("movi", 11, self.depth + self.framesize - 1)
        a.emit("sub", 1, 11)
        a.emit("movl", 1, 10, 1)
        a.emit("movs", 10, 1, 9)
        a.emit("movi", 11, 1)
        a.emit("add", 9, 11)
        a.emit("movi", 1, encode_type(sig.ret))
        a.emit("movs", 10, 1, 9)
        a.emit("movi", 11, 1)
        a.emit("add", 9, 11)
        a.emit("movi", 1, Label(resume))
        a.emit("movs", 10, 1, 9)
        a.emit("movi", 11, 1)
        a.emit("add", 9, 11)
        a.emit("movi", 1, SP)
        a.emit("movs", 10, 9, 1)
        a.emit("movi", 9, OCD)
        a.emit("movl", 1, 10, 9)
        a.emit("movi", 11, 1)
        a.emit("add", 1, 11)
        a.emit("movs", 10, 1, 9)
        # mask outgoing object arguments
        for i, pt in enumerate(sig.params):
            self.mask_out(a, 7 + i, pt)
        # scrub scratch and unused parameter registers
        for r in (1, 2, 9, 10, 11, 12):
            a.emit("movi", r, 0)
        for r in range(7 + n, 16):
            a.emit("movi", r, 0)
        a.emit("movi", 3, iota)
        a.emit("movi", 4, sigma)
        always_jump(a, "exit")
        a.label(resume)
        self.push(a, 6)

    def mask_out(self, a: Assembler, reg: int, t: str):
        """Replace an internal id by its mask before it crosses the boundary."""
        if t in (self.cls.name, ast.T_OBJ):
            a.emit("tbl_add", reg)  # null and foreign words pass through untouched

    # -- shared blocks ----------------------------------------------------------

    def emit_exit(self, a: Assembler):
        """The single exit: every external jump funnels through here into sys."""
        a.label("exit")
        a.emit("movi", 5, 0)
        a.emit("movi", 1, FORWARDCALL_EP)
        a.emit("movi", 2, SYS_ID)
        a.emit("jmp", 1, 2)

    def emit_abort(self, a: Assembler):
        a.label("abort")
        a.emit("zero")
        a.emit("halt")

    # -- data -------------------------------------------------------------------

    def data_words(self) -> dict[int, object]:
        mem = {SP: STACK_BASE, HP: self.heap_start, OCD: 0}
        for o in self.cls.objects:
            base = self.obj_offsets[o.name]
            cls = self.comp.cls(o.cname)
            mem[base] = encode_class(o.cname)
            for i, fname in enumerate(cls.field_types):
                mem[base + 1 + i] = self.field_word(o.fields[fname])
        return mem

    def field_word(self, v):
        if isinstance(v, tuple) and v[0] == "objref":
            return self.object_word(v[1])
        return encode_value(v)

    def object_word(self, name: str):
        """A static object's id: its offset if this class defines it, else the
        symbol that linking binds to its cross-module id."""
        if name in self.obj_offsets:
            return self.obj_offsets[name]
        return self.require_object(name, self.env.object_class(name))


def comp_class(component: ast.JemComponent, cls: ast.JemClass, mid: int) -> ClassCompiler:
    """Compile one class of a typechecked component for module id `mid`."""
    return ClassCompiler(component, cls, mid)
