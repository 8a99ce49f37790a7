"""The base compiler: one jem class to aim code, data and a symbol table.

Per-module data layout (data section starts at the fixed base D):

    D+0  stack pointer SP               D+8300..  static objects, then heap
    D+1  heap bump pointer              2^32..    the stack, growing upward
    D+2  outstanding-outcall counter

Frames. A body runs with the module id in r0 and its frame pointer FP in r4.
FP is the address of the body's activation record [return designator, this,
vars...] (`framesize` words); above the record lie the temporaries the body
has spilled, `depth` of them, a number the compiler knows at every
instruction. A frame word is thus one `movi k; add r, FP` away, and a body
neither reads nor writes SP:

  - An internal call passes the callee its frame, FP + framesize + depth, in
    r4 and takes the same amount off r4 after the `iresume` label. A callee
    leaves r0 and r4 as it found them, so nothing is reloaded there.
  - SP in memory is written only where code outside the body reads it. An
    outcall pushes a [FP, return-type encoding, resume offset] triple at
    FP + framesize + depth and sets SP past it; the return entry point
    (prot.py) pops the triple and reloads r0 and FP before it jumps to the
    `oresume` label, since the boundary scrubbed both. The method entry point
    starts a body at FP := SP and, once the body returns, sets SP := FP.
  - A body that calls guards its frame: it spins (the module's `overflow`
    block) once FP passes STACK_LIMIT. Nothing lives above the stack, and a
    body that calls nothing adds one frame above a guarded one, so no guard
    needs headroom.

Registers. At a boundary a register has the role the calling convention
(aim/words.py) names. Inside a body, MID is the module id, FP the frame
pointer and `POOL` the scratch registers (operands, addresses and branch
targets); R_RESUME holds the return designator and R_RECV the receiver of a
call and the result of a call and of a body. Argument register i holds
argument i from its load until the call, and parameter i from the entry until
the prologue stores it; nothing else ever lives there, and no body writes a
register above them. Code enters sys only by `enter_sys`, after `scrub` zeroed
what the crossing must not carry: at an outcall the unused argument
registers, on the method entry's return path (prot.py) forwardCall's target
and every argument register. So nothing of the body leaves a module but the
receiver or result, the arguments and the caller id, which `jmp` overwrites.

Operands. The ISA has no register-to-register move, so every value is
compiled straight into the register that uses it (`gen(e, t)`). A leaf
(literal, `this`, variable) loads into its register with no scratch. A leaf
that nothing evaluated after it can change is loaded last, after its node's
other operands; an operand evaluated before a later compound one waits in a
frame temporary (`operands`). A compound expression is so compiled only
while no scratch register holds a value, and the three of `POOL` suffice.
A call leaves its result in R_RECV, which each node takes as that operand's
register where it can. The copy idiom `movi d, 0; add d, s` maps a nonce to 0
and faults on a symbol: it copies only an Int the body computed itself (the
result of `add` or `sub`). Any other value, say a mask or a call's result,
goes through a frame temporary.

Jumps. Local control flow uses cmp/je only; `jmp` appears solely at module
exits, so caller-callee authentication stamps r0 exactly at boundary
crossings. An `if` in tail position ends each branch in the epilogue instead
of jumping to a join, and `-` and comparisons branch over one `movi`.

A spin is one idiom, `movi r, L; cmp 0, 0; je r, ZF` at L (`spin`). One pass
of it writes only r := L and ZF := 1 and comes back to L, touching no memory,
so every later pass leaves the state as it was: a fixed point, which the aim
machine ends at once as at fuel exhaustion (aim/machine.py). The stack guard
spins with it, and so does a method whose body is exactly `this.<m>()`
(`ast.calls_itself`, the loop the interpreter stops at): such a body is its
`body_m` label and the spin, with no activation record, call or epilogue.

Objects are [class encoding, fields...]; an internal object id is its data
offset. Values of the module's own class are internal ids inside the module;
every other object value is a cross-module id (mask) or comp(null).

The compiler types nothing itself. Slots, frame sizes and each call's resolved
signature (internal call or outcall, and the return type an outcall carries)
are the facts the last check of the component left on the AST (jem/ast.py).
"""
from __future__ import annotations

from collections import Counter

from ..aim.isa import SF, ZF, Assembler, Label
from ..aim.link import ObjKey
from ..aim.words import ARG_REGS, FORWARDCALL_EP, MAX_PARAMS, N_W, R_CALLEE_MID, R_CALLEE_OFF, R_JUMP_MID, R_JUMP_OFF
from ..aim.words import R_RECV, R_RESUME, SYS_ID, Symbol
from ..jem import ast
from ..jem.typecheck import Env
from .encoding import encode_class, encode_type, encode_value

DATA_BASE = 65536
SP = DATA_BASE + 0
HP = DATA_BASE + 1
OCD = DATA_BASE + 2
STATIC_BASE = DATA_BASE + 8300  # fixed: acceptance criterion 2 forges ids at these offsets
STACK_BASE = 1 << 32
STACK_LIMIT = 1 << 33

ABORT = "abort"  # the label of a module's abort block (`abort_block`)
MID = 0  # the module id, in a body
FP = 4  # the frame pointer, in a body
POOL = (1, 2, 3)  # scratch registers


class CompileError(Exception):
    pass


def other(*regs) -> int:
    """The first scratch register that is none of `regs`."""
    return next(r for r in POOL if r not in regs)


def always_jump(a: Assembler, label: str, tmp: int):
    """Unconditional local jump through `tmp`: local control flow never uses `jmp`."""
    a.emit("movi", tmp, Label(label))
    a.emit("cmp", 0, 0)
    a.emit("je", tmp, ZF)


def jump_if(a: Assembler, label: str, tmp: int, flag: int = ZF):
    """Local jump through `tmp` to `label` if `flag` is set."""
    a.emit("movi", tmp, Label(label))
    a.emit("je", tmp, flag)


def spin(a: Assembler):
    """Loop in place forever: the one spin idiom (see the module docstring)."""
    a.emit("movi", 11, a.here())
    a.emit("cmp", 0, 0)
    a.emit("je", 11, ZF)


def trampoline(a: Assembler, target: str):
    """One entry-point slot: an always-jump to `target`, padded to N_W words."""
    start = a.here()
    always_jump(a, target, 1)
    a.raw(*([0] * (N_W - (a.here() - start))))


def enter_sys(a: Assembler, ep: int):
    """Jump to sys's entry point `ep`: the one way code enters sys."""
    a.emit("movi", R_JUMP_OFF, ep)
    a.emit("movi", R_JUMP_MID, SYS_ID)
    a.emit("jmp", R_JUMP_OFF, R_JUMP_MID)


def abort_block(a: Assembler):
    """The module's abort block at ABORT: `zero; halt`, the idiom the machine reports as an abort."""
    a.label(ABORT)
    a.emit("zero")
    a.emit("halt")


def abort_unless_equal(a: Assembler, x: int, y: int, tmp: int):
    """Jump to ABORT unless registers x and y hold equal words, through `tmp`."""
    ok = f"eq_{a.here()}"
    a.emit("cmp", x, y)
    jump_if(a, ok, tmp)
    always_jump(a, ABORT, tmp)
    a.label(ok)


def scrub(a: Assembler, regs):
    """Zero `regs`, in order, before a boundary crossing."""
    for r in regs:
        a.emit("movi", r, 0)


def is_leaf(e: ast.Expr) -> bool:
    return isinstance(e, (ast.Lit, ast.This, ast.Var))


def nullable(e: ast.Expr) -> bool:
    """Whether `e` may be null: `this` and static objects never are."""
    return not (isinstance(e, ast.This) or isinstance(e, ast.Var) and e.slot is None)


class ClassCompiler:
    """Unlinked compilation of one class: body emitters plus table ingredients.

    prot() assembles the protected module around it.
    """

    def __init__(self, component: ast.JemComponent, cls: ast.JemClass, mid: int):
        self.comp = component
        self.cls = cls
        self.mid = mid
        self.methods = sorted(cls.methods, key=lambda m: m.name)  # entry point i+1 belongs to methods[i]
        for m in self.methods:
            self.check_arity(m.sig)
        self.env = Env(component)
        self.own_enc = encode_class(cls.name)
        self._rm: dict[ast.MethodSig, tuple[Symbol, Symbol]] = {}
        self._ro: dict[ObjKey, Symbol] = {}
        self._labels = 0
        self.guarded = False  # some body has the stack guard, which spins at `overflow`
        # facts of the body being emitted
        self.framesize = 0  # words in its activation record
        self.depth = 0  # temporaries spilled above the record at the emission point
        self.calls = False  # it calls, so R_RESUME lives in the record
        self._stable: set[int] = set()  # slots written at most once, before any read
        # static object layout
        self.obj_offsets: dict[str, int] = {}
        off = STATIC_BASE
        for o in cls.objects:
            self.obj_offsets[o.name] = off
            off += 1 + len(component.cls(o.cname).field_types)
        self.heap_start = off

    def check_arity(self, sig: ast.MethodSig):
        if len(sig.params) > MAX_PARAMS:
            raise CompileError(
                f"method {sig.recv}.{sig.name} takes {len(sig.params)} parameters;"
                f" the calling convention carries at most {MAX_PARAMS}"
            )

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
        return [(sig, i, s) for sig, (i, s) in sorted(self._rm.items())]

    @property
    def required_objects(self) -> list[tuple[ObjKey, Symbol]]:
        return sorted(self._ro.items())

    @property
    def exported_objects(self) -> list[tuple[ObjKey, int]]:
        return [(ObjKey(o.name, o.cname), self.obj_offsets[o.name]) for o in self.cls.objects]

    def fresh_label(self, stem: str) -> str:
        self._labels += 1
        return f"{stem}_{self._labels}"

    # -- the frame ---------------------------------------------------------------

    def load(self, a: Assembler, r: int, k: int):
        """r := frame word k, through r itself."""
        if k:
            a.emit("movi", r, k)
            a.emit("add", r, FP)
        a.emit("movl", r, MID, r if k else FP)

    def store(self, a: Assembler, r: int, k: int):
        """Frame word k := r, through a scratch register other than r."""
        s = FP
        if k:
            s = other(r)
            a.emit("movi", s, k)
            a.emit("add", s, FP)
        a.emit("movs", MID, r, s)

    def spill(self, a: Assembler, r: int):
        self.store(a, r, self.framesize + self.depth)
        self.depth += 1

    def reload(self, a: Assembler, r: int):
        self.depth -= 1
        self.load(a, r, self.framesize + self.depth)

    # -- method bodies ---------------------------------------------------------

    def emit_body(self, a: Assembler, m: ast.Method):
        """The body of `m` at `body_m`: entered with MID, FP, R_RESUME, R_RECV and
        the parameters as the module docstring says, it leaves its value in
        R_RECV and jumps to R_RESUME with MID and FP as it found them."""
        a.label(f"body_{m.name}")
        if ast.calls_itself(m):
            spin(a)
            return
        nodes = list(ast.walk(m.body))
        decls = Counter(n.slot for n in nodes if isinstance(n, ast.VarDecl))
        nparams = len(m.params)
        # a parameter no `var` redeclares, or a local declared once
        self._stable = {s for s in range(m.nvars) if decls[s] == (s >= nparams)}
        read = {n.slot for n in nodes if isinstance(n, ast.Var)}
        self.framesize = 2 + m.nvars
        self.depth = 0
        self.calls = any(isinstance(n, ast.Call) for n in nodes)
        if self.calls:
            self.guarded = True
            a.emit("movi", 1, STACK_LIMIT - 1)
            a.emit("sub", 1, FP)
            jump_if(a, "overflow", 1, SF)
            self.store(a, R_RESUME, 0)
        if any(isinstance(n, ast.This) for n in nodes):
            self.store(a, R_RECV, 1)
        for i in range(nparams):
            if i in read:
                self.store(a, ARG_REGS[i], 2 + i)
        self.tail(a, m.body)

    def tail(self, a: Assembler, e: ast.Expr):
        """`e` in tail position: its value goes to R_RECV and each path ends in
        the epilogue."""
        while isinstance(e, ast.Seq):
            self.gen(a, e.first, None)
            e = e.second
        if isinstance(e, ast.If):
            then = self.fresh_label("then")
            self.branch(a, e.cond, then)
            self.tail(a, e.els)
            a.label(then)
            self.tail(a, e.then)
            return
        self.gen(a, e, R_RECV)
        if not isinstance(e, ast.Exit):
            if self.calls:
                self.load(a, R_RESUME, 0)
            a.emit("cmp", 0, 0)
            a.emit("je", R_RESUME, ZF)

    # -- expressions -------------------------------------------------------------

    def deferrable(self, e: ast.Expr) -> bool:
        """A leaf whose value no evaluation in the body changes once it can be read."""
        if isinstance(e, ast.Var):
            return e.slot is None or e.slot in self._stable
        return isinstance(e, (ast.Lit, ast.This))

    def gen(self, a: Assembler, e: ast.Expr, t: int | None):
        """Compile `e` so that its value ends in register `t` (None: discard
        it). Unless `e` is a leaf, no scratch register holds a live value."""
        while isinstance(e, ast.Seq):
            self.gen(a, e.first, None)
            e = e.second
        if is_leaf(e):
            if t is not None:
                self.leaf(a, e, t)
        elif isinstance(e, ast.BinOp):
            self.compile_binop(a, e, t)
        elif isinstance(e, ast.Call):
            self.compile_call(a, e)
            if t not in (None, R_RECV):  # the result may be a mask: through memory
                self.spill(a, R_RECV)
                self.reload(a, t)
        elif isinstance(e, ast.FieldGet):
            self.compile_fieldget(a, e, t)
        elif isinstance(e, ast.FieldSet):
            self.compile_fieldset(a, e, t)
        elif isinstance(e, ast.VarDecl):
            v = R_RECV if isinstance(e.value, ast.Call) else 1
            self.gen(a, e.value, v)
            self.store(a, v, 2 + e.slot)
            self.unit(a, t)
        elif isinstance(e, ast.If):
            self.compile_if(a, e, t)
        elif isinstance(e, ast.New):
            self.compile_new(a, e, t)
        elif isinstance(e, ast.Exit):
            self.gen(a, e.value, R_RECV)
            a.emit("halt")
        elif isinstance(e, ast.InstanceOf):
            self.compile_instanceof(a, e, t)
        else:
            raise CompileError(f"cannot compile {type(e).__name__}")

    def leaf(self, a: Assembler, e: ast.Expr, t: int):
        """Load a leaf into `t`, using no other register."""
        if isinstance(e, ast.Lit):
            a.emit("movi", t, encode_value(e.value))
        elif isinstance(e, ast.This):
            self.load(a, t, 1)
        elif e.slot is None:
            a.emit("movi", t, self.object_word(e.name))
        else:
            self.load(a, t, 2 + e.slot)

    def unit(self, a: Assembler, t: int | None):
        if t is not None:
            a.emit("movi", t, encode_value(ast.UNIT))

    def operands(self, a: Assembler, ops: list, regs: list[int]):
        """Evaluate `ops` in order, leaving each value in its register of
        `regs`; a None operand is a value already there. A deferrable leaf is
        loaded last. An operand evaluated before a later compound one waits
        in a frame temporary, as that one may use every scratch register and
        a call clobbers them all."""
        late = [i for i, o in enumerate(ops) if o is not None and self.deferrable(o)]
        eager = [i for i in range(len(ops)) if i not in late]
        last = max((i for i in eager if ops[i] is not None and not is_leaf(ops[i])), default=-1)
        waiting = []
        for i in eager:
            o, r = ops[i], regs[i]
            if i < last:
                src = R_RECV if isinstance(o, ast.Call) else r
                if o is not None:
                    self.gen(a, o, src)
                self.spill(a, src)
                waiting.append(r)
            elif o is not None:
                self.gen(a, o, r)
        for r in reversed(waiting):
            self.reload(a, r)
        for i in late:
            self.leaf(a, ops[i], regs[i])

    def null_abort(self, a: Assembler, r: int, s: int):
        """Abort if `r` holds null, through the scratch register `s`."""
        a.emit("movi", s, 0)
        a.emit("cmp", r, s)
        jump_if(a, ABORT, s)

    def compile_binop(self, a: Assembler, e: ast.BinOp, t: int | None):
        leaf, spine = ast.left_spine(e)
        if t is None:  # no operator has an effect
            self.gen(a, leaf, None)
            for b in spine:
                self.gen(a, b.right, None)
            return
        x, y = self.chain(a, leaf, spine, t)
        self.apply(a, e.op, x, y, t)

    def chain(self, a: Assembler, leaf: ast.Expr, spine: list[ast.BinOp], t: int | None) -> tuple[int, int]:
        """Evaluate the operands of a left spine (`ast.left_spine`) and apply
        every operator but the last; returns the last one's operand registers,
        its operands in them. The registers are planned from the last operator
        back, so that its value can land in `t` (None: only its flags count)."""
        plan, r = [], t
        for i in reversed(range(len(spine))):
            plan.append(self.binop_regs(spine[i], r, leaf if i == 0 else None))
            r = plan[-1][0]
        plan.reverse()
        for i, b in enumerate(spine):
            x, y = plan[i]
            self.operands(a, [leaf if i == 0 else None, b.right], [x, y])
            if i + 1 < len(spine):
                self.apply(a, b.op, x, y, plan[i + 1][0])
        return plan[-1]

    def binop_regs(self, b: ast.BinOp, r: int | None, left: ast.Expr | None) -> tuple[int, int]:
        """Registers for `b`'s left and right operands such that its value
        lands in `r`; `left` is None when the left operand is already held. A
        call's result stays in R_RECV, and a difference lands in its right
        operand's register."""
        r = POOL[0] if r is None else r
        if isinstance(b.right, ast.Call):
            return (r if r != R_RECV else other(), R_RECV)
        if isinstance(left, ast.Call):
            return (R_RECV, r if r != R_RECV else other())
        return (other(r), r) if b.op == "-" else (r, other(r))

    def apply(self, a: Assembler, op: str, x: int, y: int, r: int):
        """Apply `op` to the left operand in x and the right one in y, leaving
        the value in r."""
        if op == "+":
            d = y if r == y else x
            a.emit("add", d, x if d == y else y)
        elif op == "-":
            # y := |right - left|, with SF set exactly when left > right, the
            # one case the difference stands; else it floors at 0
            stands = self.fresh_label("stands")
            a.emit("sub", y, x)
            jump_if(a, stands, x, SF)
            a.emit("movi", y, 0)
            a.label(stands)
            d = y
        else:
            flag = self.flags(a, op, x, y)
            done = self.fresh_label("flag_done")
            a.emit("movi", r, encode_value(True))
            jump_if(a, done, x if r != x else y, flag)
            a.emit("movi", r, encode_value(False))
            a.label(done)
            return
        if d != r:  # an Int the body computed: the copy idiom applies
            a.emit("movi", r, 0)
            a.emit("add", r, d)

    def flags(self, a: Assembler, op: str, x: int, y: int) -> int:
        """Compare x and y by `op`; returns the flag that is set when it holds."""
        if op == "<":
            a.emit("sub", x, y)
            return SF
        if op == "==":
            a.emit("cmp", x, y)
            return ZF
        if op == "&&":  # true=2: the sum is 4 exactly when both are true
            a.emit("add", x, y)
            a.emit("movi", y, 4)
            a.emit("cmp", x, y)
            return ZF
        raise CompileError(f"operator {op}")

    def branch(self, a: Assembler, cond: ast.Expr, label: str):
        """Jump to `label` if `cond` is true; fall through if it is false."""
        if isinstance(cond, ast.BinOp) and cond.op in ("<", "==", "&&"):
            leaf, spine = ast.left_spine(cond)
            x, y = self.chain(a, leaf, spine, None)
            jump_if(a, label, x, self.flags(a, cond.op, x, y))
        else:
            v = R_RECV if isinstance(cond, ast.Call) else POOL[0]
            self.gen(a, cond, v)
            s = other(v)
            a.emit("movi", s, encode_value(True))
            a.emit("cmp", v, s)
            jump_if(a, label, s)

    def compile_if(self, a: Assembler, e: ast.If, t: int | None):
        then_l = self.fresh_label("then")
        end_l = self.fresh_label("endif")
        self.branch(a, e.cond, then_l)
        self.gen(a, e.els, t)
        always_jump(a, end_l, other(t))
        a.label(then_l)
        self.gen(a, e.then, t)
        a.label(end_l)

    def field_offset(self, fname: str) -> int:
        return 1 + list(self.cls.field_types).index(fname)

    def compile_fieldget(self, a: Assembler, e: ast.FieldGet, t: int | None):
        if t is None and not nullable(e.obj):
            return  # a field of `this` or of a static object: nothing to check
        r = R_RECV if isinstance(e.obj, ast.Call) else POOL[0] if t is None else t
        self.gen(a, e.obj, r)
        s = other(r)
        if nullable(e.obj):
            self.null_abort(a, r, s)
        if t is not None:
            a.emit("movi", s, self.field_offset(e.fname))
            a.emit("add", r, s)
            a.emit("movl", t, MID, r)

    def compile_fieldset(self, a: Assembler, e: ast.FieldSet, t: int | None):
        x = R_RECV if isinstance(e.obj, ast.Call) and is_leaf(e.value) else POOL[0]
        y = R_RECV if isinstance(e.value, ast.Call) else POOL[1]
        self.operands(a, [e.obj, e.value], [x, y])
        s = other(x, y)
        if nullable(e.obj):
            self.null_abort(a, x, s)
        a.emit("movi", s, self.field_offset(e.fname))
        a.emit("add", x, s)
        a.emit("movs", MID, y, x)
        self.unit(a, t)

    def compile_new(self, a: Assembler, e: ast.New, t: int | None):
        if e.cname != self.cls.name:
            raise CompileError(
                f"class {self.cls.name!r} cannot allocate {e.cname!r}: objects are"
                " created by their defining class"
            )
        # compound arguments wait in frame temporaries, in order; a deferrable
        # leaf is loaded at its field's store
        args = []
        for x in e.args:
            if self.deferrable(x):
                args.append(x)
            else:
                r = R_RECV if isinstance(x, ast.Call) else POOL[0]
                self.gen(a, x, r)
                args.append(self.framesize + self.depth)
                self.spill(a, r)
        p = POOL[1] if t is None else t  # the new object's id
        s = other(p)
        u = other(p, s)
        a.emit("movi", s, HP)
        a.emit("movl", p, MID, s)
        a.emit("movi", u, self.own_enc)
        a.emit("movs", MID, u, p)
        for i, x in enumerate(args):
            if isinstance(x, int):
                self.load(a, u, x)
            else:
                self.leaf(a, x, u)
            a.emit("movi", s, 1 + i)
            a.emit("add", s, p)
            a.emit("movs", MID, u, s)
        a.emit("movi", s, 1 + len(args))
        a.emit("add", s, p)
        a.emit("movi", u, HP)
        a.emit("movs", MID, s, u)
        self.depth -= sum(isinstance(x, int) for x in args)

    def compile_instanceof(self, a: Assembler, e: ast.InstanceOf, t: int | None):
        if t is None:
            self.gen(a, e.value, None)
            return
        v = R_RECV if isinstance(e.value, ast.Call) else t
        self.gen(a, e.value, v)
        s = other(v)
        u = other(v, s)
        enc = encode_class(e.cname)
        lfalse = self.fresh_label("inst_false")
        lnonce = self.fresh_label("inst_nonce")
        ltrue = self.fresh_label("inst_true")
        ldone = self.fresh_label("inst_done")
        a.emit("movi", s, 0)
        a.emit("cmp", v, s)
        jump_if(a, lfalse, s)  # null
        a.emit("movi", s, 0)
        a.emit("add", s, v)  # the arithmetic view, 0 exactly for a nonce here
        jump_if(a, lnonce, u)
        # internal id: compare the object's class word
        a.emit("movl", s, MID, v)
        a.emit("movi", u, enc)
        a.emit("cmp", s, u)
        jump_if(a, ltrue, u)
        a.label(lfalse)
        a.emit("movi", t, encode_value(False))
        always_jump(a, ldone, other(t))
        a.label(lnonce)  # gst_test leaves 0 on a match, 1 on a mismatch
        a.emit("movi", u, enc)
        a.emit("gst_test", s, v, u)
        a.emit("movi", u, 1)
        a.emit("cmp", s, u)
        jump_if(a, lfalse, u)
        a.label(ltrue)
        a.emit("movi", t, encode_value(True))
        a.label(ldone)

    # -- calls ---------------------------------------------------------------

    def compile_call(self, a: Assembler, e: ast.Call):
        sig, n = e.sig, len(e.args)
        self.check_arity(sig)
        self.operands(a, [e.recv, *e.args], [R_RECV, *ARG_REGS[:n]])
        if nullable(e.recv):
            self.null_abort(a, R_RECV, POOL[0])
        k = self.framesize + self.depth  # the offset of the next frame from FP
        if sig.recv == self.cls.name:
            resume = self.fresh_label("iresume")
            a.emit("movi", 1, k)
            a.emit("add", FP, 1)
            a.emit("movi", R_RESUME, Label(resume))
            always_jump(a, f"body_{e.mname}", 1)
            a.label(resume)
            a.emit("movi", 1, k)
            a.emit("sub", FP, 1)
        else:
            self.compile_outcall(a, sig, n, k)

    def compile_outcall(self, a: Assembler, sig: ast.MethodSig, n: int, k: int):
        iota, sigma = self.require_method(sig)
        resume = self.fresh_label("oresume")
        # push the [FP, return-type encoding, resume offset] triple at FP + k
        # and set SP past it; the return entry point pops it
        a.emit("movi", 1, k)
        a.emit("add", 1, FP)
        a.emit("movs", MID, FP, 1)
        a.emit("movi", 2, 1)
        for w in (encode_type(sig.ret), Label(resume)):
            a.emit("add", 1, 2)
            a.emit("movi", 3, w)
            a.emit("movs", MID, 3, 1)
        a.emit("add", 1, 2)
        a.emit("movi", 3, SP)
        a.emit("movs", MID, 1, 3)
        a.emit("movi", 1, OCD)
        a.emit("movl", 3, MID, 1)
        a.emit("add", 3, 2)
        a.emit("movs", MID, 3, 1)
        # mask outgoing object arguments and scrub the unused argument
        # registers; the registers below R_RECV are overwritten below
        for r, pt in zip(ARG_REGS, sig.params):
            self.mask_out(a, r, pt)
        scrub(a, ARG_REGS[n:])
        a.emit("movi", R_CALLEE_MID, iota)
        a.emit("movi", R_CALLEE_OFF, sigma)
        a.emit("movi", R_RESUME, 0)
        enter_sys(a, FORWARDCALL_EP)
        a.label(resume)

    def mask_out(self, a: Assembler, reg: int, t: str):
        """Replace an internal id by its mask before it crosses the boundary."""
        if t in (self.cls.name, ast.T_OBJ):
            a.emit("tbl_add", reg)  # null and foreign words pass through untouched

    # -- shared blocks ----------------------------------------------------------

    def emit_shared(self, a: Assembler):
        """The blocks every body may jump to: `abort`, and `overflow` if some
        body has the stack guard."""
        abort_block(a)
        if self.guarded:
            a.label("overflow")
            spin(a)

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
        if isinstance(v, ast.ObjRef):
            return self.object_word(v.name)
        return encode_value(v)

    def object_word(self, name: str):
        """A static object's id: its offset if this class defines it, else the
        symbol that linking binds to its cross-module id."""
        if name in self.obj_offsets:
            return self.obj_offsets[name]
        return self.require_object(name, self.env.object_class(name))


def comp_class(component: ast.JemComponent, cls: ast.JemClass, mid: int) -> ClassCompiler:
    """Compile one class of `component` for module id `mid`. The component was
    last checked by `typecheck` with no errors (as `pipeline.modules` does):
    the compiler reads the facts that check left on the AST."""
    return ClassCompiler(component, cls, mid)
