"""Concrete syntax for jem: a deterministic recursive-descent parser.

Shape of a source file:

    class-decl i { m : i()->Int, m2 : i(Int)->Bool };
    obj-decl o : i;
    class c {
      c(x:Int){}
      f : Int;
      public m(y:Int) : c(Int)->Int { return this.f + y; }
    };
    object oc : c { f = 0; };

Imports precede the class they belong to; objects follow it. Operators:
`+ - == < &&` with && loosest, then == and <, then + and -. `E;E` sequencing
binds loosest of all and only inside braces. Braces are mandatory for if.
"""
from __future__ import annotations

from . import ast
from .ast import Pos

KEYWORDS = {
    "class",
    "class-decl",
    "obj-decl",
    "object",
    "public",
    "return",
    "new",
    "if",
    "else",
    "exit",
    "instanceof",
    "var",
    "this",
    "true",
    "false",
    "unit",
    "null",
    "Unit",
    "Bool",
    "Int",
    "Obj",
}

# the keywords that denote values
LITERALS = {"unit": ast.UNIT, "true": True, "false": False, "null": ast.NULL}

# binary operators by precedence, loosest first
LEVELS = (("&&",), ("==", "<"), ("+", "-"))

PUNCT = ["->", "==", "&&", "(", ")", "{", "}", ";", ":", ",", ".", "=", "+", "-", "<"]


class JemSyntaxError(Exception):
    def __init__(self, pos: Pos, msg: str):
        super().__init__(f"{pos.line}:{pos.col}: {msg}")
        self.pos = pos
        self.msg = msg


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind  # 'ident' | 'int' | 'punct' | 'eof'
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"{self.kind}:{self.text}"


def lex(src: str) -> list[Token]:
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        pos = Pos(line, col)
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_-"):
                j += 1
            # identifiers may contain '-' (class-decl, listof-t ...) but not end with it
            while src[j - 1] == "-":
                j -= 1
            toks.append(Token("ident", src[i:j], pos))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                toks.append(Token("punct", p, pos))
                i += len(p)
                col += len(p)
                break
        else:
            raise JemSyntaxError(pos, f"unexpected character {c!r}")
    toks.append(Token("eof", "", Pos(line, col)))
    return toks


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("punct", "ident")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            raise JemSyntaxError(t.pos, f"expected {text!r}, found {t.text!r}")
        return self.next()

    def ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            raise JemSyntaxError(t.pos, f"expected identifier, found {t.text!r}")
        return self.next()

    def comma_list(self, item, close: str = ")") -> list:
        """`item (, item)*`, possibly empty, then `close`."""
        out = []
        if not self.at(close):
            out.append(item())
            while self.accept(","):
                out.append(item())
        self.expect(close)
        return out

    # -- top level ----------------------------------------------------------

    def component(self) -> ast.JemComponent:
        classes = []
        while self.peek().kind != "eof":
            classes.append(self.class_block())
        return ast.JemComponent(classes)

    def class_block(self) -> ast.JemClass:
        imports_c, imports_o = [], []
        while True:
            if self.accept("class-decl"):
                imports_c.append(self.import_class())
            elif self.accept("obj-decl"):
                imports_o.append(self.import_obj())
            else:
                break
        pos = self.expect("class").pos
        name = self.ident().text
        self.expect("{")
        ctor = self.ctor(name)
        field_types = {}
        while self.peek().kind == "ident" and self.peek().text not in KEYWORDS:
            fname = self.ident().text
            self.expect(":")
            field_types[fname] = self.type_()
            self.expect(";")
        methods = []
        while self.at("public"):
            methods.append(self.method())
        self.expect("}")
        self.expect(";")
        objects = []
        while self.at("object"):
            objects.append(self.object_def())
        return ast.JemClass(name, imports_c, imports_o, ctor, field_types, methods, objects, pos)

    def import_class(self) -> ast.ImportClass:
        pos = self.peek().pos
        name = self.ident().text
        self.expect("{")

        def sig():
            mname = self.ident().text
            self.expect(":")
            return self.method_sig(mname)

        sigs = self.comma_list(sig, "}")
        self.expect(";")
        return ast.ImportClass(name, sigs, pos)

    def import_obj(self) -> ast.ImportObj:
        pos = self.peek().pos
        name = self.ident().text
        self.expect(":")
        cname = self.ident().text
        self.expect(";")
        return ast.ImportObj(name, cname, pos)

    def method_sig(self, mname: str) -> ast.MethodSig:
        recv = self.type_()
        self.expect("(")
        params = self.comma_list(self.type_)
        self.expect("->")
        ret = self.type_()
        return ast.MethodSig(mname, recv, tuple(params), ret)

    def ctor(self, cname: str) -> ast.Ctor:
        pos = self.peek().pos
        got = self.ident().text
        if got != cname:
            raise JemSyntaxError(pos, f"constructor {got!r} does not match class {cname!r}")
        self.expect("(")

        def param():
            pname = self.ident().text
            self.expect(":")
            self.type_()
            return pname

        params = self.comma_list(param)
        self.expect("{")
        # field initialisations `this.f = f;` are implied by position; accept and ignore
        while self.accept("this"):
            self.expect(".")
            self.ident()
            self.expect("=")
            self.ident()
            self.expect(";")
        self.expect("}")
        return ast.Ctor(params, pos)

    def method(self) -> ast.Method:
        pos = self.expect("public").pos
        name = self.ident().text
        self.expect("(")
        params = [t.text for t in self.comma_list(self.ident)]
        self.expect(":")
        sig = self.method_sig(name)
        if len(sig.params) != len(params):
            raise JemSyntaxError(pos, f"method {name}: {len(params)} parameters but signature lists {len(sig.params)}")
        self.expect("{")
        self.expect("return")
        body = self.expr_seq()
        self.expect(";")
        self.expect("}")
        return ast.Method(name, params, sig, body, pos)

    def object_def(self) -> ast.ObjectDef:
        pos = self.expect("object").pos
        name = self.ident().text
        self.expect(":")
        cname = self.ident().text
        self.expect("{")
        fields = {}
        while not self.at("}"):
            fname = self.ident().text
            self.expect("=")
            fields[fname] = self.literal_value()
            self.expect(";")
        self.expect("}")
        self.accept(";")
        return ast.ObjectDef(name, cname, fields, pos)

    def literal_value(self):
        t = self.next()
        if t.kind == "int":
            return int(t.text)
        if t.text in LITERALS:
            return LITERALS[t.text]
        if t.kind == "ident":
            return ast.ObjRef(t.text)
        raise JemSyntaxError(t.pos, f"expected a literal, found {t.text!r}")

    def type_(self) -> str:
        t = self.next()
        if t.kind == "ident" and (t.text in ast.BUILTIN_TYPES or t.text not in KEYWORDS):
            return t.text
        raise JemSyntaxError(t.pos, f"expected a type, found {t.text!r}")

    # -- expressions ---------------------------------------------------------

    def expr_seq(self) -> ast.Expr:
        items = [self.expr()]
        # `; }` terminates a body; `;` otherwise continues a sequence
        while self.at(";") and self.toks[self.i + 1].text not in ("}", "return"):
            self.next()
            items.append(self.expr())
        e = items.pop()
        for first in reversed(items):
            e = ast.Seq(first, e, pos=first.pos)
        return e

    def expr(self, level: int = 0) -> ast.Expr:
        """The operators of LEVELS[level:] over postfix operands, each level
        left-associative."""
        if level == len(LEVELS):
            return self.expr_postfix()
        e = self.expr(level + 1)
        while self.peek().kind == "punct" and self.peek().text in LEVELS[level]:
            op = self.next()
            e = ast.BinOp(op.text, e, self.expr(level + 1), pos=op.pos)
        return e

    def expr_postfix(self) -> ast.Expr:
        e = self.expr_primary()
        while self.at("."):
            pos = self.next().pos
            name = self.ident().text
            if self.accept("("):
                e = ast.Call(e, name, self.comma_list(self.expr), pos=pos)
            elif self.accept("="):
                value = self.expr()
                e = ast.FieldSet(e, name, value, pos=pos)
            else:
                e = ast.FieldGet(e, name, pos=pos)
        return e

    def expr_primary(self) -> ast.Expr:
        t = self.peek()
        pos = t.pos
        if t.kind == "int" or t.text in LITERALS:
            return ast.Lit(self.literal_value(), pos=pos)
        if self.accept("this"):
            return ast.This(pos=pos)
        if self.accept("("):
            e = self.expr_seq()
            self.expect(")")
            return e
        if self.accept("new"):
            cname = self.ident().text
            self.expect("(")
            return ast.New(cname, self.comma_list(self.expr), pos=pos)
        if self.accept("if"):
            self.expect("(")
            cond = self.expr_seq()
            self.expect(")")
            self.expect("{")
            then = self.expr_seq()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            els = self.expr_seq()
            self.expect("}")
            return ast.If(cond, then, els, pos=pos)
        if self.accept("exit"):
            self.expect("(")
            v = self.expr_seq()
            self.expect(")")
            return ast.Exit(v, pos=pos)
        if self.accept("instanceof"):
            self.expect("(")
            v = self.expr_seq()
            self.expect(":")
            cname = self.ident().text
            self.expect(")")
            return ast.InstanceOf(v, cname, pos=pos)
        if self.accept("var"):
            name = self.ident().text
            self.expect(":")
            vtype = self.type_()
            self.expect("=")
            value = self.expr()
            return ast.VarDecl(name, vtype, value, pos=pos)
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            return ast.Var(t.text, pos=pos)
        raise JemSyntaxError(pos, f"expected an expression, found {t.text!r}")


def parse_component(text: str) -> ast.JemComponent:
    """Parse a `.jem` source text into a component AST."""
    return Parser(lex(text)).component()
