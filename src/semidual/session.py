"""Session file format: tokenizer, parser, AST and canonical printer.

A session file declares rings, modules and matrices, then runs commands
against them.  The same statements may be wrapped in corpus blocks that
additionally pin expected outcomes, each tagged with the method used to
derive the expected value.  The grammar is brace delimited, uses # line
comments, and requires every generator degree to be written out; nothing
about a module is inferred silently.

    ring R {
        char 101;
        vars x y z;
        weights 3 4 5;            # optional, default weight 1
        ideal { y^2 - x*z; }      # optional
    }
    module Y over R {
        gens deg 0 deg 1;
        rels { [x, y^2]; [z, 0]; }   # one bracket per relation column
    }
    matrix T over R {
        rowdegs 0 0;
        coldegs 0 0 3;
        cols { [1, 3]; [2, 4]; [x, 5*x]; }
    }
    run verify-ab(C, Y) { ext_bound 8; format json; }
    corpus "name" { ... config { seed 0; } expect depth(R).depth = 1 via "hand"; }

parse -> print -> parse is the identity on ASTs; positions are carried
for diagnostics but ignored by equality.
"""

from dataclasses import dataclass, field

__all__ = [
    "ParseError",
    "Num", "Var", "Pow", "Paren", "Prod", "Sum",
    "Value",
    "RingDecl", "ModuleDecl", "MatrixDecl", "RunStmt", "ExpectStmt",
    "CorpusEntry", "SessionSpec",
    "tokenize", "parse_session", "parse_expression", "eval_expr",
    "print_session", "expr_to_str",
]


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


_PUNCT = set("{}()[],;=.^*+-")


@dataclass(frozen=True)
class Token:
    kind: str          # NAME, INT, STRING, PUNCT, EOF
    value: str
    line: int
    col: int


def tokenize(text: str):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = start_line = None
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append(text[j + 1])
                    j += 2
                elif text[j] == "\n":
                    raise ParseError("unterminated string", line, col)
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            toks.append(Token("STRING", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch in _PUNCT:
            toks.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Expression AST.  The printer below is a section of the expression
# parser, which gives the round-trip property.

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Paren:
    inner: object


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node) with sign "+" or "-"


def expr_to_str(e) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Pow):
        return f"{expr_to_str(e.base)}^{e.exp}"
    if isinstance(e, Paren):
        return f"({expr_to_str(e.inner)})"
    if isinstance(e, Prod):
        return "*".join(expr_to_str(f) for f in e.factors)
    if isinstance(e, Sum):
        parts = []
        for idx, (sign, node) in enumerate(e.terms):
            if idx == 0:
                parts.append(("-" if sign == "-" else "")
                             + expr_to_str(node))
            else:
                parts.append(f" {sign} {expr_to_str(node)}")
        return "".join(parts)
    raise TypeError(f"not an expression node: {e!r}")


@dataclass(frozen=True)
class Value:
    """A literal in config or expect position: kind is int, name or str."""
    kind: str
    value: object

    def to_str(self) -> str:
        if self.kind == "int":
            return str(self.value)
        if self.kind == "name":
            return self.value
        escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


# ---------------------------------------------------------------------------
# Statement AST.

@dataclass(frozen=True)
class RingDecl:
    name: str
    char: int
    vars: tuple
    weights: tuple  # () means all weights 1
    ideal: tuple    # expression nodes
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ModuleDecl:
    name: str
    ring: str
    gen_degrees: tuple
    rels: tuple     # tuple of columns, each a tuple of expression nodes
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class MatrixDecl:
    name: str
    ring: str
    row_degrees: tuple
    col_degrees: tuple
    cols: tuple
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class RunStmt:
    command: str
    args: tuple     # expression nodes
    config: tuple   # of (name, Value) in file order
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ExpectStmt:
    command: str
    args: tuple
    path: tuple     # of str or int segments, at least one
    value: Value
    via: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    statements: tuple   # ring/module/matrix declarations, in order
    config: tuple       # of (name, Value)
    expects: tuple
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SessionSpec:
    statements: tuple

    def rings(self):
        return [s for s in self.statements if isinstance(s, RingDecl)]

    def runs(self):
        return [s for s in self.statements if isinstance(s, RunStmt)]

    def corpus_entries(self):
        return [s for s in self.statements if isinstance(s, CorpusEntry)]


# ---------------------------------------------------------------------------
# Parser.

class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_punct(self, value):
        t = self.peek()
        if t.kind != "PUNCT" or t.value != value:
            shown = t.value if t.value else "end of input"
            self.fail(f"expected {value!r} but found {shown!r}")
        return self.next()

    def expect_name(self, what="name"):
        t = self.peek()
        if t.kind != "NAME":
            shown = t.value if t.value else "end of input"
            self.fail(f"expected {what} but found {shown!r}")
        return self.next()

    def expect_keyword(self, word):
        t = self.peek()
        if t.kind != "NAME" or t.value != word:
            shown = t.value if t.value else "end of input"
            self.fail(f"expected keyword {word!r} but found {shown!r}")
        return self.next()

    def at_punct(self, value) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.value == value

    def at_keyword(self, word) -> bool:
        t = self.peek()
        return t.kind == "NAME" and t.value == word

    def signed_int(self) -> int:
        neg = False
        if self.at_punct("-"):
            self.next()
            neg = True
        t = self.peek()
        if t.kind != "INT":
            self.fail(f"expected integer but found {t.value!r}")
        self.next()
        return -int(t.value) if neg else int(t.value)

    # -- expressions --------------------------------------------------------

    def expr(self):
        terms = []
        sign = "+"
        if self.at_punct("-"):
            self.next()
            sign = "-"
        terms.append((sign, self.term()))
        while self.at_punct("+") or self.at_punct("-"):
            sign = self.next().value
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == "+":
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.at_punct("*"):
            self.next()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def factor(self):
        t = self.peek()
        if t.kind == "INT":
            self.next()
            base = Num(int(t.value))
        elif t.kind == "NAME":
            self.next()
            base = Var(t.value)
        elif t.kind == "PUNCT" and t.value == "(":
            self.next()
            inner = self.expr()
            self.expect_punct(")")
            base = Paren(inner)
        else:
            shown = t.value if t.value else "end of input"
            self.fail(f"expected a polynomial factor but found {shown!r}")
        if self.at_punct("^"):
            self.next()
            e = self.peek()
            if e.kind != "INT":
                self.fail(f"expected exponent but found {e.value!r}")
            self.next()
            return Pow(base, int(e.value))
        return base

    # -- clause helpers -----------------------------------------------------

    def bracket_column(self):
        """[ expr, expr, ... ] ;"""
        self.expect_punct("[")
        entries = [self.expr()]
        while True:
            if self.at_punct(","):
                self.next()
                entries.append(self.expr())
            elif self.at_punct("]"):
                self.next()
                break
            else:
                t = self.peek()
                shown = t.value if t.value else "end of input"
                self.fail(f"expected ',' or ']' but found {shown!r}")
        self.expect_punct(";")
        return tuple(entries)

    def command_name(self) -> str:
        parts = [self.expect_name("command name").value]
        while self.at_punct("-"):
            self.next()
            parts.append(self.expect_name("command name").value)
        return "-".join(parts)

    def call(self):
        """COMMAND ( args )"""
        cmd = self.command_name()
        self.expect_punct("(")
        args = []
        if not self.at_punct(")"):
            args.append(self.expr())
            while self.at_punct(","):
                self.next()
                args.append(self.expr())
        self.expect_punct(")")
        return cmd, tuple(args)

    def value(self) -> Value:
        t = self.peek()
        if t.kind == "INT" or (t.kind == "PUNCT" and t.value == "-"):
            return Value("int", self.signed_int())
        if t.kind == "STRING":
            self.next()
            return Value("str", t.value)
        if t.kind == "NAME":
            self.next()
            return Value("name", t.value)
        shown = t.value if t.value else "end of input"
        self.fail(f"expected a value but found {shown!r}")

    def config_items(self):
        """NAME value ; ... up to the closing brace."""
        items = []
        while not self.at_punct("}"):
            key = self.expect_name("config key").value
            val = self.value()
            self.expect_punct(";")
            items.append((key, val))
        return tuple(items)

    # -- statements ---------------------------------------------------------

    def ring_decl(self):
        pos_tok = self.expect_keyword("ring")
        name = "R"
        if self.peek().kind == "NAME":
            name = self.next().value
        self.expect_punct("{")
        self.expect_keyword("char")
        char = self.signed_int()
        self.expect_punct(";")
        self.expect_keyword("vars")
        names = []
        while self.peek().kind == "NAME":
            names.append(self.next().value)
        if not names:
            self.fail("expected at least one variable name")
        self.expect_punct(";")
        weights = ()
        if self.at_keyword("weights"):
            self.next()
            w = []
            while self.peek().kind == "INT":
                w.append(int(self.next().value))
            self.expect_punct(";")
            if len(w) != len(names):
                self.fail(f"{len(names)} variables but {len(w)} weights")
            weights = tuple(w)
        ideal = ()
        if self.at_keyword("ideal"):
            self.next()
            self.expect_punct("{")
            gens = []
            while not self.at_punct("}"):
                gens.append(self.expr())
                self.expect_punct(";")
            self.next()
            ideal = tuple(gens)
        self.expect_punct("}")
        return RingDecl(name, char, tuple(names), weights, ideal,
                        pos=(pos_tok.line, pos_tok.col))

    def module_decl(self):
        pos_tok = self.expect_keyword("module")
        name = self.expect_name("module name").value
        self.expect_keyword("over")
        ring = self.expect_name("ring name").value
        self.expect_punct("{")
        self.expect_keyword("gens")
        degs = []
        while self.at_keyword("deg"):
            self.next()
            degs.append(self.signed_int())
        if not degs:
            self.fail("expected at least one 'deg N'")
        self.expect_punct(";")
        rels = []
        if self.at_keyword("rels"):
            self.next()
            self.expect_punct("{")
            while not self.at_punct("}"):
                col = self.bracket_column()
                if len(col) != len(degs):
                    self.fail(f"relation column has {len(col)} entries for "
                              f"{len(degs)} generators")
                rels.append(col)
            self.next()
        self.expect_punct("}")
        return ModuleDecl(name, ring, tuple(degs), tuple(rels),
                          pos=(pos_tok.line, pos_tok.col))

    def matrix_decl(self):
        pos_tok = self.expect_keyword("matrix")
        name = self.expect_name("matrix name").value
        self.expect_keyword("over")
        ring = self.expect_name("ring name").value
        self.expect_punct("{")
        self.expect_keyword("rowdegs")
        rdeg = []
        while self.peek().kind == "INT" or self.at_punct("-"):
            rdeg.append(self.signed_int())
        self.expect_punct(";")
        self.expect_keyword("coldegs")
        cdeg = []
        while self.peek().kind == "INT" or self.at_punct("-"):
            cdeg.append(self.signed_int())
        self.expect_punct(";")
        self.expect_keyword("cols")
        self.expect_punct("{")
        cols = []
        while not self.at_punct("}"):
            col = self.bracket_column()
            if len(col) != len(rdeg):
                self.fail(f"matrix column has {len(col)} entries for "
                          f"{len(rdeg)} rows")
            cols.append(col)
        self.next()
        if len(cols) != len(cdeg):
            self.fail(f"{len(cdeg)} column degrees but {len(cols)} columns")
        self.expect_punct("}")
        return MatrixDecl(name, ring, tuple(rdeg), tuple(cdeg), tuple(cols),
                          pos=(pos_tok.line, pos_tok.col))

    def run_stmt(self):
        pos_tok = self.expect_keyword("run")
        cmd, args = self.call()
        config = ()
        if self.at_punct("{"):
            self.next()
            config = self.config_items()
            self.expect_punct("}")
        else:
            self.expect_punct(";")
        return RunStmt(cmd, args, config, pos=(pos_tok.line, pos_tok.col))

    def expect_stmt(self):
        pos_tok = self.expect_keyword("expect")
        cmd, args = self.call()
        path = []
        while self.at_punct("."):
            self.next()
            t = self.peek()
            if t.kind == "NAME":
                path.append(self.next().value)
            elif t.kind == "INT":
                path.append(int(self.next().value))
            else:
                self.fail("expected a path segment after '.'")
        if not path:
            self.fail("expected a '.path' selecting a report field")
        self.expect_punct("=")
        val = self.value()
        self.expect_keyword("via")
        t = self.peek()
        if t.kind != "STRING":
            self.fail("expected a quoted derivation note after 'via'")
        via = self.next().value
        self.expect_punct(";")
        return ExpectStmt(cmd, args, tuple(path), val, via,
                          pos=(pos_tok.line, pos_tok.col))

    def corpus_entry(self):
        pos_tok = self.expect_keyword("corpus")
        t = self.peek()
        if t.kind != "STRING":
            self.fail("expected a quoted corpus entry name")
        name = self.next().value
        self.expect_punct("{")
        statements = []
        config = ()
        expects = []
        while not self.at_punct("}"):
            if self.at_keyword("ring"):
                statements.append(self.ring_decl())
            elif self.at_keyword("module"):
                statements.append(self.module_decl())
            elif self.at_keyword("matrix"):
                statements.append(self.matrix_decl())
            elif self.at_keyword("config"):
                self.next()
                self.expect_punct("{")
                config = self.config_items()
                self.expect_punct("}")
            elif self.at_keyword("expect"):
                expects.append(self.expect_stmt())
            else:
                t = self.peek()
                shown = t.value if t.value else "end of input"
                self.fail(f"expected a corpus clause but found {shown!r}")
        self.next()
        return CorpusEntry(name, tuple(statements), config, tuple(expects),
                           pos=(pos_tok.line, pos_tok.col))

    def session(self) -> SessionSpec:
        statements = []
        while self.peek().kind != "EOF":
            if self.at_keyword("ring"):
                statements.append(self.ring_decl())
            elif self.at_keyword("module"):
                statements.append(self.module_decl())
            elif self.at_keyword("matrix"):
                statements.append(self.matrix_decl())
            elif self.at_keyword("run"):
                statements.append(self.run_stmt())
            elif self.at_keyword("corpus"):
                statements.append(self.corpus_entry())
            else:
                t = self.peek()
                shown = t.value if t.value else "end of input"
                self.fail(f"expected a statement but found {shown!r}")
        return SessionSpec(tuple(statements))


def parse_session(text: str) -> SessionSpec:
    """Parse a session file; raises ParseError with line:col on bad input."""
    return _Parser(text).session()


def parse_expression(text: str):
    """Parse one polynomial expression that makes up all of text."""
    parser = _Parser(text)
    node = parser.expr()
    if parser.peek().kind != "EOF":
        parser.fail(f"expected end of input but found {parser.peek().value!r}")
    return node


def eval_expr(node, amb):
    """The polynomial an expression node denotes in the ambient ring amb
    (anything with names, constant, variable, one and zero).  A name that
    is not a variable of amb raises ValueError."""
    if isinstance(node, Num):
        return amb.constant(node.value)
    if isinstance(node, Var):
        if node.name not in amb.names:
            raise ValueError(f"undefined name {node.name!r}")
        return amb.variable(amb.names.index(node.name))
    if isinstance(node, Pow):
        return eval_expr(node.base, amb) ** node.exp
    if isinstance(node, Paren):
        return eval_expr(node.inner, amb)
    if isinstance(node, Prod):
        out = amb.one()
        for f in node.factors:
            out = out * eval_expr(f, amb)
        return out
    if isinstance(node, Sum):
        out = amb.zero()
        for sign, t in node.terms:
            v = eval_expr(t, amb)
            out = out - v if sign == "-" else out + v
        return out
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Canonical printer.

def _print_config(items, indent) -> list:
    pad = " " * indent
    return [f"{pad}{key} {val.to_str()};" for key, val in items]


def _print_stmt(s, indent=0) -> list:
    pad = " " * indent
    inner = " " * (indent + 4)
    out = []
    if isinstance(s, RingDecl):
        out.append(f"{pad}ring {s.name} {{")
        out.append(f"{inner}char {s.char};")
        out.append(f"{inner}vars {' '.join(s.vars)};")
        if s.weights:
            out.append(f"{inner}weights {' '.join(map(str, s.weights))};")
        if s.ideal:
            out.append(f"{inner}ideal {{")
            for g in s.ideal:
                out.append(f"{inner}    {expr_to_str(g)};")
            out.append(f"{inner}}}")
        out.append(f"{pad}}}")
    elif isinstance(s, ModuleDecl):
        out.append(f"{pad}module {s.name} over {s.ring} {{")
        degs = " ".join(f"deg {d}" for d in s.gen_degrees)
        out.append(f"{inner}gens {degs};")
        if s.rels:
            out.append(f"{inner}rels {{")
            for col in s.rels:
                entries = ", ".join(expr_to_str(e) for e in col)
                out.append(f"{inner}    [{entries}];")
            out.append(f"{inner}}}")
        out.append(f"{pad}}}")
    elif isinstance(s, MatrixDecl):
        out.append(f"{pad}matrix {s.name} over {s.ring} {{")
        out.append(f"{inner}rowdegs {' '.join(map(str, s.row_degrees))};")
        out.append(f"{inner}coldegs {' '.join(map(str, s.col_degrees))};")
        out.append(f"{inner}cols {{")
        for col in s.cols:
            entries = ", ".join(expr_to_str(e) for e in col)
            out.append(f"{inner}    [{entries}];")
        out.append(f"{inner}}}")
        out.append(f"{pad}}}")
    elif isinstance(s, RunStmt):
        args = ", ".join(expr_to_str(a) for a in s.args)
        head = f"{pad}run {s.command}({args})"
        if s.config:
            out.append(head + " {")
            out.extend(_print_config(s.config, indent + 4))
            out.append(f"{pad}}}")
        else:
            out.append(head + ";")
    elif isinstance(s, ExpectStmt):
        args = ", ".join(expr_to_str(a) for a in s.args)
        path = "".join(f".{seg}" for seg in s.path)
        via = Value("str", s.via).to_str()
        out.append(f"{pad}expect {s.command}({args}){path} = "
                   f"{s.value.to_str()} via {via};")
    elif isinstance(s, CorpusEntry):
        title = Value("str", s.name).to_str()
        out.append(f"{pad}corpus {title} {{")
        for st in s.statements:
            out.extend(_print_stmt(st, indent + 4))
        if s.config:
            out.append(f"{inner}config {{")
            out.extend(_print_config(s.config, indent + 8))
            out.append(f"{inner}}}")
        for e in s.expects:
            out.extend(_print_stmt(e, indent + 4))
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"unknown statement {s!r}")
    return out


def print_session(spec: SessionSpec) -> str:
    """Canonical text for a parsed session; parsing it returns an equal
    SessionSpec."""
    blocks = [_print_stmt(s) for s in spec.statements]
    return "\n\n".join("\n".join(b) for b in blocks) + "\n"
