"""Text grammar for polynomials and ideal files.

Polynomial grammar: integer coefficients, variables by name, `^` for powers,
`*` optional between factors, `+`/`-` separators, whitespace insignificant.

Ideal files are line-oriented:

    field: QQ            (or GF(p))
    vars: x1 x2 y1 y2
    weights: 1 1 1 1     (optional; defaults to all 1)
    gens:
    x1^2 + x2*y1
    ...

Lines starting with `#` are comments.  Parsing then printing round-trips
modulo whitespace.
"""

from __future__ import annotations

import re

from .fields import field_from_name, field_name
from .rings import GradedRing, Polynomial


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))")


def _tokenize(text, line=None):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", line, pos + 1)
        if m.group(1):
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _PolyParser:
    """Recursive descent over the token list; builds a Polynomial."""

    def __init__(self, ring: GradedRing, tokens, line=None):
        self.ring = ring
        self.tokens = tokens
        self.i = 0
        self.line = line

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok):
        raise ParseError(message, self.line, tok[2] + 1)

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.fail(f"trailing token {tok[1]!r}", tok)
        return p

    def expr(self) -> Polynomial:
        sign = 1
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.next()
            sign = -1 if tok[1] == "-" else 1
        result = self.term().scale(sign)
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.next()
                t = self.term()
                result = result + (t if tok[1] == "+" else -t)
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] == "*":
                self.next()
                result = result * self.factor()
            elif tok[0] in ("int", "name") or (tok[0] == "op" and tok[1] == "("):
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        tok = self.next()
        if tok[0] == "int":
            base = self.ring.const(tok[1])
        elif tok[0] == "name":
            if tok[1] not in self.ring._var_index:
                self.fail(f"unknown variable {tok[1]!r}", tok)
            base = self.ring.variable(tok[1])
        elif tok[0] == "op" and tok[1] == "(":
            base = self.expr()
            close = self.next()
            if close[0] != "op" or close[1] != ")":
                self.fail("expected ')'", close)
        else:
            self.fail(f"expected a coefficient or variable, got {tok[1]!r}", tok)
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.next()
            exp = self.next()
            if exp[0] != "int":
                self.fail("exponent must be a non-negative integer", exp)
            base = base ** exp[1]
        return base


def parse_polynomial(text: str, ring: GradedRing, line=None) -> Polynomial:
    return _PolyParser(ring, _tokenize(text, line), line).parse()


# -- ideal files -----------------------------------------------------------


class IdealFile:
    """Parsed ideal file: a ring plus its generator list."""

    def __init__(self, ring: GradedRing, generators):
        self.ring = ring
        self.generators = list(generators)

    @property
    def gens(self):
        return self.generators

    def to_text(self) -> str:
        lines = [
            f"field: {field_name(self.ring.field)}",
            f"vars: {' '.join(self.ring.variables)}",
        ]
        if any(w != 1 for w in self.ring.weights):
            lines.append(f"weights: {' '.join(str(w) for w in self.ring.weights)}")
        lines.append("gens:")
        lines.extend(str(g) for g in self.generators)
        return "\n".join(lines) + "\n"


def parse_ideal_file(text: str) -> IdealFile:
    field = None
    variables = None
    weights = None
    gens_seen = False
    gen_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        lowered = stripped.lower()
        if not gens_seen:
            if lowered.startswith("field:"):
                try:
                    field = field_from_name(stripped[6:])
                except ValueError as e:
                    raise ParseError(str(e), lineno) from None
                continue
            if lowered.startswith("vars:"):
                variables = stripped[5:].split()
                if not variables:
                    raise ParseError("empty variable list", lineno)
                continue
            if lowered.startswith("weights:"):
                try:
                    weights = [int(w) for w in stripped[8:].split()]
                except ValueError:
                    raise ParseError("weights must be integers", lineno) from None
                continue
            if lowered == "gens:":
                gens_seen = True
                continue
            raise ParseError(f"unexpected header line {stripped!r}", lineno)
        gen_lines.append((lineno, stripped))
    if field is None:
        raise ParseError("missing 'field:' line")
    if variables is None:
        raise ParseError("missing 'vars:' line")
    if not gens_seen:
        raise ParseError("missing 'gens:' line")
    ring = GradedRing(variables, weights, field)
    gens = [parse_polynomial(src, ring, line=lineno) for lineno, src in gen_lines]
    if not gens:
        raise ParseError("ideal file lists no generators")
    return IdealFile(ring, gens)
