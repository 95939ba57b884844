"""Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' nonneg-integer)?
    base   := rational | name | name '(' namelist ')' | '(' expr ')' | '-' factor

Rational literals are integers of any length (a quotient like ``3/2`` goes
through the division operator and yields the same exact value).  Free
names must be chart coordinates or declared opaque functions; derivative
symbols are written ``A_x``, ``A_xy`` and resolve against the declaration.
Parentheses and unary signs nest at most ``MAX_NESTING`` deep.
"""

from .errors import ExpressionSyntaxError, UnknownSymbolError
from .expression import Expression
from .poly import int_from_digits

_OPERATORS = frozenset("+-*/^(),")
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit also takes "²", which int() refuses
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text, chart, table):
        self.text = text
        self.chart = chart
        self.table = table
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok.kind != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            rhs = self.factor()
            if tok.kind == "*":
                e = e * rhs
            else:
                if rhs.is_zero:
                    raise ExpressionSyntaxError("division by zero", tok.pos)
                e = e / rhs
        return e

    def factor(self):
        e = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("int")
            e = e ** int_from_digits(tok.text)
        return e

    def base(self):
        tok = self.advance()
        if tok.kind == "int":
            return Expression.number(int_from_digits(tok.text), self.chart)
        if tok.kind in ("-", "("):
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"more than {MAX_NESTING} nested parentheses or signs", tok.pos
                )
            self.depth += 1
            if tok.kind == "-":
                e = -self.factor()
            else:
                e = self.expr()
                self.expect(")")
            self.depth -= 1
            return e
        if tok.kind == "name":
            if self.peek().kind == "(":
                return self.call(tok)
            return self.name(tok)
        raise ExpressionSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )

    def call(self, tok):
        self.expect("(")
        args = [self.expect("name").text]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.expect("name").text)
        self.expect(")")
        fn = self.table.base(tok.text)
        if fn is None:
            raise UnknownSymbolError(f"unknown function {tok.text!r}")
        if tuple(args) != fn.args:
            raise ExpressionSyntaxError(
                f"{tok.text} is declared with arguments ({','.join(fn.args)})", tok.pos
            )
        return Expression.from_sym(fn, self.chart)

    def name(self, tok):
        sym = self.table.resolve(tok.text)
        if sym.is_coordinate and tok.text not in self.chart:
            raise UnknownSymbolError(
                f"{tok.text!r} is not a coordinate of chart {self.chart.name}"
            )
        return Expression.from_sym(sym, self.chart)


def parse_expression(text, chart, table):
    """Parse ``text`` into a canonical Expression on ``chart``."""
    return _Parser(text, chart, table).parse()
