"""Recursive-descent parser for the WHILE language.

Concrete syntax: statements are separated by semicolons, and the body after
``do``, ``then`` or ``else`` is one statement or a parenthesised statement
list.  Braces are not WHILE syntax: the lexer rejects ``{`` and ``}`` as
unexpected characters::

    program   := stmt_list [';']
    stmt_list := stmt (';' stmt)*
    stmt      := 'skip'
               | ident ':=' aexpr
               | 'while' '(' bexpr ')' 'do' block
               | 'if' '(' bexpr ')' 'then' block 'else' block
    block     := stmt | '(' stmt_list ')'
    bexpr     := bterm ('or' bterm)*
    bterm     := bfactor ('and' bfactor)*
    bfactor   := 'true' | 'false' | 'not' bfactor | aexpr relop aexpr
               | aexpr                  -- read as aexpr '!=' 0
               | '(' bexpr ')'          -- when it parses as a boolean
    aexpr     := term (('+'|'-') term)*
    term      := factor (('*'|'/') factor)*
    factor    := number | ident | '(' aexpr ')' | '-' factor
"""

from __future__ import annotations

from repro.lang.ast import (
    Assign,
    BinaryArith,
    BoolBinary,
    BoolLit,
    Compare,
    If,
    Not,
    Num,
    Seq,
    Skip,
    Var,
    While,
    WhileNode,
)
from repro.lang.lexer import Token, tokenize

_REL_OPS = ("==", "!=", "<=", ">=", "<", ">")


class ParseError(SyntaxError):
    """Raised when the source does not conform to the WHILE grammar."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{message} (at line {token.line}, column {token.column}, near {token.text!r})")
        self.token = token


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.position = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.position + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.position += 1
        return token

    def check(self, kind: str, text: str | None = None) -> bool:
        token = self.peek()
        return token.kind == kind and (text is None or token.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.check(kind, text):
            expected = text if text is not None else kind
            raise ParseError(f"expected {expected!r}", self.peek())
        return self.advance()

    # -- grammar -----------------------------------------------------------

    def parse_program(self) -> WhileNode:
        statements = self.parse_stmt_list()
        self.expect("eof")
        return statements

    def parse_stmt_list(self) -> WhileNode:
        statements = [self.parse_stmt()]
        while self.check("op", ";"):
            self.advance()
            if self.check("eof"):
                break
            statements.append(self.parse_stmt())
        if len(statements) == 1:
            return statements[0]
        return Seq(tuple(statements))

    def parse_stmt(self) -> WhileNode:
        if self.check("keyword", "skip"):
            self.advance()
            return Skip()
        if self.check("keyword", "while"):
            self.advance()
            self.expect("op", "(")
            condition = self.parse_bexpr()
            self.expect("op", ")")
            self.expect("keyword", "do")
            body = self.parse_block()
            return While(condition, body)
        if self.check("keyword", "if"):
            self.advance()
            self.expect("op", "(")
            condition = self.parse_bexpr()
            self.expect("op", ")")
            self.expect("keyword", "then")
            then_branch = self.parse_block()
            self.expect("keyword", "else")
            else_branch = self.parse_block()
            return If(condition, then_branch, else_branch)
        if self.check("ident"):
            name = self.advance().text
            self.expect("op", ":=")
            value = self.parse_aexpr()
            return Assign(Var(name), value)
        raise ParseError("expected a statement", self.peek())

    def parse_block(self) -> WhileNode:
        if self.check("op", "("):
            # Parenthesised statement groups: (S1 ; S2)
            self.advance()
            body = self.parse_stmt_list()
            self.expect("op", ")")
            return body
        return self.parse_stmt()

    # boolean expressions

    def parse_bexpr(self) -> WhileNode:
        left = self.parse_bterm()
        while self.check("keyword", "or"):
            self.advance()
            right = self.parse_bterm()
            left = BoolBinary("or", left, right)
        return left

    def parse_bterm(self) -> WhileNode:
        left = self.parse_bfactor()
        while self.check("keyword", "and"):
            self.advance()
            right = self.parse_bfactor()
            left = BoolBinary("and", left, right)
        return left

    def parse_bfactor(self) -> WhileNode:
        if self.check("keyword", "true"):
            self.advance()
            return BoolLit(True)
        if self.check("keyword", "false"):
            self.advance()
            return BoolLit(False)
        if self.check("keyword", "not"):
            self.advance()
            return Not(self.parse_bfactor())
        # Either a parenthesised boolean or an arithmetic comparison.  We try
        # the comparison route: parse an aexpr and look for a relational op.
        saved = self.position
        try:
            left = self.parse_aexpr()
        except ParseError:
            self.position = saved
            self.expect("op", "(")
            inner = self.parse_bexpr()
            self.expect("op", ")")
            return inner
        if self.peek().kind == "op" and self.peek().text in _REL_OPS:
            op = self.advance().text
            right = self.parse_aexpr()
            return Compare(op, left, right)
        # "while (a)" style truthiness: treat a bare arithmetic expression as
        # "a != 0", matching how the paper's Figure 5 example uses while(a).
        return Compare("!=", left, Num(0))

    # arithmetic expressions

    def parse_aexpr(self) -> WhileNode:
        left = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.advance().text
            right = self.parse_term()
            left = BinaryArith(op, left, right)
        return left

    def parse_term(self) -> WhileNode:
        left = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            op = self.advance().text
            right = self.parse_factor()
            left = BinaryArith(op, left, right)
        return left

    def parse_factor(self) -> WhileNode:
        if self.check("number"):
            return Num(int(self.advance().text))
        if self.check("ident"):
            return Var(self.advance().text)
        if self.check("op", "-"):
            self.advance()
            operand = self.parse_factor()
            return BinaryArith("-", Num(0), operand)
        if self.check("op", "("):
            self.advance()
            inner = self.parse_aexpr()
            self.expect("op", ")")
            return inner
        raise ParseError("expected an arithmetic expression", self.peek())


def parse_program(source: str) -> WhileNode:
    """Parse WHILE source code into an AST (the program statement)."""
    return _Parser(tokenize(source)).parse_program()


__all__ = ["ParseError", "parse_program"]
