"""Recursive-descent SQL parser."""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import SqlSyntaxError
from repro.query.sql.ast import (
    Between,
    CaseExpression,
    BinaryOp,
    ColumnRef,
    Expression,
    FromItem,
    FunctionCall,
    InList,
    IsNull,
    Join,
    Like,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from repro.query.sql.lexer import Token, tokenize_sql

_AGG_KEYWORDS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

#: Deepest nesting of one statement: every SELECT (top level, FROM / IN /
#: scalar subquery), every expression inside parentheses, function
#: arguments or CASE, and every link of a NOT / unary-minus chain is one
#: level.  Fixed, so the recursive-descent parser and the recursive AST
#: walkers behind it stay far inside the interpreter's recursion limit
#: (about 11 frames a level); deeper input is a syntax error, never a
#: RecursionError.
MAX_NESTING_DEPTH = 40


def parse_sql(text: str) -> SelectStatement:
    """Parse one SELECT statement (optionally a UNION chain).

    Raises:
        SqlSyntaxError: on any malformed input.
    """
    parser = _Parser(tokenize_sql(text))
    statement = parser.parse_select(allow_union=True)
    parser.skip_op(";")
    parser.expect_eof()
    return statement


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    @property
    def current(self) -> Token:
        """The token at the cursor."""
        return self._tokens[self._pos]

    def advance(self) -> Token:
        """Consume and return the current token."""
        token = self.current
        self._pos += 1
        return token

    def accept_keyword(self, *names: str) -> Token | None:
        """Consume the token if it matches a keyword; else None."""
        if self.current.is_keyword(*names):
            return self.advance()
        return None

    def expect_keyword(self, name: str) -> Token:
        """Consume a required keyword or raise SqlSyntaxError."""
        if not self.current.is_keyword(name):
            raise SqlSyntaxError(
                f"expected {name} at position {self.current.position}, "
                f"found {self.current.value!r}"
            )
        return self.advance()

    def accept_op(self, *ops: str) -> Token | None:
        """Consume the token if it matches an operator; else None."""
        if self.current.is_op(*ops):
            return self.advance()
        return None

    def expect_op(self, op: str) -> Token:
        """Consume a required operator or raise SqlSyntaxError."""
        if not self.current.is_op(op):
            raise SqlSyntaxError(
                f"expected {op!r} at position {self.current.position}, "
                f"found {self.current.value!r}"
            )
        return self.advance()

    def skip_op(self, op: str) -> None:
        """Consume any number of consecutive occurrences of the operator."""
        while self.current.is_op(op):
            self.advance()

    def expect_eof(self) -> None:
        """Raise unless all input has been consumed."""
        if self.current.kind != "eof":
            raise SqlSyntaxError(
                f"unexpected trailing input at position {self.current.position}: "
                f"{self.current.value!r}"
            )

    def expect_identifier(self) -> str:
        """Consume a required identifier and return its text."""
        if self.current.kind != "identifier":
            raise SqlSyntaxError(
                f"expected identifier at position {self.current.position}, "
                f"found {self.current.value!r}"
            )
        return self.advance().value

    @contextmanager
    def _nested(self):
        """One nesting level around a recursive grammar rule."""
        if self._depth >= MAX_NESTING_DEPTH:
            raise SqlSyntaxError(
                f"statement nests deeper than {MAX_NESTING_DEPTH} levels "
                f"at position {self.current.position}"
            )
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------

    def parse_select(self, allow_union: bool = False) -> SelectStatement:
        """Parse a SELECT (optionally a UNION chain when allowed)."""
        with self._nested():
            statement = self._parse_select_core()
            while allow_union and self.accept_keyword("UNION"):
                keep_duplicates = bool(self.accept_keyword("ALL"))
                branch = self._parse_select_core()
                statement.unions.append((branch, keep_duplicates))
                # ORDER BY / LIMIT after the last branch bind to the chain.
                if branch.order_by or branch.limit is not None:
                    statement.order_by = branch.order_by
                    statement.limit = branch.limit
                    branch.order_by = []
                    branch.limit = None
            return statement

    def _parse_select_core(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        statement = SelectStatement()
        statement.distinct = bool(self.accept_keyword("DISTINCT"))
        statement.items = self._select_items()
        if self.accept_keyword("FROM"):
            statement.from_item = self._from_clause()
        if self.accept_keyword("WHERE"):
            statement.where = self.parse_expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            statement.group_by = self._expression_list()
        if self.accept_keyword("HAVING"):
            statement.having = self.parse_expression()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            statement.order_by = self._order_items()
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.kind != "number":
                raise SqlSyntaxError(f"LIMIT expects a number, found {token.value!r}")
            statement.limit = int(token.value)
        return statement

    def _select_items(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self.accept_op(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        expression = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.current.kind == "identifier":
            alias = self.advance().value
        return SelectItem(expression=expression, alias=alias)

    def _from_clause(self) -> FromItem:
        item = self._from_primary()
        while True:
            kind = None
            if self.accept_keyword("JOIN"):
                kind = "inner"
            elif self.current.is_keyword("INNER"):
                self.advance()
                self.expect_keyword("JOIN")
                kind = "inner"
            elif self.current.is_keyword("LEFT"):
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                kind = "left"
            elif self.accept_op(","):
                kind = "cross"
            else:
                return item
            right = self._from_primary()
            condition = None
            if kind != "cross" and self.accept_keyword("ON"):
                condition = self.parse_expression()
            elif kind != "cross":
                raise SqlSyntaxError("JOIN requires an ON condition")
            item = Join(left=item, right=right, condition=condition, kind=kind)

    def _from_primary(self) -> FromItem:
        if self.accept_op("("):
            select = self.parse_select()
            self.expect_op(")")
            self.accept_keyword("AS")
            alias = self.expect_identifier()
            return SubqueryRef(select=select, alias=alias)
        name = self.expect_identifier()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.current.kind == "identifier":
            alias = self.advance().value
        return TableRef(name=name, alias=alias)

    def _order_items(self) -> list[OrderItem]:
        items = []
        while True:
            expression = self.parse_expression()
            ascending = True
            if self.accept_keyword("DESC"):
                ascending = False
            else:
                self.accept_keyword("ASC")
            items.append(OrderItem(expression=expression, ascending=ascending))
            if not self.accept_op(","):
                return items

    def _expression_list(self) -> list[Expression]:
        items = [self.parse_expression()]
        while self.accept_op(","):
            items.append(self.parse_expression())
        return items

    # ------------------------------------------------------------------
    # Expression grammar (precedence climbing)
    # ------------------------------------------------------------------

    def parse_expression(self) -> Expression:
        """Parse a full expression (entry to the precedence climber)."""
        with self._nested():
            return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = BinaryOp(op="OR", left=left, right=self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = BinaryOp(op="AND", left=left, right=self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.accept_keyword("NOT"):
            with self._nested():
                return UnaryOp(op="NOT", operand=self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        negated = bool(self.accept_keyword("NOT"))
        if self.accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return Between(operand=left, low=low, high=high, negated=negated)
        if self.accept_keyword("IN"):
            self.expect_op("(")
            if self.current.is_keyword("SELECT"):
                subquery = self.parse_select()
                self.expect_op(")")
                return InList(operand=left, subquery=subquery, negated=negated)
            items = tuple(self._expression_list())
            self.expect_op(")")
            return InList(operand=left, items=items, negated=negated)
        if self.accept_keyword("LIKE"):
            token = self.advance()
            if token.kind != "string":
                raise SqlSyntaxError("LIKE expects a string pattern")
            return Like(operand=left, pattern=token.value, negated=negated)
        if self.accept_keyword("IS"):
            is_negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return IsNull(operand=left, negated=is_negated)
        if negated:
            raise SqlSyntaxError("dangling NOT before a non-predicate")
        op_token = self.accept_op("=", "!=", "<>", "<", "<=", ">", ">=")
        if op_token:
            op = "!=" if op_token.value == "<>" else op_token.value
            return BinaryOp(op=op, left=left, right=self._parse_additive())
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            op = self.accept_op("+", "-")
            if not op:
                return left
            left = BinaryOp(op=op.value, left=left, right=self._parse_multiplicative())

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            op = self.accept_op("*", "/", "%")
            if not op:
                return left
            left = BinaryOp(op=op.value, left=left, right=self._parse_unary())

    def _parse_unary(self) -> Expression:
        if self.accept_op("-"):
            with self._nested():
                return UnaryOp(op="-", operand=self._parse_unary())
        self.accept_op("+")
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.current
        if token.kind == "number":
            self.advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return Literal(value=value)
        if token.kind == "string":
            self.advance()
            return Literal(value=token.value)
        if token.is_keyword("NULL"):
            self.advance()
            return Literal(value=None)
        if token.is_keyword(*_AGG_KEYWORDS):
            return self._parse_function(self.advance().value)
        if token.is_keyword("CASE"):
            self.advance()
            return self._parse_case()
        if token.kind == "identifier":
            name = self.advance().value
            if self.current.is_op("("):
                return self._parse_function(name.upper())
            if self.accept_op("."):
                if self.accept_op("*"):
                    return Star(table=name)
                column = self.expect_identifier()
                return ColumnRef(name=column, table=name)
            return ColumnRef(name=name)
        if token.is_op("*"):
            self.advance()
            return Star()
        if token.is_op("("):
            self.advance()
            if self.current.is_keyword("SELECT"):
                select = self.parse_select()
                self.expect_op(")")
                return ScalarSubquery(select=select)
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        raise SqlSyntaxError(
            f"unexpected token {token.value!r} at position {token.position}"
        )

    def _parse_case(self) -> Expression:
        """Parse CASE [operand] WHEN ... THEN ... [ELSE ...] END."""
        operand = None
        if not self.current.is_keyword("WHEN"):
            operand = self.parse_expression()
        branches: list[tuple[Expression, Expression]] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            if operand is not None:
                condition = BinaryOp(op="=", left=operand, right=condition)
            self.expect_keyword("THEN")
            branches.append((condition, self.parse_expression()))
        if not branches:
            raise SqlSyntaxError("CASE requires at least one WHEN branch")
        default = None
        if self.accept_keyword("ELSE"):
            default = self.parse_expression()
        self.expect_keyword("END")
        return CaseExpression(branches=tuple(branches), default=default)

    def _parse_function(self, name: str) -> Expression:
        self.expect_op("(")
        distinct = bool(self.accept_keyword("DISTINCT"))
        if self.accept_op(")"):
            return FunctionCall(name=name, args=(), distinct=distinct)
        if self.current.is_op("*"):
            self.advance()
            self.expect_op(")")
            return FunctionCall(name=name, args=(Star(),), distinct=distinct)
        args = tuple(self._expression_list())
        self.expect_op(")")
        return FunctionCall(name=name, args=args, distinct=distinct)
