"""Recursive-descent parser for the SQL subset.

Grammar (in precedence order for expressions)::

    statement  := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
                  [GROUP BY expr_list [HAVING expr]]
                  [ORDER BY order_list] [LIMIT (integer | '?')]
    join       := [INNER] JOIN table_ref ON expr
    expr       := or_expr
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | predicate
    predicate  := additive [comparison | [NOT] LIKE (string | '?') | IN
                  | BETWEEN | IS [NOT] NULL | CONTAINS]
    additive   := multiplicative (('+'|'-') multiplicative)*
    multiplicative := primary (('*'|'/') primary)*
    primary    := literal | '?' | column | func '(' args ')' | '(' expr ')'
                  | '-' primary

A ``?`` may stand wherever a literal token may -- a primary, a LIKE
pattern, the LIMIT count -- and placeholders are numbered left to right.
Each statement, inner selects included, is stamped with its placeholder
count and whether an ``IN (SELECT ...)`` sits in its own scope, so no one
walks the tree for either.  A NOT is pushed down to the atoms as it is
parsed (:func:`~repro.sql.ast.negate`).
"""

from __future__ import annotations

from repro.core.errors import QueryError
from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    JoinClause,
    Like,
    Literal,
    OrderItem,
    Parameter,
    SelectItem,
    SelectStatement,
    Star,
    TableRef,
    UnaryOp,
    negate,
)
from repro.sql.lexer import Token, tokenize_sql

_COMPARISONS = {"=", "!=", "<>", "<", "<=", ">", ">="}


class SqlParseError(QueryError):
    """Raised on a syntactically invalid query; carries token position."""


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.position = 0
        # ``?`` placeholders are numbered left to right in parse order,
        # shared across subqueries (one parameter list per statement).
        self.parameter_count = 0
        # Whether the statement being parsed has met an IN (SELECT ...).
        self.has_subqueries = False

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.value in words

    def at_punct(self, *values: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.value in values

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise SqlParseError(
                f"expected {word.upper()} at offset {self.peek().position}, "
                f"found {self.peek().value!r}"
            )
        return self.advance()

    def expect_punct(self, value: str) -> Token:
        if not self.at_punct(value):
            raise SqlParseError(
                f"expected {value!r} at offset {self.peek().position}, "
                f"found {self.peek().value!r}"
            )
        return self.advance()

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.kind != "ident":
            raise SqlParseError(
                f"expected identifier at offset {token.position}, found {token.value!r}"
            )
        return self.advance()

    # -- statement -----------------------------------------------------------

    def parse_statement(self, require_eof: bool = True) -> SelectStatement:
        first_parameter, enclosing = self.parameter_count, self.has_subqueries
        self.has_subqueries = False
        self.expect_keyword("select")
        distinct = False
        if self.at_keyword("distinct"):
            self.advance()
            distinct = True
        items = self._select_items()
        self.expect_keyword("from")
        table = self._table_ref()
        joins = []
        while self.at_keyword("join", "inner", "left"):
            join_type = "inner"
            if self.at_keyword("inner"):
                self.advance()
            elif self.at_keyword("left"):
                self.advance()
                join_type = "left"
                if self.at_keyword("outer"):
                    self.advance()
            self.expect_keyword("join")
            join_table = self._table_ref()
            self.expect_keyword("on")
            condition = self.parse_expr()
            joins.append(JoinClause(join_table, condition, join_type))

        where = None
        if self.at_keyword("where"):
            self.advance()
            where = self.parse_expr()

        group_by: list[Expr] = []
        having = None
        if self.at_keyword("group"):
            self.advance()
            self.expect_keyword("by")
            group_by.append(self.parse_expr())
            while self.at_punct(","):
                self.advance()
                group_by.append(self.parse_expr())
            if self.at_keyword("having"):
                self.advance()
                having = self.parse_expr()

        order_by: list[OrderItem] = []
        if self.at_keyword("order"):
            self.advance()
            self.expect_keyword("by")
            order_by.append(self._order_item())
            while self.at_punct(","):
                self.advance()
                order_by.append(self._order_item())

        limit = None
        if self.at_keyword("limit"):
            self.advance()
            token = self.peek()
            if self.at_punct("?"):
                limit = self._parameter()
            elif token.kind == "number" and token.value.isdigit():
                limit = Literal(int(self.advance().value))
            else:
                raise SqlParseError(f"LIMIT needs an integer at offset {token.position}")

        if require_eof and self.peek().kind != "eof":
            raise SqlParseError(
                f"unexpected trailing input at offset {self.peek().position}: "
                f"{self.peek().value!r}"
            )
        has_subqueries, self.has_subqueries = self.has_subqueries, enclosing
        return SelectStatement(
            items=items,
            table=table,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
            parameter_count=self.parameter_count - first_parameter,
            has_subqueries=has_subqueries,
        )

    def _select_items(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self.at_punct(","):
            self.advance()
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        if self.at_punct("*"):
            self.advance()
            return SelectItem(Star())
        expr = self.parse_expr()
        # "alias.*" parses as Column(alias) '.' '*'
        if isinstance(expr, Column) and expr.qualifier is None and self.at_punct("."):
            next_token = self.tokens[self.position + 1]
            if next_token.kind == "punct" and next_token.value == "*":
                self.advance()
                self.advance()
                return SelectItem(Star(qualifier=expr.name))
        alias = None
        if self.at_keyword("as"):
            self.advance()
            alias = self.expect_ident().value
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return SelectItem(expr, alias)

    def _table_ref(self) -> TableRef:
        name = self.expect_ident().value
        alias = None
        if self.at_keyword("as"):
            self.advance()
            alias = self.expect_ident().value
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return TableRef(name, alias)

    def _order_item(self) -> OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.at_keyword("asc"):
            self.advance()
        elif self.at_keyword("desc"):
            self.advance()
            descending = True
        return OrderItem(expr, descending)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self.at_keyword("or"):
            self.advance()
            left = BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self.at_keyword("and"):
            self.advance()
            left = BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self.at_keyword("not"):
            self.advance()
            return negate(self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expr:
        left = self._additive()

        if self.peek().kind == "punct" and self.peek().value in _COMPARISONS:
            op = self.advance().value
            if op == "<>":
                op = "!="
            return BinaryOp(op, left, self._additive())

        negated = False
        if self.at_keyword("not"):
            # NOT LIKE / NOT IN / NOT BETWEEN
            self.advance()
            negated = True
            if not self.at_keyword("like", "in", "between"):
                raise SqlParseError(
                    f"expected LIKE/IN/BETWEEN after NOT at offset {self.peek().position}"
                )

        if self.at_keyword("like"):
            self.advance()
            token = self.peek()
            if self.at_punct("?"):
                return Like(left, self._parameter(), negated)
            if token.kind != "string":
                raise SqlParseError(f"LIKE needs a string pattern at offset {token.position}")
            return Like(left, Literal(self.advance().value), negated)

        if self.at_keyword("in"):
            self.advance()
            self.expect_punct("(")
            if self.at_keyword("select"):
                subquery = self.parse_statement(require_eof=False)
                self.expect_punct(")")
                self.has_subqueries = True
                return InSubquery(left, subquery, negated)
            items = [self.parse_expr()]
            while self.at_punct(","):
                self.advance()
                items.append(self.parse_expr())
            self.expect_punct(")")
            return InList(left, tuple(items), negated)

        if self.at_keyword("between"):
            self.advance()
            low = self._additive()
            self.expect_keyword("and")
            high = self._additive()
            return Between(left, low, high, negated)

        if self.at_keyword("contains"):
            self.advance()
            return BinaryOp("contains", left, self._additive())

        if self.at_keyword("is"):
            self.advance()
            is_negated = False
            if self.at_keyword("not"):
                self.advance()
                is_negated = True
            self.expect_keyword("null")
            return UnaryOp("is-not-null" if is_negated else "is-null", left)

        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while self.at_punct("+", "-"):
            op = self.advance().value
            left = BinaryOp(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> Expr:
        left = self._primary()
        while self.at_punct("*", "/"):
            op = self.advance().value
            left = BinaryOp(op, left, self._primary())
        return left

    def _primary(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            value = float(token.value) if "." in token.value or "e" in token.value.lower() else int(token.value)
            return Literal(value)
        if token.kind == "string":
            self.advance()
            return Literal(token.value)
        if token.kind == "keyword" and token.value in ("true", "false"):
            self.advance()
            return Literal(token.value == "true")
        if token.kind == "keyword" and token.value == "null":
            self.advance()
            return Literal(None)
        if self.at_punct("?"):
            return self._parameter()
        if self.at_punct("-"):
            self.advance()
            return UnaryOp("-", self._primary())
        if self.at_punct("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        if token.kind == "ident":
            name = self.advance().value
            if self.at_punct("("):
                return self._func_call(name)
            if self.at_punct("."):
                # qualified column, unless it's "alias.*" (handled by caller)
                next_token = self.tokens[self.position + 1]
                if next_token.kind == "ident":
                    self.advance()
                    column = self.advance().value
                    return Column(column, qualifier=name)
                return Column(name)
            return Column(name)
        raise SqlParseError(
            f"unexpected token {token.value!r} at offset {token.position}"
        )

    def _parameter(self) -> Parameter:
        self.expect_punct("?")
        self.parameter_count += 1
        return Parameter(self.parameter_count - 1)

    def _func_call(self, name: str) -> FuncCall:
        self.expect_punct("(")
        if self.at_punct("*"):
            self.advance()
            self.expect_punct(")")
            return FuncCall(name.lower(), (), star=True)
        args: list[Expr] = []
        if not self.at_punct(")"):
            args.append(self.parse_expr())
            while self.at_punct(","):
                self.advance()
                args.append(self.parse_expr())
        self.expect_punct(")")
        return FuncCall(name.lower(), tuple(args))


def parse_sql(text: str) -> SelectStatement:
    """Parse one SELECT statement; raises :class:`SqlParseError` on errors."""
    return _Parser(tokenize_sql(text)).parse_statement()
