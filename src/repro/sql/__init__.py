"""SQL substrate: lexer, parser, AST, expression evaluation, logical plans.

Characteristic 6: "to support ad hoc access, any serious content integration
solution must support a query language ... today, this requires the use of
the standard SQL language."  This package implements the SQL subset the
federated engine (:mod:`repro.federation`) answers:

``SELECT`` with expressions and aliases, ``FROM`` with inner ``JOIN ... ON``,
``WHERE`` (including ``LIKE``, ``IN``, ``BETWEEN``, ``CONTAINS``), ``GROUP
BY`` with ``COUNT/SUM/AVG/MIN/MAX`` and ``HAVING``, ``ORDER BY``, ``LIMIT``,
plus the object-relational extensions §4 advertises: a ``FUZZY(a, b)``
similarity function and ``MATCH(column, 'query')`` full-text predicate
backed by :mod:`repro.ir`.

The output of :func:`~repro.sql.parser.parse_sql` is an AST;
:func:`~repro.sql.planner.resolve` binds each of its columns to the table
binding that holds it, and :func:`~repro.sql.planner.build_plan` turns the
resolved statement into a logical operator tree
whose leaves are table scans with pushable predicates -- the unit the
federated optimizers place onto sites.
"""

from repro.sql.ast import (
    Between,
    BinaryOp,
    Column,
    FuncCall,
    InList,
    JoinClause,
    Like,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    TableRef,
    UnaryOp,
)
from repro.sql.expressions import evaluate
from repro.sql.lexer import SqlLexError, tokenize_sql
from repro.sql.parser import SqlParseError, parse_sql
from repro.sql.planner import (
    AggregateNode,
    AggregateSplit,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    build_plan,
    resolve,
)
from repro.sql.rewrite import (
    AggregateSplitting,
    PredicatePushdown,
    ProjectionPruning,
    RewritePass,
    RewritePipeline,
    SiteFilterPushdown,
    TextIndexRewrite,
    TopKPushdown,
)

__all__ = [
    "Between",
    "BinaryOp",
    "Column",
    "FuncCall",
    "InList",
    "JoinClause",
    "Like",
    "Literal",
    "OrderItem",
    "SelectItem",
    "SelectStatement",
    "Star",
    "TableRef",
    "UnaryOp",
    "evaluate",
    "SqlLexError",
    "tokenize_sql",
    "SqlParseError",
    "parse_sql",
    "AggregateNode",
    "AggregateSplit",
    "FilterNode",
    "JoinNode",
    "LimitNode",
    "PlanNode",
    "ProjectNode",
    "ScanNode",
    "SortNode",
    "build_plan",
    "resolve",
    "AggregateSplitting",
    "PredicatePushdown",
    "ProjectionPruning",
    "RewritePass",
    "RewritePipeline",
    "SiteFilterPushdown",
    "TextIndexRewrite",
    "TopKPushdown",
]
