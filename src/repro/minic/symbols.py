"""Symbol resolution and scope-tree construction for mini-C.

``resolve`` walks a translation unit, builds a
:class:`repro.core.scopes.ScopeTree` mirroring the program's lexical
structure (file scope, one FUNCTION scope per function containing parameters
and the function body's top-level declarations -- matching the paper's
"function-wise variables" -- and one BLOCK scope per nested block/for
statement), links every :class:`~repro.minic.ast.Identifier` use to its
declaration and records the scope each use occurs in.

The result, a :class:`SymbolTable`, is everything skeleton extraction needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.scopes import ScopeKind, ScopeTree
from repro.minic import ast
from repro.minic.errors import MiniCTypeError

BUILTIN_FUNCTIONS = {"printf", "abort", "exit", "putchar", "__builtin_abort"}


@dataclass
class VariableUse:
    """One resolved variable occurrence (a future skeleton hole)."""

    node: ast.Identifier
    decl: ast.VarDecl
    scope_id: int
    function: str | None
    order: int


@dataclass
class SymbolTable:
    """The result of symbol resolution."""

    scope_tree: ScopeTree
    uses: list[VariableUse] = field(default_factory=list)
    declarations: dict[int, list[ast.VarDecl]] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    # Source-order sequence number of each declaration, keyed by id(decl);
    # shares a counter with VariableUse.order so "declared before used" checks
    # are a simple comparison.
    declaration_order: dict[int, int] = field(default_factory=dict)


class _Resolver:
    def __init__(self) -> None:
        self.tree = ScopeTree(root_kind=ScopeKind.FILE, root_name="<file>")
        self.table = SymbolTable(scope_tree=self.tree)
        # Environment: list of (scope_id, {name: VarDecl}) innermost last.
        self.env: list[tuple[int, dict[str, ast.VarDecl]]] = [(self.tree.root_id, {})]
        self.current_function: str | None = None
        self.order = 0

    # -- scope helpers -------------------------------------------------------

    def push_scope(self, kind: ScopeKind, name: str = "") -> int:
        parent_id = self.env[-1][0]
        scope_id = self.tree.add_scope(parent_id, kind=kind, name=name)
        self.env.append((scope_id, {}))
        return scope_id

    def pop_scope(self) -> None:
        self.env.pop()

    def declare(self, decl: ast.VarDecl) -> None:
        scope_id, names = self.env[-1]
        if decl.name in names:
            raise MiniCTypeError(
                f"redeclaration of {decl.name!r} in the same scope (line {decl.loc.line})"
            )
        names[decl.name] = decl
        decl.scope_id = scope_id
        self.tree.declare(scope_id, decl.name, type=decl.var_type.spelling())
        self.table.declarations.setdefault(scope_id, []).append(decl)
        self.table.declaration_order[id(decl)] = self.order
        self.order += 1

    def lookup(self, name: str) -> ast.VarDecl | None:
        for _, names in reversed(self.env):
            if name in names:
                return names[name]
        return None

    # -- traversal ------------------------------------------------------------

    def resolve_unit(self, unit: ast.TranslationUnit) -> SymbolTable:
        # First pass: record function names so calls resolve regardless of order.
        for decl in unit.decls:
            if isinstance(decl, ast.FunctionDef):
                self.table.functions[decl.name] = decl
        for decl in unit.decls:
            if isinstance(decl, ast.DeclStmt):
                for var_decl in decl.decls:
                    var_decl.is_global = True
                    # Initializers of earlier globals may reference earlier globals.
                    if var_decl.init is not None:
                        self.resolve_expr(var_decl.init)
                    if var_decl.init_list is not None:
                        for item in var_decl.init_list:
                            self.resolve_expr(item)
                    self.declare(var_decl)
            elif isinstance(decl, ast.FunctionDef):
                self.resolve_function(decl)
            else:  # pragma: no cover - defensive
                raise MiniCTypeError(f"unsupported top-level construct {decl!r}")
        return self.table

    def resolve_function(self, function: ast.FunctionDef) -> None:
        if not function.body.items and function.body.loc.line == 0:
            # A prototype: nothing to resolve.
            return
        self.current_function = function.name
        scope_id = self.push_scope(ScopeKind.FUNCTION, name=function.name)
        function.scope_id = scope_id
        for param in function.params:
            self.declare(param)
        # The body block shares the function scope (paper: "function-wise
        # variables"); nested blocks get their own scopes.
        function.body.scope_id = scope_id
        for item in function.body.items:
            self.resolve_stmt(item)
        self.pop_scope()
        self.current_function = None

    def resolve_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            scope_id = self.push_scope(ScopeKind.BLOCK)
            stmt.scope_id = scope_id
            for item in stmt.items:
                self.resolve_stmt(item)
            self.pop_scope()
            return
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    self.resolve_expr(decl.init)
                if decl.init_list is not None:
                    for item in decl.init_list:
                        self.resolve_expr(item)
                self.declare(decl)
            return
        if isinstance(stmt, ast.ExprStmt):
            self.resolve_expr(stmt.expr)
            return
        if isinstance(stmt, ast.Empty):
            return
        if isinstance(stmt, ast.If):
            self.resolve_expr(stmt.condition)
            self.resolve_stmt(stmt.then_branch)
            if stmt.else_branch is not None:
                self.resolve_stmt(stmt.else_branch)
            return
        if isinstance(stmt, ast.While):
            self.resolve_expr(stmt.condition)
            self.resolve_stmt(stmt.body)
            return
        if isinstance(stmt, ast.DoWhile):
            self.resolve_stmt(stmt.body)
            self.resolve_expr(stmt.condition)
            return
        if isinstance(stmt, ast.For):
            scope_id = self.push_scope(ScopeKind.BLOCK, name="for")
            stmt.scope_id = scope_id
            if stmt.init is not None:
                self.resolve_stmt(stmt.init)
            if stmt.condition is not None:
                self.resolve_expr(stmt.condition)
            if stmt.step is not None:
                self.resolve_expr(stmt.step)
            self.resolve_stmt(stmt.body)
            self.pop_scope()
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.resolve_expr(stmt.value)
            return
        if isinstance(stmt, (ast.Break, ast.Continue, ast.Goto)):
            return
        if isinstance(stmt, ast.Label):
            self.resolve_stmt(stmt.statement)
            return
        raise MiniCTypeError(f"unsupported statement {stmt!r}")

    def resolve_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Identifier):
            decl = self.lookup(expr.name)
            if decl is None:
                raise MiniCTypeError(
                    f"use of undeclared identifier {expr.name!r} (line {expr.loc.line})"
                )
            expr.decl = decl
            expr.ctype = decl.var_type
            self.table.uses.append(
                VariableUse(
                    node=expr,
                    decl=decl,
                    scope_id=self.env[-1][0],
                    function=self.current_function,
                    order=self.order,
                )
            )
            self.order += 1
            return
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral, ast.StringLiteral)):
            return
        if isinstance(expr, ast.Unary):
            self.resolve_expr(expr.operand)
            return
        if isinstance(expr, ast.Binary):
            self.resolve_expr(expr.left)
            self.resolve_expr(expr.right)
            return
        if isinstance(expr, ast.Assignment):
            self.resolve_expr(expr.target)
            self.resolve_expr(expr.value)
            return
        if isinstance(expr, ast.Conditional):
            self.resolve_expr(expr.condition)
            self.resolve_expr(expr.then_expr)
            self.resolve_expr(expr.else_expr)
            return
        if isinstance(expr, ast.Call):
            if expr.callee not in self.table.functions and expr.callee not in BUILTIN_FUNCTIONS:
                # Implicitly-declared functions are accepted (C89 style); the
                # interpreter reports an error if such a call is ever reached.
                pass
            for arg in expr.args:
                self.resolve_expr(arg)
            return
        if isinstance(expr, ast.Index):
            self.resolve_expr(expr.base)
            self.resolve_expr(expr.index)
            return
        if isinstance(expr, ast.Cast):
            self.resolve_expr(expr.operand)
            return
        raise MiniCTypeError(f"unsupported expression {expr!r}")


def resolve(unit: ast.TranslationUnit) -> SymbolTable:
    """Resolve identifiers, build the scope tree and collect variable uses."""
    return _Resolver().resolve_unit(unit)


__all__ = ["BUILTIN_FUNCTIONS", "SymbolTable", "VariableUse", "resolve"]
