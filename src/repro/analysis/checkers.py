"""The AST lint rules that are not name bans (GA501, GA505-GA508).

Each rule enforces a repo-specific invariant that a generic linter cannot
express — they encode contracts established by earlier subsystems:

* GA501 — metric names must instantiate a template from the
  :mod:`repro.obs.names` catalog (the registry enforces this at runtime;
  the lint moves the failure to authoring time).
* GA505 — async hygiene in :mod:`repro.net`: no synchronous lock held
  across an ``await``.
* GA506 — the checkpoint contract: processor classes override
  ``snapshot``/``restore`` together or not at all.
* GA507 — no bare or silently-swallowed ``except`` in data-plane code.
* GA508 — every public function/method in :mod:`repro.core` carries a
  docstring (the core API is the middleware's contract surface).

The name bans (GA502-GA504, GA509 and the GA52x structure rules) are
rows of :data:`repro.analysis.rules.RULES`.

Scoping is by module path (see each checker's ``applies_to``); a file
opts out of one rule with ``# repro: noqa[GAxxx]`` (see
:mod:`repro.analysis.engine`).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from repro.analysis.engine import Checker, FileContext, dotted_name, nearest_function
from repro.analysis.rules import RuleChecker

__all__ = [
    "ALL_CHECKERS",
    "BareExceptChecker",
    "LockAcrossAwaitChecker",
    "MetricNameChecker",
    "PublicDocstringChecker",
    "SnapshotContractChecker",
    "default_checkers",
]

#: Module prefixes that move stream data (where a swallowed exception
#: silently loses items or corrupts accounting).
DATA_PLANE_PREFIXES = (
    "repro.core",
    "repro.grid",
    "repro.net",
    "repro.simnet",
    "repro.streams",
)


def _in_modules(context: FileContext, prefixes: Tuple[str, ...]) -> bool:
    return any(
        context.module == p or context.module.startswith(p + ".")
        for p in prefixes
    )


class MetricNameChecker(Checker):
    """GA501: metric-name literals must resolve in the obs catalog."""

    code = "GA501"
    interests = (ast.Call,)
    #: Registry factory methods whose first argument is a metric name.
    METHODS = ("counter", "gauge", "histogram", "series")
    #: Receiver names treated as a MetricsRegistry.
    RECEIVERS = ("metrics", "registry")

    def visit(
        self, node: ast.Call, enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self.METHODS:
            return
        if dotted_name(func.value).split(".")[-1] not in self.RECEIVERS:
            return
        if not node.args:
            return
        name = self._literal_template(node.args[0])
        if name is None:
            return  # dynamic name; the registry still validates at runtime
        from repro.obs.names import METRICS, spec_for

        if name.startswith("\x00"):
            # f-string starting with a placeholder: the prefix may carry
            # dots, so match the literal suffix against the catalog.
            suffix = name[1:]
            if suffix and any(s.template.endswith(suffix) for s in METRICS):
                return
        elif spec_for(name) is not None:
            return
        shown = name.replace("\x00", "{...}")
        context.add(
            self.code,
            f"metric name {shown!r} matches no template in "
            "repro.obs.names.METRICS",
            node.args[0],
        )

    @staticmethod
    def _literal_template(node: ast.expr) -> Optional[str]:
        """A checkable name: literal, or f-string with placeholder marks.

        Interior placeholders become a dot-free marker (entity names
        never contain dots, matching the catalog's ``{x}`` semantics); a
        *leading* placeholder is NUL-prefixed so the caller knows only
        the suffix is trustworthy.
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if not isinstance(node, ast.JoinedStr):
            return None
        parts: List[str] = []
        for i, piece in enumerate(node.values):
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            elif i == 0:
                parts.append("\x00")
            else:
                parts.append("X")
        return "".join(parts)


class LockAcrossAwaitChecker(Checker):
    """GA505: no synchronous lock held across an ``await`` point."""

    code = "GA505"
    interests = (ast.With,)

    def applies_to(self, context: FileContext) -> bool:
        return _in_modules(context, ("repro.net",))

    def visit(
        self, node: ast.With, enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        if not isinstance(nearest_function(enclosing), ast.AsyncFunctionDef):
            return
        if not self._manages_lock(node):
            return
        for child in node.body:
            for inner in ast.walk(child):
                if isinstance(inner, ast.Await):
                    context.add(
                        self.code,
                        "synchronous lock held across an await point; the "
                        "event loop can deadlock behind it",
                        node,
                    )
                    return

    @staticmethod
    def _manages_lock(node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            if "lock" in dotted_name(expr).split(".")[-1].lower():
                return True
        return False


class SnapshotContractChecker(Checker):
    """GA506: processor classes override snapshot/restore together."""

    code = "GA506"
    interests = (ast.ClassDef,)
    #: Base-name suffixes marking a class as a stream processor.
    BASE_MARKERS = ("StreamProcessor", "Stage")

    def visit(
        self, node: ast.ClassDef, enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        if not self._is_processor(node):
            return
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        has_snapshot = "snapshot" in methods
        has_restore = "restore" in methods
        if has_snapshot != has_restore:
            present = "snapshot" if has_snapshot else "restore"
            missing = "restore" if has_snapshot else "snapshot"
            context.add(
                self.code,
                f"class {node.name} overrides {present}() without "
                f"{missing}(); failover cannot rebuild its state",
                node,
            )

    def _is_processor(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            tail = dotted_name(base).split(".")[-1]
            if any(tail.endswith(marker) for marker in self.BASE_MARKERS):
                return True
        return False


class BareExceptChecker(Checker):
    """GA507: no bare or silently-swallowed except in data-plane code."""

    code = "GA507"
    interests = (ast.ExceptHandler,)
    BROAD = ("Exception", "BaseException")

    def applies_to(self, context: FileContext) -> bool:
        return _in_modules(context, DATA_PLANE_PREFIXES)

    def visit(
        self, node: ast.ExceptHandler, enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        if node.type is None:
            context.add(
                self.code,
                "bare except: catches everything, including KeyboardInterrupt",
                node,
            )
            return
        name = dotted_name(node.type)
        if name.split(".")[-1] not in self.BROAD:
            return
        if all(self._is_noop(stmt) for stmt in node.body):
            context.add(
                self.code,
                f"except {name}: swallows the exception silently",
                node,
            )

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        return (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis)


class PublicDocstringChecker(Checker):
    """GA508: public functions in :mod:`repro.core` carry docstrings.

    Scope: module-level functions and methods whose name does not start
    with an underscore (dunders are therefore exempt), defined in a
    public class if any, and not nested inside another function.  The
    core package is the API surface users program stages against, so an
    undocumented public callable there is an undocumented contract.
    """

    code = "GA508"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def applies_to(self, context: FileContext) -> bool:
        return _in_modules(context, ("repro.core",))

    def visit(
        self, node: ast.AST, enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if node.name.startswith("_"):
            return
        if nearest_function(enclosing) is not None:
            return  # a closure, not API surface
        classes = [n for n in enclosing if isinstance(n, ast.ClassDef)]
        if any(cls.name.startswith("_") for cls in classes):
            return  # a method of a private class
        if ast.get_docstring(node) is not None:
            return
        where = ".".join([cls.name for cls in classes] + [node.name])
        context.add(
            self.code,
            f"public function {where}() has no docstring; repro.core is "
            "the user-facing API and must document its contract",
            node,
        )


ALL_CHECKERS = (
    MetricNameChecker,
    LockAcrossAwaitChecker,
    SnapshotContractChecker,
    BareExceptChecker,
    PublicDocstringChecker,
)


def default_checkers() -> List[Checker]:
    """Fresh instances of every registered checker, and of the checker
    that runs :data:`repro.analysis.rules.RULES`."""
    return [checker() for checker in ALL_CHECKERS] + [RuleChecker()]
