"""The AST lint rules (GA501-GA509).

Each rule enforces a repo-specific invariant that a generic linter cannot
express — they encode contracts established by earlier subsystems:

* GA501 — metric names must instantiate a template from the
  :mod:`repro.obs.names` catalog (the registry enforces this at runtime;
  the lint moves the failure to authoring time).
* GA502/GA503 — the simulation is deterministic: no wall clock, no
  global RNG, in :mod:`repro.simnet` / :mod:`repro.core.runtime_sim`.
* GA504/GA505 — async hygiene in :mod:`repro.net`: no blocking calls in
  ``async def``, no synchronous lock held across an ``await``.
* GA506 — the checkpoint contract: processor classes override
  ``snapshot``/``restore`` together or not at all.
* GA507 — no bare or silently-swallowed ``except`` in data-plane code.
* GA508 — every public function/method in :mod:`repro.core` carries a
  docstring (the core API is the middleware's contract surface).
* GA509 — record/replay determinism: wall-clock and global-RNG reads in
  :mod:`repro.ledger` and in stage ``on_item`` bodies go through the
  :class:`~repro.ledger.DeterministicContext` (``context.det``).

Scoping is by module path (see each checker's ``applies_to``); a file
opts out of one rule with ``# repro: noqa[GAxxx]`` (see
:mod:`repro.analysis.engine`).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from repro.analysis.engine import Checker, FileContext

__all__ = [
    "ALL_CHECKERS",
    "AsyncBlockingCallChecker",
    "BareExceptChecker",
    "DeterministicReadChecker",
    "LockAcrossAwaitChecker",
    "MetricNameChecker",
    "ModuleLevelRandomChecker",
    "PublicDocstringChecker",
    "SnapshotContractChecker",
    "WallClockChecker",
    "default_checkers",
]

#: Module prefixes whose event order must be reproducible run-to-run.
DETERMINISTIC_PREFIXES = ("repro.simnet", "repro.core.runtime_sim", "repro.core.kernel")

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


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _nearest_function(enclosing: Sequence[ast.AST]) -> Optional[ast.AST]:
    for node in reversed(enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


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
        receiver = _dotted(func.value)
        if receiver is None or receiver.split(".")[-1] not in self.RECEIVERS:
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


class WallClockChecker(Checker):
    """GA502: no wall-clock reads in deterministic modules."""

    code = "GA502"
    interests = (ast.Call,)
    FORBIDDEN = (
        "time.time", "time.monotonic", "time.perf_counter",
        "time.time_ns", "time.monotonic_ns",
        "datetime.now", "datetime.utcnow",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    )

    def applies_to(self, context: FileContext) -> bool:
        return _in_modules(context, DETERMINISTIC_PREFIXES)

    def visit(
        self, node: ast.Call, enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        name = _dotted(node.func)
        if name in self.FORBIDDEN:
            context.add(
                self.code,
                f"{name}() reads the wall clock in deterministic module "
                f"{context.module}",
                node,
            )


class ModuleLevelRandomChecker(Checker):
    """GA503: no global-RNG calls in deterministic modules."""

    code = "GA503"
    interests = (ast.Call,)
    #: ``random.<attr>`` calls that are *not* violations (constructors of
    #: seedable instances).
    ALLOWED = ("Random", "SystemRandom")

    def applies_to(self, context: FileContext) -> bool:
        return _in_modules(context, DETERMINISTIC_PREFIXES)

    def visit(
        self, node: ast.Call, enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"):
            return
        if func.attr in self.ALLOWED:
            return
        context.add(
            self.code,
            f"random.{func.attr}() uses the unseeded module-level RNG in "
            f"deterministic module {context.module}; use a "
            "random.Random(seed) instance",
            node,
        )


class AsyncBlockingCallChecker(Checker):
    """GA504: no blocking calls inside ``async def`` bodies."""

    code = "GA504"
    interests = (ast.Call,)
    BLOCKING = (
        "time.sleep",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.check_output",
        "subprocess.check_call",
    )

    def applies_to(self, context: FileContext) -> bool:
        return _in_modules(context, ("repro.net",))

    def visit(
        self, node: ast.Call, enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        if not isinstance(_nearest_function(enclosing), ast.AsyncFunctionDef):
            return
        name = _dotted(node.func)
        if name in self.BLOCKING or name == "open":
            context.add(
                self.code,
                f"blocking call {name}() inside an async function stalls "
                "the event loop",
                node,
            )


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
        if not isinstance(_nearest_function(enclosing), ast.AsyncFunctionDef):
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
            name = _dotted(expr)
            if name and "lock" in name.split(".")[-1].lower():
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
            name = _dotted(base)
            if name is None:
                continue
            tail = name.split(".")[-1]
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
        name = _dotted(node.type)
        if name is None or name.split(".")[-1] not in self.BROAD:
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
        if _nearest_function(enclosing) is not None:
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


class DeterministicReadChecker(Checker):
    """GA509: nondeterministic reads must go through ``context.det``.

    Scope: everywhere in :mod:`repro.ledger` (the replay subsystem must
    itself be replay-clean), plus every stage ``on_item`` body anywhere
    (the per-item path is what record/replay pins).  A direct wall-clock
    or global-RNG call there produces values the run ledger never sees,
    so a recorded run cannot replay bit-identically.
    """

    code = "GA509"
    interests = (ast.Call,)
    CLOCK = WallClockChecker.FORBIDDEN
    #: ``random.<attr>`` calls that are not draws (seedable constructors).
    RNG_ALLOWED = ModuleLevelRandomChecker.ALLOWED

    def visit(
        self, node: ast.Call, enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        name = _dotted(node.func)
        if name is None:
            return
        is_clock = name in self.CLOCK
        is_rng = (
            name.startswith("random.")
            and name.count(".") == 1
            and name.split(".")[1] not in self.RNG_ALLOWED
        )
        if not (is_clock or is_rng):
            return
        in_ledger = _in_modules(context, ("repro.ledger",))
        function = _nearest_function(enclosing)
        in_on_item = (
            function is not None
            and getattr(function, "name", "") == "on_item"
        )
        if not (in_ledger or in_on_item):
            return
        where = (
            f"module {context.module}" if in_ledger
            else "a stage on_item() body"
        )
        kind = "reads the wall clock" if is_clock else "draws from the global RNG"
        context.add(
            self.code,
            f"{name}() {kind} in {where}; route it through "
            "context.det (now()/draw()) so record/replay can pin it",
            node,
        )


ALL_CHECKERS = (
    MetricNameChecker,
    WallClockChecker,
    ModuleLevelRandomChecker,
    AsyncBlockingCallChecker,
    LockAcrossAwaitChecker,
    SnapshotContractChecker,
    BareExceptChecker,
    PublicDocstringChecker,
    DeterministicReadChecker,
)


def default_checkers() -> List[Checker]:
    """Fresh instances of every registered checker."""
    return [checker() for checker in ALL_CHECKERS]
