"""Visitor-dispatch engine the AST lint checkers plug into.

One :func:`ast.walk`-style traversal per file, shared by every checker:
each :class:`Checker` declares the node types it cares about via
:meth:`Checker.interests`, and the engine dispatches each node once to
every interested checker — so adding a checker never adds a traversal.
Unlike ``ast.walk``, the engine maintains an *enclosing stack* (the chain
of ``FunctionDef``/``AsyncFunctionDef``/``ClassDef`` nodes above the
current one), which is what the async-hygiene checkers need to know
whether a call site lives inside an ``async def``.

Suppression: code opts out of specific codes with a
``# repro: noqa[GA504]`` comment (comma-separated codes), at two
granularities shared by ``repro lint`` and ``repro analyze``:

* a comment on a line of its own suppresses the codes for the **whole
  file** (an invariant worth suppressing module-wide gets one
  reviewable marker at the top of the file);
* a comment trailing code suppresses the codes **on that line only**
  (a single deliberate exception stays next to the evidence that
  justifies it).

Unknown codes in a noqa marker are themselves reported, so a typo
cannot silently disable a rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.codes import CODES
from repro.analysis.diagnostics import Diagnostic, Report, Severity, SourceSpan

__all__ = [
    "CHECKOUT", "Checker", "FileContext", "checkout_paths", "dotted_name", "lint_paths",
    "lint_source", "nearest_function",
]

_NOQA = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9,\s]+)\]")


class FileContext:
    """Everything a checker may need about the file under analysis."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        #: Dotted module path relative to the package root, best-effort
        #: (``src/repro/net/channels.py`` -> ``repro.net.channels``).
        self.module = _module_name(path)
        #: Codes suppressed for the whole file (standalone noqa comments).
        self.suppressed: Set[str] = set()
        #: Codes suppressed per line (noqa comments trailing code).
        self.line_suppressed: Dict[int, Set[str]] = {}
        self.report = Report()
        self._parse_noqa()

    def _parse_noqa(self) -> None:
        # Scan real comment tokens only: a docstring *mentioning* a noqa
        # marker must not suppress anything.  A comment on a line of its
        # own is file-scoped; one trailing code is scoped to that line.
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (t.start[0], t.string, t.line[:t.start[1]].strip())
                for t in tokens
                if t.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):
            comments = []
        for line, comment, before in comments:
            match = _NOQA.search(comment)
            if not match:
                continue
            for code in match.group(1).split(","):
                code = code.strip()
                if not code:
                    continue
                if code in CODES:
                    if before:
                        self.line_suppressed.setdefault(line, set()).add(code)
                    else:
                        self.suppressed.add(code)
                else:
                    # A typo'd suppression must be loud, not silent.
                    self.report.diagnostics.append(Diagnostic(
                        code="GA500",
                        severity=Severity.ERROR,
                        message=f"noqa marker names unknown code {code!r}",
                        span=SourceSpan(file=self.path, line=line),
                        hint="suppress only codes registered in "
                             "repro.analysis.codes.CODES",
                    ))

    def is_suppressed(self, code: str, line: Optional[int]) -> bool:
        """Whether ``code`` is suppressed here (file- or line-scoped)."""
        if code in self.suppressed:
            return True
        if line is not None and code in self.line_suppressed.get(line, ()):
            return True
        return False

    def add(
        self,
        code: str,
        message: str,
        node: Optional[ast.AST] = None,
        *,
        hint: Optional[str] = None,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ) -> None:
        """Report a finding at ``node`` (or an explicit ``line``/``column``)
        unless a noqa marker suppresses it."""
        if line is None:
            line = getattr(node, "lineno", None)
        if column is None:
            column = getattr(node, "col_offset", None)
        if self.is_suppressed(code, line):
            return
        source_line = None
        if line is not None and 1 <= line <= len(self.lines):
            source_line = self.lines[line - 1]
        self.report.add(
            code,
            message,
            span=SourceSpan(
                file=self.path,
                line=line,
                column=(column + 1) if column is not None else None,
            ),
            hint=hint,
            source_line=source_line,
        )


class Checker:
    """Base class for one lint rule (one ``GAxxx`` code)."""

    #: The diagnostic code this checker emits.
    code: str = ""
    #: Node types the engine should dispatch to :meth:`visit`.
    interests: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, context: FileContext) -> bool:
        """Whether this rule is in scope for the file (default: yes)."""
        return True

    def begin(self, context: FileContext) -> None:
        """Called once before traversal (reset per-file state)."""

    def visit(
        self,
        node: ast.AST,
        enclosing: Sequence[ast.AST],
        context: FileContext,
    ) -> None:
        """Called for each node matching :attr:`interests`.

        ``enclosing`` is the stack of function/class definitions above
        ``node``, outermost first (``node`` itself excluded).
        """

    def finish(self, context: FileContext) -> None:
        """Called once after traversal (emit whole-file findings)."""

    def conclude(self, report: Report) -> None:
        """Called once after every file of a :func:`lint_paths` run
        (emit findings that count across files)."""


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain; a base that is not a name
    spells ``()`` (``x[0].on_item`` is ``().on_item``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "()")
    return ".".join(reversed(parts))


def nearest_function(enclosing: Sequence[ast.AST]) -> Optional[ast.AST]:
    """The innermost function in an enclosing stack, if any."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return next((n for n in reversed(enclosing) if isinstance(n, functions)), None)


def _dispatch(
    checkers: Sequence[Checker], context: FileContext
) -> None:
    """One traversal, shared: route nodes to interested checkers."""
    interest_map: Dict[Type[ast.AST], List[Checker]] = {}
    for checker in checkers:
        for node_type in checker.interests:
            interest_map.setdefault(node_type, []).append(checker)

    stack: List[ast.AST] = []

    def walk(node: ast.AST) -> None:
        for checker in interest_map.get(type(node), ()):
            checker.visit(node, stack, context)
        is_scope = isinstance(node, _SCOPES)
        if is_scope:
            stack.append(node)
        for child in ast.iter_child_nodes(node):
            walk(child)
        if is_scope:
            stack.pop()

    walk(context.tree)


def lint_source(
    path: str, source: str, checkers: Sequence[Checker]
) -> Report:
    """Lint one file's source text with the given checkers.

    Source the compiler refuses is GA500 and nothing else: the parser
    alone accepts some of it, such as a ``from __future__`` import after
    other statements."""
    try:
        tree = ast.parse(source, filename=path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. SyntaxWarning: not ours to report
            compile(tree, path, "exec", dont_inherit=True)
    except SyntaxError as exc:
        report = Report()
        report.diagnostics.append(Diagnostic(
            code="GA500",
            severity=Severity.ERROR,
            message=f"cannot compile file: {exc.msg}",
            span=SourceSpan(file=path, line=exc.lineno, column=exc.offset),
        ))
        return report
    context = FileContext(path, source, tree)
    active = [c for c in checkers if c.applies_to(context)]
    for checker in active:
        checker.begin(context)
    if active:
        _dispatch(active, context)
    for checker in active:
        checker.finish(context)
    return context.report


#: The repository root this package runs from, when it runs from a
#: checkout (this file is ``src/repro/analysis/engine.py`` under it).
CHECKOUT = Path(__file__).resolve().parents[3]


def checkout_paths(relative: Sequence[str]) -> List[str]:
    """``relative`` (paths from a repository root) in the checkout this
    package runs from, whatever the working directory: relative to the
    working directory when they lie under it, else absolute.  Raises
    ``ValueError`` when the package does not run from a checkout."""
    missing = [path for path in relative if not (CHECKOUT / path).exists()]
    if missing:
        raise ValueError(
            f"{CHECKOUT} is not a repro checkout (no {', '.join(missing)}); "
            "name the files or directories to check"
        )
    cwd = Path.cwd()
    return [
        str(target.relative_to(cwd)) if target.is_relative_to(cwd) else str(target)
        for target in (CHECKOUT / path for path in relative)
    ]


def lint_paths(
    paths: Iterable[str], checkers: Sequence[Checker]
) -> Report:
    """Lint files and directory trees; directories are walked for .py."""
    report = Report()
    for path in _expand(paths):
        source = Path(path).read_text(encoding="utf-8")
        report.extend(lint_source(path, source, checkers))
    for checker in checkers:
        checker.conclude(report)
    return report


def _expand(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(str(p) for p in path.rglob("*.py")))
        else:
            files.append(str(path))
    return files


def _module_name(path: str) -> str:
    """Best-effort dotted module path (anchor at the last ``repro`` dir)."""
    parts = list(Path(path).with_suffix("").parts)
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)
