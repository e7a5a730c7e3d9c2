"""The repo's architecture rules as one table (GA502-GA504, GA509, GA52x).

Each :class:`Rule` row is one invariant: its code, a matcher kind and
the name patterns it matches, the files it covers and the sites allowed
to break it (path globs from ``repro/`` or ``examples/``;
``path::Name`` allows one class or function), and the fixture under
``tests/analysis/fixtures/lint/`` it fires on.  :class:`RuleChecker`
evaluates every row in the lint engine's one traversal.

Kinds: ``defines`` (a class/def name), ``subclasses`` (a base),
``calls`` (a callee), ``iterates`` (an attribute a ``for`` or
comprehension iterates), ``imports`` (a module or imported name) and
``reads-key`` (a string constant used as a constant's value, a
``.get``/``.pop``/``.setdefault`` argument, a subscript, an ``in`` test
or a dict key).  A name matches as spelled or as resolved through the
file's imports (``import time as t`` makes ``t.time`` ``time.time``),
so aliasing cannot evade a ban.  Patterns are :mod:`fnmatch` globs,
``!glob`` excludes, and ``<name>`` is a set from :data:`SETS` or
:data:`COMPUTED`.  ``inside`` narrows a row to ``async def`` bodies, to
module level (outside ``if TYPE_CHECKING:``) or to functions of one
name; with ``max_sites`` a row counts matching calls across the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from fnmatch import fnmatchcase, translate
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Pattern, Sequence, Set, Tuple, Type

from repro.analysis.diagnostics import Report, SourceSpan
from repro.analysis.engine import Checker, FileContext, dotted_name, nearest_function

__all__ = ["COMPUTED", "RULES", "Rule", "RuleChecker", "SETS", "render_rule_table"]


def _stage_option_keys() -> Tuple[str, ...]:
    from repro.core.options import OPTIONS

    return tuple(option.key for option in OPTIONS)


def _package_exports() -> Tuple[str, ...]:
    """``package.name`` for each name a ``repro`` package exports that is
    not one of its submodules."""
    import importlib

    import repro

    root = Path(repro.__file__).parent
    return tuple(
        f"{package}.{name}"
        for init in sorted(root.rglob("__init__.py"))
        for package in [".".join(("repro",) + init.parent.relative_to(root).parts)]
        for name in getattr(importlib.import_module(package), "__all__", ())
        if not (init.parent / f"{name}.py").exists() and not (init.parent / name).is_dir()
    )


#: Named pattern sets, written out once (the docs table lists them).
SETS: Dict[str, Tuple[str, ...]] = {
    "<wall clock>": (
        "time.time", "time.monotonic", "time.perf_counter", "time.time_ns",
        "time.monotonic_ns", "time.perf_counter_ns", "datetime.now", "datetime.utcnow",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    ),
    # Seedable constructors are not draws.
    "<global RNG>": ("random.*", "!random.Random", "!random.SystemRandom"),
}
#: Named pattern sets computed from the package when first needed.
COMPUTED: Dict[str, Callable[[], Tuple[str, ...]]] = {
    "<stage option keys>": _stage_option_keys,
    "<package exports>": _package_exports,
}


@lru_cache(maxsize=None)
def _regex(patterns: Tuple[str, ...]) -> Pattern[str]:
    globs = [glob for pattern in patterns
             for glob in (COMPUTED[pattern]() if pattern in COMPUTED
                          else SETS.get(pattern, (pattern,)))]
    include = "|".join(translate(g) for g in globs if not g.startswith("!"))
    exclude = "|".join(translate(g[1:]) for g in globs if g.startswith("!"))
    return re.compile(f"(?!{exclude})(?:{include})" if exclude else include)


@dataclass(frozen=True)
class Rule:
    """One architecture rule (see the module docstring)."""

    id: str
    code: str
    #: The invariant in one sentence.
    invariant: str
    kind: str
    patterns: Tuple[str, ...]
    fixture: str
    scope: Tuple[str, ...] = ("repro/**",)
    allowed: Tuple[str, ...] = ()
    #: ``"async def"``, ``"module"``, or a function name.
    inside: Optional[str] = None
    max_sites: Optional[int] = None
    #: Finding text: ``{name}`` is the matched name, ``{module}`` the
    #: file's module; empty means "``name`` breaks ``id``: invariant".
    message: str = ""

    def matches(self, name: str) -> bool:
        """Whether ``name`` matches the row's patterns."""
        return _regex(self.patterns).match(name) is not None

    def finding(self, name: str, module: str = "") -> str:
        """The message reporting ``name``."""
        template = self.message or "{name} breaks {id}: {invariant}"
        return template.format(name=name, module=module, id=self.id, invariant=self.invariant)


_DETERMINISTIC = ("repro/simnet/**", "repro/core/runtime_sim.py", "repro/core/kernel.py")
_REPLAY = "; route it through context.det (now()/draw()) so record/replay can pin it"
_KERNEL = ("repro/core/kernel.py",)
_BLOCKING = ("time.sleep", "socket.create_connection", "socket.getaddrinfo", "subprocess.run",
             "subprocess.check_output", "subprocess.check_call", "open")

RULES: Tuple[Rule, ...] = (
    Rule("no-wall-clock", "GA502", "Simulated code takes time from the simulation Environment.",
         "calls", ("<wall clock>",), "repro/simnet/bad_clock.py", _DETERMINISTIC,
         message="{name}() reads the wall clock in deterministic module {module}"),
    Rule("no-global-rng", "GA503", "Simulated code draws from a seeded random.Random.",
         "calls", ("<global RNG>",), "repro/simnet/bad_clock.py", _DETERMINISTIC,
         message="{name}() uses the unseeded module-level RNG in deterministic module "
                 "{module}; use a random.Random(seed) instance"),
    Rule("no-blocking-in-async", "GA504", "A coroutine in repro.net never blocks the event loop.",
         "calls", _BLOCKING, "repro/net/bad_async.py", ("repro/net/**",), inside="async def",
         message="blocking call {name}() inside an async function stalls the event loop"),
    Rule("replayable-ledger-clock", "GA509", "The ledger reads the clock through context.det.",
         "calls", ("<wall clock>",), "repro/ledger/bad_det.py", ("repro/ledger/**",),
         message="{name}() reads the wall clock in module {module}" + _REPLAY),
    Rule("replayable-ledger-rng", "GA509", "The ledger draws randomness through context.det.",
         "calls", ("<global RNG>",), "repro/ledger/bad_det.py", ("repro/ledger/**",),
         message="{name}() draws from the global RNG in module {module}" + _REPLAY),
    Rule("replayable-on-item-clock", "GA509", "on_item reads the clock through context.det.",
         "calls", ("<wall clock>",), "repro/ledger/aliased_det.py", ("**",), inside="on_item",
         message="{name}() reads the wall clock in a stage on_item() body" + _REPLAY),
    Rule("replayable-on-item-rng", "GA509", "on_item draws randomness through context.det.",
         "calls", ("<global RNG>",), "repro/ledger/bad_det.py", ("**",), inside="on_item",
         message="{name}() draws from the global RNG in a stage on_item() body" + _REPLAY),
    Rule("kernel-definitions", "GA520",
         "Route units, flushes and the source loop are defined only in core/kernel.py.",
         "defines", ("*RouteUnit", "*build_route_units", "*route_indices", "*next_flush_timeout",
                     "*transmit_pending", "*buffer_pending", "*flush_edge*", "*flush_route",
                     "*SourceBinding", "*check_binding", "*source_loop", "*ThreadSource",
                     "*feed_group", "*source_item"),
         "repro/net/ga520_second_definition.py", allowed=_KERNEL),
    Rule("kernel-context", "GA520", "KernelStageContext is the one StageContext.",
         "subclasses", ("*StageContext",), "repro/net/ga520_second_definition.py",
         allowed=_KERNEL + ("repro/core/api.py::RecordingContext",)),
    Rule("kernel-calls", "GA521", "Only the kernel's stage loop calls into a processor.",
         "calls", ("*.on_item", "*processor.flush"), "repro/core/ga521_processor_call.py",
         allowed=_KERNEL),
    Rule("kernel-source-payloads", "GA522", "Only the kernel's source loop reads payloads.",
         "iterates", ("*.payloads",), "repro/core/ga522_source_read.py", allowed=_KERNEL),
    Rule("kernel-source-gaps", "GA522", "Only the kernel's source loop draws arrival gaps.",
         "calls", ("*.gaps",), "repro/core/ga522_source_read.py", allowed=_KERNEL),
    Rule("one-admission", "GA523",
         "Admission and the run report each make their lifecycle calls at one site.",
         "calls", ("*verify_config", "*expand_shards", "*_register_codes",
                   "*StageStats.from_registry"), "repro/grid/ga523_second_call_site.py",
         allowed=("repro/analysis/**", "repro/cli.py"), max_sites=1),
    Rule("one-run", "GA524", "Only core/run.py constructs a runtime.",
         "calls", ("*SimulatedRuntime", "*ThreadedRuntime", "*ThreadedRuntime.from_config",
                   "*NetworkedRuntime"), "examples/ga524_direct_runtime.py",
         ("repro/**", "examples/*.py"), allowed=("repro/core/run.py",)),
    Rule("one-checkpoint", "GA525", "Only the kernel snapshots or restores stage state.",
         "calls", tuple(f"*{owner}.{verb}" for owner in (
             "processor", "replacement", "estimator", "exceptions", "eos")
             for verb in ("snapshot", "restore")),
         "repro/core/ga525_stray_snapshot.py", allowed=_KERNEL),
    Rule("one-option-table", "GA526", "Stage options are read and written through StageOptions.",
         "reads-key", ("<stage option keys>",), "repro/core/ga526_keyed_option.py",
         allowed=("repro/core/options.py",)),
    Rule("lean-runtime-imports", "GA527", "Runtime packages import numpy and networkx lazily.",
         "imports", ("numpy", "numpy.*", "networkx", "networkx.*"),
         "repro/net/ga527_heavy_import.py", tuple(f"repro/{package}/**" for package in (
             "core", "net", "obs", "grid", "simnet", "resilience", "ledger", "streams")),
         inside="module"),
    Rule("one-xml-reader", "GA528", "Only grid/config.py imports an XML module.",
         "imports", ("xml", "xml.*", "pyexpat", "pyexpat.*"), "repro/grid/ga528_xml_reader.py",
         allowed=("repro/grid/config.py",)),
    Rule("one-xml-parse", "GA528", "Only grid/config.py parses XML.",
         "calls", ("*.fromstring", "*.iterparse", "*.XMLParser"),
         "repro/grid/ga528_xml_reader.py", allowed=("repro/grid/config.py",)),
    Rule("defining-module-imports", "GA529", "src/ imports names from their defining modules.",
         "imports", ("<package exports>",), "repro/obs/ga529_package_export.py"),
)

_NODES: Dict[str, Tuple[Type[ast.AST], ...]] = {
    "defines": (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
    "subclasses": (ast.ClassDef,),
    "calls": (ast.Call,),
    "iterates": (ast.For, ast.AsyncFor, ast.comprehension),
    "imports": (ast.Import, ast.ImportFrom),
    "reads-key": (ast.Assign, ast.AnnAssign, ast.Call, ast.Subscript, ast.Compare, ast.Dict),
}


def _site_of(path: str) -> str:
    """``path`` from its last ``repro`` or ``examples`` component on."""
    parts = Path(path).parts
    anchors = [i for i, part in enumerate(parts) if part in ("repro", "examples")]
    return "/".join(parts[anchors[-1]:]) if anchors else Path(path).as_posix()


def _keys(node: ast.AST) -> List[ast.expr]:
    """The expressions a ``reads-key`` row reads as keys in ``node``."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
        return [node.value]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.args[:1] if node.func.attr in ("get", "pop", "setdefault") else []
    if isinstance(node, ast.Subscript):
        return [node.slice]
    if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
        return [node.left]
    return [key for key in node.keys if key is not None] if isinstance(node, ast.Dict) else []


class RuleChecker(Checker):
    """Evaluates every row of :data:`RULES` (or the given rows); a file's
    nodes are matched once its imports are all known."""

    def __init__(self, rules: Sequence[Rule] = RULES) -> None:
        self.rules = tuple(rules)
        self.interests = tuple({node for rule in self.rules for node in _NODES[rule.kind]}
                               | {ast.If, ast.Import, ast.ImportFrom})
        #: A count row's call sites per pattern: (path, line, column, text).
        self.sites: Dict[Tuple[Rule, str], List[Tuple[str, int, int, str]]] = {}
        self.site = ""
        self.active: List[Rule] = []
        self.aliases: Dict[str, Set[str]] = {}
        self.typing_only: Set[int] = set()
        self.seen: List[Tuple[ast.AST, Optional[ast.AST]]] = []

    def applies_to(self, context: FileContext) -> bool:
        self.site = _site_of(context.path)
        self.active = [r for r in self.rules if any(fnmatchcase(self.site, g) for g in r.scope)]
        return bool(self.active)

    def begin(self, context: FileContext) -> None:
        self.aliases, self.typing_only, self.seen = {}, set(), []

    def visit(self, node: ast.AST, enclosing: Sequence[ast.AST],
              context: FileContext) -> None:
        if isinstance(node, ast.If):
            if "TYPE_CHECKING" in ast.unparse(node.test):
                self.typing_only |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self.aliases.setdefault(alias.asname, set()).add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                self.aliases.setdefault(alias.asname or alias.name, set()).add(
                    f"{node.module}.{alias.name}")
        self.seen.append((node, nearest_function(enclosing)))

    def finish(self, context: FileContext) -> None:
        reported: Set[Tuple[str, int, int]] = set()
        for node, function in self.seen:
            for rule in self.active:
                if not (isinstance(node, _NODES[rule.kind]) and self._inside(rule, node, function)):
                    continue
                name = next((n for n in self._names(rule.kind, node) if rule.matches(n)), None)
                if name is None or self._allowed(rule, node):
                    continue
                anchor = getattr(node, "iter", node)  # a loop reports what it iterates
                line, column = anchor.lineno, anchor.col_offset
                if rule.max_sites is not None:
                    if not context.is_suppressed(rule.code, line):
                        for pattern in [p for p in rule.patterns if fnmatchcase(name, p)]:
                            self.sites.setdefault((rule, pattern), []).append(
                                (context.path, line, column, context.lines[line - 1]))
                elif (rule.code, line, column) not in reported:
                    reported.add((rule.code, line, column))
                    context.add(rule.code, rule.finding(name, context.module), anchor)

    def conclude(self, report: Report) -> None:
        for (rule, pattern), sites in sorted(self.sites.items(), key=lambda item: item[0][1]):
            if len(sites) > (rule.max_sites or 0):
                listed = ", ".join(f"{path}:{line}" for path, line, _, _ in sorted(sites))
                message = rule.finding(f"{pattern.lstrip('*.')} (called at {listed})")
                for path, line, column, text in sorted(sites):
                    report.add(rule.code, message, source_line=text,
                               span=SourceSpan(file=path, line=line, column=column + 1))
        self.sites = {}

    def _inside(self, rule: Rule, node: ast.AST, function: Optional[ast.AST]) -> bool:
        if rule.inside == "async def":
            return isinstance(function, ast.AsyncFunctionDef)
        if rule.inside == "module":
            return function is None and id(node) not in self.typing_only
        return rule.inside in (None, getattr(function, "name", None))

    def _names(self, kind: str, node: ast.AST) -> List[str]:
        """What ``node`` names for a row of ``kind``: spelled, then resolved."""
        if kind == "defines":
            return [getattr(node, "name", "")]
        if kind == "reads-key":
            return [key.value for key in _keys(node)
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)]
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            return [module] + [f"{module}.{alias.name}" for alias in node.names]
        if isinstance(node, ast.ClassDef):
            targets: List[ast.AST] = list(node.bases)
        else:
            targets = [getattr(node, "func", None) or getattr(node, "iter")]
        names: List[str] = []
        for spelled in map(dotted_name, targets):
            head, dot, rest = spelled.partition(".")
            names += [spelled] + sorted(full + dot + rest for full in self.aliases.get(head, ()))
        return names

    def _allowed(self, rule: Rule, node: ast.AST) -> bool:
        sites = [self.site, f"{self.site}::{getattr(node, 'name', '')}"]
        return any(fnmatchcase(site, glob) for site in sites for glob in rule.allowed)


def render_rule_table() -> str:
    """The docs table of :data:`RULES` and :data:`SETS`, which
    ``docs/static_analysis.md`` embeds verbatim."""
    def cell(items: Sequence[str]) -> str:
        return f"`{', '.join(items)}`" if items else "—"

    lines = ["| Rule | Code | Matcher | Patterns | Scope | Allowed | Invariant |",
             "|---|---|---|---|---|---|---|"]
    for rule in RULES:
        matcher = rule.kind + (f" inside {rule.inside}" if rule.inside else "")
        if rule.max_sites is not None:
            matcher += f", at most {rule.max_sites} site"
        lines.append(f"| `{rule.id}` | {rule.code} | {matcher} | {cell(rule.patterns)} "
                     f"| {cell(rule.scope)} | {cell(rule.allowed)} | {rule.invariant} |")
    return "\n".join(lines + [""] + [f"* `{name}`: {cell(globs)}" for name, globs in SETS.items()])
