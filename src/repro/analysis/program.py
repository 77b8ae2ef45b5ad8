"""The program model every lint pass runs on: parse once, index once.

:meth:`Program.load` reads and parses each ``.py`` file exactly once.
A file that does not parse becomes a ``REP000`` finding in
:attr:`Program.errors` and is left out of :attr:`Program.modules`, so
the deep passes never see it. Each parsed file is one
:class:`ModuleInfo` (tree, :class:`ImportMap`, dotted module name,
``# repro: noqa`` map) whose one walk of the tree also records the
scoped node lists the passes read instead of walking again. On top of
the modules the program holds one function/class-member index and,
built on first use, the static-signature registry. The passes share all
of it and one :class:`StatementWalker`, the only dispatch on statement
kind, and keep only their own lattices and transfer functions.
"""

from __future__ import annotations

import ast
import gc
import re
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple, Union,
)

from repro.analysis.findings import Finding
from repro.analysis.registry import (
    SignatureRegistry,
    build_registry,
    static_signatures,
)

__all__ = [
    "FunctionInfo",
    "ImportMap",
    "ModuleInfo",
    "Pass",
    "Program",
    "StatementWalker",
    "as_program",
    "collector_paused",
    "iter_python_files",
    "self_attr",
]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


class ImportMap:
    """Resolve local names to canonical dotted module paths.

    Tracks ``import numpy as np``, ``from numpy import random as nr`` and
    ``from numpy.random import default_rng`` so rules can match on the
    canonical ``numpy.random.default_rng`` regardless of aliasing.
    """

    def __init__(self, nodes: Iterable[ast.AST]) -> None:
        """Index the imports among ``nodes`` (e.g. ``ast.walk(tree)``)."""
        self.aliases: Dict[str, str] = {}
        self._dotted: Dict[ast.Attribute, str] = {}
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import - outside our scope
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def canonical(self, node: ast.AST) -> str:
        """Dotted canonical name of an expression, or ``""`` if not one.

        Every pass asks again for the same attribute chains, so each
        ``Attribute`` node's name is derived once.
        """
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            dotted = self._dotted.get(node)
            if dotted is None:
                base = self.canonical(node.value)
                dotted = f"{base}.{node.attr}" if base else ""
                self._dotted[node] = dotted
            return dotted
        return ""


def self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` if ``node`` is ``self.attr``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _noqa_lines(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule codes suppressed on them.

    An empty set means "suppress everything" (bare ``# repro: noqa``).
    """
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressed[lineno] = set()
        else:
            suppressed[lineno] = {
                c.strip().upper() for c in codes.split(",") if c.strip()
            }
    return suppressed


def _module_name_for(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages."""
    parts = [] if path.stem == "__init__" else [path.stem]
    directory = path.resolve().parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) or path.stem


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
        elif not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
    return files


class ModuleInfo:
    """One parsed file: its tree, imports, dotted name and noqa map.

    ``path`` is the file as given to the linter; every finding in the
    file carries it verbatim. ``nodes`` is the tree in ``ast.walk``
    order, walked once for the import map and the shallow rules. The
    same walk fills two scoped indexes:

    * ``subtrees`` maps each top-level function, and each statement of a
      top-level class's body (its methods among them), to every node of
      its subtree in ``ast.walk`` order, the node itself first. A class
      keeps no list of its own: its body statements' lists cover every
      statement in it;
    * ``scopes`` maps every function definition, nested ones included,
      to the nodes of its body that belong to its own scope: nested
      functions and lambdas, with everything under them, are left out.
    """

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        name: Optional[str] = None,
    ) -> None:
        self.path = path
        self.tree = tree
        self.nodes, self.subtrees, self.scopes = _walk(tree)
        self.imports = ImportMap(self.nodes)
        self.name = _module_name_for(Path(path)) if name is None else name
        self.noqa = _noqa_lines(source)


_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_NodeIndex = Dict[ast.AST, List[ast.AST]]


def _walk(tree: ast.Module) -> Tuple[List[ast.AST], _NodeIndex, _NodeIndex]:
    """``list(ast.walk(tree))`` plus the subtree and scope indexes.

    The walk is breadth first, so it meets a subtree's nodes level by
    level, each level in the order of its parents: restricted to one
    subtree it is exactly that subtree's own ``ast.walk``. Each queued
    node therefore carries the subtree list it belongs to (``sinks``)
    and the scope list it belongs to (``owners``), and is appended to
    them when it is dequeued.
    """
    subtrees: _NodeIndex = {}
    parents: Set[ast.AST] = {tree}  # whose children may open a subtree
    for stmt in tree.body:
        if isinstance(stmt, _FUNCTION_DEFS):
            subtrees[stmt] = []
        elif isinstance(stmt, ast.ClassDef):
            parents.add(stmt)
            subtrees.update((member, []) for member in stmt.body)
    scopes: _NodeIndex = {}
    nodes: List[ast.AST] = [tree]
    sinks: List[Optional[List[ast.AST]]] = [None]
    owners: List[Optional[List[ast.AST]]] = [None]
    for index, node in enumerate(nodes):
        sink = sinks[index]
        if sink is not None:
            sink.append(node)
        owner = owners[index]
        body_owner = owner
        if isinstance(node, _FUNCTION_DEFS):
            # A def and its header belong to no function's own scope;
            # its body opens its own.
            owner, body_owner = None, scopes.setdefault(node, [])
        elif isinstance(node, ast.Lambda):
            owner = None  # nor does a lambda, body included
        elif owner is not None:
            owner.append(node)
        splits = node in parents
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, ast.AST):
                nodes.append(value)
                sinks.append(sink)
                owners.append(owner)
            elif isinstance(value, list):
                child_owner = body_owner if field == "body" else owner
                for item in value:
                    if isinstance(item, ast.AST):
                        nodes.append(item)
                        sinks.append(
                            subtrees.get(item, sink) if splits else sink
                        )
                        owners.append(child_owner)
    return nodes, subtrees, scopes


class FunctionInfo:
    """One module-level function or class method of an analyzed module.

    ``short`` is the name annotations use: ``func`` or ``Class.method``;
    ``nodes`` is every node of the function, nested scopes included, in
    ``ast.walk`` order (the module's ``subtrees`` entry).
    """

    def __init__(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        module: ModuleInfo,
        class_name: Optional[str] = None,
    ) -> None:
        self.node = node
        self.module = module
        self.class_name = class_name
        self.short = f"{class_name}.{node.name}" if class_name else node.name
        self.qualname = f"{module.name}.{self.short}"
        self.nodes = module.subtrees[node]


class Program:
    """Parsed modules plus one function index and one registry.

    ``functions`` maps ``module.func`` and ``module.Class.method`` to
    their :class:`FunctionInfo`, in file and source order;
    ``member_index`` maps ``Class.method`` and ``method_names`` a bare
    method name to every matching qualified name; ``classes`` holds the
    names of classes with at least one method.
    """

    def __init__(
        self,
        modules: Sequence[ModuleInfo],
        errors: Sequence[Finding] = (),
    ) -> None:
        self.modules = list(modules)
        self.errors = list(errors)
        self.functions: Dict[str, FunctionInfo] = {}
        self.member_index: Dict[str, List[str]] = {}
        self.method_names: Dict[str, List[str]] = {}
        for module in self.modules:
            for node in module.tree.body:
                if isinstance(node, _FUNCTION_DEFS):
                    self._add(FunctionInfo(node, module))
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, _FUNCTION_DEFS):
                            self._add(FunctionInfo(item, module, node.name))
        self.classes = {key.split(".")[0] for key in self.member_index}

    def _add(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        if info.class_name is not None:
            self.member_index.setdefault(info.short, []).append(info.qualname)
            self.method_names.setdefault(info.node.name, []).append(
                info.qualname
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def load(cls, paths: Sequence[Union[str, Path]]) -> "Program":
        """Read and parse every ``.py`` file under ``paths`` once."""
        modules: List[ModuleInfo] = []
        errors: List[Finding] = []
        for file in iter_python_files(paths):
            source = file.read_text(encoding="utf-8")
            module = _parse(source, str(file), errors)
            if module is not None:
                modules.append(module)
        return cls(modules, errors)

    @classmethod
    def from_source(
        cls,
        source: str,
        path: str = "<string>",
        module_name: Optional[str] = None,
    ) -> "Program":
        """A one-module program (tests and tooling)."""
        errors: List[Finding] = []
        module = _parse(source, path, errors, module_name)
        return cls([module] if module is not None else [], errors)

    @cached_property
    def registry(self) -> SignatureRegistry:
        """The core modules' signatures plus every analyzed file's own."""
        extra = []
        for module in self.modules:
            raw = static_signatures(module.tree)
            if raw is not None:
                extra.append((module.name, raw))
        return build_registry(extra=extra)

    # -- queries ---------------------------------------------------------------

    def resolve(self, canonical: str, module: ModuleInfo) -> Optional[str]:
        """Qualified name of an analyzed function called as ``canonical``
        from ``module`` (absolute first, then module-local)."""
        if canonical in self.functions:
            return canonical
        local = f"{module.name}.{canonical}"
        if local in self.functions:
            return local
        return None

    def unsuppressed(self, findings: Sequence[Finding]) -> List[Finding]:
        """Drop findings silenced by a ``# repro: noqa`` on their line."""
        by_path = {module.path: module.noqa for module in self.modules}
        kept = []
        for finding in findings:
            codes = by_path.get(finding.path, {}).get(finding.line)
            if codes is not None and (not codes or finding.rule in codes):
                continue
            kept.append(finding)
        return kept


def _parse(
    source: str,
    path: str,
    errors: List[Finding],
    module_name: Optional[str] = None,
) -> Optional[ModuleInfo]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        errors.append(
            Finding(
                path=path,
                line=exc.lineno or 1,
                column=exc.offset or 0,
                rule="REP000",
                message=f"syntax error: {exc.msg}",
            )
        )
        return None
    return ModuleInfo(path, source, tree, module_name)


class Pass:
    """Base of the deep passes: the shared program and a findings sink.

    A pass that infers per-function results sets :attr:`unknown` to its
    lattice's top and implements :meth:`summarize`; :meth:`summary`
    memoizes it.
    """

    #: Summary of a call into recursion or outside the program.
    unknown: Any = None

    def __init__(self, program: Program) -> None:
        self.program = program
        self.registry = program.registry
        self.findings: List[Finding] = []
        self.summaries: Dict[str, Any] = {}
        self._active: Set[str] = set()

    def record(
        self, module: ModuleInfo, node: ast.AST, rule: str, message: str
    ) -> None:
        self.findings.append(Finding.at(module.path, node, rule, message))

    def result(self) -> List[Finding]:
        """The recorded findings, deduplicated, unsuppressed, sorted."""
        return sorted(set(self.program.unsuppressed(self.findings)))

    def summary(self, qualname: str) -> Any:
        """``summarize`` of an analyzed function, computed once."""
        if qualname in self.summaries:
            return self.summaries[qualname]
        info = self.program.functions.get(qualname)
        if info is None or qualname in self._active:
            return self.unknown
        self._active.add(qualname)
        try:
            result = self.summarize(info)
        finally:
            self._active.discard(qualname)
        self.summaries[qualname] = result
        return result

    def summarize(self, info: FunctionInfo) -> Any:
        raise NotImplementedError

    def run(self) -> List[Finding]:
        raise NotImplementedError

    @classmethod
    def analyze(
        cls, target: Union[Program, Sequence[Union[str, Path]]]
    ) -> List[Finding]:
        """The pass's findings over every file under ``target``, or over
        ``target`` itself if it is a loaded :class:`Program`."""
        return cls(as_program(target)).run()

    @classmethod
    def analyze_source(
        cls, source: str, path: str = "<string>",
        module_name: Optional[str] = None,
    ) -> List[Finding]:
        """The pass's findings over one source string (tests, tooling)."""
        return cls(Program.from_source(source, path, module_name)).run()

    def in_progress(self, qualname: str) -> bool:
        """Whether ``qualname``'s summary is being computed: a call to it
        now is a recursion cycle and reads :attr:`unknown`."""
        return qualname in self._active


class StatementWalker:
    """Control flow of one scope: the only dispatch on statement kind.

    A deep pass's interpreter subclasses the walker, keeps its own
    lattice and supplies it through hooks:

    * :meth:`eval` evaluates (or scans) an expression into a value;
    * :meth:`bind` binds a target of an assignment, ``for``, ``with`` or
      ``del`` (to :attr:`unknown`), and the name of a ``def``, ``class``
      or ``except ... as`` (also to :attr:`unknown`);
    * :meth:`on_return` reacts to a ``return`` (default: keep the value
      in :attr:`returns`);
    * :meth:`snapshot`, :meth:`restore` and :meth:`join` copy the state,
      reinstate a copy, and merge the states at the ends of alternative
      blocks entered from one base state.

    :meth:`element`, :meth:`augment`, :meth:`enter` and :meth:`effect`
    refine loop targets, augmented assignments, ``with`` items and
    expression statements. The walker counts the loops around the
    current statement in :attr:`loop_depth`.

    Control flow is the same for every pass. The branches of an ``if``,
    a loop (which may not run) and a ``try`` body with each of its
    handlers are alternatives, joined; a ``with`` body, a ``try``'s
    ``else`` and ``finally`` run in sequence. Two class attributes
    below set where passes differ.
    """

    #: What the walker cannot see: an absent ``return`` value, a deleted
    #: or nested-scope name.
    unknown: Any = None
    #: Whether an ``if`` test is evaluated.
    eval_if_test = True
    #: Whether the state a ``with`` block changed is restored on exit.
    scope_with = False

    def __init__(self) -> None:
        self.returns: List[Any] = []
        self.loop_depth = 0

    def eval(self, node: ast.expr) -> Any:
        raise NotImplementedError

    def bind(self, target: ast.expr, value: Any, stmt: ast.AST) -> None:
        raise NotImplementedError

    def snapshot(self) -> Any:
        raise NotImplementedError

    def restore(self, state: Any) -> None:
        raise NotImplementedError

    def join(self, base: Any, ends: Sequence[Any]) -> None:
        raise NotImplementedError

    def on_return(self, stmt: ast.Return, value: Any) -> None:
        self.returns.append(value)

    def element(self, value: Any, node: ast.expr) -> Any:
        """One element drawn by iterating ``value``."""
        return self.unknown

    def augment(self, target: ast.expr, op: ast.operator, value: Any) -> Any:
        """What ``target op= value`` stores."""
        return self.unknown

    def enter(self, expr: ast.expr, stmt: ast.stmt, asynchronous: bool) -> Any:
        """Enter a ``with`` item; the value binds its ``as`` target."""
        return self.eval(expr)

    def effect(self, expr: ast.expr) -> None:
        """Run an expression statement."""
        self.eval(expr)

    # -- the walk ----------------------------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            handler = _STATEMENTS.get(type(stmt))
            if handler is not None:
                handler(self, stmt)

    def branches(self, blocks: Sequence[Sequence[ast.stmt]]) -> None:
        """Run alternative blocks from one state, then join their ends."""
        base = self.snapshot()
        ends = []
        for block in blocks:
            self.restore(base)
            self.exec_block(block)
            ends.append(self.snapshot())
        self.join(base, ends)

    def _assign(self, stmt: ast.Assign) -> None:
        value = self.eval(stmt.value)
        for target in stmt.targets:
            self.bind(target, value, stmt)

    def _ann_assign(self, stmt: ast.AnnAssign) -> None:
        if stmt.value is not None:
            self.bind(stmt.target, self.eval(stmt.value), stmt)

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        value = self.augment(stmt.target, stmt.op, self.eval(stmt.value))
        self.bind(stmt.target, value, stmt)

    def _expr(self, stmt: ast.Expr) -> None:
        self.effect(stmt.value)

    def _return(self, stmt: ast.Return) -> None:
        value = self.unknown if stmt.value is None else self.eval(stmt.value)
        self.on_return(stmt, value)

    def _operands(self, stmt: Union[ast.Raise, ast.Assert]) -> None:
        for child in ast.iter_child_nodes(stmt):
            self.eval(child)

    def _delete(self, stmt: ast.Delete) -> None:
        for target in stmt.targets:
            self.bind(target, self.unknown, stmt)

    def _define(self, node: ast.AST, name: Optional[str] = None) -> None:
        # A nested scope's body is analyzed on its own.
        target = ast.Name(id=name or node.name, ctx=ast.Store())
        self.bind(ast.copy_location(target, node), self.unknown, node)

    def _if(self, stmt: ast.If) -> None:
        if self.eval_if_test:
            self.eval(stmt.test)
        self.branches([stmt.body, stmt.orelse])

    def _for(self, stmt: Union[ast.For, ast.AsyncFor]) -> None:
        value = self.element(self.eval(stmt.iter), stmt.iter)
        self.bind(stmt.target, value, stmt)
        self._loop(stmt)

    def _while(self, stmt: ast.While) -> None:
        self.eval(stmt.test)
        self._loop(stmt)

    def _loop(self, stmt: Union[ast.For, ast.AsyncFor, ast.While]) -> None:
        base = self.snapshot()  # the loop may not run
        self.loop_depth += 1
        self.exec_block(stmt.body)
        self.loop_depth -= 1
        self.exec_block(stmt.orelse)
        self.join(base, [self.snapshot()])

    def _with(self, stmt: Union[ast.With, ast.AsyncWith]) -> None:
        base = self.snapshot() if self.scope_with else None
        asynchronous = isinstance(stmt, ast.AsyncWith)
        for item in stmt.items:
            value = self.enter(item.context_expr, stmt, asynchronous)
            if item.optional_vars is not None:
                self.bind(item.optional_vars, value, stmt)
        self.exec_block(stmt.body)
        if base is not None:
            self.restore(base)

    def _try(self, stmt: ast.Try) -> None:
        for handler in stmt.handlers:
            if handler.name:
                self._define(handler, handler.name)
        self.branches([stmt.body] + [handler.body for handler in stmt.handlers])
        self.exec_block(stmt.orelse)
        self.exec_block(stmt.finalbody)


#: Statement kind -> handler. Kinds left out (imports, ``pass``,
#: ``break``, ``global``, ...) bind and evaluate nothing.
_STATEMENTS = {
    ast.Assign: StatementWalker._assign,
    ast.AnnAssign: StatementWalker._ann_assign,
    ast.AugAssign: StatementWalker._aug_assign,
    ast.Expr: StatementWalker._expr,
    ast.Return: StatementWalker._return,
    ast.Raise: StatementWalker._operands,
    ast.Assert: StatementWalker._operands,
    ast.Delete: StatementWalker._delete,
    ast.FunctionDef: StatementWalker._define,
    ast.AsyncFunctionDef: StatementWalker._define,
    ast.ClassDef: StatementWalker._define,
    ast.If: StatementWalker._if,
    ast.For: StatementWalker._for,
    ast.AsyncFor: StatementWalker._for,
    ast.While: StatementWalker._while,
    ast.With: StatementWalker._with,
    ast.AsyncWith: StatementWalker._with,
    ast.Try: StatementWalker._try,
}


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for the block.

    A lint run builds a few hundred thousand AST nodes that live until
    the run ends and form no reference cycles, so every collection the
    run would trigger re-traverses all of them and frees nothing. The
    collector is re-enabled on exit, also on error, but only if it was
    enabled on entry. The switch is process-wide. Everything allocated
    in the block is still in the youngest generation when it ends, so
    let large structures die inside the block: the first collection
    afterwards traverses whatever of it is still alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def as_program(target: Union[Program, Sequence[Union[str, Path]]]) -> Program:
    """``target`` itself if it is a :class:`Program`, else its load."""
    return target if isinstance(target, Program) else Program.load(target)
