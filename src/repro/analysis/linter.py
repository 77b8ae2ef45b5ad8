"""AST-based static linter with repo-specific physics/numerics rules.

The general-purpose tools (ruff, mypy) cannot know this library's
conventions, so the rules here encode them:

``REP001``
    Unseeded or global NumPy RNG: ``np.random.default_rng()`` without a
    seed, ``np.random.seed(...)``, or any legacy ``np.random.*`` sampling
    call. Every experiment table must be reproducible; use
    :func:`repro.rng.ensure_rng` (or thread an explicit generator).
``REP002``
    Hand-rolled Python loop over an ndarray where a vectorized reduction or
    elementwise op exists (``for i in range(len(x)): acc += x[i]``).
``REP003``
    ``np.matrix`` or removed/deprecated NumPy aliases (``np.float``,
    ``np.alltrue``, ...). These break on modern NumPy and ``np.matrix``
    silently changes ``*`` semantics.
``REP004``
    ``==`` / ``!=`` against a nonzero float literal. Physical quantities
    (capacitances, powers, probabilities) carry rounding error; compare
    with a tolerance. Exact-zero guards (``norm == 0.0``) are allowed.
``REP005``
    In-place mutation of an array received as a function parameter without
    a defensive copy — the classic shared-state bug behind corrupted
    capacitance matrices.

Suppression: append ``# repro: noqa[REP001]`` (comma-separate several
codes) or a bare ``# repro: noqa`` to the offending line, with a short
justification.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Set, Union

from repro.analysis.findings import Finding
from repro.analysis.program import (
    ImportMap,
    ModuleInfo,
    Program,
    as_program,
    iter_python_files,
    self_attr,
)

__all__ = [
    "ALL_RULES",
    "ImportMap",
    "Rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: Legacy global-state samplers of the pre-Generator NumPy API.
_LEGACY_RANDOM = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "permutation", "shuffle", "uniform", "normal",
        "standard_normal", "binomial", "poisson", "exponential", "beta",
        "gamma", "get_state", "set_state", "RandomState",
    }
)

#: NumPy attributes that are deprecated or removed (NumPy >= 1.24 / 2.0).
_DEPRECATED_NUMPY = frozenset(
    {
        "matrix", "mat", "asmatrix", "float", "int", "bool", "object",
        "str", "complex", "long", "unicode", "asfarray", "alltrue",
        "sometrue", "cumproduct", "product", "round_", "NaN", "Inf",
        "Infinity", "infty", "in1d", "row_stack", "trapz",
    }
)

#: ndarray methods that mutate the receiver in place.
_MUTATING_METHODS = frozenset(
    {"fill", "sort", "partition", "resize", "put", "itemset", "setfield"}
)

#: numpy functions whose first argument is mutated in place.
_MUTATING_NUMPY_FUNCS = frozenset(
    {"fill_diagonal", "copyto", "put", "place", "putmask"}
)

class Rule:
    """Base class: node handlers that record :class:`Finding` objects.

    A rule defines ``visit_<NodeType>`` handlers. The driver walks each
    file once and calls every rule's handler for each node of that type,
    then :meth:`finish`. Handlers never recurse themselves: the walk
    reaches every node, and a handler that needs a subtree reads the
    module's ``subtrees``/``scopes`` index.
    """

    code = "REP000"
    summary = "base rule"

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.path = module.path
        self.imports = module.imports
        self.findings: List[Finding] = []

    def finish(self) -> None:
        """Called once after the walk (whole-file rules report here)."""

    def record(self, node: ast.AST, message: str) -> None:
        self.findings.append(Finding.at(self.path, node, self.code, message))


class UnseededRandomRule(Rule):
    """REP001: unseeded ``default_rng()``, ``np.random.seed`` or legacy API."""

    code = "REP001"
    summary = "unseeded or global NumPy RNG"

    def visit_Call(self, node: ast.Call) -> None:
        name = self.imports.canonical(node.func)
        if name == "numpy.random.default_rng" and not node.args and not node.keywords:
            self.record(
                node,
                "np.random.default_rng() without a seed is irreproducible; "
                "use repro.rng.ensure_rng(rng) or pass an explicit seed",
            )
        elif name == "numpy.random.seed":
            self.record(
                node,
                "np.random.seed mutates the global RNG; thread a "
                "np.random.Generator instead",
            )
        elif (
            name.startswith("numpy.random.")
            and name.rsplit(".", 1)[1] in _LEGACY_RANDOM
        ):
            self.record(
                node,
                f"legacy global-state sampler {name}; use a "
                "np.random.Generator method instead",
            )


class HandRolledLoopRule(Rule):
    """REP002: scalar Python loop over an array where NumPy vectorizes.

    Deliberately narrow to stay precise: flags ``for i in range(len(x))``
    (or ``range(x.shape[k])``) loops whose whole body is a single
    element-at-a-time accumulation (``acc += x[i]``) or elementwise store
    (``out[i] = <expr of subscripts by i>``).
    """

    code = "REP002"
    summary = "hand-rolled loop over ndarray"

    def visit_For(self, node: ast.For) -> None:
        loop_var = node.target.id if isinstance(node.target, ast.Name) else None
        if (
            loop_var is not None
            and self._is_array_range(node.iter)
            and len(node.body) == 1
            and not node.orelse
        ):
            body = node.body[0]
            if self._is_scalar_accumulation(body, loop_var):
                self.record(
                    node,
                    "element-wise accumulation loop over an array; use the "
                    "vectorized reduction (x.sum(), x @ y, ...)",
                )
            elif self._is_elementwise_store(body, loop_var):
                self.record(
                    node,
                    "element-wise store loop over an array; use a "
                    "vectorized expression over whole arrays",
                )

    def _is_array_range(self, iter_node: ast.AST) -> bool:
        """``range(len(x))`` / ``range(x.shape[k])`` — iterating an array."""
        if not (
            isinstance(iter_node, ast.Call)
            and self.imports.canonical(iter_node.func) == "range"
            and len(iter_node.args) == 1
        ):
            return False
        arg = iter_node.args[0]
        if (
            isinstance(arg, ast.Call)
            and self.imports.canonical(arg.func) == "len"
        ):
            return True
        return (
            isinstance(arg, ast.Subscript)
            and isinstance(arg.value, ast.Attribute)
            and arg.value.attr == "shape"
        )

    @staticmethod
    def _subscripted_by(node: ast.AST, loop_var: str) -> bool:
        """Is ``node`` a subscript whose index mentions the loop variable?"""
        return isinstance(node, ast.Subscript) and any(
            isinstance(sub, ast.Name) and sub.id == loop_var
            for sub in ast.walk(node.slice)
        )

    def _is_scalar_accumulation(self, stmt: ast.stmt, loop_var: str) -> bool:
        """``acc += x[i]`` (or ``acc = acc + x[i]``)."""
        if (
            isinstance(stmt, ast.AugAssign)
            and isinstance(stmt.op, (ast.Add, ast.Mult))
            and isinstance(stmt.target, ast.Name)
        ):
            return any(
                self._subscripted_by(sub, loop_var)
                for sub in ast.walk(stmt.value)
            )
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.BinOp)
            and isinstance(stmt.value.op, (ast.Add, ast.Mult))
        ):
            acc = stmt.targets[0].id
            reads_acc = any(
                isinstance(sub, ast.Name) and sub.id == acc
                for sub in ast.walk(stmt.value)
            )
            return reads_acc and any(
                self._subscripted_by(sub, loop_var)
                for sub in ast.walk(stmt.value)
            )
        return False

    def _is_elementwise_store(self, stmt: ast.stmt, loop_var: str) -> bool:
        """``out[i] = <expression reading other arrays at index i>``."""
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and self._subscripted_by(stmt.targets[0], loop_var)
        ):
            return False
        return any(
            self._subscripted_by(sub, loop_var)
            for sub in ast.walk(stmt.value)
        )


class DeprecatedNumpyRule(Rule):
    """REP003: ``np.matrix`` and removed/deprecated NumPy aliases."""

    code = "REP003"
    summary = "np.matrix / deprecated NumPy API"

    def _check(self, node: ast.AST) -> None:
        name = self.imports.canonical(node)
        if (
            name.startswith("numpy.")
            and name.count(".") == 1
            and name.rsplit(".", 1)[1] in _DEPRECATED_NUMPY
        ):
            attr = name.rsplit(".", 1)[1]
            if attr in ("matrix", "mat", "asmatrix"):
                message = (
                    f"{name} changes operator semantics and is deprecated; "
                    "use a 2-D np.ndarray"
                )
            else:
                message = (
                    f"{name} is removed/deprecated in modern NumPy; use the "
                    "builtin or the np.* canonical spelling"
                )
            self.record(node, message)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check(node)

    def visit_Name(self, node: ast.Name) -> None:
        # Catches `from numpy import alltrue` style usage.
        if isinstance(node.ctx, ast.Load):
            self._check(node)


class FloatEqualityRule(Rule):
    """REP004: ``==`` / ``!=`` against a nonzero float literal.

    Comparisons against exactly ``0.0`` are permitted: guarding a division
    by an exactly-zero norm is correct and idiomatic.
    """

    code = "REP004"
    summary = "float equality comparison"

    @staticmethod
    def _nonzero_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value != 0.0
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                self._nonzero_float_literal(left)
                or self._nonzero_float_literal(right)
            ):
                self.record(
                    node,
                    "exact ==/!= against a float literal on a physical "
                    "quantity; use math.isclose / np.isclose or an explicit "
                    "tolerance",
                )
                break


class ParameterMutationRule(Rule):
    """REP005: in-place mutation of an array parameter without a copy.

    Within each function, a parameter that is never rebound (no
    ``x = np.asarray(x)`` style defensive copy) must not be the target of a
    subscript store, an in-place operator, a mutating ndarray method, or
    ``np.fill_diagonal``-style in-place numpy functions.
    """

    code = "REP005"
    summary = "mutation of array parameter"

    def visit_FunctionDef(self, node) -> None:
        args = node.args
        params = {
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if a.arg not in ("self", "cls")
        }
        if not params:
            return
        own_body = self.module.scopes[node]
        rebound = self._rebound_names(own_body)
        suspects = params - rebound
        if not suspects:
            return
        for sub in own_body:
            self._check_statement(sub, suspects)

    visit_AsyncFunctionDef = visit_FunctionDef

    @staticmethod
    def _rebound_names(nodes: Iterable[ast.AST]) -> Set[str]:
        rebound: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                rebound.add(node.id)
        return rebound

    def _base_name(self, node: ast.AST) -> str:
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.id if isinstance(node, ast.Name) else ""

    def _check_statement(self, node: ast.AST, suspects: Set[str]) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                base = self._base_name(target)
                if isinstance(target, ast.Subscript) and base in suspects:
                    self.record(
                        node,
                        f"writes into parameter {base!r} in place; copy it "
                        "first (x = np.asarray(x).copy()) or document the "
                        "mutation",
                    )
        elif isinstance(node, ast.AugAssign):
            base = self._base_name(node.target)
            if isinstance(node.target, ast.Subscript) and base in suspects:
                self.record(
                    node,
                    f"in-place update of parameter {base!r}; copy it first "
                    "or document the mutation",
                )
        elif isinstance(node, ast.Call):
            self._check_call(node, suspects)

    def _check_call(self, node: ast.Call, suspects: Set[str]) -> None:
        name = self.imports.canonical(node.func)
        if (
            name.startswith("numpy.")
            and name.rsplit(".", 1)[1] in _MUTATING_NUMPY_FUNCS
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in suspects
        ):
            self.record(
                node,
                f"{name} mutates parameter {node.args[0].id!r} in place; "
                "copy it first or document the mutation",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in suspects
        ):
            self.record(
                node,
                f".{node.func.attr}() mutates parameter "
                f"{node.func.value.id!r} in place; copy it first or "
                "document the mutation",
            )


class DaemonThreadRule(Rule):
    """REP007: a ``daemon=True`` thread started but never joined.

    Daemon threads are killed mid-statement at interpreter exit, which
    can tear a codec's history stream or drop buffered metrics on the
    floor. A daemon thread is fine as long as its handle is joined
    somewhere in the file, or registered with ``atexit`` as a shutdown
    hook; anything else gets flagged at the construction site.
    """

    code = "REP007"
    summary = "daemon thread never joined or registered for shutdown"

    def __init__(self, module: ModuleInfo) -> None:
        super().__init__(module)
        self._bound: Dict[int, str] = {}  # id(ctor call) -> handle name
        self._ctors: List[ast.Call] = []
        self._joined: Set[str] = set()

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_daemon_thread(node):
            self._ctors.append(node)
        elif self.imports.canonical(node.func) == "atexit.register":
            for arg in node.args:
                if isinstance(arg, ast.Attribute):
                    self._joined.add(self._handle_name(arg.value))
                elif isinstance(arg, ast.Name):
                    self._joined.add(arg.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            self._bound[id(node.value)] = self._bound_name(node.targets)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "join":
            self._joined.add(self._handle_name(node.value))

    def finish(self) -> None:
        for call in self._ctors:
            name = self._bound.get(id(call), "")
            if name and name in self._joined:
                continue
            handle = f"thread {name!r}" if name else "anonymous thread"
            self.record(
                call,
                f"daemon=True {handle} is never joined; daemon threads die "
                "mid-statement at interpreter exit — join it on the "
                "shutdown path or register an atexit hook",
            )

    def _is_daemon_thread(self, call: ast.Call) -> bool:
        if self.imports.canonical(call.func) not in (
            "threading.Thread",
            "threading.Timer",
        ):
            return False
        return any(
            kw.arg == "daemon"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        )

    @staticmethod
    def _bound_name(targets: List[ast.expr]) -> str:
        for target in targets:
            if isinstance(target, ast.Name):
                return target.id
            if self_attr(target) is not None:
                return f"self.{target.attr}"
        return ""

    @staticmethod
    def _handle_name(node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if self_attr(node) is not None:
            return f"self.{node.attr}"
        return ""


#: All rules, in code order. The registry the CLI and docs iterate over.
ALL_RULES = (
    UnseededRandomRule,
    HandRolledLoopRule,
    DeprecatedNumpyRule,
    FloatEqualityRule,
    ParameterMutationRule,
    DaemonThreadRule,
)


def _lint_module(module: ModuleInfo, rules: Sequence[type]) -> List[Finding]:
    """Run ``rules`` over one module in a single walk of its tree."""
    instances = [rule_cls(module) for rule_cls in rules]
    handlers: Dict[type, List[Callable]] = {}  # node type -> visit_<type>s
    for rule in instances:
        for attr in dir(rule):
            if attr.startswith("visit_"):
                node_type = getattr(ast, attr[len("visit_"):])
                handlers.setdefault(node_type, []).append(getattr(rule, attr))
    for node in module.nodes:
        for handler in handlers.get(type(node), ()):
            handler(node)
    findings: List[Finding] = []
    for rule in instances:
        rule.finish()
        findings.extend(rule.findings)
    return findings


def _lint_program(program: Program, rules: Sequence[type]) -> List[Finding]:
    findings = []
    for module in program.modules:
        findings.extend(_lint_module(module, rules))
    return sorted(program.errors + program.unsuppressed(findings))


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[type] = ALL_RULES,
) -> List[Finding]:
    """Lint one source string and return the surviving findings."""
    return _lint_program(Program.from_source(source, path), rules)


def lint_file(path: Union[str, Path]) -> List[Finding]:
    """Lint one Python file."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, path=str(path))


def lint_paths(
    paths: Union[Program, Sequence[Union[str, Path]]],
) -> List[Finding]:
    """Lint every Python file under the given files/directories.

    ``paths`` may also be an already loaded :class:`Program`.
    """
    return _lint_program(as_program(paths), ALL_RULES)
