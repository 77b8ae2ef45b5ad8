"""Interprocedural concurrency-safety inference (the ``--threads`` pass).

A lockset/thread-escape analysis over the package's ASTs, run on the
shared program model of :mod:`repro.analysis.program`. For every
function it tracks

* the **lockset** held at each statement — ``with self._lock:`` blocks,
  explicit ``.acquire()``/``.release()`` pairs, locks resolved through
  the ``@guards`` annotations of the signature registry;
* a **thread-escape** set — which classes and functions are reachable
  from more than one thread, seeded by ``threading.Thread(target=...)``,
  ``executor.submit(...)``, ``loop.run_in_executor(...)`` and the
  ``@threads`` entries of ``REPRO_SIGNATURES``;
* a global **lock-order graph** — an edge ``A -> B`` whenever lock ``B``
  is acquired (directly or through a callee's summary, across module
  boundaries) while ``A`` is held.

The rule family (suppress with ``# repro: noqa[REP20x]``):

``REP201``
    Write to a ``@guards``-annotated thread-shared attribute without its
    guard held (constructor initialization is exempt).
``REP202``
    Inconsistent lockset: a guarded field read bare — either annotated
    via ``@guards``, or inferred (a field of a thread-escaping class
    accessed under one lock on at least two sites and bare on another).
``REP203``
    Lock-order cycle: the global lock-order graph contains a cycle, so
    two threads taking the locks in opposite orders can deadlock. Every
    edge participating in a cycle is reported at its acquisition site.
``REP204``
    Blocking call while holding a lock: ``time.sleep``, ``.join()`` /
    ``.get()`` / ``.result()`` / ``.wait()`` without a timeout, socket
    ``recv``/``accept``, anything named by ``@blocking`` — directly or
    through the may-block closure of the call graph.
``REP205``
    Non-atomic check-then-act: a guarded field read without its guard
    and then written under the guard in the same function with no
    guarded re-check in between (the double-checked-init bug).
``REP206``
    Thread started but never joined: a ``threading.Thread`` handle
    (local or ``self.*`` field) that is ``.start()``-ed but has no
    ``.join`` reference anywhere in its owning scope.

Annotation mini-language (module ``REPRO_SIGNATURES`` keys):

.. code-block:: python

    REPRO_SIGNATURES = {
        "@guards": ["ServeEngine._queue guarded_by _lock",
                    "_plan guarded_by _plan_lock"],     # module global
        "@threads": ["ServeEngine._run_batch", "LinkSession"],
        "@blocking": ["fault_point"],
        ...
    }

Run with ``repro-tsv lint --threads`` (also folded into ``--deep``).
"""

from __future__ import annotations

import ast
from collections import deque
from typing import (
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.findings import Finding
from repro.analysis.program import (
    FunctionInfo,
    ModuleInfo,
    Pass,
    Program,
    StatementWalker,
    self_attr,
)

__all__ = ["THREAD_RULES", "analyze_threads", "analyze_thread_source"]

#: The concurrency rule family (code -> one-line summary).
THREAD_RULES = {
    "REP201": "unguarded write to a thread-shared attribute",
    "REP202": "inconsistent lockset: guarded field read bare",
    "REP203": "lock-order cycle (potential deadlock)",
    "REP204": "blocking call while holding a lock",
    "REP205": "non-atomic check-then-act on a guarded field",
    "REP206": "thread started but never joined or stopped",
}

#: Constructors that create a kernel thread.
_THREAD_CTORS = frozenset({"threading.Thread", "threading.Timer"})

#: Lock constructors recognized in ``x = threading.Lock()`` pre-scans.
_LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock"})

#: Attribute calls that block unconditionally.
_ALWAYS_BLOCKING_ATTRS = frozenset({"recv", "recv_into", "accept"})

#: Attribute calls that block when called with no timeout argument.
_TIMEOUT_BLOCKING_ATTRS = frozenset({"join", "get", "result", "wait"})

#: Name calls that block (canonical dotted names).
_BLOCKING_CANONICALS = frozenset({"time.sleep", "concurrent.futures.wait"})

#: Thread-handle attributes that do not leak the handle to another owner.
_THREAD_METHODS = frozenset(
    {"start", "join", "is_alive", "daemon", "name", "ident"}
)


#: Childless nodes :meth:`_FunctionScanner.eval` never needs to visit.
_INERT_LEAVES = (
    ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop,
    ast.Constant,
)

_NO_LOCKS: frozenset = frozenset()


def _lockset(held: Set[str]) -> frozenset:
    """``frozenset(held)``, sharing one empty set: most sites hold none."""
    return frozenset(held) if held else _NO_LOCKS


class _Access(NamedTuple):
    """One read/write of a tracked field at one site."""

    field: str
    kind: str  # "read" | "write"
    locks: frozenset
    node: ast.AST
    in_init: bool


class _Call(NamedTuple):
    """One call site with the lockset held when it executes."""

    resolved: Optional[str]
    locks: frozenset
    node: ast.AST


class _Scan:
    """Per-function facts: accesses, lock edges, calls, blocking sites."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.accesses: List[_Access] = []
        self.acquired: Set[str] = set()
        self.edges: List[Tuple[str, str, ast.AST]] = []
        self.calls: List[_Call] = []
        self.blocking: List[Tuple[ast.AST, str, frozenset]] = []
        self.direct_blocks = False


class ThreadAnalyzer(Pass):
    """Drives the concurrency pass over a program."""

    def __init__(self, program: Program) -> None:
        super().__init__(program)
        self.functions = program.functions
        self.member_index = program.member_index
        self.module_locks: Dict[str, Set[str]] = {}
        self.class_locks: Dict[str, Set[str]] = {}
        #: Class-body-declared attributes: state shared across instances,
        #: so constructor accesses are NOT exempt from the lock rules.
        self.class_level_fields: Dict[str, Set[str]] = {}
        self.escaped_classes: Set[str] = set()
        self.scans: Dict[str, _Scan] = {}
        for module in program.modules:
            self._collect_locks(module)
        self._seed_annotations()

    # -- collection -----------------------------------------------------------

    def _collect_locks(self, module: ModuleInfo) -> None:
        """Find ``x = threading.Lock()`` declarations (module and class)."""
        mod_locks = self.module_locks.setdefault(module.name, set())
        for node in module.tree.body:
            name = self._lock_assign_name(node, module)
            if name is not None:
                mod_locks.add(name)
            elif isinstance(node, ast.ClassDef):
                attrs = self.class_locks.setdefault(node.name, set())
                fields = self.class_level_fields.setdefault(node.name, set())
                for item in node.body:
                    name = self._lock_assign_name(item, module)
                    if name is not None:
                        attrs.add(name)
                    elif isinstance(item, ast.Assign):
                        for target in item.targets:
                            if isinstance(target, ast.Name):
                                fields.add(target.id)
                    elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        fields.add(item.target.id)
                for item in (
                    sub for stmt in node.body for sub in module.subtrees[stmt]
                ):
                    if (
                        isinstance(item, ast.Assign)
                        and len(item.targets) == 1
                        and self_attr(item.targets[0]) is not None
                        and self._is_lock_ctor(item.value, module)
                    ):
                        attrs.add(item.targets[0].attr)

    def _lock_assign_name(
        self, node: ast.stmt, module: ModuleInfo
    ) -> Optional[str]:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and self._is_lock_ctor(node.value, module)
        ):
            return node.targets[0].id
        return None

    @staticmethod
    def _is_lock_ctor(node: ast.expr, module: ModuleInfo) -> bool:
        return (
            isinstance(node, ast.Call)
            and module.imports.canonical(node.func) in _LOCK_CTORS
        )

    def _seed_annotations(self) -> None:
        """Fold ``@guards`` lock names and ``@threads`` entries in."""
        for lock_id in self.registry.guards.values():
            owner, _, name = lock_id.rpartition(".")
            if not owner:
                continue
            head = owner.rsplit(".", 1)[-1]
            if head[:1].isupper():
                self.class_locks.setdefault(owner, set()).add(name)
            else:
                self.module_locks.setdefault(owner, set()).add(name)
        for entry in self.registry.thread_entries:
            cls = entry.split(".")[0]
            if cls[:1].isupper():
                self.escaped_classes.add(cls)

    # -- call resolution -------------------------------------------------------

    def resolve_call(
        self, call: ast.Call, module: ModuleInfo, class_name: Optional[str]
    ) -> Optional[str]:
        func = call.func
        canonical = module.imports.canonical(func)
        if canonical:
            resolved = self.program.resolve(canonical, module)
            if resolved is not None:
                return resolved
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self" and class_name:
                qualname = f"{module.name}.{class_name}.{func.attr}"
                if qualname in self.functions:
                    return qualname
            if self_attr(base) is not None and class_name:
                attr = self.registry.member_attribute(class_name, base.attr)
                if attr is not None and attr.obj is not None:
                    candidates = self.member_index.get(
                        f"{attr.obj}.{func.attr}", []
                    )
                    if len(candidates) == 1:
                        return candidates[0]
        return None

    def resolve_escape_target(
        self, node: ast.expr, module: ModuleInfo, class_name: Optional[str]
    ) -> None:
        """Mark the target of a thread/executor hand-off as escaping."""
        if self_attr(node) is not None and class_name:
            self.escaped_classes.add(class_name)
            return
        canonical = module.imports.canonical(node)
        if not canonical:
            return
        tail = canonical.rsplit(".", 1)[-1]
        if tail[:1].isupper():
            self.escaped_classes.add(tail)
            return
        resolved = self.program.resolve(canonical, module)
        if resolved is not None and self.functions[resolved].class_name:
            self.escaped_classes.add(self.functions[resolved].class_name)

    def is_blocking_name(self, canonical: str) -> bool:
        if not canonical:
            return False
        if canonical in _BLOCKING_CANONICALS:
            return True
        tail = canonical.rsplit(".", 1)[-1]
        for entry in self.registry.blocking:
            if canonical == entry or tail == entry or canonical.endswith(
                "." + entry
            ):
                return True
        return False

    # -- driving ---------------------------------------------------------------

    def run(self) -> List[Finding]:
        for qualname, info in self.functions.items():
            self.scans[qualname] = _FunctionScanner(self, info).run()
        self._refine_private_entries()
        may_block = self._may_block_closure()
        acquires = self._transitive_acquires()
        self._check_blocking(may_block)
        self._check_lock_order(acquires)
        self._check_field_discipline()
        self._check_thread_joins()
        return self.result()

    def _refine_private_entries(self) -> None:
        """Re-scan private helpers with the meet of their call-site locksets.

        ``RateMeter._prune`` style helpers are only ever called with the
        owner's lock held; analyzing them with an empty entry lockset
        would report their guarded-field accesses as bare. A leading
        underscore bounds the callers to the analyzed set, so the meet
        over observed call sites is a sound entry lockset.
        """
        sites: Dict[str, List[frozenset]] = {}
        for scan in self.scans.values():
            for call in scan.calls:
                if call.resolved is not None:
                    sites.setdefault(call.resolved, []).append(call.locks)
        for qualname, locksets in sites.items():
            info = self.functions.get(qualname)
            if info is None:
                continue
            name = info.node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            meet = frozenset.intersection(*locksets) if locksets else frozenset()
            if meet:
                self.scans[qualname] = _FunctionScanner(
                    self, info, entry_locks=meet
                ).run()

    def _may_block_closure(self) -> Dict[str, bool]:
        may_block = {q: s.direct_blocks for q, s in self.scans.items()}
        changed = True
        while changed:
            changed = False
            for qualname, scan in self.scans.items():
                if may_block[qualname]:
                    continue
                for call in scan.calls:
                    if call.resolved and may_block.get(call.resolved):
                        may_block[qualname] = True
                        changed = True
                        break
        return may_block

    def _transitive_acquires(self) -> Dict[str, Set[str]]:
        acquires = {q: set(s.acquired) for q, s in self.scans.items()}
        changed = True
        while changed:
            changed = False
            for qualname, scan in self.scans.items():
                for call in scan.calls:
                    if call.resolved is None:
                        continue
                    extra = acquires.get(call.resolved, set())
                    if not extra <= acquires[qualname]:
                        acquires[qualname] |= extra
                        changed = True
        return acquires

    # -- REP204 ----------------------------------------------------------------

    def _check_blocking(self, may_block: Dict[str, bool]) -> None:
        for qualname, scan in self.scans.items():
            module = scan.info.module
            for node, desc, locks in scan.blocking:
                if locks:
                    self.record(
                        module, node, "REP204",
                        f"blocking call {desc} while holding "
                        f"{self._fmt_locks(locks)}; release the lock or "
                        "add a timeout",
                    )
            seen: Set[int] = set()
            for call in scan.calls:
                if (
                    call.locks
                    and call.resolved
                    and may_block.get(call.resolved)
                    and id(call.node) not in seen
                ):
                    seen.add(id(call.node))
                    self.record(
                        module, call.node, "REP204",
                        f"call to {call.resolved} may block while holding "
                        f"{self._fmt_locks(call.locks)}; move the slow work "
                        "outside the critical section",
                    )

    @staticmethod
    def _fmt_locks(locks: frozenset) -> str:
        return ", ".join(sorted(locks))

    # -- REP203 ----------------------------------------------------------------

    def _check_lock_order(self, acquires: Dict[str, Set[str]]) -> None:
        graph: Dict[str, Set[str]] = {}
        witnesses: List[Tuple[str, str, ast.AST, ModuleInfo]] = []

        def add_edge(a: str, b: str, node: ast.AST, module: ModuleInfo) -> None:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
            witnesses.append((a, b, node, module))

        for scan in self.scans.values():
            module = scan.info.module
            for held, acq, node in scan.edges:
                add_edge(held, acq, node, module)
            for call in scan.calls:
                if call.resolved is None or not call.locks:
                    continue
                for target in acquires.get(call.resolved, ()):
                    for held in call.locks:
                        add_edge(held, target, call.node, module)

        def reaches(start: str, goal: str) -> bool:
            stack, seen = [start], set()
            while stack:
                lock = stack.pop()
                if lock == goal:
                    return True
                if lock in seen:
                    continue
                seen.add(lock)
                stack.extend(graph.get(lock, ()))
            return False

        reported: Set[Tuple[str, int]] = set()
        for a, b, node, module in witnesses:
            if a == b or reaches(b, a):
                key = (str(module.path), getattr(node, "lineno", 1))
                if key in reported:
                    continue
                reported.add(key)
                if a == b:
                    detail = f"{a} re-acquired while already held"
                else:
                    detail = (
                        f"{b} acquired while holding {a}, but the reverse "
                        "order exists elsewhere"
                    )
                self.record(
                    module, node, "REP203",
                    f"lock-order cycle: {detail}; fix a global acquisition "
                    "order",
                )

    # -- REP201 / REP202 / REP205 ---------------------------------------------

    def _check_field_discipline(self) -> None:
        inferred: Dict[str, List[Tuple[_Access, _Scan]]] = {}
        for scan in self.scans.values():
            module = scan.info.module
            guarded: Dict[str, List[_Access]] = {}
            for access in scan.accesses:
                guard = self.registry.guards.get(access.field)
                if guard is None:
                    inferred.setdefault(access.field, []).append(
                        (access, scan)
                    )
                    continue
                guarded.setdefault(access.field, []).append(access)
            for field, events in guarded.items():
                self._check_annotated_field(field, events, module)

        self._check_inferred_fields(inferred)

    def _check_annotated_field(
        self, field: str, events: List[_Access], module: ModuleInfo
    ) -> None:
        guard = self.registry.guards[field]
        owner, _, attr = field.rpartition(".")
        if attr not in self.class_level_fields.get(owner, ()):
            # Instance state: the constructor builds it before the object
            # is shared, so __init__ accesses are exempt. Class-level
            # declarations are shared across instances and stay checked.
            events = [a for a in events if not a.in_init]
        events = sorted(
            events,
            key=lambda a: (
                getattr(a.node, "lineno", 0),
                getattr(a.node, "col_offset", 0),
            ),
        )
        check_then_act: Set[int] = set()
        for i, access in enumerate(events):
            if access.kind != "read" or guard in access.locks:
                continue
            for later in events[i + 1:]:
                if guard not in later.locks:
                    continue
                if later.kind == "read":
                    break  # a guarded re-check: the classic safe pattern
                check_then_act.add(id(access.node))
                self.record(
                    module, access.node, "REP205",
                    f"check-then-act on {field}: read without {guard} here, "
                    "then written under the lock — re-check (or use "
                    "setdefault) inside the critical section",
                )
                break
        flagged_writes: Set[int] = set()
        for access in events:
            if guard in access.locks:
                continue
            if access.kind == "write":
                flagged_writes.add(id(access.node))
                self.record(
                    module, access.node, "REP201",
                    f"write to {field} without holding {guard} "
                    f"(declared guarded_by)",
                )
        for access in events:
            if (
                access.kind == "read"
                and guard not in access.locks
                and id(access.node) not in check_then_act
                and id(access.node) not in flagged_writes
            ):
                self.record(
                    module, access.node, "REP202",
                    f"read of {field} without holding {guard} "
                    f"(declared guarded_by)",
                )

    def _check_inferred_fields(
        self, inferred: Dict[str, List[Tuple[_Access, _Scan]]]
    ) -> None:
        """REP202 by inference: mostly-guarded fields of escaping classes."""
        for field, pairs in inferred.items():
            owner = field.split(".")[0]
            if owner not in self.escaped_classes:
                continue
            events = [
                (access, scan)
                for access, scan in pairs
                if not access.in_init
            ]
            lock_counts: Dict[str, int] = {}
            for access, _ in events:
                for lock in access.locks:
                    lock_counts[lock] = lock_counts.get(lock, 0) + 1
            if not lock_counts:
                continue
            lock = max(sorted(lock_counts), key=lambda k: lock_counts[k])
            if lock_counts[lock] < 2:
                continue
            for access, scan in events:
                if lock not in access.locks:
                    self.record(
                        scan.info.module, access.node, "REP202",
                        f"{field} is accessed under {lock} on "
                        f"{lock_counts[lock]} sites but bare here; guard it "
                        "or annotate the intended discipline with @guards",
                    )

    # -- REP206 ----------------------------------------------------------------

    def _check_thread_joins(self) -> None:
        class_threads: Dict[
            Tuple[str, str], Dict[str, object]
        ] = {}  # (module, class) -> state
        for qualname, info in self.functions.items():
            tracker = _ThreadTracker(info.module)
            tracker.visit_body(info.nodes)
            for name, state in tracker.locals.items():
                if (
                    state["started"] is not None
                    and not state["joined"]
                    and not state["escaped"]
                ):
                    self.record(
                        info.module, state["started"], "REP206",
                        f"thread {name!r} started but never joined; join it "
                        "on the shutdown path or register a stop hook",
                    )
            if info.class_name is not None:
                key = (info.module.name, info.class_name)
                agg = class_threads.setdefault(
                    key,
                    {"created": {}, "started": {}, "joined": set(),
                     "module": info.module},
                )
                agg["created"].update(tracker.attrs_created)
                agg["started"].update(tracker.attrs_started)
                agg["joined"].update(tracker.attrs_joined)
        for (_, class_name), agg in class_threads.items():
            for attr, node in agg["started"].items():
                if attr in agg["created"] and attr not in agg["joined"]:
                    self.record(
                        agg["module"], node, "REP206",
                        f"thread self.{attr} of {class_name} started but "
                        "never joined; join it on the shutdown path",
                    )


class _ThreadTracker:
    """Track Thread handles (locals and ``self.*``) in one function."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.locals: Dict[str, Dict[str, object]] = {}
        self.attrs_created: Dict[str, ast.AST] = {}
        self.attrs_started: Dict[str, ast.AST] = {}
        self.attrs_joined: Set[str] = set()

    def visit_body(self, nodes: Sequence[ast.AST]) -> None:
        """Assignments first, then attributes, then loads, each in order."""
        assigns: List[ast.Assign] = []
        attributes: List[ast.Attribute] = []
        loads: List[ast.Name] = []
        for node in nodes:
            if isinstance(node, ast.Assign):
                assigns.append(node)
            elif isinstance(node, ast.Attribute):
                attributes.append(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append(node)
        for node in assigns:
            self._handle_assign(node)
        for node in attributes:
            self._handle_attribute(node)
        for node in loads:
            state = self.locals.get(node.id)
            if state is not None and not state.get("_shielded", set()) & {
                id(node)
            }:
                state["escaped"] = True

    def _handle_assign(self, node: ast.Assign) -> None:
        if not (
            isinstance(node.value, ast.Call)
            and self.module.imports.canonical(node.value.func) in _THREAD_CTORS
        ):
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.locals[target.id] = {
                    "created": node, "started": None, "joined": False,
                    "escaped": False, "_shielded": set(),
                }
            elif self_attr(target) is not None:
                self.attrs_created[target.attr] = node

    def _handle_attribute(self, node: ast.Attribute) -> None:
        base = node.value
        if isinstance(base, ast.Name):
            state = self.locals.get(base.id)
            if state is not None and node.attr in _THREAD_METHODS:
                state["_shielded"].add(id(base))
                if node.attr == "start" and state["started"] is None:
                    state["started"] = node
                elif node.attr == "join":
                    state["joined"] = True
        elif self_attr(base) is not None:
            if node.attr == "start":
                self.attrs_started.setdefault(base.attr, node)
            elif node.attr == "join":
                self.attrs_joined.add(base.attr)


class _FunctionScanner(StatementWalker):
    """Walk one function body tracking the lockset at each statement.

    The lockset is the walker state. Alternatives (branches, loops, a
    ``try`` body and its handlers) join to the lockset before them, so
    what they acquire or release stays inside them; a ``with`` block's
    locks are released on exit. A ``try``'s ``else`` and ``finally``
    share the outer lockset.
    """

    scope_with = True

    def __init__(
        self,
        analyzer: ThreadAnalyzer,
        info: FunctionInfo,
        entry_locks: frozenset = frozenset(),
    ) -> None:
        super().__init__()
        self.analyzer = analyzer
        self.info = info
        self.module = info.module
        self.class_name = info.class_name
        self.held: Set[str] = set(entry_locks)
        self.scan = _Scan(info)
        self.in_init = info.node.name in ("__init__", "__new__")
        self.globals_declared: Set[str] = set()
        self.local_names: Set[str] = set()
        self._prescan()

    def _prescan(self) -> None:
        args = self.info.node.args
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self.local_names.add(a.arg)
        if args.vararg:
            self.local_names.add(args.vararg.arg)
        if args.kwarg:
            self.local_names.add(args.kwarg.arg)
        for sub in self.info.nodes:
            if isinstance(sub, ast.Global):
                self.globals_declared.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                self.local_names.add(sub.id)
        self.local_names -= self.globals_declared

    def run(self) -> _Scan:
        self.exec_block(self.info.node.body)
        return self.scan

    # -- lock identity ---------------------------------------------------------

    def lock_id(self, expr: ast.expr) -> Optional[str]:
        analyzer = self.analyzer
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            base, attr = expr.value.id, expr.attr
            owner = None
            if base == "self" and self.class_name:
                owner = self.class_name
            elif base[:1].isupper():
                owner = base
            if owner is not None and (
                attr in analyzer.class_locks.get(owner, ())
                or "lock" in attr.lower()
            ):
                return f"{owner}.{attr}"
            return None
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in analyzer.module_locks.get(self.module.name, ()) or (
                "lock" in name.lower() and name not in self.local_names
            ):
                return f"{self.module.name}.{name}"
        return None

    def _acquire(self, lock: str, node: ast.AST) -> None:
        held = self.held
        for existing in sorted(held):
            self.scan.edges.append((existing, lock, node))
        if lock in held:  # re-acquisition of a non-reentrant lock
            self.scan.edges.append((lock, lock, node))
        self.scan.acquired.add(lock)
        held.add(lock)

    # -- walker hooks ----------------------------------------------------------

    def snapshot(self) -> Set[str]:
        return set(self.held)

    def restore(self, state: Set[str]) -> None:
        self.held = set(state)

    def join(self, base: Set[str], ends: Sequence[Set[str]]) -> None:
        self.held = base

    def bind(self, target: ast.expr, value: None, stmt: ast.AST) -> None:
        self.record_store(target)

    def augment(self, target: ast.expr, op: ast.operator, value: None) -> None:
        self.record_load(target)  # an augmented store reads the target too

    def enter(
        self, expr: ast.expr, stmt: ast.stmt, asynchronous: bool
    ) -> None:
        lock = None if asynchronous else self.lock_id(expr)
        if lock is not None:
            self._acquire(lock, stmt)
        else:
            self.eval(expr)

    def effect(self, expr: ast.expr) -> None:
        """A statement-level ``X.acquire()`` / ``X.release()`` moves the
        lockset; any other expression is scanned."""
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("acquire", "release")
        ):
            lock = self.lock_id(expr.func.value)
            if lock is not None:
                if expr.func.attr == "acquire":
                    self._acquire(lock, expr)
                else:
                    self.held.discard(lock)
                return
        self.eval(expr)

    # -- field accesses --------------------------------------------------------

    def _field_of_attribute(self, node: ast.Attribute) -> Optional[str]:
        attr = self_attr(node)
        if attr is None or self.class_name is None or "lock" in attr.lower():
            return None
        return f"{self.class_name}.{attr}"

    def _field_of_name(self, node: ast.Name) -> Optional[str]:
        if node.id in self.local_names and node.id not in self.globals_declared:
            return None
        field = f"{self.module.name}.{node.id}"
        if field in self.analyzer.registry.guards:
            return field
        return None

    def _field(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return self._field_of_attribute(node)
        if isinstance(node, ast.Name):
            return self._field_of_name(node)
        return None

    def _record_access(self, field: str, kind: str, node: ast.AST) -> None:
        self.scan.accesses.append(
            _Access(field, kind, _lockset(self.held), node, self.in_init)
        )

    def record_store(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute):
            field = self._field_of_attribute(target)
            if field is not None:
                self._record_access(field, "write", target)
            else:
                self.eval(target.value)
        elif isinstance(target, ast.Name):
            field = self._field_of_name(target)
            if field is not None and target.id in self.globals_declared:
                self._record_access(field, "write", target)
        elif isinstance(target, ast.Subscript):
            # Mutation through a container: a write to the holding field.
            base = target.value
            self.eval(target.slice)
            field = self._field(base)
            if field is not None:
                self._record_access(field, "write", base)
            else:
                self.eval(base)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.record_store(element)
        elif isinstance(target, ast.Starred):
            self.record_store(target.value)

    def record_load(self, target: ast.expr) -> None:
        while isinstance(target, ast.Subscript):
            target = target.value
        field = self._field(target)
        if field is not None:
            self._record_access(field, "read", target)

    # -- expressions -----------------------------------------------------------

    def eval(self, node: ast.expr) -> None:
        """Record the calls and field reads of ``node`` under the lockset.

        Visits ``node``'s subtree in :func:`ast.walk`'s breadth-first
        order, but never queues the childless nodes no branch reads
        (contexts, operators, constants).
        """
        todo = deque((node,))
        while todo:
            child = todo.popleft()
            for name in child._fields:
                value = getattr(child, name, None)
                if isinstance(value, ast.AST):
                    if not isinstance(value, _INERT_LEAVES):
                        todo.append(value)
                elif isinstance(value, list):
                    todo.extend(
                        item for item in value
                        if isinstance(item, ast.AST)
                        and not isinstance(item, _INERT_LEAVES)
                    )
            if isinstance(child, ast.Call):
                self.handle_call(child)
            elif isinstance(child, ast.Attribute) and isinstance(
                child.ctx, ast.Load
            ):
                field = self._field_of_attribute(child)
                if field is not None:
                    self._record_access(field, "read", child)
            elif isinstance(child, ast.Name) and isinstance(
                child.ctx, ast.Load
            ):
                field = self._field_of_name(child)
                if field is not None:
                    self._record_access(field, "read", child)

    def handle_call(self, call: ast.Call) -> None:
        analyzer = self.analyzer
        canonical = self.module.imports.canonical(call.func)
        blocked = self._blocking_desc(call, canonical)
        if blocked is not None:
            self.scan.direct_blocks = True
            self.scan.blocking.append((call, blocked, _lockset(self.held)))
        # Thread-escape seeds.
        if canonical in _THREAD_CTORS:
            for kw in call.keywords:
                if kw.arg == "target":
                    analyzer.resolve_escape_target(
                        kw.value, self.module, self.class_name
                    )
        elif isinstance(call.func, ast.Attribute):
            if call.func.attr == "submit" and call.args:
                analyzer.resolve_escape_target(
                    call.args[0], self.module, self.class_name
                )
            elif call.func.attr == "run_in_executor" and len(call.args) >= 2:
                analyzer.resolve_escape_target(
                    call.args[1], self.module, self.class_name
                )
        resolved = analyzer.resolve_call(call, self.module, self.class_name)
        self.scan.calls.append(_Call(resolved, _lockset(self.held), call))

    def _blocking_desc(
        self, call: ast.Call, canonical: str
    ) -> Optional[str]:
        if self.analyzer.is_blocking_name(canonical):
            if canonical in _BLOCKING_CANONICALS and self._has_timeout(call):
                return None
            return f"{canonical}()"
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in _ALWAYS_BLOCKING_ATTRS:
                return f".{attr}()"
            if attr in _TIMEOUT_BLOCKING_ATTRS and not self._has_timeout(
                call
            ) and not call.args and not call.keywords:
                return f".{attr}() without a timeout"
        return None

    @staticmethod
    def _has_timeout(call: ast.Call) -> bool:
        return any(kw.arg == "timeout" for kw in call.keywords)


#: REP201..REP206 over paths (or a loaded :class:`Program`), or one source.
analyze_threads = ThreadAnalyzer.analyze
analyze_thread_source = ThreadAnalyzer.analyze_source
