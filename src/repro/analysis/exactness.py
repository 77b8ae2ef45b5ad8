"""Exactness & determinism dataflow pass (REP301..REP306).

The paper's energy model is an integer statistic — transition counts and
Gram matrices (Eq. 3/10) — and the repo stakes several headline
properties on that: integer-exact :class:`~repro.serve.metrics.EnergyAccount`
tallies, bit-identical fast/naive annealer parity, and bit-identical
checkpoint resume. This pass proves those properties *statically* by
abstract interpretation over two small lattices:

Exactness lattice
    Every value is ``exact-int`` (int literals, ``len``/``argmin``
    results, int64 arrays, integer Gram products), ``float-contaminated``
    (float literals, true division, float dtypes, float reductions) or
    ``unknown``. NumPy dtype promotion is modelled through
    ``dtype=``/``astype`` arguments and through the unit signatures
    already in the registry (a ``farad``-valued return is float; a
    ``bit``-valued one is exact).

Determinism lattice
    Values pick up *taints* from nondeterminism sources — unordered
    ``set`` iteration, ``os.listdir``/``glob`` without ``sorted()``,
    wall-clock/environment reads, ``id()``/``hash()``, and
    ``argmin``/``argsort`` tie-breaks on float keys — and carry them
    through arithmetic, containers, subscripts and (via auto-inferred
    summaries) across function and module boundaries.

Sinks come from ``@exact`` / ``@deterministic`` / ``@order_sensitive``
entries in the ``REPRO_SIGNATURES`` mini-language (see
:mod:`repro.analysis.registry`). Findings only fire at annotated sinks,
so the pass stays quiet on unannotated code:

=======  ==================================================================
REP301   exact-int sink receives a float-contaminated value
REP302   unordered-collection iteration reaches a deterministic sink
REP303   shared RNG handed to several threads without a ``spawn`` split
REP304   order-sensitive float reduction reaches an exact-int sink
REP305   wall-clock / environment value reaches a deterministic sink
REP306   float-key tie-break decides a deterministic result
=======  ==================================================================

Exactness findings (REP301/REP304) are reported at the *sink* — the
assignment, call or ``return`` that would corrupt the exact value — with
the contamination origin in the message. Determinism findings
(REP302/305/306) are reported at the taint *origin* (the ``set``
iteration, ``time.time()`` call or ``argmin``), which is where a
``# repro: noqa[REP30x]`` justification belongs. REP303 is structural
and fires at the thread fan-out site.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterable,
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
from repro.analysis.registry import Signature
from repro.analysis.units import DIMENSIONLESS, AbstractValue

__all__ = ["EXACT_RULES", "analyze_exactness", "analyze_exactness_source"]

#: The exactness/determinism rule family (code -> one-line summary).
EXACT_RULES = {
    "REP301": "exact-int sink receives a float-contaminated value",
    "REP302": "unordered-collection iteration reaches deterministic output",
    "REP303": "shared RNG used across threads without a spawn split",
    "REP304": "order-sensitive float reduction reaches an exact-int sink",
    "REP305": "wall-clock or environment value reaches deterministic output",
    "REP306": "float-key tie-break decides a deterministic result",
}

#: Taint kind -> rule fired when the taint reaches a deterministic sink.
_TAINT_RULES = {
    "unordered": "REP302",
    "wallclock": "REP305",
    "tiebreak": "REP306",
}


class Taint(NamedTuple):
    """One nondeterminism source, pinned to where it entered the program."""

    kind: str  # "unordered" | "wallclock" | "tiebreak"
    detail: str
    path: str
    line: int
    column: int


_NO_TAINTS: FrozenSet[Taint] = frozenset()


class Fact(NamedTuple):
    """Abstract value: exactness status plus determinism taints."""

    exact: Optional[str] = None  # None | "int" | "float"
    why: Optional[str] = None  # contamination origin, human-readable
    reduction: bool = False  # order-sensitive float accumulation
    taints: FrozenSet[Taint] = _NO_TAINTS
    is_set: bool = False  # an unordered collection (not yet iterated)
    is_rng: bool = False  # a Generator / SeedSequence handle
    spawned: bool = False  # derived via .spawn() — thread-safe to pass

    @classmethod
    def int_(cls, taints: FrozenSet[Taint] = _NO_TAINTS) -> "Fact":
        return cls(exact="int", taints=taints)

    @classmethod
    def float_(
        cls,
        why: str,
        reduction: bool = False,
        taints: FrozenSet[Taint] = _NO_TAINTS,
    ) -> "Fact":
        return cls(exact="float", why=why, reduction=reduction, taints=taints)

    def but(self, **overrides) -> "Fact":
        return self._replace(**overrides)

    def with_taints(self, taints: Iterable[Taint]) -> "Fact":
        extra = frozenset(taints)
        if not extra:
            return self
        return self._replace(taints=self.taints | extra)


UNKNOWN = Fact()


def _join(a: Fact, b: Fact) -> Fact:
    """Least upper bound of two facts (float and taints win)."""
    if a.exact == b.exact:
        exact, why = a.exact, a.why or b.why
    elif "float" in (a.exact, b.exact):
        exact = "float"
        why = a.why if a.exact == "float" else b.why
    else:
        exact, why = None, None
    return Fact(
        exact=exact,
        why=why,
        reduction=a.reduction or b.reduction,
        taints=a.taints | b.taints,
        is_set=a.is_set or b.is_set,
        is_rng=a.is_rng or b.is_rng,
        spawned=a.spawned and b.spawned,
    )


def _join_all(facts: Sequence[Fact]) -> Fact:
    out = UNKNOWN
    for fact in facts:
        out = _join(out, fact)
    return out


def _union_taints(facts: Iterable[Fact]) -> FrozenSet[Taint]:
    taints: FrozenSet[Taint] = _NO_TAINTS
    for fact in facts:
        taints = taints | fact.taints
    return taints


# -- intrinsic knowledge -------------------------------------------------------

#: Calls whose result is a wall-clock / environment read (REP305 source).
_WALLCLOCK_CALLS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.monotonic": "time.monotonic()",
    "time.monotonic_ns": "time.monotonic_ns()",
    "time.perf_counter": "time.perf_counter()",
    "time.perf_counter_ns": "time.perf_counter_ns()",
    "time.process_time": "time.process_time()",
    "time.ctime": "time.ctime()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.date.today": "date.today()",
    "os.getpid": "os.getpid()",
    "os.getenv": "os.getenv()",
    "os.environ.get": "os.environ",
    "os.uname": "os.uname()",
    "socket.gethostname": "socket.gethostname()",
    "platform.node": "platform.node()",
    "uuid.uuid1": "uuid.uuid1()",
    "uuid.uuid4": "uuid.uuid4()",
}

#: Calls yielding filesystem- or completion-ordered iterables (REP302).
_UNORDERED_CALLS = {
    "os.listdir": "os.listdir() filesystem order",
    "os.scandir": "os.scandir() filesystem order",
    "glob.glob": "glob.glob() filesystem order",
    "glob.iglob": "glob.iglob() filesystem order",
    "concurrent.futures.as_completed": "thread completion order",
}

#: ``pathlib``-style methods with filesystem enumeration order.
_UNORDERED_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Factories producing RNG handles (REP303 tracking).
_RNG_FACTORIES = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "repro.rng.ensure_rng",
})

#: Tie-breaking index extractors: first-match wins among equal keys.
_TIEBREAK_CALLS = {
    "numpy.argmin": "np.argmin",
    "numpy.argmax": "np.argmax",
    "numpy.argsort": "np.argsort",
    "numpy.lexsort": "np.lexsort",
    "numpy.unique": "np.unique",
}

#: Order-sensitive reductions (pairwise float accumulation).
_REDUCTION_CALLS = frozenset({
    "numpy.sum", "numpy.nansum", "numpy.dot", "numpy.vdot", "numpy.matmul",
    "numpy.einsum", "numpy.trace", "numpy.prod", "numpy.cumsum",
    "numpy.cumprod",
})

#: Reductions that always produce floats regardless of operand dtype.
_FLOAT_REDUCTION_CALLS = frozenset({
    "numpy.mean", "numpy.average", "numpy.std", "numpy.var",
    "numpy.nanmean", "numpy.median",
})

_REDUCTION_METHODS = frozenset({
    "sum", "dot", "mean", "std", "var", "trace", "prod", "cumsum"
})

#: Always exact-int results.
_INT_CALLS = frozenset({
    "len", "int", "round", "ord", "bin", "divmod",
    "numpy.searchsorted", "numpy.flatnonzero", "numpy.argwhere",
    "numpy.count_nonzero", "numpy.nonzero", "numpy.sign",
    "numpy.packbits", "numpy.unpackbits", "numpy.bitwise_xor",
    "numpy.bitwise_and", "numpy.bitwise_or", "numpy.left_shift",
    "numpy.right_shift", "numpy.invert", "range", "enumerate",
})

#: Always float results.
_FLOAT_CALLS = frozenset({
    "float", "numpy.float64", "numpy.float32", "numpy.sqrt", "numpy.log",
    "numpy.log2", "numpy.log10", "numpy.exp", "numpy.sin", "numpy.cos",
    "numpy.tanh", "numpy.divide", "numpy.true_divide", "math.sqrt",
    "math.log", "math.log2", "math.exp", "math.pow",
})

#: Exactly-rounded float sums — float but *not* order-sensitive.
_ORDER_SAFE_FLOAT_CALLS = frozenset({"math.fsum"})

#: Shape-preserving constructors/transforms: result fact = join of inputs.
_PROPAGATE_CALLS = frozenset({
    "numpy.abs", "numpy.diff", "numpy.minimum", "numpy.maximum",
    "numpy.clip", "numpy.copy", "numpy.transpose", "numpy.reshape",
    "numpy.ravel", "numpy.squeeze", "numpy.roll", "numpy.flip",
    "numpy.diag", "numpy.concatenate", "numpy.stack", "numpy.vstack",
    "numpy.hstack", "numpy.column_stack", "numpy.atleast_1d",
    "numpy.atleast_2d", "numpy.repeat", "numpy.tile", "numpy.sort",
    "abs",
})

#: Float math-module constants.
_FLOAT_CONSTANTS = frozenset({
    "math.pi", "math.e", "math.inf", "math.tau",
    "numpy.pi", "numpy.e", "numpy.inf", "numpy.nan",
})

_INT_DTYPES = frozenset({
    "int", "bool", "int8", "int16", "int32", "int64", "intp", "intc",
    "uint8", "uint16", "uint32", "uint64", "uintp", "bool_",
})
_FLOAT_DTYPES = frozenset({
    "float", "float16", "float32", "float64", "float128", "double",
    "single", "half", "longdouble",
})


def _dtype_kind(node: Optional[ast.expr], imports) -> Optional[str]:
    """Classify a ``dtype=`` argument node as ``"int"``/``"float"``/None."""
    if node is None:
        return None
    name = None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    elif isinstance(node, (ast.Name, ast.Attribute)):
        canonical = imports.canonical(node)
        name = (canonical or "").split(".")[-1]
        if not canonical and isinstance(node, ast.Name):
            name = node.id
    if name is None:
        return None
    name = name.split("[")[0]
    if name in _INT_DTYPES:
        return "int"
    if name in _FLOAT_DTYPES:
        return "float"
    return None


def _fact_from_abstract(values: Optional[Sequence[AbstractValue]]) -> Fact:
    """Derive exactness from a registry shape/unit spec.

    Probabilities and dimensionful quantities (farad, watt, second, …)
    are floats; ``bit`` values (dimensionless, range [0, 1], not a
    probability) are exact ints; everything else is unknown.
    """
    if not values:
        return UNKNOWN
    facts = []
    for value in values:
        if value.obj is not None:
            facts.append(UNKNOWN)
        elif value.prob:
            facts.append(Fact.float_("probability-valued signature"))
        elif value.unit is not None and value.unit != DIMENSIONLESS:
            facts.append(Fact.float_("dimensionful (unit-bearing) signature"))
        elif (
            value.unit == DIMENSIONLESS
            and value.rng == (0.0, 1.0)
            and not value.prob
        ):
            facts.append(Fact.int_())  # the "bit" spec
        else:
            facts.append(UNKNOWN)
    return _join_all(facts)


#: The module-level statements whose bindings functions read.
_BINDINGS = (ast.Assign, ast.AnnAssign, ast.AugAssign)


def _origin(fact: Fact) -> str:
    return fact.why or "float arithmetic"


# -- the analyzer --------------------------------------------------------------


class ExactnessAnalyzer(Pass):
    """Interprocedural exactness/determinism analysis over a program."""

    unknown = UNKNOWN

    def __init__(self, program: Program) -> None:
        super().__init__(program)
        self.functions = program.functions
        self.member_index = program.member_index
        self.method_names = program.method_names
        self.module_env: Dict[str, Dict[str, Fact]] = {}
        #: Registry ``Class.method`` signatures by method name, in
        #: registry order: the fallback of an unresolved method call.
        self.method_signatures: Dict[str, List[Signature]] = {}
        for key, sig in self.registry.functions.items():
            if key.count(".") == 1:
                self.method_signatures.setdefault(
                    key.partition(".")[2], []
                ).append(sig)
        #: Findings of summary runs that met no recursion cycle, kept
        #: until their function's turn in :meth:`run`.
        self._settled: Dict[str, List[Finding]] = {}

    def summarize(self, info: FunctionInfo) -> Fact:
        """Return-value fact of one analyzed function.

        The run records its findings aside. They are the function's
        findings unless the run met a call back into a summary still in
        progress (a recursion cycle): that call read ``unknown`` where
        the function's own turn in :meth:`run` reads the finished
        summary, so such a function is interpreted again there.
        """
        outer, self.findings = self.findings, []
        interp = _Interp(self, info, record=True)
        interp.execute()
        found, self.findings = self.findings, outer
        if not interp.cyclic:
            self._settled[info.qualname] = found
        return interp.summary()

    # -- findings --------------------------------------------------------------

    def report(
        self,
        rule: str,
        path: str,
        line: int,
        column: int,
        message: str,
    ) -> None:
        self.findings.append(Finding(path, line, column, rule, message))

    def report_exact_violation(
        self, fact: Fact, node: ast.AST, path: str, sink: str
    ) -> None:
        """REP301/REP304 at the sink, with the contamination origin."""
        if fact.reduction:
            self.report(
                "REP304", path, node.lineno, node.col_offset,
                f"order-sensitive float reduction reaches exact-int "
                f"sink {sink} ({_origin(fact)}); accumulate in int64 or "
                f"use math.fsum",
            )
        elif fact.exact == "float":
            self.report(
                "REP301", path, node.lineno, node.col_offset,
                f"exact-int sink {sink} receives a float-contaminated "
                f"value ({_origin(fact)})",
            )

    def report_taints(self, fact: Fact, sink: str) -> None:
        """REP302/305/306 at each taint's origin."""
        for taint in fact.taints:
            rule = _TAINT_RULES[taint.kind]
            self.report(
                rule, taint.path, taint.line, taint.column,
                f"{taint.detail} flows into deterministic sink {sink}",
            )

    # -- driver ----------------------------------------------------------------

    def run(self) -> List[Finding]:
        """Interpret every function once, in sorted order, recording.

        A function summarized before its turn contributes the findings
        of that run, unless the run met a recursion cycle. Otherwise it
        runs now, outside any summary, and this run's result becomes its
        summary unless a cycle back into it summarized it meanwhile.
        The findings equal those of running every function once more,
        recording, after the summaries.
        """
        for module in self.program.modules:
            scope = _Interp(self, None, record=False, module=module)
            scope.exec_module(module)
            self.module_env[module.name] = scope.env
        for qualname in sorted(self.functions):
            settled = self._settled.pop(qualname, None)
            if settled is not None:
                self.findings.extend(settled)
                continue
            interp = _Interp(self, self.functions[qualname], record=True)
            interp.execute()
            # A cycle back into this function may have summarized it.
            self.summaries.setdefault(qualname, interp.summary())
        return self.result()


class _Interp(StatementWalker):
    """Abstract interpreter for one function body (or a module scope)."""

    unknown = UNKNOWN
    eval_if_test = False

    def __init__(
        self,
        analyzer: ExactnessAnalyzer,
        info: Optional[FunctionInfo],
        record: bool,
        module: Optional[ModuleInfo] = None,
    ) -> None:
        super().__init__()
        self.a = analyzer
        self.info = info
        self.record = record
        self.module = info.module if info is not None else module
        assert self.module is not None
        self.imports = self.module.imports
        self.path = str(self.module.path)
        self.env: Dict[str, Fact] = {}
        self._fanout_rngs: Dict[str, ast.AST] = {}
        self._fanout_reported: Set[str] = set()
        #: Set when a call read ``unknown`` for a summary in progress.
        self.cyclic = False
        self.exact_return = self.det_return = False
        if info is not None:
            self._seed(info)

    def _seed(self, info: FunctionInfo) -> None:
        """Sink flags and parameter facts from the function's annotations,
        keyed by its qualified or short name."""
        registry = self.a.registry
        names = (info.qualname, info.short)
        self.exact_return = any(n in registry.exact_returns for n in names)
        self.det_return = any(
            n in registry.deterministic_returns for n in names
        )
        sig = next(
            (registry.functions[n] for n in names if n in registry.functions),
            None,
        )
        exact_params: Set[str] = set()
        for name in names:
            exact_params |= registry.exact_params.get(name, set())
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg in ("self", "cls"):
                continue
            fact = UNKNOWN
            if sig is not None and arg.arg in sig.params:
                fact = _fact_from_abstract(sig.params[arg.arg])
            if arg.arg in exact_params:
                fact = Fact.int_()
            if arg.arg.lower() in ("rng", "generator"):
                fact = Fact(is_rng=True)
            self.env[arg.arg] = fact

    # -- execution -------------------------------------------------------------

    def execute(self) -> None:
        self.exec_block(self.info.node.body)

    def summary(self) -> Fact:
        """The return-value fact of the executed function."""
        return _join_all(self.returns) if self.returns else UNKNOWN

    def _callee(self, qualname: str) -> Fact:
        """Summary of an analyzed callee, noting a recursion cycle."""
        if self.a.in_progress(qualname):
            self.cyclic = True
        return self.a.summary(qualname)

    def exec_module(self, module: ModuleInfo) -> None:
        """Bind the module's top-level assignments, nothing else."""
        self.exec_block(
            [node for node in module.tree.body if isinstance(node, _BINDINGS)]
        )

    # -- walker hooks ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Fact]:
        return dict(self.env)

    def restore(self, state: Dict[str, Fact]) -> None:
        self.env = dict(state)

    def join(
        self, base: Dict[str, Fact], ends: Sequence[Dict[str, Fact]]
    ) -> None:
        """The last end's facts, joined with each earlier end's: a name
        bound on one path only keeps that path's fact."""
        env = ends[-1]
        for end in ends[:-1]:
            for name, fact in end.items():
                env[name] = _join(env[name], fact) if name in env else fact
        self.env = env

    def on_return(self, stmt: ast.Return, fact: Fact) -> None:
        self.returns.append(fact)
        if self.record and self.info is not None:
            sink = f"{self.info.qualname}() return"
            if self.exact_return:
                self.a.report_exact_violation(fact, stmt, self.path, sink)
            if self.det_return:
                self.a.report_taints(fact, sink)

    def augment(self, target: ast.expr, op: ast.operator, fact: Fact) -> Fact:
        return self._binop(self._read_target(target), op, fact)

    # -- assignment / sinks ----------------------------------------------------

    def bind(self, target: ast.expr, fact: Fact, stmt: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = fact
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if fact.is_rng:
                    self.bind(element, fact, stmt)
                else:
                    self.bind(element, Fact(taints=fact.taints), stmt)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, Fact(taints=fact.taints), stmt)
        elif self_attr(target) is not None:
            attr = target.attr
            self.env[f"self.{attr}"] = fact
            class_name = self.info.class_name if self.info else None
            if class_name and self.record:
                key = f"{class_name}.{attr}"
                sink = f"{key} (@exact field)"
                if key in self.a.registry.exact_attrs:
                    self.a.report_exact_violation(
                        fact, stmt, self.path, sink
                    )
                if key in self.a.registry.deterministic_returns:
                    self.a.report_taints(fact, f"{key} (@deterministic)")
        # Subscript stores don't change the tracked fact.

    def _read_target(self, target: ast.expr) -> Fact:
        if isinstance(target, ast.Name):
            return self._name(target.id)
        attr = self_attr(target)
        return UNKNOWN if attr is None else self._self_attr(attr)

    def _self_attr(self, attr: str) -> Fact:
        local = self.env.get(f"self.{attr}")
        if local is not None:
            return local
        class_name = self.info.class_name if self.info else None
        if class_name:
            key = f"{class_name}.{attr}"
            if key in self.a.registry.exact_attrs:
                return Fact.int_()
            spec = self.a.registry.attributes.get(key)
            if spec is not None:
                return _fact_from_abstract([spec])
        return UNKNOWN

    def _name(self, name: str) -> Fact:
        if name in self.env:
            return self.env[name]
        return self.a.module_env.get(self.module.name, {}).get(name, UNKNOWN)

    # -- iteration -------------------------------------------------------------

    def element(self, fact: Fact, node: ast.AST) -> Fact:
        """Fact of one element drawn by iterating ``fact``."""
        taints = fact.taints
        if fact.is_set:
            taints = taints | {
                Taint(
                    "unordered", "iteration over an unordered set",
                    self.path, node.lineno, node.col_offset,
                )
            }
        return Fact(
            exact=fact.exact,
            why=fact.why,
            reduction=fact.reduction,
            taints=taints,
            is_rng=fact.is_rng,
            spawned=fact.spawned,
        )

    # -- expressions -----------------------------------------------------------

    def eval(self, node: ast.expr) -> Fact:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or isinstance(node.value, int):
                return Fact.int_()
            if isinstance(node.value, float):
                return Fact.float_("float literal")
            if isinstance(node.value, complex):
                return Fact.float_("complex literal")
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            index = self.eval(node.slice)
            return base.but(
                taints=base.taints | index.taints, is_set=False,
                is_rng=base.is_rng, spawned=base.spawned,
            )
        if isinstance(node, ast.BinOp):
            return self._binop(
                self.eval(node.left), node.op, self.eval(node.right)
            )
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if isinstance(node.op, ast.Not):
                return Fact.int_(operand.taints)
            return operand
        if isinstance(node, ast.BoolOp):
            return _join_all([self.eval(v) for v in node.values])
        if isinstance(node, ast.Compare):
            facts = [self.eval(node.left)] + [
                self.eval(c) for c in node.comparators
            ]
            # Membership tests against sets are order-independent; only
            # pre-existing taints flow into the boolean.
            return Fact.int_(_union_taints(facts))
        if isinstance(node, ast.IfExp):
            test = self.eval(node.test)
            return _join(
                self.eval(node.body), self.eval(node.orelse)
            ).with_taints(test.taints)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.List, ast.Tuple)):
            if not node.elts:
                return UNKNOWN
            facts = [self.eval(e) for e in node.elts]
            joined = _join_all(facts)
            return joined.but(is_set=False, is_rng=joined.is_rng)
        if isinstance(node, ast.Set):
            facts = [self.eval(e) for e in node.elts]
            return Fact(is_set=True, taints=_union_taints(facts))
        if isinstance(node, ast.Dict):
            facts = [self.eval(v) for v in node.values if v is not None]
            facts += [self.eval(k) for k in node.keys if k is not None]
            return Fact(taints=_union_taints(facts))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comprehension(node, [node.elt])
        if isinstance(node, ast.SetComp):
            return self._comprehension(node, [node.elt]).but(is_set=True)
        if isinstance(node, ast.DictComp):
            return self._comprehension(node, [node.key, node.value])
        if isinstance(node, ast.Starred):
            return self.element(self.eval(node.value), node)
        if isinstance(node, ast.JoinedStr):
            facts = [
                self.eval(v.value)
                for v in node.values
                if isinstance(v, ast.FormattedValue)
            ]
            return Fact(taints=_union_taints(facts))
        if isinstance(node, ast.FormattedValue):
            return Fact(taints=self.eval(node.value).taints)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value) if node.value is not None else UNKNOWN
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.returns.append(self.eval(node.value))
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            fact = self.eval(node.value)
            self.env[node.target.id] = fact
            return fact
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part)
            return UNKNOWN
        return UNKNOWN

    def _comprehension(
        self, node: ast.expr, results: Sequence[ast.expr]
    ) -> Fact:
        saved = dict(self.env)
        try:
            self.loop_depth += 1
            for comp in node.generators:
                iter_fact = self.eval(comp.iter)
                self.bind(
                    comp.target, self.element(iter_fact, comp.iter), node
                )
                for condition in comp.ifs:
                    self.eval(condition)
            facts = [self.eval(r) for r in results]
        finally:
            self.loop_depth -= 1
            self.env = saved
        joined = _join_all(facts)
        return joined.but(is_set=False)

    def _attribute(self, node: ast.Attribute) -> Fact:
        canonical = self.imports.canonical(node)
        if canonical in _FLOAT_CONSTANTS:
            return Fact.float_(f"{canonical} constant")
        if canonical == "os.environ":
            return Fact(taints=frozenset({
                Taint("wallclock", "os.environ", self.path,
                      node.lineno, node.col_offset)
            }))
        if self_attr(node) is not None:
            return self._self_attr(node.attr)
        base = self.eval(node.value)
        if node.attr in ("T", "real", "flat"):
            return base
        if node.attr in ("shape", "ndim", "size", "nbytes", "itemsize"):
            return Fact.int_(base.taints)
        return Fact(taints=base.taints)

    # -- calls -----------------------------------------------------------------

    def _call(self, node: ast.Call) -> Fact:
        func = node.func
        canonical = self.imports.canonical(func)
        arg_facts = [
            self.eval(a.value) if isinstance(a, ast.Starred) else self.eval(a)
            for a in node.args
        ]
        kw_facts = {
            kw.arg: self.eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self.eval(kw.value)
        all_taints = _union_taints(arg_facts) | _union_taints(
            kw_facts.values()
        )
        self._check_fanout(node, canonical)

        dtype_node = next(
            (kw.value for kw in node.keywords if kw.arg == "dtype"), None
        )
        dtype = _dtype_kind(dtype_node, self.imports)
        first = arg_facts[0] if arg_facts else UNKNOWN

        intrinsic = self._intrinsic_call(
            node, canonical, first, arg_facts, all_taints, dtype
        )
        if intrinsic is not None:
            return intrinsic

        if isinstance(func, ast.Attribute) and not self._module_function(
            canonical
        ):
            return self._attribute_call(
                node, func, first, arg_facts, kw_facts, all_taints, dtype
            )
        return self._resolved_call(
            node, canonical, arg_facts, kw_facts, all_taints
        )

    def _module_function(self, canonical: str) -> bool:
        """Whether ``canonical`` names an analyzed module-level function,
        as a module-attribute call (``helper.ratio(a, b)``) does."""
        qual = self.a.program.resolve(canonical, self.module)
        return qual is not None and not self.a.functions[qual].class_name

    def _intrinsic_call(
        self,
        node: ast.Call,
        canonical: str,
        first: Fact,
        arg_facts: List[Fact],
        all_taints: FrozenSet[Taint],
        dtype: Optional[str],
    ) -> Optional[Fact]:
        if not canonical:
            return None
        if canonical == "sorted":
            cleaned = frozenset(
                t for t in first.taints if t.kind != "unordered"
            )
            others = _union_taints(arg_facts[1:])
            return first.but(taints=cleaned | others, is_set=False)
        if canonical in ("list", "tuple"):
            if not arg_facts:
                return UNKNOWN
            return self.element(first, node)
        if canonical in ("set", "frozenset"):
            return Fact(is_set=True, taints=all_taints)
        if canonical == "dict":
            return Fact(taints=all_taints)
        if canonical in ("id", "hash"):
            return Fact.int_(all_taints | {
                Taint("wallclock", f"{canonical}() object identity",
                      self.path, node.lineno, node.col_offset)
            })
        if canonical in _WALLCLOCK_CALLS:
            return Fact(taints=all_taints | {
                Taint("wallclock", _WALLCLOCK_CALLS[canonical],
                      self.path, node.lineno, node.col_offset)
            })
        if canonical in _UNORDERED_CALLS:
            return Fact(taints=all_taints | {
                Taint("unordered", _UNORDERED_CALLS[canonical],
                      self.path, node.lineno, node.col_offset)
            })
        if canonical in _RNG_FACTORIES:
            spawned = any(f.spawned for f in arg_facts)
            return Fact(is_rng=True, spawned=spawned or first.spawned)
        if canonical in _TIEBREAK_CALLS:
            taints = all_taints
            if first.exact == "float" or first.reduction:
                taints = taints | {
                    Taint(
                        "tiebreak",
                        f"{_TIEBREAK_CALLS[canonical]} tie-break on "
                        f"float keys",
                        self.path, node.lineno, node.col_offset,
                    )
                }
            return Fact.int_(taints)
        if canonical in _REDUCTION_CALLS:
            return self._reduce(canonical.split(".")[-1], first, arg_facts,
                                all_taints, dtype)
        if canonical in _FLOAT_REDUCTION_CALLS:
            return Fact.float_(
                f"float accumulation in {canonical}",
                reduction=True, taints=all_taints,
            )
        if canonical in _ORDER_SAFE_FLOAT_CALLS:
            return Fact.float_(f"{canonical} (exactly rounded)",
                               taints=all_taints)
        if canonical in ("int", "round", "bool"):
            # int() of an order-sensitive float keeps its order
            # sensitivity: the truncated value still depends on the
            # accumulation order.
            return Fact(
                exact="int", reduction=first.reduction, why=first.why,
                taints=all_taints,
            )
        if canonical in _INT_CALLS:
            return Fact.int_(all_taints)
        if canonical in _FLOAT_CALLS:
            return Fact.float_(
                f"{canonical}()", reduction=first.reduction,
                taints=all_taints,
            )
        if canonical in ("numpy.asarray", "numpy.array",
                         "numpy.ascontiguousarray", "numpy.asfarray"):
            if dtype is not None:
                return Fact(exact=dtype, taints=all_taints,
                            why=f"dtype={dtype} array" if dtype == "float"
                            else None)
            return first.but(taints=all_taints, is_set=False)
        if canonical in ("numpy.zeros", "numpy.ones", "numpy.empty",
                         "numpy.full", "numpy.eye", "numpy.linspace",
                         "numpy.logspace"):
            if dtype is not None:
                return Fact(exact=dtype, taints=all_taints,
                            why=f"dtype={dtype} array" if dtype == "float"
                            else None)
            return Fact.float_(
                f"{canonical} defaults to float64", taints=all_taints
            )
        if canonical == "numpy.arange":
            if dtype is not None:
                return Fact(exact=dtype, taints=all_taints)
            return _join_all(arg_facts).but(taints=all_taints, is_set=False)
        if canonical == "numpy.where":
            joined = _join_all(arg_facts[1:]) if len(arg_facts) > 1 else first
            return joined.but(taints=all_taints)
        if canonical in ("sum", "min", "max"):
            # Commutative folds: the result does not depend on iteration
            # order, so "unordered" taints are discharged here — but a
            # float sum is still an order-sensitive accumulation.
            cleaned = frozenset(
                t for t in all_taints if t.kind != "unordered"
            )
            joined = _join_all(arg_facts)
            if canonical == "sum" and joined.exact == "float":
                return Fact.float_(
                    "float accumulation in builtin sum()",
                    reduction=True, taints=cleaned,
                )
            return joined.but(taints=cleaned, is_set=False)
        if canonical in _PROPAGATE_CALLS:
            joined = _join_all(arg_facts)
            return joined.but(taints=all_taints, is_set=False)
        return None

    def _reduce(
        self,
        name: str,
        operand: Fact,
        arg_facts: List[Fact],
        all_taints: FrozenSet[Taint],
        dtype: Optional[str],
    ) -> Fact:
        operand = _join_all(arg_facts) if len(arg_facts) > 1 else operand
        if dtype == "int" or (dtype is None and operand.exact == "int"):
            return Fact.int_(all_taints)
        if dtype == "float" or operand.exact == "float":
            return Fact.float_(
                f"float accumulation in {name}()", reduction=True,
                taints=all_taints,
            )
        return Fact(taints=all_taints)

    def _attribute_call(
        self,
        node: ast.Call,
        func: ast.Attribute,
        first: Fact,
        arg_facts: List[Fact],
        kw_facts: Dict[str, Fact],
        all_taints: FrozenSet[Taint],
        dtype: Optional[str],
    ) -> Fact:
        recv = self.eval(func.value)
        attr = func.attr
        taints = all_taints | recv.taints
        if attr == "astype":
            kind = dtype
            if kind is None and node.args:
                kind = _dtype_kind(node.args[0], self.imports)
            if kind is not None:
                return Fact(
                    exact=kind, reduction=recv.reduction,
                    why=f".astype({kind})" if kind == "float" else recv.why,
                    taints=taints,
                )
            return recv.but(taints=taints)
        if attr in ("copy", "tolist", "ravel", "reshape", "flatten",
                    "transpose", "squeeze", "item", "view"):
            return recv.but(taints=taints)
        if attr in _REDUCTION_METHODS:
            return self._reduce(attr, recv, [recv], taints, dtype)
        if attr in ("argmin", "argmax", "argsort"):
            extra: FrozenSet[Taint] = taints
            if recv.exact == "float" or recv.reduction:
                extra = taints | {
                    Taint("tiebreak", f".{attr}() tie-break on float keys",
                          self.path, node.lineno, node.col_offset)
                }
            return Fact.int_(extra)
        if recv.is_rng:
            if attr == "spawn":
                return Fact(is_rng=True, spawned=True)
            if attr in ("integers", "choice", "permutation", "permuted",
                        "shuffle", "bit_generator"):
                return Fact.int_() if attr != "shuffle" else UNKNOWN
            if attr in ("random", "uniform", "normal", "standard_normal",
                        "exponential", "beta", "gamma", "lognormal",
                        "multivariate_normal"):
                return Fact.float_(f"rng.{attr}() sample")
            return UNKNOWN
        if attr in _UNORDERED_METHODS:
            return Fact(taints=taints | {
                Taint("unordered", f".{attr}() filesystem order",
                      self.path, node.lineno, node.col_offset)
            })
        if attr == "pop" and recv.is_set:
            return Fact(taints=taints | {
                Taint("unordered", "set.pop() arbitrary element",
                      self.path, node.lineno, node.col_offset)
            })
        if recv.is_set and attr in ("union", "intersection", "difference",
                                    "symmetric_difference", "copy"):
            return Fact(is_set=True, taints=taints)
        if attr in ("keys", "values", "items", "get", "setdefault"):
            return recv.but(taints=taints, is_set=False)
        if attr in ("append", "add", "extend", "insert", "update"):
            # Mutation: fold the element facts back into the container.
            if isinstance(func.value, ast.Name):
                name = func.value.id
                merged = _join(self._name(name), _join_all(arg_facts))
                self.env[name] = merged.but(is_set=self._name(name).is_set)
            return UNKNOWN
        if attr in ("join", "format", "strip", "split", "encode", "decode",
                    "upper", "lower", "replace"):
            return Fact(taints=taints)
        # Resolve through analyzed methods / registry signatures.
        return self._method_call(node, func, recv, arg_facts, kw_facts,
                                 taints)

    def _method_call(
        self,
        node: ast.Call,
        func: ast.Attribute,
        recv: Fact,
        arg_facts: List[Fact],
        kw_facts: Dict[str, Fact],
        taints: FrozenSet[Taint],
    ) -> Fact:
        attr = func.attr
        on_self = (
            isinstance(func.value, ast.Name) and func.value.id == "self"
            and self.info is not None and self.info.class_name
        )
        quals: List[str] = []
        if on_self:
            own = f"{self.module.name}.{self.info.class_name}.{attr}"
            if own in self.a.functions:
                quals = [own]
        if not quals:
            quals = list(self.a.method_names.get(attr, ()))
        # Sink-parameter checks for "<Class>.<method> <param>" annotations.
        self._check_param_sinks(node, attr, quals, arg_facts, kw_facts)
        keys = {attr}
        for qual in quals:
            info = self.a.functions.get(qual)
            if info is not None and info.class_name:
                keys.add(f"{info.class_name}.{attr}")
        if keys & self.a.registry.order_sensitive:
            return Fact.float_(
                f"order-sensitive accumulation in {attr}()",
                reduction=True, taints=taints,
            )
        facts = [self._callee(qual) for qual in quals]
        if not facts:
            # Fall back to registry unit signatures: "Class.method".
            facts = [
                _fact_from_abstract(sig.ret)
                for sig in self.a.method_signatures.get(attr, ())
            ]
        result = _join_all(facts) if facts else UNKNOWN
        return result.with_taints(taints)

    def _resolved_call(
        self,
        node: ast.Call,
        canonical: str,
        arg_facts: List[Fact],
        kw_facts: Dict[str, Fact],
        all_taints: FrozenSet[Taint],
    ) -> Fact:
        if not canonical:
            return Fact(taints=all_taints)
        # Annotations name a callable by its canonical or its bare name.
        tail = canonical.rpartition(".")[2]
        # @order_sensitive callables trump their inferred summaries.
        if {canonical, tail} & self.a.registry.order_sensitive:
            return Fact.float_(
                f"order-sensitive accumulation in {canonical}()",
                reduction=True, taints=all_taints,
            )
        qual = self.a.program.resolve(canonical, self.module)
        callee_key = None
        if qual is not None:
            callee_key = self.a.functions[qual].short
        elif tail[:1].isupper() and (
            f"{tail}.__init__" in self.a.member_index
            or tail in self.a.program.classes
        ):
            callee_key = tail  # a constructor of an analyzed class
        if callee_key is not None:
            self._check_param_sinks(
                node, callee_key, [], arg_facts, kw_facts,
                direct_keys=[callee_key],
            )
        if qual is not None:
            return self._callee(qual).with_taints(all_taints)
        return Fact(taints=all_taints)

    # -- parameter sinks -------------------------------------------------------

    def _check_param_sinks(
        self,
        node: ast.Call,
        attr: str,
        quals: Sequence[str],
        arg_facts: List[Fact],
        kw_facts: Dict[str, Fact],
        direct_keys: Optional[Sequence[str]] = None,
    ) -> None:
        if not self.record:
            return
        registry = self.a.registry
        keys: List[str] = list(direct_keys or [])
        if not keys:
            for table in (registry.exact_params, registry.deterministic_params):
                for key in table:
                    if key == attr or key.endswith(f".{attr}"):
                        keys.append(key)
        # A bare method name can suffix-match annotations on several
        # classes; fire each (param, kind) at most once, labelled with
        # the first matching key.
        fired: Set[Tuple[str, bool]] = set()
        for key in sorted(set(keys)):
            for table, exact in (
                (registry.exact_params, True),
                (registry.deterministic_params, False),
            ):
                params = table.get(key, set())
                # Constructor annotations may use the bare class name.
                if not params and "." not in key:
                    params = table.get(key.split(".")[-1], set())
                if not params:
                    continue
                order = self._param_order(key, attr)
                for index, fact in enumerate(arg_facts):
                    name = (
                        order[index] if order and index < len(order) else None
                    )
                    if name in params and (name, exact) not in fired:
                        fired.add((name, exact))
                        self._fire_param(key, name, fact, node, exact)
                for name, fact in kw_facts.items():
                    if name in params and (name, exact) not in fired:
                        fired.add((name, exact))
                        self._fire_param(key, name, fact, node, exact)

    def _param_order(self, key: str, attr: str) -> Optional[List[str]]:
        """Positional parameter names of the annotated callable."""
        candidates = []
        if "." in key:
            candidates += self.a.member_index.get(key, [])
        else:
            candidates += self.a.member_index.get(f"{key}.__init__", [])
            for qual, info in self.a.functions.items():
                if info.class_name is None and info.node.name == key:
                    candidates.append(qual)
        for qual in candidates:
            info = self.a.functions.get(qual)
            if info is None:
                continue
            args = info.node.args
            names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
            if names and names[0] in ("self", "cls"):
                names = names[1:]
            return names
        sig = self.a.registry.functions.get(key)
        if sig is not None:
            return list(sig.order)
        return None

    def _fire_param(
        self, key: str, name: str, fact: Fact, node: ast.Call, exact: bool
    ) -> None:
        if exact:
            self.a.report_exact_violation(
                fact, node, self.path, f"parameter {name!r} of {key}()"
            )
        else:
            self.a.report_taints(fact, f"parameter {name!r} of {key}()")

    # -- REP303: RNG thread fan-out --------------------------------------------

    def _check_fanout(self, node: ast.Call, canonical: str) -> None:
        if not self.record:
            return
        candidates: List[ast.expr] = []
        if canonical in ("threading.Thread", "threading.Timer",
                         "multiprocessing.Process"):
            for kw in node.keywords:
                if kw.arg == "args" and isinstance(
                    kw.value, (ast.Tuple, ast.List)
                ):
                    candidates.extend(kw.value.elts)
        elif isinstance(node.func, ast.Attribute) and node.func.attr in (
            "submit", "map", "apply_async"
        ):
            candidates.extend(node.args[1:])
        if not candidates:
            return
        for expr in candidates:
            fact = self._probe(expr)
            if not fact.is_rng or fact.spawned:
                continue
            root = expr.id if isinstance(expr, ast.Name) else None
            if self.loop_depth > 0:
                self._fire_fanout(expr, root)
            elif root is not None:
                if root in self._fanout_rngs:
                    self._fire_fanout(self._fanout_rngs[root], root)
                    self._fire_fanout(expr, root)
                else:
                    self._fanout_rngs[root] = expr

    def _probe(self, expr: ast.expr) -> Fact:
        """Evaluate ``expr`` again, leaving the environment and the
        returns as they were (a check must not change the summary)."""
        env, n_returns = self.env, len(self.returns)
        self.env = dict(env)
        try:
            return self.eval(expr)
        finally:
            self.env = env
            del self.returns[n_returns:]

    def _fire_fanout(self, expr: ast.AST, root: Optional[str]) -> None:
        marker = f"{expr.lineno}:{expr.col_offset}"
        if marker in self._fanout_reported:
            return
        self._fanout_reported.add(marker)
        label = root or "RNG"
        self.a.report(
            "REP303", self.path, expr.lineno, expr.col_offset,
            f"RNG {label!r} is handed to multiple threads without a spawn "
            f"split; derive per-thread generators via rng.spawn() / "
            f"SeedSequence.spawn()",
        )

    # -- arithmetic ------------------------------------------------------------

    def _binop(self, left: Fact, op: ast.operator, right: Fact) -> Fact:
        taints = left.taints | right.taints
        if isinstance(op, ast.Div):
            return Fact.float_(
                "float division", taints=taints,
                reduction=left.reduction or right.reduction,
            )
        if isinstance(op, ast.MatMult):
            if left.exact == "int" and right.exact == "int":
                return Fact.int_(taints)
            if "float" in (left.exact, right.exact):
                return Fact.float_(
                    "matrix-product accumulation", reduction=True,
                    taints=taints,
                )
            return Fact(taints=taints)
        if isinstance(op, (ast.BitOr, ast.BitAnd, ast.BitXor)) and (
            left.is_set or right.is_set
        ):
            return Fact(is_set=True, taints=taints)
        if left.exact == "int" and right.exact == "int":
            return Fact.int_(taints)
        if "float" in (left.exact, right.exact):
            why = left.why if left.exact == "float" else right.why
            return Fact.float_(
                why or "float arithmetic", taints=taints,
                reduction=left.reduction or right.reduction,
            )
        return Fact(
            taints=taints, reduction=left.reduction or right.reduction
        )


#: REP301..REP306 over paths (or a loaded :class:`Program`), or one source.
analyze_exactness = ExactnessAnalyzer.analyze
analyze_exactness_source = ExactnessAnalyzer.analyze_source
