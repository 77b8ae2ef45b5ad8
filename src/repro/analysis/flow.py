"""Interprocedural shape & physical-unit inference (the deep-lint pass).

An abstract interpretation over the package's ASTs that tracks, for every
expression, a symbolic ndarray shape (:mod:`repro.analysis.shapes`), an SI
unit vector, a capacitance-matrix *form* (Maxwell vs SPICE), and
probability bounds (:mod:`repro.analysis.units`). Facts are seeded by the
``REPRO_SIGNATURES`` annotations of the core modules (collected in
:mod:`repro.analysis.registry`) and propagated through a module-level call
graph: the return type of an unannotated function is inferred from its
body, so a Maxwell-form matrix built in one module is still caught when a
second module feeds it to a SPICE-form consumer.

The pass is deliberately *conservative*: it only reports facts it can
prove contradictory. Anything it cannot follow — dynamic dispatch,
fancy indexing, data-dependent shapes — degrades to "unknown", which is
compatible with everything. The rule family:

``REP101``
    Shape mismatch at a call, ``@``/``np.matmul`` or ``np.einsum`` site
    (``N`` vs ``T`` vs ``2N`` confusion, rank errors, object vs array).
``REP102``
    Maxwell-form capacitance matrix passed where SPICE form is required,
    or vice versa (the classic silent sign/diagonal bug).
``REP103``
    Physical-unit mismatch: adding farads to volts, returning joules
    where watts are declared, passing seconds where hertz is expected.
``REP104``
    Probability-valued expression escaping the ``[0, 1]`` bounds implied
    by Eq. 9 (``p + q``, ``2 * p``, literal ``1.5`` as a probability).

Suppression uses the same ``# repro: noqa[REP10x]`` comments as the
shallow rules. Run with ``repro-tsv lint --deep``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.program import (
    FunctionInfo,
    ModuleInfo,
    Pass,
    StatementWalker,
)
from repro.analysis.registry import Signature
from repro.analysis.shapes import (
    ANY,
    Substitution,
    dim_of,
    format_shape,
    matmul_shape,
    rigid_dim_eq,
    substitute,
    unify_shape,
)
from repro.analysis.shapes import broadcast_shapes as _broadcast
from repro.analysis.units import (
    DIMENSIONLESS,
    UNKNOWN,
    AbstractValue,
    div_units,
    format_unit,
    join_values,
    mul_units,
    pow_units,
    scalar_literal,
)

__all__ = ["DEEP_RULES", "analyze_paths", "analyze_source"]

#: The deep rule family (code -> one-line summary), mirrored in docs/SARIF.
DEEP_RULES = {
    "REP101": "shape mismatch at a call / @ / einsum site",
    "REP102": "Maxwell-form vs SPICE-form capacitance matrix confusion",
    "REP103": "physical-unit mismatch in arithmetic or at a call site",
    "REP104": "probability-valued expression escaping [0, 1] (Eq. 9 bounds)",
}

Env = Dict[str, AbstractValue]

_IDENTITY_NUMPY = frozenset(
    {"asarray", "ascontiguousarray", "array", "copy", "nan_to_num", "abs",
     "absolute", "atleast_1d", "real", "round"}
)
_REDUCTIONS = frozenset(
    {"sum", "mean", "max", "min", "amax", "amin", "nansum", "nanmean",
     "nanmax", "nanmin", "median", "std", "var", "prod"}
)
#: Reductions whose result stays inside the operand's numeric range.
_RANGE_KEEPING = frozenset({"mean", "max", "min", "amax", "amin", "median",
                            "nanmean", "nanmax", "nanmin"})


class Analyzer(Pass):
    """Drives the interprocedural pass over a program."""

    unknown = UNKNOWN

    def run(self) -> List[Finding]:
        for qualname in list(self.program.functions):
            self.summary(qualname)
        for module in self.program.modules:
            _Interpreter(self, module, {}).exec_block(module.tree.body)
        return self.result()

    def _declared_signature(self, info: FunctionInfo) -> Optional[Signature]:
        sig = self.registry.function(info.qualname)
        if sig is None and info.class_name is not None:
            sig = self.registry.function(info.short)
        if sig is None and info.class_name is not None and (
            info.node.name == "__init__"
        ):
            # A class's constructor entry annotates __init__'s parameters.
            ctor = self.registry.function(info.class_name)
            if ctor is not None:
                sig = Signature(
                    name=ctor.name, params=ctor.params, order=ctor.order
                )
        return sig

    def summarize(self, info: FunctionInfo) -> AbstractValue:
        """Return type of one analyzed function (its declared one, if any)."""
        sig = self._declared_signature(info)
        env: Env = {}
        if info.class_name is not None:
            env["self"] = AbstractValue(obj=info.class_name)
        if sig is not None:
            for name, alternatives in sig.params.items():
                env[name] = alternatives[0] if len(alternatives) == 1 else UNKNOWN
        interpreter = _Interpreter(self, info.module, env)
        interpreter.exec_block(info.node.body)
        inferred = UNKNOWN
        if interpreter.returns:
            inferred = interpreter.returns[0]
            for other in interpreter.returns[1:]:
                inferred = join_values(inferred, other)
        if sig is not None and sig.ret:
            declared = sig.ret[0]
            conflict = _value_conflict(declared, inferred, {})
            if conflict is not None:
                code, detail = conflict
                self.record(
                    info.module, info.node, code,
                    f"return of {info.qualname} contradicts its declared "
                    f"signature: {detail}",
                )
            return declared
        return inferred

    # -- resolution helpers ----------------------------------------------------

    def resolve_signature(
        self, canonical: str, module: ModuleInfo
    ) -> Optional[Signature]:
        sig = self.registry.function(canonical)
        if sig is None and "." not in canonical:
            sig = self.registry.function(f"{module.name}.{canonical}")
        return sig


def _value_conflict(
    param: AbstractValue, arg: AbstractValue, subst: Substitution
) -> Optional[Tuple[str, str]]:
    """Provable conflict between a signature slot and an argument fact.

    Returns ``(rule_code, detail)`` or ``None`` when compatible. Checks are
    ordered most-specific first so e.g. a Maxwell/SPICE confusion is
    reported as REP102 even though shapes and units agree.
    """
    if param.is_unknown or arg.is_unknown:
        return None
    if param.obj is not None or arg.obj is not None:
        if param.obj is not None and arg.obj is not None:
            if param.obj != arg.obj:
                return ("REP101", f"expected {param.obj}, got {arg.obj}")
            return None
        if param.obj is not None and (
            arg.shape is not None or arg.unit is not None
        ):
            return (
                "REP101",
                f"expected a {param.obj} instance, got {arg.describe()}",
            )
        if arg.obj is not None and (
            param.shape is not None or param.unit is not None
        ):
            return (
                "REP101",
                f"expected {param.describe()}, got a {arg.obj} instance",
            )
        return None
    if param.prob is True and not arg.lit:
        if arg.prob is False:
            return (
                "REP104",
                "probability-derived expression may escape [0, 1] "
                f"(bounds {_fmt_rng(arg.rng)}); renormalize before use",
            )
        if arg.rng is not None and (arg.rng[0] < 0.0 or arg.rng[1] > 1.0):
            return (
                "REP104",
                f"value in {_fmt_rng(arg.rng)} used as a probability "
                "(Eq. 9 requires [0, 1])",
            )
    if param.prob is True and arg.lit and arg.rng is not None:
        if arg.rng[0] < 0.0 or arg.rng[1] > 1.0:
            return (
                "REP104",
                f"literal {arg.rng[0]:g} used as a probability "
                "(Eq. 9 requires [0, 1])",
            )
    if param.form is not None and arg.form is not None and param.form != arg.form:
        return (
            "REP102",
            f"{arg.form}-form capacitance matrix where {param.form} form "
            "is required; convert with repro.tsv.matrices",
        )
    if (
        param.unit is not None
        and arg.unit is not None
        and not arg.lit
        and param.unit != arg.unit
    ):
        return (
            "REP103",
            f"expected {format_unit(param.unit)}, got {format_unit(arg.unit)}",
        )
    if param.shape is not None and arg.shape is not None:
        if not unify_shape(param.shape, arg.shape, subst):
            return (
                "REP101",
                f"expected shape {format_shape(param.shape)}, got "
                f"{format_shape(arg.shape)}",
            )
    return None


def _fmt_rng(rng: Optional[Tuple[float, float]]) -> str:
    if rng is None:
        return "unknown"
    return f"[{rng[0]:g}, {rng[1]:g}]"


class _Interpreter(StatementWalker):
    """Abstract interpreter for one function body or module top level."""

    unknown = UNKNOWN

    def __init__(self, analyzer: Analyzer, module: ModuleInfo, env: Env) -> None:
        super().__init__()
        self.analyzer = analyzer
        self.module = module
        self.env = env

    # -- walker hooks ---------------------------------------------------------

    def snapshot(self) -> Env:
        return dict(self.env)

    def restore(self, state: Env) -> None:
        self.env = dict(state)

    def join(self, base: Env, ends: Sequence[Env]) -> None:
        merged = dict(base)
        for snap in ends:
            for name in set(merged) | set(snap):
                a = merged.get(name, UNKNOWN)
                b = snap.get(name, UNKNOWN)
                merged[name] = a if a == b else join_values(a, b)
        self.env = merged

    def element(self, value: AbstractValue, node: ast.expr) -> AbstractValue:
        if value.shape is not None and len(value.shape) >= 1:
            return value.but(shape=value.shape[1:], form=None, lit=False)
        return UNKNOWN

    def enter(
        self, expr: ast.expr, stmt: ast.stmt, asynchronous: bool
    ) -> AbstractValue:
        self.eval(expr)
        return UNKNOWN

    def bind(
        self, target: ast.expr, value: AbstractValue, stmt: ast.AST
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.bind(element, UNKNOWN, stmt)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, UNKNOWN, stmt)
        # Subscript / attribute stores mutate objects we don't re-track.

    # -- expressions ----------------------------------------------------------

    def eval(self, node: ast.expr) -> AbstractValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return UNKNOWN
            return scalar_literal(node.value)
        if isinstance(node, ast.Name):
            return self.env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._eval_unary(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, (ast.List, ast.Tuple)):
            return self._eval_sequence(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join_values(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child)
            return AbstractValue(shape=None, unit=DIMENSIONLESS, rng=(0.0, 1.0))
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            self.bind(node.target, value, node)
            return value
        return UNKNOWN

    def _eval_sequence(self, node: ast.expr) -> AbstractValue:
        values = []
        for element in node.elts:  # type: ignore[attr-defined]
            if isinstance(element, ast.Constant) and isinstance(
                element.value, (int, float)
            ) and not isinstance(element.value, bool):
                values.append(float(element.value))
            elif isinstance(element, ast.UnaryOp) and isinstance(
                element.op, ast.USub
            ) and isinstance(element.operand, ast.Constant) and isinstance(
                element.operand.value, (int, float)
            ):
                values.append(-float(element.operand.value))
            else:
                for child in node.elts:  # type: ignore[attr-defined]
                    self.eval(child)
                return UNKNOWN
        if not values:
            return UNKNOWN
        lo, hi = min(values), max(values)
        return AbstractValue(
            shape=(dim_of(len(values)),),
            rng=(lo, hi),
            prob=True if 0.0 <= lo and hi <= 1.0 else None,
        )

    def _eval_attribute(self, node: ast.Attribute) -> AbstractValue:
        base = self.eval(node.value)
        if base.obj is not None:
            attr = self.analyzer.registry.member_attribute(base.obj, node.attr)
            if attr is not None:
                return attr
            return UNKNOWN
        if base.shape is not None and node.attr == "T":
            return base.but(shape=tuple(reversed(base.shape)), form=None)
        if node.attr in ("real", "imag"):
            return base.but(form=None)
        return UNKNOWN

    def _eval_unary(self, node: ast.UnaryOp) -> AbstractValue:
        value = self.eval(node.operand)
        if isinstance(node.op, ast.UAdd):
            return value
        if isinstance(node.op, ast.USub):
            rng = (-value.rng[1], -value.rng[0]) if value.rng else None
            prob = value.prob
            if prob is not None and rng is not None:
                prob = 0.0 <= rng[0] and rng[1] <= 1.0
            elif prob is True:
                prob = False  # -p escapes [0, 1] unless p == 0
            return value.but(form=None, rng=rng, prob=prob)
        return UNKNOWN

    # -- arithmetic -----------------------------------------------------------

    def _eval_binop(self, node: ast.BinOp) -> AbstractValue:
        a = self.eval(node.left)
        b = self.eval(node.right)
        op = node.op
        if isinstance(op, ast.MatMult):
            return self._matmul(node, a, b)
        if isinstance(op, (ast.Add, ast.Sub)):
            return self._add_sub(node, a, b, subtract=isinstance(op, ast.Sub))
        if isinstance(op, (ast.Mult, ast.Div)):
            return self._mul_div(node, a, b, divide=isinstance(op, ast.Div))
        if isinstance(op, ast.Pow):
            return self._pow(node, a, b)
        shape, conflict = _broadcast(a.shape, b.shape)
        if conflict:
            self._record(node, "REP101", self._broadcast_message(a, b))
        return AbstractValue(shape=shape)

    def _broadcast_message(self, a: AbstractValue, b: AbstractValue) -> str:
        return (
            f"operands of shape {format_shape(a.shape)} and "
            f"{format_shape(b.shape)} cannot broadcast"
        )

    def _matmul(
        self, node: ast.AST, a: AbstractValue, b: AbstractValue
    ) -> AbstractValue:
        shape, conflict = matmul_shape(a.shape, b.shape)
        if conflict:
            self._record(
                node, "REP101",
                f"matmul of {format_shape(a.shape)} @ {format_shape(b.shape)}: "
                "inner dimensions cannot agree",
            )
        return AbstractValue(shape=shape, unit=mul_units(a.unit, b.unit))

    def _add_sub(
        self, node: ast.AST, a: AbstractValue, b: AbstractValue, subtract: bool
    ) -> AbstractValue:
        if (
            a.unit is not None
            and b.unit is not None
            and not a.lit
            and not b.lit
            and a.unit != b.unit
        ):
            verb = "subtract" if subtract else "add"
            self._record(
                node, "REP103",
                f"cannot {verb} {format_unit(b.unit)} "
                f"{'from' if subtract else 'to'} {format_unit(a.unit)}",
            )
        shape, conflict = _broadcast(a.shape, b.shape)
        if conflict:
            self._record(node, "REP101", self._broadcast_message(a, b))
        if a.unit is not None and (b.unit is None or b.lit):
            unit = a.unit if not a.lit else b.unit
        elif b.unit is not None and (a.unit is None or a.lit):
            unit = b.unit if not b.lit else a.unit
        else:
            unit = a.unit if a.unit == b.unit else None
        rng = None
        if a.rng is not None and b.rng is not None:
            if subtract:
                rng = (a.rng[0] - b.rng[1], a.rng[1] - b.rng[0])
            else:
                rng = (a.rng[0] + b.rng[0], a.rng[1] + b.rng[1])
        prob = self._prob_after_arith(a, b, rng)
        return AbstractValue(
            shape=shape, unit=unit, rng=rng, prob=prob, lit=a.lit and b.lit
        )

    def _mul_div(
        self, node: ast.AST, a: AbstractValue, b: AbstractValue, divide: bool
    ) -> AbstractValue:
        shape, conflict = _broadcast(a.shape, b.shape)
        if conflict:
            self._record(node, "REP101", self._broadcast_message(a, b))
        rng = None
        if a.rng is not None and b.rng is not None and (
            not divide or b.rng[0] > 0.0
        ):
            values = [x / y if divide else x * y for x in a.rng for y in b.rng]
            rng = (min(values), max(values))
        prob = self._prob_after_arith(a, b, rng)
        unit = (div_units if divide else mul_units)(a.unit, b.unit)
        return AbstractValue(
            shape=shape, unit=unit, rng=rng, prob=prob, lit=a.lit and b.lit
        )

    def _pow(
        self, node: ast.AST, a: AbstractValue, b: AbstractValue
    ) -> AbstractValue:
        exponent: Optional[int] = None
        if b.rng is not None and b.rng[0] == b.rng[1] and b.lit:
            if float(b.rng[0]).is_integer():
                exponent = int(b.rng[0])
        if exponent is None:
            return AbstractValue(shape=a.shape)
        rng = None
        if a.rng is not None and a.rng[0] >= 0.0 and exponent >= 0:
            rng = (a.rng[0] ** exponent, a.rng[1] ** exponent)
        prob = None
        if a.prob is True and exponent >= 1:
            prob = True
        return AbstractValue(
            shape=a.shape, unit=pow_units(a.unit, exponent), rng=rng,
            prob=prob, lit=a.lit,
        )

    @staticmethod
    def _prob_after_arith(
        a: AbstractValue,
        b: AbstractValue,
        rng: Optional[Tuple[float, float]],
    ) -> Optional[bool]:
        """Probability status of an arithmetic result.

        The result is a provable probability only when its bounds stay in
        ``[0, 1]``; an expression *derived from* a probability whose bounds
        escape (or are unknown while mixing with known quantities) is
        flagged as "escaped" — the REP104 trigger.
        """
        involved = a.prob is not None or b.prob is not None
        if not involved:
            return None
        if rng is not None:
            return 0.0 <= rng[0] and rng[1] <= 1.0
        if a.prob is True and b.prob is True:
            return False  # combined without provable bounds
        return None

    # -- subscripts -----------------------------------------------------------

    def _eval_subscript(self, node: ast.Subscript) -> AbstractValue:
        base = self.eval(node.value)
        for child in ast.walk(node.slice):
            if isinstance(child, ast.Call):
                self.eval(child)
        if base.obj is not None or base.shape is None:
            if base.obj is not None:
                return UNKNOWN
            return AbstractValue(unit=base.unit, prob=base.prob, rng=base.rng)
        index = node.slice
        elements = list(index.elts) if isinstance(index, ast.Tuple) else [index]
        dims: List = []
        position = 0
        for element in elements:
            if isinstance(element, ast.Slice):
                dims.append(ANY)
                position += 1
            elif isinstance(element, ast.Constant) and element.value is None:
                dims.append(dim_of(1))  # np.newaxis
            elif self._is_int_literal(element):
                position += 1  # scalar index: axis removed
            else:
                # Fancy / data-dependent indexing: rank unknown.
                return AbstractValue(unit=base.unit, prob=base.prob, rng=base.rng)
            if position > len(base.shape):
                return AbstractValue(unit=base.unit, prob=base.prob, rng=base.rng)
        dims.extend(base.shape[position:])
        return AbstractValue(
            shape=tuple(dims), unit=base.unit, prob=base.prob, rng=base.rng
        )

    @staticmethod
    def _is_int_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(
            node.value, int
        ) and not isinstance(node.value, bool)

    # -- calls ----------------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> AbstractValue:
        has_star = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        args = [
            self.eval(a) for a in node.args if not isinstance(a, ast.Starred)
        ]
        kwargs = {
            kw.arg: self.eval(kw.value) for kw in node.keywords if kw.arg
        }
        func = node.func
        if isinstance(func, ast.Attribute):
            base = self.eval(func.value)
            if base.obj is not None:
                sig = self.analyzer.registry.member_function(
                    base.obj, func.attr
                )
                if sig is not None:
                    return self._check_call(sig, node, args, kwargs, has_star)
                return UNKNOWN
            if not base.is_unknown and (
                base.shape is not None or base.unit is not None
            ):
                return self._ndarray_method(base, func.attr, node, args, kwargs)
        canonical = self.module.imports.canonical(func)
        if not canonical:
            return UNKNOWN
        if canonical.startswith("numpy."):
            return self._numpy_call(
                canonical.split(".", 1)[1], node, args, kwargs
            )
        if canonical in ("float", "int"):
            return args[0].but(shape=(), form=None) if args else UNKNOWN
        if canonical == "abs" and args:
            return args[0].but(form=None, rng=None)
        if canonical == "len":
            return AbstractValue(shape=(), unit=DIMENSIONLESS)
        sig = self.analyzer.resolve_signature(canonical, self.module)
        if sig is not None:
            return self._check_call(sig, node, args, kwargs, has_star)
        qualname = self.analyzer.program.resolve(canonical, self.module)
        if qualname is not None:
            return self.analyzer.summary(qualname)
        return UNKNOWN

    def _check_call(
        self,
        sig: Signature,
        node: ast.Call,
        args: Sequence[AbstractValue],
        kwargs: Mapping[str, AbstractValue],
        has_star: bool,
    ) -> AbstractValue:
        subst: Substitution = {}
        if not has_star:
            slots: List[Tuple[str, AbstractValue]] = []
            for index, value in enumerate(args):
                name = sig.param_for_position(index)
                if name is not None:
                    slots.append((name, value))
            for name, value in kwargs.items():
                if name in sig.params:
                    slots.append((name, value))
            for name, value in slots:
                alternatives = sig.params[name]
                conflict = None
                matched = False
                for alternative in alternatives:
                    trial = dict(subst)
                    result = _value_conflict(alternative, value, trial)
                    if result is None:
                        subst = trial
                        matched = True
                        break
                    if conflict is None:
                        conflict = result
                if not matched and conflict is not None:
                    code, detail = conflict
                    self._record(
                        node, code,
                        f"argument {name!r} to {sig.name}: {detail}",
                    )
        if sig.ret is None:
            return UNKNOWN
        if len(sig.ret) != 1:
            return UNKNOWN
        declared = sig.ret[0]
        if declared.shape is not None:
            return declared.but(shape=substitute(declared.shape, subst))
        return declared

    # -- numpy / ndarray intrinsics -------------------------------------------

    def _ndarray_method(
        self,
        base: AbstractValue,
        method: str,
        node: ast.Call,
        args: Sequence[AbstractValue],
        kwargs: Mapping[str, AbstractValue],
    ) -> AbstractValue:
        if method in ("copy", "astype"):
            return base.but(lit=False)
        if method in _REDUCTIONS:
            return self._reduce(base, node, method)
        if method in ("ravel", "flatten"):
            return base.but(shape=(ANY,), form=None)
        if method == "transpose" and base.shape is not None and not node.args:
            return base.but(shape=tuple(reversed(base.shape)), form=None)
        if method == "item":
            return base.but(shape=(), form=None)
        if method == "reshape":
            return AbstractValue(unit=base.unit, prob=base.prob, rng=base.rng)
        if method == "clip":
            return self._clip(base, args)
        return UNKNOWN

    def _reduce(
        self, base: AbstractValue, node: ast.Call, method: str
    ) -> AbstractValue:
        axis = None
        offset = 1 if isinstance(node.func, ast.Attribute) else 2
        axis_nodes = [
            kw.value for kw in node.keywords if kw.arg == "axis"
        ] + list(node.args[offset - 1:offset])
        if any(kw.arg == "keepdims" for kw in node.keywords):
            return AbstractValue(unit=base.unit)
        if axis_nodes:
            candidate = axis_nodes[0]
            if self._is_int_literal(candidate):
                axis = ast.literal_eval(candidate)
            else:
                return AbstractValue(unit=base.unit)
        keeps_range = method in _RANGE_KEEPING
        rng = base.rng if keeps_range else None
        prob = base.prob if keeps_range else (
            False if base.prob is True else None
        )
        if axis is None:
            return AbstractValue(
                shape=(), unit=base.unit, rng=rng, prob=prob
            )
        if base.shape is None:
            return AbstractValue(unit=base.unit, rng=rng, prob=prob)
        rank = len(base.shape)
        if not -rank <= axis < rank:
            return AbstractValue(unit=base.unit, rng=rng, prob=prob)
        axis %= rank
        shape = base.shape[:axis] + base.shape[axis + 1:]
        return AbstractValue(shape=shape, unit=base.unit, rng=rng, prob=prob)

    @staticmethod
    def _clip(base: AbstractValue, args: Sequence[AbstractValue]) -> AbstractValue:
        rng = None
        if (
            len(args) >= 2
            and args[0].rng is not None
            and args[1].rng is not None
        ):
            rng = (args[0].rng[0], args[1].rng[1])
        prob = True if rng is not None and 0.0 <= rng[0] and rng[1] <= 1.0 else None
        return base.but(rng=rng, prob=prob, form=None, lit=False)

    def _numpy_call(
        self,
        name: str,
        node: ast.Call,
        args: Sequence[AbstractValue],
        kwargs: Mapping[str, AbstractValue],
    ) -> AbstractValue:
        if name in _IDENTITY_NUMPY:
            if not args:
                return UNKNOWN
            value = args[0]
            if name in ("abs", "absolute"):
                return value.but(form=None, rng=None, lit=False)
            return value.but(lit=False)
        if name == "negative" and args:
            return args[0].but(
                form=None, lit=False,
                rng=(-args[0].rng[1], -args[0].rng[0]) if args[0].rng else None,
                prob=False if args[0].prob is True else None,
            )
        if name in ("zeros", "empty", "ones", "full"):
            shape = self._literal_shape(node.args[0]) if node.args else None
            rng = {"zeros": (0.0, 0.0), "ones": (1.0, 1.0)}.get(name)
            if name == "full" and len(args) >= 2 and args[1].rng is not None:
                rng = args[1].rng
            prob = (
                True if rng is not None and 0.0 <= rng[0] and rng[1] <= 1.0
                else None
            )
            return AbstractValue(shape=shape, rng=rng, prob=prob)
        if name in ("eye", "identity"):
            size = ANY
            if node.args and self._is_int_literal(node.args[0]):
                size = dim_of(ast.literal_eval(node.args[0]))
            return AbstractValue(
                shape=(size, size), rng=(0.0, 1.0), prob=True
            )
        if name == "diag" and args:
            value = args[0]
            if value.shape is not None and len(value.shape) == 2:
                kept = value.shape[0] if value.shape[0].sym != "?" else value.shape[1]
                return value.but(shape=(kept,), form=None, lit=False)
            if value.shape is not None and len(value.shape) == 1:
                return value.but(
                    shape=(value.shape[0], value.shape[0]), form=None, lit=False
                )
            return value.but(shape=None, form=None, lit=False)
        if name == "outer" and len(args) == 2:
            a, b = args
            da = a.shape[0] if a.shape and len(a.shape) == 1 else ANY
            db = b.shape[0] if b.shape and len(b.shape) == 1 else ANY
            return AbstractValue(shape=(da, db), unit=mul_units(a.unit, b.unit))
        if name in _REDUCTIONS and args:
            return self._reduce(args[0], node, name)
        if name in ("dot", "matmul") and len(args) == 2:
            return self._matmul(node, args[0], args[1])
        if name == "einsum":
            return self._einsum(node, args)
        if name == "sqrt" and args:
            value = args[0]
            unit = None
            if value.unit is not None and all(e % 2 == 0 for e in value.unit):
                unit = tuple(e // 2 for e in value.unit)
            rng = None
            if value.rng is not None and value.rng[0] >= 0.0:
                rng = (value.rng[0] ** 0.5, value.rng[1] ** 0.5)
            return AbstractValue(
                shape=value.shape, unit=unit, rng=rng, prob=value.prob
            )
        if name == "clip" and args:
            return self._clip(args[0], args[1:])
        if name == "where" and len(args) == 3:
            return join_values(args[1], args[2])
        if name in ("exp", "log", "log2", "log10", "tanh", "sin", "cos"):
            if args:
                return AbstractValue(shape=args[0].shape)
            return UNKNOWN
        if name == "linalg.norm" and args:
            return AbstractValue(shape=(), unit=args[0].unit)
        return UNKNOWN

    def _literal_shape(self, node: ast.expr):
        if self._is_int_literal(node):
            return (dim_of(ast.literal_eval(node)),)
        if isinstance(node, (ast.Tuple, ast.List)):
            dims = []
            for element in node.elts:
                if self._is_int_literal(element):
                    dims.append(dim_of(ast.literal_eval(element)))
                else:
                    self.eval(element)
                    dims.append(ANY)
            return tuple(dims)
        return None

    def _einsum(
        self, node: ast.Call, args: Sequence[AbstractValue]
    ) -> AbstractValue:
        if not node.args or not isinstance(node.args[0], ast.Constant):
            return UNKNOWN
        spec = node.args[0].value
        if not isinstance(spec, str) or "..." in spec:
            return UNKNOWN
        inputs, arrow, output = spec.replace(" ", "").partition("->")
        in_specs = inputs.split(",")
        operands = args[1:]
        if len(in_specs) != len(operands):
            return UNKNOWN
        binding: Dict[str, object] = {}
        for letters, operand in zip(in_specs, operands):
            if operand.shape is None:
                continue
            if len(letters) != len(operand.shape):
                self._record(
                    node, "REP101",
                    f"einsum spec {letters!r} expects rank {len(letters)}, "
                    f"operand has shape {format_shape(operand.shape)}",
                )
                return UNKNOWN
            for letter, dim in zip(letters, operand.shape):
                bound = binding.get(letter)
                if bound is None:
                    binding[letter] = dim
                elif rigid_dim_eq(bound, dim) is False:  # type: ignore[arg-type]
                    self._record(
                        node, "REP101",
                        f"einsum index {letter!r} bound to incompatible "
                        "dimensions",
                    )
                    return UNKNOWN
        if not arrow:
            counts: Dict[str, int] = {}
            order: List[str] = []
            for letters in in_specs:
                for letter in letters:
                    counts[letter] = counts.get(letter, 0) + 1
                    if letter not in order:
                        order.append(letter)
            output = "".join(
                letter for letter in sorted(order) if counts[letter] == 1
            )
        unit: Optional[Tuple[int, int, int, int]] = DIMENSIONLESS
        for operand in operands:
            unit = mul_units(unit, operand.unit)
        shape = tuple(binding.get(letter, ANY) for letter in output)
        return AbstractValue(shape=shape, unit=unit)  # type: ignore[arg-type]

    def _record(self, node: ast.AST, code: str, message: str) -> None:
        self.analyzer.record(self.module, node, code, message)


#: REP101..REP104 over paths (or a loaded :class:`Program`), or one source.
analyze_paths = Analyzer.analyze
analyze_source = Analyzer.analyze_source
