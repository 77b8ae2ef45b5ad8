"""Registry of shape/unit signatures seeding the deep-lint flow pass.

Core modules annotate themselves with a module-level ``REPRO_SIGNATURES``
dict *literal*: the registry reads it from the module's source without
importing the module (so the linter never loads numpy or scipy), and the
flow pass picks these literals out of any file it analyzes, so fixtures
and new modules can declare their own.
Each entry maps a function, class, method or attribute name to a *spec*:

``"funcname": {"param": "<spec>", ..., "return": "<spec>"}``
    a function / method / constructor signature;
``"ClassName.attr": "<spec>"``
    the type of an instance attribute or property.

The spec mini-language is one line per value::

    spec        := objtype | shape [unit] [tag ...] | "any"
    shape       := "scalar" | "(" dim {"," dim} ")"
    dim         := INT | SYM | INT SYM | "?"        # e.g. 16, N, 2N, ?
    unit        := farad | volt | joule | watt | second | hertz | meter
                 | ohm | henry | ampere | coulomb | bit | probability
                 | dimensionless
    tag         := spice | maxwell
    objtype     := a capitalized class name, e.g. BitStatistics

Alternatives are separated by ``|`` (``"(N, N) farad spice | LinearCapacitanceModel"``);
an argument is only reported when it conflicts with *every* alternative.
Symbols are shared across one signature: ``N`` in two parameters means
the same size at every call site.

Three ``@``-prefixed keys feed the concurrency pass
(:mod:`repro.analysis.concurrency`) instead of the flow pass:

``"@guards": ["ClassName.attr guarded_by _lock", "_global guarded_by _l"]``
    declares which lock protects a field. A capitalized head names an
    instance attribute guarded by an attribute lock of the same class;
    a lowercase head names a module global guarded by a module-level
    lock.
``"@threads": ["ClassName", "ClassName.method", "funcname"]``
    declares thread entry points: the named class escapes to another
    thread, or the named callable runs on one.
``"@blocking": ["funcname"]``
    declares callables that may block indefinitely (so calling them
    while holding a lock is REP204).

Three more feed the exactness/determinism pass
(:mod:`repro.analysis.exactness`):

``"@exact": ["ClassName.attr", "ClassName.method param", "func return"]``
    declares exact-integer sinks. A single dotted token names an
    instance attribute that must only ever hold exact-int values (and is
    in turn *assumed* exact when read); ``"<callable> <param>"`` marks
    one parameter, ``"<callable> return"`` the returned value.
``"@deterministic": ["func", "ClassName.method", "Class.save payload"]``
    declares determinism sinks: the named callable's result (or the
    named parameter — typically a checkpoint/report payload) must not
    depend on set iteration order, wall-clock time, or float-key
    tie-breaks.
``"@order_sensitive": ["funcname"]``
    declares callables whose float result depends on operand order
    (custom accumulation loops); their results trip REP304 when they
    reach an ``@exact`` sink.

Malformed entries of any directive raise ``ValueError`` at registry
build time, exactly like ``@guards``.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.shapes import Shape, parse_dim
from repro.analysis.units import DIMENSIONLESS, AbstractValue, parse_unit

__all__ = [
    "Signature",
    "SignatureRegistry",
    "build_registry",
    "parse_spec",
]

#: Modules whose ``REPRO_SIGNATURES`` seed the registry. Kept explicit so
#: the registry is built without scanning the whole package.
ANNOTATED_MODULES = (
    "repro.stats.switching",
    "repro.core.assignment",
    "repro.core.power",
    "repro.core.fastpower",
    "repro.core.optimize",
    "repro.reporting",
    "repro.tsv.matrices",
    "repro.tsv.capmodel",
    "repro.tsv.extractor",
    "repro.circuit.mna",
    "repro.datagen.gaussian",
    "repro.runtime.artifacts",
    "repro.runtime.faults",
    "repro.runtime.supervision",
    "repro.serve.codecs",
    "repro.serve.metrics",
    "repro.serve.session",
    "repro.serve.engine",
    "repro.serve.server",
    "repro.serve.protocol",
    "repro.serve.fleet",
    "repro.serve.worker",
    "repro.grid.space",
    "repro.grid.queue",
    "repro.grid.store",
    "repro.grid.runners",
    "repro.grid.worker",
    "repro.grid.query",
)

SpecDict = Mapping[str, str]

#: The ``repro`` package directory: the annotated modules' sources are
#: found under it without importing any package.
_PACKAGE_DIR = Path(__file__).resolve().parent.parent

#: A module-level ``REPRO_SIGNATURES`` assignment at the start of a line.
_SIGNATURES_LINE = re.compile(r"^REPRO_SIGNATURES\b", re.MULTILINE)


def static_signatures(tree: ast.Module) -> Optional[Mapping]:
    """Extract a module's ``REPRO_SIGNATURES`` dict literal, if present."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "REPRO_SIGNATURES"
        ):
            try:
                value = ast.literal_eval(node.value)
            except (ValueError, TypeError):
                return None
            return value if isinstance(value, dict) else None
    return None


@functools.lru_cache(maxsize=None)
def source_signatures(module_name: str) -> Optional[Mapping]:
    """The ``REPRO_SIGNATURES`` literal of one ``repro`` module, read from
    its file once per process (the dict is shared: do not mutate it).

    Only the source from the assignment's line on is parsed; the whole
    file is parsed when that tail is not valid Python on its own.
    """
    path = _PACKAGE_DIR.joinpath(*module_name.split(".")[1:])
    try:
        source = path.with_suffix(".py").read_text(encoding="utf-8")
    except OSError:  # pragma: no cover - partial installs
        return None
    match = _SIGNATURES_LINE.search(source)
    if match is None:
        return None
    try:
        tree = ast.parse(source[match.start():])
    except SyntaxError:
        tree = ast.parse(source)
    return static_signatures(tree)


def _dotted_identifier(token: str) -> bool:
    """True for ``name``, ``Class.attr``, ``pkg.mod.func`` style tokens."""
    return bool(token) and all(
        part.isidentifier() for part in token.split(".")
    )


def _parse_single(spec: str) -> AbstractValue:
    tokens_source = spec.strip()
    if not tokens_source or tokens_source == "any":
        return AbstractValue()
    # Object type: a capitalized identifier.
    if tokens_source.isidentifier() and tokens_source[0].isupper():
        return AbstractValue(obj=tokens_source)
    shape: Optional[Shape]
    rest = tokens_source
    if rest.startswith("("):
        close = rest.index(")")
        dims = [t for t in rest[1:close].split(",") if t.strip()]
        shape = tuple(parse_dim(t) for t in dims)
        rest = rest[close + 1:]
    elif rest.split()[0] == "scalar":
        shape = ()
        rest = rest.split(None, 1)[1] if " " in rest.strip() else ""
    else:
        raise ValueError(f"malformed spec {spec!r}: expected shape or object")
    unit = None
    form = None
    prob = None
    rng = None
    for token in rest.split():
        if token in ("spice", "maxwell"):
            form = token
        elif token == "probability":
            unit, prob, rng = DIMENSIONLESS, True, (0.0, 1.0)
        elif token == "bit":
            unit, rng = DIMENSIONLESS, (0.0, 1.0)
        elif token == "any":
            unit = None
        else:
            unit = parse_unit(token)
    return AbstractValue(shape=shape, unit=unit, form=form, prob=prob, rng=rng)


def parse_spec(spec: str) -> List[AbstractValue]:
    """Parse a spec string into its list of accepted alternatives."""
    return [_parse_single(part) for part in spec.split("|")]


@dataclass
class Signature:
    """Parsed signature of one callable."""

    name: str
    params: Dict[str, List[AbstractValue]] = field(default_factory=dict)
    order: Tuple[str, ...] = ()
    ret: Optional[List[AbstractValue]] = None

    def param_for_position(self, index: int) -> Optional[str]:
        return self.order[index] if index < len(self.order) else None


def _parse_signature(name: str, spec: SpecDict) -> Signature:
    params: Dict[str, List[AbstractValue]] = {}
    order: List[str] = []
    ret = None
    for key, value in spec.items():
        if key == "return":
            ret = parse_spec(value)
        else:
            params[key] = parse_spec(value)
            order.append(key)
    return Signature(name=name, params=params, order=tuple(order), ret=ret)


class SignatureRegistry:
    """All known signatures, addressable by dotted name and member name.

    ``functions`` is keyed by every name a call site might canonicalize
    to: ``repro.tsv.matrices.maxwell_to_spice`` for plain functions and
    both ``repro.stats.switching.BitStatistics.from_stream`` and
    ``BitStatistics.from_stream`` for members; a class's own entry
    returns an instance of it. ``attributes`` maps ``ClassName.attr`` to
    the attribute's abstract value.
    """

    def __init__(self) -> None:
        self.functions: Dict[str, Signature] = {}
        self.attributes: Dict[str, AbstractValue] = {}
        # Concurrency facts (the @-prefixed mini-language):
        self.guards: Dict[str, str] = {}  # field id -> lock id
        self.thread_entries: set = set()  # "Class", "Class.m", "func"
        self.blocking: set = set()  # callables that may block
        # Exactness/determinism facts (repro.analysis.exactness):
        self.exact_attrs: set = set()  # "Class.attr" exact-int fields
        self.exact_returns: set = set()  # callables returning exact ints
        self.exact_params: Dict[str, set] = {}  # callable -> {param, ...}
        self.deterministic_returns: set = set()  # callables w/ det. results
        self.deterministic_params: Dict[str, set] = {}  # callable -> params
        self.order_sensitive: set = set()  # order-dependent float reducers

    # -- population -----------------------------------------------------------

    def add_module_signatures(self, module_name: str, raw: Mapping) -> None:
        """Merge one module's ``REPRO_SIGNATURES`` dict."""
        for key, spec in raw.items():
            if not isinstance(key, str):
                continue
            if key.startswith("@"):
                self._add_concurrency_spec(module_name, key, spec)
                continue
            dotted = f"{module_name}.{key}" if module_name else key
            if isinstance(spec, str):
                # "ClassName.attr": "<spec>" — an attribute/property type.
                alternatives = parse_spec(spec)
                self.attributes[key] = alternatives[0]
                self.attributes[dotted] = alternatives[0]
                continue
            sig = _parse_signature(dotted, spec)
            self.functions[dotted] = sig
            head = key.split(".")[0]
            if head[:1].isupper():
                # Class member (or the constructor itself): also reachable
                # as "ClassName.member" on an instance/registry object.
                self.functions[key] = sig
                if "." not in key and sig.ret is None:
                    sig.ret = [AbstractValue(obj=key)]

    def _add_concurrency_spec(
        self, module_name: str, key: str, spec: Sequence
    ) -> None:
        """Fold one ``@guards`` / ``@threads`` / ``@blocking`` entry in."""
        if not isinstance(spec, (list, tuple)):
            raise ValueError(f"{key} expects a list of strings")
        if key == "@guards":
            for entry in spec:
                self._add_guard(module_name, entry)
        elif key == "@threads":
            self.thread_entries.update(str(entry) for entry in spec)
        elif key == "@blocking":
            self.blocking.update(str(entry) for entry in spec)
        elif key in ("@exact", "@deterministic"):
            for entry in spec:
                self._add_exactness_sink(module_name, key, entry)
        elif key == "@order_sensitive":
            for entry in spec:
                name = str(entry)
                if len(name.split()) != 1 or not _dotted_identifier(name):
                    raise ValueError(
                        f"malformed @order_sensitive entry {entry!r}: "
                        "expected a single callable name"
                    )
                self.order_sensitive.add(name)
                if module_name:
                    self.order_sensitive.add(f"{module_name}.{name}")
        else:
            raise ValueError(f"unknown registry directive {key!r}")

    def _add_exactness_sink(
        self, module_name: str, key: str, entry: str
    ) -> None:
        """Fold one ``@exact`` / ``@deterministic`` entry in.

        One token names a sink directly: a dotted, capitalized head is an
        instance attribute (``"EnergyAccount._gram"``), anything else a
        callable whose *return value* is the sink. Two tokens name a
        callable plus one of its parameters (or the pseudo-parameter
        ``return``): ``"CheckpointStore.save payload"``.
        """
        tokens = str(entry).split()
        if not tokens or len(tokens) > 2 or not all(
            _dotted_identifier(t) for t in tokens
        ):
            raise ValueError(
                f"malformed {key} entry {entry!r}: expected "
                "'<Class.attr>', '<callable>', '<callable> <param>' or "
                "'<callable> return'"
            )
        if key == "@exact":
            attrs, returns, params = (
                self.exact_attrs, self.exact_returns, self.exact_params
            )
        else:
            attrs, returns, params = (
                self.deterministic_returns,  # single callables: return sinks
                self.deterministic_returns,
                self.deterministic_params,
            )
        name = tokens[0]
        names = [name]
        if module_name:
            names.append(f"{module_name}.{name}")
        if len(tokens) == 1:
            head = name.split(".")[0]
            if key == "@exact":
                if "." not in name or not head[:1].isupper():
                    raise ValueError(
                        f"malformed @exact entry {entry!r}: a bare token "
                        "must name a 'Class.attr' field; use "
                        f"'{name} return' for a return sink"
                    )
                attrs.update(names)
            elif "." in name and head[:1].isupper() and name.count(".") == 1:
                # "Class.attr" is ambiguous between a field and a method;
                # register both readings — the analyzer checks whichever
                # kind the name turns out to be.
                self.deterministic_returns.update(names)
            else:
                returns.update(names)
        elif tokens[1] == "return":
            returns.update(names)
        else:
            for alias in names:
                params.setdefault(alias, set()).add(tokens[1])

    def _add_guard(self, module_name: str, entry: str) -> None:
        parts = str(entry).split()
        if len(parts) != 3 or parts[1] != "guarded_by":
            raise ValueError(
                f"malformed @guards entry {entry!r}: expected "
                "'<field> guarded_by <lock>'"
            )
        target, _, lock = parts
        head = target.split(".")[0]
        if head[:1].isupper():
            # "ClassName.attr guarded_by _lock": an attribute lock of the
            # same class unless the lock is already dotted.
            field_id = target
            lock_id = lock if "." in lock else f"{head}.{lock}"
        else:
            # "_global guarded_by _lock": module-level names.
            field_id = f"{module_name}.{target}" if module_name else target
            lock_id = f"{module_name}.{lock}" if module_name else lock
        self.guards[field_id] = lock_id

    # -- lookup ---------------------------------------------------------------

    def function(self, dotted: str) -> Optional[Signature]:
        return self.functions.get(dotted)

    def member_function(self, obj_type: str, member: str) -> Optional[Signature]:
        return self.functions.get(f"{obj_type}.{member}")

    def member_attribute(self, obj_type: str, member: str) -> Optional[AbstractValue]:
        return self.attributes.get(f"{obj_type}.{member}")


def build_registry(
    extra: Sequence[Tuple[str, Mapping]] = (),
) -> SignatureRegistry:
    """Assemble the registry from the annotated core modules' sources.

    ``extra`` supplies ``(module_name, signatures_dict)`` pairs harvested
    statically from the files under analysis, so fixture files and modules
    outside :data:`ANNOTATED_MODULES` can contribute signatures too.
    """
    registry = SignatureRegistry()
    for module_name in ANNOTATED_MODULES:
        raw = source_signatures(module_name)
        if raw is not None:
            registry.add_module_signatures(module_name, raw)
    for module_name, raw in extra:
        if isinstance(raw, dict):
            registry.add_module_signatures(module_name, raw)
    return registry
