"""PEP 562 lazy exports for the package roots.

A root that re-exported its submodules' names eagerly made every import
of any part of the package pay for all of it: the linter loaded numpy,
and a serving process loaded SciPy for a depletion width it never asked
for. The roots map each public name to its module instead and import
that module on first access.
"""

import importlib


def lazy_exports(namespace, where):
    """``__getattr__`` and ``__dir__`` for a package's ``globals()``
    ``namespace``: ``where`` maps each public name to the module defining
    it, imported on first access; the value is then kept in
    ``namespace``, so later lookups never reach ``__getattr__``."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
