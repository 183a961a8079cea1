"""PEP 562 package exports that import their module on first use.

The first read of a name imports its module and caches every export of that
module on the package; an export naming a subpackage (``repro.api``)
resolves to the subpackage itself.
"""

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` resolving ``exports`` (name → module path)."""

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        path = exports[name]
        module = importlib.import_module(path)
        namespace = sys.modules[package]
        for export in [export for export, source in exports.items() if source == path]:
            if path == f"{package}.{export}" and not hasattr(module, export):
                setattr(namespace, export, module)  # a subpackage export: ``repro.api``
            else:
                setattr(namespace, export, getattr(module, export))
        return getattr(namespace, name)

    return __getattr__
