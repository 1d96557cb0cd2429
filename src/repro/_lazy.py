"""PEP 562 lazy exports for package ``__init__`` modules.

A package lists which submodule defines each exported name; the name is
imported on first attribute access (``pkg.name``, ``from pkg import
name`` or ``from pkg import *``) and cached in the package namespace.
Serving processes import only the submodules they use this way, so a
``repro serve`` worker never loads the netlist stack.

Rule: no lazily exported name may equal the name of one of the
package's submodules.  Importing ``pkg.sub`` binds the submodule as
``pkg.sub``, which would hide an export called ``sub``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, sources: Mapping[str, Sequence[str]]
                 ) -> Tuple[Dict[str, str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """Module ``__getattr__``/``__dir__`` hooks for *package*.

    Args:
        package: The package's ``__name__``.
        sources: Relative submodule (``".executor"``) -> names it
            defines that the package exports.

    Returns:
        ``(exports, __getattr__, __dir__)``, where *exports* maps each
        lazy name to its submodule.
    """
    exports = {name: module for module, names in sources.items()
               for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return exports, __getattr__, __dir__
