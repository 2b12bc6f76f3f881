"""Lazy package surfaces (PEP 562): public names load on first use.

A package declares which submodule defines each of its public names; nothing
is imported until a name is read.  ``import repro`` therefore costs NumPy plus
the modules a command actually runs, and a spawned shard or sweep-pool child
re-imports only what its task needs::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".tracer": ("Tracer", "span"),
        ".metrics": ("MetricsRegistry",),
    })

``from package import name``, ``package.name`` and ``from package import *``
behave as with eager imports; a resolved name is cached in the package
namespace, so only its first read pays for the import.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``".tracer"``), to
    the public names it defines.  ``__all__`` lists every name in declaration
    order, ``__getattr__`` imports the owning submodule on first access, and
    ``__dir__`` lists the exported names beside those already bound.
    """
    owner: dict[str, str] = {}
    for module, names in exports.items():
        for name in names:
            if name in owner:
                raise ValueError(f"{package} exports {name!r} from both {owner[name]} and {module}")
            owner[name] = module
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return list(owner), __getattr__, __dir__
