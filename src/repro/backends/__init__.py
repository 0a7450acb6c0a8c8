"""Execution-backend registry for RCM methods.

Importing this package registers the built-in backends; every
method-string surface in the library (dispatch, CLI choices, cache keys,
docs) resolves through it, and ``method="auto"`` resolves to
:data:`AUTO_METHOD`.
See :mod:`repro.backends.base` for the model and
:mod:`repro.backends.builtin` for the built-in registrations.
"""

from repro.backends.base import (
    AUTO_METHOD,
    KINDS,
    KIND_OS_THREADS,
    KIND_PROCESS,
    KIND_SERIAL,
    KIND_SIMULATED,
    KIND_VECTORIZED,
    Backend,
    backends,
    capability_rows,
    capability_table,
    get,
    is_registered,
    method_choices,
    names,
    register,
    unregister,
)
from repro.backends import builtin as _builtin  # noqa: F401  (registers)

__all__ = [
    "KINDS",
    "KIND_SERIAL",
    "KIND_VECTORIZED",
    "KIND_SIMULATED",
    "KIND_OS_THREADS",
    "KIND_PROCESS",
    "AUTO_METHOD",
    "Backend",
    "register",
    "unregister",
    "get",
    "is_registered",
    "names",
    "backends",
    "method_choices",
    "capability_rows",
    "capability_table",
]
