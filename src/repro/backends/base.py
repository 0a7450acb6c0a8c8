"""The execution-backend registry: one ``Backend`` object per RCM method.

Every RCM execution strategy — the paper's simulated machines, the real
OS-thread backend, the NumPy frontier kernel, the process pool — returns the
identical serial permutation (the paper's headline invariant).  That makes
*which* backend runs a pure quality-of-service decision, and this module
turns that decision into data: each method registers a :class:`Backend`
carrying its run callable plus capability metadata (kind, which options it
honors, whether it emits :class:`~repro.machine.stats.RunStats`).
Everything that used to hard-code method names — the ``core/api.py``
dispatch chain, the service and process-pool degradation chains, the CLI
``choices``, the cache key canonicalization, the ``docs/api.md`` table —
derives from this registry instead, so adding a ninth backend is one
``register()`` call.

``method="auto"`` is a rule, not a selector: it always runs
:data:`AUTO_METHOD`.  Every backend returns the same permutation, so
``auto`` only decides speed; ``docs/api.md`` records the measurements
behind the rule.

Registration order is meaningful: it is the order methods are listed in
choices, error messages and docs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import BackendUnavailableError
from repro.validation import choices_text

__all__ = [
    "KIND_SERIAL",
    "KIND_VECTORIZED",
    "KIND_SIMULATED",
    "KIND_OS_THREADS",
    "KIND_PROCESS",
    "KINDS",
    "AUTO_METHOD",
    "Backend",
    "register",
    "unregister",
    "get",
    "is_registered",
    "names",
    "backends",
    "method_choices",
    "degradation_order",
    "in_process_fallback",
    "capability_rows",
    "capability_table",
]

#: execution substrate classes a backend can declare
KIND_SERIAL = "serial"
KIND_VECTORIZED = "vectorized"
KIND_SIMULATED = "simulated"
KIND_OS_THREADS = "os-threads"
KIND_PROCESS = "process"
KINDS = (
    KIND_SERIAL,
    KIND_VECTORIZED,
    KIND_SIMULATED,
    KIND_OS_THREADS,
    KIND_PROCESS,
)

#: the backend ``method="auto"`` runs, for every request and batch size
AUTO_METHOD = "compiled"


@dataclass(frozen=True)
class Backend:
    """One registered RCM execution strategy.

    Exactly one of the two run callables is set:

    * ``run_component(mat, start, *, total, n_workers, config, seed)`` —
      orders the single component reachable from ``start`` and returns
      ``(permutation_block, RunStats | None)``; the pipeline calls it once
      per connected component.
    * ``run_matrix(mat, starts, *, sizes, n_workers, config, seed)`` —
      orders all components in one call (backends that schedule components
      themselves, e.g. the process pool) and returns the list of blocks in
      input order.

    The capability flags describe which request options the backend
    actually reads — the pipeline passes everything either way, but the
    flags drive the generated capability table, the degradation chains and
    cache-key documentation.  ``fallback_rank`` orders the declarative
    degradation chain: backends with a rank are appended (ascending) to
    every chain; ``None`` means the backend never serves as a degradation
    target.
    """

    name: str
    kind: str
    summary: str
    run_component: Optional[Callable] = None
    run_matrix: Optional[Callable] = None
    honors_n_workers: bool = False
    honors_config: bool = False
    honors_seed: bool = False
    emits_stats: bool = False
    fallback_rank: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"backend kind must be one of {choices_text(KINDS)}; "
                f"got {self.kind!r}"
            )
        if (self.run_component is None) == (self.run_matrix is None):
            raise ValueError(
                f"backend {self.name!r} must set exactly one of "
                "run_component / run_matrix"
            )

    def capabilities(self) -> dict:
        """JSON-serializable capability row (``repro backends --json``)."""
        return {
            "method": self.name,
            "kind": self.kind,
            "n_workers": self.honors_n_workers,
            "config": self.honors_config,
            "seed": self.honors_seed,
            "stats": self.emits_stats,
            "fallback_rank": self.fallback_rank,
            "summary": self.summary,
        }


# insertion-ordered: registration order is presentation order everywhere
_REGISTRY: Dict[str, Backend] = {}


def register(backend: Backend, *, replace: bool = False) -> Backend:
    """Add a backend to the registry (the one-file ninth-backend hook).

    Raises ``ValueError`` on a duplicate name unless ``replace=True``.
    Returns the backend so modules can register at definition site.
    """
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def unregister(name: str) -> Backend:
    """Remove and return a backend (tests; optional-backend teardown)."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise ValueError(f"backend {name!r} is not registered") from None


def is_registered(name: str) -> bool:
    """Whether a backend with this method name is registered."""
    return name in _REGISTRY


def get(name: str) -> Backend:
    """Look a backend up by method name.

    Unknown names raise the library's uniform choice error (same format as
    :func:`repro.validation.check_choice`), so registry lookup *is* the
    method validation.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendUnavailableError(
            f"method must be one of {choices_text(method_choices())}; "
            f"got {name!r}"
        ) from None


def names() -> Tuple[str, ...]:
    """Registered method names, in registration (= presentation) order."""
    return tuple(_REGISTRY)


def backends() -> Tuple[Backend, ...]:
    """Registered backends, in registration order."""
    return tuple(_REGISTRY.values())


def method_choices() -> Tuple[str, ...]:
    """What a ``method=`` argument may be: ``"auto"`` plus every backend."""
    return ("auto",) + names()


def degradation_order(method: str) -> Tuple[str, ...]:
    """Methods tried in order when ``method`` fails environmentally.

    Declarative: the requested method first, then every backend that
    declares a ``fallback_rank``, ascending, deduplicated.  Both the
    service layer and the process-pool executor derive their chains from
    this one function — every backend returns the identical permutation,
    so degradation changes latency, never the answer.  ``method`` need not
    be registered (a future optional backend): the chain still leads to
    the registered targets.
    """
    chain: List[str] = [method]
    ranked = sorted(
        (b for b in _REGISTRY.values() if b.fallback_rank is not None),
        key=lambda b: b.fallback_rank,
    )
    for b in ranked:
        if b.name not in chain:
            chain.append(b.name)
    return tuple(chain)


def in_process_fallback(method: str = KIND_PROCESS) -> str:
    """First degradation target of ``method`` that runs in-process.

    The process-pool executor uses this when ``fork`` is unavailable or
    the pool breaks: the first ranked backend whose kind is not
    ``"process"`` (today: the vectorized kernel).
    """
    for name in degradation_order(method)[1:]:
        backend = _REGISTRY.get(name)
        if backend is not None and backend.kind != KIND_PROCESS:
            return name
    raise BackendUnavailableError(
        f"no in-process degradation target registered for {method!r}"
    )


def _mark(flag: bool) -> str:
    return "yes" if flag else "–"


def capability_rows() -> List[dict]:
    """Capability dicts for every backend, registration order."""
    return [b.capabilities() for b in _REGISTRY.values()]


def capability_table() -> str:
    """The backend capability table as Markdown.

    This exact text is what ``docs/api.md`` embeds (guarded by
    ``tests/test_doc_drift.py``); regenerate it with
    ``python -m repro backends``.
    """
    lines = [
        "| method | kind | `n_workers` | `config` | `seed` | stats | execution |",
        "|--------|------|:-----------:|:--------:|:------:|:-----:|-----------|",
    ]
    for b in _REGISTRY.values():
        lines.append(
            f"| `{b.name}` | {b.kind} | {_mark(b.honors_n_workers)} "
            f"| {_mark(b.honors_config)} | {_mark(b.honors_seed)} "
            f"| {_mark(b.emits_stats)} | {b.summary} |"
        )
    return "\n".join(lines)
