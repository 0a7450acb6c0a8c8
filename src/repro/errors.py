"""The unified error surface of the library.

Every exception ``repro`` raises on purpose derives from :class:`ReproError`,
so callers can catch one base class at the facade/service boundary instead of
enumerating module-specific types::

    try:
        results = repro.reorder_many(mats)
    except repro.errors.ReproError:
        ...  # any repro-originated failure: bad input, overload, timeout

The hierarchy (each class also subclasses the stdlib type it historically
was, so pre-1.2 ``except ValueError`` / ``except RuntimeError`` call sites
keep working unchanged):

* :class:`ReproError` — base of everything below.

  * :class:`ValidationError` (``ValueError``) — a request argument failed
    validation (unknown algorithm/method/start, out-of-range value,
    asymmetric pattern...).  Raised by :mod:`repro.validation`, the same
    way by :func:`repro.reorder` and by the service.
  * :class:`BackendUnavailableError` (``ValueError``) — a method name does
    not resolve to a registered execution backend.
  * :class:`ServiceError` (``RuntimeError``) — base of service-level
    failures.

    * :class:`ServiceOverloadedError` — the bounded submission queue is
      full (backpressure).
    * :class:`ServiceTimeoutError` — a request (or batch) missed its
      deadline; the computation keeps running and still populates the
      cache.
  * :class:`RemovedAPIError` (``RuntimeError``) — a pre-facade entry point
    that finished its deprecation cycle (``reverse_cuthill_mckee``,
    ``orderings.api.order``) was called; the message names the
    :func:`repro.reorder` replacement.

The service exception names are also importable from their historical homes
(``repro.service`` / ``repro.service.core``) — those modules re-export the
classes defined here.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "BackendUnavailableError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "RemovedAPIError",
]


class ReproError(Exception):
    """Base class of every intentional ``repro`` failure."""


class ValidationError(ReproError, ValueError):
    """A request argument failed validation at the public boundary.

    Subclasses ``ValueError`` so existing ``except ValueError`` call sites
    are unaffected.
    """


class BackendUnavailableError(ReproError, ValueError):
    """No registered execution backend satisfies the request.

    Raised by the registry for unknown method names.
    """


class ServiceError(ReproError, RuntimeError):
    """Base class for service-level failures."""


class ServiceOverloadedError(ServiceError):
    """The bounded submission queue is full (backpressure)."""


class ServiceTimeoutError(ServiceError):
    """A request did not complete within its timeout."""


class RemovedAPIError(ReproError, RuntimeError):
    """A retired pre-facade entry point was called.

    The 1.1 ``DeprecationWarning`` shims finished their cycle in 1.2; the
    error message names the exact :func:`repro.reorder` call to use.
    """
