"""Stub left by the removed ``method="auto"`` flight recorder.

``method="auto"`` is now a rule (:data:`repro.backends.AUTO_METHOD`), so
there are no cost-model picks left to record or calibrate.  Only
:func:`get_recorder` remains, because the end-to-end benchmark's
"every observer is off" check still imports it.  Delete this module in the
benchmark change that drops that check.
"""

from __future__ import annotations

__all__ = ["get_recorder"]


def get_recorder() -> None:
    """Always ``None``: no flight recorder exists any more."""
    return None
