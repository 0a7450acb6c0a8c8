"""Structured JSONL event sink and reader.

One event per line, ``type``-discriminated: a ``meta`` header (schema
version, host info, free-form context), ``span`` events (see
:meth:`~repro.telemetry.spans.SpanRecord.to_event`) and a final ``metrics``
snapshot.  The format round-trips losslessly through :func:`read_jsonl` and
is what ``repro profile`` and the ``--telemetry`` flag of ``reorder``,
``serve`` and ``bench`` write; :func:`host_info` and :func:`git_sha` also
stamp the ``repro bench speedup|throughput --json`` artifacts.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
from pathlib import Path
from typing import Iterable, List, Optional, Union

__all__ = ["JsonlSink", "host_info", "git_sha", "write_events",
           "read_jsonl", "SCHEMA"]

#: schema tag stamped into every ``meta`` event
SCHEMA = "repro-telemetry/v1"


def host_info() -> dict:
    """Machine identification attached to every exported artifact."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count() or 1,
    }


def git_sha(default: str = "unknown") -> str:
    """The repository HEAD commit, for stamping benchmark artifacts.

    Falls back to ``default`` outside a work tree (installed wheels, CI
    tarballs) rather than raising — artifact writers must never fail on
    provenance metadata.
    """
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else default


class JsonlSink:
    """Append-only, thread-safe JSON-lines writer."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = None

    def emit(self, record: dict) -> None:
        """Write one event as a single JSON line."""
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("w")
            self._fh.write(line + "\n")

    def emit_many(self, records: Iterable[dict]) -> int:
        """Write a batch of events; returns how many were written."""
        n = 0
        for rec in records:
            self.emit(rec)
            n += 1
        return n

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def write_events(
    path: Union[str, Path],
    tracer=None,
    metrics=None,
    meta: Optional[dict] = None,
) -> int:
    """Dump a full telemetry session to ``path`` as JSONL.

    Emits a ``meta`` header (schema + host + caller context), every finished
    span of ``tracer``, and a closing ``metrics`` snapshot.  Returns the
    number of lines written.
    """
    with JsonlSink(path) as sink:
        header = {
            "type": "meta",
            "schema": SCHEMA,
            "unix_time": time.time(),
            "host": host_info(),
        }
        if meta:
            header["context"] = meta
        sink.emit(header)
        n = 1
        if tracer is not None:
            n += sink.emit_many(rec.to_event() for rec in tracer.records())
        if metrics is not None:
            sink.emit({"type": "metrics", **metrics.to_dict()})
            n += 1
    return n


def read_jsonl(path: Union[str, Path], *, strict: bool = False) -> List[dict]:
    """Parse a JSONL file back into a list of event dicts.

    Corrupt or truncated lines — the tail a crashed writer leaves behind —
    are skipped and counted on the ``telemetry.jsonl.skipped`` counter so
    one bad run cannot poison later analysis; pass ``strict=True`` to get
    the old raising behaviour.
    """
    out: List[dict] = []
    skipped = 0
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                if strict:
                    raise
                skipped += 1
    if skipped:
        # analysis path, not a hot loop: count even while telemetry is
        # disabled so the skip is never silent
        from repro import telemetry

        telemetry.get().counter("telemetry.jsonl.skipped").add(skipped)
    return out
