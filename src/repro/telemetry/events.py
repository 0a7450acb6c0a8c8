"""Structured JSONL event writer and reader.

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
import time
from pathlib import Path
from typing import List, Optional, Union

__all__ = ["host_info", "git_sha", "write_events", "read_jsonl", "SCHEMA"]

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


def write_events(
    path: Union[str, Path],
    tracer=None,
    metrics=None,
    meta: Optional[dict] = None,
) -> int:
    """Dump a full telemetry session to ``path`` as JSONL.

    Emits a ``meta`` header (schema + host + caller context), every finished
    span of ``tracer``, and a closing ``metrics`` snapshot, one JSON object
    per line.  Returns the number of lines written.
    """
    header = {
        "type": "meta",
        "schema": SCHEMA,
        "unix_time": time.time(),
        "host": host_info(),
    }
    if meta:
        header["context"] = meta
    spans = tracer.records() if tracer is not None else []
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        def emit(event: dict) -> None:
            fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")

        emit(header)
        for rec in spans:
            emit(rec.to_event())
        if metrics is not None:
            emit({"type": "metrics", **metrics.to_dict()})
    return 1 + len(spans) + (metrics is not None)


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
