#!/usr/bin/env python
"""Guard: no literal RCM method-name tuples outside ``repro/backends``.

The execution-backend registry (``repro.backends``) is the single source of
method names — dispatch, ``method="auto"``, CLI choices, cache keys and
docs all derive from it.  This script walks every
module under ``src/repro`` (except the registry package itself) and fails
if any tuple/list literal consists of two or more string constants that are
all registered method names — i.e. a hand-maintained copy of the method
list that would silently go stale when a backend is added.

Run from the repository root (CI does)::

    PYTHONPATH=src python tools/check_method_literals.py

Exit status 0 when clean, 1 with ``file:line`` diagnostics otherwise.
Single method-name strings (``method == "serial"`` comparisons, defaults)
are fine — only enumerations are the registry's job.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
EXEMPT = SRC / "backends"


def _method_names() -> frozenset:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro import backends

    return frozenset(backends.names())


def find_violations(tree: ast.AST, methods: frozenset) -> list:
    """(lineno, names) for every all-method-name tuple/list literal."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Tuple, ast.List)):
            continue
        if len(node.elts) < 2:
            continue
        values = []
        for elt in node.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                break
            values.append(elt.value)
        else:
            if values and set(values) <= methods:
                out.append((node.lineno, tuple(values)))
    return out


def main() -> int:
    methods = _method_names()
    bad = []
    for path in sorted(SRC.rglob("*.py")):
        if EXEMPT in path.parents:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, values in find_violations(tree, methods):
            bad.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                       f"literal method-name list {values!r}")
    if bad:
        print("method-name literals outside repro/backends "
              "(derive these from the registry):")
        for line in bad:
            print(f"  {line}")
        return 1
    print(f"OK: no literal method-name lists outside repro/backends "
          f"({len(methods)} registered methods checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
