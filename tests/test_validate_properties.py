"""Property tests of the validate pass and the component labeling.

:func:`repro.sparse.validate.check_batch` is checked, single and batched,
against a brute-force reference over sets of ``(row, col)`` pairs, on
patterns with unsorted rows, duplicates, one-sided entries, self loops,
empty rows and ``n`` in {0, 1}: once as it runs, where the O(nnz)
acceptance serves every valid pattern, and once through the key pass
alone.  :func:`repro.sparse.graph.connected_components`, the pipeline's
labeling of validate's int32 view and the power-law pass's labeling are
checked against ``networkx.connected_components`` ordered by smallest
member, isolated vertices included.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import List

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.transform import plan_powerlaw
from repro.errors import ValidationError
from repro.matrices import generators as g
from repro.sparse import validate
from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import connected_components, symmetric_components
from repro.sparse.validate import (
    ASYMMETRIC,
    DUPLICATE,
    UNSORTED,
    check_batch,
    check_pattern,
    is_structurally_symmetric,
)

from tests.conftest import block_union

COMMON = settings(max_examples=150, deadline=None)

Rows = List[List[int]]


@st.composite
def patterns(draw, max_n: int = 7) -> Rows:
    """Row lists of a small pattern: often symmetric and sorted, then
    perturbed by a one-sided entry, a duplicate or a swap within a row."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return []
    node = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(node, node), max_size=3 * n))
    if draw(st.booleans()):
        pairs |= {(c, r) for r, c in pairs}
    rows: Rows = [sorted(c for r, c in pairs if r == i) for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(node)
        kind = draw(st.sampled_from(["one-sided", "duplicate", "swap"]))
        if kind == "one-sided":
            rows[i].append(draw(node))
        elif kind == "duplicate" and rows[i]:
            rows[i].insert(0, draw(st.sampled_from(rows[i])))
        elif kind == "swap" and len(rows[i]) > 1:
            j = draw(st.integers(0, len(rows[i]) - 2))
            rows[i][j], rows[i][j + 1] = rows[i][j + 1], rows[i][j]
    return rows


def to_csr(rows: Rows) -> CSRMatrix:
    return CSRMatrix(
        indptr=np.cumsum([0] + [len(r) for r in rows]),
        indices=np.array([c for r in rows for c in r], dtype=np.int64),
        n=len(rows),
    )


def row_defect(rows: Rows):
    """The message of a failed row check, or ``None``."""
    if any(len(set(r)) < len(r) for r in rows):
        return DUPLICATE
    if any(a > b for r in rows for a, b in zip(r, r[1:])):
        return UNSORTED
    return None


def pairs_of(rows: Rows) -> set:
    return {(i, c) for i, r in enumerate(rows) for c in r}


def reference(batch: List[Rows]):
    """Bandwidths, or the exact error message ``check_batch`` raises."""
    for i, rows in enumerate(batch):
        pairs = pairs_of(rows)
        defect = row_defect(rows)
        if defect is None and pairs != {(c, r) for r, c in pairs}:
            defect = ASYMMETRIC
        if defect:
            return (f"matrix {i}: " if len(batch) > 1 else "") + defect
    return [
        max((abs(r - c) for r, c in pairs_of(rows)), default=0)
        for rows in batch
    ]


def outcome(batch: List[Rows]):
    try:
        return check_batch([to_csr(rows) for rows in batch]).tolist()
    except ValidationError as exc:
        return str(exc)


@contextmanager
def key_pass_only():
    """The validate pass with its O(nnz) acceptance forced off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validate, "_accepted_bandwidth", lambda *view: None)
        yield


@COMMON
@given(patterns())
def test_single_matches_reference(rows):
    expected = reference([rows])
    assert outcome([rows]) == expected
    if not isinstance(expected, str):  # accepted on the int32 view
        assert check_pattern(to_csr(rows))[1] is not None


@COMMON
@given(patterns())
def test_single_matches_reference_on_the_key_pass(rows):
    with key_pass_only():
        assert outcome([rows]) == reference([rows])


@COMMON
@given(st.lists(patterns(max_n=5), max_size=4))
def test_batch_matches_reference(batch):
    assert outcome(batch) == reference(batch)


@COMMON
@given(st.lists(patterns(max_n=5), max_size=4))
def test_batch_matches_reference_on_the_key_pass(batch):
    with key_pass_only():
        assert outcome(batch) == reference(batch)


def test_int32_limit_takes_the_key_pass(monkeypatch):
    mat = g.delaunay_mesh(200, seed=3)
    bw, view = check_pattern(mat)
    assert view is not None
    perm = repro.reorder(mat).permutation
    monkeypatch.setattr(validate, "INT32_MAX", mat.nnz - 1)
    assert check_pattern(mat) == (bw, None)
    assert repro.reorder(mat).permutation.tobytes() == perm.tobytes()


@COMMON
@given(patterns())
def test_symmetry_check_matches_multiset_reference(rows):
    entries = Counter((i, c) for i, r in enumerate(rows) for c in r)
    mirrored = Counter({(c, r): k for (r, c), k in entries.items()})
    assert is_structurally_symmetric(to_csr(rows)) == (entries == mirrored)


def components(labeling):
    count, labels = labeling
    return [set(np.flatnonzero(labels == k)) for k in range(count)]


@COMMON
@given(patterns(max_n=24))
def test_labeling_matches_networkx(rows):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(rows)))
    graph.add_edges_from(pairs_of(rows))
    expected = sorted(nx.connected_components(graph), key=min)
    mat = to_csr(rows)
    assert components(connected_components(mat)) == expected

    # the pipeline labels validate's int32 view of the symmetrized pattern
    sym = mat.symmetrize()
    view = check_pattern(sym)[1]
    assert components(symmetric_components(*view)) == expected

    # the power-law pass labels its hub-first relabeling from its own
    # cast; a 40-leaf star gives it a hub.  Components come out ranked by
    # their smallest relabeled node
    star = CSRMatrix.from_edges(41, [(0, leaf) for leaf in range(1, 41)])
    union = block_union([sym, star])
    res = repro.reorder(union, transform="powerlaw")
    assert res.transform == "powerlaw"
    blocks = np.split(res.permutation, np.cumsum(res.component_sizes)[:-1])
    hub_first = np.argsort(plan_powerlaw(union).relabel)
    assert [set(b.tolist()) for b in blocks] == sorted(
        expected + [set(range(sym.n, union.n))],
        key=lambda c: hub_first[list(c)].min(),
    )


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_patterns(n):
    empty = CSRMatrix(
        indptr=np.zeros(n + 1, dtype=np.int64),
        indices=np.zeros(0, dtype=np.int64), n=n,
    )
    assert check_batch([empty]).tolist() == [0]
    assert connected_components(empty)[0] == n
    assert repro.reorder(empty).permutation.tolist() == list(range(n))


def test_import_repro_leaves_scipy_sparse_unloaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    assert out.stdout.strip() == "False"
