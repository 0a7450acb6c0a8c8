"""Scenario-family battery: per-family floors + transform level economics.

Measures one row per scenario family and asserts on it:

* ``bandwidth_reduction`` — the worst (smallest) RCM recovery across the
  family's registered scenarios, measured from a seeded random relabeling
  (:func:`repro.matrices.scenarios.shuffled` — families like ``banded``
  ship in near-optimal natural order, so floors are recovery floors); it
  must clear the family's floor in
  :data:`repro.matrices.scenarios.FAMILY_FLOORS`;
* ``levels_plain`` / ``levels_transformed`` — the giant component's BFS
  level count from the start each path uses (min-valence vs the
  power-law transform's hub start): the transform must never deepen the
  level structure and must strictly shallow it on the heavy-tailed
  families.

All numbers are structural permutation facts, so the asserts are immune
to host noise.  ``tests/test_scenarios.py`` enforces the same floors.
"""

from __future__ import annotations

import numpy as np

from repro.core.transform import plan_powerlaw
from repro.facade import reorder
from repro.matrices.scenarios import FAMILY_FLOORS, SCENARIOS, shuffled
from repro.sparse.bandwidth import bandwidth
from repro.sparse.graph import bfs_levels, connected_components

SIZE = "small"

#: the families whose level count the transform must strictly reduce
HEAVY_TAILED = ("power-law", "hub-dominated")


def _giant_levels(mat, *, hub_start: bool) -> int:
    """BFS level count of the largest component, from the start node the
    plain (min-valence) or transformed (hub / max-valence) path picks."""
    _, labels = connected_components(mat)
    giant = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    valence = np.diff(mat.indptr)
    pick = np.argmax if hub_start else np.argmin
    start = int(giant[pick(valence[giant])])
    return int(bfs_levels(mat, start)[giant].max()) + 1


def _family_rows() -> dict:
    rows: dict = {}
    for spec in SCENARIOS:
        mat = spec.build(SIZE)

        # recovery floor: scramble, reorder, compare to the scrambled bw
        scrambled = shuffled(mat)
        bw0 = bandwidth(scrambled)
        res = reorder(scrambled, method="serial")
        bw1 = bandwidth(scrambled.permute_symmetric(res.permutation))
        reduction = 1.0 - bw1 / bw0 if bw0 else 0.0

        # transform economics: giant-component level count, plain vs
        # hub-first (identical when the pass is a no-op on this shape)
        levels_plain = _giant_levels(mat, hub_start=False)
        plan = plan_powerlaw(mat)
        if plan is None:
            levels_transformed = levels_plain
        else:
            levels_transformed = _giant_levels(
                mat.permute_symmetric(plan.relabel), hub_start=True
            )

        row = rows.get(spec.family)
        if row is None or reduction < row["bandwidth_reduction"]:
            rows[spec.family] = {
                "scenario": spec.name,
                "bandwidth_reduction": reduction,
                "levels_plain": levels_plain,
                "levels_transformed": levels_transformed,
            }
    return rows


def test_scenario_family_battery(benchmark):
    # the benchmark fixture is what lets --benchmark-only run the asserts
    families = benchmark.pedantic(_family_rows, rounds=1, iterations=1)
    for family, row in sorted(families.items()):
        floor = FAMILY_FLOORS[family]
        assert row["bandwidth_reduction"] >= floor, (
            f"{family} recovery {row['bandwidth_reduction']:.1%} below its "
            f"floor {floor:.1%} ({row['scenario']})"
        )
        assert row["levels_transformed"] <= row["levels_plain"], (
            f"{family}: transform deepened the level structure "
            f"({row['levels_plain']} -> {row['levels_transformed']})"
        )
        if family in HEAVY_TAILED:
            assert row["levels_transformed"] < row["levels_plain"], (
                f"{family}: transform must strictly reduce the level "
                f"count ({row['levels_plain']} -> "
                f"{row['levels_transformed']} on {row['scenario']})"
            )
