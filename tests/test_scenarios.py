"""Hostile-graph scenario battery: families x backends x floors x transform.

The paper's evaluation story lives or dies on graph shape: RCM recovers
banded structure beautifully on meshes and road networks and barely at
all on power-law graphs, and the speculative backends must stay
byte-identical to serial *everywhere*, not just on the friendly shapes.
This module is the cross product:

* the degree-distribution classifier maps every registered scenario to
  its declared family (both sizes — large rides the nightly ``-m slow``
  lane);
* every registered backend runs every scenario and returns a valid
  permutation byte-identical to the serial golden reference;
* the seeded-shuffle recovery on each scenario clears its family's
  committed floor (:data:`repro.matrices.scenarios.FAMILY_FLOORS`);
* the power-law transformation strictly shallows the giant component's
  BFS level structure on heavy-tailed families, is a perfect no-op on
  the rest, and keys the cache accordingly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro import backends
from repro.errors import ValidationError
from repro.facade import reorder, reorder_many
from repro.matrices.scenarios import (
    FAMILIES,
    FAMILY_FLOORS,
    SCENARIOS,
    classify,
    heavy_tailed,
    scenario_names,
    scenario_suite,
    shuffled,
)
from repro.core.transform import plan_powerlaw
from repro.service.keys import cache_key
from repro.sparse.bandwidth import bandwidth

#: the families whose giant-component level count the transform must cut
HEAVY_TAILED_FAMILIES = ("power-law", "hub-dominated")

SPEC_BY_NAME = {spec.name: spec for spec in SCENARIOS}
NAMES = sorted(SPEC_BY_NAME)

#: every registered backend, plus the resolver on top
ALL_METHODS = list(backends.names()) + ["auto"]


@lru_cache(maxsize=None)
def scenario(name: str, size: str = "small"):
    return SPEC_BY_NAME[name].build(size)


@lru_cache(maxsize=None)
def golden(name: str) -> bytes:
    """Serial RCM permutation on the untransformed scenario."""
    return reorder(scenario(name), method="serial").permutation.tobytes()


def assert_valid_permutation(perm: np.ndarray, n: int) -> None:
    assert perm.shape == (n,)
    assert np.array_equal(np.sort(perm), np.arange(n))


class TestRegistry:
    def test_every_family_is_covered(self):
        covered = {spec.family for spec in SCENARIOS}
        assert covered == set(FAMILIES)

    def test_every_family_has_a_floor(self):
        assert set(FAMILY_FLOORS) == set(FAMILIES)

    def test_names_are_unique_and_sorted_api(self):
        names = scenario_names()
        assert len(names) == len(set(names))
        assert set(names) == set(NAMES)

    def test_suite_builds_every_scenario(self):
        suite = scenario_suite("small")
        assert set(suite) == set(NAMES)
        for name, mat in suite.items():
            assert mat.n > 0
            assert mat.nnz > 0


class TestClassifier:
    @pytest.mark.parametrize("name", NAMES)
    def test_small_maps_to_declared_family(self, name):
        assert classify(scenario(name)) == SPEC_BY_NAME[name].family

    @pytest.mark.parametrize("name", NAMES)
    def test_heavy_tail_probe_agrees_with_family(self, name):
        family = SPEC_BY_NAME[name].family
        assert heavy_tailed(scenario(name)) == (
            family in HEAVY_TAILED_FAMILIES
        )

    @pytest.mark.parametrize(
        "name",
        [n for n in NAMES
         if SPEC_BY_NAME[n].family not in ("banded", "road-like")],
    )
    def test_degree_families_are_relabeling_invariant(self, name):
        # degree- and depth-rule families read structure, not numbering;
        # bandedness is *inherently* a labeling property (a shuffled band
        # is no longer banded) and the road/mesh split sits on a
        # start-sensitive depth probe, so those two are exempt
        mat = scenario(name)
        assert classify(shuffled(mat, seed=5)) == SPEC_BY_NAME[name].family

    def test_shuffled_band_loses_its_bandedness(self):
        # the flip side of the exemption above, pinned as intended
        assert classify(scenario("banded-thin")) == "banded"
        assert classify(shuffled(scenario("banded-thin"), seed=5)) != "banded"

    @pytest.mark.slow
    @pytest.mark.parametrize("name", NAMES)
    def test_large_maps_to_declared_family(self, name):
        assert classify(scenario(name, "large")) == SPEC_BY_NAME[name].family


class TestBackendBattery:
    """Every backend x every scenario: valid permutation, byte-identical
    to serial on the untransformed path.  When a backend diverges here,
    fix the backend — never widen the comparison."""

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_byte_identical_to_serial(self, name, method):
        mat = scenario(name)
        res = reorder(mat, method=method)
        assert_valid_permutation(res.permutation, mat.n)
        assert res.permutation.tobytes() == golden(name)
        assert res.transform is None  # no transform requested -> none applied

    @pytest.mark.parametrize("name", NAMES)
    def test_reorder_many_matches_singles(self, name):
        (res,) = reorder_many([scenario(name)], method="serial")
        assert res.permutation.tobytes() == golden(name)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("method", ["vectorized", "parallel", "auto"])
    def test_large_byte_identical_to_serial(self, name, method):
        mat = scenario(name, "large")
        ref = reorder(mat, method="serial")
        got = reorder(mat, method=method)
        assert got.permutation.tobytes() == ref.permutation.tobytes()


class TestFamilyFloors:
    """Shuffle-then-recover: floors are phrased against a seeded random
    relabeling because several families (banded, road-like, grids) ship
    in near-optimal natural order where "reduction from natural" is
    meaningless or negative."""

    @pytest.mark.parametrize("name", NAMES)
    def test_recovery_clears_family_floor(self, name):
        spec = SPEC_BY_NAME[name]
        scrambled = shuffled(scenario(name))
        bw0 = bandwidth(scrambled)
        res = reorder(scrambled, method="serial")
        bw1 = bandwidth(scrambled.permute_symmetric(res.permutation))
        reduction = 1.0 - bw1 / bw0
        assert reduction >= FAMILY_FLOORS[spec.family], (
            f"{name} ({spec.family}) recovered only {reduction:.1%}, "
            f"floor is {FAMILY_FLOORS[spec.family]:.1%}"
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", NAMES)
    def test_large_recovery_clears_family_floor(self, name):
        spec = SPEC_BY_NAME[name]
        scrambled = shuffled(scenario(name, "large"))
        bw0 = bandwidth(scrambled)
        res = reorder(scrambled, method="serial")
        bw1 = bandwidth(scrambled.permute_symmetric(res.permutation))
        assert 1.0 - bw1 / bw0 >= FAMILY_FLOORS[spec.family]


class TestTransformSemantics:
    @pytest.mark.parametrize("name", NAMES)
    def test_auto_transform_noop_off_heavy_tail(self, name):
        """``transform="auto"`` must not perturb classical-path results."""
        family = SPEC_BY_NAME[name].family
        if family in HEAVY_TAILED_FAMILIES:
            pytest.skip("auto applies the pass on heavy-tailed families")
        res = reorder(scenario(name), method="serial", transform="auto")
        assert res.transform is None
        assert res.permutation.tobytes() == golden(name)

    @pytest.mark.parametrize(
        "name",
        [n for n in NAMES
         if SPEC_BY_NAME[n].family in HEAVY_TAILED_FAMILIES],
    )
    def test_transform_applies_on_heavy_tail(self, name):
        mat = scenario(name)
        res = reorder(mat, method="serial", transform="auto")
        assert res.transform == "powerlaw"
        assert_valid_permutation(res.permutation, mat.n)

    @pytest.mark.parametrize(
        "name",
        [n for n in NAMES
         if SPEC_BY_NAME[n].family in HEAVY_TAILED_FAMILIES],
    )
    def test_transform_shallows_giant_component(self, name):
        """The acceptance criterion: hub-first relabeling + hub start must
        strictly reduce the giant component's BFS level count."""
        from repro.sparse.graph import bfs_levels, connected_components

        def giant_levels(mat, pick):
            _, labels = connected_components(mat)
            giant = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
            valence = np.diff(mat.indptr)
            start = int(giant[pick(valence[giant])])
            return int(bfs_levels(mat, start)[giant].max()) + 1

        mat = scenario(name)
        plan = plan_powerlaw(mat)
        assert plan is not None
        plain = giant_levels(mat, np.argmin)
        transformed = giant_levels(
            mat.permute_symmetric(plan.relabel), np.argmax
        )
        assert transformed < plain

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_transformed_path_consistent_across_backends(self, method):
        """With the transform active, every backend must still agree with
        serial byte-for-byte — the pass happens *before* dispatch."""
        mat = scenario("powerlaw-rmat")
        ref = reorder(mat, method="serial", transform="powerlaw")
        got = reorder(mat, method=method, transform="powerlaw")
        assert got.transform == ref.transform == "powerlaw"
        assert got.permutation.tobytes() == ref.permutation.tobytes()

    def test_explicit_powerlaw_degrades_to_noop_on_mesh(self, medium_grid):
        res = reorder(medium_grid, method="serial", transform="powerlaw")
        plain = reorder(medium_grid, method="serial")
        assert res.transform is None  # no hubs pass the valence threshold
        assert res.permutation.tobytes() == plain.permutation.tobytes()

    def test_transform_rejects_explicit_int_start(self):
        with pytest.raises(ValidationError):
            reorder(
                scenario("powerlaw-rmat"), method="serial",
                transform="powerlaw", start=0,
            )

    def test_transform_rejects_non_rcm_algorithm(self, medium_grid):
        with pytest.raises(ValidationError):
            reorder(medium_grid, algorithm="sloan", transform="auto")

    def test_unknown_transform_rejected(self, medium_grid):
        with pytest.raises(ValidationError):
            reorder(medium_grid, transform="quantum")


class TestTransformCacheKeys:
    def test_applied_transform_changes_the_key(self):
        mat = scenario("powerlaw-rmat")
        plain = cache_key(mat)
        tf = cache_key(mat, transform="powerlaw")
        assert plain.digest != tf.digest
        assert plain.transform is None
        assert tf.transform == "powerlaw"

    def test_noop_transform_keeps_the_classical_key(self, medium_grid):
        plain = cache_key(medium_grid)
        tf = cache_key(medium_grid, transform="auto")
        assert plain.digest == tf.digest
        assert tf.transform is None

    def test_auto_resolves_like_explicit_on_heavy_tail(self):
        mat = scenario("hub-banded")
        auto = cache_key(mat, transform="auto")
        explicit = cache_key(mat, transform="powerlaw")
        assert auto.digest == explicit.digest
        assert auto.transform == "powerlaw"
