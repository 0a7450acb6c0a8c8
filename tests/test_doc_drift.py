"""Guards against doc drift around the backend registry and algorithm list.

The execution-backend registry (:mod:`repro.backends`) and
``repro.facade.ALGORITHMS`` are the single source of truth for
execution-method and algorithm names.  Everything else — the facade
docstring (built by ``__doc__.format`` from
:func:`repro.validation.choices_text`), validation error messages, the CLI
``choices``, the cache-key method field, the generated capability table in
``docs/api.md`` and the cross-links from README/``docs/service.md`` — must
follow them.  Adding a method without updating the docs fails here, not in
a user's terminal; a hand-written method list anywhere in ``src/repro``
fails the AST guard (``tools/check_method_literals.py``) that runs both
here and as a CI step.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro.facade as facade
from repro import backends
from repro.facade import ALGORITHMS, reorder
from repro.validation import choices_text

REPO = Path(__file__).resolve().parents[1]
DOCS = REPO / "docs"
METHODS = backends.names()


class TestDocstringSingleSourcing:
    def test_facade_doc_lists_every_algorithm(self):
        for name in ALGORITHMS:
            assert repr(name) in facade.__doc__, (
                f"facade docstring is missing algorithm {name!r}; it is "
                "generated from ALGORITHMS via __doc__.format — check the "
                "{algorithms} placeholder"
            )

    def test_facade_doc_lists_every_method(self):
        for name in METHODS:
            assert repr(name) in facade.__doc__, (
                f"facade docstring is missing method {name!r}"
            )

    def test_facade_doc_embeds_registry_choices_verbatim(self):
        # the {methods} placeholder expands to choices_text over the
        # registry — the exact string, not a paraphrase
        assert choices_text(backends.names()) in facade.__doc__

    def test_no_unexpanded_placeholders(self):
        assert "{algorithms}" not in facade.__doc__
        assert "{methods}" not in facade.__doc__

    def test_choices_text_shape(self):
        assert choices_text(("a", "b")) == "'a', 'b'"


class TestErrorMessagesDerivedFromRegistry:
    def test_bad_algorithm_lists_all(self, small_grid):
        with pytest.raises(ValueError) as exc:
            reorder(small_grid, algorithm="nope")
        for name in ALGORITHMS:
            assert repr(name) in str(exc.value)

    def test_bad_method_lists_all(self, small_grid):
        with pytest.raises(ValueError) as exc:
            reorder(small_grid, method="nope")
        for name in backends.method_choices():
            assert repr(name) in str(exc.value)


class TestCliDerivesFromRegistry:
    def test_reorder_parser_choices(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._subparsers._group_actions
        ).choices["reorder"]
        by_dest = {a.dest: a for a in sub._actions}
        assert set(by_dest["algorithm"].choices) == set(ALGORITHMS)
        assert tuple(by_dest["method"].choices) == backends.method_choices()

    def test_profile_and_serve_share_the_registry_choices(self):
        from repro.cli import build_parser

        parser = build_parser()
        subs = next(a for a in parser._subparsers._group_actions).choices
        for command in ("profile", "serve"):
            method_action = next(
                a for a in subs[command]._actions if a.dest == "method"
            )
            assert tuple(method_action.choices) == backends.method_choices()


class TestCacheKeyDerivesFromRegistry:
    def test_key_method_field_accepts_every_backend(self, small_grid):
        from repro.service.keys import cache_key

        for name in METHODS:
            key = cache_key(small_grid, method=name)
            assert key.method == name

    def test_auto_canonicalizes_to_a_registered_backend(self, small_grid):
        from repro.service.keys import cache_key, canonical_method

        key = cache_key(small_grid, method="auto")
        assert backends.is_registered(key.method)
        assert key.method == canonical_method("rcm", "auto")

    def test_unknown_method_never_reaches_the_digest(self, small_grid):
        from repro.service.keys import cache_key

        with pytest.raises(ValueError, match="method must be one of"):
            cache_key(small_grid, method="quantum")


class TestProseDocs:
    @pytest.mark.parametrize("name", sorted(set(ALGORITHMS) | set(METHODS)))
    def test_api_md_mentions_every_name(self, name):
        text = (DOCS / "api.md").read_text()
        assert name in text, (
            f"docs/api.md does not mention {name!r}; regenerate the backend "
            "capability table with `python -m repro backends`"
        )

    def test_api_md_embeds_generated_capability_table(self):
        # the table in docs/api.md is the verbatim output of
        # `python -m repro backends`; regenerate on any registry change
        text = (DOCS / "api.md").read_text()
        assert backends.capability_table() in text, (
            "docs/api.md capability table is stale; replace it with the "
            "output of `python -m repro backends`"
        )

    def test_readme_and_service_md_cross_link_the_table(self):
        anchor = "api.md#rcm-execution-backends"
        assert anchor in (REPO / "README.md").read_text()
        assert anchor in (DOCS / "service.md").read_text()

    def test_observability_md_embeds_generated_metric_inventory(self):
        # the inventory table in docs/observability.md is the verbatim
        # output of `python -m repro telemetry inventory`; regenerate it
        # whenever a metric family is added to METRIC_INVENTORY
        from repro.telemetry.prometheus import metric_inventory_table

        text = (DOCS / "observability.md").read_text()
        assert metric_inventory_table() in text, (
            "docs/observability.md metric inventory is stale; replace it "
            "with the output of `python -m repro telemetry inventory`"
        )

    def test_observability_md_documents_the_trajectory_layer(self):
        # the per-request trajectory is `repro inspect`; the run-history
        # store and its static-baseline gate are gone, replaced by the
        # end-to-end benchmark, so no doc may still send readers to them
        assert "repro inspect" in (DOCS / "observability.md").read_text()
        docs = [REPO / "README.md", *sorted(DOCS.glob("*.md")),
                REPO / ".claude" / "skills" / "verify" / "SKILL.md"]
        for path in docs:
            text = path.read_text()
            for needle in (
                "repro telemetry ingest",
                "repro telemetry trend",
                "history.jsonl",
                "repro-history/v1",
                "check_regressions",
                "baselines.json",
            ):
                assert needle not in text, (
                    f"{path.relative_to(REPO)} still mentions removed "
                    f"{needle!r}"
                )

    def test_observability_md_names_every_default_slo(self):
        from repro.telemetry.slo import DEFAULT_SLOS

        text = (DOCS / "observability.md").read_text()
        for slo in DEFAULT_SLOS:
            assert slo.name in text, (
                f"docs/observability.md does not document SLO {slo.name!r}"
            )

    def test_api_md_documents_the_batch_api(self):
        # reorder_many / the shm transport / the removed entry points
        # shipped as one surface; docs/api.md must cover each piece
        text = (DOCS / "api.md").read_text()
        assert "REPRO_NO_SHM" not in text, (
            "docs/api.md still documents the removed REPRO_NO_SHM opt-out"
        )
        for needle in (
            "reorder_many",
            "AUTO_METHOD",
            "RemovedAPIError",
            "batch_window_ms",
        ):
            assert needle in text, (
                f"docs/api.md missing {needle!r}; see the 'Batch API' and "
                "'Migrating from the old entry points' sections"
            )

    @pytest.mark.parametrize("stale", [
        "cost_estimate", "REPRO_FLIGHT_PATH", "telemetry calibrate",
    ])
    def test_removed_auto_pricing_is_not_documented(self, stale):
        # method="auto" is a rule; its cost hooks, flight recorder and
        # calibration command are gone
        for path in [REPO / "README.md", *sorted(DOCS.glob("*.md"))]:
            assert stale not in path.read_text(), (
                f"{path.name} still documents the removed {stale!r}"
            )

    def test_api_md_lists_every_validation_message(self):
        from repro.sparse import validate

        text = (DOCS / "api.md").read_text()
        for message in (
            validate.DUPLICATE, validate.UNSORTED, validate.ASYMMETRIC,
        ):
            assert message in text, (
                f"docs/api.md missing {message!r}; see 'Malformed patterns'"
            )

    def test_api_md_batch_defaults_match_code(self):
        # the documented admission defaults are the ServiceConfig defaults
        from repro.service import ServiceConfig

        cfg = ServiceConfig()
        assert cfg.batch_window_ms == 0.0, (
            "batch_window_ms default changed; update docs/service.md "
            "('default `W=0`') and docs/api.md"
        )

    def test_service_md_documents_batched_admission(self):
        text = (DOCS / "service.md").read_text()
        for needle in (
            "## Batched admission",
            "batch_window_ms",
            "max_batch",
            "service.batch.size",
            "--batch-window-ms",
            "reorder_many",
        ):
            assert needle in text, (
                f"docs/service.md missing {needle!r}; see the "
                "'Batched admission' section"
            )

    def test_service_md_documents_sharded_deployment(self):
        """The retirement note: equal-memory numbers, the ``shards=``
        window and what happens to old ``shard-<i>/`` directories."""
        text = (DOCS / "service.md").read_text()
        for needle in (
            "## The asyncio front door",
            "## Sharded deployment (retired)",
            "| four shards × 128 | 512 | 0.82 s |",
            "warns `DeprecationWarning`",
            "`cache_capacity`",
            "ShardedService(cfg, shards=4)",
            "RemovedAPIError",
            "Old `shard-<i>/` directories are not read.",
            "repro serve --shards",
            "repro cache --shard",
        ):
            assert needle in text, (
                f"docs/service.md missing {needle!r}; see the "
                "'Sharded deployment (retired)' section"
            )
        # the ring, per-shard layout and per-shard telemetry are gone
        for stale in (
            "HashRing.route",
            "shard_index",
            "cache.n_shards",
            "--shard 2",
            "service_shard_",
            "healthy_shards",
            "queue_depths",
            "shard_balance",
            "shard_capacity_requests_per_s",
        ):
            assert stale not in text, (
                f"docs/service.md still documents removed {stale!r}"
            )

    def test_sharded_deployment_cross_links(self):
        anchor = "service.md#sharded-deployment-retired"
        assert anchor in (REPO / "README.md").read_text(), (
            "README.md must link the sharding retirement note"
        )
        assert anchor in (DOCS / "api.md").read_text(), (
            "docs/api.md must link the sharding retirement note"
        )

    def test_scenarios_md_names_every_family_and_scenario(self):
        from repro.matrices.scenarios import FAMILIES, scenario_names

        text = (DOCS / "scenarios.md").read_text()
        for family in FAMILIES:
            assert f"`{family}`" in text, (
                f"docs/scenarios.md does not document family {family!r}"
            )
        for name in scenario_names():
            assert f"`{name}`" in text, (
                f"docs/scenarios.md does not document scenario {name!r}"
            )

    def test_scenarios_md_floor_table_matches_code(self):
        # the floor table is the verbatim FAMILY_FLOORS mapping — a floor
        # change must ship with its doc row
        from repro.matrices.scenarios import FAMILY_FLOORS

        text = (DOCS / "scenarios.md").read_text()
        for family, floor in FAMILY_FLOORS.items():
            row = f"| `{family}` | {floor:.2f} |"
            assert row in text, (
                f"docs/scenarios.md floor table is stale for {family!r}: "
                f"expected row {row!r}"
            )

    def test_scenarios_md_documents_the_transform_surface(self):
        from repro.core.transform import (
            HUB_DEGREE_FACTOR, HUB_MIN_DEGREE, TRANSFORMS,
        )

        text = (DOCS / "scenarios.md").read_text()
        for choice in TRANSFORMS:
            assert f'transform="{choice}"' in text, (
                f"docs/scenarios.md missing transform choice {choice!r}"
            )
        threshold = f"max({HUB_DEGREE_FACTOR:.0f} x mean, {HUB_MIN_DEGREE})"
        assert threshold in text, (
            "docs/scenarios.md hub threshold is stale; expected "
            f"{threshold!r} (from repro.core.transform)"
        )
        for needle in (
            "transform=None",
            "tf:powerlaw",
            "--transform",
            "bench_scenarios.py",
            "tests/test_scenarios.py",
        ):
            assert needle in text, f"docs/scenarios.md missing {needle!r}"

    def test_readme_cross_links_the_scenario_doc(self):
        assert "docs/scenarios.md" in (REPO / "README.md").read_text()

    def test_observability_md_documents_the_profiler(self):
        # the sampling profiler + critical-path analyzer shipped as one
        # surface; the doc must cover the sampler design, both CLI and
        # HTTP endpoints, and the enforced overhead budget
        text = (DOCS / "observability.md").read_text()
        for needle in (
            "## Continuous profiling",
            "## Critical path & what-if",
            "sys._current_frames",
            "repro telemetry critpath",
            "/debug/flame",
            "/debug/critpath",
            "--profile",
            "telemetry.profiler.overhead_pct",
            "MAX_PROFILER_OVERHEAD_PCT",
        ):
            assert needle in text, (
                f"docs/observability.md missing {needle!r}; see the "
                "'Continuous profiling' / 'Critical path & what-if' "
                "sections"
            )
        # speedscope.app opens the --flame file; the JSON exporter is gone
        for doc in (DOCS / "observability.md", REPO / "README.md"):
            assert "--speedscope" not in doc.read_text(), (
                f"{doc.name} still documents the removed --speedscope flag"
            )

    def test_profiler_overhead_budget_doc_matches_gate(self):
        # the documented budget is the bench gate's constant (parsed from
        # source: benchmarks/ is not an importable package)
        import re

        source = (REPO / "benchmarks" / "bench_service.py").read_text()
        match = re.search(
            r"^MAX_PROFILER_OVERHEAD_PCT\s*=\s*([\d.]+)", source, re.M
        )
        assert match, "bench_service.py lost MAX_PROFILER_OVERHEAD_PCT"
        budget = float(match.group(1))
        text = (DOCS / "observability.md").read_text()
        assert f"{budget:.0f}%" in text, (
            "docs/observability.md overhead budget is stale; expected "
            f"'{budget:.0f}%' (from benchmarks/bench_service.py "
            "MAX_PROFILER_OVERHEAD_PCT)"
        )

    def test_profiling_cross_links(self):
        readme = (REPO / "README.md").read_text()
        for anchor in (
            "observability.md#continuous-profiling",
            "observability.md#critical-path--what-if",
        ):
            assert anchor in readme, (
                f"README.md must link {anchor!r} from the Profiling section"
            )

    def test_service_doc_exists_and_mentions_counters(self):
        text = (DOCS / "service.md").read_text()
        for counter in (
            "service.cache.hits",
            "service.cache.misses",
            "service.cache.evictions",
            "service.coalesced",
            "service.queue.depth",
        ):
            assert counter in text, f"docs/service.md missing {counter}"


class TestNoLiteralMethodTuples:
    """The CI guard, exercised from the test suite as well."""

    def test_guard_passes_on_the_tree(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_method_literals.py")],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_guard_actually_detects_violations(self):
        import ast
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_method_literals",
            REPO / "tools" / "check_method_literals.py",
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)

        methods = frozenset(backends.names())
        flagged = tool.find_violations(
            ast.parse("CHAIN = ('vectorized', 'serial')"), methods
        )
        assert flagged == [(1, ("vectorized", "serial"))]
        # non-method tuples and single names stay legal
        assert not tool.find_violations(
            ast.parse("X = ('auto', 'direct')\nY = 'serial'"), methods
        )
