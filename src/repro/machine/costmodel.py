"""Cycle-cost models for the simulated CPU and GPU.

Every stage of every RCM variant charges cycles through one of these models,
so the relative behaviour (serial vs leveled vs batch; CPU vs GPU) comes out
of one consistent set of knobs.  The constants are calibrated so that the
*shapes* of the paper's results hold (see EXPERIMENTS.md): batch overhead
makes tiny matrices slower than serial, atomics dominate Discover at low
thread counts, speculative sorting grows with thread count, GPU constant
overheads hurt small inputs while wide fronts amortize them.

Absolute milliseconds are produced via ``cycles / clock_ghz`` purely to give
familiar units; they are **not** comparable to the paper's testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "SerialCostModel",
    "CPUCostModel",
    "GPUCostModel",
    "SERIAL_CPU",
]


def _log2(k: int) -> float:
    return math.log2(k) if k > 1 else 1.0


@dataclass(frozen=True)
class SerialCostModel:
    """Costs of the single-threaded reference implementation (Alg. 1).

    The serial code has no atomics and excellent cache behaviour (the paper
    attributes CPU-RCM's edge over HSL to exactly that), so per-edge and
    per-node costs are low.
    """

    clock_ghz: float = 4.0
    cycles_per_node: float = 22.0
    cycles_per_edge: float = 9.0
    cycles_per_sorted_element: float = 7.0  # × log2(children of one parent)

    def node(self, degree: int) -> float:
        """Cycles to dequeue, scan and sort one node of the given degree."""
        return (
            self.cycles_per_node
            + degree * self.cycles_per_edge
            + degree * self.cycles_per_sorted_element * _log2(max(degree, 2))
        )

    def run(self, n_nodes: int, n_edges: int, sort_cost: float) -> float:
        """Cycles of a whole serial traversal given aggregate work counts."""
        return (
            n_nodes * self.cycles_per_node
            + n_edges * self.cycles_per_edge
            + sort_cost
        )


#: default serial model shared by baselines
SERIAL_CPU = SerialCostModel()


@dataclass(frozen=True)
class CPUCostModel:
    """Per-stage costs for one CPU thread running batch RCM.

    ``contention(active)`` scales atomic and queue costs with the number of
    concurrently active workers — the simulator passes the live worker count
    so memory-bus interference grows with parallelism, which is what makes
    speculative over-parallelization *reduce* performance on narrow graphs
    (the diagonal pattern in the paper's Fig. 5b).
    """

    clock_ghz: float = 4.0
    # --- queue / batch management ------------------------------------
    fetch_cycles: float = 260.0          # dequeue attempt (lock + cursor)
    batch_setup_cycles: float = 180.0    # load range, init scratch arrays
    enqueue_cycles: float = 240.0        # per generated batch (queue write)
    # --- discovery -----------------------------------------------------
    discover_parent_cycles: float = 26.0
    discover_edge_cycles: float = 11.0
    atomic_cycles: float = 21.0          # atomicMin per probed edge
    found_node_cycles: float = 9.0       # valence fetch + scratch store
    # --- sorting --------------------------------------------------------
    sort_element_cycles: float = 7.5     # × log2(segment)
    # --- rediscovery -----------------------------------------------------
    rediscover_element_cycles: float = 4.0   # plain read + local mark
    # --- signaling --------------------------------------------------------
    signal_read_cycles: float = 24.0
    signal_send_cycles: float = 42.0
    count_batches_cycles: float = 90.0   # plan/estimate child batches
    # --- output ------------------------------------------------------------
    output_node_cycles: float = 7.0
    # --- contention ----------------------------------------------------------
    # Calibrated against the paper's Fig. 6: total compute cycles per thread
    # inflate ≈1.3-1.5× from 1 to 24 threads (the rest of the growth is
    # stall), so the atomic interference slope is gentle.
    contention_slope: float = 0.02       # per extra active worker on atomics
    queue_contention_slope: float = 0.12  # queue ops serialize harder
    # --- architecture ----------------------------------------------------
    temp_limit: int = 4096               # scratch capacity (children/batch)
    supports_temp_overflow: bool = True  # CPU can extend scratch (Sec. IV-C)

    def contention(self, active: int) -> float:
        """Atomic-cost multiplier given concurrently active workers."""
        return 1.0 + self.contention_slope * max(active - 1, 0)

    def queue_contention(self, active: int) -> float:
        """Queue-operation multiplier (serializes harder than atomics)."""
        return 1.0 + self.queue_contention_slope * max(active - 1, 0)

    # ------------------------------------------------------------------
    def fetch(self, active: int) -> float:
        """Dequeue-attempt cost (lock + cursor), contention scaled."""
        return self.fetch_cycles * self.queue_contention(active)

    def batch_setup(self, n_parents: int) -> float:
        """Per-batch initialization: load range, init scratch arrays."""
        return self.batch_setup_cycles + 2.0 * n_parents

    def discover(self, n_parents: int, n_edges: int, n_found: int, active: int) -> float:
        """Speculative discovery: adjacency scan + atomicMin marking."""
        c = self.contention(active)
        return (
            n_parents * self.discover_parent_cycles
            + n_edges * (self.discover_edge_cycles + self.atomic_cycles * c)
            + n_found * self.found_node_cycles
        )

    def sort(self, k: int) -> float:
        """Stable (parent, valence) sort of k speculative children."""
        if k <= 1:
            return 12.0
        return k * self.sort_element_cycles * _log2(k) + 40.0

    def rediscover(self, k: int) -> float:
        """Re-check k stored marks against earlier batches."""
        return 30.0 + k * self.rediscover_element_cycles

    def signal_read(self) -> float:
        """Read the predecessor's signal slot."""
        return self.signal_read_cycles

    def signal_send(self) -> float:
        """Raise the outgoing signal slot."""
        return self.signal_send_cycles

    def count_batches(self, k: int) -> float:
        """signalCount bookkeeping: estimate/plan child batches."""
        return self.count_batches_cycles + 0.5 * k

    def output_write(self, k: int) -> float:
        """Write k confirmed nodes to the permutation array."""
        return 60.0 + k * self.output_node_cycles

    def add_batches(self, k_batches: int, active: int) -> float:
        """Enqueue k generated batches, contention scaled."""
        return 40.0 + k_batches * self.enqueue_cycles * self.queue_contention(active)


@dataclass(frozen=True)
class GPUCostModel:
    """Per-stage costs for one GPU thread-block running batch RCM.

    A *worker* is a cooperative thread array; per-element work divides by the
    (coalescing-adjusted) thread count, while constant overheads — queue
    polling over global memory, signal propagation, block scheduling — are
    much larger than on the CPU.  That is exactly the paper's trade-off: the
    TITAN V loses badly on tiny matrices and wins once fronts are wide.
    """

    clock_ghz: float = 1.4
    block_threads: int = 256
    n_sms: int = 80                     # TITAN V
    blocks_per_sm: int = 2
    # --- queue / batch management (global-memory ring buffer) ----------
    fetch_cycles: float = 900.0
    batch_setup_cycles: float = 500.0
    enqueue_cycles: float = 260.0
    empty_batch_discard_cycles: float = 350.0
    # --- discovery -------------------------------------------------------
    discover_parent_cycles: float = 18.0     # offset load, one thread/parent
    discover_edge_cycles: float = 3.2        # coalesced global load / thread
    atomic_cycles: float = 9.0               # global atomicMin / thread
    found_node_cycles: float = 2.5           # scratch append via atomicAdd
    # --- sorting (CUB-like radix in scratchpad) ---------------------------
    sort_element_cycles: float = 2.2
    sort_pass_overhead: float = 450.0
    # --- rediscovery --------------------------------------------------------
    rediscover_element_cycles: float = 1.2
    # --- signaling ------------------------------------------------------------
    signal_read_cycles: float = 380.0        # non-cached global read + poll
    signal_send_cycles: float = 300.0
    count_batches_cycles: float = 320.0      # prefix sums over scratch
    # --- output ------------------------------------------------------------
    output_node_cycles: float = 1.8
    output_overhead_cycles: float = 260.0
    # --- histogram chunking (Sec. V-B) --------------------------------------
    histogram_cycles: float = 600.0
    chunk_pass_cycles: float = 700.0
    # --- contention -----------------------------------------------------------
    contention_slope: float = 0.004          # atomics across many blocks
    queue_contention_slope: float = 0.02
    # --- architecture -----------------------------------------------------------
    temp_limit: int = 1024                   # scratchpad elements per block
    supports_temp_overflow: bool = False     # must chunk instead (Sec. V-B)
    histogram_bins: int = 128

    @property
    def max_workers(self) -> int:
        return self.n_sms * self.blocks_per_sm

    def contention(self, active: int) -> float:
        """Atomic-cost multiplier across concurrently resident blocks."""
        return 1.0 + self.contention_slope * max(active - 1, 0)

    def queue_contention(self, active: int) -> float:
        """Ring-buffer contention multiplier for global-memory queue ops."""
        return 1.0 + self.queue_contention_slope * max(active - 1, 0)

    # ------------------------------------------------------------------
    def fetch(self, active: int) -> float:
        """Ring-buffer poll over global memory, contention scaled."""
        return self.fetch_cycles * self.queue_contention(active)

    def batch_setup(self, n_parents: int) -> float:
        """Block-leader setup: batch pointers via global memory."""
        return self.batch_setup_cycles + 1.0 * n_parents

    def _threads_per_parent(self, max_children: int) -> int:
        """Last power of two below the max child count (Sec. V-A)."""
        if max_children <= 1:
            return 1
        return 1 << min(int(math.log2(max_children)), int(math.log2(self.block_threads)))

    def discover(
        self,
        n_parents: int,
        n_edges: int,
        n_found: int,
        active: int,
        *,
        max_children: int = 0,
    ) -> float:
        """Block-parallel discovery with per-parent thread assignment."""
        c = self.contention(active)
        tpp = self._threads_per_parent(max_children or (n_edges // max(n_parents, 1) + 1))
        parents_in_flight = max(self.block_threads // tpp, 1)
        # rounds of parent processing across the block
        rounds = math.ceil(n_parents / parents_in_flight) if n_parents else 0
        per_round_edges = n_edges / max(rounds, 1) if rounds else 0
        edge_cycles = (
            rounds
            * math.ceil(per_round_edges / max(parents_in_flight * tpp, 1))
            * (self.discover_edge_cycles + self.atomic_cycles * c)
            * 16.0
        )
        return (
            n_parents * self.discover_parent_cycles
            + edge_cycles
            + math.ceil(n_found / self.block_threads) * self.found_node_cycles * 24.0
        )

    def sort(self, k: int) -> float:
        """CUB-style radix sort over (parent id, valence) in scratchpad."""
        if k <= 1:
            return 60.0
        passes = 4  # radix over (parent id, valence) key
        per_thread = math.ceil(k / self.block_threads)
        return passes * (self.sort_pass_overhead + per_thread * self.sort_element_cycles * 48.0)

    def rediscover(self, k: int) -> float:
        """Block-parallel re-check of k stored marks."""
        return 120.0 + math.ceil(k / self.block_threads) * self.rediscover_element_cycles * 40.0

    def signal_read(self) -> float:
        """Non-cached global read of the predecessor's signal."""
        return self.signal_read_cycles

    def signal_send(self) -> float:
        """Non-cached global write of the outgoing signal."""
        return self.signal_send_cycles

    def count_batches(self, k: int) -> float:
        """Prefix sums over scratch for counts and batch bounds."""
        return self.count_batches_cycles + math.ceil(k / self.block_threads) * 30.0

    def output_write(self, k: int) -> float:
        """Coalesced write of k confirmed nodes."""
        return self.output_overhead_cycles + math.ceil(k / self.block_threads) * self.output_node_cycles * 30.0

    def add_batches(self, k_batches: int, active: int) -> float:
        """Ring-buffer pushes for k generated batches."""
        return 120.0 + k_batches * self.enqueue_cycles * self.queue_contention(active)

    def histogram(self, k: int) -> float:
        """Valence histogram pass (scratchpad-overflow chunking)."""
        return self.histogram_cycles + math.ceil(k / self.block_threads) * 20.0

    def chunk_pass(self, k: int) -> float:
        """One scratch-sized chunk of an oversized single parent."""
        return self.chunk_pass_cycles + math.ceil(k / self.block_threads) * 40.0
