"""The paper's contribution: serial, leveled, unordered and batch RCM.

Public entry point: :func:`repro.reorder` (see :mod:`repro.facade`).
"""

from repro.core.serial import cuthill_mckee, rcm_serial, serial_cycles
from repro.core.vectorized import cuthill_mckee_vectorized, rcm_vectorized
from repro.core.batches import BatchConfig
from repro.core.batch import BatchResult, run_batch_rcm
from repro.core.batch_gpu import run_batch_rcm_gpu, chunk_plan

__all__ = [
    "cuthill_mckee",
    "rcm_serial",
    "serial_cycles",
    "cuthill_mckee_vectorized",
    "rcm_vectorized",
    "BatchConfig",
    "BatchResult",
    "run_batch_rcm",
    "run_batch_rcm_gpu",
    "chunk_plan",
]
