"""Sparse-matrix substrate: CSR storage, graph view, bandwidth metrics, IO.

This subpackage is the foundation every RCM variant builds on.  Matrices are
stored in compressed sparse row (CSR) form — exactly the representation the
paper assumes ("an offset array pointing to the start of each row and an
index array capturing the destination node of each adjacency").
"""

from repro.sparse.csr import CSRMatrix, coo_to_csr
from repro.sparse.bandwidth import (
    bandwidth,
    envelope_size,
    profile,
    rms_wavefront,
    max_wavefront,
)
from repro.sparse.graph import (
    bfs_levels,
    bfs_order,
    connected_components,
    component_of,
    front_statistics,
    eccentricity_lower_bound,
)
from repro.sparse.io import (
    read_matrix_market,
    write_matrix_market,
    save_npz,
    load_npz,
)
from repro.sparse.hb import read_harwell_boeing
from repro.sparse.spy import spy, side_by_side
from repro.sparse.validate import check_batch, is_structurally_symmetric

__all__ = [
    "CSRMatrix",
    "coo_to_csr",
    "bandwidth",
    "envelope_size",
    "profile",
    "rms_wavefront",
    "max_wavefront",
    "bfs_levels",
    "bfs_order",
    "connected_components",
    "component_of",
    "front_statistics",
    "eccentricity_lower_bound",
    "read_matrix_market",
    "write_matrix_market",
    "save_npz",
    "load_npz",
    "read_harwell_boeing",
    "spy",
    "side_by_side",
    "check_batch",
    "is_structurally_symmetric",
]
