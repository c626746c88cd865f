"""The paper's contribution: the irregular block-sparse GEMM algorithm.

``C <- C + A @ B`` on a ``p x q`` process grid with stationary, replicated
``B`` (Section 3 of the paper):

* :mod:`~repro.core.grid` — process grid, A slicing, 2D-cyclic ownership;
* :mod:`~repro.core.column_assignment` — flop-sorted mirrored-cyclic
  dealing of B columns to the ``q`` processors of a grid row (3.2.1);
* :mod:`~repro.core.block_partition` — worst-fit packing of columns into
  half-GPU-memory blocks (3.2.2);
* :mod:`~repro.core.chunking` — greedy cyclic segmentation of A tiles into
  quarter-GPU-memory chunks with prefetch double-buffering (3.2.3);
* :mod:`~repro.core.inspector` — the inspector that turns shapes into an
  :class:`~repro.core.plan.ExecutionPlan` (the PTG input of Section 4);
* :mod:`~repro.core.comm_model` — exact communication volumes (3.2.4);
* :mod:`~repro.core.analytic` — the vectorized coarse performance model
  that prices a plan on a machine (used for every paper-scale figure);
* :mod:`~repro.core.psgemm` — the user-facing plan/execute/simulate API;
* :mod:`~repro.core.autotune` — the grid-rows (``p``) trade-off tuner.
"""

from repro.core.grid import ProcessGrid, make_grid
from repro.core.plan import Block, Chunk, ExecutionPlan, PlanOptions, ProcPlan
from repro.core.column_assignment import assign_columns
from repro.core.block_partition import partition_columns_into_blocks
from repro.core.inspector import inspect
from repro.core.comm_model import CommReport, communication_volumes
from repro.core.analytic import SimReport, simulate
from repro.core.psgemm import psgemm_distributed, psgemm_numeric, psgemm_plan, psgemm_simulate
from repro.core.autotune import tune_grid_rows

__all__ = [
    "ProcessGrid",
    "make_grid",
    "Block",
    "Chunk",
    "ExecutionPlan",
    "PlanOptions",
    "ProcPlan",
    "assign_columns",
    "partition_columns_into_blocks",
    "inspect",
    "CommReport",
    "communication_volumes",
    "SimReport",
    "simulate",
    "psgemm_plan",
    "psgemm_distributed",
    "psgemm_numeric",
    "psgemm_simulate",
    "tune_grid_rows",
]
