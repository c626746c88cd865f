"""The benchmark's contract file and the names the checkers share.

``BENCHMARK.json`` at the checkout root is the one place that lists the
metrics, their units, directions and bounds; the harness reads it rather
than repeat it.  Importing this loads nothing heavy, so the unpinned parent
can use it.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def units(kind: str) -> dict[str, str]:
    """``{metric name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in benchmark_json()[kind]}


#: Per-layer metrics that are exact counts: two runs of one seed must agree.
EXACT_COUNTS = (
    "core.inspector.tasks", "core.inspector.blocks", "dist.tile_store.shm_bytes",
    "dist.bservice.generated", "dist.bservice.hits", "dist.bservice.evictions",
    "dist.bservice.store_hits", "dist.comm.a_broadcast_bytes", "dist.comm.messages",
    "dist.pool.spawns", "serve.warm_hits", "store.bytes_written",
)

#: Counts that are exact for a given process tree only, reported but not gated:
#: the scatter and gather byte counts include pickled shared-memory segment
#: names, whose length follows the process id.  (``dist.comm.telemetry_bytes``
#: counts heartbeats sent every 0.25 s, so it follows the run's duration.)
NEAR_COUNTS = ("dist.comm.scatter_bytes", "dist.comm.gather_bytes")
