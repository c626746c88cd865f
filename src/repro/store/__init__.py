"""Persistent tile store and checkpoint/resume (the out-of-core layer).

Two services live here, both writing :mod:`repro.store.codec` objects:

* a **persistent B-tile cache tier** — :class:`TileStore` sits between the
  B-service's in-memory LRU and the generator, so tiles generated in one
  run (or by one rank) are reused by later runs and by other ranks sharing
  a filesystem.  It holds B tiles only;
* **checkpoint/resume** — one block file per finished block
  (:func:`commit_block`) plus the coordinator snapshot make
  ``psgemm_distributed(checkpoint_dir=...)`` survivable: a run killed at
  any instant resumes bit-for-bit identical to an uninterrupted serial
  run, recomputing only blocks with no intact file.

See ``docs/architecture.md`` ("Persistent storage & checkpointing") for
the object format, the block-file commit, and a resume walk-through.
"""

from repro.store.codec import (
    ALIGN,
    MAGIC,
    CodecError,
    decode_tile,
    encode_tile,
    map_tile,
    read_header,
)
from repro.store.journal import (
    a_fingerprint,
    b_fingerprint,
    block_path,
    commit_block,
    completed_blocks,
    plan_fingerprint,
    read_block,
    read_snapshot,
    run_fingerprint,
    write_snapshot,
)
from repro.store.tilestore import (
    ObjectInfo,
    StoreStats,
    TileStore,
    object_digest,
    read_store_stats,
)

__all__ = [
    "ALIGN",
    "MAGIC",
    "CodecError",
    "ObjectInfo",
    "StoreStats",
    "TileStore",
    "a_fingerprint",
    "b_fingerprint",
    "block_path",
    "commit_block",
    "completed_blocks",
    "decode_tile",
    "encode_tile",
    "map_tile",
    "object_digest",
    "plan_fingerprint",
    "read_block",
    "read_header",
    "read_snapshot",
    "read_store_stats",
    "run_fingerprint",
    "write_snapshot",
]
