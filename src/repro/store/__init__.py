"""Persistent tile store and checkpoint/resume (the out-of-core layer).

Two services live here, both backed by the same content-addressed on-disk
object store:

* a **persistent B-tile cache tier** — :class:`TileStore` sits between the
  B-service's in-memory LRU and the generator, so tiles generated in one
  run (or by one rank) are reused by later runs and by other ranks sharing
  a filesystem;
* **checkpoint/resume** — :class:`WritebackJournal` plus coordinator
  snapshots make ``psgemm_distributed(checkpoint_dir=...)`` survivable: a
  run killed at any instant resumes bit-for-bit identical to an
  uninterrupted serial run, recomputing only unjournaled blocks.

See ``docs/architecture.md`` ("Persistent storage & checkpointing") for
the object format, journal protocol, and resume walk-through.
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
    CompletedBlock,
    WritebackJournal,
    b_fingerprint,
    ckpt_namespace,
    ckpt_tile_key,
    journal_path,
    plan_fingerprint,
    read_journal,
    read_snapshot,
    run_fingerprint,
    validated_completed_blocks,
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
    "CompletedBlock",
    "ObjectInfo",
    "StoreStats",
    "TileStore",
    "WritebackJournal",
    "b_fingerprint",
    "ckpt_namespace",
    "ckpt_tile_key",
    "decode_tile",
    "encode_tile",
    "journal_path",
    "map_tile",
    "object_digest",
    "plan_fingerprint",
    "read_header",
    "read_journal",
    "read_snapshot",
    "read_store_stats",
    "run_fingerprint",
    "validated_completed_blocks",
    "write_snapshot",
]
