"""``[M]`` microbenchmarks: one public function per layer, on this workload's tiles.

Each returns plain numbers; the child folds them into the per-layer
metrics.  They exist so that a regression names its layer without a trace,
and so that achieved rates stand next to a peak measured in the same run.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import statistics
import tempfile
import time

import numpy as np

from repro.dist import COORDINATOR, BService, CommLayer, TileArena, WorkerPool
from repro.runtime.numeric import block_cols_of_k
from repro.store import TileStore, encode_tile

from host import llc_bytes, mp_start_method

MIB = float(1 << 20)


def median_seconds(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def blas_peak_gflops(n: int) -> float:
    """One large single-thread dgemm: the peak the GEMM stream is held against."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    out = np.empty((n, n))
    np.matmul(x, y, out=out)  # first call loads and warms the BLAS kernels
    return 2.0 * n**3 / median_seconds(lambda: np.matmul(x, y, out=out), 3) / 1e9


def blas_floor_s(plan, a, b_matrix) -> float:
    """Bare ``np.matmul`` over the plan's own tile pairs, in plan order.

    The same tiles and the same products as the serial executor, without
    the executor: what is left when every line of Python around the GEMM
    is free.
    """
    pairs = []
    for proc in plan.procs:
        for block in proc.blocks:
            cols_of_k = block_cols_of_k(block, plan.b_shape.csr)
            for chunk in block.chunks:
                for i, k in zip(chunk.a_rows.tolist(), chunk.a_cols.tolist()):
                    a_tile = a.get_tile(i, k)
                    pairs.extend((a_tile, b_matrix.get_tile(k, j)) for j in cols_of_k[k])
    if len(pairs) != plan.total_tasks:
        raise RuntimeError(f"enumerated {len(pairs)} tasks, plan has {plan.total_tasks}")

    def loop():
        for x, y in pairs:
            np.matmul(x, y)

    return median_seconds(loop, 2)


def arena_gbps(matrices) -> tuple[float, float]:
    """``TileArena.pack`` of each matrix, then ``attach`` + ``read`` of every tile."""
    arenas = []
    try:
        t0 = time.perf_counter()
        for tag, matrix in matrices:
            arenas.append(TileArena.pack(tag, matrix.items()))
        pack_s = time.perf_counter() - t0
        nbytes = sum(arena.used_bytes for arena in arenas)
        t0 = time.perf_counter()
        for arena in arenas:
            attached = TileArena.attach(arena.meta())
            for entry in attached.index.values():
                attached.read(entry)
            attached.close()
        read_s = time.perf_counter() - t0
    finally:
        for arena in arenas:
            arena.unlink()
    return nbytes / pack_s / 1e9, nbytes / read_s / 1e9


def mem_copy(smoke: bool) -> dict[str, float]:
    """Plain ``np.copyto`` between arrays of at least 4x the last-level cache."""
    llc = llc_bytes()
    nbytes = (8 << 20) if smoke else max(4 * llc, 64 << 20)
    src = np.ones(nbytes // 8)
    dst = np.zeros(nbytes // 8)  # both arrays touched before timing
    seconds = median_seconds(lambda: np.copyto(dst, src), 3)
    return {
        "mem.copy_gbps": src.nbytes / seconds / 1e9,
        "mem.copy_array_mib": src.nbytes / MIB,
        "mem.llc_mib": llc / MIB,
    }


def bservice_us(collection, budget_bytes: int, ntiles: int = 64) -> tuple[float, float]:
    """``BService.tile`` on a resident tile (hit) and an absent one (miss), in us."""
    service = BService(collection.empty_clone(), budget_bytes=budget_bytes)
    rows, cols = collection.shape.nonzero_tiles()
    keys = list(zip(rows.tolist()[:ntiles], cols.tolist()[:ntiles]))

    def per_tile_us() -> float:
        samples = []
        for k, j in keys:
            t0 = time.perf_counter()
            service.tile(0, k, j)
            samples.append(time.perf_counter() - t0)
        return 1e6 * statistics.median(samples)

    miss_us = per_tile_us()
    return per_tile_us(), miss_us


def comm_roundtrip_us(reps: int = 200) -> float:
    """``Endpoint.send``/``recv`` coordinator -> rank -> coordinator, in process."""
    comm = CommLayer(1, mp.get_context(mp_start_method()))
    coord, rank = comm.endpoint(COORDINATOR), comm.endpoint(0)
    samples = []
    try:
        for i in range(reps):
            t0 = time.perf_counter()
            coord.send(0, ("ping", i))
            rank.recv(timeout=5.0)
            rank.send(COORDINATOR, ("pong", i))
            coord.recv(timeout=5.0)
            samples.append(time.perf_counter() - t0)
    finally:
        comm.close()
    return 1e6 * statistics.median(samples)


def pool_start_s(reps: int = 3) -> float:
    """``WorkerPool(2).start()`` until both ranks are alive."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        pool = WorkerPool(2)
        try:
            pool.start()
            while pool.alive_ranks() != [0, 1]:
                time.sleep(0.0005)
            samples.append(time.perf_counter() - t0)
        finally:
            pool.close()
    return statistics.median(samples)


def store_rates(b_matrix, tmp_root: str, budget_bytes: int) -> dict[str, float]:
    """``TileStore`` put / get and the codec alone, on this workload's B tiles."""
    tiles, total = [], 0
    for key, arr in b_matrix.items():
        tiles.append((key, arr))
        total += arr.nbytes
        if total >= budget_bytes:
            break
    root = tempfile.mkdtemp(dir=tmp_root)
    store = TileStore(root)
    try:
        t0 = time.perf_counter()
        for key, arr in tiles:
            store.put("bench", key, arr)
        put_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for key, _ in tiles:
            np.array(store.get("bench", key))  # the view is lazy: copy to read
        get_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for key, arr in tiles:
            encode_tile("bench", key, arr)
        encode_s = time.perf_counter() - t0
        written = store.stats().bytes_written
    finally:
        store.close()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "store.put_mbps": total / put_s / 1e6,
        "store.get_mbps": total / get_s / 1e6,
        "store.codec.encode_mbps": total / encode_s / 1e6,
        "store.bytes_written": float(written),
    }
