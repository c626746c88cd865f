"""Coarse (vectorized) performance model: price a plan on a machine.

This is the model behind every paper-scale figure.  It walks the plan at
chunk granularity — never at task granularity — and composes the machine
models:

* per GPU: for each of its blocks, a blocking B/C host->device load, then
  the chunk pipeline with double buffering (chunk ``i+1``'s A transfer
  overlaps chunk ``i``'s GEMMs, as the 25 %+25 % memory split guarantees),
  then the C writeback.  Host-link contention counts only the *active*
  GPUs of each process (a process whose columns fit on one GPU leaves the
  other bricks idle);
* per node: co-located processes share the NIC and the host cores, but
  also share data — with ``p = 1`` both processes of a node need the same
  A tiles and PaRSEC ships one copy per node, so the model dedups the A
  broadcast volume and the on-demand B generation at node level (the
  paper's "each tile of B is instantiated at most once per node");
* activity streams (GPU pipelines, CPU generation, NIC traffic, inspector)
  overlap imperfectly: ``overlap_rho`` interpolates between perfect
  overlap (0) and full serialization (1), modelling the stalls the paper
  reports when local work cannot cover communication;
* makespan: the slowest node.

The per-chunk GEMM time uses the separable kernel model aggregated at
inspection time (``chunk.device_seconds``) plus per-task launch overhead.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import Block, ExecutionPlan
from repro.machine.kernels import GenerationModel
from repro.machine.links import LinkModel, effective_stream_bandwidth
from repro.machine.network import NetworkModel
from repro.machine.spec import MachineSpec
from repro.util.units import fmt_rate, fmt_time

DTYPE_BYTES = 8


@dataclass(frozen=True)
class NodeTiming:
    """Per-node timing breakdown (seconds)."""

    node: int
    ranks: tuple[int, ...]
    gpu_busy: np.ndarray  # one entry per (proc, local gpu) on the node
    gen: float
    net: float
    inspect: float
    total: float


@dataclass(frozen=True)
class SimReport:
    """Simulated execution of one plan on one machine.

    Attributes
    ----------
    makespan:
        End-to-end simulated seconds (the paper's "time to completion").
    flops:
        Total flop count of the contraction.
    nodes:
        Per-node breakdowns.
    """

    makespan: float
    flops: float
    nodes: list[NodeTiming] = field(repr=False, default_factory=list)

    @property
    def perf(self) -> float:
        """Aggregate attained flop/s (the paper's Fig. 2 / Fig. 9 metric)."""
        return self.flops / self.makespan if self.makespan > 0 else 0.0

    def perf_per_gpu(self, total_gpus: int) -> float:
        """The paper's Fig. 8 metric."""
        return self.perf / total_gpus

    def summary(self) -> str:
        return f"time {fmt_time(self.makespan)}, {fmt_rate(self.perf)}"


def _overlap(components: list[float], rho: float) -> float:
    """Combine concurrent activity streams with partial overlap.

    ``max`` of the streams plus ``rho`` times the rest: ``rho = 0`` is the
    perfect-overlap lower bound, ``rho = 1`` full serialization.
    """
    total = sum(components)
    peak = max(components) if components else 0.0
    return peak + rho * (total - peak)


def _gpu_time(blocks: list[Block], link: LinkModel, launch_s: float) -> float:
    """Time one GPU spends on its ordered blocks."""
    t = 0.0
    for blk in blocks:
        # Blocking B load — C starts empty in the paper's runs (allocated
        # on device), so only B moves in.
        t += link.time(blk.b_bytes, blk.b_tile_count)
        # Chunk pipeline with one-deep prefetch.
        comp = [c.device_seconds + launch_s * c.ntasks for c in blk.chunks]
        load = [link.time(c.a_bytes, c.ntiles) for c in blk.chunks]
        if load:
            t += load[0]
            for i in range(len(comp)):
                nxt = load[i + 1] if i + 1 < len(load) else 0.0
                t += max(comp[i], nxt)
        # C writeback, once per block.
        t += link.time(blk.c_bytes, blk.c_tile_count)
    return t


def simulate(
    plan: ExecutionPlan,
    machine: MachineSpec,
    overlap_rho: float = 0.25,
    use_d2d: bool = False,
) -> SimReport:
    """Price ``plan`` on ``machine``; returns the simulated run report.

    ``use_d2d`` enables the NVLink device-to-device A-tile sharing model
    (see :mod:`repro.core.d2d`): A traffic duplicated across a process's
    GPUs is served at NVLink speed instead of the contended host link.
    Off by default — it is an optimistic bound, quantified by the A6
    ablation benchmark.
    """
    grid = plan.grid
    gpu = machine.gpu
    node_spec = machine.node
    ppn = grid.procs_per_node

    dup_fraction: dict[int, float] = {}
    if use_d2d:
        from repro.core.d2d import duplicated_traffic_fraction

        m_sz = plan.a_shape.rows.sizes.astype(np.int64)
        k_sz = plan.a_shape.cols.sizes.astype(np.int64)
        for proc in plan.procs:
            dup_fraction[proc.rank] = duplicated_traffic_fraction(
                proc, plan.a_shape.ntile_cols, m_sz, k_sz, grid.gpus_per_proc
            )

    gen_model = GenerationModel(node_spec)
    net = NetworkModel(bandwidth=machine.net_bandwidth, latency=machine.net_latency)

    nK = plan.a_shape.ntile_cols
    m = plan.a_shape.rows.sizes.astype(np.int64)
    k = plan.a_shape.cols.sizes.astype(np.int64)

    # Per-column B footprint (for node-level generation dedup).
    b_col_bytes = np.asarray(plan.b_shape.tile_bytes().sum(axis=0)).ravel()

    nt_cols = plan.b_shape.ntile_cols
    inspect_tiles = plan.b_shape.nnz_tiles / max(1, grid.nprocs) + nt_cols * max(
        1.0, np.log2(max(nt_cols, 2))
    )
    t_inspect = inspect_tiles / machine.inspection_rate

    # Group processes onto nodes.
    by_node: dict[int, list] = defaultdict(list)
    for proc in plan.procs:
        by_node[proc.rank // ppn].append(proc)

    # Global A consumer map for node-level injection volumes.
    cons_keys: list[np.ndarray] = []
    cons_nodes: list[np.ndarray] = []
    for proc in plan.procs:
        keys = proc.a_needed_rows * nK + proc.a_needed_cols
        cons_keys.append(keys)
        cons_nodes.append(np.full(keys.size, proc.rank // ppn, dtype=np.int64))
    all_keys = np.concatenate(cons_keys) if cons_keys else np.empty(0, dtype=np.int64)
    all_nodes = np.concatenate(cons_nodes) if cons_nodes else np.empty(0, dtype=np.int64)
    # Unique (key, node) pairs.
    nnodes_used = max(by_node.keys(), default=0) + 1
    pair = all_keys * nnodes_used + all_nodes
    _, first = np.unique(pair, return_index=True)
    u_keys = all_keys[first]
    u_nodes = all_nodes[first]
    u_i = u_keys // nK
    u_k = u_keys % nK
    owner_rank = (u_i % grid.p) * grid.q + (u_k % grid.q)
    owner_node = owner_rank // ppn
    u_bytes = m[u_i] * k[u_k] * DTYPE_BYTES
    remote = owner_node != u_nodes
    # Receive volume per node; injected (send-once) volume per owner node.
    recv_node = np.zeros(max(by_node.keys(), default=0) + 1, dtype=np.int64)
    np.add.at(recv_node, u_nodes[remote], u_bytes[remote])
    # Per-tile software overhead of the background broadcasts.
    recv_msgs = np.zeros_like(recv_node)
    np.add.at(recv_msgs, u_nodes[remote], 1)
    inject_node = np.zeros_like(recv_node)
    if remote.any():
        rk = np.unique(u_keys[remote])
        ri = rk // nK
        rkk = rk % nK
        rb = m[ri] * k[rkk] * DTYPE_BYTES
        np.add.at(inject_node, ((ri % grid.p) * grid.q + (rkk % grid.q)) // ppn, rb)

    timings: list[NodeTiming] = []
    for node_id, procs in sorted(by_node.items()):
        gpu_busy_all: list[float] = []
        for proc in procs:
            # Host-link contention: only GPUs that actually stream count.
            active = sum(
                1 for g in range(grid.gpus_per_proc) if proc.gpu_blocks(g)
            )
            h2d_bw = effective_stream_bandwidth(
                gpu.h2d_bandwidth,
                node_spec.host_link_aggregate / ppn,
                max(1, active),
            )
            if use_d2d and dup_fraction.get(proc.rank, 0.0) > 0:
                from repro.core.d2d import d2d_effective_bandwidth

                h2d_bw = d2d_effective_bandwidth(
                    h2d_bw, gpu.d2d_bandwidth, dup_fraction[proc.rank]
                )
            link = LinkModel(bandwidth=h2d_bw, latency=node_spec.h2d_latency_s)
            for g in range(grid.gpus_per_proc):
                gpu_busy_all.append(
                    _gpu_time(proc.gpu_blocks(g), link, gpu.kernel_launch_s)
                )

        # Node-level B generation: columns deduped across co-located procs.
        cols_union = np.unique(np.concatenate([proc.columns for proc in procs]))
        gen_bytes = int(b_col_bytes[cols_union].sum())
        t_gen = gen_model.time(gen_bytes)

        c_send = sum(proc.c_send_bytes for proc in procs)
        c_recv = sum(proc.c_recv_bytes for proc in procs)
        t_net = net.exchange_time(
            int(inject_node[node_id]) + recv_node[node_id] + c_send,
            int(recv_node[node_id]) + c_recv,
        )
        t_net += float(recv_msgs[node_id]) * machine.net_message_overhead

        total = t_inspect + _overlap(
            [max(gpu_busy_all, default=0.0), t_gen, t_net], overlap_rho
        )
        timings.append(
            NodeTiming(
                node=node_id,
                ranks=tuple(proc.rank for proc in procs),
                gpu_busy=np.array(gpu_busy_all),
                gen=t_gen,
                net=t_net,
                inspect=t_inspect,
                total=total,
            )
        )

    makespan = max(t.total for t in timings)
    return SimReport(makespan=makespan, flops=plan.total_flops, nodes=timings)
