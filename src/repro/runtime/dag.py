"""Build the two-DAG task graph of an execution plan.

Section 4 of the paper describes the algorithm as "the superposition of two
DAGs, having the same nodes (the tasks) but different sets of edges": the
*dataflow* DAG (GEMMs depend on their tile transfers, transfers on
generation/reception) and the *control* DAG (architecture-specific edges
that keep the scheduler inside the memory strategy: blocking block loads,
two-deep chunk prefetch).  This module materializes both over the
:class:`~repro.runtime.engine.DiscreteEventEngine` resources:

* ``net.n<node>`` — the node's NIC (A broadcast arrival), shared by
  co-located processes;
* ``cpu.n<node>`` — the node's core pool generating B tiles, likewise
  shared;
* ``gpu.<rank>.<g>.link`` / ``gpu.<rank>.<g>.comp`` — each GPU's
  host-device channel and compute stream.

Granularity ``"chunk"`` aggregates each chunk's GEMMs into one compute
task (the coarse model's resolution); ``"task"`` emits one task per tile
GEMM — the faithful PTG expansion, for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import ExecutionPlan
from repro.machine.kernels import GemmKernelModel, GenerationModel
from repro.machine.links import LinkModel, effective_stream_bandwidth
from repro.machine.network import NetworkModel
from repro.machine.spec import MachineSpec
from repro.runtime.engine import DiscreteEventEngine, Resource, SimTask
from repro.util.validation import require_in


@dataclass(frozen=True)
class TaskGraph:
    """An engine loaded with the plan's tasks, plus edge-set metadata."""

    engine: DiscreteEventEngine
    dataflow_edges: int
    control_edges: int
    ntasks: int


def build_task_graph(
    plan: ExecutionPlan,
    machine: MachineSpec,
    granularity: str = "chunk",
) -> TaskGraph:
    """Expand ``plan`` into a simulatable task graph on ``machine``."""
    require_in(granularity, {"chunk", "task"}, "granularity")
    grid = plan.grid
    gpu = machine.gpu
    node = machine.node

    host_aggregate = node.host_link_aggregate / grid.procs_per_node
    h2d_bw = effective_stream_bandwidth(
        gpu.h2d_bandwidth, host_aggregate, max(1, grid.gpus_per_proc)
    )
    link = LinkModel(bandwidth=h2d_bw, latency=node.h2d_latency_s)
    kernel = GemmKernelModel(gpu)
    gen = GenerationModel(node)
    # NIC and core-pool contention between co-located processes is
    # modelled by the shared per-node resources below, so the models use
    # the full node bandwidths here.
    net = NetworkModel(bandwidth=machine.net_bandwidth, latency=machine.net_latency)

    # Co-located processes share their node's NIC and core pool — one
    # resource per *node*, addressed by every resident process.
    def node_of(rank: int) -> int:
        return rank // grid.procs_per_node

    resources: list[Resource] = []
    seen_nodes: set[int] = set()
    for proc in plan.procs:
        r = proc.rank
        n = node_of(r)
        if n not in seen_nodes:
            seen_nodes.add(n)
            resources.append(Resource(f"net.n{n}"))
            resources.append(Resource(f"cpu.n{n}"))
        for g in range(grid.gpus_per_proc):
            resources.append(Resource(f"gpu.{r}.{g}.link"))
            resources.append(Resource(f"gpu.{r}.{g}.comp"))
    engine = DiscreteEventEngine(resources)

    m_sizes = plan.a_shape.rows.sizes
    k_sizes = plan.a_shape.cols.sizes
    n_sizes = plan.b_shape.cols.sizes
    b_csr = plan.b_shape.csr

    df_edges = 0
    cf_edges = 0

    for proc in plan.procs:
        r = proc.rank
        recv_name = f"recv_a.{r}"
        engine.add_task(
            SimTask(
                name=recv_name,
                resource=f"net.n{node_of(r)}",
                duration=net.exchange_time(proc.a_send_bytes, proc.a_recv_bytes),
            )
        )
        for g in range(grid.gpus_per_proc):
            link_res = f"gpu.{r}.{g}.link"
            comp_res = f"gpu.{r}.{g}.comp"
            prev_block_end: str | None = None
            for bi, block in enumerate(proc.gpu_blocks(g)):
                base = f"p{r}.g{g}.b{bi}"
                gen_name = f"gen.{base}"
                engine.add_task(
                    SimTask(
                        name=gen_name,
                        resource=f"cpu.n{node_of(r)}",
                        duration=gen.time(block.b_bytes),
                    )
                )
                load_bc = f"load_bc.{base}"
                deps = [gen_name]
                df_edges += 1
                if prev_block_end is not None:
                    # CONTROL: blocking block streaming — next block's B/C
                    # cannot move until the previous block fully finished.
                    deps.append(prev_block_end)
                    cf_edges += 1
                engine.add_task(
                    SimTask(
                        name=load_bc,
                        resource=link_res,
                        duration=link.time(block.b_bytes, block.b_tile_count),
                        deps=tuple(deps),
                    )
                )

                compute_dones: list[str] = []
                chunk_compute_names: list[list[str]] = []
                for ci, chunk in enumerate(block.chunks):
                    load_a = f"load_a.{base}.c{ci}"
                    deps = [load_bc, recv_name]
                    df_edges += 2
                    if ci >= 2:
                        # CONTROL: two-deep prefetch — chunk ci's tiles may
                        # only arrive once chunk ci-2's GEMMs freed their
                        # quarter of device memory.
                        deps.extend(chunk_compute_names[ci - 2])
                        cf_edges += len(chunk_compute_names[ci - 2])
                    engine.add_task(
                        SimTask(
                            name=load_a,
                            resource=link_res,
                            duration=link.time(chunk.a_bytes, chunk.ntiles),
                            deps=tuple(deps),
                            priority=ci,
                        )
                    )

                    names: list[str] = []
                    if granularity == "chunk":
                        name = f"gemm.{base}.c{ci}"
                        engine.add_task(
                            SimTask(
                                name=name,
                                resource=comp_res,
                                duration=chunk.device_seconds
                                + gpu.kernel_launch_s * chunk.ntasks,
                                deps=(load_a,),
                                priority=ci,
                            )
                        )
                        df_edges += 1
                        names.append(name)
                    else:
                        block_cols = set(block.columns.tolist())
                        t = 0
                        for i, k in zip(chunk.a_rows.tolist(), chunk.a_cols.tolist()):
                            row = b_csr.indices[b_csr.indptr[k] : b_csr.indptr[k + 1]]
                            for j in row.tolist():
                                if j not in block_cols:
                                    continue
                                name = f"gemm.{base}.c{ci}.t{t}"
                                engine.add_task(
                                    SimTask(
                                        name=name,
                                        resource=comp_res,
                                        duration=float(
                                            kernel.time(
                                                m_sizes[i], n_sizes[j], k_sizes[k]
                                            )
                                        ),
                                        deps=(load_a,),
                                        priority=ci,
                                    )
                                )
                                df_edges += 1
                                names.append(name)
                                t += 1
                    chunk_compute_names.append(names)
                    compute_dones.extend(names)

                store_c = f"store_c.{base}"
                engine.add_task(
                    SimTask(
                        name=store_c,
                        resource=link_res,
                        duration=link.time(block.c_bytes, block.c_tile_count),
                        deps=tuple(compute_dones) if compute_dones else (load_bc,),
                        priority=10_000,
                    )
                )
                df_edges += max(len(compute_dones), 1)
                prev_block_end = store_c

    return TaskGraph(
        engine=engine,
        dataflow_edges=df_edges,
        control_edges=cf_edges,
        ntasks=engine.ntasks,
    )


def simulate_des(
    plan: ExecutionPlan, machine: MachineSpec, granularity: str = "chunk"
):
    """Build and run the task graph; returns ``(trace, makespan)``."""
    graph = build_task_graph(plan, machine, granularity=granularity)
    trace = graph.engine.run()
    return trace, trace.makespan
