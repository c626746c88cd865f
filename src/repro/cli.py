"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's evaluation artifacts:

* ``traits``     — Table 1 (C65H132 traits vs paper);
* ``synthetic``  — Figs. 2/3/4 (synthetic sweep incl. libDBCSR);
* ``scaling``    — Figs. 7/8/9 (C65H132 strong scaling);
* ``mpqc``       — the Section 5.2 CPU comparison;
* ``advise``     — the tiling advisor (the paper's future work);
* ``selftest``   — numeric end-to-end check of the distributed plan;
* ``explain``    — performance attribution of a traced run: the critical
  path by layer, model-vs-measured roofline audit, and (with
  ``--baseline``) a run-to-run diff of what got slower;
* ``monitor``    — render a run's live per-rank health table from its
  ``run-events.jsonl`` event log (``--follow`` tails a running job;
  ``--run-id`` selects one job's scoped log from a shared directory);
* ``serve``      — run a batch of contraction jobs from a spec file
  through one persistent :class:`~repro.serve.ContractionService`
  (warm worker pool, priority queue, per-job artifacts);
* ``analyze``    — static plan verifier (CI gate; ``--model-check`` adds the
  protocol model checker);
* ``store``      — inspect (``stats``) or garbage-collect (``gc``) a
  persistent tile store;
* ``lint``       — AST concurrency lint over the source tree (CI gate);
* ``rules``      — the analysis rule catalog generated from the registry
  (``--check`` is the CI drift gate for ``docs/rules.md``);
* ``export``     — dump every experiment's data as one JSON file.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_traits(args) -> int:
    from repro.experiments.c65h132 import table1_text

    print(table1_text(seed=args.seed))
    return 0


def _cmd_synthetic(args) -> int:
    from repro.experiments.synthetic import fig2_sweep, fig2_table, fig3_table, fig4_table

    points = fig2_sweep(
        scale="paper" if args.paper_scale else "quick",
        seed=args.seed,
        with_dbcsr=not args.no_dbcsr,
    )
    print("Fig. 2 — performance (16 nodes / 96 GPUs)")
    print(fig2_table(points))
    print("\nFig. 3 — arithmetic intensity")
    print(fig3_table(points))
    print("\nFig. 4 — time to completion")
    print(fig4_table(points))
    return 0


def _cmd_scaling(args) -> int:
    from repro.experiments.c65h132 import GPU_COUNTS, scaling_series
    from repro.experiments.report import fmt_table

    counts = tuple(args.gpus) if args.gpus else GPU_COUNTS
    for v in args.variants:
        series = scaling_series(v, gpu_counts=counts, seed=args.seed)
        rows = [
            [p.gpus, f"{p.time:8.1f}", f"{p.perf / 1e12:7.1f}",
             f"{p.perf_per_gpu / 1e12:6.2f}", f"{p.efficiency:6.1%}"]
            for p in series
        ]
        print(f"\nC65H132 strong scaling — tiling {v}")
        print(fmt_table(["#GPUs", "time (s)", "Tflop/s", "Tf/GPU", "eff"], rows))
    return 0


def _cmd_mpqc(args) -> int:
    from repro.experiments.mpqc_compare import mpqc_comparison_text

    print(mpqc_comparison_text(variant=args.variant, seed=args.seed))
    return 0


def _cmd_advise(args) -> int:
    from repro.chem import TilingVariant, build_abcd_problem
    from repro.core.advisor import recommend_tiling
    from repro.experiments.report import fmt_table
    from repro.machine import summit

    targets = [tuple(map(int, t.split("x"))) for t in args.targets]

    def build(cand):
        occ, ao = cand
        prob = build_abcd_problem(
            variant=TilingVariant(f"{occ}x{ao}", occ, ao), seed=args.seed
        )
        return prob.t_shape, prob.v_shape

    rec = recommend_tiling(
        build,
        targets,
        summit(args.nodes),
        labels=[f"{o}x{a}" for o, a in targets],
    )
    print(fmt_table(["occ x ao", "Tflop", "#tasks", "time (s)", ""], rec.table_rows()))
    print(f"\nrecommended: {rec.best.label} ({rec.best.time:.2f} s)")
    return 0


def _cmd_selftest(args) -> int:
    if args.deep:
        from repro.core.crosscheck import random_crosscheck

        report = random_crosscheck(seed=args.seed)
        print(report.summary())
        return 0 if report.ok else 1

    import numpy as np

    from repro.core import psgemm_numeric
    from repro.machine import summit
    from repro.sparse import random_block_sparse
    from repro.tiling import random_tiling

    if args.procs:
        # Multi-process path: N worker processes (p = N grid rows of one
        # process each), crosschecked bit-for-bit against the serial
        # executor and against the dense reference.
        from repro.core import psgemm_distributed
        from repro.dist import DistExecutionError, FaultPlan

        fault_plan = (
            FaultPlan.parse(args.inject_fault, nranks=args.procs)
            if args.inject_fault else None
        )
        rows = random_tiling(400, 30, 120, seed=args.seed)
        inner = random_tiling(1200, 30, 120, seed=args.seed + 1)
        a = random_block_sparse(rows, inner, 0.5, seed=args.seed + 2)
        b = random_block_sparse(inner, inner, 0.5, seed=args.seed + 3)
        machine = summit(args.procs)
        dist_kwargs = {}
        persist = args.checkpoint or args.store_dir
        if persist:
            # The persistent tiers only engage for on-demand B: a concrete
            # B is read in place or from shared memory, bypassing the
            # store.  Swap B for a generated collection over the same
            # sparse shape — the serial oracle uses the identical
            # collection, so bit-parity still holds.
            from repro.runtime.data import GeneratedCollection

            b_shape = b.sparse_shape()
            b = GeneratedCollection(b_shape, seed=args.seed + 3)
            dist_kwargs["b_shape"] = b_shape
            c_serial, _ = psgemm_numeric(
                a, b, machine, p=args.procs, b_shape=b_shape
            )
        else:
            c_serial, _ = psgemm_numeric(a, b, machine, p=args.procs)
        if args.checkpoint:
            dist_kwargs["checkpoint_dir"] = args.checkpoint
        if args.store_dir:
            dist_kwargs["store_dir"] = args.store_dir
        if args.events:
            dist_kwargs["events_path"] = args.events
        kinds = {inj.kind for inj in fault_plan.injections} if fault_plan else set()
        if "stall" in kinds:
            # Tighten the heartbeat cadence so an injected stall is caught
            # in about a second instead of the production-default window.
            dist_kwargs.update(heartbeat_interval=0.1, stall_after_beats=5)
        try:
            c_dist, report = psgemm_distributed(
                a, b, machine, p=args.procs, fault_plan=fault_plan, **dist_kwargs
            )
        except DistExecutionError as e:
            if "abort" in kinds and args.checkpoint:
                print(f"run aborted: {e}")
                print(f"resumable: re-run with --resume --checkpoint "
                      f"{args.checkpoint} (committed blocks will be skipped)")
                return 3
            raise
        exact = np.array_equal(c_dist.to_dense(), c_serial.to_dense())
        print(f"distributed executor ran {report.summary()}")
        print(f"per-rank tasks: {dict(sorted(report.stats.per_proc_tasks.items()))}")
        if args.trace:
            report.write_artifact(
                args.trace,
                meta={
                    "command": "selftest", "procs": args.procs,
                    "seed": args.seed, "fault": args.inject_fault or "",
                },
            )
            print(f"wrote run artifact {args.trace} "
                  f"(analyze with: repro explain --trace {args.trace})")
        if persist:
            # Generated B has no dense reference to compare against; the
            # bit-exact serial oracle (same collection) is the check.
            ok = exact
            print(f"persistent tiers: restored {report.blocks_restored} "
                  f"block(s), skipped {report.tasks_skipped} task(s); "
                  f"store {report.store_hits} hit(s) / "
                  f"{report.store_misses} miss(es) / {report.store_puts} put(s)")
            if args.resume:
                # A resume that restored nothing recomputed everything: the
                # block files went missing, which is exactly
                # what this flag exists to catch.
                resumed = report.blocks_restored > 0
                print(f"resume restored committed blocks: {resumed}")
                ok = ok and resumed
            print(f"matches serial executor bit-for-bit: {exact}; "
                  f"overall: {ok}")
            return 0 if ok else 1
        ok = exact and np.allclose(c_dist.to_dense(), a.to_dense() @ b.to_dense())
        print(f"matches serial executor bit-for-bit: {exact}; "
              f"matches dense reference: {ok}")
        return 0 if ok else 1

    rows = random_tiling(600, 40, 160, seed=args.seed)
    inner = random_tiling(3000, 40, 160, seed=args.seed + 1)
    a = random_block_sparse(rows, inner, 0.5, seed=args.seed + 2)
    b = random_block_sparse(inner, inner, 0.5, seed=args.seed + 3)
    c, stats = psgemm_numeric(a, b, summit(2), p=2, gpus_per_proc=3)
    ok = np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())
    print(f"distributed plan executed {stats.ntasks} GEMM tasks; "
          f"matches dense reference: {ok}")
    return 0 if ok else 1


def _parse_band(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        band = (float(lo), float(hi))
    except ValueError:
        raise SystemExit(f"error: --band must be LO:HI, got {text!r}")
    if band[0] > band[1]:
        raise SystemExit(f"error: --band lower bound exceeds upper ({text!r})")
    return band


def _events_digest(path: str) -> str:
    """A one-screen digest of a run's JSONL event log: what was logged, and
    the per-rank table it folds to (``repro monitor``'s)."""
    from collections import Counter

    from repro.dist import read_events, replay_health

    events = read_events(path)
    if not events:
        return f"{path}: no events"
    kinds = Counter(ev.get("event", "?") for ev in events)
    last = events[-1].get("t", 0.0)
    return (
        f"{path}: {len(events)} event(s) over {last - events[0].get('t', 0.0):.2f} s — "
        + ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
        + "\n" + replay_health(events).table(now=last)
    )


def _cmd_explain(args) -> int:
    import json

    from repro.perf import (
        attribute,
        audit_run,
        diff_attributions,
        html_report,
        read_run_artifact,
        text_report,
    )

    band = _parse_band(args.band) if args.band else None
    art = read_run_artifact(args.trace)
    if not art.trace.events:
        print(f"error: {args.trace} holds no spans (was the run traced?)")
        return 1
    attribution = attribute(art.trace)
    audit = audit_run(
        art.trace, art.model,
        comm_link_bytes=art.links or None,
        **({"band": band} if band else {}),
    )
    trace_diff = None
    if args.baseline:
        base = read_run_artifact(args.baseline)
        if not base.trace.events:
            print(f"error: baseline {args.baseline} holds no spans")
            return 1
        trace_diff = diff_attributions(
            attribute(base.trace), attribution,
            base_hash=base.plan_hash, cur_hash=art.plan_hash,
        )
    print(text_report(attribution, audit, trace_diff, title=args.trace))
    if args.events:
        print()
        print(_events_digest(args.events))
    if args.json:
        payload = {
            "trace": args.trace,
            "attribution": attribution.to_dict(),
            "audit": audit.to_dict(),
            "diff": trace_diff.to_dict() if trace_diff else None,
            "meta": art.meta,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        print(f"wrote {args.json}")
    if args.html:
        page = html_report(
            art.trace, attribution, audit, trace_diff, title=args.trace
        )
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(page)
        print(f"wrote {args.html}")
    return 0


def _cmd_monitor(args) -> int:
    import os
    import time

    from repro.dist import read_events, replay_health, resolve_events_path
    from repro.dist.health import TERMINAL_EVENTS

    run_id = args.run_id
    path = resolve_events_path(args.events, run_id)

    def render() -> tuple[str, str | None]:
        """The table, and the run's terminal event once it is logged."""
        if not os.path.exists(path):
            return f"(waiting for {path})", None
        events = read_events(path, run_id=run_id)
        health = replay_health(events)
        end = next(
            (ev for ev in events if ev.get("event") in TERMINAL_EVENTS), None
        )
        ended = end["event"] if end else None
        last = events[-1]["t"] if events else None
        head = f"{path}: {len(events)} event(s)"
        if ended == "done":
            head += " — run complete"
        elif ended:
            head += f" — run {ended}: {end.get('reason', '')}"
        return head + "\n" + health.table(now=last), ended

    if not args.follow:
        text, _ = render()
        print(text)
        return 0 if os.path.exists(path) else 1

    while True:
        text, ended = render()
        print(text, flush=True)
        if ended:
            return 0 if ended == "done" else 1
        time.sleep(args.interval)


def _serve_operands(job: dict):
    """Operands for one spec-file job (seed-deterministic, B generated)."""
    from repro.runtime import DelayedGeneratedCollection, GeneratedCollection
    from repro.sparse import random_block_sparse
    from repro.tiling import random_tiling

    m = int(job.get("m", 200))
    k = int(job.get("k", 600))
    seed = int(job.get("seed", 0))
    density = float(job.get("density", 0.5))
    rows = random_tiling(m, 20, 80, seed=seed)
    inner = random_tiling(k, 20, 80, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b_shape = random_block_sparse(inner, inner, density, seed=seed + 3).sparse_shape()
    delay = float(job.get("gen_delay_s", 0.0))
    if delay > 0.0:
        b = DelayedGeneratedCollection(b_shape, seed=seed + 4, gen_delay_s=delay)
    else:
        b = GeneratedCollection(b_shape, seed=seed + 4)
    return a, b


def _serve_table(snapshots: list[dict]) -> str:
    head = f"{'job':<14} {'state':<9} {'prio':>4} {'queued_s':>9} {'run_s':>7}"
    lines = [head, "-" * len(head)]
    for s in snapshots:
        run_s = f"{s['run_s']:.3f}" if s["run_s"] is not None else "-"
        lines.append(
            f"{s['job_id']:<14} {s['state']:<9} {s['priority']:>4} "
            f"{s['queued_s']:>9.3f} {run_s:>7}"
        )
    return "\n".join(lines)


def _cmd_serve(args) -> int:
    import json
    import time

    from repro.core import inspect
    from repro.machine import summit
    from repro.serve import ContractionService, JobFailedError

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    jobs = spec.get("jobs", [])
    if not jobs:
        print(f"{args.spec}: no jobs in spec", file=sys.stderr)
        return 1
    procs = args.procs or int(spec.get("procs", 2))
    svc = ContractionService(
        procs,
        artifacts_dir=args.artifacts,
        queue_limit=args.queue_limit,
        verify_plan=args.verify,
    )
    submitted: list[str] = []
    failures = 0
    try:
        for i, job in enumerate(jobs):
            a, b = _serve_operands(job)
            plan = inspect(
                a.sparse_shape(), b.shape, summit(procs), p=int(job.get("p", 1))
            )
            job_id = svc.submit(plan, a, b, priority=int(job.get("priority", 0)))
            submitted.append(job_id)
            print(f"submitted {job_id} (spec job {i}, "
                  f"priority {job.get('priority', 0)})")
            if job.get("wait"):
                # Sequential phase boundary: later jobs must see this
                # one's warm state (or its failure) before they queue.
                try:
                    svc.result(job_id, timeout=args.timeout)
                except JobFailedError as exc:
                    failures += 1
                    print(f"job {job_id} FAILED: {exc}", file=sys.stderr)
        while any(s["state"] in ("queued", "running") for s in svc.jobs()):
            print(_serve_table(svc.jobs()), flush=True)
            time.sleep(args.interval)
        for job_id in submitted:
            try:
                svc.result(job_id, timeout=args.timeout)
            except JobFailedError as exc:
                failures += 1
                print(f"job {job_id} FAILED: {exc}", file=sys.stderr)
        print(_serve_table(svc.jobs()))
        reports = [svc.report(j) for j in submitted]
        warm_hits = sum(r.b_store_hits for r in reports if r is not None)
        print(
            f"{len(submitted)} job(s), {failures} failure(s); pool spawned "
            f"{svc.pool.spawns} process(es) for {procs} rank(s); "
            f"warm B-tile hits: {warm_hits}"
        )
        if args.artifacts:
            print(f"per-job artifacts under {args.artifacts}/ "
                  f"(run-events.<id>.jsonl, trace.<id>.json, metrics.<id>.prom)")
        return 1 if failures else 0
    finally:
        svc.shutdown()


def _cmd_store(args) -> int:
    from repro.store import TileStore, read_store_stats

    if args.store_command == "stats":
        s = read_store_stats(args.root)
        print(f"tile store {args.root}")
        print(f"  objects:       {s.objects} ({s.disk_bytes} B on disk)")
        print(f"  hits:          {s.hits}")
        print(f"  misses:        {s.misses}")
        print(f"  hit rate:      {s.hit_rate:.1%}")
        print(f"  puts:          {s.puts}")
        print(f"  evictions:     {s.evictions}")
        print(f"  corrupt:       {s.corrupt}")
        print(f"  bytes written: {s.bytes_written}")
        print(f"  bytes read:    {s.bytes_read}")
        return 0

    # gc
    store = TileStore(args.root)
    try:
        evicted, freed = store.gc(args.budget)
        left = store.stats()
    finally:
        store.close()
    print(f"evicted {evicted} object(s), freed {freed} B; "
          f"{left.objects} object(s), {left.disk_bytes} B remain "
          f"(budget {args.budget} B)")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import verify_plan
    from repro.core import psgemm_plan
    from repro.machine import summit
    from repro.sparse import random_block_sparse
    from repro.tiling import random_tiling

    rows = random_tiling(400, 30, 120, seed=args.seed)
    inner = random_tiling(1200, 30, 120, seed=args.seed + 1)
    a = random_block_sparse(rows, inner, 0.5, seed=args.seed + 2)
    b = random_block_sparse(inner, inner, 0.5, seed=args.seed + 3)
    machine = summit(args.nodes)
    plan = psgemm_plan(a.sparse_shape(), b.sparse_shape(), machine, p=args.procs)

    report = verify_plan(plan)
    print(f"analyzed plan: {plan.grid.nprocs} rank(s), "
          f"{sum(len(pp.blocks) for pp in plan.procs)} block(s)")
    if args.model_check:
        from repro.analysis import PROTOCOL, check_protocol, default_scenarios

        result = check_protocol(
            PROTOCOL, default_scenarios(max_ranks=args.max_ranks)
        )
        print(result.summary())
        report.extend(result.report)
    print(report.render())
    return report.exit_code()


def _cmd_lint(args) -> int:
    import os

    import repro
    from repro.analysis import lint_paths

    paths = args.paths or [os.path.dirname(repro.__file__)]
    report = lint_paths(paths)
    if report.files_scanned == 0:
        # An empty match is almost always a typo'd path or glob; succeed
        # (nothing is wrong with the code) but never silently.
        print(f"warning: no files matched {' '.join(paths)!s}; "
              f"nothing was linted")
    print(report.render())
    return report.exit_code()


def _cmd_rules(args) -> int:
    from repro.analysis import (
        check_rule_catalog,
        rule_catalog_markdown,
        write_rule_catalog,
    )

    if args.check:
        if check_rule_catalog(args.check):
            print(f"{args.check} is up to date with the rule registry")
            return 0
        print(f"{args.check} has drifted from the rule registry; "
              f"regenerate with: make docs-rules")
        return 1
    if args.output:
        path = write_rule_catalog(args.output)
        print(f"wrote {path}")
        return 0
    print(rule_catalog_markdown(), end="")
    return 0


def _cmd_export(args) -> int:
    from repro.experiments.export import export_all

    data = export_all(
        args.output,
        scale="paper" if args.paper_scale else "quick",
        gpu_counts=args.gpus,
        seed=args.seed,
    )
    print(f"wrote {args.output}: "
          f"{len(data['fig2'])} fig2 points, "
          f"{sum(len(v) for v in data['fig7'].values())} scaling points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.perf.audit import DEFAULT_BAND

    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("traits", help="Table 1").set_defaults(func=_cmd_traits)

    syn = sub.add_parser("synthetic", help="Figs. 2/3/4")
    syn.add_argument("--paper-scale", action="store_true")
    syn.add_argument("--no-dbcsr", action="store_true")
    syn.set_defaults(func=_cmd_synthetic)

    sc = sub.add_parser("scaling", help="Figs. 7/8/9")
    sc.add_argument("--variants", nargs="+", default=["v1", "v2", "v3"],
                    choices=["v1", "v2", "v3"])
    sc.add_argument("--gpus", nargs="+", type=int)
    sc.set_defaults(func=_cmd_scaling)

    mp = sub.add_parser("mpqc", help="CPU comparison (Section 5.2)")
    mp.add_argument("--variant", default="v3", choices=["v1", "v2", "v3"])
    mp.set_defaults(func=_cmd_mpqc)

    adv = sub.add_parser("advise", help="tiling advisor")
    adv.add_argument("--targets", nargs="+",
                     default=["8x65", "7x48", "6x32", "5x22"],
                     help="occ x ao cluster targets, e.g. 6x32")
    adv.add_argument("--nodes", type=int, default=4)
    adv.set_defaults(func=_cmd_advise)

    st = sub.add_parser("selftest", help="numeric end-to-end check")
    st.add_argument("--deep", action="store_true",
                    help="check the numeric executor against the dense reference, "
                         "the shape algebra's counts and the memory budget")
    st.add_argument("--procs", type=int, metavar="N",
                    help="run the plan across N real worker processes and "
                         "crosscheck bit-for-bit against the serial executor")
    st.add_argument("--inject-fault",
                    metavar="RANK:TASK[:kill|delay|stall|slow|abort]",
                    help="with --procs: sabotage worker RANK after TASK GEMM "
                         "tasks (stall hangs it silently until the missed-"
                         "heartbeat detector fires; slow drags every "
                         "subsequent task so `repro explain`'s audit flags "
                         "the rank; "
                         "abort tears the run down unrecoverably — exit 3 "
                         "when resumable via --checkpoint) and verify the "
                         "retry/reassign recovery still produces the exact "
                         "result")
    st.add_argument("--events", metavar="PATH",
                    help="with --procs: append the run's life-cycle events "
                         "(heartbeats, stalls, retries) to PATH as JSONL")
    st.add_argument("--checkpoint", metavar="DIR",
                    help="with --procs: commit finished blocks to DIR so a "
                         "killed run resumes bit-for-bit (switches B to an "
                         "on-demand generated collection, the tier the "
                         "persistent store backs)")
    st.add_argument("--resume", action="store_true",
                    help="with --checkpoint: require that the run restored "
                         "at least one committed block (fail if it had to "
                         "recompute everything)")
    st.add_argument("--store-dir", metavar="DIR",
                    help="with --procs: persist generated B tiles to a "
                         "content-addressed store at DIR (second run hits "
                         "instead of regenerating)")
    st.add_argument("--trace", metavar="PATH",
                    help="with --procs: write the run's enriched Chrome-trace "
                         "artifact (spans + roofline model + comm bytes) to "
                         "PATH for `repro explain`")
    st.set_defaults(func=_cmd_selftest)

    exp = sub.add_parser(
        "explain",
        help="attribute a traced run: critical path by layer, "
             "model-vs-measured audit, optional run-to-run diff",
    )
    exp.add_argument("--trace", required=True, metavar="PATH",
                     help="run artifact to analyze (from "
                          "`repro selftest --procs N --trace PATH`)")
    exp.add_argument("--baseline", metavar="PATH",
                     help="a second run artifact of the same plan to diff "
                          "against (attributes the makespan delta to "
                          "layers/ranks)")
    exp.add_argument("--events", metavar="PATH",
                     help="also digest the run's JSONL life-cycle event log")
    exp.add_argument("--band", metavar="LO:HI",
                     help="relative roofline band; tasks/ranks outside "
                          "median*LO..median*HI are flagged (default "
                          f"{DEFAULT_BAND[0]:g}:{DEFAULT_BAND[1]:g})")
    exp.add_argument("--json", metavar="PATH",
                     help="write the full analysis as JSON to PATH")
    exp.add_argument("--html", metavar="PATH",
                     help="write a self-contained HTML report (timeline with "
                          "the critical path, layer bars, audit table)")
    exp.set_defaults(func=_cmd_explain)

    mo = sub.add_parser(
        "monitor",
        help="render a run's per-rank health table from its event log",
    )
    mo.add_argument("events", nargs="?", default="run-events.jsonl",
                    help="path to the run's JSONL event log "
                         "(default run-events.jsonl)")
    mo.add_argument("--follow", action="store_true",
                    help="keep re-rendering until the run's terminal event "
                         "(exit 0 on 'done', 1 on 'aborted' / 'failed')")
    mo.add_argument("--interval", type=float, default=1.0,
                    help="seconds between --follow refreshes (default 1)")
    mo.add_argument("--run-id",
                    help="select one job's run-scoped log "
                         "(run-events.<run-id>.jsonl next to EVENTS) and "
                         "filter its records to that run")
    mo.set_defaults(func=_cmd_monitor)

    se = sub.add_parser(
        "serve",
        help="run a batch of jobs through one warm contraction service",
    )
    se.add_argument("spec",
                    help="JSON spec: {\"procs\": N, \"jobs\": [{\"m\", \"k\", "
                         "\"seed\", \"priority\", \"gen_delay_s\", \"wait\"}]}")
    se.add_argument("--procs", type=int, default=0,
                    help="worker ranks in the pool (default: spec's, else 2)")
    se.add_argument("--artifacts", default="serve-artifacts",
                    help="directory for per-job event/trace/metrics files "
                         "(default serve-artifacts)")
    se.add_argument("--queue-limit", type=int, default=8,
                    help="max jobs queued or running (default 8)")
    se.add_argument("--timeout", type=float, default=300.0,
                    help="per-job result timeout in seconds (default 300)")
    se.add_argument("--interval", type=float, default=0.5,
                    help="seconds between queue-table refreshes (default 0.5)")
    se.add_argument("--verify", action="store_true",
                    help="run the full static plan verifier inside each job")
    se.set_defaults(func=_cmd_serve)

    an = sub.add_parser(
        "analyze",
        help="statically verify an inspector-built plan",
    )
    an.add_argument("--procs", type=int, default=3,
                    help="grid rows (ranks) for the analyzed plan")
    an.add_argument("--nodes", type=int, default=3,
                    help="machine size (Summit-like nodes)")
    an.add_argument("--model-check", action="store_true",
                    help="also model-check the distributed executor protocol "
                         "(bounded exhaustive exploration, M4xx rules)")
    an.add_argument("--max-ranks", type=int, default=2,
                    help="largest rank count the model check explores "
                         "(default 2; 3 is exhaustive but slower)")
    an.set_defaults(func=_cmd_analyze)

    so = sub.add_parser(
        "store",
        help="inspect or garbage-collect a persistent tile store",
    )
    so_sub = so.add_subparsers(dest="store_command", required=True)
    so_stats = so_sub.add_parser(
        "stats", help="cumulative hit/miss/put counters and on-disk totals"
    )
    so_stats.add_argument("root", help="store directory (e.g. ckpt/store)")
    so_stats.set_defaults(func=_cmd_store)
    so_gc = so_sub.add_parser(
        "gc", help="evict least-recently-used objects down to a byte budget"
    )
    so_gc.add_argument("root", help="store directory (e.g. ckpt/store)")
    so_gc.add_argument("--budget", type=int, required=True, metavar="BYTES",
                       help="target on-disk size after eviction")
    so_gc.set_defaults(func=_cmd_store)

    li = sub.add_parser("lint", help="AST concurrency lint (nonzero exit on findings)")
    li.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: the installed "
                         "repro package tree)")
    li.set_defaults(func=_cmd_lint)

    ru = sub.add_parser(
        "rules",
        help="the analysis rule catalog, generated from the registry",
    )
    ru.add_argument("-o", "--output", metavar="PATH",
                    help="write the Markdown catalog to PATH "
                         "(default: print to stdout)")
    ru.add_argument("--check", metavar="PATH",
                    help="exit 1 if the committed catalog at PATH drifts "
                         "from the registry (CI drift gate)")
    ru.set_defaults(func=_cmd_rules)

    ex = sub.add_parser("export", help="dump all experiment data as JSON")
    ex.add_argument("-o", "--output", default="results.json")
    ex.add_argument("--paper-scale", action="store_true")
    ex.add_argument("--gpus", nargs="+", type=int)
    ex.set_defaults(func=_cmd_export)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
