# Convenience targets for the reproduction.

.PHONY: install loc loc-check reach test test-dist trace-smoke explain-smoke resume-smoke serve-smoke bench-e2e-smoke tile-sweep tile-sweep-smoke serve-phases serve-phases-smoke analyze model-check docs-rules bench bench-paper examples export selftest clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

# Source size is a tracked number (ROADMAP aim 2): total lines of the
# package, of the distributed executor and of the protocol model.
loc:
	@for d in src/repro src/repro/dist src/repro/analysis/protocol; do \
	  printf '%-30s %6d lines\n' $$d $$(find $$d -name '*.py' | xargs cat | wc -l); \
	done

# The ratchet: fail when a tracked size exceeds its committed ceiling (set
# to the numbers of the PR that last moved them; lower them when a PR
# shrinks the tree, raise them only with a reason in CHANGES.md).
# Deterministic and host-independent — the CI slot a wall-clock benchmark
# gate used to hold.
LOC_MAX_REPRO := 17642
LOC_MAX_DIST_PROTOCOL := 4773
loc-check:
	@lines() { find "$$@" -name '*.py' | xargs cat | wc -l; }; \
	repro=$$(lines src/repro); \
	dist=$$(lines src/repro/dist src/repro/analysis/protocol); \
	echo "src/repro $$repro / $(LOC_MAX_REPRO); dist + analysis/protocol $$dist / $(LOC_MAX_DIST_PROTOCOL)"; \
	test $$repro -le $(LOC_MAX_REPRO) && test $$dist -le $(LOC_MAX_DIST_PROTOCOL)

# Who reaches each module of src/repro, and who names each of its top-level
# functions and classes and each of their methods?  An import walk
# (tools/reach.py, stdlib ast) from the declared entry points — public API, CLI,
# benchmarks/e2e, the two bench tools, the paper-figure benchmarks, examples/ —
# that fails when a module is reached by none of them, or only through a
# package __init__ re-export, when a def or class is named by no file they
# load, and when a method or property is named by none of them outside its own
# class (unless its module:name or module:Class.member is in the tool's KEEP
# table, with its reason).  Tests are not entry points: "only its own test
# uses it" is the finding.  Deterministic and host-independent, like loc-check.
reach:
	python3 tools/reach.py

test: analyze model-check loc-check reach trace-smoke resume-smoke explain-smoke serve-smoke bench-e2e-smoke tile-sweep-smoke serve-phases-smoke
	PYTHONPATH=src python -m pytest tests/

# Static analysis gate, the first two of the three analysis layers: the AST
# concurrency lint over the source tree, then the plan verifier on an
# inspector-built plan (model-check below is the third).  Both exit nonzero
# exactly when findings exist, so this fails the build early.
analyze:
	PYTHONPATH=src python -m repro lint src/repro
	PYTHONPATH=src python -m repro analyze

# Protocol model check: bounded exhaustive exploration of the
# coordinator/worker protocol (deadlock freedom, bounded queues,
# recovery/resume safety; M4xx) — over repro.dist.protocol, the table the
# coordinator dispatches on at runtime.
model-check:
	PYTHONPATH=src python -m repro analyze --model-check

# Regenerate the committed rule catalog from the registry; CI fails when
# docs/rules.md drifts (repro rules --check docs/rules.md).
docs-rules:
	PYTHONPATH=src python -m repro rules -o docs/rules.md

# The full multi-process executor suite (fault injection, 4-worker grids,
# checkpoint/resume, CLI round-trips); budgeted so a hung worker can never
# wedge CI.  The rebalancing selftest at the end logs its events, and `repro
# monitor` must replay that log to a finished table: every rank done (or
# reassigned) at 100 % — the replay path, on a real rebalanced run.
test-dist:
	PYTHONPATH=src timeout 120 pytest tests/test_dist_executor.py -m "" -q
	PYTHONPATH=src timeout 300 pytest tests/test_checkpoint.py -m "" -q
	PYTHONPATH=src timeout 300 pytest tests/test_rebalance.py -m "" -q
	PYTHONPATH=src timeout 420 pytest tests/test_serve.py -m "" -q
	PYTHONPATH=src timeout 120 python -m repro selftest --procs 3 \
		--inject-fault 0:1:slow --rebalance --events /tmp/repro-rebalance-events.jsonl
	PYTHONPATH=src python -m repro monitor /tmp/repro-rebalance-events.jsonl | tee /tmp/repro-monitor.out
	PYTHONPATH=src python -c "head, _, *ranks = [l.split() for l in open('/tmp/repro-monitor.out').read().splitlines()]; assert 'run complete' in ' '.join(head), head; assert len(ranks) == 3 and all(r[1] in ('done', 'reassigned') and r[5] == '100%' for r in ranks), ranks; print(f'monitor-smoke OK: {len(ranks)} ranks replayed to 100%')"

# The repo benchmark's plumbing (BENCHMARK.json, `python3 benchmarks/e2e/run.py`):
# a --smoke run of all four workloads, both passes, with the oracle, count and
# leak checks live — so a change that breaks what the benchmark uses of the
# program fails here, not in the next measured comparison.
bench-e2e-smoke:
	PYTHONPATH=src python -m pytest benchmarks/e2e -q

# The sweep behind runtime.numeric.KGROUP_MAX_TASK_FLOPS: per-task time of
# groups of one vs k-groups through execute_plan, tile sizes 8 ... 512, BLAS
# pinned (~25 s).  Its table is committed in EXPERIMENTS.md; rerun it when
# NumPy or the BLAS changes.  The --smoke run checks the plumbing and both
# paths against the dense reference, not the numbers.
tile-sweep:
	python3 benchmarks/tile_sweep.py

tile-sweep-smoke:
	python3 benchmarks/tile_sweep.py --smoke

# Where a serve job's time goes (ROADMAP item 1's budget as one command): one
# ContractionService lifetime per loop on the ccsd_loop_serve shapes, each
# job's submit -> result split into submit->pickup, the coordinator's phases
# and the client-side remainder; cold job and median warm job (~15 s).
# `--one-shot W` splits cold execute_plan_distributed calls on one of the
# three one-shot workloads the same way.  The --smoke runs check the plumbing
# (bit-equal results, phases within the total, nothing left in /dev/shm), not
# the numbers.
serve-phases:
	python3 benchmarks/serve_job_phases.py

serve-phases-smoke:
	python3 benchmarks/serve_job_phases.py --smoke
	for w in gemm_bound_p2 abcd_short_a_q2 fine_tiles_p2; do \
	  python3 benchmarks/serve_job_phases.py --smoke --one-shot $$w || exit 1; done

# Checkpoint/resume smoke test: abort a 2-worker run mid-flight (exit 3 =
# resumable), resume it from its block files, and require that the resumed
# run both restored committed blocks (--resume) and bit-matched the serial
# oracle.  The abort fires at rank 1's 60th task — past its first three
# blocks (19 + 12 + 26 tasks), so committed blocks exist however little
# rank 0 got done before teardown (at task 6 rank 1 had committed nothing
# and the check raced rank 0's first block).  Then the directory must hold
# rank 1's block files (one file per block) and no per-rank JSONL journal.
# Finishes with the persistent B store's cumulative stats.
resume-smoke:
	rm -rf /tmp/repro-ckpt
	PYTHONPATH=src timeout 120 python -m repro selftest --procs 2 --checkpoint /tmp/repro-ckpt --inject-fault 1:60:abort; \
	  test $$? -eq 3 || { echo "expected resumable exit code 3"; exit 1; }
	PYTHONPATH=src timeout 120 python -m repro selftest --procs 2 --checkpoint /tmp/repro-ckpt --resume
	ls /tmp/repro-ckpt/blocks/*/r1.*.blk > /dev/null || { echo "no rank-1 block files"; exit 1; }
	! ls /tmp/repro-ckpt/journal-rank*.jsonl 2> /dev/null || { echo "a JSONL journal was written"; exit 1; }
	PYTHONPATH=src python -m repro store stats /tmp/repro-ckpt/store

# Observability smoke test: trace a tiny 2-worker run end to end, then
# prove the artifact is a loadable Chrome trace (non-empty "X" spans plus
# the "M" metadata events that label rank lanes in Perfetto).
trace-smoke:
	PYTHONPATH=src timeout 120 python -m repro selftest --procs 2 --trace /tmp/repro-trace.json
	PYTHONPATH=src python -c "import json; evs = json.load(open('/tmp/repro-trace.json'))['traceEvents']; xs = [e for e in evs if e['ph'] == 'X']; ms = [e for e in evs if e['ph'] == 'M']; assert xs and all(e['dur'] >= 0 for e in xs), 'bad trace'; assert all(e['ph'] in 'XM' for e in evs), 'unknown phase'; assert any(e['name'] == 'process_name' for e in ms), 'missing rank labels'; print(f'trace-smoke OK: {len(xs)} spans, {len(ms)} metadata events')"

# Performance-attribution smoke test: a traced 3-worker selftest, then
# `repro explain` over the artifact — the critical path must be non-empty
# and cover most of the makespan, with an HTML report for CI artifacts.
explain-smoke:
	PYTHONPATH=src timeout 300 python -m repro selftest --procs 3 --trace /tmp/repro-run.json
	PYTHONPATH=src timeout 120 python -m repro explain --trace /tmp/repro-run.json --json /tmp/repro-explain.json --html /tmp/repro-explain.html
	PYTHONPATH=src python -c "import json; a = json.load(open('/tmp/repro-explain.json'))['attribution']; assert a['critical_path'], 'empty critical path'; assert a['coverage'] >= 0.5, f\"low path coverage {a['coverage']:.2f}\"; print(f\"explain-smoke OK: {len(a['critical_path'])} segments, {a['coverage']:.0%} coverage\")"

# Serving-layer smoke test: 2 sequential then 2 concurrent jobs through
# one warm ContractionService pool.  Gates: every job succeeds, the pool
# spawned its 2 processes exactly once (warm reuse, no respawns), and the
# repeat jobs hit the warm B-tile cache instead of regenerating.
serve-smoke:
	printf '{"procs": 2, "jobs": [{"seed": 0, "wait": true}, {"seed": 0, "wait": true}, {"seed": 0, "priority": 1}, {"seed": 0}]}' > /tmp/repro-serve-spec.json
	PYTHONPATH=src timeout 300 python -m repro serve /tmp/repro-serve-spec.json --artifacts /tmp/repro-serve-art | tee /tmp/repro-serve.out
	PYTHONPATH=src python -c "import re; txt = open('/tmp/repro-serve.out').read(); hits = re.search(r'warm B-tile hits: (\d+)', txt); spawns = re.search(r'spawned (\d+) process', txt); assert '0 failure(s)' in txt, 'serve job failed'; assert spawns and int(spawns.group(1)) == 2, 'pool respawned workers'; assert hits and int(hits.group(1)) > 0, 'no warm B reuse'; print(f'serve-smoke OK: 4 jobs, 2 warm processes, {hits.group(1)} warm tile hits')"

bench:
	pytest benchmarks/ --benchmark-only

bench-paper:
	pytest benchmarks/ --benchmark-only --paper-scale

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

export:
	python -m repro export -o results.json

selftest:
	python -m repro selftest --deep

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache results.json
	find . -name __pycache__ -type d -exec rm -rf {} +
