# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test test-parallel test-chaos test-distributed test-elastic verify bench bench-smoke bench-repo-smoke bench-scaling bench-hotpath bench-hotpath-smoke bench-check bench-throughput bench-throughput-smoke bench-check-throughput soak-smoke profile-parent profile-joiner figures report examples clean

install:
	pip install -e . --no-build-isolation

# tier-1: includes the parallel-backend smoke case; the heavyweight
# multi-process suite is opt-in via `make test-parallel`
test: bench-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# socket legs of the backend matrix carry both markers and run under
# test-distributed only
test-parallel:
	PYTHONPATH=src $(PYTHON) -m pytest -m 'parallel and not distributed'

# seeded fault-injection suite (worker kills, poison tuples, delayed
# acks); the coreutils timeout is a hard stop should recovery ever hang
test-chaos:
	PYTHONPATH=src timeout 600 $(PYTHON) -m pytest -m chaos

# socket-transport suite (worker subprocesses over TCP, including the
# chaos-over-socket acceptance scenario); the suite itself gates on no
# orphaned `repro.worker` processes surviving it
test-distributed:
	PYTHONPATH=src timeout 600 $(PYTHON) -m pytest -m distributed

# elastic worker-pool chaos suite (forced scale/migrate schedules,
# destination kills mid-migration) on pipe and socket;
# three passes back to back, so an outcome that depends on timing fails
# the gate instead of one run in fifteen
test-elastic:
	for pass in 1 2 3; do \
		PYTHONPATH=src timeout 600 $(PYTHON) -m pytest -m elastic || exit 1; \
	done

# the full pre-merge gate: tier-1, the forked backend suite, chaos,
# the socket-transport suite, the elastic suite, the benchmark smokes,
# and a capped soak on every backend
verify: test test-parallel test-chaos test-distributed test-elastic bench-hotpath-smoke bench-throughput-smoke bench-repo-smoke soak-smoke

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate results/ext_scaling.json: throughput vs m for both the
# local and the parallel execution backend (one row per backend/m).
bench-scaling:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_ext_scaling.py --benchmark-only

# Regenerate BENCH_hotpath.json: per-document probe/insert/route
# latencies of the dictionary-encoded hot paths (see docs/performance.md)
bench-hotpath:
	PYTHONPATH=src $(PYTHON) benchmarks/test_micro_hotpath.py

# Fast correctness smoke over the benchmark harness itself: every metric
# is produced and the ship path round-trips on the bench workload,
# without the multi-minute measurement run
bench-hotpath-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_micro_hotpath.py

# One-second-sized pass of the repo benchmark (bench/, BENCHMARK.json):
# its brute-force oracle, the rw_local == rw_pipe2 per-window digests
# and the leak scan, on all four workloads
bench-repo-smoke:
	$(PYTHON) -m pytest bench/ -q

# Fail on >25% per-metric regression vs the committed BENCH_hotpath.json
bench-check:
	PYTHONPATH=src $(PYTHON) scripts/check_bench.py

# Regenerate BENCH_throughput.json: sustained docs/sec and p50/p99 e2e
# latency per (backend x zoo workload), measured by rate-ramped soaks
# until saturation (see docs/soak.md)
bench-throughput:
	PYTHONPATH=src $(PYTHON) benchmarks/test_throughput.py

# Fast correctness smoke over the throughput harness: scaled-down
# local-only soak cells produce sane, healthy metrics
bench-throughput-smoke:
	PYTHONPATH=src timeout 300 $(PYTHON) -m pytest benchmarks/test_throughput.py

# Direction-aware gate vs the committed BENCH_throughput.json:
# throughput drops and latency rises both fail past the threshold
bench-check-throughput:
	PYTHONPATH=src $(PYTHON) scripts/check_bench.py --suite throughput

# Capped long-running-session smoke on every backend: each run ramps an
# adversarial workload for a few seconds and asserts bounded memory and
# monotonic metrics (nonzero exit on violation)
soak-smoke:
	PYTHONPATH=src timeout 60 $(PYTHON) -m repro soak --workload zipf \
		--max-seconds 6 --epoch-windows 2 --assert-memory
	PYTHONPATH=src timeout 90 $(PYTHON) -m repro soak --workload drift \
		--backend parallel --transport pipe --workers 2 --elastic 2:4 \
		--max-seconds 8 --epoch-windows 2 --assert-memory
	PYTHONPATH=src timeout 120 $(PYTHON) -m repro soak --workload burst \
		--backend parallel --transport socket --workers 2 \
		--max-seconds 8 --epoch-windows 2 --assert-memory

# cProfile the parent-side data plane (routing, encoding, shipping,
# barrier bookkeeping) over a benchmark-shaped session — joins on, 2
# pipe workers, 4 warm-up + 40 pushed rwData windows — and print entries
# per document, frames per window and frame bytes per document beside
# the rows; perf PRs against the parent loop start here.  Override with
# e.g. `make profile-parent PROFILE_ARGS='--data nb --transport socket'`.
profile-parent:
	PYTHONPATH=src $(PYTHON) scripts/profile_parent.py $(PROFILE_ARGS)

# Time the FP-tree Joiner's probe/insert loop on rwData and nbData with
# K co-located joiners, gc on and off: us/probe, us/insert, new nodes per
# document and gen-0/1/2 collections, and us per assignment of those K
# joiners beside one shared window index; join perf PRs start here.  Override
# with e.g. `make profile-joiner PROFILE_ARGS='--data nb --isolated'`.
profile-joiner:
	PYTHONPATH=src $(PYTHON) scripts/profile_joiner.py $(PROFILE_ARGS)

# Instrumented smoke run: exercises the observability layer end to end
# and persists the metric snapshot for the report tooling.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro stats --json --out results/obs_smoke.json

figures:
	PYTHONPATH=src $(PYTHON) -m repro figure all --save

report:
	PYTHONPATH=src $(PYTHON) -m repro report --out results/REPORT.md

examples:
	@for f in examples/*.py; do echo "=== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

clean:
	rm -rf results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
