# Convenience targets; see README.md.

.PHONY: install test lint codelint artifacts slow clean profile \
	chaos deep-profile drift-check parallel-test parallel-report measured \
	serve loadtest pareto kernel-test bench-test

# Seeds for the chaos smoke (override: make chaos CHAOS_SEEDS="0 7 42").
CHAOS_SEEDS ?= 0 1 2 3

# Ledger for the telemetry targets (override on the command line).
PROFILE_LEDGER ?= results/runs/profile.jsonl

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

lint:
	@command -v ruff >/dev/null 2>&1 && ruff check . \
		|| echo "ruff not installed; skipping source lint"
	PYTHONPATH=src python -m repro lint

# Codebase invariant lints (docs/CODELINT.md): worker-safety, determinism,
# error-discipline, guard-idiom, and deadline-poll checks over src/repro.
codelint:
	PYTHONPATH=src python -m repro codelint

# The benchmark's own tests (bench/README.md).  Not part of tier-1
# (testpaths = ["tests"]): the traced pass rebinds program names by string,
# so this is where a rename under src/ shows as a KeyError;
# tests/test_bench_targets.py guards the names alone inside tier-1.
bench-test:
	PYTHONPATH=src python -m pytest bench/ -q

# Regenerate the committed paper artifacts; tests/paper/test_results_golden.py
# holds results/*.txt to what this writes.
artifacts:
	PYTHONPATH=src python -m repro run all --out results/

slow:
	REPRO_SLOW=1 pytest tests/harness/test_large_scale.py

profile:
	PYTHONPATH=src python -m repro profile --curve bn128 --size 64 \
		--ledger $(PROFILE_LEDGER)

# Deep-profile one small cell (deterministic profiling is ~50x slower than
# the bare run, so keep --size small); writes flamegraph artifacts under
# results/prof/ (add --ledger PATH to keep the run record).
DEEP_SIZE ?= 8
deep-profile:
	PYTHONPATH=src python -m repro deep-profile --curve bn128 \
		--size $(DEEP_SIZE)

# Model-vs-measured drift gate (docs/PROFILING.md); exit 1 on drift.
drift-check:
	PYTHONPATH=src python -m repro report --curves bn128 --sizes 64

# Full serial<->parallel differential matrix plus the chaos-under-workers
# seeds (docs/PARALLELISM.md).  Wider than the tier-1 run: sizes 2^6..2^10,
# workers {1,2,4}, both curves.
parallel-test:
	REPRO_PARALLEL_FULL=1 PYTHONPATH=src pytest -x -q tests/parallel
	@for seed in 0 1 2; do \
		PYTHONPATH=src python -m repro chaos --seed $$seed --faults 3 \
			--size 64 --workers 2 || exit 1; \
	done

# Full kernel differential matrix (docs/KERNELS.md): every MSM kernel and
# the front door x curve x size x worker count must match the reference
# kernel bit-for-bit, fast proofs must match fully traced ones, the
# fixed-base batch walk the traced table walk (four groups x 2^6..2^11
# scalars; pk/vk bytes serial and pooled), the fast pairing its reference
# element-for-element, Group.in_subgroup the [r]P ladder on a point of
# every prime order dividing a cofactor, and Point.__mul__ its reference
# on 500 examples a group.  Wider than the tier-1 run.
kernel-test:
	REPRO_KERNEL_FULL=1 PYTHONPATH=src pytest -x -q tests/msm tests/fields tests/curves

# Parallel-efficiency report (docs/PARALLELISM.md): per-stage speedup,
# worker busy time, utilization, imbalance, dispatch overhead, and the
# Amdahl-fit drift, from a measured sweep with worker telemetry on.
REPORT_SIZE ?= 1024
REPORT_WORKERS ?= 1,2,4
parallel-report:
	PYTHONPATH=src python -m repro parallel-report --size $(REPORT_SIZE) \
		--workers $(REPORT_WORKERS)

# Measured Fig. 6 (strong scaling) on real worker processes; Fig. 7 and
# Table VI accept the same flags (docs/PARALLELISM.md).
MEASURED_WORKERS ?= 1,2,4
measured:
	PYTHONPATH=src python -m repro run fig6 --measured \
		--workers $(MEASURED_WORKERS)

# Foreground proving service with synthetic traffic; SIGTERM (or ^C)
# drains: admission closes, in-flight jobs finish, exit 0 (docs/SERVING.md).
SERVE_RPS ?= 8
SERVE_DURATION ?= 30
serve:
	PYTHONPATH=src python -m repro serve --size 64 --rps $(SERVE_RPS) \
		--duration $(SERVE_DURATION)

# Open-loop load smoke + chaos-under-load gate: p50/p95/p99 and the phase
# breakdown (the schema-v5 service block; --ledger PATH keeps it); every
# request must resolve typed even with seeded faults firing inside the
# live service.
LOAD_RPS ?= 16
LOAD_DURATION ?= 3
loadtest:
	PYTHONPATH=src python -m repro loadtest --rps $(LOAD_RPS) \
		--duration $(LOAD_DURATION) --size 32
	@for seed in 0 1 2; do \
		PYTHONPATH=src python -m repro chaos --under-load --seed $$seed \
			--faults 4 --size 32 --rps $(LOAD_RPS) --duration 1.5 \
			|| exit 1; \
	done
	PYTHONPATH=src pytest -x -q tests/serve

# Capacity sweep -> throughput-vs-p99 frontier + knee recommendation
# (docs/CAPACITY.md).  Resumable: interrupted sweeps replay finished
# cells from checksummed checkpoints; make pareto PARETO_FLAGS=--fresh
# discards them.
CAPACITY_LEDGER ?= results/runs/capacity.jsonl
PARETO_FLAGS ?=
pareto:
	PYTHONPATH=src python -m repro pareto --workers 1,2 \
		--batch-windows 0,0.05 --queue-depths 8,32 --rps 8 \
		--duration 2 --size 32 --seed 7 \
		--ledger $(CAPACITY_LEDGER) $(PARETO_FLAGS)

chaos:
	@for seed in $(CHAOS_SEEDS); do \
		PYTHONPATH=src python -m repro chaos --seed $$seed --faults 4 \
			--size 32 || exit 1; \
	done
	PYTHONPATH=src pytest -x -q tests/resilience

clean:
	rm -rf .repro_cache .pytest_cache .hypothesis \
		results/runs results/prof results/checkpoints results/parallel
	find . -name __pycache__ -type d -exec rm -rf {} +
