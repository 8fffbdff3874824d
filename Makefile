# Convenience targets; see README.md.

.PHONY: install test lint codelint artifacts slow clean profile \
	chaos deep-profile drift-check parallel-test measured \
	serve loadtest kernel-test bench-test plonk-ratio

# Hypothesis seeds the fault machines run under (override: make chaos
# CHAOS_SEEDS="0 7 42"); a failure replays with the same seed.
CHAOS_SEEDS ?= 0 1 2 3

# One fault machine (tests/resilience/test_workflow_machine.py,
# tests/serve/test_service_machine.py) under one seed: $(call machine,NODE,SEED).
machine = PYTHONPATH=src python -m pytest -q -p no:cacheprovider $(1) \
	--hypothesis-seed=$(2)

# Ledger for the telemetry targets (override on the command line).
PROFILE_LEDGER ?= results/runs/profile.jsonl

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src pytest tests/

lint:
	@command -v ruff >/dev/null 2>&1 && ruff check . \
		|| echo "ruff not installed; skipping source lint"
	PYTHONPATH=src python -m repro lint
	PYTHONPATH=src python -m repro lint --curve bls12_381

# Codebase invariant lints (tools/codelint/README.md): worker-safety,
# determinism, error-discipline, guard-idiom, and deadline-poll checks
# over src/repro.  A repository tool, not part of the package.
codelint:
	python -m tools.codelint

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

# E10's PLONK : Groth16 prove-time test, standalone RUNS times
# (override: make plonk-ratio RUNS=3): prints each run's ratio and the
# median, and fails if any run failed.
RUNS ?= 10
plonk-ratio:
	@fail=0; ratios=""; \
	for i in $$(seq $(RUNS)); do \
		out=$$(PYTHONPATH=src python -m pytest -q -s -p no:cacheprovider \
			tests/paper/test_plonk_vs_groth16.py::test_plonk_prover_slower_than_groth16 \
			2>&1) || fail=1; \
		r=$$(printf '%s\n' "$$out" | sed -n 's/.*(\([0-9.]*\)x slower.*/\1/p'); \
		echo "run $$i: $${r:-no ratio}x"; ratios="$$ratios $$r"; \
	done; \
	python -c 'import statistics, sys; r = [float(v) for v in sys.argv[1:]]; print(f"median {statistics.median(r):.1f}x over {len(r)} runs" if r else "no ratio")' $$ratios; \
	exit $$fail

slow:
	REPRO_SLOW=1 PYTHONPATH=src pytest tests/harness/test_large_scale.py

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

# Model-vs-measured drift gate at the CI cell (docs/PROFILING.md): the
# deep profile judges itself; exit 1 on drift.
drift-check:
	PYTHONPATH=src python -m repro deep-profile --curve bn128 --size 64

# Full serial<->parallel differential matrix, every other suite a pool
# change touches (faults, worker telemetry and its overhead, the run
# context, the pinning rule), plus the pooled workflow fault machine under
# three seeds: faults inside workers end typed (docs/PARALLELISM.md).  Wider than the tier-1 run: sizes 2^6..2^10,
# workers {1,2,3,4}, both curves.
parallel-test:
	REPRO_PARALLEL_FULL=1 PYTHONPATH=src pytest -x -q tests/parallel \
		tests/resilience/test_parallel_faults.py \
		tests/obs/test_worker_telemetry.py tests/obs/test_worker_overhead.py \
		tests/test_context.py tests/test_pinning_rule.py
	@for seed in 0 1 2; do \
		$(call machine,tests/resilience/test_workflow_machine.py::TestPooledWorkflowMachine,$$seed) \
			|| exit 1; \
	done

# Full kernel differential matrix (docs/KERNELS.md): every MSM kernel and
# the front door x curve x size x worker count must match the reference
# kernel bit-for-bit, fast proofs must match fully traced ones, the
# fixed-base batch walk the oracle walk (four groups x 2^6..2^11
# scalars; pk/vk bytes serial and pooled), the fused Fp12 kernels and the
# lockstep line walk their per-operation oracles, the fast pairing its
# reference element-for-element, the charged pairing, P * k, to_affine,
# fixed-base and bucket-method traces the textbook routes executed
# (tests/curves/test_pairing_charge.py, tests/curves/test_curve_charge.py,
# tests/msm/test_fixed_base_charge.py, tests/msm/test_pippenger_charge.py:
# region tree, counts, clock, memory events), the charged NTT and QAP
# column-walk traces the per-operation passes executed
# (tests/poly/test_ntt_charge.py, tests/qap/test_column_charge.py: also
# count order and the address-space cursor), Group.in_subgroup the [r]P
# ladder on a point of every prime order dividing a cofactor, and
# Point.__mul__ double-and-add on 500 examples a group.  Wider than the
# tier-1 run.
kernel-test:
	REPRO_KERNEL_FULL=1 PYTHONPATH=src pytest -x -q tests/msm tests/fields tests/curves \
		tests/poly tests/qap

# Measured Fig. 6 (strong scaling) on real worker processes: per-stage
# speedups, the Amdahl fit, and worker busy time, utilization, imbalance
# and dispatch overhead at the top count; Fig. 7 and Table VI accept the
# same flags (docs/PARALLELISM.md).
MEASURED_WORKERS ?= 1,2,4
measured:
	PYTHONPATH=src python -m repro run fig6 --measured \
		--workers $(MEASURED_WORKERS)

# Foreground proving service under open-loop traffic; SIGTERM (or ^C)
# drains: admission closes, in-flight jobs finish (docs/SERVING.md).
SERVE_RPS ?= 8
SERVE_DURATION ?= 30
serve:
	PYTHONPATH=src python -m repro loadtest --size 64 --rps $(SERVE_RPS) \
		--duration $(SERVE_DURATION)

# Open-loop load smoke: p50/p95/p99 and the phase breakdown (the ledger
# service block; --ledger PATH keeps it), every request typed with phases
# that add up.  Then the service fault machine, serial and pool-backed,
# under three seeds: the same gates under faults, crashes and drains.
LOAD_RPS ?= 16
LOAD_DURATION ?= 3
loadtest:
	PYTHONPATH=src python -m repro loadtest --rps $(LOAD_RPS) \
		--duration $(LOAD_DURATION) --size 32
	@for seed in 0 1 2; do \
		$(call machine,tests/serve/test_service_machine.py::TestServiceMachine,$$seed) \
			|| exit 1; \
		$(call machine,tests/serve/test_service_machine.py::TestPooledServiceMachine,$$seed) \
			|| exit 1; \
	done
	PYTHONPATH=src pytest -x -q tests/serve

# The workflow fault machine under each seed, then the resilience suite.
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		$(call machine,tests/resilience/test_workflow_machine.py::TestWorkflowMachine,$$seed) \
			|| exit 1; \
	done
	PYTHONPATH=src pytest -x -q tests/resilience \
		tests/harness/test_cache_integrity.py

clean:
	rm -rf .repro_cache .pytest_cache .hypothesis \
		results/runs results/prof results/parallel
	find . -name __pycache__ -type d -exec rm -rf {} +
