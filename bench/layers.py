"""The traced run: one per-layer table per workload, measured from outside.

Layers are this repo's modules.  A traced run sets the workload up under
spans, alternates plain and traced rounds on the same keys for ``--seconds``
(their medians give ``bench.trace_overhead_share``), then derives the table
three ways:

``w``  self time of the bench-side wrappers (``tracing.TARGETS``): span
       duration minus child spans, summed over the traced rounds and divided
       by the number of stage calls (proves, verifies, batches) in them;
``c``  exact counts from ``repro.obs.metrics.collecting()`` and, for the
       pool, ``repro.obs.worker.collecting_tasks()`` — read, never added to;
``µ``  direct-call loops on seeded operands of the workload's curve, for
       the field and curve primitives that are too hot to wrap.

A layer that did no work in the traced rounds of a workload reads 0 there:
that is a measurement (the MSM layer does nothing while proofs are being
verified), and the interaction list in ``README.md`` predicts it.
"""

from __future__ import annotations

import asyncio
import contextlib
import operator
import random
import time

import calibrate
import stats
import tracing
import workloads
from workloads import Outcome, g16_ser

from repro.obs import metrics as obs_metrics
from repro.obs import worker as obs_worker

__all__ = ["micro", "run_traced"]

#: Fewest (plain, traced) pairs of rounds in a traced run.
MIN_TRACED_ROUNDS = 3


# -- µ: direct-call loops --------------------------------------------------------------


def _chain_ns(op, x, y, n):
    """Median over three blocks of the nanoseconds per ``x = op(x, y)``."""
    per = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            x = op(x, y)
        per.append((time.perf_counter() - t0) / n)
    return stats.median(per) * 1e9


def micro(curve, seed):
    """Primitive costs of *curve*'s fields and groups on seeded operands."""
    from repro.curves.pairing import PairingEngine

    rng = random.Random(f"bench:{seed}:micro")
    fr, fq, tower = curve.fr, curve.fq, curve.tower
    a, b = fr.rand_nonzero(rng), fr.rand_nonzero(rng)
    c, d = fq.rand_nonzero(rng), fq.rand_nonzero(rng)
    e2 = (fq.rand_nonzero(rng), fq.rand_nonzero(rng))
    f2 = (fq.rand_nonzero(rng), fq.rand_nonzero(rng))
    g1p, g1q = curve.g1.random_point(rng), curve.g1.random_point(rng)
    g2p, g2q = curve.g2.random_point(rng), curve.g2.random_point(rng)
    eng = PairingEngine(curve)
    e12 = eng.miller_loop(g1p.to_affine(), g2p.to_affine())
    f12 = eng.miller_loop(g1q.to_affine(), g2q.to_affine())
    terms = [(fr.rand(rng), fr.rand(rng)) for _ in range(512)]

    out = {
        "fields.fr_mul_ns": _chain_ns(fr.mul, a, b, 20000),
        "fields.fq_mul_ns": _chain_ns(fq.mul, c, d, 20000),
        "fields.fq_inv_ns": _chain_ns(lambda x, _y: fq.inv(x), c, None, 1000),
        "fields.fq2_mul_ns": _chain_ns(tower.f2_mul, e2, f2, 5000),
        "fields.fq12_mul_ns": _chain_ns(operator.mul, e12, f12, 100),
        "fields.lincomb_ns_per_term":
            _chain_ns(lambda _x, _y: fr.lincomb(terms), 0, None, 10) / len(terms),
        "curves.g1_add_ns": _chain_ns(operator.add, g1p, g1q, 2000),
        "curves.g1_double_ns": _chain_ns(lambda p, _y: p.double(), g1p, None, 2000),
        "curves.g2_add_ns": _chain_ns(operator.add, g2p, g2q, 500),
        "curves.g2_double_ns": _chain_ns(lambda p, _y: p.double(), g2p, None, 500),
    }
    k = fr.rand_nonzero(rng)
    out["curves.g1_mul_s"] = _chain_ns(lambda p, _y: p * k, g1p, None, 3) / 1e9
    # e(-kP, Q) e(P, kQ) e(P, Q) e(-P, Q) == 1: four pairs that must check.
    pairs = [(-(g1p * k), g2p), (g1p, g2p * k), (g1p, g2p), (-g1p, g2p)]
    t0 = time.perf_counter()
    ok = eng.pairing_check(pairs)
    out["curves.pairing_check4_s"] = time.perf_counter() - t0
    return out, ok


# -- w / c: the table from spans and counters -----------------------------------------


def _self(table, key):
    return table.get(key, (0, 0.0, 0))[1]


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _stage_tables(spans, roots):
    """Per stage root: ``(calls, self-time table under that root)``."""
    out = {}
    for root in roots:
        table = tracing.self_times(spans, under=root)
        out[root] = (table.get(root, (0, 0.0, 0))[0], table)
    return out


PROVE = ("groth16", "prove")
VERIFY = ("groth16", "verify")
BATCH = ("groth16", "batch_verify")
SETUP = ("groth16", "setup")


def span_metrics(setup_spans, round_spans, counters):
    """The ``w`` and ``c`` rows: *setup_spans* cover the workload's set-up,
    *round_spans* and *counters* the traced rounds."""
    m = {}
    stages = _stage_tables(round_spans, (PROVE, VERIFY, BATCH))
    n_p, prove = stages[PROVE]
    n_v, verify = stages[VERIFY]
    n_b, batch = stages[BATCH]

    ntt_keys = [("poly", n) for n in ("intt", "coset_ntt", "coset_intt")]
    m["poly.ntt_s"] = _ratio(sum(_self(prove, k) for k in ntt_keys), n_p)
    m["poly.ntt_calls"] = _ratio(sum(prove.get(k, (0,))[0] for k in ntt_keys), n_p)
    m["poly.butterflies"] = _ratio(counters.get("repro_ntt_butterflies_total", 0), n_p)
    m["poly.ntt_ns_per_butterfly"] = _ratio(m["poly.ntt_s"], m["poly.butterflies"], 1e9)

    calls = points = 0
    for g in ("g1", "g2"):
        n_calls, self_s, n_points = prove.get(("msm", g), (0, 0.0, 0))
        m[f"msm.{g}_s"] = _ratio(self_s, n_p)
        m[f"msm.{g}_ns_per_point"] = _ratio(self_s, n_points, 1e9)
        calls += n_calls
        points += n_points
    m["msm.calls"] = _ratio(calls, n_p)
    m["msm.points"] = _ratio(points, n_p)
    for name, counter in (
            ("msm.batch_affine_inversions", "repro_msm_batch_affine_inversions_total"),
            ("msm.glv_decompositions", "repro_msm_glv_decompositions_total"),
            ("msm.fallbacks", "repro_resilience_msm_fallbacks_total")):
        m[name] = _ratio(counters.get(counter, 0), n_p)

    m["qap.compute_h_self_s"] = _ratio(_self(prove, ("qap", "compute_h")), n_p)
    m["groth16.prove_self_s"] = _ratio(_self(prove, PROVE), n_p)
    m["groth16.verify_self_s"] = _ratio(_self(verify, VERIFY), n_v)
    m["curves.miller_loop_s"] = _ratio(_self(verify, ("curves", "miller_loop")), n_v)
    m["curves.final_exp_s"] = _ratio(_self(verify, ("curves", "final_exp")), n_v)
    m["groth16.batch_fold_s"] = _ratio(_self(batch, BATCH), n_b)

    everything = tracing.self_times(round_spans)
    pfb = everything.get(("groth16", "proof_from_bytes"), (0, 0.0, 0))
    m["groth16.proof_from_bytes_s"] = _ratio(pfb[1], pfb[0])
    for name in ("vk_from_bytes", "pk_to_bytes", "pk_from_bytes"):
        m[f"groth16.{name}_s"] = _self(everything, ("groth16", name))

    # Stage self time is what no wrapper below the stage boundary claimed.
    stage_self = stage_wall = 0.0
    for root, (_n, table) in stages.items():
        stage_self += _self(table, root)
        stage_wall += sum(row[1] for row in table.values())
    m["bench.unattributed_share"] = _ratio(stage_self, stage_wall)

    setup = tracing.self_times(setup_spans, under=SETUP)
    whole = tracing.self_times(setup_spans)
    fixed = [whole.get(("msm", f"fixed_base.{g}"), (0, 0.0, 0)) for g in ("g1", "g2")]
    m["msm.fixed_base_s"] = sum(row[1] for row in fixed)
    m["msm.fixed_base_ns_per_scalar"] = _ratio(
        m["msm.fixed_base_s"], sum(row[2] for row in fixed), 1e9)
    m["qap.column_evaluations_s"] = _self(whole, ("qap", "column_evaluations"))
    m["circuit.compile_s"] = _self(whole, ("circuit", "compile"))
    m["groth16.witness_s"] = _self(whole, ("groth16", "witness"))
    m["groth16.setup_self_s"] = _self(setup, SETUP)
    m["bench.unattributed_setup_share"] = _ratio(
        _self(setup, SETUP), sum(row[1] for row in setup.values()))
    return m


def pool_metrics(tel, round_spans, n_proves, workers):
    """The ``parallel`` rows from the pool's own telemetry, per traced prove."""
    if not tel.maps:
        return {}
    totals = tel.totals()
    map_wall = sum(row[1] for key, row in tracing.self_times(round_spans).items()
                   if key[0] == "parallel")
    return {
        "parallel.maps": _ratio(totals["maps"], n_proves),
        "parallel.tasks": _ratio(totals["tasks"], n_proves),
        "parallel.task_busy_s": _ratio(totals["busy_s"], n_proves),
        "parallel.queue_wait_s": _ratio(totals["queue_wait_s"], n_proves),
        "parallel.codec_s": _ratio(totals["encode_s"] + totals["decode_s"], n_proves),
        "parallel.utilization": tel.utilization(),
        "parallel.chunk_imbalance": tel.imbalance(),
        "parallel.task_failures": sum(1 for t in tel.tasks if not t["ok"]),
        "parallel.map_overhead_s": _ratio(
            map_wall - totals["busy_s"] / workers, n_proves),
    }


# -- the traced run of a Groth16 workload ---------------------------------------------


def _codec_stage(workload, out):
    """One traced call of every key codec (proofs are decoded in the rounds
    where the workload takes bytes in)."""
    pk_blob = g16_ser.pk_to_bytes(workload.pk)
    pk2 = g16_ser.pk_from_bytes(pk_blob)
    out.check(g16_ser.pk_to_bytes(pk2) == pk_blob, "proving key round-trips")
    vk_blob = g16_ser.vk_to_bytes(workload.vk)
    vk2 = g16_ser.vk_from_bytes(vk_blob)
    out.check(g16_ser.vk_to_bytes(vk2) == vk_blob, "verifying key round-trips")
    proof_blob = g16_ser.proof_to_bytes(workload.proofs[0])
    g16_ser.proof_from_bytes(proof_blob)
    return len(pk_blob)


def _overhead(plain, traced):
    """Median of the *traced* samples over that of the *plain* ones, less 1."""
    return stats.median(traced) / stats.median(plain) - 1.0


def _trace_g16(workload, seconds, out):
    setup_rec, round_rec = tracing.Recorder(), tracing.Recorder()
    plain, traced = Outcome(), Outcome()
    registry, tel = obs_metrics.MetricsRegistry(), obs_worker.WorkerTelemetry()

    @contextlib.contextmanager
    def tracing_on():
        with obs_metrics.collecting(registry), \
                obs_worker.collecting_tasks(tel), \
                tracing.installed(round_rec):
            yield

    try:
        # Workers are forked here, with nothing rebound: worker internals
        # are not wrapped, the pool rows come from its own telemetry.
        workload.start_pool()
        with tracing.installed(setup_rec):
            workload.prepare()
        workloads.warm_up(workload, out)
        # Plain and traced rounds alternate, so that a drift of the machine
        # does not pass for tracing overhead.
        end = time.perf_counter() + seconds
        pairs = 0
        while pairs < MIN_TRACED_ROUNDS or time.perf_counter() < end:
            workload.round(2 * pairs, plain)
            workload.trace = tracing_on
            workload.round(2 * pairs + 1, traced)
            workload.trace = contextlib.nullcontext
            pairs += 1
        with tracing.installed(round_rec):
            pk_bytes = _codec_stage(workload, out)
        workload.final_checks(out)
    finally:
        workload.close()
    for part in (plain, traced):
        out.absorb_checks(part)

    m = span_metrics(setup_rec.spans, round_rec.spans, registry.counters)
    n_proves = sum(1 for s in round_rec.spans if (s.layer, s.name) == PROVE)
    m.update(pool_metrics(tel, round_rec.spans, n_proves, workload.spec.workers))
    m["parallel.pool_start_s"] = workload.pool_start_s
    if workload.spec.kind == "pool":
        m["parallel.speedup"] = (stats.median(plain.samples["op2"])
                                 / stats.median(plain.samples["op"]))
    m["groth16.proof_bytes"] = traced.detail["proof_bytes"]
    m["groth16.pk_bytes"] = pk_bytes
    m["bench.trace_overhead_share"] = _overhead(plain.samples["op"], traced.samples["op"])
    out.detail["counts"] = {"plain": pairs, "traced": pairs}
    return m, {"setup": setup_rec.rows(), "rounds": round_rec.rows()}


# -- the traced run of the serving workload -------------------------------------------


def _mean_phase(samples, phase):
    ok = [s.result for s in samples if s.ok]
    return _ratio(sum(r.phases.get(phase, 0.0) for r in ok), len(ok))


def serve_metrics(workload, traced, paced, sat, counters):
    from repro.serve.jobs import PHASES

    m = {f"serve.phase.{p}_s": _mean_phase(paced, p) for p in PHASES}
    m["serve.sat.queue_wait_s"] = _mean_phase(sat, "queue_wait")
    m["serve.sat.compute_s"] = _mean_phase(sat, "compute")
    counts = [s["counts"] for s in workload.stats]
    sat_counts = counts[-1]
    m["serve.verify_batches"] = sat_counts["verify_batches"]
    m["serve.mean_batch_size"] = _ratio(
        sum(1 for s in sat if s.kind == "verify" and s.result is not None),
        sat_counts["verify_batches"])
    for name, key in (("shed", "shed"), ("timeouts", "timeout"), ("retries", "retries")):
        m[f"serve.{name}"] = sum(c[key] for c in counts)
    m["serve.start_cold_s"] = workload.start_cold_s
    m["serve.start_warm_s"] = workload.start_warm_s
    m["serve.pkcache_hits"] = counters.get("repro_serve_pk_cache_hits_total", 0)
    m["serve.queue_depth_max"] = max(workload.depths)
    m["serve.loadgen_late_p99_s"] = stats.percentile(
        [s.late for s in paced + sat], 99)
    m["serve.slo_miss_share"] = traced.detail["slo_miss_share"]
    m["serve.goodput_rps"] = 1.0 / stats.median(traced.raw["op2"])
    # p90 only where ten samples lie beyond it; else the sample cannot say.
    latencies = [s.latency for s in paced]
    m["serve.paced_p75_s"] = stats.percentile(latencies, 75)
    m["serve.paced_p90_s"] = (stats.percentile(latencies, 90)
                              if stats.highest_supported(len(latencies)) else 0.0)
    return m


async def _trace_serve(workload, seconds, out):
    setup_rec, round_rec = tracing.Recorder(), tracing.Recorder()
    plain, traced = Outcome(), Outcome()
    segments = workloads.paced_segments(seconds / 2)
    try:
        with tracing.installed(setup_rec):
            await workload.start(out)
        await workload.paced(plain, segments)
        with obs_metrics.collecting() as registry, tracing.installed(round_rec):
            paced = await workload.paced(traced, segments)
            await workload.restart_warm()
            sat = await workload.sat(traced, workloads.sat_segments(seconds))
    finally:
        await workload.stop()
    for part in (plain, traced):
        out.absorb_checks(part)
    m = span_metrics(setup_rec.spans, round_rec.spans, registry.counters)
    m.update(serve_metrics(workload, traced, paced, sat, registry.counters))
    m["bench.trace_overhead_share"] = _overhead(plain.samples["op"], traced.samples["op"])
    m["groth16.proof_bytes"] = workload.proof_bytes
    out.detail["counts"] = {"paced-plain": len(paced), "paced": len(paced),
                            "sat": len(sat)}
    return m, {"setup": setup_rec.rows(), "rounds": round_rec.rows()}


# -- entry ---------------------------------------------------------------------------


def run_traced(workload, seconds):
    """One traced run of *workload*: the returned outcome's metrics are the
    rows of the per-layer table some layer filled (a row that is absent is a
    layer that did no work on this workload), its ``detail["spans"]`` the
    spans behind them."""
    out = Outcome()
    if workload.spec.kind == "serve":
        m, spans = asyncio.run(_trace_serve(workload, seconds, out))
    else:
        m, spans = _trace_g16(workload, seconds, out)
    micro_m, ok = micro(workload.curve, workload.seed)
    out.check(ok, "bilinearity of the four-pair check")
    m.update(micro_m)
    m["bench.machine_speed"] = calibrate.speed(workload.loops)
    out.metrics = m
    out.detail["spans"] = spans
    return out
