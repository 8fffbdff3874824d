"""Accelerator what-if projection (the paper's motivating arithmetic).

The introduction's case for whole-protocol analysis: *PipeZK* accelerates
MSM and polynomial multiplication by ~200x yet speeds the full protocol up
only ~5x, because everything it does not touch becomes the new bottleneck
(Amdahl).  This module makes that projection mechanical: given traced
stage profiles and an accelerator that speeds up chosen *function
families* (the Table IV buckets), it computes the projected stage and
protocol speedups, with an explicit offload overhead per accelerated call
region.

Used by ``tests/paper/test_accel_whatif.py`` to reproduce the
PipeZK-style gap, and available to users sizing their own accelerators::

    from repro.perf.accel import AcceleratorSpec, project_protocol

    pipezk_like = AcceleratorSpec(
        name="msm+ntt ASIC",
        family_speedups={"bigint": 200.0, "msm": 200.0, "fft": 200.0,
                         "ec": 200.0},
        offload_overhead_fraction=0.02,
    )
    report = project_protocol(profiles, pipezk_like)
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AcceleratorSpec", "StageProjection", "ProtocolProjection",
           "project_stage", "project_protocol"]


@dataclass(frozen=True)
class AcceleratorSpec:
    """An accelerator as the analysis sees it.

    ``family_speedups`` maps Table-IV function families (``bigint``,
    ``fft``, ``msm``, ``ec``, ``memcpy``, ...) to the factor by which the
    accelerator shrinks their CPU time.  ``offload_overhead_fraction``
    charges transfer/launch cost proportional to the *accelerated* share
    (a fraction of the original time of the offloaded work that remains on
    the host for marshalling).
    """

    name: str
    family_speedups: dict
    offload_overhead_fraction: float = 0.0

    def __post_init__(self):
        for fam, s in self.family_speedups.items():
            if s < 1.0:
                raise ValueError(f"speedup for {fam!r} must be >= 1, got {s}")
        if not 0.0 <= self.offload_overhead_fraction < 1.0:
            raise ValueError("offload overhead must be in [0, 1)")


@dataclass
class StageProjection:
    """Projected effect of an accelerator on one stage."""

    stage: str
    accelerated_share: float    # fraction of stage time the accelerator covers
    module_speedup: float       # speedup of the covered portion alone
    stage_speedup: float        # resulting whole-stage speedup
    residual_breakdown: dict = field(default_factory=dict)


@dataclass
class ProtocolProjection:
    """Projected effect on the whole five-stage protocol."""

    accelerator: str
    per_stage: dict             # stage -> StageProjection
    protocol_speedup: float
    dominant_residual_stage: str


def project_stage(profile, spec):
    """Amdahl projection of *spec* over one
    :class:`~repro.perf.analysis.StageProfile`."""
    shares = {h.function: h.share for h in profile.functions.hotspots}
    covered = 0.0
    covered_after = 0.0
    for fam, s in spec.family_speedups.items():
        share = shares.get(fam, 0.0)
        covered += share
        covered_after += share / s
    overhead = covered * spec.offload_overhead_fraction
    residual = 1.0 - covered
    new_time = residual + covered_after + overhead
    module_speedup = covered / (covered_after + overhead) if covered else 1.0
    return StageProjection(
        stage=profile.stage,
        accelerated_share=covered,
        module_speedup=module_speedup,
        stage_speedup=1.0 / new_time,
        residual_breakdown={
            fam: share for fam, share in shares.items()
            if fam not in spec.family_speedups and share > 0.01
        },
    )


def project_protocol(profiles, spec, weights=None):
    """Project *spec* over a full ``{stage: StageProfile}`` run.

    *weights* optionally overrides each stage's share of protocol time;
    by default the profiles' modeled cycle counts are used.
    """
    if weights is None:
        weights = {stage: p.cycles for stage, p in profiles.items()}
    total = sum(weights.values())
    per_stage = {stage: project_stage(p, spec) for stage, p in profiles.items()}
    new_total = sum(
        weights[stage] / per_stage[stage].stage_speedup for stage in profiles
    )
    residual_weights = {
        stage: weights[stage] / per_stage[stage].stage_speedup
        for stage in profiles
    }
    dominant = max(residual_weights, key=residual_weights.get)
    return ProtocolProjection(
        accelerator=spec.name,
        per_stage=per_stage,
        protocol_speedup=total / new_total,
        dominant_residual_stage=dominant,
    )
