"""Model-vs-measured drift gate: keep ``repro.perf`` honest.

EXPERIMENTS.md's contract is that the *shapes* of the modeled analyses are
the reproduction target.  This module enforces that contract against real
execution: the deep profiler (:mod:`repro.obs.prof`) measures what the
interpreter actually ran, the cost model (:mod:`repro.perf`) predicts it,
and :func:`check_drift` fails (exit 1 through ``python -m repro
deep-profile``, which checks the profile it just took) when the two
disagree beyond calibrated thresholds — so the model can no longer drift
silently as the codebase grows.

Two comparisons per stage:

**Hot-function ranking** (Table IV).  Measured self-time family shares and
modeled cycle shares are filtered to the *domain* families both sides can
attribute (:data:`DOMAIN_FAMILIES` — runtime families like ``malloc`` or
``interpreter`` exist only in the model, Python-glue ``other`` only in the
measurement), renormalized, and the top-:data:`TOP_K` sets must overlap
by at least :data:`MIN_OVERLAP`.  Stages where either side's domain mass
is below :data:`MIN_DOMAIN_MASS` are skipped — the modeled witness stage,
for example, is deliberately interpreter-dominated, leaving nothing
comparable.

**Opcode-class shares** (Table V).  CPython's stack machine systematically
inflates data movement over an x86 stream (every operand is a ``LOAD_*``),
so raw share deltas are dominated by a large *constant* interpreter bias
(compute ≈ −36 pts, data ≈ +34 pts at calibration time).  The gate
therefore removes the mean measured−modeled offset per class across
stages and checks the per-stage **residuals**: the cross-stage shape must
agree even though the absolute mixes cannot.  Residuals were ≤ 9 pts at
calibration; the threshold (:data:`MAX_RESIDUAL`) is 15.  (Consequence:
offsets need at least two compared stages — a single-stage comparison has
zero residual by construction.)

Retuning: see docs/PROFILING.md.  Thresholds are deliberate constants,
not environment knobs — loosen them in code, with a comment saying what
changed in the model or the interpreter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "DOMAIN_FAMILIES",
    "MAX_RESIDUAL",
    "MIN_DOMAIN_MASS",
    "MIN_OVERLAP",
    "TOP_K",
    "DriftReport",
    "StageDrift",
    "check_drift",
    "model_reference",
]

#: Function families attributable by both the model and the measurement.
DOMAIN_FAMILIES = ("bigint", "ec", "fft", "msm", "pairing", "hash",
                   "compiler", "parser")

#: The three comparable opcode classes (the measured ``other`` bucket is
#: interpreter bookkeeping and is dropped before renormalizing).
_OPC3 = ("compute", "control", "data")

TOP_K = 3
MIN_OVERLAP = 1.0 / 3.0
MAX_RESIDUAL = 15.0        # percentage points
MIN_DOMAIN_MASS = 0.05


def model_reference(curve, size, workload="exponentiate", seed=0):
    """The modeled prediction for one cell, in the same shape the deep
    profiler emits (:meth:`~repro.obs.prof.DeepProfiler.measured_blocks`):
    ``{stage: {"family_shares": ..., "opcode_shares": ...}}``.

    Built from the harness's :func:`~repro.harness.runner.profile_run`
    (cached, deterministic), so the reference is exactly what Tables IV/V
    report.
    """
    from repro.harness.runner import profile_run

    profiles = profile_run(curve, size, seed=seed, workload=workload)
    ref = {}
    for stage, p in profiles.items():
        mix = p.opcode_mix
        ref[stage] = {
            "family_shares": {h.function: h.share
                              for h in p.functions.hotspots},
            "opcode_shares": {
                "compute": mix.compute_pct,
                "control": mix.control_pct,
                "data": mix.data_pct,
                "other": 0.0,
            },
        }
    return ref


def _domain_shares(shares):
    """Filter to :data:`DOMAIN_FAMILIES` and renormalize; also returns the
    pre-normalization domain mass."""
    dom = {f: shares.get(f, 0.0) for f in DOMAIN_FAMILIES if shares.get(f, 0.0) > 0}
    mass = sum(dom.values())
    if mass <= 0:
        return {}, 0.0
    return {f: v / mass for f, v in dom.items()}, mass


def _top_families(shares, k):
    return [f for f, _v in sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]


def _opc3(shares):
    """Renormalize an opcode-share mapping over the three comparable
    classes (percent)."""
    total = sum(float(shares.get(c, 0.0)) for c in _OPC3)
    if total <= 0:
        return None
    return {c: 100.0 * float(shares.get(c, 0.0)) / total for c in _OPC3}


@dataclass
class StageDrift:
    """Drift verdict for one protocol stage."""

    stage: str
    functions_checked: bool
    overlap: float                # |top-k ∩ top-k| / k (1.0 when skipped)
    measured_top: list
    modeled_top: list
    residuals: dict               # class -> offset-corrected delta (pts)
    max_residual: float
    ok_functions: bool = True
    ok_opcodes: bool = True

    @property
    def ok(self):
        return self.ok_functions and self.ok_opcodes

    def to_dict(self):
        return {
            "stage": self.stage,
            "ok": self.ok,
            "functions": {
                "checked": self.functions_checked,
                "ok": self.ok_functions,
                "overlap": round(self.overlap, 3),
                "measured_top": self.measured_top,
                "modeled_top": self.modeled_top,
            },
            "opcodes": {
                "ok": self.ok_opcodes,
                "residuals_pts": {k: round(v, 2)
                                  for k, v in self.residuals.items()},
                "max_residual_pts": round(self.max_residual, 2),
            },
        }


@dataclass
class DriftReport:
    """Drift verdicts for one (curve, size, workload) cell."""

    curve: str
    size: int
    workload: str
    stages: list                  # [StageDrift]
    offsets: dict                 # class -> mean measured-modeled offset (pts)

    @property
    def ok(self):
        return bool(self.stages) and all(s.ok for s in self.stages)

    @property
    def cell(self):
        return f"{self.workload}/{self.curve}/{self.size}"

    def render_text(self):
        lines = [
            f"drift-check {self.cell}: top-{TOP_K} overlap >= "
            f"{MIN_OVERLAP:.2f}, opcode residual <= "
            f"{MAX_RESIDUAL:.0f} pts",
            "  interpreter offsets (measured-modeled, pts): "
            + ", ".join(f"{c} {self.offsets.get(c, 0.0):+.1f}" for c in _OPC3),
        ]
        for s in self.stages:
            mark = "ok   " if s.ok else "DRIFT"
            if s.functions_checked:
                fn = (f"fn overlap {s.overlap:.2f} "
                      f"(measured {','.join(s.measured_top)} | "
                      f"modeled {','.join(s.modeled_top)})")
            else:
                fn = "fn skipped (domain mass below floor)"
            lines.append(
                f"  {mark} {s.stage:<10} {fn}; "
                f"opc residual {s.max_residual:.1f} pts"
            )
        lines.append("result: " + ("model and measurement agree"
                                   if self.ok else "MODEL DRIFT detected"))
        return "\n".join(lines)

    def to_dict(self):
        return {
            "cell": self.cell,
            "ok": self.ok,
            "offsets_pts": {k: round(v, 2) for k, v in self.offsets.items()},
            "thresholds": {
                "top_k": TOP_K,
                "min_overlap": MIN_OVERLAP,
                "max_residual_pts": MAX_RESIDUAL,
                "min_domain_mass": MIN_DOMAIN_MASS,
            },
            "stages": [s.to_dict() for s in self.stages],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def check_drift(measured, modeled, curve="?", size=0, workload="?"):
    """Compare measured against modeled blocks for one cell.

    Both inputs are ``{stage: {"family_shares": {family: fraction},
    "opcode_shares": {class: percent}}}`` — the deep profiler's
    :meth:`~repro.obs.prof.DeepProfiler.measured_blocks` shape on one
    side, :func:`model_reference` on the other.  Only stages present in
    both are compared.
    """
    stages = [s for s in measured if s in modeled]

    # Opcode offsets: the mean measured-modeled delta per class, the
    # constant interpreter bias removed before judging residuals.
    deltas = {}
    for stage in stages:
        m3 = _opc3(measured[stage].get("opcode_shares", {}))
        p3 = _opc3(modeled[stage].get("opcode_shares", {}))
        if m3 is None or p3 is None:
            continue
        deltas[stage] = {c: m3[c] - p3[c] for c in _OPC3}
    offsets = {
        c: (sum(d[c] for d in deltas.values()) / len(deltas)) if deltas else 0.0
        for c in _OPC3
    }

    results = []
    for stage in stages:
        meas_dom, meas_mass = _domain_shares(
            measured[stage].get("family_shares", {}))
        model_dom, model_mass = _domain_shares(
            modeled[stage].get("family_shares", {}))
        checked = (meas_mass >= MIN_DOMAIN_MASS
                   and model_mass >= MIN_DOMAIN_MASS)
        if checked:
            meas_top = _top_families(meas_dom, TOP_K)
            model_top = _top_families(model_dom, TOP_K)
            overlap = len(set(meas_top) & set(model_top)) / TOP_K
            ok_functions = overlap >= MIN_OVERLAP
        else:
            meas_top, model_top = [], []
            overlap, ok_functions = 1.0, True

        residuals = {}
        if stage in deltas:
            residuals = {c: deltas[stage][c] - offsets[c] for c in _OPC3}
        max_res = max((abs(v) for v in residuals.values()), default=0.0)
        results.append(StageDrift(
            stage=stage,
            functions_checked=checked,
            overlap=overlap,
            measured_top=meas_top,
            modeled_top=model_top,
            residuals=residuals,
            max_residual=max_res,
            ok_functions=ok_functions,
            ok_opcodes=max_res <= MAX_RESIDUAL,
        ))

    return DriftReport(curve=curve, size=size, workload=workload,
                       stages=results, offsets=offsets)
