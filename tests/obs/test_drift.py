"""Drift-gate tests: domain filtering, top-k overlap, offset-residual
opcode comparison, the skip rules, and the modeled reference.

Synthetic blocks mimic the real calibration: measured CPython mixes are
data-heavy (~66 % data) while the modeled x86 mixes are compute-heavy
(~45 % compute) — a large *constant* bias the gate must absorb while
still catching per-stage shape changes.
"""

import json

import pytest

from repro.obs import drift
from repro.obs.drift import check_drift, model_reference


def measured_block(families, compute=6.0, control=25.0, data=65.0, other=4.0):
    return {
        "wall_s": 1.0,
        "family_shares": dict(families),
        "opcode_shares": {"compute": compute, "control": control,
                          "data": data, "other": other},
    }


def modeled_block(families, compute=45.0, control=20.0, data=35.0):
    return {
        "family_shares": dict(families),
        "opcode_shares": {"compute": compute, "control": control,
                          "data": data, "other": 0.0},
    }


def agreeing_pair():
    """Measured/modeled cells that agree in shape, differ by the constant
    interpreter offset — the calibrated healthy state."""
    measured = {
        "setup": measured_block({"bigint": 0.5, "ec": 0.45, "msm": 0.01,
                                 "other": 0.04}),
        "proving": measured_block({"ec": 0.6, "bigint": 0.35, "msm": 0.03,
                                   "other": 0.02}),
        "verifying": measured_block({"bigint": 0.95, "pairing": 0.03,
                                     "ec": 0.01, "other": 0.01}),
    }
    modeled = {
        "setup": modeled_block({"bigint": 0.97, "ec": 0.02, "msm": 0.005}),
        "proving": modeled_block({"bigint": 0.96, "ec": 0.02, "msm": 0.01}),
        "verifying": modeled_block({"bigint": 0.98, "pairing": 0.01,
                                    "ec": 0.005}),
    }
    return measured, modeled


class TestAgreement:
    def test_agreeing_cells_pass(self):
        rep = check_drift(*agreeing_pair(), curve="bn128", size=8)
        assert rep.ok
        assert all(s.ok for s in rep.stages)
        assert len(rep.stages) == 3

    def test_constant_opcode_offset_absorbed(self):
        """A uniform measured-modeled bias, however large, is interpreter
        physics, not drift: residuals are zero after offset removal."""
        measured, modeled = agreeing_pair()
        rep = check_drift(measured, modeled)
        # measured compute renormalizes to 6/96*100 = 6.25; modeled is 45.
        assert rep.offsets["compute"] == pytest.approx(-38.75, abs=0.01)
        for s in rep.stages:
            assert s.max_residual == pytest.approx(0.0, abs=1e-9)

    def test_only_common_stages_compared(self):
        measured, modeled = agreeing_pair()
        del modeled["proving"]
        measured["extra"] = measured_block({"bigint": 1.0})
        rep = check_drift(measured, modeled)
        assert [s.stage for s in rep.stages] == ["setup", "verifying"]

    def test_no_common_stages_fails(self):
        rep = check_drift({"setup": measured_block({"bigint": 1.0})},
                          {"proving": modeled_block({"bigint": 1.0})})
        assert not rep.ok  # an empty comparison proves nothing


class TestFunctionDrift:
    def test_scrambled_ranking_fails(self):
        measured, modeled = agreeing_pair()
        modeled["proving"] = modeled_block(
            {"hash": 0.7, "parser": 0.2, "fft": 0.1})
        rep = check_drift(measured, modeled)
        assert not rep.ok
        bad = next(s for s in rep.stages if s.stage == "proving")
        assert not bad.ok_functions
        assert bad.overlap == 0.0
        assert bad.measured_top == ["ec", "bigint", "msm"]

    def test_partial_overlap_honors_min_overlap(self):
        """Top-3 sets sharing one family meet the 1/3 floor; sharing none
        does not."""
        assert (drift.TOP_K, drift.MIN_OVERLAP) == (3, 1.0 / 3.0)
        measured, modeled = agreeing_pair()
        modeled["setup"] = modeled_block(
            {"bigint": 0.9, "fft": 0.06, "hash": 0.04})
        rep = check_drift(measured, modeled)
        assert rep.ok
        assert rep.stages[0].overlap == pytest.approx(1.0 / 3.0)
        modeled["setup"] = modeled_block(
            {"pairing": 0.9, "fft": 0.06, "hash": 0.04})
        rep = check_drift(measured, modeled)
        assert not rep.ok
        assert rep.stages[0].overlap == 0.0

    def test_non_domain_families_ignored(self):
        """Runtime families (malloc, interpreter, page faults) exist only
        in the model; glue ``other`` only in the measurement.  Neither may
        affect the ranking."""
        measured, modeled = agreeing_pair()
        modeled["setup"]["family_shares"].update(
            {"malloc": 0.4, "memcpy": 0.3, "page fault exception handler": 0.2})
        measured["setup"]["family_shares"]["other"] = 0.9
        assert check_drift(measured, modeled).ok

    def test_interpreter_dominated_stage_skipped(self):
        """The modeled witness stage is ~96 % interpreter: below the
        domain-mass floor there is nothing comparable, so the function
        check is skipped rather than judged on noise."""
        measured, modeled = agreeing_pair()
        measured["witness"] = measured_block({"compiler": 0.8, "other": 0.2})
        modeled["witness"] = modeled_block(
            {"interpreter": 0.96, "page fault exception handler": 0.037,
             "bigint": 0.002, "parser": 0.001})
        rep = check_drift(measured, modeled)
        wit = next(s for s in rep.stages if s.stage == "witness")
        assert not wit.functions_checked
        assert wit.ok_functions
        assert rep.ok


class TestOpcodeDrift:
    def test_single_stage_shape_change_fails(self):
        measured, modeled = agreeing_pair()
        modeled["proving"]["opcode_shares"] = {
            "compute": 5.0, "control": 20.0, "data": 75.0, "other": 0.0}
        rep = check_drift(measured, modeled)
        assert not rep.ok
        bad = next(s for s in rep.stages if s.stage == "proving")
        assert not bad.ok_opcodes
        assert bad.max_residual > drift.MAX_RESIDUAL

    def test_single_stage_comparison_has_zero_residual(self):
        """Documented limitation: with one compared stage the mean offset
        absorbs the whole delta, so the opcode gate cannot fire."""
        measured, modeled = agreeing_pair()
        one_m = {"proving": measured["proving"]}
        one_p = {"proving": modeled_block({"bigint": 0.96},
                                          compute=99.0, control=0.5, data=0.5)}
        rep = check_drift(one_m, one_p)
        assert rep.stages[0].max_residual == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("shift, ok", [(21.0, True), (24.0, False)])
    def test_residual_threshold_is_fixed(self, shift, ok):
        """Moving *shift* points of one stage's modeled mix from data to
        compute leaves a residual of 2/3 * shift on that stage (the mean
        offset absorbs the rest): 14 pts passes the 15-pt threshold,
        16 pts fails it."""
        assert drift.MAX_RESIDUAL == 15.0
        measured, modeled = agreeing_pair()
        modeled["proving"]["opcode_shares"].update(
            compute=45.0 + shift, data=35.0 - shift)
        rep = check_drift(measured, modeled)
        proving = next(s for s in rep.stages if s.stage == "proving")
        assert proving.max_residual == pytest.approx(2.0 * shift / 3.0)
        assert rep.ok is ok


class TestRendering:
    def test_text_report(self):
        measured, modeled = agreeing_pair()
        text = check_drift(measured, modeled, curve="bn128", size=8,
                           workload="exponentiate").render_text()
        assert "drift-check exponentiate/bn128/8" in text
        assert "interpreter offsets" in text
        assert "model and measurement agree" in text
        modeled["proving"]["family_shares"] = {"hash": 1.0}
        text = check_drift(measured, modeled).render_text()
        assert "DRIFT" in text and "MODEL DRIFT detected" in text

    def test_json_round_trip(self):
        rep = check_drift(*agreeing_pair(), curve="bn128", size=8,
                          workload="exponentiate")
        doc = json.loads(rep.to_json())
        assert doc["ok"] is True
        assert doc["cell"] == "exponentiate/bn128/8"
        assert {s["stage"] for s in doc["stages"]} == {
            "setup", "proving", "verifying"}
        assert doc["thresholds"]["max_residual_pts"] == 15.0


class TestModelReference:
    def test_reference_matches_measured_blocks_shape(self):
        ref = model_reference("bn128", 64)
        assert set(ref) == {"compile", "setup", "witness", "proving",
                            "verifying"}
        for block in ref.values():
            assert set(block) == {"family_shares", "opcode_shares"}
            assert sum(block["opcode_shares"].values()) == pytest.approx(
                100.0, abs=0.5)
        # The modeled reference agrees with itself, trivially.
        assert check_drift(ref, ref).ok

    def test_domain_families_subset_of_model_families(self):
        from repro.perf.functions import FUNCTION_DESCRIPTIONS

        for fam in drift.DOMAIN_FAMILIES:
            assert fam in FUNCTION_DESCRIPTIONS
