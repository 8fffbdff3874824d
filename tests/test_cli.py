"""CLI tests (``python -m repro``)."""

import json
import os

import pytest

from repro.cli import ARTIFACTS, build_parser, main


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(l) for l in lines)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_size_parsing(self):
        args = build_parser().parse_args(["run", "fig4", "--sizes", "8,16"])
        assert args.sizes == (8, 16)

    def test_bad_sizes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig4", "--sizes", "0"])


class TestCommands:
    def test_list(self):
        code, out = run_cli(["list"])
        assert code == 0
        for name in ARTIFACTS:
            assert name in out

    def test_prove(self):
        code, out = run_cli(["prove", "--exponent", "4"])
        assert code == 0
        assert "accepted: True" in out
        assert "proving" in out

    def test_run_single_artifact(self, tmp_path):
        code, out = run_cli([
            "run", "table5", "--sizes", "8", "--curves", "bn128",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert "Table5" in out
        assert os.path.exists(tmp_path / "table5.txt")

    def test_run_all_writes_every_artifact(self, tmp_path):
        code, _ = run_cli([
            "run", "all", "--sizes", "8", "--curves", "bn128",
            "--out", str(tmp_path),
        ])
        assert code == 0
        for name in ARTIFACTS:
            assert os.path.exists(tmp_path / f"{name}.txt"), name


class TestKernelBench:
    """``kernel-bench``: msm_auto against the reference kernel.  The input
    is tiny, so the thresholds are set where timing noise cannot reach."""

    BASE = ["kernel-bench", "--size", "64", "--min-cores", "1"]

    def test_ok(self):
        code, out = run_cli(self.BASE + ["--min-speedup", "0.01"])
        assert code == 0
        assert "result identical" in out
        assert "kernel-bench: OK" in out

    def test_speedup_below_threshold_fails(self):
        code, out = run_cli(self.BASE + ["--min-speedup", "1000"])
        assert code == 1
        assert "kernel-bench: FAIL" in out and "1000.00x" in out

    def test_small_runner_skips(self):
        code, out = run_cli(["kernel-bench", "--size", "64",
                             "--min-cores", "999"])
        assert code == 0
        assert "kernel-bench: SKIP" in out

    def test_json_shape(self):
        code, out = run_cli(self.BASE + ["--min-speedup", "0.01", "--json"])
        assert code == 0
        record = json.loads(out[:out.rindex("}") + 1])
        assert set(record) == {"curve", "size", "reference_seconds",
                               "seconds", "speedup", "identical",
                               "min_speedup"}
        assert record["curve"] == "bn128" and record["size"] == 64
        assert record["identical"] is True
        assert record["speedup"] == pytest.approx(
            record["reference_seconds"] / record["seconds"])

    def test_no_kernel_selection(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kernel-bench", "--kernels", "glv"])


class TestCurveValidation:
    """Typos in --curves/--curve fail at parse time with the choices
    listed, instead of a KeyError deep inside the sweep runner."""

    def test_run_rejects_unknown_curve(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig4", "--curves", "bogus"])
        err = capsys.readouterr().err
        assert "unknown curve 'bogus'" in err
        assert "bn128" in err

    def test_run_rejects_one_bad_curve_in_list(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig4", "--curves", "bn128,nope"])

    def test_prove_rejects_unknown_curve(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["prove", "--curve", "bogus"])
        assert "unknown curve" in capsys.readouterr().err

    def test_aliases_accepted(self):
        args = build_parser().parse_args(["run", "fig4", "--curves",
                                          "bn254,bls12-381"])
        assert args.curves == ("bn254", "bls12-381")

    def test_lint_rejects_unknown_curve(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--curve", "bogus"])
        assert "unknown curve" in capsys.readouterr().err
