"""CLI surface of the parallel backend: flags and measured mode."""

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(l) for l in lines)


class TestParser:
    def test_workers_list_parsing(self):
        args = build_parser().parse_args(
            ["run", "fig6", "--measured", "--workers", "1,2,4"])
        assert args.workers == (1, 2, 4)
        assert args.measured

    @pytest.mark.parametrize("raw", ["0", "1,0", "a,b", ""])
    def test_bad_worker_lists_rejected(self, raw):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "fig6", "--measured", "--workers", raw])

    def test_prove_and_chaos_take_single_worker_count(self):
        assert build_parser().parse_args(
            ["prove", "--workers", "2"]).workers == 2
        assert build_parser().parse_args(
            ["chaos", "--workers", "4"]).workers == 4


class TestCommands:
    def test_prove_with_workers_accepts(self):
        code, out = run_cli(["prove", "--exponent", "8", "--workers", "2"])
        assert code == 0
        assert "accepted: True" in out

    def test_run_measured_fig6(self, tmp_path):
        code, out = run_cli([
            "run", "fig6", "--measured", "--workers", "1,2",
            "--sizes", "16", "--curves", "bn128",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert "Fig6-measured" in out
        assert "Amdahl" in out
        # The acceptance contract: the per-stage serial fraction is printed.
        assert "serial" in out and "proving" in out
        assert (tmp_path / "fig6_measured.txt").exists()

    def test_run_measured_rejects_counter_artifacts(self):
        code, out = run_cli(["run", "table5", "--measured", "--sizes", "8"])
        assert code == 2
        assert "--measured supports" in out

    def test_chaos_with_workers_is_acceptable(self):
        code, out = run_cli([
            "chaos", "--seed", "0", "--faults", "2", "--size", "64",
            "--workers", "2",
        ])
        assert code == 0
        assert "outcome:" in out
