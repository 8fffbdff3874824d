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

    def test_prove_and_loadtest_take_single_worker_count(self):
        assert build_parser().parse_args(
            ["prove", "--workers", "2"]).workers == 2
        assert build_parser().parse_args(
            ["loadtest", "--workers", "4"]).workers == 4


class TestCommands:
    def test_prove_with_workers_accepts(self):
        code, out = run_cli(["prove", "--exponent", "8", "--workers", "2"])
        assert code == 0
        assert "accepted: True" in out

    def test_run_measured_fig6(self, tmp_path):
        code, out = run_cli([
            "run", "fig6", "--measured", "--workers", "1,2",
            "--size", "16", "--curve", "bn128",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert "Fig6-measured" in out
        # One table: the Amdahl serial fraction and the worker usage at the
        # top count are columns, one row per stage.
        for column in ("Amdahl ser %", "eff", "busy s", "util", "imbal",
                       "overhead s", "model drift"):
            assert column in out
        assert "proving" in out
        assert (tmp_path / "fig6_measured.txt").read_text().strip() \
            == out.strip()

    def test_run_measured_sweeps_the_one_worker_anchor(self):
        code, out = run_cli(["run", "fig6", "--measured", "--workers", "2",
                             "--size", "16"])
        assert code == 0
        assert "t(1w) s" in out and "t(2w) s" in out

    def test_run_measured_rejects_counter_artifacts(self, capsys):
        code, out = run_cli(["run", "table5", "--measured", "--size", "8"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith(
            "error[value]: --measured supports fig6/fig7/table6, not table5")

    @pytest.mark.parametrize("argv, message", [
        (["run", "fig6", "--measured", "--workers", "1", "--size", "16"],
         "needs a worker count above 1"),
        (["run", "fig6", "--measured", "--size", "16,32"],
         "--measured takes one --size, got 16,32"),
        (["run", "fig6", "--measured", "--size", "16",
          "--curve", "bn128,bls12_381"],
         "--measured takes one --curve, got bn128,bls12_381"),
        (["run", "fig7", "--measured", "--size", "8,16"],
         "--measured takes one --size, got 8,16"),
        (["run", "table6", "--measured", "--workers", "1"],
         "needs a worker count above 1"),
        (["run", "all", "--measured", "--curve", "bn128,bn128"],
         "--measured takes one --curve"),
    ])
    def test_run_measured_rejects_before_measuring(self, capsys, argv,
                                                   message):
        code, out = run_cli(argv)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error[value]: ") and message in err
