"""CLI tests (``python -m repro``)."""

import argparse
import os
import re

import pytest

import repro.cli
from repro.cli import ARTIFACTS, build_parser, main

REPO = os.path.join(os.path.dirname(__file__), "..")


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


class TestVerbLists:
    """Every place that enumerates the verbs names exactly the parser's
    sub-commands."""

    @staticmethod
    def braced_verbs(*path):
        with open(os.path.join(REPO, *path)) as f:
            listing = re.search(r"python -m repro\s+\{([^}]*)\}", f.read())
        return set("".join(listing.group(1).split()).split(","))

    def test_docstring_readme_and_verify_skill_agree_with_the_parser(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        verbs = set(sub.choices)
        assert set(re.findall(r"python -m repro ([a-z-]+)",
                              repro.cli.__doc__)) == verbs
        assert self.braced_verbs("README.md") == verbs
        assert self.braced_verbs(".claude", "skills", "verify",
                                 "SKILL.md") == verbs


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
