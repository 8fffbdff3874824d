"""CLI tests (``python -m repro``)."""

import argparse
import os
import re

import pytest

from repro.cli import ARTIFACTS, OPTIONS, VERBS, build_parser, main

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


def verb_parsers():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestVerbLists:
    """The parser, the dispatch and ``repro list`` are generated from
    ``VERBS``; the two prose listings that can still drift name exactly
    its verbs."""

    @staticmethod
    def braced_verbs(*path):
        with open(os.path.join(REPO, *path)) as f:
            listing = re.search(r"python -m repro\s+\{([^}]*)\}", f.read())
        return set("".join(listing.group(1).split()).split(","))

    def test_readme_and_verify_skill_agree_with_the_verb_table(self):
        assert self.braced_verbs("README.md") == set(VERBS)
        assert self.braced_verbs(".claude", "skills", "verify",
                                 "SKILL.md") == set(VERBS)

    def test_parser_and_list_are_generated_from_the_verb_table(self):
        assert list(verb_parsers()) == list(VERBS)
        _, out = run_cli(["list"])
        for name, verb in VERBS.items():
            assert f"  {name:16s}{verb.help}" in out


class TestOptionTable:
    """Each option name means one thing on every verb that carries it."""

    def test_one_type_and_help_per_option_name(self):
        seen = {}
        for verb, parser in verb_parsers().items():
            for action in parser._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                name = (action.option_strings[0] if action.option_strings
                        else action.dest)
                # The type is the table's, or its comma-list form (a tuple
                # of that element); the verb's own default is appended to
                # the one help text.
                element = OPTIONS[name].get("type")
                assert (action.type is element
                        or action.type("1") == (element("1"),)), (verb, name)
                declared = (type(action), action.dest,
                            re.sub(r" \(default: [^)]*\)$", "", action.help))
                assert seen.setdefault(name, declared) == declared, \
                    (verb, name)
        assert len(seen) == 50

    def test_exposed_option_count(self):
        exposed = sum(
            not isinstance(action, argparse._HelpAction)
            for parser in verb_parsers().values()
            for action in parser._actions)
        assert exposed <= 127

    def test_verbs_pass_their_own_defaults_as_data(self):
        sizes = {verb: parser.get_default("size")
                 for verb, parser in verb_parsers().items()
                 if parser.get_default("size") is not None}
        assert sizes == {"profile": 64, "deep-profile": 8,
                         "parallel-report": 4096, "chaos": 32, "serve": 64,
                         "loadtest": 32, "pareto": 32}
        pareto = build_parser().parse_args(["pareto"])
        assert (pareto.workers, pareto.rps) == ((1,), (8.0,))
        assert build_parser().parse_args(["loadtest"]).rps == 8.0


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
