"""The ``repro lint`` CLI subcommand."""

import json

from repro.cli import main


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(line) for line in lines)


class TestLintCommand:
    def test_builtins_are_clean(self):
        code, out = run_cli(["lint"])
        assert code == 0
        assert "0 error(s)" in out

    def test_single_circuit(self):
        code, out = run_cli(["lint", "--circuit", "exponentiate"])
        assert code == 0
        assert "exponentiate_64" in out
        assert "hash_preimage" not in out

    def test_unknown_circuit(self, capsys):
        code, out = run_cli(["lint", "--circuit", "nope"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error[value]: unknown circuit 'nope'")
        assert "choose from" in err

    def test_json_output(self):
        code, out = run_cli(["lint", "--circuit", "dot_product_8", "--json"])
        assert code == 0
        payload = json.loads(out)
        (report,) = payload["reports"]
        assert report["circuit"] == "dot_product_8"
        assert report["stats"]["n_constraints"] > 0

    def test_a_warning_alone_fails_without_a_flag(self, monkeypatch):
        # exponentiate against an expected size of 1 trips the ZK402
        # blowup warning and nothing else: lint gates on warnings too.
        from repro.harness import circuits

        real = circuits.lint_targets

        def targets(curve):
            builder, inputs, _expected = real(curve)["exponentiate"]
            return {"exponentiate": (builder, inputs, 1)}

        monkeypatch.setattr(circuits, "lint_targets", targets)
        code, out = run_cli(["lint"])
        assert code == 1
        assert "ZK402 warning" in out
        assert "0 error(s), 1 warning(s)" in out

    def test_second_curve(self):
        code, _ = run_cli(["lint", "--curve", "bls12_381",
                           "--circuit", "dot_product_8"])
        assert code == 0

    def test_list_mentions_lint(self):
        _, out = run_cli(["list"])
        assert "lint" in out
