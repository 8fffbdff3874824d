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

    def test_suppress_codes(self):
        _, noisy = run_cli(["lint", "--circuit", "hash_preimage_4"])
        assert "ZK403" in noisy
        _, quiet = run_cli(["lint", "--circuit", "hash_preimage_4",
                            "--suppress", "ZK403"])
        assert "ZK403" not in quiet

    def test_strict_mode_passes_on_builtins(self):
        # Built-ins carry info diagnostics only, so even --strict is green.
        code, _ = run_cli(["lint", "--strict"])
        assert code == 0

    def test_baseline_roundtrip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        code, out = run_cli(["lint", "--write-baseline", path])
        assert code == 0
        assert "fingerprint" in out
        code, out = run_cli(["lint", "--baseline", path])
        assert code == 0
        assert "ZK403" not in out

    def test_second_curve(self):
        code, _ = run_cli(["lint", "--curve", "bls12_381",
                           "--circuit", "dot_product_8"])
        assert code == 0

    def test_list_mentions_lint(self):
        _, out = run_cli(["list"])
        assert "lint" in out
