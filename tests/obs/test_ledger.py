"""Ledger and fingerprint tests: record schema and JSONL round-trip."""

import json

from repro.obs import fingerprint
from repro.obs.ledger import Ledger, make_record
from tests.conftest import read_jsonl


class TestFingerprint:
    def test_fields_mirror_table1(self):
        fp = fingerprint.machine_fingerprint()
        for key in ("cpu_model", "cores", "python", "implementation",
                    "system", "machine", "hostname"):
            assert key in fp, key
        assert fp["cores"] >= 1
        assert fp["cpu_model"]

    def test_fingerprint_id_stable(self):
        fp = fingerprint.machine_fingerprint()
        assert fingerprint.fingerprint_id(fp) == fingerprint.fingerprint_id(fp)
        assert len(fingerprint.fingerprint_id(fp)) == 12

    def test_git_revision_in_repo(self):
        rev = fingerprint.git_revision()
        # This test tree is a git checkout; elsewhere None is acceptable.
        if rev is not None:
            assert len(rev["rev"]) == 40
            assert isinstance(rev["dirty"], bool)

    def test_git_revision_outside_repo(self, tmp_path):
        assert fingerprint.git_revision(cwd=str(tmp_path)) is None


class TestMakeRecord:
    def test_schema_v4_shape(self):
        rec = make_record(
            kind="profile", curve="bn128", size=64, workload="exponentiate",
            seed=0, stages=[{"stage": "compile", "elapsed_s": 0.01, "span": None}],
            metrics={"counters": {}}, label="unit",
        )
        assert rec["schema"] == 5
        assert rec["kind"] == "profile"
        assert rec["machine_id"] == fingerprint.fingerprint_id(rec["machine"])
        assert rec["ts"] > 0
        assert rec["stages"][0]["stage"] == "compile"
        assert rec["label"] == "unit"
        assert rec["profile"] is None  # unprofiled runs carry no block
        assert rec["workers"] is None  # serial runs carry no workers block
        assert rec["service"] is None  # non-serving runs carry no block
        json.dumps(rec)  # must be JSON-serializable as-is

    def test_record_carries_profile_block(self):
        block = {"profiler": {"backend": "sys.setprofile"}, "stages": {}}
        rec = make_record(
            kind="deep-profile", curve="bn128", size=8,
            workload="exponentiate", seed=0, stages=[], profile=block,
        )
        assert rec["profile"] == block
        json.dumps(rec)

    def test_record_carries_workers_block(self):
        block = {"backend": "process", "workers": 2, "per_worker": {},
                 "maps": [], "tasks": [], "totals": {}}
        rec = make_record(
            kind="profile", curve="bn128", size=64,
            workload="exponentiate", seed=0, stages=[], workers=block,
        )
        assert rec["workers"] == block
        json.dumps(rec)

    def test_record_carries_service_block(self):
        """A loadtest record round-trips the v4 ``service`` block as-is."""
        block = {"rps_target": 8.0, "duration_s": 10.0,
                 "mix": {"prove": 1, "verify": 1},
                 "requests": {"sent": 80, "ok": 70, "shed": 6,
                              "timeout": 4, "error": 0, "unresolved": 0},
                 "latency_s": {"p50": 0.1, "p95": 0.4, "p99": 0.6,
                               "mean": 0.15, "max": 0.7},
                 "throughput_rps": 7.0, "shed_rate": 0.075,
                 "timeout_rate": 0.05, "error_rate": 0.0}
        rec = make_record(
            kind="loadtest", curve="bn128", size=32,
            workload="exponentiate", seed=0, stages=[], service=block,
        )
        assert rec["schema"] == 5
        assert rec["service"] == block
        json.dumps(rec)

    def test_v1_through_v3_records_still_load(self, tmp_path):
        """Pre-upgrade lines — v1 (no profile field, no lifted per-stage
        cpu/rss), v2 (no workers block) and v3 (no service block) — must
        keep loading alongside v4 records."""
        v1 = {"schema": 1, "kind": "profile", "ts": 1.0, "curve": "bn128",
              "size": 64, "workload": "exponentiate", "seed": 0,
              "stages": [{"stage": "compile", "elapsed_s": 0.01,
                          "span": None}], "metrics": None}
        v2 = dict(v1, schema=2, ts=2.0, profile=None)
        v3 = dict(v2, schema=3, ts=3.0, workers=None)
        path = tmp_path / "mixed.jsonl"
        led = Ledger(str(path))
        led.append(v1)
        led.append(v2)
        led.append(v3)
        led.append(make_record(kind="profile", curve="bn128", size=64,
                               workload="exponentiate", seed=0, stages=[]))
        records = read_jsonl(path)
        assert [r["schema"] for r in records] == [1, 2, 3, 5]
        assert "profile" not in records[0]
        assert "workers" not in records[1]
        assert "service" not in records[2]
        assert records[3]["profile"] is None
        assert records[3]["workers"] is None
        assert records[3]["service"] is None


class TestLedgerFile:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "runs" / "led.jsonl"  # parent dir created lazily
        led = Ledger(str(path))
        for i in range(3):
            assert led.append({"schema": 1, "i": i}) == {"schema": 1, "i": i}
        assert [r["i"] for r in read_jsonl(path)] == [0, 1, 2]

    def test_one_sorted_json_line_per_record(self, tmp_path):
        path = tmp_path / "led.jsonl"
        Ledger(str(path)).append({"b": 1, "a": {"d": 2, "c": 3}})
        assert path.read_text() == '{"a": {"c": 3, "d": 2}, "b": 1}\n'
