import json

import pytest

from splitio.cli import main
from splitio.devsim import LoopbackSystem


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAST = ("--rate", "500", "--duration", "0.05")


class TestEchoCommand:
    def test_text_report(self, capsys):
        code, out, err = run_cli(capsys, "echo", *FAST)
        assert code == 0
        assert err == ""
        assert "packets   25" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "echo", *FAST, "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 25

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "echo", *FAST, "--format", "csv", "--out", str(path))
        assert code == 0
        assert path.read_text() == out

    def test_unwritable_out_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "echo", *FAST, "--out", "/nonexistent-dir/r.json")
        assert code == 2
        assert err.startswith("error: cannot write /nonexistent-dir/r.json")
        assert err.count("\n") == 1

    def test_ipsec_command_runs(self, capsys):
        code, out, _ = run_cli(capsys, "ipsec", *FAST, "--payload", "96")
        assert code == 0
        assert "packets   25" in out

    def test_bad_numeric_flag(self, capsys):
        code, _, err = run_cli(capsys, "echo", "--rate", "abc")
        assert code == 2
        assert "error:" in err

    def test_bad_notification(self, capsys):
        code, _, err = run_cli(capsys, "echo", "--notification", "carrier-pigeon")
        assert code == 2
        assert "polling or interrupt" in err

    def test_invalid_payload_reaches_validation(self, capsys):
        code, _, err = run_cli(capsys, "echo", "--payload", "4", *FAST)
        assert code == 2

    def test_run_that_sends_nothing_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "echo", "--rate", "0.5", "--duration", "1")
        assert code == 2
        assert out == ""
        assert "sends no packet" in err


class TestConfigFile:
    def test_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rate = 200\nduration = 0.05  # short run\n")
        code, out, _ = run_cli(capsys, "echo", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 10

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rate=200\nduration=0.05\n")
        code, out, _ = run_cli(
            capsys, "echo", "--config", str(cfg), "--rate", "400", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["count"] == 20

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("speed=9000\n")
        code, _, err = run_cli(capsys, "echo", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    def test_missing_equals_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run_cli(capsys, "echo", "--config", str(cfg))
        assert code == 2

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "echo", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2


class TestLoadCommand:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "load", "--payload", "1000", "--rate", "100")
        assert code == 0
        assert "achieved" in out
        assert "no loss observed" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "load", "--rate", "100", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "achieved_bps" in doc and "seconds" in doc

    def test_csv_not_supported(self, capsys):
        code, _, err = run_cli(capsys, "load", "--rate", "100", "--format", "csv")
        assert code == 2
        assert "text or json" in err


class TestFactorsCommand:
    def test_text_tables(self, capsys):
        code, out, _ = run_cli(capsys, "factors-report")
        assert code == 0
        assert "VM+SRIOV" in out
        assert ">50x" in out

    def test_json_tables(self, capsys):
        code, out, _ = run_cli(capsys, "factors-report", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"configurations", "factors", "latency", "baseline"}

    def test_csv_not_supported(self, capsys):
        code, _, err = run_cli(capsys, "factors-report", "--format", "csv")
        assert code == 2


class TestAdversaryRuns:
    def test_denied_forgery_exits_zero(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("forge_address target=a when=1000 region=999 offset=0 length=64\n")
        code, out, _ = run_cli(capsys, "echo", "--adversary", str(plan), "--seed", "4")
        assert code == 0
        report = json.loads(out)
        assert report["breach"] is False
        assert report["outcomes"][0][1] == "rejected"

    def test_protected_corruption_exits_zero(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("corrupt_ciphertext target=a when=1000 offset=24\n")
        code, out, _ = run_cli(capsys, "ipsec", "--adversary", str(plan), "--seed", "4")
        assert code == 0
        assert json.loads(out)["breach"] is False

    def test_bad_plan_exits_two(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("summon_gremlins target=a\n")
        code, _, err = run_cli(capsys, "echo", "--adversary", str(plan))
        assert code == 2

    def test_missing_plan_file_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "echo", "--adversary", str(tmp_path / "missing"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read plan") and err.count("\n") == 1

    def test_bad_payload_with_plan_exits_two(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        code, out, err = run_cli(capsys, "echo", "--adversary", str(plan), "--payload", "abc")
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad numeric value") and err.count("\n") == 1

    def test_canary_planted_in_shared_memory_exits_three(self, capsys, tmp_path):
        # Find the region id of port A's shared data slab by building the
        # same loopback rig the adversary runner does, then script the
        # device to write the canary pattern there after traffic drains.
        # The end-of-run sweep must notice and report a breach.
        twin = LoopbackSystem(ring_capacity=8)
        region = twin.port_a.pools.shared.data_slab.region
        plan = tmp_path / "plan.txt"
        plan.write_text(
            f"tamper_shared target=a when=27000 region={region} offset=0 data={'c396' * 8}\n"
        )
        code, out, _ = run_cli(capsys, "echo", "--adversary", str(plan), "--seed", "4")
        assert code == 3
        assert json.loads(out)["breach"] is True


class TestParserBasics:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["echo", "--warp-speed"])
