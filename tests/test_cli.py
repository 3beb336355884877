import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import splitio
from splitio import simloop
from splitio.bench import BenchConfig, CostProfile, emit_report, run_echo
from splitio.cli import main


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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_ipsec_command_defaults_to_lookaside(self, capsys, fmt):
        run = ("--duration", "0.05", "--seed", "7", "--format", fmt)
        code, ipsec_out, _ = run_cli(capsys, "ipsec", *run)
        assert code == 0
        code, lookaside_out, _ = run_cli(capsys, "echo", "--ipsec", "lookaside", *run)
        assert code == 0
        assert ipsec_out == lookaside_out

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

    def test_copy_none_prices_every_copy_at_zero(self, capsys):
        run = ("--duration", "0.01", "--format", "csv")
        code, out, err = run_cli(capsys, "echo", "--copy", "none", *run)
        assert (code, err) == (0, "")
        free_copies = replace(CostProfile(), copy_fixed_ns=0, copy_per_byte_ns=0.0)
        assert out == emit_report(run_echo(BenchConfig(duration_s=0.01, profile=free_copies)), "csv")
        code, single_out, _ = run_cli(capsys, "echo", "--copy", "single", *run)
        assert code == 0
        assert single_out == emit_report(run_echo(BenchConfig(duration_s=0.01)), "csv")
        assert single_out != out

    def test_run_that_sends_nothing_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "echo", "--rate", "0.5", "--duration", "1")
        assert code == 2
        assert out == ""
        assert "sends no packet" in err

    @pytest.mark.parametrize("command", ["echo", "ipsec"])
    def test_run_too_large_to_schedule_exits_two(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--rate", "1e12", "--duration", "0.001")
        assert (code, out) == (2, "")
        assert err == "error: 1000000000 sends of 128 B exceed the 1 GiB an echo run may keep\n"

    def test_run_whose_sends_overflow_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "echo", "--rate", "1e200", "--duration", "1e200")
        assert (code, out) == (2, "")
        assert err.startswith("error: inf sends") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["18446744073709551621", "-1"])
    def test_seed_outside_64_bits_exits_two(self, capsys, seed):
        """The generators keep 64 bits of a seed: 2^64 + 5 would run the
        same bytes as 5, so it is refused rather than aliased."""
        code, out, err = run_cli(capsys, "ipsec", "--seed", seed, "--duration", "0.01")
        assert (code, out) == (2, "")
        assert err == f"error: seed {seed} lies outside [0, 2^64)\n"
        code, _, err = run_cli(capsys, "ipsec", "--seed", str(2**64 - 1), "--duration", "0.01")
        assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("echo", "--rate", "nan"),
        ("echo", "--rate", "inf"),
        ("echo", "--duration", "inf"),
        ("load", "--rate", "nan"),
        ("load", "--duration", "nan"),
    ],
    ids="_".join,
)
def test_non_finite_rate_or_duration_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: rate and duration must be finite\n"


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

    def test_bad_copy_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("copy = maybe\n")
        code, out, err = run_cli(capsys, "echo", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "copy" in err

    def test_missing_equals_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run_cli(capsys, "echo", "--config", str(cfg))
        assert code == 2

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "echo", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2

    def test_file_not_utf8_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = run_cli(capsys, "echo", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read config file {cfg}: not UTF-8 at byte 0\n"


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

    def test_rate_the_link_cannot_carry_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "load", "--rate", "1e12")
        assert (code, out) == (2, "")
        assert err == "error: the link carries no connection of 128 B at 1e+12 packets/s\n"


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
        code, out, _ = run_cli(
            capsys, "echo", "--adversary", str(plan), "--seed", "4", "--duration", "0.01"
        )
        assert code == 0
        report = json.loads(out)
        assert report["breach"] is False
        assert report["outcomes"][0][1] == "rejected"

    def test_protected_corruption_exits_zero(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("corrupt_ciphertext target=a when=1000 offset=24\n")
        code, out, _ = run_cli(
            capsys, "ipsec", "--adversary", str(plan), "--seed", "4", "--duration", "0.01"
        )
        assert code == 0
        assert json.loads(out)["breach"] is False

    def test_inline_corruption_is_rejected_by_the_crypto_worker(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("corrupt_ciphertext target=a when=1000 offset=24\n")
        code, out, _ = run_cli(
            capsys, "echo", "--ipsec", "inline", "--adversary", str(plan), "--seed", "4",
            "--duration", "0.01",
        )
        assert code == 0
        report = json.loads(out)
        assert report["breach"] is False
        assert report["outcomes"] == [["corrupt_ciphertext", "rejected"]]
        # inline: the applications ran no AES of their own
        assert report["counters_a"]["aes_ops"] == report["counters_b"]["aes_ops"] == 0

    def test_load_refuses_a_plan_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "load", "--adversary", "/nonexistent", "--payload", "1000", "--rate", "200"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --adversary") and err.count("\n") == 1

    def test_factors_report_refuses_a_plan_config_key(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        config = tmp_path / "run.conf"
        config.write_text(f"adversary={plan}\n")
        code, out, err = run_cli(capsys, "factors-report", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --adversary") and err.count("\n") == 1

    def test_explicit_json_format_accepted(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        code, out, _ = run_cli(
            capsys, "echo", "--adversary", str(plan), "--format", "json", "--duration", "0.01"
        )
        assert code == 0
        assert "breach" in json.loads(out)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_non_json_format_flag_exits_two(self, capsys, tmp_path, fmt):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        code, out, err = run_cli(capsys, "echo", "--adversary", str(plan), "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: adversary reports render as json") and err.count("\n") == 1

    def test_non_json_format_config_key_exits_two(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        config = tmp_path / "run.conf"
        config.write_text(f"adversary={plan}\nformat=csv\n")
        code, out, err = run_cli(capsys, "ipsec", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: adversary reports render as json") and err.count("\n") == 1

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

    def test_plan_file_not_utf8_exits_two(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_bytes(b"drop_packet target=a\n\xff\xfe\x00bad")
        code, out, err = run_cli(capsys, "echo", "--adversary", str(plan))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read plan {plan}: not UTF-8 at byte 21\n"

    def test_bad_payload_with_plan_exits_two(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        code, out, err = run_cli(capsys, "echo", "--adversary", str(plan), "--payload", "abc")
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad numeric value") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, sent",
        [(("--duration", "0.002"), 10), (("--connections", "3", "--duration", "0.002"), 30)],
    )
    def test_plan_attacks_the_configured_traffic(self, capsys, tmp_path, flags, sent):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        code, out, _ = run_cli(capsys, "echo", "--adversary", str(plan), *flags)
        assert code == 0
        assert len(json.loads(out)["sent"]) == sent

    def test_plan_run_sends_the_configured_payload(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        code, out, _ = run_cli(
            capsys, "ipsec", "--adversary", str(plan), "--payload", "1000", "--duration", "0.002"
        )
        assert code == 0
        report = json.loads(out)
        assert report["sent"] and {len(bytes.fromhex(p)) for p in report["sent"]} == {1000}
        assert {len(bytes.fromhex(p)) for p in report["echoed"]} == {1000}

    @pytest.mark.parametrize(
        "flags",
        [("--duration", "abc"), ("--notification", "carrier-pigeon"), ("--payload", "4000")],
    )
    def test_bad_traffic_flag_with_plan_exits_two(self, capsys, tmp_path, flags):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        code, out, err = run_cli(capsys, "echo", "--adversary", str(plan), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_canary_planted_in_shared_memory_exits_three(self, capsys, tmp_path):
        # Find the region id of port A's shared data slab by building the
        # echo rig the adversary run attacks, then script the device to
        # write the canary pattern there while traffic flows. The
        # end-of-run sweep must notice and report a breach.
        twin = simloop._EchoRig(BenchConfig())
        region = twin.port_a.pools.shared.data_slab.region
        plan = tmp_path / "plan.txt"
        plan.write_text(
            f"tamper_shared target=a when=27000 region={region} offset=0 data={'c396' * 8}\n"
        )
        code, out, _ = run_cli(
            capsys, "echo", "--adversary", str(plan), "--seed", "4", "--duration", "0.01"
        )
        assert code == 3
        assert json.loads(out)["breach"] is True


class TestParserBasics:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["echo", "--warp-speed"])


def test_console_smoke_script(tmp_path):
    """The CI smoke script, run on the source tree: every command it lists
    exits as it expects and every JSON check holds."""
    src = Path(splitio.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # the script's own JSON checks run `python`: the interpreter under test
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env.get("PATH", "")])
    script = Path(__file__).with_name("cli_smoke.sh")
    done = subprocess.run(
        ["sh", str(script), f"{sys.executable} -m splitio.cli", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
