import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fresh_interpreter import run_python, source_env
from splitio import cli, simloop
from splitio.bench import BenchConfig, CostProfile, emit_report, max_connections, run_echo
from splitio.cli import main
from splitio.errors import SplitioError


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
        run = ("--duration", "0.05", "--format", fmt)
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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--copy", "maybe"), "copy must be single or none, got 'maybe'"),
            (("--ipsec", "sideways"), "ipsec must be lookaside or inline, got 'sideways'"),
            (("--format", "xml"), "echo reports render as text or json or csv"),
            (("--rate",), "argument --rate: expected one argument"),
        ],
    )
    def test_bad_flag_value_is_one_line(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "echo", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def _finite_case(argv, message):
    return pytest.param(argv, message, id="_".join(argv))


@pytest.mark.parametrize(
    "argv, message",
    [
        _finite_case(("echo", "--rate", "nan"), "rate and duration must be finite"),
        _finite_case(("echo", "--rate", "inf"), "rate and duration must be finite"),
        _finite_case(("echo", "--duration", "inf"), "rate and duration must be finite"),
        _finite_case(("load", "--rate", "nan"), "rate must be finite"),
        # a load run reads no duration, so it takes no flag for one
        _finite_case(("load", "--duration", "nan"), "unrecognized arguments: --duration nan"),
    ],
)
def test_non_finite_rate_or_duration_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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
        assert "unknown key 'speed' for echo" in err

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
        assert "clamped" not in out

    def test_text_report_names_the_clamp(self, capsys):
        carried = max_connections(BenchConfig().bandwidth_bps, 128, 5000.0)
        code, out, _ = run_cli(capsys, "load", "--connections", "5000")
        assert code == 0
        assert out.splitlines()[-1] == f"clamped    5000 connections to the {carried} the link carries"

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
            capsys, "echo", "--adversary", str(plan), "--duration", "0.01"
        )
        assert code == 0
        report = json.loads(out)
        assert report["breach"] is False
        assert report["outcomes"][0][1] == "rejected"

    def test_protected_corruption_exits_zero(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("corrupt_ciphertext target=a when=1000 offset=24\n")
        code, out, _ = run_cli(
            capsys, "ipsec", "--adversary", str(plan), "--duration", "0.01"
        )
        assert code == 0
        assert json.loads(out)["breach"] is False

    def test_inline_corruption_is_rejected_by_the_crypto_worker(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("corrupt_ciphertext target=a when=1000 offset=24\n")
        code, out, _ = run_cli(
            capsys, "echo", "--ipsec", "inline", "--adversary", str(plan), "--duration", "0.01"
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
        assert (code, out) == (2, "")
        assert err.startswith("error: unrecognized arguments: --adversary") and err.count("\n") == 1

    def test_factors_report_refuses_a_plan_config_key(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("drop_packet target=a count=1\n")
        config = tmp_path / "run.conf"
        config.write_text(f"adversary={plan}\n")
        code, out, err = run_cli(capsys, "factors-report", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: {config}:1: unknown key 'adversary' for factors-report\n"

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
        for text in (
            "summon_gremlins target=a\n",
            "drop_packet target=a count=0\n",
            "drop_packet target=a slot=3\n",
        ):
            plan.write_text(text)
            code, out, err = run_cli(capsys, "echo", "--adversary", str(plan))
            assert (code, out) == (2, "")
            assert err.startswith("error: line 1: ") and err.count("\n") == 1

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
            capsys, "echo", "--adversary", str(plan), "--duration", "0.01"
        )
        assert code == 3
        assert json.loads(out)["breach"] is True


class TestParserBasics:
    def test_missing_command(self, capsys):
        code, out, err = run_cli(capsys)
        assert (code, out, err) == (2, "", "error: the following arguments are required: command\n")

    def test_unknown_flag(self, capsys):
        code, out, err = run_cli(capsys, "echo", "--warp-speed")
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --warp-speed\n")

    @pytest.mark.parametrize("argv", [["-h"], ["echo", "-h"], ["factors-report", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: splitio")

    def test_help_keeps_the_command_table(self, capsys):
        table = [line for line in cli.__doc__.splitlines() if line.startswith("    splitio ")]
        assert len(table) == 4
        with pytest.raises(SystemExit) as exited:
            main(["-h"])
        assert exited.value.code == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line in out for line in table)

    def test_abbreviated_flag_refused(self, capsys):
        code, out, err = run_cli(capsys, "echo", "--dur", "0.01", "--form", "json")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--dur" in err and err.count("\n") == 1


def _exit_case(tmp_path, monkeypatch, case):
    """The argv of one row of the exit-code table, with its files made."""
    plan = tmp_path / "plan.txt"
    if case == "unknown_plan_key":
        plan.write_text("drop_packet target=a slot=3\n")
    elif case == "plan_not_utf8":
        plan.write_bytes(b"drop_packet target=a\n\xff\xfe")
    elif case == "breach":
        plan.write_text(f"tamper_shared target=a when=27000 region=1 offset=0 data={'c396' * 8}\n")
    elif case == "model_refusal":
        def refuse(cfg):
            raise SplitioError("x")

        monkeypatch.setattr(cli, "run_echo", refuse)
    argv = {
        "echo": [],
        "bad_payload": ["--payload", "4"],
        "out_in_missing_dir": ["--out", str(tmp_path / "missing" / "r.txt")],
        "model_refusal": [],
    }.get(case, ["--adversary", str(plan)])
    return ["echo", "--duration", "0.01", *argv]


@pytest.mark.parametrize(
    "case, code",
    [
        ("echo", 0),
        ("bad_payload", 2),
        ("unknown_plan_key", 2),
        ("plan_not_utf8", 2),
        ("out_in_missing_dir", 2),
        ("breach", 3),
        ("model_refusal", 1),
    ],
)
def test_exit_code_follows_the_error_class(capsys, tmp_path, monkeypatch, case, code):
    """ConfigInvalid exits 2 and any other SplitioError 1, each with one
    `error:` line; a breach exits 3 with its report and no error."""
    got, out, err = run_cli(capsys, *_exit_case(tmp_path, monkeypatch, case))
    assert got == code
    if code in (0, 3):
        assert err == "" and out
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
    if case == "model_refusal":
        assert err == "error: x\n"


_LOAD_FLAGS = {"payload", "rate", "connections", "copy", "ipsec", "format", "out", "config"}
_ECHO_FLAGS = _LOAD_FLAGS | {"duration", "notification", "adversary"}
DECLARED = {
    "echo": _ECHO_FLAGS,
    "ipsec": _ECHO_FLAGS,
    "load": _LOAD_FLAGS,
    "factors-report": {"format", "out", "config"},
}
# the flags every command took when each took them all
EVERY_FLAG = _ECHO_FLAGS | {"seed"}
DROPPED = [(command, flag) for command in DECLARED for flag in sorted(EVERY_FLAG - DECLARED[command])]


def declared_flags():
    """Each command's flags, read off the parser main builds."""
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {a.dest for a in sub._actions if a.dest != "help"}
        for name, sub in commands.choices.items()
    }


def drop_one_plan(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("drop_packet target=a count=1\n")
    return str(plan)


class TestDeclaredFlags:
    def test_each_command_declares_what_its_run_reads(self):
        declared = declared_flags()
        assert declared == DECLARED
        assert {c: len(f) for c, f in declared.items()} == {
            "echo": 11, "ipsec": 11, "load": 8, "factors-report": 3,
        }
        assert sum(map(len, declared.values())) == 33
        assert len(DROPPED) == 15

    def test_config_keys_are_the_flags_but_config(self, capsys, tmp_path):
        """A config file takes exactly its command's flags, --config aside:
        all of them at once run, and any other key is refused by name."""
        valid = {
            "payload": "128", "rate": "1000", "connections": "1", "copy": "single",
            "ipsec": "lookaside", "format": "json", "out": str(tmp_path / "report"),
            "duration": "0.01", "notification": "polling", "adversary": drop_one_plan(tmp_path),
            "seed": "4", "config": str(tmp_path / "other.cfg"),
        }
        accepted = 0
        for command, flags in declared_flags().items():
            keys = flags - {"config"}
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text("".join(f"{key}={valid[key]}\n" for key in sorted(keys)))
            code, out, err = run_cli(capsys, command, "--config", str(cfg))
            assert (code, err) == (0, ""), command
            accepted += len(keys)
            for key in sorted(EVERY_FLAG - keys):
                cfg.write_text(f"{key}={valid[key]}\n")
                code, out, err = run_cli(capsys, command, "--config", str(cfg))
                assert (code, out) == (2, "")
                assert err == f"error: {cfg}:1: unknown key {key!r} for {command}\n"
        assert accepted == 29

    @pytest.mark.parametrize("command, flag", DROPPED)
    def test_dropped_flag_refused(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, f"--{flag}", "1")
        assert (code, out, err) == (2, "", f"error: unrecognized arguments: --{flag} 1\n")


# a value for each run flag other than the one the base run uses
_OTHER_VALUE = {
    "payload": "256",
    "rate": "1000",
    "connections": "2",
    "copy": "none",
    "format": "json",
    "duration": "0.02",
    "notification": "interrupt:2000",
}
_OTHER_MODE = {"echo": "lookaside", "ipsec": "inline", "load": "lookaside"}
_BASE_RUN = {"echo": ("--duration", "0.01"), "ipsec": ("--duration", "0.01")}


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command, flags in DECLARED.items()
        for flag in sorted(flags - {"out", "config"})
    ],
)
def test_each_run_flag_changes_the_report(capsys, tmp_path, command, flag):
    """Every flag a command declares, --out and --config aside, reaches its
    report: no flag is accepted and then ignored."""
    if flag == "adversary":
        value = drop_one_plan(tmp_path)
    elif flag == "ipsec":
        value = _OTHER_MODE[command]
    else:
        value = _OTHER_VALUE[flag]
    base = _BASE_RUN.get(command, ())
    code, base_out, _ = run_cli(capsys, command, *base)
    assert code == 0
    code, out, err = run_cli(capsys, command, *base, f"--{flag}", value)
    assert (code, err) == (0, "")
    assert out != base_out


def test_console_smoke_script(tmp_path):
    """The CI smoke script, run on the source tree: every command it lists
    exits as it expects and every JSON check holds. It runs in dev mode,
    which the interpreter flags of this suite do not reach, and no process
    it starts may warn of a leaked resource."""
    env = source_env()
    env["PYTHONDEVMODE"] = "1"
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
    assert "ResourceWarning" not in done.stderr, done.stderr


_PLAIN_THEN_PROTECTED = """
import contextlib, io, json, sys
from splitio.cli import main
loaded = []
for argv in (["echo", "--duration", "0.01"], ["ipsec", "--duration", "0.01"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    loaded.append("cryptography" in sys.modules)
print(json.dumps(loaded))
"""


def test_plain_run_never_loads_the_cipher_library():
    """The AEAD library is imported with the first security association: a
    plain echo run in a fresh interpreter leaves it unloaded, and the ESP
    run after it loads it."""
    done = run_python(_PLAIN_THEN_PROTECTED)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, True]
