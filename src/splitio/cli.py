"""Command-line front end.

    splitio echo            round-trip latency through the full stack
    splitio ipsec           the same run with ESP protection on
    splitio load            ramped throughput (fluid model), loss onset
    splitio factors-report  the overhead-factor matrix and latency table

Each command takes only the flags its run reads. A config file (--config)
holds any of the command's other flags as `key=value` lines; explicit flags
override file values. Exit status: 0 on success; 2 for anything wrong with
the command line, the configuration or a plan, and 1 for any other refusal,
each with one `error:` line; 3 when an adversary run detects an invariant
violation. Adversary reports are JSON only.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

from . import factors
from .bench import BenchConfig, CostProfile, emit_report, run_echo, run_load
from .devsim import AdversaryPlan
from .errors import ConfigInvalid, SplitioError
from .ipsec import OffloadMode
from .simloop import run_echo_attack

_CANARY = b"\xc3\x96" * 8  # planted in private memory; the breach scan looks for it

_REPORT_KIND = {"echo": "echo", "ipsec": "echo", "load": "load", "factors-report": "factor"}
# the formats each kind of report renders in; the first is the default
_FORMATS = {
    "echo": ("text", "json", "csv"),
    "load": ("text", "json"),
    "factor": ("text", "json"),
    "adversary": ("json",),
}

# every flag: its default and its help
_FLAGS = {
    "payload": ("128", "payload length in bytes"),
    "rate": ("5000", "packets per second per connection"),
    "connections": ("1", "concurrent connections"),
    "copy": ("single", "copy cost model"),
    "ipsec": (None, "offload mode"),
    "format": (None, "output format"),
    "out": (None, "also write the report to this path"),
    "duration": ("1.0", "run length in seconds"),
    "notification": ("polling", "polling or interrupt:<exit cost ns>"),
    "adversary": (None, "attack the run with this adversary plan file"),
}

# the flags each command's run reads, and its help; --config comes with each
_LOAD_FLAGS = ("payload", "rate", "connections", "copy", "ipsec", "format", "out")
_ECHO_FLAGS = _LOAD_FLAGS + ("duration", "notification", "adversary")
_COMMANDS = {
    "echo": (_ECHO_FLAGS, "round-trip latency run"),
    "ipsec": (_ECHO_FLAGS, "latency run with ESP protection"),
    "load": (_LOAD_FLAGS, "ramped throughput run"),
    "factors-report": (("format", "out"), "overhead-factor tables"),
}


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line as a bad config file is refused: one
    `error:` line from main, exit 2."""

    def error(self, message: str):
        raise ConfigInvalid(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitio",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (flags, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for key in flags:
            cmd.add_argument(f"--{key}", help=_FLAGS[key][1])
        cmd.add_argument("--config", help="key=value file holding any of the flags above")
    return parser


def _read_config_file(path: str, command: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: not UTF-8 at byte {exc.start}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _COMMANDS[command][0]:
            raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r} for {command}")
        values[key] = val
    return values


def _merged_values(args: argparse.Namespace) -> dict[str, Optional[str]]:
    """Every flag's value: the command's own from its flags or config file,
    the rest at their defaults."""
    values = {key: default for key, (default, _) in _FLAGS.items()}
    if args.config:
        values.update(_read_config_file(args.config, args.command))
    for key in _COMMANDS[args.command][0]:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return values


def _parse_notification(text: str) -> Optional[int]:
    """The exit cost in ns of interrupt:<ns>; None for polling."""
    if text == "polling":
        return None
    if text.startswith("interrupt:"):
        try:
            return int(text.split(":", 1)[1], 0)
        except ValueError:
            raise ConfigInvalid(f"bad exit cost in {text!r}") from None
    raise ConfigInvalid(f"notification must be polling or interrupt:<ns>, got {text!r}")


def _offload_mode(values: dict[str, Optional[str]]) -> OffloadMode:
    """The --ipsec mode; look-aside when none is given."""
    try:
        return OffloadMode(values["ipsec"] or OffloadMode.LOOKASIDE.value)
    except ValueError:
        modes = " or ".join(mode.value for mode in OffloadMode)
        raise ConfigInvalid(f"ipsec must be {modes}, got {values['ipsec']!r}") from None


def _copy_profile(copy: Optional[str]) -> CostProfile:
    """The default profile; --copy none prices every copy at zero."""
    if copy == "single":
        return CostProfile()
    if copy == "none":
        return replace(CostProfile(), copy_fixed_ns=0, copy_per_byte_ns=0.0)
    raise ConfigInvalid(f"copy must be single or none, got {copy!r}")


def _build_config(values: dict[str, Optional[str]], protected: bool) -> BenchConfig:
    try:
        payload = int(values["payload"], 0)
        rate = float(values["rate"])
        connections = int(values["connections"], 0)
        duration = float(values["duration"])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad numeric value: {exc}") from None
    return BenchConfig(
        payload_len=payload,
        rate_pps=rate,
        connections=connections,
        duration_s=duration,
        interrupt_exit_ns=_parse_notification(values["notification"]),
        ipsec=_offload_mode(values) if protected else None,
        profile=_copy_profile(values["copy"]),
    )


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigInvalid(f"cannot write {path}: {exc}") from exc


def _load_text(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    onset = (
        f"loss onset at {report.loss_onset_connections} connections"
        f" (second {report.loss_onset_second})"
        if report.loss_onset_connections is not None
        else "no loss observed"
    )
    clamp = (
        f"clamped    {report.clamped_from} connections to the"
        f" {report.seconds[-1].connections} the link carries\n"
        if report.clamped_from is not None
        else ""
    )
    return (
        f"achieved   {report.achieved_bps / 1e9:.3f} Gbit/s\n"
        f"capacity   {report.capacity_pps:.0f} packets/s\n"
        f"{onset}\n{clamp}"
    )


def _run(command: str, values: dict[str, Optional[str]]) -> tuple[str, int]:
    """The report command prints, and its exit status."""
    kind = "adversary" if values["adversary"] else _REPORT_KIND[command]
    formats = _FORMATS[kind]
    fmt = values["format"] or formats[0]
    if fmt not in formats:
        raise ConfigInvalid(f"{kind} reports render as {' or '.join(formats)}")
    if kind == "factor":
        text = factors.render_report(fmt)
        return (text if text.endswith("\n") else text + "\n"), 0
    cfg = _build_config(values, protected=command == "ipsec" or bool(values["ipsec"]))
    if kind == "load":
        return _load_text(run_load(cfg), fmt), 0
    if kind == "echo":
        return emit_report(run_echo(cfg), fmt), 0
    report = run_echo_attack(cfg, AdversaryPlan.load(values["adversary"]), canary=_CANARY)
    return json.dumps(report.to_dict(), indent=2) + "\n", 3 if report.breach else 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        values = _merged_values(args)
        text, code = _run(args.command, values)
        print(text, end="")
        _write_out(text, values["out"])
        return code
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SplitioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
