"""Command-line front end.

    splitio echo            round-trip latency through the full stack
    splitio ipsec           the same run with ESP protection on
    splitio load            ramped throughput (fluid model), loss onset
    splitio factors-report  the overhead-factor matrix and latency table

A config file (--config) holds the same keys as the flags, one `key=value`
per line; explicit flags override file values. Exit status: 0 on success,
2 for anything wrong with the configuration, 3 when an adversary run
detects an invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import factors
from .bench import (
    BenchConfig,
    CopyModel,
    Notification,
    Workload,
    emit_report,
    run_echo,
    run_load,
)
from .devsim import AdversaryPlan, run_adversary
from .errors import (
    BadPlan,
    BadSaConfig,
    ConfigInvalid,
    ReportIoError,
    SplitioError,
    ZeroArgument,
)
from .ipsec import OffloadMode, PortProtect, esp_sa_pairs, sa_keys

_ADVERSARY_KEY_TWEAK = 0x1B57_EC00

_DEFAULTS = {
    "payload": "128",
    "rate": "5000",
    "connections": "1",
    "duration": "1.0",
    "notification": "polling",
    "copy": "single",
    "ipsec": None,
    "seed": "0",
    "format": "text",
    "out": None,
    "adversary": None,
}

_FLAG_KEYS = tuple(_DEFAULTS)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--payload", help="payload length in bytes")
    common.add_argument("--rate", help="packets per second per connection")
    common.add_argument("--connections", help="concurrent connections")
    common.add_argument("--duration", help="run length in seconds")
    common.add_argument(
        "--notification", help="polling or interrupt:<exit cost ns>"
    )
    common.add_argument("--copy", choices=["single", "none"], help="copy cost model")
    common.add_argument("--ipsec", choices=["lookaside", "inline"], help="offload mode")
    common.add_argument("--seed", help="PRNG seed")
    common.add_argument("--format", choices=["text", "json", "csv"], help="output format")
    common.add_argument("--out", help="also write the report to this path")
    common.add_argument("--adversary", help="run this adversary plan file instead")
    common.add_argument("--config", help="key=value file mirroring the flags")

    parser = argparse.ArgumentParser(prog="splitio", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("echo", parents=[common], help="round-trip latency run")
    sub.add_parser("ipsec", parents=[common], help="latency run with ESP protection")
    sub.add_parser("load", parents=[common], help="ramped throughput run")
    sub.add_parser("factors-report", parents=[common], help="overhead-factor tables")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _FLAG_KEYS:
            raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


def _merged_values(args: argparse.Namespace) -> dict[str, Optional[str]]:
    values = dict(_DEFAULTS)
    if args.config:
        values.update(_read_config_file(args.config))
    for key in _FLAG_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return values


def _parse_notification(text: str) -> Notification:
    if text == "polling":
        return Notification.polling()
    if text.startswith("interrupt:"):
        try:
            cost = int(text.split(":", 1)[1], 0)
        except ValueError:
            raise ConfigInvalid(f"bad exit cost in {text!r}") from None
        return Notification.interrupt(cost)
    raise ConfigInvalid(f"notification must be polling or interrupt:<ns>, got {text!r}")


def _build_config(values: dict[str, Optional[str]], workload: Workload) -> BenchConfig:
    try:
        payload = int(values["payload"], 0)
        rate = float(values["rate"])
        connections = int(values["connections"], 0)
        duration = float(values["duration"])
        seed = int(values["seed"], 0)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad numeric value: {exc}") from None
    try:
        ipsec = OffloadMode(values["ipsec"]) if values["ipsec"] else None
        copy_model = CopyModel(values["copy"])
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
    return BenchConfig(
        workload=workload,
        payload_len=payload,
        rate_pps=rate,
        connections=connections,
        duration_s=duration,
        notification=_parse_notification(values["notification"]),
        copy_model=copy_model,
        ipsec=ipsec,
        seed=seed,
    )


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ReportIoError(f"cannot write {path}: {exc}") from exc


def _adversary_protect_factory(seed: int):
    """Deterministic SA pairs for a protected adversary run, and the keys
    the breach scan looks for."""
    seed ^= _ADVERSARY_KEY_TWEAK

    def factory(system):
        (a_out, a_in), (b_out, b_in) = esp_sa_pairs(system.mem_a, system.mem_b, seed)
        return PortProtect(system.port_a, a_out, a_in), PortProtect(system.port_b, b_out, b_in)

    key_ab, _, key_ba, _ = sa_keys(seed)
    return factory, [key_ab, key_ba]


def _run_adversary_command(values: dict[str, Optional[str]], protected: bool) -> int:
    try:
        seed = int(values["seed"], 0)
        payload = min(int(values["payload"], 0), 256)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad numeric value: {exc}") from None
    plan = AdversaryPlan.load(values["adversary"])
    factory = None
    secrets = None
    if protected:
        factory, secrets = _adversary_protect_factory(seed)
    report = run_adversary(
        plan,
        packets=8,
        payload_len=max(payload, 16),
        canary=b"\xc3\x96" * 8,
        secret_patterns=secrets,
        protect_factory=factory,
        seed=seed,
    )
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    print(text, end="")
    _write_out(text, values["out"])
    return 3 if report.breach else 0


def _run_echo_command(values: dict[str, Optional[str]], workload: Workload) -> int:
    cfg = _build_config(values, workload)
    stats = run_echo(cfg)
    text = emit_report(stats, fmt=values["format"] or "text")
    print(text, end="")
    _write_out(text, values["out"])
    return 0


def _run_load_command(values: dict[str, Optional[str]]) -> int:
    workload = Workload.IPSEC_LOAD if values["ipsec"] else Workload.UDP_LOAD
    cfg = _build_config(values, workload)
    report = run_load(cfg)
    fmt = values["format"] or "text"
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    elif fmt == "text":
        onset = (
            f"loss onset at {report.loss_onset_connections} connections"
            f" (second {report.loss_onset_second})"
            if report.loss_onset_connections is not None
            else "no loss observed"
        )
        text = (
            f"achieved   {report.achieved_bps / 1e9:.3f} Gbit/s\n"
            f"capacity   {report.capacity_pps:.0f} packets/s\n"
            f"{onset}\n"
        )
    else:
        raise ConfigInvalid("load reports render as text or json")
    print(text, end="")
    _write_out(text, values["out"])
    return 0


def _run_factors_command(values: dict[str, Optional[str]]) -> int:
    fmt = values["format"] or "text"
    if fmt not in ("text", "json"):
        raise ConfigInvalid("factor reports render as text or json")
    text = factors.render_report(fmt)
    if not text.endswith("\n"):
        text += "\n"
    print(text, end="")
    _write_out(text, values["out"])
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        values = _merged_values(args)
        if args.command == "factors-report":
            return _run_factors_command(values)
        if args.command == "load":
            return _run_load_command(values)
        protected = args.command == "ipsec" or bool(values["ipsec"])
        if values["adversary"]:
            return _run_adversary_command(values, protected)
        workload = Workload.IPSEC_LOAD if args.command == "ipsec" else Workload.ECHO
        return _run_echo_command(values, workload)
    except (ConfigInvalid, BadPlan, BadSaConfig, ZeroArgument, ReportIoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SplitioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
