#!/usr/bin/env python3
"""Host-cost benchmark for the splitio model.

    python3 perfbench/run.py --workload echo_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the package is imported from ./src. Each
workload runs reports back to back in this one process and thread (a closed
loop with one client); inside an echo report the simulated traffic follows
simloop's fixed open-loop send schedule. TimeMode.WALL_CLOCK is never used.

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 makes three passes over fixed report sets: a call-counting pass
(sys.setprofile; on echo workloads the count per op is the difference
between each counted report and the same report run twice as long, so it
excludes per-report construction), a span-traced pass, and untraced
repeats of the traced reports for the overhead ratio. Spans are written to
.perfbench_out/<workload>-seed<seed>.spans.

Every report's outputs are checked; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calib import CalibratedTimer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("echo_small", "esp_mtu", "overload_fanout", "adversary_campaign")

# name -> unit; the order is the print order
END_TO_END = {
    "ops_per_s": "ops/s",
    "report_ms_p50": "ms",
    "report_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SETUP_REPEATS = 9  # at least; set-up repeats until it has taken SETUP_SECONDS
SETUP_SECONDS = 0.5


def import_package() -> None:
    """Import splitio from this checkout's src/, never from elsewhere."""
    if not (SRC / "splitio" / "__init__.py").is_file():
        sys.exit(f"perfbench: no splitio package at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import splitio

    if Path(splitio.__file__).resolve().parent != (SRC / "splitio").resolve():
        sys.exit(f"perfbench: imported splitio from {splitio.__file__}, not {SRC}")


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, reports beyond) at the highest nearest-rank
    percentile that leaves at least ten reports beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def measure_setup(wl) -> float:
    """Median calibrated time of building report k's endpoint pair."""
    timer = CalibratedTimer(every_s=0.0)
    spent = 0.0
    k = 0
    while k < SETUP_REPEATS or spent < SETUP_SECONDS:
        spent += timer.time(lambda: wl.setup(k))[1]
        k += 1
    return statistics.median(timer.calibrated())


def peak_rss_mb(wl) -> float:
    """Peak RSS of a fresh process that builds one endpoint pair and runs
    the workload's digest reports untimed. In a process of its own the peak
    is the workload's alone: no calibration reference and no earlier
    workload of an `all` run adds to it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(wl.seed), "--peak-rss"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        sys.exit(f"perfbench: peak-RSS process failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def peak_rss_child(wl) -> None:
    """Body of the --peak-rss process. Its reports are the ones the parent
    has already run and checked, so their outcomes are not kept here.

    The peak is VmHWM, the high-water mark of this process's own address
    space. ru_maxrss would not do: the parent may start this process with
    vfork, and exec then carries the parent's peak into ru_maxrss."""
    wl.setup(0)
    for index in range(wl.digest_reports):
        run_report(wl, index, Outcome(), raw_timed)
    status = Path("/proc/self/status").read_text()
    kib = next(line.split()[1] for line in status.splitlines() if line.startswith("VmHWM:"))
    print(int(kib) / 1024.0)


class Outcome:
    """Attempted and failed reports plus the first few failure messages.

    A report fails if it raises or if a check on its outputs fails, and
    either makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def record(self, index: int, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.correct = False
            if len(self.notes) < 5:
                self.notes.append(f"report {index}: " + "; ".join(errors[:3]))

    def fail(self, note: str) -> None:
        """A failure of the run as a whole, not of one report."""
        self.correct = False
        self.notes.append(note)


def raised(index: int, exc: Exception, outcome: Outcome) -> None:
    outcome.record(index, [f"raised {type(exc).__name__}: {exc}"])


def run_report(wl, index: int, outcome: Outcome, timed):
    """Prepare, run and check one report; timed(fn) runs the entry-point
    call and returns (result, seconds). Returns the result, or the
    exception if the report raised."""
    inp = wl.prepare(index)
    try:
        result, _ = timed(lambda: wl.run(inp))
    except Exception as exc:  # a report that raises is a failed report
        raised(index, exc, outcome)
        return exc
    outcome.record(index, wl.check(inp, result))
    return result


def digest_of(wl, result) -> bytes:
    """A report's digest. A report that raised is digested as its exception,
    so the digest covers it too; the raise has already made the run
    incorrect."""
    if isinstance(result, Exception):
        return hashlib.sha256(f"{type(result).__name__}: {result}".encode()).digest()
    return wl.digest(result)


def raw_timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_untraced(wl, seconds: float) -> tuple[dict, Outcome]:
    setup_s = measure_setup(wl)
    gc.collect()
    outcome = Outcome()
    timer = CalibratedTimer()
    ops = 0
    firsts = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < wl.digest_reports or time.perf_counter() < deadline:
        result = run_report(wl, index, outcome, timer.time)
        if not isinstance(result, Exception):
            ops += wl.ops(result)
        if index < wl.digest_reports:
            firsts.append(result)
        index += 1
    times = timer.calibrated()

    # determinism: report 0 again, same seed, same digest
    again = run_report(wl, 0, Outcome(), raw_timed)
    if digest_of(wl, again) != digest_of(wl, firsts[0]):
        outcome.fail("report 0 did not reproduce its digest")

    rss = peak_rss_mb(wl)

    tail_value, tail_pct, beyond = tail(times)
    metrics = {
        "ops_per_s": ops / sum(times),
        "report_ms_p50": statistics.median(times) * 1e3,
        "report_ms_tail": tail_value * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    notes = {"report_ms_tail": f"(p{tail_pct:.1f} of {len(times)} reports, {beyond} beyond)"}
    print(f"workload {wl.name}: seed {wl.seed}, {len(times)} reports, {ops} ops, "
          f"host speed {timer.host_speed():.3f} of the calibration reference")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {fmt(metrics[name]):>12} {unit} {notes.get(name, '')}".rstrip())
    print(f"  {'error_rate':<16} {fmt(outcome.failed / outcome.attempted):>12} ratio "
          f"({outcome.failed} of {outcome.attempted} reports failed)")
    returned = [r for r in firsts if not isinstance(r, Exception)]
    digest = hashlib.sha256(b"".join(digest_of(wl, r) for r in firsts)).hexdigest()
    model = dict(wl.model_outputs(returned) if returned else {}, **{"model.digest": digest})
    raises = f", {len(firsts) - len(returned)} raised" if len(returned) < len(firsts) else ""
    for name, value in model.items():
        print(f"  {name:<24} {value}  (first {len(firsts)} reports{raises})")
    for note in outcome.notes:
        print(f"  FAILED {note}")
    return metrics, outcome


def run_traced(wl, seconds: float) -> tuple[dict, Outcome]:
    from layers import PER_LAYER, Collected, make_tracer, per_layer_metrics
    from tracer import count_calls

    started = time.perf_counter()
    outcome = Outcome()

    def counted(inputs: list) -> tuple[Counter, int]:
        results: list = []

        def run_all() -> None:
            for x in inputs:
                try:
                    results.append(wl.run(x))
                except Exception as exc:  # counted like any other failed report
                    results.append(exc)

        calls = count_calls(run_all)
        ops = 0
        for i, (x, r) in enumerate(zip(inputs, results)):
            if isinstance(r, Exception):
                raised(i, r, outcome)
            else:
                outcome.record(i, wl.check(x, r))
                ops += wl.ops(r)
        return calls, ops

    inputs = [wl.prepare(i) for i in range(wl.count_reports)]
    py_calls, count_ops = counted(inputs)
    if hasattr(wl, "stretched"):
        long_calls, long_ops = counted([wl.stretched(x) for x in inputs])
        py_calls, count_ops = long_calls - py_calls, long_ops - count_ops

    got = Collected()
    tracer = make_tracer(got)
    spans = tracer.spans
    ops = 0
    roots: list[int] = []
    traced_timer = CalibratedTimer()

    def rooted(fn):
        with spans.root("report", len(roots)) as idx:
            roots.append(idx)
            return fn()

    with tracer.installed():
        for i in range(wl.trace_reports):
            gc.collect()
            result = run_report(wl, i, outcome, lambda fn: traced_timer.time(lambda: rooted(fn)))
            if not isinstance(result, Exception):
                ops += wl.ops(result)
    root_ns = [spans.duration(idx) for idx in roots]

    # the same reports untraced, repeated while the run has time left; both
    # passes are calibrated, so host-speed drift between them cancels
    n = wl.trace_reports
    untraced_timer = CalibratedTimer()
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < seconds:
        for i in range(n):
            gc.collect()
            run_report(wl, i, Outcome(), untraced_timer.time)
        rounds += 1
    untraced = untraced_timer.calibrated()
    base = sum(statistics.median(untraced[i::n]) for i in range(n))
    ratio = sum(traced_timer.calibrated()) / base

    metrics = per_layer_metrics(
        spans, got, wl.trace_reports, ops, sum(root_ns), py_calls, count_ops, ratio
    )
    path = OUT_DIR / f"{wl.name}-seed{wl.seed}.spans"
    spans.dump(path)
    print(f"workload {wl.name}: seed {wl.seed}, traced {wl.trace_reports} reports ({ops} ops), "
          f"counted {wl.count_reports} reports ({count_ops} ops), {len(spans)} spans -> {path.relative_to(ROOT)}")
    for name, (unit, _) in PER_LAYER.items():
        print(f"  {name:<28} {fmt(metrics[name]):>12} {unit}")
    for note in outcome.notes:
        print(f"  FAILED {note}")
    # n/a (a layer the workload never calls) is carried as 0 in the result line
    return {k: (0.0 if v is None else v) for k, v in metrics.items()}, outcome


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--peak-rss", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    import_package()
    import workloads
    from layers import PER_LAYER

    if args.peak_rss:
        peak_rss_child(workloads.make(args.workload, args.seed))
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else {k: (u, None) for k, u in END_TO_END.items()}
    metrics_out: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        wl = workloads.make(name, args.seed)
        runner = run_traced if args.trace else run_untraced
        metrics, outcome = runner(wl, float(args.seconds))
        attempted += outcome.attempted
        failed += outcome.failed
        correct = correct and outcome.correct
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in metrics.items():
            metrics_out[prefix + key] = {"value": value, "unit": units[key][0]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
