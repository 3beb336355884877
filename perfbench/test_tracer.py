"""Tests for the benchmark's tracer. Run: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import splitio  # noqa: E402
from splitio import bench, ipsec, mem, pools, simloop  # noqa: E402
from splitio.bench import BenchConfig  # noqa: E402
from splitio.ipsec import OffloadMode  # noqa: E402

import layers  # noqa: E402
from tracer import Patcher, Spans, count_calls, self_times  # noqa: E402


def _span(spans: Spans, label: str, parent: int, start: int, end: int) -> int:
    idx = len(spans)
    spans.name.append(spans.name_id(label))
    spans.report.append(0)
    spans.parent.append(parent)
    spans.start.append(start)
    spans.end.append(end)
    return idx


def test_self_time_on_synthetic_tree():
    spans = Spans()
    root = _span(spans, "report", -1, 0, 100)
    a = _span(spans, "a", root, 10, 40)
    _span(spans, "a.child", a, 20, 30)
    b = _span(spans, "b", root, 50, 60)
    # overlapping children of one parent are covered once, not twice
    c = _span(spans, "c", root, 70, 95)
    _span(spans, "c.x", c, 72, 85)
    _span(spans, "c.y", c, 80, 90)
    assert self_times(spans) == [100 - 30 - 10 - 25, 30 - 10, 10, 60 - 50, 25 - 18, 13, 10]
    assert b == 3


def test_spans_round_trip_through_a_file(tmp_path):
    spans = Spans()
    _span(spans, "report", -1, 5, 50)
    _span(spans, "mem.read", 0, 6, 9)
    path = tmp_path / "x.spans"
    spans.dump(path)
    back = Spans.load(path)
    assert back.names == spans.names
    for field in ("name", "report", "parent", "start", "end"):
        assert getattr(back, field) == getattr(spans, field)


def _originals():
    funcs = {
        (mod.__name__, key): value
        for mod in (splitio, bench, ipsec, pools, simloop)
        for key, value in vars(mod).items()
        if callable(value)
    }
    methods = {(cls, attr): vars(cls)[attr] for cls, attr, _ in layers.METHODS}
    return funcs, methods


def test_installed_patches_every_binding_and_restores_it():
    funcs_before, methods_before = _originals()
    got = layers.Collected()
    tracer = layers.make_tracer(got)
    with tracer.installed():
        # by-name imports are patched where they are looked up
        assert simloop.esp_encrypt is ipsec.esp_encrypt is not funcs_before[("splitio.ipsec", "esp_encrypt")]
        assert simloop.port_new is pools.port_new is splitio.port_new
        assert vars(mem.MemorySystem)["read"] is not methods_before[(mem.MemorySystem, "read")]
        with tracer.spans.root("report", 0):
            result = bench.run_echo_result(BenchConfig(duration_s=0.002, ipsec=OffloadMode.LOOKASIDE))
    funcs_after, methods_after = _originals()
    assert all(funcs_after[k] is v for k, v in funcs_before.items())
    assert all(methods_after[k] is v for k, v in methods_before.items())

    spans = tracer.spans
    labels = [spans.names[n] for n in spans.name]
    # every AES operation the ports counted went through a traced esp_* call
    aes = result.counters_a["aes_ops"] + result.counters_b["aes_ops"]
    assert labels.count("ipsec.esp_encrypt") + labels.count("ipsec.esp_decrypt") == aes > 0
    assert labels.count("pools.port_new") == len(got.ports) == 2
    assert len(got.nics) == 2
    assert sum(self_times(spans)) == spans.duration(0)


def test_patcher_restores_the_displaced_descriptor():
    class Holder:
        @staticmethod
        def f():
            return 1

        @property
        def p(self):
            return 2

    before = dict(vars(Holder))
    patcher = Patcher()
    patcher.replace(Holder, "f", staticmethod(lambda: 3))
    patcher.replace(Holder, "p", property(lambda self: 4))
    assert Holder.f() == 3 and Holder().p == 4
    patcher.restore()
    assert vars(Holder)["f"] is before["f"] and vars(Holder)["p"] is before["p"]
    assert Holder.f() == 1 and Holder().p == 2


def test_call_count_repeats_exactly():
    cfg = BenchConfig(duration_s=0.002)
    first = count_calls(lambda: bench.run_echo_result(cfg))
    second = count_calls(lambda: bench.run_echo_result(cfg))
    assert first == second
    assert first["splitio.mem"] > 0 and first["splitio.simloop"] > 0
    assert sys.getprofile() is None
