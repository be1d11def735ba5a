import json
import types

import pytest

import tracing
from tracing import END, NAME, PARENT, RID, START, Patches, Tracer


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_children():
    # root [0, 100] > a [10, 40] > b [20, 30];  root > c [50, 60]
    tracer = Tracer(clock=fake_clock([0, 10, 20, 30, 40, 50, 60, 100]))
    root = tracer.open("root")
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(root)
    assert [s[PARENT] for s in tracer.spans] == [-1, root, a, root]
    assert tracing.self_times(tracer.spans) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_covered_merges_overlapping_children():
    assert tracing.covered((0, 100), [(10, 40), (30, 60), (90, 120)]) == 60
    assert tracing.covered((0, 100), []) == 0
    assert tracing.covered((50, 60), [(0, 100)]) == 10


def test_nested_same_layer_counts_once():
    spans = [
        ["core.select", 0, 50, -1, None],
        ["core.select", 10, 20, 0, None],
        ["other", 60, 70, -1, None],
        ["core.select", 62, 68, 2, None],
    ]
    match = lambda name: name == "core.select"  # noqa: E731
    assert tracing.outermost(spans, match) == [0, 3]
    assert tracing.inclusive_s(spans, match) == pytest.approx(56e-9)


def test_spans_close_in_order_and_carry_request_ids():
    tracer = Tracer()
    tracer.rid = 7
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
    assert tracer.spans[outer][RID] == 7
    assert tracer.spans[outer][END] >= tracer.spans[outer][START]


def test_spanned_wrapper_records_even_when_the_call_raises():
    tracer = Tracer(clock=fake_clock([0, 5, 10, 15]))

    def boom():
        raise KeyError("x")

    wrapped = tracer.spanned("layer.boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    ok = tracer.spanned(lambda n: f"layer.{n}", lambda n: n * 2)
    assert ok(3) == 6
    assert [(s[NAME], s[START], s[END]) for s in tracer.spans] == [
        ("layer.boom", 0, 5),
        ("layer.3", 10, 15),
    ]


def test_patches_replace_every_binding_and_undo(monkeypatch):
    home = types.ModuleType("repro._perfbench_home")
    user = types.ModuleType("repro._perfbench_user")
    home.f = lambda: "f"
    user.f = home.f  # as bound by ``from home import f``
    monkeypatch.setitem(__import__("sys").modules, home.__name__, home)
    monkeypatch.setitem(__import__("sys").modules, user.__name__, user)
    original = home.f
    patches = Patches()
    patches.function(home.__name__, "f", lambda fn: lambda: fn() + "!")
    assert home.f() == "f!" and user.f() == "f!"
    patches.undo()
    assert home.f is original and user.f is original


def test_patches_wrap_methods_and_classmethods():
    class A:
        def m(self):
            return 1

        @classmethod
        def c(cls):
            return cls.__name__

    class B(A):
        pass

    patches = Patches()
    for cls in (A, B):  # B inherits, so only A is patched
        patches.method(cls, "m", lambda fn: lambda self: fn(self) + 1)
    patches.method(A, "c", lambda fn: lambda cls: fn(cls) + "!")
    assert B().m() == 2 and B.c() == "B!"
    patches.undo()
    assert B().m() == 1 and B.c() == "B"


def test_chrome_trace_is_valid_trace_event_json(tmp_path):
    tracer = Tracer(clock=fake_clock([1000, 3000, 4000, 9000]))
    root = tracer.open("workload")
    tracer.rid = 3
    child = tracer.open("query.resolve")
    tracer.close(child)
    tracer.close(root)
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["ts"] == 0.0 and events[0]["dur"] == 8.0
    assert events[1]["args"] == {"id": 1, "parent": 0, "request": 3}
