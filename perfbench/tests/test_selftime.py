"""Self-time arithmetic and the span recorder."""

import pytest

from tracing import SpanFile, SpanLog, layer_self_times, merge_self_times


def test_nested_spans_subtract_their_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    names = ["a", "b", "c", "d"]
    layers = [0, 1, 2, 3]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    times = layer_self_times(names, layers, starts, ends, parents)
    assert times == pytest.approx({"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0})
    assert sum(times.values()) == pytest.approx(10.0)


def test_same_layer_spans_add_up_and_children_are_clipped():
    # Two top-level spans of one layer; the child overruns its parent.
    names = ["x", "y"]
    layers = [0, 0, 1]
    starts = [0.0, 10.0, 11.0]
    ends = [2.0, 12.0, 13.0]
    parents = [-1, -1, 1]
    times = layer_self_times(names, layers, starts, ends, parents)
    assert times["x"] == pytest.approx(2.0 + 1.0)
    assert times["y"] == pytest.approx(2.0)


def test_wrap_records_nesting_and_counts_only_the_outer_call(tmp_path):
    log = SpanLog()

    class Engine:
        def __init__(self):
            self.done = 0

        def step(self, n):
            self.done += n
            return n

        def batch(self, items):
            return [self.step(item) for item in items]

    Engine.step = log.wrap(Engine.step, "engine", [("engine.calls", lambda r, a, k: 1)],
                           [("engine.done", "done")])
    Engine.batch = log.wrap(Engine.batch, "engine", [("engine.calls", lambda r, a, k: 1)],
                            [("engine.done", "done")])
    engine = Engine()
    assert engine.batch([1, 2, 3]) == [1, 2, 3]
    assert engine.step(4) == 4
    assert log.counts == {"engine.calls": 2, "engine.done": 10}
    assert list(log.parents) == [-1, 0, 0, 0, -1]

    path = tmp_path / "spans-main.bin"
    log.write(path)
    read = SpanFile.read(path)
    assert read.role == "main" and read.counts == log.counts
    assert list(read.starts) == list(log.starts)
    main, every = merge_self_times([read])
    assert main == every
    wall = (log.ends[0] - log.starts[0]) + (log.ends[4] - log.starts[4])
    assert main["engine"] == pytest.approx(wall)


def test_exceptions_close_the_span():
    log = SpanLog()

    def fails():
        raise ValueError("boom")

    wrapped = log.wrap(fails, "layer")
    with pytest.raises(ValueError):
        wrapped()
    assert log.ends[0] >= log.starts[0] > 0
    assert log._stack == [-1]
