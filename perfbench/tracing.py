"""Spans taken from outside the program, and the arithmetic over them.

A :class:`SpanLog` wraps functions of the ``repro`` package: each call
becomes one span (layer, start, end, parent) kept in flat arrays, and
optional counters are read at the same boundary.  Nothing in ``src/``
knows about it — the wrappers are installed by ``launch.py`` before the
command runs and the log is written to disk when the process ends.

Only the outermost span of a layer takes counters, so a layer that
calls itself (a batch lookup calling the single lookup) counts its work
once.

Forked pool workers inherit the wrappers; :meth:`SpanLog.install_fork_hook`
gives each worker an empty log of its own that is written when the
worker exits.
"""

from __future__ import annotations

import functools
import json
import os
import struct
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A counter read when an outermost span ends:
#: ``(metric name, fn(result, args, kwargs) -> number)``.
Counter = Tuple[str, Callable]
#: A counter read as the change of an attribute of ``args[0]`` across the
#: call: ``(metric name, attribute name)``.
Delta = Tuple[str, str]

_HEADER = struct.Struct("<I")


class SpanLog:
    """Spans and counters of one process, in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layers = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: List[int] = [-1]
        self.counts: Dict[str, float] = {}
        self.role = "main"

    def layer_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- recording -----------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        counters: Sequence[Counter] = (),
        deltas: Sequence[Delta] = (),
    ) -> Callable:
        """``fn`` with a span around every call."""
        layer_id = self.layer_id(layer)
        layers, starts, ends, parents = self.layers, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter
        count = self.count
        delta_attrs = [attribute for _, attribute in deltas]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            outer = parent < 0 or layers[parent] != layer_id
            before = (
                [getattr(args[0], attribute) for attribute in delta_attrs]
                if outer and delta_attrs
                else None
            )
            index = len(layers)
            layers.append(layer_id)
            parents.append(parent)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if outer:
                for name, reader in counters:
                    count(name, reader(result, args, kwargs))
                if before is not None:
                    for (name, attribute), value in zip(deltas, before):
                        count(name, getattr(args[0], attribute) - value)
            return result

        return wrapper

    def span(self, layer: str, start: float, end: float) -> None:
        """Record an already-timed top-level span (the import phase)."""
        self.layers.append(self.layer_id(layer))
        self.parents.append(-1)
        self.starts.append(start)
        self.ends.append(end)

    # -- process lifecycle ---------------------------------------------------

    def reset(self, role: str) -> None:
        """Empty the log in place (the wrappers hold these very objects)."""
        del self.layers[:]
        del self.starts[:]
        del self.ends[:]
        del self.parents[:]
        del self._stack[:]
        self._stack.append(-1)
        self.counts.clear()
        self.role = role

    def install_fork_hook(self, directory: Path) -> None:
        """Give every pool worker its own log, written when it exits.

        ``multiprocessing`` clears inherited finalizers in a new worker
        and then runs its after-fork hooks, so the hook is registered
        there rather than with ``os.register_at_fork``.
        """
        from multiprocessing import util

        def after_fork_in_worker(log: "SpanLog") -> None:
            log.reset("worker")
            target = directory / f"spans-{os.getpid()}.bin"
            util.Finalize(None, log.write, args=(target,), exitpriority=100)

        util.register_after_fork(self, after_fork_in_worker)

    def write(self, path: Path) -> None:
        """One file: a JSON header line, then the four arrays raw."""
        header = json.dumps(
            {
                "pid": os.getpid(),
                "role": self.role,
                "names": self.names,
                "spans": len(self.layers),
                "counts": self.counts,
            }
        ).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(_HEADER.pack(len(header)))
            handle.write(header)
            for column in (self.layers, self.parents, self.starts, self.ends):
                column.tofile(handle)


class SpanFile:
    """A log read back: ``names[layers[i]]`` is span ``i``'s layer."""

    def __init__(self, header: dict, layers, parents, starts, ends):
        self.role = header["role"]
        self.names = header["names"]
        self.counts = header["counts"]
        self.layers = layers
        self.parents = parents
        self.starts = starts
        self.ends = ends

    @classmethod
    def read(cls, path: Path) -> "SpanFile":
        with open(path, "rb") as handle:
            (size,) = _HEADER.unpack(handle.read(_HEADER.size))
            header = json.loads(handle.read(size).decode("utf-8"))
            columns = []
            for typecode in ("H", "i", "d", "d"):
                column = array(typecode)
                column.fromfile(handle, header["spans"])
                columns.append(column)
        return cls(header, *columns)

    def self_times(self) -> Dict[str, float]:
        return layer_self_times(self.names, self.layers, self.starts, self.ends, self.parents)


def layer_self_times(
    names: Sequence[str],
    layers: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> Dict[str, float]:
    """Per layer, the sum over its spans of duration minus child cover.

    A span's self time is its duration less the part of its interval
    that its direct children cover; children are clipped to the parent,
    so a child that overruns its parent's end cannot drive the parent's
    self time below zero.  Summed self times over all spans equal the
    union of the top-level spans, so nothing is counted twice.
    """
    covered = [0.0] * len(layers)
    for index, parent in enumerate(parents):
        if parent >= 0:
            low = max(starts[index], starts[parent])
            high = min(ends[index], ends[parent])
            if high > low:
                covered[parent] += high - low
    totals: Dict[str, float] = {name: 0.0 for name in names}
    for index, layer in enumerate(layers):
        totals[names[layer]] += (ends[index] - starts[index]) - covered[index]
    return totals


def merge_self_times(files: Iterable[SpanFile]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(main-process self times, every process's self times summed)."""
    main: Dict[str, float] = {}
    every: Dict[str, float] = {}
    for span_file in files:
        for name, seconds in span_file.self_times().items():
            every[name] = every.get(name, 0.0) + seconds
            if span_file.role == "main":
                main[name] = main.get(name, 0.0) + seconds
    return main, every


def patch(owner, attribute: str, log: SpanLog, layer: str, *,
          counters: Sequence[Counter] = (), deltas: Sequence[Delta] = (),
          modules: Optional[Iterable] = None) -> Callable:
    """Replace ``owner.attribute`` with a wrapped version.

    Plain functions are also replaced in every module of ``modules``
    that imported them by name, so ``from x import f`` call sites see
    the wrapper too.  Class- and static methods keep their kind.
    """
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(raw, classmethod):
        wrapped = classmethod(log.wrap(raw.__func__, layer, counters, deltas))
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(log.wrap(raw.__func__, layer, counters, deltas))
    else:
        wrapped = log.wrap(raw, layer, counters, deltas)
    setattr(owner, attribute, wrapped)
    if not isinstance(owner, type):
        for module in modules or ():
            if module is not owner and getattr(module, attribute, None) is raw:
                setattr(module, attribute, wrapped)
    return wrapped
