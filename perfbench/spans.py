"""Per-layer host-time spans recorded from outside the simulator.

The traced run wraps each layer's entry points at class level, before the
:class:`~repro.system.machine.Machine` is built, because components hoist
bound methods at construction (``CaesarEngine`` captures
``sram.array.lookup_data``, the fabric registers ``NetworkInterface._receive``
as its delivery handler).  A wrapper records one span per call into flat
in-memory arrays: layer, parent span, start and end (``perf_counter_ns``).
Nothing is written while the simulation runs; :meth:`SpanRecorder.fold`
turns the spans of one simulation into per-layer self time afterwards.

A layer's self time is the total duration of its spans minus the part of
them covered by child spans.  Where the engine calls straight into a
handler nobody wrapped (closures, small scheduled helpers), the time stays
inside the dispatch loop's span and counts as ``sim`` self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator, List, Tuple

#: layers, named after the simulator's packages
LAYERS = (
    "sim", "network", "core", "coherence", "node", "cache", "memory", "apps",
    "system",
)

#: (layer, module, class, methods).  The first names of each row are the
#: layer's public entry points; the rest are callbacks the engine schedules
#: directly, wrapped so their time lands in their own layer, not in ``sim``.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run_until_stop", "run")),
    ("network", "repro.network.fabric", "Fabric",
     ("inject", "_arrive", "_forward", "_deliver")),
    ("core", "repro.core.caesar", "CaesarEngine",
     ("snoop", "try_deposit", "try_intercept")),
    ("coherence", "repro.coherence.home", "HomeController",
     ("receive", "_finish_read_from_memory", "_write_maybe_finish",
      "_complete")),
    ("coherence", "repro.coherence.l2ctrl", "NodeController",
     ("receive", "issue_read", "issue_write", "_complete_nc_read")),
    ("node", "repro.node.processor", "Processor",
     ("_resume", "_issue_read", "_read_done", "_retry_after_wb",
      "_sync_done")),
    ("node", "repro.node.cluster", "ProcStack", ("kick_drain", "_drain_done")),
    ("node", "repro.node.cluster", "ClusterBus",
     ("submit", "_execute", "_netcache_read_done", "_network_read")),
    ("node", "repro.node.sync", "BarrierManager", ("arrive",)),
    ("node", "repro.node.sync", "LockManager", ("acquire", "release")),
    ("cache", "repro.cache.array", "CacheArray",
     ("probe", "lookup", "probe_data", "probe_state", "lookup_data",
      "lookup_state", "write_owned", "set_data", "downgrade_owned", "insert",
      "set_state", "invalidate")),
    ("cache", "repro.cache.hierarchy", "CacheHierarchy",
     ("read", "write_probe", "perform_write", "fill", "upgrade", "invalidate",
      "downgrade", "state_of", "state_code")),
    ("memory", "repro.memory.dram", "MemoryModule", ("read", "write")),
    ("memory", "repro.memory.nic", "NetworkInterface",
     ("send", "_send_now", "_receive_local")),
    ("system", "repro.system.machine", "Machine", ("__init__",)),
)

#: the op-stream compiler is lazy: chunks are compiled inside ``next()`` on
#: the iterator ``compile_stream`` returns, so the machine module's
#: reference to it is replaced by one returning a traced iterator
APPS_HOOK = ("repro.system.machine", "compile_stream")

_ABSENT = object()


class SpanRecorder:
    """Flat span store: four parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: List[int] = []
        #: chunks yielded by traced op streams since the last :meth:`clear`
        self.chunks = 0

    def clear(self) -> None:
        # in place: the wrappers hold these arrays' bound methods
        for column in (self.layer, self.parent, self.start, self.end):
            del column[:]
        self._open.clear()
        self.chunks = 0

    def __len__(self) -> int:
        return len(self.layer)

    def traced(self, layer_id: int, fn: Callable) -> Callable:
        """``fn`` wrapped to record one span of ``layer_id`` per call."""
        open_spans = self._open
        push_layer = self.layer.append
        push_parent = self.parent.append
        push_start = self.start.append
        push_end = self.end.append
        ends = self.end
        clock = perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ends)
            push_layer(layer_id)
            push_parent(open_spans[-1] if open_spans else -1)
            push_end(0)
            open_spans.append(idx)
            push_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return wrapper

    def fold(self, nlayers: int = len(LAYERS)) -> Tuple[List[int], List[int], int]:
        """Per-layer self ns, per-layer call counts, and top-level span ns.

        Each span adds its duration to its own layer and takes it away
        from its parent's layer, so the self times sum exactly to the
        duration of the top-level spans.
        """
        self_ns = [0] * nlayers
        calls = [0] * nlayers
        top_ns = 0
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        for i in range(len(layer)):
            duration = end[i] - start[i]
            own = layer[i]
            self_ns[own] += duration
            calls[own] += 1
            up = parent[i]
            if up < 0:
                top_ns += duration
            else:
                self_ns[layer[up]] -= duration
        return self_ns, calls, top_ns


class _TracedChunks:
    """Iterator whose ``next()`` is recorded as an ``apps`` span."""

    __slots__ = ("_next", "_recorder")

    def __init__(self, chunks: Iterator, recorder: SpanRecorder,
                 layer_id: int) -> None:
        self._next = recorder.traced(layer_id, chunks.__next__)
        self._recorder = recorder

    def __iter__(self) -> "_TracedChunks":
        return self

    def __next__(self):
        chunk = self._next()
        self._recorder.chunks += 1
        return chunk


def _traced_compiler(fn: Callable, recorder: SpanRecorder) -> Callable:
    layer_id = LAYERS.index("apps")

    @functools.wraps(fn)
    def compile_stream(*args, **kwargs):
        return _TracedChunks(iter(fn(*args, **kwargs)), recorder, layer_id)

    return compile_stream


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[List[str]]:
    """Wrap every entry point for the ``with`` body, then restore them.

    Yields the entry points that do not exist in this version of the
    simulator; their time is attributed to the calling layer instead.
    """
    saved: List[Tuple[object, str, object]] = []
    missing: List[str] = []

    def patch(owner: object, name: str, replacement: Callable) -> None:
        saved.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, replacement)

    try:
        for layer, module_name, class_name, names in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            layer_id = LAYERS.index(layer)
            for name in names:
                fn = vars(cls).get(name)
                if fn is None:
                    missing.append(f"{class_name}.{name}")
                    continue
                if not inspect.isfunction(fn):
                    raise TypeError(f"{class_name}.{name} is not a plain method")
                patch(cls, name, recorder.traced(layer_id, fn))
        module_name, name = APPS_HOOK
        module = importlib.import_module(module_name)
        patch(module, name, _traced_compiler(getattr(module, name), recorder))
        yield missing
    finally:
        for owner, name, original in reversed(saved):
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
