"""Wall-clock spans around the public entry points of each layer.

The benchmark's traced run wraps the functions named in :data:`LAYERS`
with a recorder that keeps one span per call: name, start, end, parent
span and thread.  Spans live in per-thread in-memory buffers (so the
service's event-loop thread, its ``to_thread`` workers and the client
thread never share a stack), and are written out once, when the run
ends.  Nothing here runs unless :meth:`Tracer.install` is called: the
untraced runs that give the end-to-end metrics execute the program's
own functions, unwrapped.

Self time of a span is its duration minus the durations of its direct
children on the same thread.  Spans on one thread nest strictly, so
the self times of one thread sum to at most that thread's traced wall
time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: layer -> entry points, as ``"module:Class.method"`` or
#: ``"module:function"``.  A class entry also wraps every subclass that
#: overrides the method (policies, uncore backends).  A function entry
#: lists the modules that imported it by name after a ``|``, because a
#: call through such an alias never looks the name up in its home
#: module.
LAYERS: dict[str, tuple[str, ...]] = {
    "hw": (
        "repro.hw.node:Node.advance",
        "repro.hw.node:Node.power",
        "repro.hw.node:Node.power_affine",
        "repro.hw.node:Node.run_ufs",
        "repro.hw.backends.base:UncoreBackend.write_limits",
    ),
    "sim": ("repro.sim.engine:SimulationEngine.run",),
    "ear.dynais": ("repro.ear.dynais:Dynais.observe",),
    "ear.earl": ("repro.ear.earl:Earl.on_iteration",),
    "ear.policies": (
        "repro.ear.policies.api:PolicyPlugin.node_policy",
        "repro.ear.policies.api:PolicyPlugin.validate",
    ),
    "ear.eard": (
        "repro.ear.eard:Eard.apply_freqs",
        "repro.ear.eard:Eard.read_dc_energy",
        "repro.ear.eard:Eard.poll_rapl",
    ),
    "experiments.parallel": (
        "repro.experiments.parallel:ExperimentPool.run_many",
        "repro.experiments.parallel:RunRequest.key",
        "repro.experiments.parallel:RunCache.get",
        "repro.experiments.parallel:RunCache.put",
    ),
    "learning": (
        "repro.learning.campaign:LearningCampaign.fit",
        "repro.learning.campaign:LearningCampaign.validate",
    ),
    "cluster.scheduler": ("repro.cluster.scheduler:ClusterSimulation.step",),
    "cluster.market": (
        "repro.cluster.market:PowerMarket.admit",
        "repro.cluster.market:PowerMarket.release",
        "repro.cluster.market:PowerMarket.tick",
    ),
    "cluster.eardbd": ("repro.cluster.eardbd:Eardbd.flush",),
    "service": (
        "repro.service.server:ClusterWorker.submit",
        "repro.service.server:ClusterWorker._harvest",
        "repro.service.protocol:encode|repro.service.server",
        "repro.service.protocol:decode|repro.service.server",
    ),
    "telemetry": (
        "repro.telemetry.stream:EventRing.extend",
        "repro.telemetry.stream:MetricsAggregator.render",
        "repro.telemetry.exporters:event_to_json_line|repro.telemetry.stream",
        "repro.telemetry.exporters:render_metric_families|repro.telemetry.stream",
    ),
}


@dataclass
class _Buffer:
    """The spans of one thread, in start order."""

    thread: int
    name: array
    start: array
    end: array
    parent: array
    stack: list

    @classmethod
    def empty(cls, thread: int) -> "_Buffer":
        return cls(thread, array("i"), array("q"), array("q"), array("i"), [])


class Tracer:
    """Records spans around wrapped entry points; see :data:`LAYERS`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: dict[int, str] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer.empty(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of[nid] = layer
        return nid

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` with a span per call."""
        nid = self._name_id(name, layer)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.start.append(clock())
            buf.end.append(0)
            buf.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()

        return functools.wraps(fn)(traced)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, layer: str) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer))

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` (undo with :meth:`remove`)."""
        for layer, entries in LAYERS.items():
            for entry in entries:
                target, _, aliases = entry.partition("|")
                module_name, _, qual = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    base = getattr(module, cls_name)
                    for cls in _with_subclasses(base):
                        if attr in cls.__dict__:
                            self._patch(cls, attr, f"{cls.__name__}.{attr}", layer)
                else:
                    self._patch(module, qual, qual, layer)
                    wrapped = getattr(module, qual)
                    for alias in filter(None, aliases.split(",")):
                        owner = importlib.import_module(alias)
                        self._restore.append((owner, qual, owner.__dict__[qual]))
                        setattr(owner, qual, wrapped)

    def remove(self) -> None:
        """Restore every wrapped entry point."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def per_thread(self) -> list[dict]:
        """Per thread: span columns plus each span's self time, in ns."""
        out = []
        for buf in self._buffers:
            start = np.frombuffer(buf.start, dtype=np.int64)
            end = np.frombuffer(buf.end, dtype=np.int64)
            parent = np.frombuffer(buf.parent, dtype=np.int32)
            dur = end - start
            own = dur.copy()
            child = parent >= 0
            np.subtract.at(own, parent[child], dur[child])
            out.append(
                {
                    "thread": buf.thread,
                    "name": np.frombuffer(buf.name, dtype=np.int32),
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "self_ns": own,
                    # root spans never overlap on one thread, so their
                    # summed duration is the thread's traced wall time.
                    "wall_ns": int(dur[~child].sum()),
                }
            )
        return out

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self ms)`` over all threads."""
        totals = {layer: [0, 0] for layer in LAYERS}
        for t in self.per_thread():
            calls = np.bincount(t["name"], minlength=len(self.names))
            own = np.bincount(t["name"], weights=t["self_ns"], minlength=len(self.names))
            for nid, layer in self._layer_of.items():
                totals[layer][0] += int(calls[nid])
                totals[layer][1] += float(own[nid])
        return {layer: (c, ns / 1e6) for layer, (c, ns) in totals.items()}

    def calls(self, name: str) -> int:
        """Spans recorded for one entry point (``"Class.method"``)."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0
        return sum(buf.name.count(nid) for buf in self._buffers)

    def n_spans(self) -> int:
        """Spans recorded so far, over all threads."""
        return sum(len(buf.start) for buf in self._buffers)

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (NumPy ``.npz``, one row per span).

        ``parent`` is the row of the enclosing span (-1 for a root span);
        ``name`` indexes ``names`` and ``layers``.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = {key: [] for key in ("thread", "name", "start_ns", "end_ns", "parent", "self_ns")}
        offset = 0
        for t in self.per_thread():
            n = len(t["name"])
            cols["thread"].append(np.full(n, t["thread"], dtype=np.uint64))
            cols["parent"].append(np.where(t["parent"] >= 0, t["parent"] + offset, -1))
            for key in ("name", "start_ns", "end_ns", "self_ns"):
                cols[key].append(t[key])
            offset += n
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array([self._layer_of[i] for i in range(len(self.names))]),
            **{key: np.concatenate(parts) if parts else np.zeros(0) for key, parts in cols.items()},
        )


def _with_subclasses(cls: type) -> list[type]:
    """``cls`` and every (transitive) subclass currently defined."""
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen
