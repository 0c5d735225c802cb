"""Span recorder: a per-layer bill of host time, taken from outside ``src/``.

Three kinds of span, all recorded from this file:

* **Root spans** — the recorder is installed through the public
  ``Simulator.set_profiler()`` hook, so every popped event runs inside a
  span whose layer is the module of its callback site.  ``functools.partial``
  is unwrapped, and a ``PeriodicTask._fire`` is billed to the module of the
  task's wrapped callback rather than to ``sim`` (the stock ``SimProfiler``
  lumps over a quarter of wall there, which is why its per-site table cannot
  be the bill).
* **Entry spans** — wrappers put around the public entry of each layer
  (``ENTRIES``), so a call that crosses into another layer is billed there.
* **Hand-off spans** — where one layer registers a callback with another
  (``Fabric.attach_receiver``, ``Rnic.allocate_qp(on_cqe=)``,
  ``Endpoint.on``) the registered callable is wrapped and billed to the
  module that owns it, so the RNIC's receive path is not billed to the fabric
  that delivered the packet, nor the Agent's CQE handling to the RNIC.

Spans are aggregated in memory as (layer, calls, self ns) over a parent
stack — self time is a span's duration minus the part its children cover —
and read out once at the end.  Everything measured sits under one harness
span per step, so the layers' self times, ``UNATTRIBUTED`` and the
recorder's own calibrated overhead add up to the traced wall exactly.
``trace.overhead_x`` says how much slower the traced run was than the
untraced one; the bill takes that excess back out (see ``SpanRecorder``).

The recorder only observes: it never schedules, draws randomness or feeds
time back, so a traced run must process exactly the untraced run's events.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from repro.controlplane.endpoint import Endpoint
from repro.controlplane.transport import ManagementNetwork
from repro.core.analyzer import Analyzer
from repro.core.controller import Controller
from repro.core.sharding import RootController
from repro.diagnosis.inband import IntBackend, IntCollector
from repro.host.rnic import Rnic
from repro.net.fabric import Fabric
from repro.net.traceroute import TracerouteService
from repro.obs.metrics import MetricsRegistry
from repro.serve.session import ServeSession
from repro.sim.engine import PeriodicTask, Simulator

LAYERS = ("sim", "net", "host", "agent", "controller", "controlplane",
          "analyzer", "diagnosis", "obs", "serve", "services")
UNATTRIBUTED = "unattributed"

# A span costs about twice its calibrated cost inside a world's working set;
# nothing measured here comes near four times.
MAX_SPAN_COST_SCALE = 4.0

# repro.core is several layers; every other layer is one package.
_CORE_LAYERS = {
    "agent": "agent", "railprobe": "agent", "controller": "controller",
    "analyzer": "analyzer", "localization": "analyzer", "sla": "analyzer",
    "rootcause": "analyzer", "aggregation": "analyzer",
    "sharding": "analyzer",
}

# (class, public method, layer): the entry spans.
ENTRIES = (
    (Simulator, "run_until", "sim"),
    (Simulator, "schedule", "sim"),
    (Simulator, "call_at", "sim"),
    (Fabric, "inject", "net"),
    (TracerouteService, "trace", "net"),
    (Rnic, "post_send", "host"),
    (ManagementNetwork, "send", "controlplane"),
    (Controller, "push_pinglists", "controller"),
    (RootController, "push_pinglists", "controller"),
    (Analyzer, "receive_upload", "analyzer"),
    (Analyzer, "analyze", "analyzer"),
    (IntCollector, "stamp", "diagnosis"),
    (IntCollector, "collect", "diagnosis"),
    (IntBackend, "link_evidence", "diagnosis"),
    (MetricsRegistry, "snapshot", "obs"),
    (MetricsRegistry, "render_prometheus", "obs"),
    (ServeSession, "tick", "serve"),
    (ServeSession, "render_metrics", "serve"),
)

# (class, public registration method, keyword of the callable it registers):
# the hand-off spans.  Each takes the callable as its second argument.
HANDOFFS = (
    (Fabric, "attach_receiver", "receiver"),
    (Rnic, "allocate_qp", "on_cqe"),
    (Endpoint, "on", "handler"),
)


def layer_of_module(module: str | None) -> str:
    """Map a module name onto one of LAYERS (or UNATTRIBUTED)."""
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return UNATTRIBUTED
    if parts[1] == "core":
        return _CORE_LAYERS.get(parts[2] if len(parts) > 2 else "",
                                UNATTRIBUTED)
    return parts[1] if parts[1] in LAYERS else UNATTRIBUTED


_PERIODIC_FIRE = PeriodicTask._fire


def layer_of_callback(callback) -> str:
    """The layer that owns a scheduled or registered callable."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    if func is _PERIODIC_FIRE:
        # Bill a periodic firing to whoever asked for it.
        return layer_of_callback(callback.__self__._callback)
    if hasattr(func, "__qualname__"):
        return layer_of_module(getattr(func, "__module__", None))
    return layer_of_module(type(callback).__module__)


class SpanRecorder:
    """Aggregating span recorder; also the ``set_profiler`` object.

    Recording a span costs time of its own: some inside the span (between
    its two clock reads, billed to its layer), some around it (billed to its
    parent).  :meth:`calibrate` measures both once per kind of span on an
    empty callee, the recorder tallies them per layer as ``span_cost_ns``,
    and :meth:`bill` takes them back out — scaled so that the bill adds up
    to the untraced run's wall, because a span costs more inside a world's
    working set than in a calibration loop.  Without this ``sim`` would be
    charged for the 500k ``schedule`` wrappers other layers call.
    """

    def __init__(self, *, calibrated: bool = True) -> None:
        self.enabled = False
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.span_cost_ns: dict[str, int] = defaultdict(int)
        # Open spans, innermost last: child-time accumulator and layer.
        self._open: list[int] = []
        self._layers: list[str] = []
        # Fabric events by walker, for net.slow_path_event_share.
        self.net_events = 0
        self.net_fast_events = 0
        self._layer_cache: dict = {}
        # (inside, around) ns one span costs, per kind of span.
        self._root_cost = self._entry_cost = (0, 0)
        if calibrated:
            self._root_cost = self.calibrate(root=True)
            self._entry_cost = self.calibrate(root=False)

    @staticmethod
    def calibrate(*, root: bool, spans: int = 50_000) -> tuple[int, int]:
        """(inside, around) ns that recording one empty span costs."""
        def empty() -> None:
            pass

        probe = SpanRecorder(calibrated=False)
        probe.enabled = True
        spanned = (functools.partial(probe.run, empty) if root
                   else probe.wrap(empty, UNATTRIBUTED))
        start = perf_counter_ns()
        for _ in range(spans):
            pass
        loop_ns = perf_counter_ns() - start
        start = perf_counter_ns()
        for _ in range(spans):
            empty()
        call_ns = perf_counter_ns() - start - loop_ns
        with probe.span("loop"):
            for _ in range(spans):
                spanned()
        inside = (probe.self_ns[UNATTRIBUTED] - call_ns) // spans
        around = (probe.self_ns["loop"] - loop_ns) // spans
        return max(1, inside), max(1, around)

    # -- span primitives ------------------------------------------------------

    def _open_span(self, layer: str) -> int:
        self._open.append(0)
        self._layers.append(layer)
        return perf_counter_ns()

    def _close_span(self, start_ns: int, cost: tuple[int, int]) -> None:
        duration = perf_counter_ns() - start_ns
        layer = self._layers.pop()
        self.self_ns[layer] += duration - self._open.pop()
        self.calls[layer] += 1
        self.span_cost_ns[layer] += cost[0]
        if self._open:
            self._open[-1] += duration
            self.span_cost_ns[self._layers[-1]] += cost[1]

    @contextmanager
    def span(self, layer: str):
        """An explicit span (the harness opens one per measured step)."""
        start = self._open_span(layer)
        try:
            yield
        finally:
            self._close_span(start, (0, 0))

    def run(self, callback) -> None:
        """``Simulator.set_profiler`` hook: one root span per popped event."""
        if not self.enabled:
            callback()
            return
        layer = self._root_layer(callback)
        if layer == "net":
            self.net_events += 1
            if type(callback).__name__ == "_Transit":
                self.net_fast_events += 1
        start = self._open_span(layer)
        try:
            callback()
        finally:
            self._close_span(start, self._root_cost)

    def _root_layer(self, callback) -> str:
        # Cache on the underlying function (bound methods and partials are
        # fresh objects per event); periodic firings differ per task, so
        # they are cached on the task.
        key = getattr(callback, "__func__", None)
        if key is _PERIODIC_FIRE:
            key = callback.__self__
        elif key is None:
            key = (getattr(callback, "__code__", None)
                   or getattr(callback, "func", None) or type(callback))
        try:
            return self._layer_cache[key]
        except KeyError:
            layer = self._layer_cache[key] = layer_of_callback(callback)
            return layer
        except TypeError:       # unhashable callable
            return layer_of_callback(callback)

    def wrap(self, func, layer: str):
        """``func`` run inside a span of ``layer`` while recording is on."""
        @functools.wraps(func)
        def spanned(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            start = self._open_span(layer)
            try:
                return func(*args, **kwargs)
            finally:
                self._close_span(start, self._entry_cost)
        return spanned

    def _wrap_registration(self, register, keyword: str):
        """Wrap the callable handed to a registration method."""
        @functools.wraps(register)
        def registering(owner, first, target=None, **kwargs):
            target = kwargs.pop(keyword, target)
            if target is not None:
                target = self.wrap(target, layer_of_callback(target))
            return register(owner, first, target, **kwargs)
        return registering

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch ENTRIES and HANDOFFS for the duration of the block.

        Worlds that must be traced are *built* inside the block, so that
        periodic tasks bind the wrapped methods and registrations pass
        through the hand-off wrappers.
        """
        patches = [(cls, name, self.wrap(cls.__dict__[name], layer))
                   for cls, name, layer in ENTRIES]
        patches += [(cls, name,
                     self._wrap_registration(cls.__dict__[name], keyword))
                    for cls, name, keyword in HANDOFFS]
        originals = [(cls, name, cls.__dict__[name])
                     for cls, name, _ in patches]
        try:
            for cls, name, patched in patches:
                setattr(cls, name, patched)
            yield self
        finally:
            for cls, name, original in originals:
                setattr(cls, name, original)

    # -- read-out ---------------------------------------------------------------

    def bill(self, probes: int, untraced_ns: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far.

        ``untraced_ns`` is the wall the same steps took without tracing: the
        excess over it is taken out of each layer in proportion to the span
        costs tallied against it, so the layers and
        ``trace.unattributed_share`` add up to the untraced wall (unless the
        scale that takes hits ``MAX_SPAN_COST_SCALE``).
        """
        traced_ns = sum(self.self_ns.values())
        tallied_ns = sum(self.span_cost_ns.values())
        # Capped: where spans are few (analyzer-replay) the excess is noise
        # between the two passes, not span cost.
        scale = (min(MAX_SPAN_COST_SCALE,
                     max(0.0, traced_ns - untraced_ns) / tallied_ns)
                 if tallied_ns else 0.0)
        own_ns = {layer: max(0.0, ns - scale * self.span_cost_ns[layer])
                  for layer, ns in self.self_ns.items()}
        total_ns = sum(own_ns.values())
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = own_ns.get(layer, 0.0) / 1e9
            out[f"{layer}.share"] = (own_ns.get(layer, 0.0) / total_ns
                                     if total_ns else 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        for layer in ("sim", "net", "host", "agent"):
            out[f"{layer}.ns_per_probe"] = (
                own_ns.get(layer, 0.0) / probes if probes else 0.0)
        out["trace.unattributed_share"] = (
            own_ns.get(UNATTRIBUTED, 0.0) / total_ns if total_ns else 0.0)
        out["trace.overhead_x"] = traced_ns / untraced_ns
        out["trace.span_cost_scale_x"] = scale
        out["net.slow_path_event_share"] = (
            1.0 - self.net_fast_events / self.net_events
            if self.net_events else 0.0)
        return out
