"""Per-layer measurement from outside the program.

Two instruments, both installed only around a traced repetition:

* **Call wrappers** on each layer's public functions count and time
  the outermost calls into the layer (a nested call into the same
  group is neither counted nor timed twice).  ``Engine.timeout``
  is wrapped to build the event census: timeouts per name prefix of the
  process that asked for them.
* **cProfile** gives self time per function.  A function's self time
  goes to the layer of the module that owns its code; time in native
  or third-party code (builtins, numpy, the standard library) goes to
  the layer of the project code that called it, split by the callers'
  shares.  So work run from engine callbacks -- flow-solver timers, the
  telemetry pump -- lands on the layer that owns it, not on the engine.
"""

from __future__ import annotations

import collections
import cProfile
import os
import pstats
import re
import time
import typing

from repro.ft.backups import OutputBackupStore
from repro.hardware.interconnect import Topology
from repro.memory.manager import MemoryManager
from repro.memory.sharing import SharedRegionCache
from repro.runtime.admission import RackDriver
from repro.runtime.health import HealthMonitor
from repro.runtime.placement import PlacementPolicy
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import Engine
from repro.sim.flows import FlowNetwork

#: Module (relative to the ``repro`` package) -> layer; the first
#: matching prefix wins, unmatched project modules are ``other``.
LAYER_OF_MODULE = [
    ("sim/engine.py", "engine"),
    ("sim/events.py", "engine"),
    ("sim/resources.py", "engine"),
    ("sim/flows.py", "flows"),
    ("hardware/interconnect.py", "topology"),
    ("runtime/admission.py", "admission"),
    ("runtime/tenancy.py", "admission"),
    ("runtime/health.py", "health"),
    ("runtime/transfer.py", "health"),
    ("runtime/", "rts"),
    ("memory/", "memory"),
    ("ft/backups.py", "backups"),
    ("obs/", "obs"),
    ("apps/llm_exec.py", "llm"),
    ("apps/llm.py", "llm"),
]
LAYERS = ["engine", "flows", "topology", "admission", "rts", "health",
          "memory", "backups", "obs", "llm", "other", "trace"]

_HERE = os.path.dirname(os.path.abspath(__file__))
_PACKAGE = os.sep + "repro" + os.sep
_NETWORKX = os.sep + "networkx" + os.sep
_NUMBERED = re.compile(r"-\d+$")


def process_prefix(name: str) -> str:
    """Census key of a process name: ``llm-wait-17`` -> ``llm-wait``."""
    if not name:
        return "(no process)"
    if "#" in name:       # "<job>#finalize", "health:<node>#drain"
        return name.rsplit("#", 1)[1]
    if "/" in name:       # task processes are named "<job>/<task>"
        return "task"
    if ":" in name:       # "federation:fetch:<job>"
        return name.split(":", 1)[0]
    return _NUMBERED.sub("", name)


def layer_of_file(filename: str) -> typing.Optional[str]:
    """The layer owning code in ``filename``; None for native/3rd party."""
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "trace"
    if _NETWORKX in filename:
        return "topology"
    at = filename.rfind(_PACKAGE)
    if at < 0:
        return None
    module = filename[at + len(_PACKAGE):].replace(os.sep, "/")
    for prefix, layer in LAYER_OF_MODULE:
        if module.startswith(prefix):
            return layer
    return "other"


def self_time_by_layer(profile: cProfile.Profile) -> typing.Dict[str, float]:
    """Profiler self time summed per layer (see the module docstring)."""
    stats = pstats.Stats(profile).stats
    shares: typing.Dict[tuple, typing.Dict[str, float]] = {}

    def owners(key, visiting):
        """Layer -> fraction of ``key``'s self time it owns."""
        if key in shares:
            return shares[key]
        layer = layer_of_file(key[0])
        if layer is not None:
            shares[key] = {layer: 1.0}
            return shares[key]
        callers = stats[key][4] if key in stats else {}
        total = sum(c[2] for c in callers.values())
        if not callers or total <= 0.0 or key in visiting:
            return {"other": 1.0}
        visiting.add(key)
        split: typing.Dict[str, float] = collections.defaultdict(float)
        for caller, (_cc, _nc, tt, _ct) in callers.items():
            for layer, fraction in owners(caller, visiting).items():
                split[layer] += fraction * tt / total
        visiting.discard(key)
        shares[key] = dict(split)
        return shares[key]

    totals = {layer: 0.0 for layer in LAYERS}
    for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, fraction in owners(key, set()).items():
            totals[layer] += tt * fraction
    return totals


class LayerTrace:
    """Call wrappers + profiler for one traced repetition."""

    #: (class, method, group); the method is wrapped on the class and on
    #: every subclass that defines its own.
    GROUPS = [
        (Engine, "run", "engine.run"),
        (Topology, "route", "topology.route"),
        (Topology, "route_kinds", "topology.route"),
        (Topology, "addressable", "topology.route"),
        (Topology, "coherent", "topology.route"),
        (RackDriver, "submit_job", "admission.submit"),
        (Scheduler, "assign", "scheduler.assign"),
        (PlacementPolicy, "place", "placement.place"),
        (HealthMonitor, "observe_latency", "health.observe"),
        (HealthMonitor, "observe_transfer", "health.observe"),
        (MemoryManager, "allocate_on", "memory.alloc"),
        (MemoryManager, "free", "memory.free"),
        (SharedRegionCache, "acquire", "sharing.acquire"),
        (OutputBackupStore, "backup_delivery", "backups.delivery"),
    ]

    def __init__(self):
        self.calls: typing.Counter[str] = collections.Counter()
        self.seconds: typing.Counter[str] = collections.Counter()
        self.flow_bytes = 0.0
        #: Engine.timeout calls per process-name prefix.
        self.timeouts: typing.Counter[str] = collections.Counter()
        self.profile = cProfile.Profile()
        self._depth: typing.Counter[str] = collections.Counter()
        self._saved: typing.List[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, original, group: str):
        calls, seconds, depth = self.calls, self.seconds, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if depth[group]:
                return original(*args, **kwargs)
            calls[group] += 1
            depth[group] += 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[group] += clock() - start
                depth[group] -= 1
        return wrapper

    def _patch(self, cls, name: str, replacement) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def _install(self) -> None:
        for root, method, group in self.GROUPS:
            pending = [root]
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                if method in cls.__dict__:
                    self._patch(cls, method,
                                self._wrap(cls.__dict__[method], group))
        timeouts, calls, trace = self.timeouts, self.calls, self
        original_timeout = Engine.__dict__["timeout"]
        original_transfer = FlowNetwork.__dict__["transfer"]

        def timeout(engine, delay, value=None):
            process = engine.active_process
            timeouts[process_prefix(process.name if process else "")] += 1
            return original_timeout(engine, delay, value)

        def transfer(network, route, nbytes, *args, **kwargs):
            calls["flows.transfer"] += 1
            trace.flow_bytes += nbytes
            return original_transfer(network, route, nbytes, *args, **kwargs)

        self._patch(Engine, "timeout", timeout)
        self._patch(FlowNetwork, "transfer", transfer)

    def _uninstall(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    # -- use ---------------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        self._install()
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        self._uninstall()

    def metrics(self, events: float,
                census: typing.Iterable[str]) -> typing.Dict[str, float]:
        """Per-layer host metrics of the traced repetition; the timeout
        count and share of ``events`` of each prefix in ``census``."""
        selfs = self_time_by_layer(self.profile)
        total_timeouts = sum(self.timeouts.values())
        out = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
        out.update({
            "engine.timeouts": float(total_timeouts),
            "engine.run_calls": float(self.calls["engine.run"]),
            "flows.transfers": float(self.calls["flows.transfer"]),
            "flows.bytes": self.flow_bytes,
            "topology.route_calls": float(self.calls["topology.route"]),
            "topology.route_s": self.seconds["topology.route"],
            "admission.submits": float(self.calls["admission.submit"]),
            "scheduler.assign_calls": float(self.calls["scheduler.assign"]),
            "scheduler.assign_s": self.seconds["scheduler.assign"],
            "placement.place_calls": float(self.calls["placement.place"]),
            "placement.place_s": self.seconds["placement.place"],
            "health.observe_calls": float(self.calls["health.observe"]),
            "memory.allocs": float(self.calls["memory.alloc"]),
            "memory.frees": float(self.calls["memory.free"]),
            "sharing.acquires": float(self.calls["sharing.acquire"]),
            "backups.deliveries": float(self.calls["backups.delivery"]),
        })
        for prefix in census:
            count = self.timeouts[prefix]
            out[f"engine.timeouts.{prefix}"] = float(count)
            out[f"engine.share.{prefix}"] = count / events if events else 0.0
        return out
