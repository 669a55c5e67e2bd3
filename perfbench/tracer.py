"""Spans around the public entry points of each ``repro`` layer.

A traced process installs a :class:`repro.observability.TraceRecorder`,
which records the spans ``repro`` already opens at its layer boundaries
(``runner.experiment``, ``engine.evaluate``, ``trainstep.estimate``,
``kernels.tune``, ...).  The few public entry points without a built-in
span are wrapped here from outside, and their wrappers open spans on the
same recorder, so nothing inside ``src/`` is edited and an uninstalled
process pays nothing.  Spans stay in memory and are written out once,
when the traced process ends.

:func:`layer_metrics` turns spans into the per-layer metrics: call
counts at each boundary and each layer's self time, i.e. the time its
spans are open minus the part the spans of measured layers under them
cover.  Spans of no measured layer (``task.attempt``,
``profile.module``, ...) are transparent: their time stays with the
nearest measured span above them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability import Span, TraceRecorder, install_recorder, load_trace, span

#: (module, attribute path, span name) of the entry points wrapped here,
#: because ``repro`` opens no span of its own around them.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.gpu.gemm_model", "GemmModel.evaluate", "gpu.scalar"),
    ("repro.parallelism.planner", "ParallelPlanner.plan", "parallelism.plan"),
    ("repro.parallelism.planner", "ParallelPlanner.evaluate", "parallelism.evaluate"),
    ("repro.trainstep.memory", "estimate_memory", "trainstep.memory"),
    ("repro.serve.wire", "query_message", "wire.encode"),
    ("repro.serve.wire", "decode_line", "wire.decode"),
)

#: Modules whose every public function and method counts as a call
#: into the older closed-form memory / training-step models.
CORE_MODULES = ("repro.core.memory", "repro.core.training")

#: Span name -> measured layer, for the spans ``repro`` opens itself
#: and the ones wrapped above.
LAYERS = {
    "runner.experiment": "harness",
    "engine.evaluate": "engine",
    "engine.evaluate_grid": "engine",
    "engine.evaluate_tiles": "engine",
    "engine.memo_columns": "engine",
    "trainstep.estimate": "trainstep.estimate",
    "kernels.tune": "kernels",
    "gpu.scalar": "gpu.scalar",
    "parallelism.plan": "parallelism",
    "parallelism.evaluate": "parallelism",
    "trainstep.memory": "trainstep.memory",
    "wire.encode": "wire",
    "wire.decode": "wire",
}


def layer_of(name: str) -> Optional[str]:
    """The measured layer a span belongs to, or None for any other span."""
    if name.startswith("core.memory."):
        return "core.memory"
    return LAYERS.get(name)


def _wrap(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        attrs = {}
        if name == "wire.encode":
            attrs["rid"] = args[1] if len(args) > 1 else kwargs.get("request_id")
        with span(name, **attrs) as sp:
            result = fn(*args, **kwargs)
            if name == "wire.decode":
                sp.set(rid=result.get("id"))
            return result

    return traced


class Tracer:
    """One traced process: a recorder plus the wrappers it needs."""

    def __init__(self) -> None:
        self.recorder = TraceRecorder()
        self._undo: List[Tuple[Any, str, Any]] = []

    @property
    def spans(self) -> List[Span]:
        return self.recorder.spans

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Start recording; call after the workload's imports."""
        for module_name, path, name in WRAPPED:
            self._install_one(importlib.import_module(module_name), path, name)
        for module_name in CORE_MODULES:
            module = importlib.import_module(module_name)
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(value):
                    self._install_one(module, attr, f"core.memory.{attr}")
                elif inspect.isclass(value):
                    for meth, fn in vars(value).items():
                        callable_attr = inspect.isfunction(fn) or isinstance(fn, (classmethod, staticmethod))
                        if callable_attr and not meth.startswith("_"):
                            self._install_one(module, f"{attr}.{meth}", f"core.memory.{attr}.{meth}")
        install_recorder(self.recorder)
        return self

    def _install_one(self, module: Any, path: str, name: str) -> None:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            fn = cls.__dict__[attr]
            if isinstance(fn, (classmethod, staticmethod)):
                traced_fn = type(fn)(_wrap(fn.__func__, name))
            else:
                traced_fn = _wrap(fn, name)
            self._patch(cls, attr, traced_fn)
            return
        original = getattr(module, path)
        traced = _wrap(original, name)
        # ``from x import f`` copies bind the same object elsewhere;
        # rebind each copy so every caller goes through the wrapper.
        for other in list(sys.modules.values()):
            if getattr(other, "__dict__", {}).get(path) is original:
                self._patch(other, path, traced)

    def uninstall(self) -> None:
        install_recorder(None)
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def load(path: Path) -> List[Span]:
    return load_trace(path).spans


def _measured_parents(spans: Sequence[Span]) -> Dict[str, Optional[Span]]:
    """span id -> its nearest ancestor of a measured layer (or None)."""
    by_id = {s.span_id: s for s in spans}
    out: Dict[str, Optional[Span]] = {}
    for s in spans:
        parent = by_id.get(s.parent_id)
        while parent is not None and layer_of(parent.name) is None:
            parent = by_id.get(parent.parent_id)
        out[s.span_id] = parent
    return out


def request_ids(spans: Sequence[Span]) -> Dict[str, Optional[str]]:
    """span id -> the experiment id or wire request id it works for."""
    by_id = {s.span_id: s for s in spans}
    out: Dict[str, Optional[str]] = {}
    for s in spans:
        node: Optional[Span] = s
        while node is not None and "rid" not in node.attrs and node.name != "runner.experiment":
            node = by_id.get(node.parent_id)
        if node is None:
            out[s.span_id] = None
        else:
            rid = node.attrs.get("rid", node.attrs.get("id"))
            out[s.span_id] = None if rid is None else str(rid)
    return out


def dump(spans: Sequence[Span], path: Path) -> None:
    """Write spans as JSON lines, each with its request id as ``rid``."""
    rids = request_ids(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({**s.to_dict(), "rid": rids[s.span_id]}) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """span id -> duration minus what measured spans directly under it cover."""
    parents = _measured_parents(spans)
    own = {s.span_id: s.duration_s for s in spans if layer_of(s.name) is not None}
    for s in spans:
        parent = parents[s.span_id]
        if parent is not None and s.span_id in own:
            own[parent.span_id] -= s.duration_s
    return own


def layer_metrics(spans: Sequence[Span], iterations: int) -> Dict[str, float]:
    """Per-layer counts and self times, averaged per workload iteration."""
    own = self_times(spans)
    parents = _measured_parents(spans)

    def has_ancestor(s: Span, layers: Tuple[str, ...]) -> bool:
        parent = parents[s.span_id]
        while parent is not None:
            if layer_of(parent.name) in layers:
                return True
            parent = parents[parent.span_id]
        return False

    measured = [s for s in spans if layer_of(s.name) is not None]
    self_ms: Dict[str, float] = {}
    for s in measured:
        layer = layer_of(s.name)
        self_ms[layer] = self_ms.get(layer, 0.0) + own[s.span_id] * 1e3
    engine_top = [
        s for s in measured if layer_of(s.name) == "engine" and not has_ancestor(s, ("engine",))
    ]
    scalar_top = [
        s for s in measured
        if s.name == "gpu.scalar" and not has_ancestor(s, ("engine", "gpu.scalar"))
    ]
    wire_calls = {
        name: [own[s.span_id] for s in measured if s.name == name]
        for name in ("wire.encode", "wire.decode")
    }
    k = float(max(1, iterations))
    return {
        "harness.self_ms": self_ms.get("harness", 0.0) / k,
        "harness.experiments": sum(s.name == "runner.experiment" for s in measured) / k,
        "engine.batch.calls": len(engine_top) / k,
        "engine.batch.rows": sum(int(s.attrs.get("shapes", 0)) for s in engine_top) / k,
        "engine.batch.ms": self_ms.get("engine", 0.0) / k,
        "gpu.scalar.calls": len(scalar_top) / k,
        "gpu.scalar.ms": self_ms.get("gpu.scalar", 0.0) / k,
        "parallelism.plan.ms": self_ms.get("parallelism", 0.0) / k,
        "parallelism.evaluate.calls": sum(s.name == "parallelism.evaluate" for s in measured) / k,
        "trainstep.estimate.ms": self_ms.get("trainstep.estimate", 0.0) / k,
        "trainstep.memory.ms": self_ms.get("trainstep.memory", 0.0) / k,
        "core.memory.calls": sum(
            layer_of(s.name) == "core.memory" and not has_ancestor(s, ("core.memory",))
            for s in measured
        ) / k,
        "kernels.tune.ms": self_ms.get("kernels", 0.0) / k,
        "wire.encode_us": _mean(wire_calls["wire.encode"]) * 1e6,
        "wire.decode_us": _mean(wire_calls["wire.decode"]) * 1e6,
    }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
