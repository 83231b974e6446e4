"""Span tracing of umbral's layers from outside the package.

:class:`Tracer` wraps the public functions and methods of each umbral
module (and the ring operators of its classes) while installed, and
restores the originals on exit.  Every wrapped call is a span with a
name, start, end and parent; spans of one job share the job index.  A
span's self time is its duration minus the time covered by its child
spans.  Poly operations and moment lookups run millions of times, so
they are aggregated (calls and self time) instead of stored one by one;
all other spans stay in memory until :meth:`Tracer.write_spans`.

Besides per-name calls and self time the tracer keeps, per group of
names, the inclusive time during which at least one span of the group
was open (so nested calls are not counted twice).  Every layer is a
group; a few extra groups pick out the spans the workloads were chosen
to separate.
"""

from __future__ import annotations

import importlib
import inspect
import time
from pathlib import Path

LAYERS = ("poly", "series", "core", "dot", "sequences", "multiplicative", "oracle", "cli")

#: Layers and spans counted and timed but not stored one by one.
_AGGREGATED = {"poly", "core.MomentSeq.moment", "core.Alphabet.moment"}

_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__")

#: Extra inclusive-time groups: name -> span names that open it.
GROUPS = {
    "series.comp_inverse": {"series.Series.comp_inverse"},
    "core.products_eval": {
        "core.UmbralPoly.__mul__",
        "core.UmbralPoly.__pow__",
        "core.Alphabet.evaluate",
        "core.Alphabet.evaluate_partial",
    },
    "sequences.validate": {"sequences.first_binomial_failure"},
}

#: Dot work runs lazily when a moment of an auxiliary (dot-built) umbra is
#: first asked for, so those lookups are dot spans, not core spans.
_AUX_MOMENT = "dot.Alphabet.moment[auxiliary]"


class _Frame:
    __slots__ = ("child", "span_id")

    def __init__(self, span_id: int):
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Install with ``with Tracer(): ...``; read :attr:`calls`, :attr:`self_s`,
    :attr:`inclusive_s` and :attr:`spans` afterwards."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        #: Calls made while a dot span was open.
        self.calls_in_dot: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {g: 0.0 for g in (*LAYERS, *GROUPS)}
        self.moment_computes = 0
        self.job = -1
        #: (span id, parent span id, job, name, start, end); parent 0 is the job root.
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._top = _Frame(0)
        self._next_id = 1
        self._depth = {g: 0 for g in self.inclusive_s}
        self._opened = {g: 0.0 for g in self.inclusive_s}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        modules = [importlib.import_module(f"umbral.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__qualname__}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for name, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not name.startswith("_") or name in _OPERATORS):
                            w = wrappers.get(id(fn)) or self._wrap(fn, f"{layer}.{fn.__qualname__}", layer)
                            wrappers[id(fn)] = w
                            self._patch(obj, name, w)
        self._patch_alphabet_moment(modules[LAYERS.index("core")])
        self._patch_moment_seq(modules[LAYERS.index("core")])
        # Rebind every module-level reference (including ``from x import f``
        # copies and dispatch tables) to the wrapper.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patch(obj, key, wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def _patch_alphabet_moment(self, core) -> None:
        as_core = vars(core.Alphabet)["moment"]  # already wrapped as a core span
        as_dot = self._wrap(as_core.__wrapped__, _AUX_MOMENT, "dot")

        def moment(alphabet, uid, k):
            if uid in alphabet._auxiliary:
                return as_dot(alphabet, uid, k)
            return as_core(alphabet, uid, k)

        self._patch(core.Alphabet, "moment", moment)

    def _patch_moment_seq(self, core) -> None:
        original = core.MomentSeq.__init__
        tracer = self

        def __init__(seq, fn, description="custom"):
            def counted(k):
                tracer.moment_computes += 1
                return fn(k)

            original(seq, counted, description)

        self._patch(core.MomentSeq, "__init__", __init__)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        groups = (layer,) + tuple(g for g, names in GROUPS.items() if name in names)
        record = layer not in _AGGREGATED and name not in _AGGREGATED
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        self.calls_in_dot.setdefault(name, 0)
        clock = time.perf_counter
        tracer = self
        depth, opened, inclusive = self._depth, self._opened, self.inclusive_s
        calls, self_s, calls_in_dot = self.calls, self.self_s, self.calls_in_dot

        def wrapper(*args, **kwargs):
            if depth["dot"]:
                calls_in_dot[name] += 1
            parent = tracer._top
            if record:
                frame = _Frame(tracer._next_id)
                tracer._next_id += 1
            else:
                frame = _Frame(parent.span_id)
            tracer._top = frame
            start = clock()
            for g in groups:
                if not depth[g]:
                    opened[g] = start
                depth[g] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        inclusive[g] += end - opened[g]
                tracer._top = parent
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame.child
                parent.child += duration
                if record:
                    tracer.spans.append((frame.span_id, parent.span_id, tracer.job, name, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per stored span: id, parent, job, name,
        start and end in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write("id\tparent\tjob\tname\tstart_us\tend_us\n")
            for sid, parent, job, name, start, end in self.spans:
                out.write(f"{sid}\t{parent}\t{job}\t{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n")

    # -- summaries --------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def calls_of(self, name: str) -> int:
        return self.calls.get(name, 0)
