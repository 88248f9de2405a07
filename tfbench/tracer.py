"""Span tracing of the tfcomm layers from outside the library.

``Tracer.install`` replaces every public function of every tfcomm module
(the names in each module's ``__all__``), in every tfcomm namespace that
binds it, with a wrapper that records a span; ``OFDMConfig.__post_init__``,
where the lattice Gram is computed, is wrapped as ``ofdm.OFDMConfig``.
``uninstall`` puts the originals back.  Nothing in ``src/`` changes.

A span is (name, layer, start, end, parent): the layer is the module that
defines the function and the parent is the index of the enclosing span, or
-1.  Spans stay in memory until ``write_spans``.  A function's self time is
its span's duration minus the durations of its direct child spans; calls
are nested on one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("tf_core", "wh_frames", "channel_models", "ofdm", "identification", "capacity",
          "cli")


def _tfcomm_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "tfcomm" or name.startswith("tfcomm."))]


def _layer(fn) -> str:
    return fn.__module__.rpartition(".")[2]


class Tracer:
    def __init__(self):
        self.passes: list[list[tuple]] = []
        self._spans: list[tuple | None] = []
        self._open: list[list] = []  # [span index, child seconds] of each open span
        self._self_s: Counter = Counter()
        self._calls: Counter = Counter()
        self._errors: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = _tfcomm_modules()
        wrappers = {}
        for mod in modules:
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__.startswith("tfcomm"):
                    wrappers[fn] = self._wrap(fn, f"{_layer(fn)}.{fn.__name__}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        ofdm_config = sys.modules["tfcomm.ofdm"].OFDMConfig
        self._patch(ofdm_config, "__post_init__",
                    self._wrap(ofdm_config.__post_init__, "ofdm.OFDMConfig"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str):
        layer = name.partition(".")[0]
        spans, stack = self._spans, self._open
        self_s, calls, errors = self._self_s, self._calls, self._errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, layer, start, end, parent)

        return traced

    # -- results ----------------------------------------------------------

    def end_pass(self) -> dict[str, dict[str, float]]:
        """Per-function and per-layer totals of the pass just traced; resets them."""
        totals: dict[str, dict[str, float]] = {}
        for name in set(self._calls) | set(self._self_s):
            layer = name.partition(".")[0]
            for key in (name, layer):
                entry = totals.setdefault(key, {"self_s": 0.0, "calls": 0, "errors": 0})
                entry["self_s"] += self._self_s[name]
                entry["calls"] += self._calls[name]
                entry["errors"] += self._errors[name]
        self.passes.append(list(self._spans))
        self._spans.clear()
        self._self_s.clear()
        self._calls.clear()
        self._errors.clear()
        return totals

    def write_spans(self, path: Path) -> None:
        """One JSON line per span, tagged with the index of its pass."""
        keys = ("name", "layer", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            for number, spans in enumerate(self.passes):
                for span in spans:
                    fh.write(json.dumps({"pass": number, **dict(zip(keys, span))}) + "\n")
