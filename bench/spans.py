"""Layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of each ``gzflows`` module
and rebinds the wrapper under every module name the function is bound to
(``matpoly.matexp`` and ``gzcore.matexp`` alike, and the ``cli.HANDLERS``
table), so calls between layers are caught.  ``uninstall`` puts the
original functions back, so untraced rounds run the program untouched.

A span is (name, layer, parent, start, end).  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("matpoly", "gzcore", "spaces", "ratmodel", "lax", "verify", "serialize", "cli")
# cli helpers that carry the decode and emit stages of a request
CLI_STAGES = ("_load_payload", "_emit")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.work = {"fd_evals": 0, "rk4_steps": 0, "emit_bytes": 0}
        self._wrapped: dict = {}
        self._bindings: list[tuple] = []

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        spans, stack, work, clock = self.spans, self.stack, self.work, time.perf_counter
        counter = {
            "verify.fd_gradient": lambda a, k: ("fd_evals", 4 * np.size(a[1] if len(a) > 1 else k["x"])),
            "lax.lax_integrate": lambda a, k: ("rk4_steps", int(a[4] if len(a) > 4 else k["steps"])),
            "lax.gauge_fix_regular": lambda a, k: ("rk4_steps", (a[0] if a else k["path"]).grid.size - 1),
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][4] = clock()
                stack.pop()
                if counter is not None:
                    key, amount = counter(args, kwargs)
                    work[key] += amount

        if name == "cli._emit":
            base = wrapper

            @functools.wraps(fn)
            def wrapper(doc, output):  # noqa: F811 - counts the bytes emitted
                before = sys.stdout.tell() if output is None else 0
                base(doc, output)
                after = sys.stdout.tell() if output is None else os.path.getsize(output)
                work["emit_bytes"] += after - before

        return wrapper

    def install(self) -> None:
        mods = {layer: sys.modules[f"gzflows.{layer}"] for layer in LAYERS}
        if not self._wrapped:
            for layer, mod in mods.items():
                for attr, obj in vars(mod).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or (layer == "cli" and attr in CLI_STAGES))
                    ):
                        self._wrapped[obj] = self._wrap(obj, layer)
            namespaces = [vars(m) for n, m in sys.modules.items() if n.split(".")[0] == "gzflows"]
            namespaces.append(mods["cli"].HANDLERS)
            for ns in namespaces:
                for attr, obj in list(ns.items()):
                    if inspect.isfunction(obj) and obj in self._wrapped:
                        self._bindings.append((ns, attr, obj))
        for ns, attr, obj in self._bindings:
            ns[attr] = self._wrapped[obj]

    def uninstall(self) -> None:
        for ns, attr, obj in self._bindings:
            ns[attr] = obj

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        for key in self.work:
            self.work[key] = 0

    def summary(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer counts and times (ms, multiplied by scale) since reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, layer, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name_calls: dict[str, int] = {}
        by_name_self: dict[str, float] = {}
        stage = {"decode": 0.0, "encode": 0.0, "emit": 0.0, "handler": 0.0}
        for idx, (name, layer, parent, start, end) in enumerate(spans):
            dur = end - start
            own = dur - child[idx]
            calls[layer] += 1
            self_s[layer] += own
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
            by_name_self[name] = by_name_self.get(name, 0.0) + own
            parent_layer = spans[parent][1] if parent >= 0 else None
            if layer == "serialize" and parent_layer != "serialize":
                stage["decode" if ".decode" in name else "encode"] += dur
            elif name == "cli._load_payload":
                stage["decode"] += dur
            elif name == "cli._emit":
                stage["emit"] += dur
            elif name.startswith("cli.cmd_") and parent >= 0 and spans[parent][0] == "cli.run":
                stage["handler"] += dur
        # serialize work below the handler is decode or encode, not compute
        in_handler = sum(
            end - start
            for name, layer, parent, start, end in spans
            if layer == "serialize" and parent >= 0 and spans[parent][0].startswith("cli.cmd_")
        )
        ms = 1e3 * scale
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = ms * self_s[layer]
        for name in (
            "verify.fd_gradient", "ratmodel.md_validate", "matpoly.charpoly",
            "matpoly.matexp", "matpoly.roots", "matpoly.numerical_rank", "gzcore.flow_factor",
        ):
            out[f"{name}.calls"] = by_name_calls.get(name, 0)
        out["ratmodel.isotropy_nullity.self_ms"] = ms * by_name_self.get("ratmodel.isotropy_nullity", 0.0)
        out["verify.fd_evals"] = self.work["fd_evals"]
        out["lax.rk4_steps"] = self.work["rk4_steps"]
        out["cli.emit_bytes"] = self.work["emit_bytes"]
        out["cli.decode_ms"] = ms * stage["decode"]
        out["cli.encode_ms"] = ms * stage["encode"]
        out["cli.emit_ms"] = ms * stage["emit"]
        out["cli.compute_ms"] = ms * (stage["handler"] - in_handler)
        return out

    def dump(self, path) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, parent, start, end in self.spans:
                fh.write(json.dumps([name, parent, start, end]) + "\n")

