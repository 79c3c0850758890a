"""Spans around the benchmark's calls into each ssa_lab layer.

The traced invocation replaces each listed public function, in every
ssa_lab module namespace that binds it, with a wrapper that records a span
(name, start, end, parent span, item id).  Calls the package makes
internally go through those bindings too, so spans nest and a layer's self
time is its span minus the time its child spans cover.  Spans stay in
memory and are written out when the run ends.  The untraced invocation
never imports this module.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# Layer -> public functions that get a span.  These are the per-layer
# metrics `<layer>.<function>.calls`, `.busy_s` and `.p50_ms`.
TRACED = {
    "qmat": ("random_density", "random_pure", "partial_trace", "load_state", "save_state"),
    "entropy": ("t_gap", "ssa_gap_form1", "concavity_check", "von_neumann_entropy"),
    "purify": ("purify", "extend"),
    "structure": ("random_saturating_spec", "build_saturating", "certify"),
    "twoblock": ("two_block_state", "gap_closed_form", "sweep_figure"),
    "qcorr": (
        "discord", "discord_via_kw", "conservation_check",
        "eof_two_qubit", "eof_convex_roof", "theorem1_audit",
    ),
    "cli": ("run_campaign",),
}
ITEM = "bench.item"


def _discord_extra(result) -> dict:
    return {"restarts": result.restarts_used, "converged": bool(result.converged)}


EXTRA = {"qcorr.discord": _discord_extra}


class Recorder:
    """In-memory span list; each span is [name, start, end, parent, item, extra]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.item, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_item(self, item_id: str, kind: str) -> None:
        self.item = item_id
        idx = self._open(ITEM)
        self.spans[idx][5] = {"kind": kind}

    def end_item(self) -> None:
        self._close(self.stack[-1])
        self.item = None

    def _wrap(self, name: str, fn):
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.spans[idx][5] = extra(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded ssa_lab module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ssa_lab" or n.startswith("ssa_lab.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"ssa_lab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            # one span per line: [name, start, end, parent index, item id, extra]
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def layer_metrics(spans: list[list], batches: int) -> dict[str, float]:
    """Per-layer counts and times per batch, plus glue time, from the spans.

    busy_s is inclusive span time; `<layer>.self_s` subtracts the time each
    span's children cover, so the layers' self times and the glue add up to
    the item time.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = {f"{l}.{f}": [] for l, fs in TRACED.items() for f in fs}
    self_s = {layer: 0.0 for layer in TRACED}
    glue = 0.0
    restarts = converged = discords = 0
    for k, (name, start, end, _, _, extra) in enumerate(spans):
        own = end - start - child_time[k]
        if name == ITEM:
            glue += own
            continue
        durations[name].append(end - start)
        self_s[name.split(".")[0]] += own
        if name == "qcorr.discord" and extra:
            discords += 1
            restarts += extra["restarts"]
            converged += extra["converged"]
    out: dict[str, float] = {}
    for name, ds in durations.items():
        out[f"{name}.calls"] = len(ds) / batches
        out[f"{name}.busy_s"] = sum(ds) / batches
        out[f"{name}.p50_ms"] = statistics.median(ds) * 1e3 if ds else 0.0
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value / batches
    out["qcorr.discord.restarts"] = restarts / batches
    out["qcorr.discord.converged_frac"] = converged / discords if discords else 0.0
    out["bench.glue_s"] = glue / batches
    return out
