"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces every public function of the layer modules with a
wrapper, on every name a ``sikam`` module looks it up by: ``cli`` and
``evaluate`` bind ``read_wav``, ``forward_logfreq``, ``separate``... at
import, ``specmurt`` resolves ``shift_frame`` as its own global, and
``kam.plan_neighbors`` reads ``shiftkam.`` and ``specmurt.`` attributes.
Each call under one of :data:`ENTRY_POINTS` becomes a span ``(id, parent
id, name, start, end)`` kept in memory; :meth:`Tracer.layer_metrics` turns them into the per-layer metrics
and :meth:`Tracer.dump` writes them out at the end of a run.

A few wrappers also look at arguments and results, so that the useful-work
ratios and computed counts come from the same calls on the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

import sikam
from sikam import audio_io, cli, evaluate, kam, shiftkam, specmurt, timefreq

LAYER_MODULES = (audio_io, timefreq, kam, shiftkam, specmurt, evaluate, cli)

BYTES_PER_COMPLEX = 16
# Spans start only under these calls: the user-facing calls a round times and
# the scene builders. Calls from the benchmark's own checks are not recorded.
ENTRY_POINTS = ("cli.main", "evaluate.run_grid", "evaluate.build_scene", "evaluate.default_scene_grid")
SCENE_BUILDERS = ("evaluate.build_scene", "evaluate.default_scene_grid")

# name -> (unit, description); the order is the order of the report.
LAYER_METRICS = {
    "specmurt.deconv_s": ("s", "estimate_shift_deconv, per round"),
    "specmurt.deconv_calls": ("count", "estimate_shift_deconv calls per round"),
    "specmurt.rerank_s": ("s", "self time of knn_specmurt_pruned plus shift_frame, per round"),
    "specmurt.matrix_s": ("s", "specmurt_matrix, per round"),
    "specmurt.similarity_s": ("s", "self time of knn_specmurt, per round"),
    "specmurt.similarity_calls": ("count", "knn_specmurt calls per round"),
    "specmurt.clamped_ratio": ("ratio", "deconvolution shifts with |shift| > delta / deconv calls"),
    "specmurt.surplus_hit_ratio": ("ratio", "pruned neighbors whose specmurt rank was > K / (K x targets)"),
    "shiftkam.search_s": ("s", "self time of knn_shift_exhaustive, per round"),
    "shiftkam.calls": ("count", "knn_shift_exhaustive calls per round"),
    "shiftkam.distance_evals": ("count", "computed: targets x (2 delta + 1) x pool, per round"),
    "kam.plan_s": ("s", "self time of plan_neighbors, per round"),
    "kam.knn_baseline_s": ("s", "knn_baseline, per round"),
    "kam.knn_baseline_calls": ("count", "knn_baseline calls per round"),
    "kam.targets": ("count", "support frames planned per round"),
    "kam.masks_s": ("s", "self time of separation_masks, per round"),
    "kam.median_s": ("s", "median_estimate, per round"),
    "kam.median_calls": ("count", "median_estimate calls per round"),
    "timefreq.forward_s": ("s", "forward_logfreq, per round"),
    "timefreq.forward_calls": ("count", "forward_logfreq calls per round"),
    "timefreq.inverse_s": ("s", "inverse_logfreq, per round"),
    "timefreq.inverse_calls": ("count", "inverse_logfreq calls per round"),
    "timefreq.retained_stft_mb": ("MB", "computed: linear bins x frames x 16 B, largest forward call"),
    "audio_io.read_s": ("s", "read_wav, per round"),
    "audio_io.write_s": ("s", "write_wav, per round"),
    "audio_io.bytes": ("B", "WAV bytes read and written per round"),
    "cli.self_s": ("s", "self time of the cli functions, per round"),
    "evaluate.score_s": ("s", "self time of evaluate functions other than scene building, per round"),
    "evaluate.scene_s": ("s", "build_scene while building the workload's inputs once"),
    "trace_overhead_ratio": ("ratio", "traced wall / untraced wall of the same rounds"),
    "trace_coverage_ratio": ("ratio", "top-level span time / traced wall"),
}


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
            yield f"{short}.{attr}", obj


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []
        self._deltas: list[int] = []
        self._last_pool = None

    # -------------------------------------------------------------- install

    def __enter__(self):
        wrappers = {}
        for module in LAYER_MODULES:
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(name, fn)
        for module in [m for n, m in sys.modules.items() if n == "sikam" or n.startswith("sikam.")]:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        entry = name in ENTRY_POINTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1] == 0 and not entry:
                return fn(*args, **kwargs)
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if observe is not None:
                observe(signature, args, kwargs, result)
            return result

        return wrapper

    # -------------------------------------------------------------- observers
    # Each gets the wrapped function's signature, the call's arguments and its
    # result; only those that need named arguments pay for binding them.

    def _observe_specmurt_estimate_shift_deconv(self, sig, args, kwargs, result):
        self._deltas.append(result.delta)

    def _observe_specmurt_knn_specmurt(self, sig, args, kwargs, result):
        self._last_pool = result

    def _observe_specmurt_knn_specmurt_pruned(self, sig, args, kwargs, result):
        args = sig.bind(*args, **kwargs).arguments
        max_shift = args["max_shift"]
        self.counts["clamped"] += sum(abs(d) > max_shift for d in self._deltas)
        self._deltas.clear()
        k = args["k"]
        if args["surplus"] > 0:
            rank = {int(frame): i for i, frame in enumerate(self._last_pool)}
            self.counts["surplus_hits"] += sum(rank[int(f)] >= k for f in result.frames)
            self.counts["surplus_slots"] += k

    def _observe_shiftkam_knn_shift_exhaustive(self, sig, args, kwargs, result):
        args = sig.bind(*args, **kwargs).arguments
        cands = np.unique(np.asarray(args["candidates"], dtype=int))
        pool = len(cands) - int(np.any(cands == args["target"]))
        self.counts["distance_evals"] += (2 * args["delta"] + 1) * pool

    def _observe_kam_plan_neighbors(self, sig, args, kwargs, result):
        self.counts["targets"] += len(result)

    def _observe_timefreq_forward_logfreq(self, sig, args, kwargs, result):
        stft = result.params.n_linear_bins * result.n_frames * BYTES_PER_COMPLEX
        self.counts["retained_stft_bytes"] = max(self.counts["retained_stft_bytes"], stft)

    def _observe_audio_io_read_wav(self, sig, args, kwargs, result):
        self.counts["audio_bytes"] += os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])

    _observe_audio_io_write_wav = _observe_audio_io_read_wav

    # -------------------------------------------------------------- reports

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            child[parent] += t1 - t0
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child[sid]
        return calls, incl, self_s

    def top_level_seconds(self) -> float:
        return sum(t1 - t0 for _, parent, _, t0, t1 in self.spans if parent == 0)

    def layer_metrics(self, rounds: int, traced_s: float, untraced_s: float, scene_s: float) -> dict:
        """Every metric of :data:`LAYER_METRICS`, per traced round where timed or counted."""
        calls, incl, self_s = self.totals()
        c = self.counts
        deconv_calls = calls["specmurt.estimate_shift_deconv"]
        per_round = {
            "specmurt.deconv_s": incl["specmurt.estimate_shift_deconv"],
            "specmurt.deconv_calls": deconv_calls,
            "specmurt.rerank_s": self_s["specmurt.knn_specmurt_pruned"] + incl["shiftkam.shift_frame"],
            "specmurt.matrix_s": incl["specmurt.specmurt_matrix"],
            "specmurt.similarity_s": self_s["specmurt.knn_specmurt"],
            "specmurt.similarity_calls": calls["specmurt.knn_specmurt"],
            "shiftkam.search_s": self_s["shiftkam.knn_shift_exhaustive"],
            "shiftkam.calls": calls["shiftkam.knn_shift_exhaustive"],
            "shiftkam.distance_evals": c["distance_evals"],
            "kam.plan_s": self_s["kam.plan_neighbors"],
            "kam.knn_baseline_s": incl["kam.knn_baseline"],
            "kam.knn_baseline_calls": calls["kam.knn_baseline"],
            "kam.targets": c["targets"],
            "kam.masks_s": self_s["kam.separation_masks"],
            "kam.median_s": incl["kam.median_estimate"],
            "kam.median_calls": calls["kam.median_estimate"],
            "timefreq.forward_s": incl["timefreq.forward_logfreq"],
            "timefreq.forward_calls": calls["timefreq.forward_logfreq"],
            "timefreq.inverse_s": incl["timefreq.inverse_logfreq"],
            "timefreq.inverse_calls": calls["timefreq.inverse_logfreq"],
            "audio_io.read_s": incl["audio_io.read_wav"],
            "audio_io.write_s": incl["audio_io.write_wav"],
            "audio_io.bytes": c["audio_bytes"],
            "cli.self_s": sum(v for n, v in self_s.items() if n.startswith("cli.")),
            "evaluate.score_s": sum(
                v for n, v in self_s.items() if n.startswith("evaluate.") and n not in SCENE_BUILDERS
            ),
        }
        values = {name: value / rounds for name, value in per_round.items()}
        values.update(
            {
                "specmurt.clamped_ratio": c["clamped"] / deconv_calls if deconv_calls else 0.0,
                "specmurt.surplus_hit_ratio": (
                    c["surplus_hits"] / c["surplus_slots"] if c["surplus_slots"] else 0.0
                ),
                "timefreq.retained_stft_mb": c["retained_stft_bytes"] / 2**20,
                "evaluate.scene_s": scene_s,
                "trace_overhead_ratio": traced_s / untraced_s,
                "trace_coverage_ratio": self.top_level_seconds() / traced_s,
            }
        )
        return {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and [id, parent, name index, start, end] rows."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, parent, index[name], t0, t1] for sid, parent, name, t0, t1 in self.spans]
        with open(path, "w") as fh:
            json.dump({"sikam": sikam.__file__, "names": names, "spans": rows}, fh, separators=(",", ":"))
