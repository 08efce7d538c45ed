"""Spans recorded from outside the program, and the per-layer metrics built on them.

The tracer replaces public `dmdn` functions with timing wrappers at every
import site (each loaded `dmdn.*` module attribute bound to the original
function) and restores them afterwards.  A span records its name, start,
end, parent and a few attributes taken from the call.  Spans stay in memory
until the run writes them out.

Spans opened on a worker thread with no open span of their own take the
innermost open span of the tracing thread as parent, so `dmdn eval --jobs`
pool work nests under its command.  A span's self time is its duration
minus the part of it covered by the union of its children's intervals; a
layer's busy time is the union of its spans' intervals, so it never exceeds
the wall time even when two threads run the layer at once.  Rates divide
by summed span durations (thread-seconds).
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

DEMOSAIC_METHODS = ("bilinear", "ha", "malvar")
PRESET_MARGIN_DB = 0.05


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _method_name(method) -> str:
    return str(getattr(method, "value", method)).lower()


def _shape(img) -> tuple[int, ...]:
    values = getattr(img, "planes", getattr(img, "plane", None))
    return tuple(values.shape) if values is not None else ()


def _size(img) -> int:
    n = 1
    for d in _shape(img):
        n *= d
    return n


def dct8_blocks(img, cfg) -> int:
    """8x8 block transforms in one sliding-DCT denoise of a (3, h, w) image.

    Counted from the shapes alone, so the count stays comparable across
    implementations: each channel is reflect-padded by block - step on every
    side (plus up to step - 1 to keep the grid regular) and a block starts
    every `step` pixels.
    """
    block, step = getattr(cfg, "block", 8), getattr(cfg, "step", 4)
    channels, h, w = _shape(img)
    pad = block - step

    def starts(n):
        return (n + 2 * pad + (-n) % step - block) // step + 1

    return channels * starts(h) * starts(w)


class Tracer:
    """Wraps `dmdn` functions while installed and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_lock = threading.Lock()  # pool threads check-then-add the keys below
        self.reset_unit()

    def reset_unit(self) -> None:
        """Forget the per-unit keys behind the redundancy shares."""
        self._awgn_seen: set = set()
        self._dn2_seen: set = set()
        self._dn2_inputs: dict = {}  # keeps keyed inputs alive so their ids stay unique

    # -- recording

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _call(self, name: str, fn, args, kwargs, attrs: dict):
        stack = self._stack()
        parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
        span = Span(next(self._ids), name, 0.0, 0.0, parent, attrs)
        stack.append(span.sid)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    # -- installing

    def install(self) -> None:
        """Wrap each layer's public functions at their import sites."""
        layers = [
            ("cli.main", "dmdn.cli", "main", None),
            ("noise.awgn", "dmdn.noise", "add_awgn", self._awgn_attrs),
            ("noise.poisson", "dmdn.noise", "poisson_sample", lambda a, k: {"samples": _size(_arg(a, k, 0, "img"))}),
            ("mosaic.mosaick", "dmdn.mosaic", "mosaick", None),
            ("mosaic.split_cfa", "dmdn.mosaic", "split_cfa", None),
            ("mosaic.recombine_cfa", "dmdn.mosaic", "recombine_cfa", None),
            ("demosaic", "dmdn.demosaic", "demosaic", self._demosaic_attrs),
            ("denoise.rgb", "dmdn.denoise", "denoise_rgb", self._denoise_attrs),
            ("denoise.cfa", "dmdn.denoise", "denoise_cfa", None),
            ("pipeline.run", "dmdn.pipeline", "run_pipeline", self._pipeline_attrs),
            ("optimize.cmaes", "dmdn.optimize", "cmaes_maximize", None),
            ("analysis.cpsnr", "dmdn.analysis", "cpsnr", None),
            ("analysis.noise_stats", "dmdn.analysis", "noise_stats", None),
            ("analysis.rmse_table", "dmdn.analysis", "rmse_table", None),
            ("formats.read", "dmdn.formats", "read_image",
             lambda a, k: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
        ]
        for name, module, func, attrs_of in layers:
            self._patch(module, func, self._timed(name, attrs_of))
        # The YC1C2 transforms, counted only where the denoisers call them.
        for func in ("opponent_planes", "rgb_planes", "rgb_to_opponent", "opponent_to_rgb"):
            self._patch("dmdn.image", func, self._timed("image.opponent", None), sites=("dmdn.denoise",))
        self._patch("dmdn.formats", "write_image", self._write_image)
        self._patch("dmdn.optimize", "pipeline_objective", self._objective_factory)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, module_name: str, func: str, make_wrapper, sites=None) -> None:
        """Rebind every `dmdn.*` attribute that is the original function.

        A function that a later version of the program renames or removes is
        skipped; its metrics then read 0.
        """
        original = getattr(sys.modules.get(module_name), func, None)
        if original is None:
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "dmdn" or (sites is not None and mod_name not in sites):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _timed(self, name: str, attrs_of):
        def make(fn):
            def wrapper(*args, **kwargs):
                attrs = attrs_of(args, kwargs) if attrs_of else {}
                return self._call(name, fn, args, kwargs, attrs)[0]

            return wrapper

        return make

    def _write_image(self, fn):
        def wrapper(*args, **kwargs):
            result, span = self._call("formats.write", fn, args, kwargs, {})
            span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))
            return result

        return wrapper

    def _objective_factory(self, factory):
        def wrapper(*args, **kwargs):
            objective, _ = self._call("optimize.pipeline_objective", factory, args, kwargs, {})

            def traced_objective(x):
                value, span = self._call("optimize.objective", objective, (x,), {}, {})
                span.attrs["value"] = value
                return value

            return traced_objective

        return wrapper

    # -- attributes taken from the arguments

    def _awgn_attrs(self, args, kwargs) -> dict:
        img, spec = _arg(args, kwargs, 0, "img"), _arg(args, kwargs, 1, "spec")
        key = (getattr(spec, "seed", None), _shape(img))
        with self._seen_lock:
            redundant = key in self._awgn_seen
            self._awgn_seen.add(key)
        return {"samples": _size(img), "redundant": redundant}

    def _demosaic_attrs(self, args, kwargs) -> dict:
        method = _method_name(_arg(args, kwargs, 1, "method", "ha"))
        return {"method": method, "pixels": _size(_arg(args, kwargs, 0, "cfa"))}

    def _denoise_attrs(self, args, kwargs) -> dict:
        img, method, cfg = (_arg(args, kwargs, i, n) for i, n in enumerate(("img", "method", "cfg")))
        dct8 = _method_name(method) == "dct8" and getattr(cfg, "sigma", 0.0) != 0.0
        return {"dct8_blocks": dct8_blocks(img, cfg) if dct8 else 0, "dct8": dct8}

    def _pipeline_attrs(self, args, kwargs) -> dict:
        v, spec = _arg(args, kwargs, 0, "v"), _arg(args, kwargs, 1, "spec")
        p = spec.params
        dn2_skipped = p.beta == 0.0 or p.sigma2 == 0.0
        redundant = False
        if not dn2_skipped:
            # With alpha = 0 the DN2 input no longer depends on sigma1.
            sigma1 = p.sigma1 if p.alpha != 0.0 else 0.0
            key = (id(v), p.alpha, sigma1, p.sigma2, str(spec.dn1), str(spec.dm), str(spec.dn2), spec.vst)
            with self._seen_lock:
                redundant = key in self._dn2_seen
                self._dn2_seen.add(key)
                self._dn2_inputs[id(v)] = v
        return {
            "dn1_skipped": p.alpha == 0.0 or p.sigma1 == 0.0,
            "dn2_skipped": dn2_skipped,
            "dn2_redundant": redundant,
        }


# ---------------------------------------------------------------- metrics


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.sid: s.seconds - _union((max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid])
        for s in spans
    }


def metric_unit(name: str) -> str:
    """The unit of a per-layer metric, read from its name's last part."""
    last = name.rsplit(".", 1)[-1]
    for suffix, unit in (("ns_per_sample", "ns"), ("us_per_sample", "us"), ("mpix_per_s", "Mpix/s"),
                         ("per_s", "1/s"), ("_s", "s"), ("share", "ratio"), ("util", "ratio"),
                         ("bytes", "B"), ("mpix", "Mpix"), ("_db", "dB")):
        if last.endswith(suffix):
            return unit
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_metrics(spans: list[Span], unit) -> dict[str, float]:
    """Per-layer metrics of one traced unit, from its spans and its outputs.

    The tune's outputs give the evaluation target (best preset less
    criterion 8's 0.05 dB), the generation count and the tuned value.
    """
    presets, grid = unit.outputs.get("presets"), unit.outputs.get("grid")
    tuned = unit.outputs.get("tuned", {})
    target = max(presets.values()) - PRESET_MARGIN_DB if presets else None
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def busy(*names, where=lambda s: True):
        return _union((s.start, s.end) for n in names for s in by_name[n] if where(s))

    def total(name, attr=None, where=lambda s: True):
        return sum((s.attrs.get(attr, 0) if attr else s.seconds) for s in by_name[name] if where(s))

    def self_sum(name):
        return sum(own[s.sid] for s in by_name[name])

    m: dict[str, float] = {}
    awgn_samples = total("noise.awgn", "samples")
    m["noise.awgn.samples"] = awgn_samples
    m["noise.awgn.busy_s"] = busy("noise.awgn")
    m["noise.awgn.ns_per_sample"] = 1e9 * _ratio(total("noise.awgn"), awgn_samples)
    m["noise.awgn.redundant_share"] = _ratio(
        total("noise.awgn", "samples", where=lambda s: s.attrs["redundant"]), awgn_samples)
    poisson_samples = total("noise.poisson", "samples")
    m["noise.poisson.samples"] = poisson_samples
    m["noise.poisson.us_per_sample"] = 1e6 * _ratio(total("noise.poisson"), poisson_samples)

    m["mosaic.busy_s"] = busy("mosaic.mosaick", "mosaic.split_cfa", "mosaic.recombine_cfa")
    for method in DEMOSAIC_METHODS:
        m[f"demosaic.{method}.busy_s"] = busy("demosaic", where=lambda s, method=method: s.attrs["method"] == method)
    pixels = total("demosaic", "pixels")
    m["demosaic.mpix"] = pixels / 1e6
    m["demosaic.mpix_per_s"] = _ratio(pixels / 1e6, total("demosaic"))

    def is_dct8(s):
        return s.attrs["dct8"]

    blocks = total("denoise.rgb", "dct8_blocks")
    m["denoise.dct8.calls"] = sum(1 for s in by_name["denoise.rgb"] if is_dct8(s))
    m["denoise.dct8.blocks"] = blocks
    m["denoise.dct8.busy_s"] = busy("denoise.rgb", where=is_dct8)
    m["denoise.dct8.blocks_per_s"] = _ratio(blocks, total("denoise.rgb", where=is_dct8))
    m["denoise.cfa.self_s"] = self_sum("denoise.cfa")
    m["image.opponent.busy_s"] = busy("image.opponent")

    runs = by_name["pipeline.run"]
    dn2_calls = sum(1 for s in runs if not s.attrs["dn2_skipped"])
    m["pipeline.runs"] = len(runs)
    m["pipeline.self_s"] = self_sum("pipeline.run")
    m["pipeline.dn1_skipped_share"] = _ratio(sum(s.attrs["dn1_skipped"] for s in runs), len(runs))
    m["pipeline.dn2_skipped_share"] = _ratio(len(runs) - dn2_calls, len(runs))
    m["pipeline.dn2.calls"] = dn2_calls
    m["pipeline.dn2.redundant_share"] = _ratio(sum(s.attrs["dn2_redundant"] for s in runs), dn2_calls)

    cmaes = {s.sid for s in by_name["optimize.cmaes"]}
    tune_evals = sorted((s for s in by_name["optimize.objective"] if s.parent in cmaes), key=lambda s: s.start)
    m["optimize.evaluations"] = len(tune_evals)
    m["optimize.generations"] = tuned.get("generations", 0)
    reached = [i for i, s in enumerate(tune_evals, 1) if target is not None and s.attrs["value"] >= target]
    m["optimize.evals_to_target"] = reached[0] if reached else (len(tune_evals) + 1 if tune_evals else 0)
    m["optimize.self_s"] = self_sum("optimize.cmaes")
    m["optimize.objective_s"] = sum(s.seconds for s in tune_evals)
    best = tuned.get("best_cpsnr")
    m["optimize.preset_gap_db"] = best - max(presets.values()) if best is not None and presets else 0.0
    m["optimize.grid_gap_db"] = best - max(grid.values()) if best is not None and grid else 0.0

    m["analysis.cpsnr.busy_s"] = busy("analysis.cpsnr")
    m["analysis.noise_stats.busy_s"] = busy("analysis.noise_stats")
    m["analysis.rmse_table.self_s"] = self_sum("analysis.rmse_table")

    for kind in ("read", "write"):
        m[f"formats.{kind}.bytes"] = total(f"formats.{kind}", "bytes")
        m[f"formats.{kind}.busy_s"] = busy(f"formats.{kind}")

    m["cli.commands"] = len(by_name["cli.main"])
    m["cli.self_s"] = self_sum("cli.main")
    m["cli.manifest.bytes"] = unit.manifest_bytes
    return m
