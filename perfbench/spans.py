"""Spans around the package's public functions, and the per-layer table.

A `Tracer` replaces each traced function at every module attribute (or
class attribute, for methods) through which callers resolve it, records a
span (name, start, end, parent, item) per call and restores the originals
on exit. Op backward is timed by wrapping the `_backward` closure of every
Tensor a traced op returns. Spans stay in memory until `per_layer` reads
them, column-wise in flat lists, so a long trace adds no objects for the
garbage collector to scan. Self time is a span's duration minus the
durations of its children.

`item` is the phase a span belongs to: "setup", a timed item number (1, 2,
...) or "post". The workload moves it forward.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from minircnn import (anchors, assignment, boxes, dataio, detector, evaluation,
                      nn, onestage, rng, rpn, tensor)

clock = time.perf_counter

# tape ops reported on their own; the rest of the tape ops are "other"
_OPS = ("conv2d", "maxpool2x2", "roi_pool", "linear", "relu", "softmax_logloss",
        "smooth_l1", "take_rows")
_OTHER_OPS = ("add", "mul", "tsum", "reshape", "transpose", "select_class")


# count hooks: (tracer, args, result) -> None, called after the span
def _count_nms(tr, args, keep):
    tr.count("boxes.nms_arr.calls", 1)
    tr.count("boxes.nms_arr.boxes_in", np.asarray(args[0]).reshape(-1, 4).shape[0])
    tr.count("boxes.nms_arr.kept", len(keep))


def _count_logloss(tr, args, out):
    # the one-stage loop samples windows inline and feeds them straight here
    if tr.parent() < 0:
        labels = np.asarray(args[1])
        tr.count("onestage.sampled_fg", int((labels > 0).sum()))
        tr.count("onestage.sampled", labels.size)


def _count_sample_rois(tr, args, batch):
    tr.count("detector.sample_rois.fg", int((batch.labels > 0).sum()))
    tr.count("detector.sample_rois.rois", batch.labels.size)


def _counter(key, size=lambda args, out: 1):
    def hook(tr, args, out):
        tr.count(key, size(args, out))
    return hook


_OP_HOOKS = {
    "roi_pool": _counter("tensor.roi_pool.rois", lambda a, out: out.shape[0]),
    "softmax_logloss": _count_logloss,
}


def _targets():
    """(owner, attribute, span name, count hook) for every traced callable."""
    t = [(tensor, op, f"tensor.{op}", _OP_HOOKS.get(op)) for op in _OPS]
    t += [(tensor, op, "tensor.other", None) for op in _OTHER_OPS]
    t += [
        (tensor.Tensor, "backward", "tensor.backward", None),
        (boxes, "nms_arr", "boxes.nms_arr", _count_nms),
        (boxes, "iou_matrix_arr", "boxes.iou_matrix_arr",
         _counter("boxes.iou_matrix_arr.pairs", lambda a, out: out.size)),
        (boxes, "decode_arr", "boxes.decode_arr", None),
        (boxes, "clip_arr", "boxes.clip_arr", None),
        (boxes, "encode_arr", "boxes.encode_arr", None),
        (anchors, "grid_anchors", "anchors.grid_anchors",
         _counter("anchors.grid_anchors.calls")),
        (anchors, "inside_mask", "anchors.inside_mask", None),
        (assignment, "assign_labels", "assignment.assign_labels",
         _counter("assignment.assign_labels.calls")),
        (assignment, "sample_minibatch", "assignment.sample_minibatch", None),
        (rng.Rng, "permutation", "rng.permutation",
         _counter("rng.permutation.elements", lambda a, out: out.size)),
        (rpn.Backbone, "forward", "rpn.backbone", None),
        (rpn.RpnHead, "forward", "rpn.head", None),
        (rpn, "propose_arrays", "rpn.propose_arrays",
         _counter("rpn.propose_arrays.proposals", lambda a, out: out[0].shape[0])),
        (rpn, "rpn_loss", "rpn.rpn_loss", None),
        (detector, "detector_forward", "detector.detector_forward", None),
        (detector, "detect", "detector.detect",
         _counter("detector.detect.dets", lambda a, out: len(out))),
        (detector, "sample_rois", "detector.sample_rois", _count_sample_rois),
        (detector, "detector_loss", "detector.detector_loss", None),
        (nn, "sgd_step", "nn.sgd_step", None),
        (nn, "load_checkpoint", "nn.load_checkpoint", None),
        (onestage.OneStageHead, "forward", "onestage.head", None),
        (dataio, "gen_synthetic", "dataio.gen_synthetic", None),
        (dataio.DatasetManifest, "load_scene", "dataio.load_scene", None),
        (dataio, "image_to_input", "dataio.image_to_input", None),
        (evaluation, "mean_ap", "evaluation.mean_ap", None),
        (evaluation, "recall_curve", "evaluation.recall_curve", None),
    ]
    return t


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, value):
        """Point every attribute of a minircnn module bound to `original` at `value`."""
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "minircnn" or name.startswith("minircnn.")):
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self.set(mod, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []     # -1 for a root span
        self.items: list = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.item = "setup"
        self._stack: list[int] = []
        self._patches = Patches()

    def phase(self) -> str:
        return "item" if isinstance(self.item, int) else self.item

    def parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def __len__(self) -> int:
        return len(self.names)

    def count(self, key: str, value: float):
        self.counts[(self.phase(), key)] += value

    def _span(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.parent())
        self.items.append(self.item)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = clock()
            self._stack.pop()

    def wrap(self, name, fn, hook=None, tape_op=False):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tr._span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tr, args, out)
            if tape_op and out._backward is not None:
                bwd = out._backward
                out._backward = lambda g: tr._span(name + ".bwd", bwd, g)
            return out
        return traced

    def __enter__(self):
        for owner, attr, name, hook in _targets():
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hook, tape_op=owner is tensor)
            if isinstance(owner, type):
                self._patches.set(owner, attr, traced)
            else:
                self._patches.replace_everywhere(original, traced)
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False

    # analysis ----------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Self time of every span, in seconds, in recording order."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros(len(dur) + 1)          # slot -1 collects root spans
        np.add.at(child, parents, dur)
        return dur - child[:-1]

    def item_glue(self, item_bounds: dict[int, tuple[float, float]]) -> dict[int, float]:
        """Per item: wall time not covered by any root span (the caller's own code)."""
        covered = defaultdict(float)
        for start, end, parent, item in zip(self.starts, self.ends, self.parents,
                                            self.items):
            if parent < 0 and isinstance(item, int):
                covered[item] += end - start
        return {i: (b - a) - covered[i] for i, (a, b) in item_bounds.items()}


# (metric, phase): "item" metrics are per timed item, the others totals. The
# span is the metric name without its last part, plus ".bwd" for backward.
_TIMES = [(f"tensor.{op}.{d}_ms", "item") for op in _OPS + ("other",)
          for d in ("fwd", "bwd")]
_TIMES += [
    ("tensor.backward.self_ms", "item"),
    ("boxes.nms_arr.ms", "item"),
    ("boxes.iou_matrix_arr.ms", "item"),
    ("boxes.decode_arr.ms", "item"),
    ("boxes.clip_arr.ms", "item"),
    ("boxes.encode_arr.ms", "item"),
    ("anchors.grid_anchors.ms", "item"),
    ("anchors.inside_mask.ms", "setup"),
    ("assignment.assign_labels.ms", "setup"),
    ("assignment.sample_minibatch.ms", "item"),
    ("rng.permutation.ms", "item"),
    ("rpn.backbone.self_ms", "item"),
    ("rpn.head.self_ms", "item"),
    ("rpn.propose_arrays.self_ms", "item"),
    ("rpn.rpn_loss.self_ms", "item"),
    ("detector.detector_forward.self_ms", "item"),
    ("detector.detect.self_ms", "item"),
    ("detector.sample_rois.ms", "item"),
    ("detector.detector_loss.self_ms", "item"),
    ("nn.sgd_step.ms", "item"),
    ("nn.load_checkpoint.ms", "setup"),
    ("onestage.head.self_ms", "item"),
    ("dataio.gen_synthetic.ms", "setup"),
    ("dataio.load_scene.ms", "setup"),
    ("dataio.image_to_input.ms", "item"),
    ("evaluation.mean_ap.ms", "post"),
    ("evaluation.recall_curve.ms", "post"),
]
# (count key = metric, phase)
_COUNTS = [
    ("tensor.roi_pool.rois", "item"),
    ("boxes.nms_arr.calls", "item"),
    ("boxes.nms_arr.boxes_in", "item"),
    ("boxes.iou_matrix_arr.pairs", "item"),
    ("anchors.grid_anchors.calls", "item"),
    ("assignment.assign_labels.calls", "setup"),
    ("rng.permutation.elements", "item"),
    ("rpn.propose_arrays.proposals", "item"),
    ("detector.detect.dets", "item"),
]
# (metric, numerator key, denominator key), over timed items
_RATIOS = [
    ("boxes.nms_arr.keep_ratio", "boxes.nms_arr.kept", "boxes.nms_arr.boxes_in"),
    ("detector.sample_rois.fg_fraction", "detector.sample_rois.fg",
     "detector.sample_rois.rois"),
    ("onestage.sampled_fg_fraction", "onestage.sampled_fg", "onestage.sampled"),
]
LOOPS = ("training.loop.self_ms", "onestage.loop.self_ms")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {m: "ms/item" if phase == "item" else "ms" for m, phase in _TIMES}
    units.update({m: "count/item" if phase == "item" else "count"
                  for m, phase in _COUNTS})
    units.update({m: "ratio" for m, _, _ in _RATIOS})
    units.update({m: "ms/item" for m in LOOPS})
    units["assignment.sample_minibatch.skipped"] = "count"
    units["trace.overhead_ms"] = "ms/item"
    return units


def per_layer(tr: Tracer, n_items: int, glue_ms: dict[str, float],
              skipped: int, overhead_ms: float) -> dict[str, float]:
    """The per-layer table of a traced run with `n_items` timed items.

    `glue_ms` gives the loop self time per item for the loop that ran, by
    metric name; loops that did not run read 0.
    """
    self_t = tr.self_times()
    sums = defaultdict(float)
    for name, item, t in zip(tr.names, tr.items, self_t):
        sums[("item" if isinstance(item, int) else item, name)] += t
    out = {}
    for metric, phase in _TIMES:
        span, last = metric.rsplit(".", 1)
        total_ms = 1e3 * sums[(phase, span + ".bwd" if last == "bwd_ms" else span)]
        out[metric] = total_ms / n_items if phase == "item" else total_ms
    for metric, phase in _COUNTS:
        c = tr.counts[(phase, metric)]
        out[metric] = c / n_items if phase == "item" else c
    for metric, num, den in _RATIOS:
        d = tr.counts[("item", den)]
        out[metric] = tr.counts[("item", num)] / d if d else 0.0
    for metric in LOOPS:
        out[metric] = glue_ms.get(metric, 0.0)
    out["assignment.sample_minibatch.skipped"] = float(skipped)
    out["trace.overhead_ms"] = overhead_ms
    return out
