"""Proposal recall curves, VOC-style AP/mAP, and stage timing reports."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .boxes import iou_matrix_arr

DEFAULT_IOU_GRID = tuple(np.round(np.arange(0.5, 1.0001, 0.05), 10))


@dataclass
class RecallCurve:
    iou_grid: tuple[float, ...]
    recall: tuple[float, ...]
    n_proposals: int

    def at(self, tau: float) -> float:
        for t, r in zip(self.iou_grid, self.recall):
            if abs(t - tau) < 1e-9:
                return r
        raise KeyError(f"threshold {tau} not on the grid")

    def to_csv(self) -> list[str]:
        return ["tau,recall,n_proposals"] + [f"{t:.6g},{r:.6g},{self.n_proposals}"
                                             for t, r in zip(self.iou_grid, self.recall)]


@dataclass
class TimingReport:
    conv_ms: float
    proposal_ms: float
    region_ms: float
    total_ms: float
    images_per_sec: float

    def to_csv(self) -> list[str]:
        rows = zip(("conv", "proposal", "region-wise", "total", "rate_images_per_sec"),
                   (self.conv_ms, self.proposal_ms, self.region_ms, self.total_ms,
                    self.images_per_sec))
        return ["stage,ms"] + [f"{name},{v:.4f}" for name, v in rows]


def recall_curve(proposals_per_image: list[np.ndarray],
                 gt_per_image: list[np.ndarray],
                 n_proposals: int) -> RecallCurve:
    """Fraction of gt boxes covered by >= 1 of the top-N proposals per threshold.

    A proposal may cover multiple gt boxes; proposals must arrive sorted by
    descending score so truncation to N keeps the best-ranked ones.
    """
    best = []
    for props, gts in zip(proposals_per_image, gt_per_image):
        gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
        if gts.shape[0] == 0:
            continue
        props = np.asarray(props, dtype=np.float64).reshape(-1, 4)[:n_proposals]
        best.append(iou_matrix_arr(gts, props).max(axis=1, initial=0.0))
    if not best:
        raise ValueError("recall_curve requires at least one ground-truth box")
    best = np.concatenate(best)
    rec = tuple(float(np.mean(best >= tau)) for tau in DEFAULT_IOU_GRID)
    return RecallCurve(DEFAULT_IOU_GRID, rec, n_proposals)


def voc_ap(detections_per_image: list[list], gt_boxes_per_image: list[np.ndarray],
           gt_classes_per_image: list[np.ndarray], class_id: int,
           iou_thresh: float) -> float | None:
    """Average precision for one class; None when the class is absent from gt.

    Detections are (box, score, class) rows. Greedy score-descending matching,
    each gt matchable once; AP is the area under the precision envelope.
    """
    flat = [(score, i, box) for i, dets in enumerate(detections_per_image)
            for box, score, c in dets if c == class_id]
    gts = [np.asarray(b, dtype=np.float64).reshape(-1, 4)[np.asarray(c) == class_id]
           for b, c in zip(gt_boxes_per_image, gt_classes_per_image)]
    n_gt = sum(g.shape[0] for g in gts)
    if n_gt == 0:
        return None
    flat.sort(key=lambda t: -t[0])
    used = [np.zeros(g.shape[0], dtype=bool) for g in gts]
    tp = np.zeros(len(flat))
    for j, (_, img, box) in enumerate(flat):
        g = gts[img]
        if g.shape[0] == 0:
            continue
        iou = iou_matrix_arr(box, g)[0]
        iou[used[img]] = -1.0
        m = int(iou.argmax())
        if iou[m] >= iou_thresh:
            tp[j] = 1
            used[img][m] = True
    ctp = np.cumsum(tp)
    return _area_ap(ctp / n_gt, ctp / np.arange(1, len(flat) + 1))


def _area_ap(rec: np.ndarray, prec: np.ndarray) -> float:
    mrec = np.concatenate([[0.0], rec, [1.0]])
    mpre = np.concatenate([[0.0], prec, [0.0]])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    idx = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[idx] - mrec[idx - 1]) * mpre[idx]))


def mean_ap(detections_per_image, gt_boxes_per_image, gt_classes_per_image,
            class_ids, iou_thresh: float) -> tuple[float, dict[int, float]]:
    """mAP over classes present in gt; absent classes are excluded."""
    per_class = {}
    for c in class_ids:
        ap = voc_ap(detections_per_image, gt_boxes_per_image, gt_classes_per_image,
                    c, iou_thresh)
        if ap is not None:
            per_class[c] = ap
    if not per_class:
        raise ValueError("no evaluable classes in ground truth")
    return float(np.mean(list(per_class.values()))), per_class


def bench(conv_fn, proposal_fn, region_fn, inputs: list, n_warmup: int,
          n_timed: int) -> TimingReport:
    """Median per-stage wall-clock over n_timed inputs after n_warmup discarded.

    conv_fn(x) -> features; proposal_fn(features) -> proposals;
    region_fn(features, proposals) -> detections.
    """
    if n_timed < 1 or n_warmup < 0:
        raise ValueError(f"bench needs n_timed >= 1 and n_warmup >= 0, "
                         f"not {n_timed} and {n_warmup}")
    seq = (inputs * ((n_warmup + n_timed) // len(inputs) + 1))[:n_warmup + n_timed]
    conv_t, prop_t, reg_t, tot_t = [], [], [], []
    for j, x in enumerate(seq):
        t0 = time.perf_counter()
        feats = conv_fn(x)
        t1 = time.perf_counter()
        props = proposal_fn(feats)
        t2 = time.perf_counter()
        region_fn(feats, props)
        t3 = time.perf_counter()
        if j >= n_warmup:
            conv_t.append(t1 - t0)
            prop_t.append(t2 - t1)
            reg_t.append(t3 - t2)
            tot_t.append(t3 - t0)
    conv_ms = 1000 * float(np.median(conv_t))
    prop_ms = 1000 * float(np.median(prop_t))
    reg_ms = 1000 * float(np.median(reg_t))
    tot_ms = 1000 * float(np.median(tot_t))
    return TimingReport(conv_ms, prop_ms, reg_ms, tot_ms,
                        1000.0 / tot_ms if tot_ms > 0 else float("inf"))
