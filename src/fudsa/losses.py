"""Focal Tversky training loss and segmentation metrics (DSC, IoU, Recall)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InvalidLabel, ShapeMismatch


@dataclass(frozen=True)
class LossConfig:  # the paper's values, with alpha + beta = 1; no input sets them
    alpha: float = 0.7          # false-negative weight
    beta: float = 0.3           # false-positive weight
    gamma: float = 4.0 / 3.0    # focal exponent, loss = (1 - TI)^(1/gamma)
    smooth: float = 1e-6


def _check_pair(p: T.Tensor, y: T.Tensor):
    if p.shape != y.shape:
        raise ShapeMismatch(f"prediction {p.shape} vs target {y.shape}")
    yd = y.data
    if not np.all((yd == 0) | (yd == 1)):
        raise InvalidLabel("target mask must contain only 0 and 1")


def tversky_index(p: T.Tensor, y: T.Tensor, alpha=LossConfig.alpha, beta=LossConfig.beta,
                  smooth=LossConfig.smooth) -> T.Tensor:
    """Soft Tversky index pooled over the whole batch; differentiable in p."""
    _check_pair(p, y)
    tp = T.tsum(T.mul(p, y))
    fn = T.sub(T.tsum(y), tp)
    fp = T.sub(T.tsum(p), tp)
    num = T.add_scalar(tp, smooth)
    den = T.add_scalar(T.add(T.add(tp, T.scale(fn, alpha)), T.scale(fp, beta)), smooth)
    return T.div(num, den)


def focal_tversky(p: T.Tensor, y: T.Tensor, cfg: LossConfig) -> T.Tensor:
    ti = tversky_index(p, y, cfg.alpha, cfg.beta, cfg.smooth)
    return T.power(T.rsub_scalar(ti, 1.0), 1.0 / cfg.gamma)


def supervised_loss(outputs, y: T.Tensor, cfg: LossConfig) -> T.Tensor:
    """Mean focal Tversky over the final head and every side head."""
    heads = outputs.heads() if hasattr(outputs, "heads") else list(outputs)
    loss = None
    for head in heads:
        term = T.scale(focal_tversky(head, y, cfg), 1.0 / len(heads))
        loss = term if loss is None else T.add(loss, term)
    return loss


@dataclass
class MetricsRecord:
    tp: int
    fp: int
    fn: int
    tn: int
    dsc: float
    iou: float
    recall: float

    @classmethod
    def from_counts(cls, tp, fp, fn, tn):
        if tp + fp + fn == 0:
            # empty prediction against empty truth: perfect by convention
            return cls(tp, fp, fn, tn, 1.0, 1.0, 1.0)
        dsc = 2 * tp / (2 * tp + fp + fn)
        iou = tp / (tp + fp + fn)
        recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
        return cls(tp, fp, fn, tn, dsc, iou, recall)


def confusion_counts(pred_mask, y):
    """Exact integer confusion counts for two binary arrays/tensors."""
    pm = pred_mask.data if isinstance(pred_mask, T.Tensor) else np.asarray(pred_mask)
    ym = y.data if isinstance(y, T.Tensor) else np.asarray(y)
    if pm.shape != ym.shape:
        raise ShapeMismatch(f"prediction {pm.shape} vs target {ym.shape}")
    for name, a in (("prediction", pm), ("target", ym)):
        if not np.all((a == 0) | (a == 1)):
            raise InvalidLabel(f"{name} mask must contain only 0 and 1")
    pm = pm.astype(bool)
    ym = ym.astype(bool)
    tp = int(np.count_nonzero(pm & ym))
    fp = int(np.count_nonzero(pm & ~ym))
    fn = int(np.count_nonzero(~pm & ym))
    tn = int(np.count_nonzero(~pm & ~ym))
    return tp, fp, fn, tn


def segmentation_metrics(pred_mask, y) -> MetricsRecord:
    return MetricsRecord.from_counts(*confusion_counts(pred_mask, y))


def metrics_csv_row(split, n_images, rec: MetricsRecord) -> str:
    return (f"{split},{n_images},{rec.tp},{rec.fp},{rec.fn},{rec.tn},"
            f"{rec.dsc:.4f},{rec.iou:.4f},{rec.recall:.4f}")


METRICS_CSV_HEADER = "split,n_images,tp,fp,fn,tn,dsc,iou,recall"
