import numpy as np
import pytest

from fudsa import tensor as T
from fudsa.errors import InvalidLabel, ShapeMismatch
from fudsa.losses import (LossConfig, MetricsRecord, focal_tversky,
                          metrics_csv_row, segmentation_metrics,
                          supervised_loss, tversky_index)
from fudsa.training import TrainConfig

from conftest import check_grads


def as_t(a):
    return T.Tensor(np.asarray(a, dtype=np.float64))


def test_tversky_perfect_prediction():
    y = T.Tensor((np.random.default_rng(0).uniform(0, 1, (1, 1, 4, 4)) > 0.5)
                 .astype(np.float64))
    ti = tversky_index(y, y)
    assert abs(ti.item() - 1.0) < 1e-9


def test_tversky_empty_vs_empty():
    z = T.Tensor(np.zeros((1, 1, 4, 4)))
    assert tversky_index(z, z).item() == 1.0


def test_tversky_half_probability_half_positive_mask():
    y = np.zeros((1, 1, 4, 4))
    y[0, 0, :2, :] = 1.0
    p = np.full((1, 1, 4, 4), 0.5)
    ti = tversky_index(as_t(p), as_t(y), alpha=0.7, beta=0.3)
    # TP = 4, FN = 4*0.7 weighted, FP = 4*0.3 weighted -> exactly 0.5
    assert abs(ti.item() - (4 + 1e-6) / (4 + 0.7 * 4 + 0.3 * 4 + 1e-6)) < 1e-12
    assert abs(ti.item() - 0.5) < 1e-6


def test_tversky_rejects_bad_labels():
    p = T.Tensor(np.zeros((1, 1, 2, 2)))
    y = T.Tensor(np.full((1, 1, 2, 2), 0.5))
    with pytest.raises(InvalidLabel):
        tversky_index(p, y)
    with pytest.raises(ShapeMismatch):
        tversky_index(p, T.Tensor(np.zeros((1, 1, 2, 3))))


def test_focal_tversky_values():
    y = T.Tensor((np.random.default_rng(1).uniform(0, 1, (1, 1, 4, 4)) > 0.5)
                 .astype(np.float64))
    assert focal_tversky(y, y, LossConfig()).item() < 1e-6
    # TI = 0.5 cases via the half/half construction above
    ym = np.zeros((1, 1, 4, 4))
    ym[0, 0, :2, :] = 1.0
    p = np.full((1, 1, 4, 4), 0.5)
    ftl_lin = focal_tversky(as_t(p), as_t(ym), LossConfig(gamma=1.0))
    assert abs(ftl_lin.item() - 0.5) < 1e-6
    ftl = focal_tversky(as_t(p), as_t(ym), LossConfig())
    assert abs(ftl.item() - 0.5 ** 0.75) < 1e-6


def test_focal_tversky_monotone_towards_target(rng):
    y = T.Tensor((rng.uniform(0, 1, (1, 1, 8, 8)) > 0.6).astype(np.float64))
    p = rng.uniform(0.05, 0.95, (1, 1, 8, 8))
    cfg = LossConfig()
    base = focal_tversky(as_t(p), y, cfg).item()
    # moving any single coordinate toward its target strictly reduces the loss
    for c in [(0, 0, 1, 2), (0, 0, 5, 5), (0, 0, 7, 0)]:
        p2 = p.copy()
        p2[c] = p2[c] + 0.05 if y.data[c] == 1 else p2[c] - 0.05
        assert focal_tversky(as_t(p2), y, cfg).item() < base


def test_focal_tversky_range(rng):
    for _ in range(50):
        p = as_t(rng.uniform(0, 1, (1, 1, 8, 8)))
        y = T.Tensor((rng.uniform(0, 1, (1, 1, 8, 8)) > 0.5).astype(np.float64))
        v = focal_tversky(p, y, LossConfig()).item()
        assert 0.0 <= v <= 1.0


def test_focal_tversky_gradient(rng):
    y = T.Tensor((rng.uniform(0, 1, (1, 1, 6, 6)) > 0.5).astype(np.float64))
    p = T.Tensor(rng.uniform(0.1, 0.9, (1, 1, 6, 6)), requires_grad=True)
    check_grads(lambda: focal_tversky(p, y, LossConfig()), [p], tol=1e-6)


def test_alpha_beta_half_equals_soft_dice(rng):
    p = as_t(rng.uniform(0, 1, (1, 1, 8, 8)))
    y = T.Tensor((rng.uniform(0, 1, (1, 1, 8, 8)) > 0.5).astype(np.float64))
    ti = tversky_index(p, y, alpha=0.5, beta=0.5, smooth=1e-6).item()
    tp = float((p.data * y.data).sum())
    dice = (2 * tp + 2e-6) / (p.data.sum() + y.data.sum() + 2e-6)
    assert abs(ti - dice) < 1e-9


def test_training_loss_is_the_papers():
    # no input sets the loss: these defaults are what every training run uses
    cfg = TrainConfig().loss
    assert (cfg.alpha, cfg.beta, cfg.gamma, cfg.smooth) == (0.7, 0.3, 4.0 / 3.0, 1e-6)
    assert cfg.alpha + cfg.beta == 1.0


class FakeOutputs:
    def __init__(self, heads):
        self._heads = heads

    def heads(self):
        return self._heads


def test_supervised_loss_degenerate_aggregate(rng):
    y = T.Tensor((rng.uniform(0, 1, (1, 1, 4, 4)) > 0.5).astype(np.float64))
    p = as_t(rng.uniform(0, 1, (1, 1, 4, 4)))
    cfg = LossConfig()
    lone = supervised_loss(FakeOutputs([p]), y, cfg)
    assert abs(lone.item() - focal_tversky(p, y, cfg).item()) < 1e-12


def test_supervised_loss_perfect_heads(rng):
    y = T.Tensor((rng.uniform(0, 1, (1, 1, 4, 4)) > 0.5).astype(np.float64))
    loss = supervised_loss(FakeOutputs([y, y, y]), y, LossConfig())
    assert loss.item() < 1e-6


def test_supervised_loss_uniform_weighted_mean():
    # engineered heads whose individual losses are (0.2, 0.4, 0.4, 0.6)
    # would average to 0.4; verify the aggregation itself with a direct sum
    y = T.Tensor(np.zeros((1, 1, 2, 2)))
    y.data[0, 0, 0, 0] = 1.0
    heads = [as_t(np.full((1, 1, 2, 2), v)) for v in (0.1, 0.3, 0.5, 0.7)]
    cfg = LossConfig()
    agg = supervised_loss(FakeOutputs(heads), y, cfg).item()
    parts = [focal_tversky(h, y, cfg).item() for h in heads]
    assert abs(agg - sum(parts) / 4) < 1e-12



# ---------------------------------------------------------------------------
# metrics

def test_metrics_perfect_overlap():
    y = np.zeros((1, 1, 4, 4))
    y[0, 0, 1:3, 1:3] = 1.0
    rec = segmentation_metrics(y, y)
    assert rec.dsc == rec.iou == rec.recall == 1.0


def test_metrics_disjoint():
    a = np.zeros((1, 1, 4, 4))
    b = np.zeros((1, 1, 4, 4))
    a[0, 0, 0, 0] = 1.0
    b[0, 0, 3, 3] = 1.0
    rec = segmentation_metrics(a, b)
    assert rec.dsc == rec.iou == rec.recall == 0.0


def test_metrics_empty_vs_empty_convention():
    z = np.zeros((1, 1, 4, 4))
    rec = segmentation_metrics(z, z)
    assert rec.dsc == rec.iou == rec.recall == 1.0


def test_metrics_reject_unequal_shapes_and_non_binary_masks():
    z = np.zeros((1, 1, 4, 4))
    with pytest.raises(ShapeMismatch, match="prediction"):
        segmentation_metrics(z, np.zeros((1, 1, 4, 5)))
    half = np.full((1, 1, 4, 4), 0.5)
    with pytest.raises(InvalidLabel, match="prediction mask"):
        segmentation_metrics(half, z)
    with pytest.raises(InvalidLabel, match="target mask"):
        segmentation_metrics(T.Tensor(z), T.Tensor(half + 1.5))  # all 2s


def test_metrics_brute_force_1000_pairs():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = (rng.uniform(0, 1, (8, 8)) > rng.uniform(0.2, 0.8)).astype(int)
        b = (rng.uniform(0, 1, (8, 8)) > rng.uniform(0.2, 0.8)).astype(int)
        tp = fp = fn = tn = 0
        for i in range(8):
            for j in range(8):
                if a[i, j] and b[i, j]:
                    tp += 1
                elif a[i, j]:
                    fp += 1
                elif b[i, j]:
                    fn += 1
                else:
                    tn += 1
        rec = segmentation_metrics(a, b)
        assert (rec.tp, rec.fp, rec.fn, rec.tn) == (tp, fp, fn, tn)
        if tp + fp + fn:
            assert rec.dsc == 2 * tp / (2 * tp + fp + fn)
            assert rec.iou == tp / (tp + fp + fn)
            assert abs(rec.dsc - 2 * rec.iou / (1 + rec.iou)) < 1e-12
            assert rec.iou <= rec.dsc <= 1.0


def test_metrics_csv_format():
    rec = MetricsRecord.from_counts(7924, 1000, 1076, 90000)
    row = metrics_csv_row("val", 12, rec)
    parts = row.split(",")
    assert parts[0] == "val"
    assert parts[1] == "12"
    for ratio in parts[6:]:
        assert len(ratio.split(".")[1]) == 4  # rendered to 4 decimals


def test_metrics_reference_precision_rendering():
    # ratios print like the reported 4-decimal values, e.g. 0.7924
    rec = MetricsRecord(0, 0, 0, 0, 0.7924, 0.6681, 0.8104)
    row = metrics_csv_row("val", 1, rec)
    assert row.endswith("0.7924,0.6681,0.8104")
