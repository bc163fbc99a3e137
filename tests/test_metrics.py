import json

import numpy as np
import pytest

from caggnet.metrics import (
    ConfusionCounts,
    binarize,
    confusion,
    evaluate_model,
    f1,
    iou,
    precision,
    sensitivity,
    summarize,
)
from caggnet.tensor_core import Tensor4


def t4(data):
    return Tensor4(np.asarray(data, dtype=np.float64))


def iou_via_pr_se(c):
    """Independent route: Pr*Se / (Pr + Se - Pr*Se).

    The denominator vanishes only at Pr = Se = 0, where the numerator
    vanishes faster; the continuous extension there is 0.
    """
    pr, se = precision(c), sensitivity(c)
    denom = pr + se - pr * se
    return 0.0 if denom == 0 else pr * se / denom


def f1_via_pr_se(c):
    pr, se = precision(c), sensitivity(c)
    return 0.0 if pr + se == 0 else 2.0 * pr * se / (pr + se)


class TestBinarize:
    def test_boundary_inclusive(self):
        out = binarize(t4(np.full((1, 1, 2, 2), 0.5)), 0.5)
        assert np.all(out.data == 1.0)

    def test_definition(self):
        out = binarize(t4([[[[0.4, 0.6]]]]), 0.5)
        assert np.array_equal(out.data, [[[[0.0, 1.0]]]])

    def test_monotone_in_threshold(self, rng):
        pred = t4(rng.uniform(0, 1, size=(1, 1, 8, 8)))
        low = binarize(pred, 0.3).data
        high = binarize(pred, 0.7).data
        assert np.all(high <= low)

    def test_threshold_range_validated(self):
        with pytest.raises(ValueError):
            binarize(t4([[[[0.5]]]]), 1.0)


class TestConfusion:
    def test_perfect_match(self):
        gt = t4([[[[1, 0], [1, 1]]]])
        c = confusion(gt, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 0, 0, 1)

    def test_total_mismatch(self):
        gt = t4([[[[1, 0], [0, 1]]]])
        pred = t4([[[[0, 1], [1, 0]]]])
        c = confusion(pred, gt)
        assert c.tp == 0 and c.fp == 2 and c.fn == 2

    def test_partial_overlap_hand_count(self):
        # pred marks 3 pixels, gt marks 4, overlapping on 2
        pred = t4([[[[1, 1, 1, 0, 0, 0]]]])
        gt = t4([[[[1, 1, 0, 1, 1, 0]]]])
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 2, 1)

    def test_counts_partition_pixels(self, rng):
        pred = t4((rng.random((2, 1, 8, 8)) < 0.4).astype(float))
        gt = t4((rng.random((2, 1, 8, 8)) < 0.4).astype(float))
        c = confusion(pred, gt)
        assert c.tp + c.fp + c.fn + c.tn == 2 * 8 * 8


class TestIouF1:
    def test_hand_case(self):
        c = ConfusionCounts(tp=2, fp=1, fn=2, tn=10)
        assert precision(c) == pytest.approx(2 / 3, abs=0)
        assert sensitivity(c) == pytest.approx(1 / 2, abs=0)
        assert iou(c) == pytest.approx(0.4, abs=1e-15)
        assert f1(c) == pytest.approx(4 / 7, abs=1e-15)

    def test_perfect_prediction(self):
        c = ConfusionCounts(tp=7, fp=0, fn=0, tn=3)
        assert iou(c) == 1.0 and f1(c) == 1.0

    def test_degenerate_conventions(self):
        both_empty = ConfusionCounts(0, 0, 0, 16)
        assert iou(both_empty) == 1.0 and f1(both_empty) == 1.0
        miss = ConfusionCounts(0, 3, 2, 11)
        assert iou(miss) == 0.0 and f1(miss) == 0.0

    def test_identities_over_random_counts(self, rng):
        for _ in range(10_000):
            tp, fp, fn = (int(v) for v in rng.integers(0, 50, size=3))
            if tp + fp + fn == 0:
                continue
            c = ConfusionCounts(tp, fp, fn, 1)
            direct = iou(c)
            assert abs(direct - iou_via_pr_se(c)) < 1e-12
            assert abs(f1(c) - f1_via_pr_se(c)) < 1e-12
            assert abs(direct - f1(c) / (2.0 - f1(c))) < 1e-12

    def test_f1_symmetric_under_pred_gt_swap(self, rng):
        pred = t4((rng.random((1, 1, 8, 8)) < 0.4).astype(float))
        gt = t4((rng.random((1, 1, 8, 8)) < 0.4).astype(float))
        assert f1(confusion(pred, gt)) == f1(confusion(gt, pred))


class TestReport:
    def make_report(self):
        counts = [ConfusionCounts(2, 1, 2, 10), ConfusionCounts(5, 0, 0, 10)]
        return summarize(["a", "b"], counts, threshold=0.5)

    def test_aggregates(self):
        report = self.make_report()
        assert report.mean_iou == pytest.approx((0.4 + 1.0) / 2)
        pooled = ConfusionCounts(7, 1, 2, 20)
        assert report.pooled_iou == pytest.approx(iou(pooled))
        assert all(0.0 <= m.iou <= 1.0 for m in report.per_image)

    def test_csv_layout(self, tmp_path):
        report = self.make_report()
        report.write_csv(tmp_path / "m.csv")
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "id,pr,se,iou,f1"
        assert len(lines) == 1 + 2 + 2  # per-image + mean + pooled
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("pooled,")

    def test_json_layout(self, tmp_path):
        report = self.make_report()
        report.write_json(tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        assert set(payload) == {"threshold", "per_image", "aggregate"}
        assert len(payload["per_image"]) == 2
        assert set(payload["aggregate"]) == {"mean_iou", "mean_f1",
                                             "pooled_iou", "pooled_f1"}


class TestEvaluateModel:
    def test_row_per_sample(self, rng):
        from caggnet.data_io import SynthConfig, gen_synthetic
        from caggnet.models import ModelConfig, build_caggnet

        samples = gen_synthetic(SynthConfig(count=3, size=16, seed=1,
                                            radius_min=3, radius_max=5))
        model = build_caggnet(ModelConfig(levels=2, columns=1, base_channels=2,
                                          in_channels=1, dtype="single"))
        report = evaluate_model(model, samples)
        assert [m.id for m in report.per_image] == [s.id for s in samples]
        assert 0.0 <= report.mean_iou <= 1.0

    @pytest.mark.parametrize("arch", ["caggnet", "unet"])
    @pytest.mark.parametrize("dtype", ["single", "double"])
    def test_chunked_feeding_matches_one_image_at_a_time(self, arch, dtype):
        from caggnet.data_io import SynthConfig, gen_synthetic
        from caggnet.models import ModelConfig, build_caggnet, build_unet, forward

        # chunks of 8 + 3 at 32x32, 2 + 1 at 64x64, 1 at 32x32 again, then
        # 32 + 1 at 16x16, whose bottom level is 4x4
        samples = (gen_synthetic(SynthConfig(count=11, size=32, seed=1))
                   + gen_synthetic(SynthConfig(count=3, size=64, seed=2))
                   + gen_synthetic(SynthConfig(count=1, size=32, seed=3))
                   + gen_synthetic(SynthConfig(count=33, size=16, seed=4,
                                               radius_min=2, radius_max=4)))
        build = build_caggnet if arch == "caggnet" else build_unet
        np_dtype = np.float32 if dtype == "single" else np.float64
        for base_channels in (4, 8):
            model = build(ModelConfig(levels=3, columns=2, base_channels=base_channels,
                                      in_channels=1, seed=7, dtype=dtype))
            report, preds = evaluate_model(model, samples, keep_predictions=True)

            ref_preds, ref_counts = [], []
            for s in samples:
                p = forward(model, Tensor4(s.image.data.astype(np_dtype)),
                            training=False).probs
                ref_preds.append(p)
                ref_counts.append(confusion(binarize(p),
                                            Tensor4(s.mask.data.astype(np_dtype))))
            ref = summarize([s.id for s in samples], ref_counts, 0.5)
            assert [p.data.shape for p in preds] == [p.data.shape for p in ref_preds]
            assert all(p.data.dtype == np_dtype for p in preds)
            assert ([p.data.tobytes() for p in preds]
                    == [p.data.tobytes() for p in ref_preds]), base_channels
            assert json.dumps(report.to_dict()) == json.dumps(ref.to_dict())
