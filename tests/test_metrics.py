"""Metrics vs naive-loop oracles, calibration binning, dataset shift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhnes import metrics
from mhnes.metrics import MetricReport, PredictionMatrix, apply_shift


def random_pm(rng, m, n, c):
    z = rng.normal(size=(m, n, c))
    e = np.exp(z - z.max(axis=2, keepdims=True))
    probs = e / e.sum(axis=2, keepdims=True)
    return PredictionMatrix(probs, rng.integers(0, c, size=n))


def naive_nll(probs, labels):
    total = 0.0
    for i, y in enumerate(labels):
        total += -np.log(max(probs[i, y], 1e-12))
    return total / len(labels)


def naive_error(probs, labels):
    wrong = 0
    for i, y in enumerate(labels):
        best, best_p = 0, probs[i, 0]
        for c in range(1, probs.shape[1]):
            if probs[i, c] > best_p:
                best, best_p = c, probs[i, c]
        wrong += best != y
    return wrong / len(labels)


def naive_ece(probs, labels, num_bins):
    n = len(labels)
    bins = [[] for _ in range(num_bins)]
    for i, y in enumerate(labels):
        conf = probs[i].max()
        pred = int(probs[i].argmax())
        b = num_bins - 1
        for k in range(num_bins):
            if conf <= (k + 1) / num_bins:
                b = k
                break
        bins[b].append((conf, pred == y))
    total = 0.0
    for entries in bins:
        if not entries:
            continue
        confs = [e[0] for e in entries]
        accs = [e[1] for e in entries]
        total += (len(entries) / n) * abs(np.mean(accs) - np.mean(confs))
    return total


def naive_oracle(pm):
    m, n, _ = pm.probs.shape
    total = 0.0
    for i in range(n):
        best = min(
            -np.log(max(pm.probs[k, i, pm.labels[i]], 1e-12)) for k in range(m)
        )
        total += best
    return total / n


class TestNllError:
    def test_perfect_predictions(self):
        probs = np.eye(4)
        labels = np.arange(4)
        assert metrics.nll(probs, labels) == 0.0
        assert metrics.error(probs, labels) == 0.0

    def test_uniform_c4(self):
        probs = np.full((10, 4), 0.25)
        labels = np.zeros(10, dtype=int)
        assert metrics.nll(probs, labels) == pytest.approx(np.log(4), abs=1e-12)

    def test_argmax_tie_lowest_class(self):
        probs = np.array([[0.5, 0.5]])
        assert metrics.error(probs, np.array([0])) == 0.0
        assert metrics.error(probs, np.array([1])) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_match_naive_loops(self, seed):
        rng = np.random.default_rng(seed)
        pm = random_pm(rng, 1, 100, 5)
        probs, labels = pm.probs[0], pm.labels
        assert abs(metrics.nll(probs, labels) - naive_nll(probs, labels)) <= 1e-12
        assert metrics.error(probs, labels) == naive_error(probs, labels)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            metrics.nll(np.full((2, 3), 1 / 3), np.array([0, 3]))


class TestEce:
    def test_confident_correct_is_zero(self):
        probs = np.eye(3)
        assert metrics.ece(probs, np.arange(3)) == 0.0

    def test_hand_binned_example(self):
        # 4 rows at confidence 0.8, 3 correct, a single bin: |0.75-0.8|
        probs = np.array([[0.8, 0.2]] * 4)
        labels = np.array([0, 0, 0, 1])
        assert metrics.ece(probs, labels, num_bins=1) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_binning(self, seed):
        rng = np.random.default_rng(seed + 10)
        pm = random_pm(rng, 1, 200, 4)
        got = metrics.ece(pm.probs[0], pm.labels, 10)
        want = naive_ece(pm.probs[0], pm.labels, 10)
        assert abs(got - want) <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pm = random_pm(rng, 1, 50, 3)
        perm = rng.permutation(50)
        a = metrics.ece(pm.probs[0], pm.labels)
        b = metrics.ece(pm.probs[0][perm], pm.labels[perm])
        assert abs(a - b) < 1e-12

    def test_bin_edges_right_inclusive(self):
        # confidence exactly 0.1 must land in the first of 10 bins
        probs = np.array([[0.1] * 10])
        assert metrics.ece(probs, np.array([0]), 10) == pytest.approx(0.9)

    def test_bad_bin_count(self):
        with pytest.raises(ValueError):
            metrics.ece(np.eye(2), np.arange(2), 0)


class TestOracleNll:
    def test_identical_members_equal_member_nll(self):
        rng = np.random.default_rng(1)
        pm1 = random_pm(rng, 1, 30, 4)
        pm3 = PredictionMatrix(np.repeat(pm1.probs, 3, axis=0), pm1.labels)
        assert metrics.oracle_ensemble_nll(pm3) == pytest.approx(
            metrics.nll(pm1.probs[0], pm1.labels), abs=1e-12
        )

    def test_disjoint_specialists(self):
        n = 10
        labels = np.zeros(n, dtype=int)
        eps = 1e-6
        a = np.tile([1 - eps, eps], (n, 1))
        a[n // 2 :] = [eps, 1 - eps]  # wrong on second half
        b = np.tile([eps, 1 - eps], (n, 1))
        b[n // 2 :] = [1 - eps, eps]  # right on second half
        pm = PredictionMatrix(np.stack([a, b]), labels)
        assert metrics.oracle_ensemble_nll(pm) < 1e-5
        assert min(metrics.nll(a, labels), metrics.nll(b, labels)) > 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_loop_and_lower_bounds_members(self, seed):
        rng = np.random.default_rng(seed + 20)
        pm = random_pm(rng, 4, 60, 3)
        got = metrics.oracle_ensemble_nll(pm)
        assert abs(got - naive_oracle(pm)) <= 1e-12
        member = min(metrics.nll(p, pm.labels) for p in pm.probs)
        assert got <= member + 1e-12


class TestMetricReport:
    def test_from_predictions_consistency(self):
        rng = np.random.default_rng(5)
        pm = random_pm(rng, 3, 40, 4)
        rep = MetricReport.from_predictions(pm)
        assert rep.nll == pytest.approx(
            metrics.nll(metrics.ensemble_average(pm), pm.labels)
        )
        # the selection score is bit-identical to the reported ensemble NLL
        assert metrics.ensemble_nll(pm.probs, pm.labels) == rep.nll
        assert len(rep.member_nll) == 3
        assert rep.oracle_nll <= min(rep.member_nll) + 1e-12

    def test_purity(self):
        rng = np.random.default_rng(7)
        pm = random_pm(rng, 2, 30, 4)
        a = MetricReport.from_predictions(pm)
        b = MetricReport.from_predictions(pm)
        assert a == b


class TestApplyShift:
    def test_severity_zero_identity(self):
        rng = np.random.default_rng(0)
        imgs = rng.uniform(size=(5, 1, 8, 8))
        out = apply_shift(imgs, 0, rng_seed=3)
        np.testing.assert_array_equal(out, imgs)

    def test_deterministic_per_seed(self):
        imgs = np.random.default_rng(1).uniform(size=(4, 1, 8, 8))
        a = apply_shift(imgs, 3, rng_seed=42)
        b = apply_shift(imgs, 3, rng_seed=42)
        np.testing.assert_array_equal(a, b)
        c = apply_shift(imgs, 3, rng_seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("severity", [1, 2, 3, 4, 5])
    def test_noise_std_tracks_severity(self, severity):
        # centered input keeps clipping out of play
        imgs = np.full((40, 1, 16, 16), 0.5)
        out = apply_shift(imgs, severity, rng_seed=severity)
        resid = out - 0.5
        assert abs(resid.std() - 0.05 * severity) / (0.05 * severity) < 0.05

    def test_contrast_compresses_toward_half(self):
        imgs = np.concatenate([np.zeros((1, 1, 4, 4)), np.ones((1, 1, 4, 4))])
        out = apply_shift(imgs, 5, rng_seed=0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_severity_out_of_range(self):
        for bad in (-1, 6, 2.5):
            with pytest.raises(ValueError):
                apply_shift(np.zeros((1, 1, 2, 2)), bad, 0)

    def test_trained_model_error_monotone_in_severity(self):
        # end-to-end smoke: a trained model's test error must rise with the
        # shift severity in at least 4 of the 5 increments
        from mhnes import search
        from mhnes.config import TrainHyperparams
        from mhnes.data import gen_synthetic
        from mhnes.space import ModelSpec, MultiHeadGenotype, NodeChoice

        bundle = gen_synthetic(
            classes=4, n_train=768, n_val=256, n_test=512, image_size=16, seed=3
        )
        spec = ModelSpec(
            num_heads=2, cells_per_head=1, nodes=2,
            ops=("skip_connect", "avg_pool_3x3"), backbone_width=8, head_width=8,
        )
        heads = tuple(
            tuple(
                NodeChoice(j, (0, 1), ("skip_connect", "skip_connect"))
                for j in range(2)
            )
            for _ in range(2)
        )
        geno = MultiHeadGenotype(spec, heads).validate()
        model, _ = search.train_discrete(
            geno, bundle, TrainHyperparams(epochs=10, batch=128), seed=0
        )
        tx, ty = bundle.split("test")
        errs = []
        for severity in range(6):
            shifted = apply_shift(tx, severity, 31 * 3 + severity)
            pm = PredictionMatrix(model.predict(shifted), ty)
            errs.append(metrics.error(metrics.ensemble_average(pm), ty))
        steps_up = sum(b >= a for a, b in zip(errs, errs[1:]))
        assert steps_up >= 4, f"errors across severities: {errs}"
