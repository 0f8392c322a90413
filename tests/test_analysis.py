"""Hessian probes, power iteration, regret study, distance matrices."""

import numpy as np
import pytest

from mhnes import analysis, search
from mhnes.analysis import EigTrace, dominant_eig, hamming_matrix, hvp_fd, regret_study
from mhnes.config import SearchHyperparams, TrainHyperparams
from mhnes.data import gen_synthetic
from mhnes.metrics import MetricReport, PredictionMatrix
from mhnes.space import ModelSpec, sample_random_genotype
from mhnes.supernet import ArchParams, Supernet


def quad_grad(A):
    return lambda x: np.asarray(A) @ np.asarray(x)


class TestHvp:
    def test_diagonal_quadratic(self):
        g = quad_grad(np.diag([3.0, 1.0]))
        out = hvp_fd(g, np.zeros(2), np.array([1.0, 0.0]), eps=1e-4)
        np.testing.assert_allclose(out, [3.0, 0.0], atol=1e-6)

    def test_linear_loss_gives_zero(self):
        g = lambda x: np.array([2.0, -1.0, 0.5])  # constant gradient
        out = hvp_fd(g, np.zeros(3), np.array([0.3, 0.4, 0.5]))
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_general_quadratic_matches_matrix_product(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.normal(size=2)
            out = hvp_fd(quad_grad(A), rng.normal(size=2), v, eps=1e-4)
            np.testing.assert_allclose(out, A @ v, atol=1e-6)

    def test_scales_with_vector_norm(self):
        A = np.diag([4.0, 2.0])
        v = np.array([10.0, 0.0])
        out = hvp_fd(quad_grad(A), np.zeros(2), v, eps=1e-4)
        np.testing.assert_allclose(out, [40.0, 0.0], atol=1e-5)

    def test_quadratic_error_within_ten_eps(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            B = rng.normal(size=(4, 4))
            A = B + B.T
            x = rng.normal(size=4)
            v = rng.normal(size=4)
            eps = 1e-3 * (1 + np.linalg.norm(x))
            out = hvp_fd(quad_grad(A), x, v, eps=eps)
            rel = np.linalg.norm(out - A @ v) / np.linalg.norm(A @ v)
            assert rel < 10 * eps

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            hvp_fd(quad_grad(np.eye(2)), np.zeros(2), np.zeros(2))


class TestDominantEig:
    def test_identity(self):
        est = dominant_eig(lambda v: v, dim=5)
        assert est.converged and est.value == pytest.approx(1.0, abs=1e-9)

    def test_diagonal(self):
        A = np.diag([3.0, 1.0])
        est = dominant_eig(lambda v: A @ v, dim=2)
        assert est.value == pytest.approx(3.0, abs=1e-6)

    def test_negative_dominant_value_keeps_sign(self):
        A = np.diag([-5.0, 2.0])
        est = dominant_eig(lambda v: A @ v, dim=2)
        assert est.value == pytest.approx(-5.0, abs=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(10, 10))
        A = (B + B.T) / 2
        evals = np.linalg.eigvalsh(A)
        want = evals[np.argmax(np.abs(evals))]
        est = dominant_eig(lambda v: A @ v, dim=10, max_iter=2000, seed=seed)
        assert abs(est.value - want) / abs(want) < 1e-6

    def test_start_seed_invariance_with_spectral_gap(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        A = q @ np.diag([2.0, 1.5, 1.0, 0.5, 0.2, 0.1]) @ q.T
        vals = [
            dominant_eig(lambda v: A @ v, dim=6, max_iter=3000, seed=s).value
            for s in range(5)
        ]
        assert max(vals) - min(vals) < 1e-6

    def test_nonconvergence_is_flagged_not_raised(self):
        A = np.diag([1.0, 1.0 - 1e-12])  # essentially no gap
        est = dominant_eig(lambda v: A @ v, dim=2, max_iter=3, tol=1e-15, seed=1)
        assert not est.converged


class TestEigTraceHook:
    def test_constant_on_frozen_quadratic_surrogate(self):
        A = np.diag([3.0, 1.0, 0.5])
        trace = EigTrace()
        for epoch in range(4):
            est = dominant_eig(
                lambda v: hvp_fd(quad_grad(A), np.zeros(3), v), dim=3, seed=0
            )
            trace.append(epoch, est)
        vals = [v for (_, v, _, _) in trace.entries]
        assert max(vals) - min(vals) < 1e-6
        csv = trace.to_csv()
        assert csv.startswith("epoch,eig,residual,iters\n")
        assert len(csv.strip().splitlines()) == 5

    def test_search_trajectory_unperturbed_by_tracing(self):
        bundle = gen_synthetic(
            classes=3, n_train=96, n_val=48, n_test=48, image_size=16, seed=4
        )
        spec = ModelSpec(
            num_heads=1, cells_per_head=1, nodes=2,
            ops=("skip_connect", "max_pool_3x3", "avg_pool_3x3"),
            backbone_width=8, head_width=8,
        )
        hp = SearchHyperparams(
            epochs=2, batch=32, warmstart_epochs=1, partial_k=2, eval_samples=2
        )
        plain, _, arch_plain = search.pcdarts_search(bundle, spec, hp, seed=0)
        hook, trace = analysis.make_eig_hook(hp.jsd_weight, max_iter=5)
        traced, _, arch_traced = search.pcdarts_search(
            bundle, spec, hp, seed=0, epoch_hook=hook
        )
        assert plain == traced
        for a, b in zip(arch_plain.tensors(), arch_traced.tensors()):
            np.testing.assert_array_equal(a.data, b.data)
        assert len(trace.entries) == hp.epochs

    @pytest.mark.parametrize("method", ["pcdarts", "drnas"])
    def test_probe_uses_the_searchers_val_split(self, method, monkeypatch):
        bundle = gen_synthetic(
            classes=3, n_train=64, n_val=16, n_test=16, image_size=16, seed=4
        )
        spec = ModelSpec(
            num_heads=1, cells_per_head=1, nodes=1,
            ops=("skip_connect", "avg_pool_3x3"), backbone_width=4, head_width=4,
        )
        hp = SearchHyperparams(
            epochs=1, batch=32, warmstart_epochs=0, partial_k=2,
            drnas_stage_epochs=1, drnas_warmstart_epochs=0, drnas_stage2_k=1,
            drnas_keep_ops=1,
        )
        probed = []
        real = analysis.arch_loss_grad_fn

        def recording(net, arch, val_x, val_y, jsd_weight):
            probed.append((val_x, val_y))
            return real(net, arch, val_x, val_y, jsd_weight)

        monkeypatch.setattr(analysis, "arch_loss_grad_fn", recording)
        hook, _ = analysis.make_eig_hook(hp.jsd_weight, max_iter=1, probe_examples=20)
        searcher = {"pcdarts": search.pcdarts_search, "drnas": search.drnas_search}
        searcher[method](bundle, spec, hp, seed=3, epoch_hook=hook)
        _, (va_x, va_y) = search._split_search_data(
            bundle, hp, search.rng_for(3, method)
        )
        assert probed and len(va_y) > 20
        for x, y in probed:
            np.testing.assert_array_equal(x, va_x[:20])
            np.testing.assert_array_equal(y, va_y[:20])

    def test_probe_gradient_leaves_weights_untouched(self):
        spec = ModelSpec(
            num_heads=2, cells_per_head=1, nodes=2,
            ops=("skip_connect", "sep_conv_3x3", "avg_pool_3x3"),
            backbone_width=8, head_width=8,
        )
        rng = np.random.default_rng(0)
        arch = ArchParams(spec, "pcdarts", rng, init_scale=0.3)
        net = Supernet(rng, spec, arch, 3, k=2)
        bundle = gen_synthetic(
            classes=3, n_train=16, n_val=16, n_test=16, image_size=16, seed=1
        )
        val_x, val_y = bundle.split("val")
        grad = analysis.arch_loss_grad_fn(net, arch, val_x, val_y, 0.1)(arch.flat())
        assert grad.shape == arch.flat().shape and np.any(grad != 0)
        weights = net.parameters()
        assert weights and all(w.grad is None and w.requires_grad for w in weights)


@pytest.fixture(scope="module")
def study():
    bundle = gen_synthetic(
        classes=3, n_train=96, n_val=64, n_test=48, image_size=16, seed=6
    )
    spec = ModelSpec(
        num_heads=1, cells_per_head=1, nodes=2,
        ops=("skip_connect", "max_pool_3x3", "avg_pool_3x3"),
        backbone_width=8, head_width=8,
    )
    hp = TrainHyperparams(epochs=1, batch=48)
    return regret_study(bundle, spec, (1, 2), 3, hp, seed_groups=(0, 1))


class TestRegretStudy:
    def test_regrets_nonnegative_with_single_zero_per_group(self, study):
        for group in (0, 1):
            for m in (1, 2):
                rows = study.subset(m, group)
                regrets = [r["regret"] for r in rows]
                assert all(r >= 0 for r in regrets)
                assert sum(1 for r in regrets if r == 0.0) == 1

    def test_row_count_and_csv(self, study):
        assert len(study.rows) == 2 * 2 * 3
        csv = study.to_csv()
        assert csv.startswith("M,sample_id,seed,val_nll,regret\n")
        assert len(csv.strip().splitlines()) == 13

    def test_duplicate_seed_and_genotype_give_identical_nll(self):
        bundle = gen_synthetic(
            classes=3, n_train=64, n_val=32, n_test=32, image_size=16, seed=7
        )
        spec = ModelSpec(
            num_heads=1, cells_per_head=1, nodes=2,
            ops=("skip_connect", "avg_pool_3x3"), backbone_width=8, head_width=8,
        )
        hp = TrainHyperparams(epochs=1, batch=32)
        geno = sample_random_genotype(spec, np.random.default_rng(0))
        val_x, val_y = bundle.split("val")
        nlls = []
        for _ in range(2):
            model, _ = search.train_discrete(geno, bundle, hp, seed=[5, 5])
            pm = PredictionMatrix(model.predict(val_x), val_y)
            nlls.append(MetricReport.from_predictions(pm).nll)
        assert nlls[0] == nlls[1]

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            regret_study(None, None, (1,), 1, None)


class TestHammingMatrix:
    def test_identical_entries_give_zero_matrix(self):
        spec = ModelSpec(num_heads=2)
        g = sample_random_genotype(spec, np.random.default_rng(1))
        mat = hamming_matrix([g, g, g])
        np.testing.assert_array_equal(mat, 0)

    def test_symmetric_with_zero_diagonal_and_spot_checks(self):
        spec = ModelSpec(num_heads=2)
        rng = np.random.default_rng(2)
        genos = [sample_random_genotype(spec, rng) for _ in range(4)]
        mat = hamming_matrix(genos)
        np.testing.assert_array_equal(mat, mat.T)
        np.testing.assert_array_equal(np.diag(mat), 0)
        from mhnes.space import genotype_edge_vector

        va, vb = genotype_edge_vector(genos[0]), genotype_edge_vector(genos[3])
        naive = sum(1 for x, y in zip(va, vb) if x != y)
        assert mat[0, 3] == naive

    def test_csv_export_shape(self):
        spec = ModelSpec(num_heads=1)
        rng = np.random.default_rng(3)
        mat = hamming_matrix([sample_random_genotype(spec, rng) for _ in range(3)])
        csv = analysis.hamming_csv(mat)
        assert len(csv.strip().splitlines()) == 3
