"""Tests for the budgeted online recursion."""

import dataclasses

import numpy as np
import pytest

from wrkhs import (
    ComplexDataset,
    ComplexGaussian,
    IndependentGaussian,
    RealGaussian,
    SeparateRealImag,
    Wrkls,
    fit_srkhs,
    predict,
    streaming_ridge_predictions,
)
from wrkhs import NumericalError, core, kernels, online
from wrkhs.online import BLOCK_ROWS, RESIDUAL_CHECK_INTERVAL
from conftest import online_model, random_inputs


def random_stream(rng, n, d=2):
    x = random_inputs(rng, n, d)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x, y


class TestInit:
    def test_rejects_pseudo_kernel_family(self):
        spec = SeparateRealImag(rr=RealGaussian(1.0), jj=RealGaussian(2.0))
        with pytest.raises(ValueError, match="null pseudo-kernel"):
            Wrkls(spec, 0.1)

    def test_accepts_structurally_null_separate_parts(self):
        spec = SeparateRealImag(rr=RealGaussian(1.0), jj=RealGaussian(1.0))
        Wrkls(spec, 0.1)

    def test_lam_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Wrkls(RealGaussian(1.0), 0.0)

    def test_budget_validation(self):
        # a float or a bool is not a budget, even one with an integer value
        for bad in (0, -3, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="budget must be an integer"):
                Wrkls(RealGaussian(1.0), 0.1, budget=bad)
        assert Wrkls(RealGaussian(1.0), 0.1, budget=1).budget == 1
        assert Wrkls(RealGaussian(1.0), 0.1, budget=np.int64(4)).budget == 4


class TestObserve:
    def test_first_observation_base_case(self):
        model = Wrkls(RealGaussian(gamma=1.0), lam=0.5)
        x = np.array([0.3 - 0.2j])
        y = 1.0 + 2.0j
        pred = model.observe(x, y)
        assert pred == 0.0
        # k(x, x) = 1 -> alpha = y / (1 + lam)
        assert model.coefficients[0] == pytest.approx(y / 1.5)

    def test_one_kernel_evaluation_per_observe(self, monkeypatch):
        # k(D, x) and k(x, x) come from one distance matrix
        x, y = random_stream(np.random.default_rng(29), 4)
        model = Wrkls(RealGaussian(gamma=1.0), lam=0.5)
        for i in range(3):
            model.observe(x[i], y[i])
        calls = []
        sqdist = kernels._sqdist
        monkeypatch.setattr(
            kernels, "_sqdist", lambda *args, **kwargs: calls.append(1) or sqdist(*args, **kwargs)
        )
        model.observe(x[3], y[3])
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "spec", [RealGaussian(gamma=2.0), IndependentGaussian(gamma=1.5)]
    )
    def test_unbounded_matches_batch(self, spec):
        rng = np.random.default_rng(1)
        x, y = random_stream(rng, 40)
        model = Wrkls(spec, lam=0.3)
        for i in range(40):
            model.observe(x[i], y[i])
        batch = fit_srkhs(ComplexDataset(X=x, y=y), spec, 0.3)
        assert np.max(np.abs(model.coefficients - batch.alpha)) <= 1e-6

    def test_duplicate_inputs_stay_nonsingular(self):
        model = Wrkls(RealGaussian(gamma=1.0), lam=0.2)
        x = np.array([0.5 + 0.5j])
        for k in range(12):
            model.observe(x, complex(k, -k))
        assert model.inverse_residual() <= 1e-6
        assert np.all(np.isfinite(model.coefficients.view(np.float64)))

    def test_budget_ceiling_after_every_observe(self):
        rng = np.random.default_rng(2)
        x, y = random_stream(rng, 50)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=7)
        for i in range(50):
            model.observe(x[i], y[i])
            assert model.size <= 7
        assert model.size == 7

    def test_budget_one(self):
        rng = np.random.default_rng(3)
        x, y = random_stream(rng, 10)
        model = Wrkls(RealGaussian(1.0), 0.3, budget=1)
        for i in range(10):
            model.observe(x[i], y[i])
            assert model.size == 1

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(4)
        x, y = random_stream(rng, 60)

        def run():
            m = Wrkls(RealGaussian(1.3), 0.25, budget=12)
            for i in range(60):
                m.observe(x[i], y[i])
            return m

        a, b = run(), run()
        np.testing.assert_array_equal(a.dictionary, b.dictionary)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)

    def test_dimension_mismatch(self):
        model = Wrkls(RealGaussian(1.0), 0.1)
        model.observe(np.array([1j, 2j]), 1.0)
        with pytest.raises(ValueError, match="dimension"):
            model.observe(np.array([1j]), 1.0)

    def test_budgeted_coefficients_equal_refit_on_dictionary(self):
        rng = np.random.default_rng(5)
        x, y = random_stream(rng, 80)
        model = Wrkls(RealGaussian(1.5), 0.3, budget=11)
        for i in range(80):
            model.observe(x[i], y[i])
        ref = fit_srkhs(
            ComplexDataset(X=model.dictionary, y=model.targets),
            RealGaussian(1.5),
            0.3,
        )
        np.testing.assert_allclose(model.coefficients, ref.alpha, atol=1e-10)


class TestPredict:
    def test_matches_batch_predict(self):
        rng = np.random.default_rng(6)
        x, y = random_stream(rng, 30)
        spec = RealGaussian(1.8)
        model = Wrkls(spec, 0.4)
        for i in range(30):
            model.observe(x[i], y[i])
        batch = fit_srkhs(ComplexDataset(X=x, y=y), spec, 0.4)
        x_star = random_inputs(rng, 7, 2)
        np.testing.assert_allclose(
            predict(online_model(model), x_star), predict(batch, x_star), atol=1e-6
        )


class TestPruning:
    def test_min_score_changes_solution_least(self):
        """Exhaustive leave-one-basis-out check of the pruning criterion.

        For every candidate basis the oracle refits from scratch on the
        remaining bases and measures the solution change in the norm induced
        by the regularized kernel matrix (the RKHS norm of the function
        change plus the lam-weighted coefficient norm). The evicted basis
        must be the one minimizing that change.
        """
        rng = np.random.default_rng(8)
        spec = RealGaussian(1.2)
        lam = 0.3
        for trial in range(20):
            m = int(rng.integers(4, 11))
            x, y = random_stream(rng, m)
            model = Wrkls(spec, lam)
            for i in range(m):
                model.observe(x[i], y[i])
            k = spec.gram(x)
            a = k + lam * np.eye(m)
            alpha = np.linalg.solve(a, y)
            changes = np.empty(m)
            for r in range(m):
                keep = [i for i in range(m) if i != r]
                alpha_r = np.linalg.solve(a[np.ix_(keep, keep)], y[keep])
                beta = np.zeros(m, dtype=complex)
                beta[keep] = alpha_r
                delta = beta - alpha
                changes[r] = np.real(delta.conj() @ a @ delta)
            scores = np.abs(model.coefficients) ** 2 / np.real(
                np.diagonal(np.linalg.inv(a))
            )
            assert int(np.argmin(scores)) == int(np.argmin(changes))

    def test_pruned_basis_is_min_score(self):
        rng = np.random.default_rng(9)
        spec = RealGaussian(1.2)
        lam = 0.3
        x, y = random_stream(rng, 9)
        model = Wrkls(spec, lam, budget=8)
        for i in range(8):
            model.observe(x[i], y[i])
        # predict the eviction: score over the 9-basis model
        k = spec.gram(x)
        a = k + lam * np.eye(9)
        alpha = np.linalg.solve(a, y)
        q_diag = np.real(np.diagonal(np.linalg.inv(a)))
        scores = np.abs(alpha) ** 2 / q_diag
        expect_removed = int(np.argmin(scores))
        model.observe(x[8], y[8])
        kept = model.dictionary
        removed = [
            i
            for i in range(9)
            if not any(np.allclose(x[i], kept[j]) for j in range(kept.shape[0]))
        ]
        assert removed == [expect_removed]


class TestMaintenance:
    def test_inverse_residual_small_after_long_stream(self):
        rng = np.random.default_rng(10)
        x, y = random_stream(rng, 300, d=1)
        model = Wrkls(RealGaussian(1.0), 0.2, budget=25)
        for i in range(300):
            model.observe(x[i], y[i])
        assert model.inverse_residual() <= 1e-6

    def test_check_and_rebuild_read_the_kept_gram(self, monkeypatch):
        rng = np.random.default_rng(14)
        x, y = random_stream(rng, 40)
        model = Wrkls(RealGaussian(1.0), 0.2, budget=12)
        for i in range(40):
            model.observe(x[i], y[i])
        before = model.inverse_residual()

        def no_distances(*args, **kwargs):
            raise AssertionError("a distance matrix was evaluated")

        monkeypatch.setattr(kernels, "_sqdist", no_distances)
        assert model.inverse_residual() == before
        model._rebuild()
        assert model.inverse_residual() <= 1e-10

    def test_observe_checks_only_the_new_sample(self, monkeypatch):
        # a full stream, with residual checks, and a rebuild: no as_samples pass
        rng = np.random.default_rng(15)
        x, y = random_stream(rng, 2 * RESIDUAL_CHECK_INTERVAL)
        calls = []
        for module in (core, kernels):
            shape = module.as_samples
            monkeypatch.setattr(
                module, "as_samples", lambda *a, shape=shape: calls.append(1) or shape(*a)
            )
        model = Wrkls(RealGaussian(1.0), 0.2, budget=20)
        for i in range(len(y)):
            model.observe(x[i], y[i])
        model._rebuild()
        assert calls == []

    def test_rebuild_restores_inverse(self):
        rng = np.random.default_rng(11)
        x, y = random_stream(rng, 20)
        model = Wrkls(RealGaussian(1.0), 0.2)
        for i in range(20):
            model.observe(x[i], y[i])
        model._Q[:3, :3] += 0.05  # corrupt, then force the rebuild path
        assert model.inverse_residual() > 1e-6
        model._rebuild()
        assert model.inverse_residual() <= 1e-10

    @pytest.mark.parametrize("budget", [None, 8])
    def test_rebuilds_solve_no_full_matrix(self, budget, monkeypatch):
        # a residual rebuild, then a singular one (Q scaled up makes gamma < 0 for an
        # input near a basis): both invert the kept Gram's packed triangle
        def full_matrix(*args):
            raise AssertionError("a full matrix was solved")

        for module in (core, online):
            monkeypatch.setattr(module, "hermitian_solve", full_matrix)
        x, y = random_stream(np.random.default_rng(17), RESIDUAL_CHECK_INTERVAL)
        model = Wrkls(RealGaussian(1.0), 0.2, budget=budget)
        model.observe_many(x[:-1], y[:-1])
        model._Q[:3, :3] += 0.05
        model.observe(x[-1], y[-1])
        assert model.stats["rebuilds"] == {"singular": 0, "residual": 1}
        assert model.inverse_residual() <= 1e-10
        model._Q *= 1e6
        model.observe(model.dictionary[0] + 0.1, 1.0)
        assert model.stats["rebuilds"] == {"singular": 1, "residual": 1}
        assert model.inverse_residual() <= 1e-10
        assert model.stats["jitter_max"] == 0.0


class TestJitter:
    """``stats["jitter_max"]`` is the largest jitter a rebuild's inverse took."""

    def test_singular_rebuilds_report_their_jitter(self, caplog):
        # duplicate inputs at lam 1e-17: each singular rebuild's Gram is singular to
        # rounding, and its inverse takes the jitter 1e-12 * trace/n
        model = Wrkls(RealGaussian(1.0), 1e-17)
        with caplog.at_level("WARNING", logger="wrkhs.core"):
            model.observe_many([0, 1, 1, 0, 2, 1, 0.5], np.arange(1.0, 8.0))
        jitters = [r for r in caplog.records if r.name == "wrkhs.core"]
        assert model.stats["rebuilds"]["singular"] == len(jitters) == 3
        assert model.stats["jitter_max"] == pytest.approx(1e-12, rel=1e-12, abs=0)
        # a forced rebuild of the same dictionary takes it too
        model.stats["jitter_max"] = 0.0
        model._rebuild()
        assert model.stats["jitter_max"] == pytest.approx(1e-12, rel=1e-12, abs=0)

    def test_clean_stream_reports_none(self):
        x, y = random_stream(np.random.default_rng(18), 60)
        model = Wrkls(RealGaussian(1.0), 0.2, budget=10)
        model.observe_many(x, y)
        model._rebuild()
        assert model.stats["jitter_max"] == 0.0


def model_state(model):
    """What an update may write: all of ``Q``, but the live block of the kept Gram,
    whose spare slot a singular update fills before it solves."""
    m = model.size
    return (m, model.dictionary, model.coefficients, model.targets, model._Q.copy(),
            model._A[:m, :m].copy(), repr(model.stats))


class TestOverflowingTarget:
    """A target whose update makes a coefficient NaN or infinite raises ValueError naming
    it, with no numpy warning, and leaves the model as the previous sample left it; a
    later finite sample is processed normally. Budgets: none, below it, and at it."""

    BUDGETS = [None, 4, 1]

    def assert_later_sample_admitted(self, model):
        admits = model.stats["admits"]
        assert np.isfinite(model.observe([10.0], 1.0))
        assert model.stats["admits"] == admits + 1
        assert np.isfinite(model.coefficients).all()

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_observe(self, budget):
        model = Wrkls(RealGaussian(1.0), 0.1, budget=budget)
        model.observe([0.0], 1e308)
        before = model_state(model)
        with pytest.raises(ValueError, match=r"observe: y = \(-1e\+308\+0j\) makes a coeff"):
            model.observe([0.01], -1e308)
        for old, new in zip(before, model_state(model)):
            np.testing.assert_array_equal(old, new)
        self.assert_later_sample_admitted(model)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_observe_many(self, budget):
        model = Wrkls(RealGaussian(1.0), 0.1, budget=budget)
        with pytest.raises(ValueError, match=r"observe_many: y\[1\] = \(-1e\+308\+0j\)") as info:
            model.observe_many([0.0, 0.01, 0.02], [1e308, -1e308, 1.0])
        first = Wrkls(RealGaussian(1.0), 0.1, budget=budget)
        np.testing.assert_array_equal(info.value.predictions, [first.observe([0.0], 1e308)])
        for old, new in zip(model_state(first), model_state(model)):
            np.testing.assert_array_equal(old, new)
        self.assert_later_sample_admitted(model)
        # two samples admitted before the fault: their predictions are not lost
        x, y = [0.0, 0.5, 0.01, 0.02], [1.0, 2.0, 1e308, -1e308]
        model, loop = Wrkls(RealGaussian(1.0), 0.1, budget), Wrkls(RealGaussian(1.0), 0.1, budget)
        with pytest.raises(ValueError, match=r"observe_many: y\[2\] = \(1e\+308\+0j\)") as info:
            model.observe_many(x, y)
        preds = info.value.predictions
        assert preds.shape == (2,) and preds.dtype == np.complex128
        np.testing.assert_allclose(preds, [loop.observe(x[i], y[i]) for i in range(2)],
                                   rtol=1e-14, atol=1e-15)
        with pytest.raises(ValueError, match=r"observe: y = \(1e\+308\+0j\)"):
            loop.observe(x[2], y[2])
        assert model.size == loop.size == min(2, budget or 2)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_singular_rebuild(self, budget, caplog):
        # a repeated input at a tiny lam takes the rebuild, whose coefficients y / (2 lam)
        # overflow: no rebuild is counted or logged
        model = Wrkls(RealGaussian(1.0), 1e-14, budget=budget)
        model.observe([0.0], 1e300)
        before = model_state(model)
        with caplog.at_level("WARNING", logger="wrkhs.online"):
            with pytest.raises(ValueError, match=r"observe_many: y\[0\] = \(-1e\+300\+0j\)"):
                model.observe_many([0.0], [-1e300])
        assert not caplog.records
        for old, new in zip(before, model_state(model)):
            np.testing.assert_array_equal(old, new)
        self.assert_later_sample_admitted(model)

    def test_streaming_ridge_predictions(self):
        with pytest.raises(ValueError, match=r"prediction of y\[1\] is non-finite"):
            streaming_ridge_predictions(RealGaussian(1.0), [0, 0.01, 0.02], [1e308, -1e308, 1],
                                        0.1)


class TestOverflowingRidgeWeight:
    """A ridge weight that overflows ``k(x, x) + lam`` is refused naming it, with no
    numpy warning, before a block writes any state; a unit kernel takes it."""

    X, Y = [0.0, 0.01, 0.02], [1.0, 2.0, 3.0]
    HUGE = RealGaussian(1.0, scale=1e308)

    @pytest.mark.parametrize("budget", [None, 4, 1])
    def test_observe_many(self, budget):
        model = Wrkls(self.HUGE, 1.7e308, budget=budget)
        before = model_state(model)
        with pytest.raises(ValueError, match=r"ridge weight 1\.7e\+308 overflows"):
            model.observe_many(self.X, self.Y)
        with pytest.raises(ValueError, match=r"ridge weight 1\.7e\+308 overflows"):
            model.observe([0.0], 1.0)
        for old, new in zip(before, model_state(model)):
            np.testing.assert_array_equal(old, new)

    def test_streaming_ridge_predictions(self):
        with pytest.raises(ValueError, match=r"ridge weight 1\.7e\+308 overflows"):
            streaming_ridge_predictions(self.HUGE, self.X, self.Y, 1.7e308)

    @pytest.mark.parametrize("budget", [None, 4, 1])
    def test_observe_many_at_a_later_block(self, budget):
        # k(x, x) = exp(4 |Im x|^2 / gamma) of the complex Gaussian: 1 on the first
        # block, about 5e302 on the second block's one sample, whose sum with
        # lam overflows; the first block stays admitted and keeps its predictions
        spec, lam = ComplexGaussian(1.0), 1.79769e308
        x = np.append(np.linspace(-2.0, 2.0, BLOCK_ROWS), 13.2j)
        y = np.arange(BLOCK_ROWS + 1.0)
        model, loop = Wrkls(spec, lam, budget), Wrkls(spec, lam, budget)
        with pytest.raises(ValueError, match=r"ridge weight 1\.79769e\+308 overflows") as info:
            model.observe_many(x, y)
        np.testing.assert_allclose(info.value.predictions, loop.observe_many(x[:-1], y[:-1]),
                                   rtol=1e-14, atol=0)
        assert model.stats == loop.stats and model.size == loop.size

    @pytest.mark.parametrize("budget", [None, 1])
    def test_a_unit_kernel_takes_it(self, budget):
        unit = RealGaussian(1.0)
        assert np.isfinite(Wrkls(unit, 1.7e308, budget).observe_many(self.X, self.Y)).all()
        assert np.isfinite(streaming_ridge_predictions(unit, self.X, self.Y, 1.7e308)).all()


class TestStreamingRidge:
    def test_matches_recursion(self):
        rng = np.random.default_rng(12)
        x, y = random_stream(rng, 120)
        spec = RealGaussian(2.0)
        fast = streaming_ridge_predictions(spec, x, y, 0.31)
        model = Wrkls(spec, 0.31)
        slow = np.array([model.observe(x[i], y[i]) for i in range(120)])
        np.testing.assert_allclose(fast, slow, atol=1e-8)

    def test_complex_kernel_matches_recursion(self):
        rng = np.random.default_rng(13)
        x, y = random_stream(rng, 60)
        spec = IndependentGaussian(1.1)
        fast = streaming_ridge_predictions(spec, x, y, 0.4)
        model = Wrkls(spec, 0.4)
        slow = np.array([model.observe(x[i], y[i]) for i in range(60)])
        np.testing.assert_allclose(fast, slow, atol=1e-8)

    def test_first_prediction_zero(self):
        rng = np.random.default_rng(14)
        x, y = random_stream(rng, 10)
        fast = streaming_ridge_predictions(RealGaussian(1.0), x, y, 0.3)
        assert fast[0] == 0.0

    def test_rejects_pseudo_kernel(self):
        spec = SeparateRealImag(rr=RealGaussian(1.0), jj=RealGaussian(2.0))
        with pytest.raises(ValueError, match="null pseudo-kernel"):
            streaming_ridge_predictions(spec, np.ones((3, 1)), np.ones(3), 0.1)

    def test_near_zero_lam_takes_the_jitter_retry(self):
        # duplicate samples make K + 1e-17 I singular to rounding; the one factorization's
        # jitter retry factors it, as it does for fit_srkhs and an unbudgeted Wrkls
        x = np.array([0, 1, 1, 0, 2, 1, 0.5])
        y = np.arange(1.0, 8.0)
        preds = streaming_ridge_predictions(RealGaussian(1.0), x, y, 1e-17)
        assert np.all(np.isfinite(preds)) and preds[0] == 0.0
        batch = fit_srkhs(ComplexDataset(X=x, y=y), RealGaussian(1.0), 1e-17)
        assert np.all(np.isfinite(batch.alpha))

    def test_indefinite_after_the_jitter_fails_hard(self):
        spec = Indefinite(gamma=1.0)
        x, y = random_stream(np.random.default_rng(16), 6)
        with pytest.raises(NumericalError):
            streaming_ridge_predictions(spec, x, y, 0.1)


@dataclasses.dataclass(frozen=True)
class Indefinite(RealGaussian):
    """A negated real Gaussian: an exactly symmetric, negative-definite Gram."""

    def _gram(self, x, z, *norms):
        return -super()._gram(x, z, *norms)


def test_the_residual_of_an_empty_model_is_zero():
    assert Wrkls(RealGaussian(1.0), 0.1).inverse_residual() == 0.0
