"""Tests for the synthetic benchmark targets and experiment runners."""

import math

import numpy as np
import pytest

from wrkhs import (
    ComplexDataset,
    RealGaussian,
    SeparateRealImag,
    SumOfSeparable,
    SyntheticConfig,
    fit_augmented,
    fit_srkhs,
    gaussian_from_length_scale,
    mse_db,
    predict,
    run_exp1,
    run_exp2,
    sinc,
    target_exp1,
    target_exp2,
)
from wrkhs import kernels
from wrkhs.synthetic import draw_training_inputs, evaluation_grid
from conftest import experiment1, experiment2


class TestSinc:
    def test_cardinal_sine_values(self):
        assert sinc(0.0) == 1.0
        assert sinc(1.5) == pytest.approx(math.sin(1.5) / 1.5)
        assert sinc(-2.0) == pytest.approx(math.sin(2.0) / 2.0)

    def test_vectorized(self):
        u = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(sinc(u), [1.0, math.sin(1.0), math.sin(1.0)])


class TestTargetExp1:
    def test_value_at_origin(self):
        # hand evaluation: y_r(0) = 1 + 2 sinc(2)^2, y_j(0) = sinc(-1.5)
        v = target_exp1(0.0 + 0.0j)
        s2 = math.sin(2.0) / 2.0
        assert complex(v).real == pytest.approx(1.0 + 2.0 * s2 * s2, abs=1e-14)
        assert complex(v).imag == pytest.approx(math.sin(1.5) / 1.5, abs=1e-14)

    def test_imag_part_depends_only_on_xj(self):
        rng = np.random.default_rng(0)
        xj = rng.uniform(-5, 5, 20)
        a = target_exp1(1.7 + 1j * xj)
        b = target_exp1(-3.2 + 1j * xj)
        np.testing.assert_array_equal(a.imag, b.imag)

    def test_real_part_symmetric_under_part_swap(self):
        # swapping x_r and x_j maps the r-term to the (-r)-term
        rng = np.random.default_rng(1)
        xr = rng.uniform(-5, 5, 30)
        xj = rng.uniform(-5, 5, 30)
        np.testing.assert_allclose(
            target_exp1(xr + 1j * xj).real,
            target_exp1(xj + 1j * xr).real,
            atol=1e-14,
        )


class TestTargetExp2:
    def test_value_at_origin(self):
        v = complex(target_exp2(0.0 + 0.0j))
        assert v.real == pytest.approx(1.03, abs=1e-14)
        assert v.imag == pytest.approx(0.4, abs=1e-14)

    def test_omega_zero_uncouples(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-5, 5, 20) + 1j * rng.uniform(-5, 5, 20)
        y = target_exp2(x, omega=0.0)
        zr = sinc(0.5 * x.real) * sinc(0.5 * x.imag)
        zj = 0.1 * sinc(0.3 * x.imag)
        np.testing.assert_allclose(y, zr + 1j * zj, atol=1e-15)

    def test_coupling_identity(self):
        # y_r - z_r = omega (y_j - omega z_r) pointwise
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, 50) + 1j * rng.uniform(-5, 5, 50)
        omega = 0.3
        y = target_exp2(x, omega)
        zr = sinc(0.5 * x.real) * sinc(0.5 * x.imag)
        np.testing.assert_allclose(
            y.real - zr, omega * (y.imag - omega * zr), atol=1e-14
        )


class TestSampling:
    def test_inputs_within_range(self):
        cfg = experiment1(seed=5)
        x = draw_training_inputs(cfg)[:, 0]
        assert x.real.min() >= -5 and x.real.max() <= 5
        assert x.imag.min() >= -5 and x.imag.max() <= 5
        assert x.shape == (200,)

    def test_grid_deterministic(self):
        cfg = experiment1(seed=0, grid_resolution=21)
        a = evaluation_grid(cfg)
        b = evaluation_grid(cfg)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (441, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="experiment"):
            SyntheticConfig(experiment=3)
        with pytest.raises(ValueError, match="grid_resolution"):
            SyntheticConfig(experiment=1, grid_resolution=1)


@pytest.mark.parametrize(
    "run, config",
    [
        (run_exp1, experiment1(n_train=20, grid_resolution=5)),
        (run_exp2, experiment2(n_train=20, grid_resolution=5)),
    ],
)
def test_one_distance_matrix_per_kernel_evaluation(run, config, monkeypatch):
    # two fits, each one joint kernel evaluation, and one prediction of both
    # models (a 25-point grid is one block of rows)
    calls = []
    sqdist = kernels._sqdist
    monkeypatch.setattr(kernels, "_sqdist", lambda *args: calls.append(1) or sqdist(*args))
    run(config)
    assert len(calls) <= 3


@pytest.mark.parametrize("run, config, gammas", [
    (run_exp1, experiment1(n_train=20, grid_resolution=17), 2),
    (run_exp2, experiment2(n_train=20, grid_resolution=17), 1),
])
def test_one_exp_per_distinct_gamma_per_grid_block(run, config, gammas, monkeypatch):
    # the wide model and its ablation share their gammas: experiment 1 has two
    # distinct ones (three terms), experiment 2 one (two terms); the grid's
    # 289 points are two blocks of rows
    exps = []
    sums = kernels._gaussian_sums

    def spy(d2, *args):
        if d2.ndim == 2:  # the fits' packed triangles are not counted
            exps.append(len(args[0]))
        return sums(d2, *args)

    monkeypatch.setattr(kernels, "_gaussian_sums", spy)
    run(config)
    blocks = -(-config.grid_resolution**2 // kernels.APPLY_BLOCK_ROWS)
    assert exps == [1] * (blocks * gammas)


class TestRunExp1:
    def test_wide_fit_beats_ablation(self):
        for seed in (0, 1):
            res = run_exp1(experiment1(seed=seed))
            assert res.wrkhs_mse_db < res.ablation_mse_db
            assert np.isfinite(res.wrkhs_mse_db)

    def test_training_mse_decreases_with_lam(self):
        cfg0 = experiment1(seed=2)
        x = draw_training_inputs(cfg0)
        data = ComplexDataset(X=x, y=target_exp1(x[:, 0]))
        spec = SeparateRealImag(
            rr=gaussian_from_length_scale(1.0), jj=gaussian_from_length_scale(3.5)
        )
        prev = np.inf
        for lam in (1.0, 1e-2, 1e-4, 1e-6):
            model = fit_augmented(data, spec, lam)
            cur = mse_db(predict(model, data.X), data.y)
            assert cur <= prev + 1e-9
            prev = cur

    def test_more_samples_help_on_average(self):
        small, large = [], []
        for seed in (0, 1, 2):
            small.append(run_exp1(experiment1(seed=seed)).wrkhs_mse_db)
            large.append(
                run_exp1(
                    experiment1(seed=seed, n_train=400)
                ).wrkhs_mse_db
            )
        assert np.mean(large) <= np.mean(small)

    def test_wrong_experiment_rejected(self):
        with pytest.raises(ValueError, match="experiment 1"):
            run_exp1(experiment2(seed=0))


class TestRunExp2:
    def test_coupled_fit_beats_ablation(self):
        for seed in (0, 1):
            res = run_exp2(experiment2(seed=seed))
            assert res.wrkhs_mse_db < res.ablation_mse_db

    def test_mer_at_omega_zero_equals_doubled_kernel_srkhs(self):
        # the sum-of-separable formula at w = 0 is the strictly-complex fit
        # with the doubled base kernel
        cfg = experiment2(seed=4)
        x = draw_training_inputs(cfg)
        data = ComplexDataset(X=x, y=target_exp2(x[:, 0]))
        base = gaussian_from_length_scale(2.0)
        mer0 = SumOfSeparable(terms=((base, 0.0),))
        assert mer0.has_null_pseudo
        m1 = fit_srkhs(data, mer0, 0.32)
        doubled = RealGaussian(gamma=base.gamma, scale=2.0)
        m2 = fit_srkhs(data, doubled, 0.32)
        np.testing.assert_allclose(m1.alpha, m2.alpha, atol=1e-10)
        grid = evaluation_grid(cfg)
        np.testing.assert_allclose(
            predict(m1, grid), predict(m2, grid), atol=1e-10
        )

    def test_wrong_experiment_rejected(self):
        with pytest.raises(ValueError, match="experiment 2"):
            run_exp2(experiment1(seed=0))
