"""Tests for the batch fit paths, predictions, and their equivalences."""

import tracemalloc

import numpy as np
import pytest

from wrkhs import (
    ComplexDataset,
    NumericalError,
    RealGaussian,
    SeparateRealImag,
    SumOfSeparable,
    fit_augmented,
    fit_composite,
    fit_schur,
    fit_srkhs,
    hermitian_solve,
    model_from_json,
    model_to_json,
    mse_db,
    predict,
    predict_composite,
    transform_matrix,
)
from wrkhs import regression
from conftest import mixed_gamma_blocks, random_inputs, zoo_specs


def random_dataset(rng, n, d, scale=1.5):
    x = random_inputs(rng, n, d, scale)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ComplexDataset(X=x, y=y)


class TestFitComposite:
    def test_scalar_ridge(self):
        # k(x, x) = 1 real, pseudo 0, y = 1+j, lam = 1: both parts solve 2a = part
        data = ComplexDataset(X=np.zeros((1, 1), dtype=complex), y=[1 + 1j])
        a_com = fit_composite(data, RealGaussian(gamma=1.0), 1.0)
        np.testing.assert_allclose(a_com, [0.5, 0.5])

    def test_zero_targets(self):
        rng = np.random.default_rng(0)
        data = ComplexDataset(X=random_inputs(rng, 5, 1), y=np.zeros(5))
        a_com = fit_composite(data, RealGaussian(gamma=1.0), 0.3)
        np.testing.assert_allclose(a_com, 0.0, atol=1e-15)

    def test_t_alpha_com_equals_augmented(self, specs):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 12, 2)
        for name, spec in specs.items():
            a_com = fit_composite(data, spec, 0.7)
            abar = transform_matrix(12) @ a_com
            model = fit_augmented(data, spec, 0.7)
            np.testing.assert_allclose(
                abar[:12], model.alpha, atol=1e-9, err_msg=name
            )
            np.testing.assert_allclose(
                abar[12:], model.alpha.conj(), atol=1e-9, err_msg=name
            )


class TestFitAugmented:
    def test_null_pseudo_reduces_to_srkhs(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng, 10, 2)
        spec = RealGaussian(gamma=1.2)
        m_aug = fit_augmented(data, spec, 0.4)
        m_sr = fit_srkhs(data, spec, 0.4)
        np.testing.assert_allclose(m_aug.alpha, m_sr.alpha, atol=1e-10)

    def test_scalar_closed_form(self):
        # k = a, ktilde = b real: alpha = ((a+lam) y - b conj(y)) / ((a+lam)^2 - b^2)
        s1, s2, lam = 0.8, 0.3, 0.7
        a, b = s1 + s2, s1 - s2
        y = 1.3 - 0.4j
        data = ComplexDataset(X=np.zeros((1, 1), dtype=complex), y=[y])
        spec = SeparateRealImag(
            rr=RealGaussian(gamma=1.0, scale=s1), jj=RealGaussian(gamma=1.0, scale=s2)
        )
        expected = ((a + lam) * y - b * np.conj(y)) / ((a + lam) ** 2 - b**2)
        for fit in (fit_augmented, fit_schur):
            model = fit(data, spec, lam)
            assert model.alpha[0] == pytest.approx(expected, abs=1e-12)

    def test_schur_matches_direct(self, specs):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 12, 2)
        for name, spec in specs.items():
            direct = fit_augmented(data, spec, 0.5)
            schur = fit_schur(data, spec, 0.5)
            np.testing.assert_allclose(
                direct.alpha, schur.alpha, atol=1e-9, err_msg=name
            )

    def test_conjugate_structure(self, specs):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, 9, 2)
        for name, spec in specs.items():
            k = np.asarray(spec.gram(data.X), dtype=complex)
            kt = np.asarray(spec.pseudo_gram(data.X), dtype=complex)
            kbar = np.block([[k, kt], [kt.conj(), k.conj()]]) + 0.5 * np.eye(18)
            abar = hermitian_solve((kbar + kbar.conj().T) / 2, np.concatenate([data.y, data.y.conj()]))
            np.testing.assert_allclose(
                abar[9:], abar[:9].conj(), atol=1e-9, err_msg=name
            )

    def test_default_solves_by_structure(self, specs, monkeypatch):
        # the default factors n x n systems only, except the 2n real
        # composite system for a pseudo-kernel without a phase
        n = 10
        expected = {
            "real_gaussian": [((n, n), "float64")],
            "complex_gaussian": [((n, n), "complex128")],
            "independent": [((n, n), "complex128")],
            "real_imag_blocks": [((n, n), "float64")] * 2,
            "separate_real_imag": [((n, n), "float64")] * 2,
            "sum_of_separable": [((n, n), "float64")] * 2,
            "mixed_gamma_blocks": [((2 * n, 2 * n), "float64")],
        }
        data = random_dataset(np.random.default_rng(16), n, 2)
        seen = []

        def recording_solve(a, b):
            seen.append((a.shape, a.dtype.name))
            return hermitian_solve(a, b)

        monkeypatch.setattr(regression, "hermitian_solve", recording_solve)
        for name, spec in {**specs, "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            seen.clear()
            fit_augmented(data, spec, 0.5)
            assert seen == expected[name], name

    def test_split_fit_builds_no_complex_kernel_matrix(self, specs):
        # K + S and K - S are evaluated as real matrices: the peak is the
        # distances, one exp buffer and the two systems (4 n^2 doubles); a
        # complex K or Kt on top of them would need 2 n^2 more
        n = 600
        data = random_dataset(np.random.default_rng(41), n, 1)
        for name in ("real_imag_blocks", "separate_real_imag", "sum_of_separable"):
            tracemalloc.start()
            try:
                fit_augmented(data, specs[name], 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4.1 * 8 * n * n, (name, peak / (8 * n * n))


class TestFitSrkhs:
    def test_identity_gram_interpolates(self):
        # points far apart with a narrow kernel: K is exactly the identity
        x = (10.0 * np.arange(4)).astype(complex)[:, None]
        y = np.array([1 + 1j, -2j, 0.5, 3.0])
        data = ComplexDataset(X=x, y=y)
        model = fit_srkhs(data, RealGaussian(gamma=0.01), 0.0)
        np.testing.assert_array_equal(model.alpha, y)

    def test_real_kernel_real_targets_real_alpha(self):
        rng = np.random.default_rng(6)
        data = ComplexDataset(
            X=random_inputs(rng, 8, 1), y=rng.standard_normal(8).astype(complex)
        )
        model = fit_srkhs(data, RealGaussian(gamma=1.0), 0.2)
        np.testing.assert_allclose(model.alpha.imag, 0.0, atol=1e-14)

    def test_complexification_oracle(self):
        # real kernel: alpha parts equal two independent real ridge solves
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 10, 2)
        spec = RealGaussian(gamma=1.5)
        model = fit_srkhs(data, spec, 0.3)
        k = spec.gram(data.X)
        a = k + 0.3 * np.eye(10)
        ar = np.linalg.solve(a, data.y.real)
        aj = np.linalg.solve(a, data.y.imag)
        np.testing.assert_allclose(model.alpha.real, ar, atol=1e-10)
        np.testing.assert_allclose(model.alpha.imag, aj, atol=1e-10)

    def test_refuses_pseudo_kernel_spec(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, 4, 1)
        spec = SeparateRealImag(rr=RealGaussian(1.0), jj=RealGaussian(2.0))
        with pytest.raises(ValueError, match="null pseudo-kernel"):
            fit_srkhs(data, spec, 0.1)

    def test_negative_lam_rejected(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, 4, 1)
        with pytest.raises(ValueError, match=">= 0"):
            fit_srkhs(data, RealGaussian(1.0), -0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_nonfinite_lam_rejected(self, specs, lam):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, 4, 1)
        for fit in (fit_srkhs, fit_augmented, fit_composite):
            with pytest.raises(ValueError, match="finite"):
                fit(data, specs["real_gaussian"], lam)


class TestPredict:
    def test_scalar_plug_through(self):
        s1, s2, lam = 0.8, 0.3, 0.7
        a, b = s1 + s2, s1 - s2
        y = 1.3 - 0.4j
        data = ComplexDataset(X=np.zeros((1, 1), dtype=complex), y=[y])
        spec = SeparateRealImag(
            rr=RealGaussian(gamma=1.0, scale=s1), jj=RealGaussian(gamma=1.0, scale=s2)
        )
        model = fit_augmented(data, spec, lam)
        alpha = model.alpha[0]
        expected = a * alpha + b * np.conj(alpha)
        assert predict(model, data.X)[0] == pytest.approx(expected, abs=1e-12)

    def test_interpolation_at_zero_lam(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, 8, 1)
        model = fit_srkhs(data, RealGaussian(gamma=2.0), 0.0)
        np.testing.assert_allclose(predict(model, data.X), data.y, atol=1e-8)

    def test_composite_path_matches_augmented(self, specs):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, 10, 2)
        x_star = random_inputs(rng, 6, 2)
        for name, spec in specs.items():
            model = fit_augmented(data, spec, 0.6)
            a_com = fit_composite(data, spec, 0.6)
            p_aug = predict(model, x_star)
            p_com = predict_composite(spec, data.X, a_com, x_star)
            np.testing.assert_allclose(p_aug, p_com, atol=1e-9, err_msg=name)

    def test_null_pseudo_evaluates_kernel_only(self, monkeypatch):
        # no pseudo-kernel matrix (all zeros) is built for a null-pseudo spec
        rng = np.random.default_rng(40)
        spec = SeparateRealImag(rr=RealGaussian(1.2), jj=RealGaussian(1.2))
        model = fit_srkhs(random_dataset(rng, 6, 1), spec, 0.1)
        monkeypatch.setattr(type(spec), "pair", None)
        assert predict(model, random_inputs(rng, 3, 1)).shape == (3,)

    def test_real_gram_applied_without_complex_copy(self, monkeypatch):
        # a real Gram times complex alpha is one real GEMM on [Re a, Im a]
        n = 600
        rng = np.random.default_rng(42)
        data = random_dataset(rng, n, 1)
        spec = RealGaussian(gamma=1.0)
        model = fit_srkhs(data, spec, 0.1)
        g = spec.gram(data.X)
        monkeypatch.setattr(RealGaussian, "gram", lambda self, x, z=None: g)
        tracemalloc.start()
        try:
            pred = predict(model, data.X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n, peak / (8 * n * n)
        # |g| <= 1: each entry rounds within n eps sum |alpha| of the complex product
        bound = 1e-12 * np.abs(model.alpha).sum()
        np.testing.assert_allclose(pred, g.astype(complex) @ model.alpha, rtol=0, atol=bound)

    def test_nonfinite_inputs_rejected(self):
        rng = np.random.default_rng(17)
        model = fit_srkhs(random_dataset(rng, 5, 1), RealGaussian(1.0), 0.1)
        for bad in (np.nan, np.inf, 1j * np.nan):
            x_star = random_inputs(rng, 3, 1)
            x_star[1, 0] = bad
            with pytest.raises(ValueError, match="x_star contains non-finite"):
                predict(model, x_star)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, 5, 2)
        model = fit_srkhs(data, RealGaussian(1.0), 0.1)
        with pytest.raises(ValueError, match="dimension"):
            predict(model, random_inputs(rng, 3, 3))


class TestThreePathEquivalence:
    def test_random_problems(self, specs):
        rng = np.random.default_rng(13)
        specs = {
            **specs,
            "mixed_gamma_blocks": mixed_gamma_blocks(),
            # rr - jj < 0: the phase is turned from -1 to 1
            "negative_pseudo": SeparateRealImag(
                rr=RealGaussian(gamma=0.9, scale=0.3), jj=RealGaussian(gamma=0.9)
            ),
        }
        for trial in range(12):
            n = int(rng.integers(2, 31))
            d = int(rng.integers(1, 4))
            data = random_dataset(rng, n, d)
            x_star = random_inputs(rng, 5, d)
            for name, spec in specs.items():
                lam = float(rng.uniform(0.3, 1.5))
                p_direct = predict(fit_augmented(data, spec, lam), x_star)
                p_schur = predict(fit_schur(data, spec, lam), x_star)
                p_com = predict_composite(
                    spec, data.X, fit_composite(data, spec, lam), x_star
                )
                np.testing.assert_allclose(p_direct, p_schur, atol=1e-8, err_msg=name)
                np.testing.assert_allclose(p_direct, p_com, atol=1e-8, err_msg=name)


class TestMseDb:
    def test_exact_match_floor(self):
        v = np.array([1 + 1j, 2.0])
        assert mse_db(v, v) == -320.0

    def test_unit_error(self):
        assert mse_db(np.array([1.0, 1j]), np.array([0.0, 0.0])) == pytest.approx(0.0)

    def test_tenth_error(self):
        pred = np.array([0.1, 0.1j, -0.1])
        assert mse_db(pred, np.zeros(3)) == pytest.approx(-20.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse_db(np.array([]), np.array([]))


class TestSrkhsLimitationWitness:
    def test_separate_kernels_beat_single_kernel(self):
        # real/imag targets generated with very different length scales:
        # the best per-part fit beats the best shared-kernel fit by >= 3 dB
        # in training MSE at matched lam
        rng = np.random.Generator(np.random.Philox(key=42))
        xr = rng.uniform(-3, 3, 40)
        xj = rng.uniform(-3, 3, 40)
        x = (xr + 1j * xj)[:, None]
        y = np.sin(0.5 * xr + 0.3 * xj) + 1j * (np.sin(2.5 * xr) * np.cos(2.5 * xj))
        data = ComplexDataset(X=x, y=y)
        lam = 0.1
        gammas = [0.125, 0.5, 2.0, 8.0, 32.0]
        best_wide = min(
            mse_db(
                predict(
                    fit_augmented(
                        data,
                        SeparateRealImag(RealGaussian(g1), RealGaussian(g2)),
                        lam,
                    ),
                    data.X,
                ),
                data.y,
            )
            for g1 in gammas
            for g2 in gammas
        )
        best_single = min(
            mse_db(predict(fit_srkhs(data, RealGaussian(g), lam), data.X), data.y)
            for g in gammas
        )
        assert best_single - best_wide >= 3.0


class TestRegularizationMonotonicity:
    def test_training_mse_nondecreasing_in_lam(self):
        rng = np.random.default_rng(14)
        data = random_dataset(rng, 15, 2)
        spec = zoo_specs()["sum_of_separable"]
        prev = -np.inf
        for lam in (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0):
            model = fit_augmented(data, spec, lam)
            cur = mse_db(predict(model, data.X), data.y)
            assert cur >= prev - 1e-9
            prev = cur


class TestModelSerialization:
    def test_roundtrip(self, specs):
        rng = np.random.default_rng(15)
        data = random_dataset(rng, 6, 2)
        x_star = random_inputs(rng, 4, 2)
        for name, spec in specs.items():
            model = fit_augmented(data, spec, 0.4)
            clone = model_from_json(model_to_json(model))
            assert clone.spec == model.spec
            assert clone.lam == model.lam
            np.testing.assert_array_equal(clone.alpha, model.alpha)
            np.testing.assert_array_equal(clone.X, model.X)
            np.testing.assert_array_equal(
                predict(clone, x_star), predict(model, x_star)
            )

    def test_nonfinite_alpha_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            from wrkhs import WrkhsModel

            WrkhsModel(
                X=np.zeros((1, 1), dtype=complex),
                spec=RealGaussian(1.0),
                lam=0.1,
                alpha=np.array([np.nan + 0j]),
            )

    @pytest.mark.parametrize(
        "x,lam", [(np.nan + 0j, 0.1), (complex(0, np.inf), 0.1), (0j, np.nan), (0j, -1.0)]
    )
    def test_nonfinite_inputs_or_bad_lam_rejected(self, x, lam):
        from wrkhs import WrkhsModel

        with pytest.raises(ValueError, match="finite"):
            WrkhsModel(
                X=np.array([[x]]), spec=RealGaussian(1.0), lam=lam, alpha=np.ones(1)
            )
