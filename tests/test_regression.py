"""Tests for the batch fit paths, predictions, and their equivalences."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from wrkhs import (
    ComplexDataset,
    ComplexGaussian,
    IndependentGaussian,
    KernelOverflowWarning,
    NumericalError,
    RealGaussian,
    SeparateRealImag,
    SumOfSeparable,
    fit_augmented,
    fit_srkhs,
    model_from_json,
    model_to_json,
    mse_db,
    predict,
    streaming_ridge_predictions,
)
from wrkhs import core, kernels, regression
from wrkhs.core import hermitian_solve, ridge_solve
from conftest import (
    fit_composite,
    fit_schur,
    mixed_gamma_blocks,
    predict_composite,
    random_inputs,
    ridge_systems,
    transform_matrix,
    zoo_specs,
)


BLOCK = kernels.APPLY_BLOCK_ROWS


def random_dataset(rng, n, d, scale=1.5):
    x = random_inputs(rng, n, d, scale)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ComplexDataset(X=x, y=y)


def row_blocks(full):
    """A stand-in for an evaluation ``apply`` makes per block of rows ``x``:
    each call returns the next ``len(x)`` rows of ``full``, from its first row
    again after its last."""
    start = 0

    def rows(x, *args):
        nonlocal start
        block = full[start : start + x.shape[0]]
        start = (start + x.shape[0]) % full.shape[0]
        return block

    return rows


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
        # the default factors every system in place where it was built: packed
        # triangles of order n, except the one of order 2n, a real system of a
        # pseudo-kernel without a phase
        n = 10
        in_place = ((n * (n + 1) // 2,), "float64", "ridge_solve")
        expected = {
            "real_gaussian": [in_place],
            "complex_gaussian": [((n * (n + 1) // 2,), "complex128", "ridge_solve")],
            "independent": [((n * (n + 1) // 2,), "complex128", "ridge_solve")],
            "real_imag_blocks": [in_place] * 2,
            "separate_real_imag": [in_place] * 2,
            "sum_of_separable": [in_place] * 2,
            "mixed_gamma_blocks": [((n * (2 * n + 1),), "float64", "ridge_solve")],
        }
        data = random_dataset(np.random.default_rng(16), n, 2)
        seen = []

        def recording(solve):
            def record(a, *args):
                seen.append((a.shape, a.dtype.name, solve.__name__))
                return solve(a, *args)
            return record

        for solve in (hermitian_solve, ridge_solve):
            monkeypatch.setattr(regression, solve.__name__, recording(solve))
        for name, spec in {**specs, "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            seen.clear()
            fit_augmented(data, spec, 0.5)
            assert seen == expected[name], name

    def test_split_fit_builds_no_complex_kernel_matrix(self, specs):
        # K + S and K - S are evaluated as real packed triangles, one in the
        # distances' buffer, and each is factored where it was built: the peak
        # is the two systems (n^2 doubles) and tile-sized temporaries; a copy
        # of either, an exp buffer or a complex K or Kt would need n^2 / 2 more.
        # Without a phase the one packed 2n system (2 n^2) is summed from tiles
        # of the distances: the pair and its composite would need 11 n^2
        n = 600
        data = random_dataset(np.random.default_rng(41), n, 1)
        # 16 gammas: the tile temporaries do not grow with their number
        sixteen = SumOfSeparable(terms=tuple((RealGaussian(0.5 + 0.25 * q), 0.05 * (q + 1))
                                             for q in range(16)))
        bounds = {spec: 1.15 for spec in (specs["real_imag_blocks"], specs["separate_real_imag"],
                                          specs["sum_of_separable"], sixteen)}
        for spec, bound in {**bounds, mixed_gamma_blocks(): 2.6}.items():
            tracemalloc.start()
            try:
                fit_augmented(data, spec, 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * 8 * n * n, (spec.family, peak / (8 * n * n))


class TestFitSrkhs:
    def test_gram_is_built_and_factored_in_one_buffer(self):
        # the Gram's packed triangle (n^2 / 2 doubles) is built in the distances'
        # buffer and factored there: a copy of it would need n^2 / 2 doubles more
        n = 600
        data = random_dataset(np.random.default_rng(44), n, 2)
        two_gammas = SumOfSeparable(terms=((RealGaussian(0.7), 0.0), (RealGaussian(2.0), 0.0)))
        # the tile temporaries do not grow with the number of gammas
        sixteen = SumOfSeparable(terms=tuple((RealGaussian(0.5 + 0.25 * q), 0.0) for q in range(16)))
        for spec in (RealGaussian(gamma=1.0), two_gammas, sixteen):
            tracemalloc.start()
            try:
                fit_srkhs(data, spec, 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.6 * 8 * n * n, (spec, peak / (8 * n * n))

    def test_complex_and_independent_fits_hold_three_gram_sizes(self):
        # each holds one full n x n complex matrix (2 n^2 doubles) before packing it:
        # the complex Gaussian its exponent, the independent Gaussian its cross term
        n = 600
        data = random_dataset(np.random.default_rng(45), n, 2)
        for spec in (ComplexGaussian(gamma=60.0), IndependentGaussian(gamma=0.8)):
            tracemalloc.start()
            try:
                fit_srkhs(data, spec, 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.1 * 8 * n * n, (spec, peak / (8 * n * n))

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
        # at the training inputs, as at any other, each row block of a real
        # Gram times complex alpha is one real GEMM on [Re a, Im a]: no complex copy
        n = 600
        rng = np.random.default_rng(42)
        data = random_dataset(rng, n, 1)
        spec = RealGaussian(gamma=1.0)
        model = fit_srkhs(data, spec, 0.1)
        full = spec.gram(data.X)
        # the distances given by blocks, each block's exp written over them
        monkeypatch.setattr(kernels, "_sqdist", row_blocks(kernels._sqdist(data.X, data.X.copy())))
        tracemalloc.start()
        try:
            pred = predict(model, data.X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n, peak / (8 * n * n)
        # |g| <= 1: each entry rounds within n eps sum |alpha| of the complex product
        bound = 1e-12 * np.abs(model.alpha).sum()
        np.testing.assert_allclose(pred, full.astype(complex) @ model.alpha, rtol=0, atol=bound)

    def test_real_cross_gram_applied_without_complex_copy(self, monkeypatch):
        # at other inputs a real Gram block times complex alpha is one real GEMM on [Re a, Im a]
        n = 600
        rng = np.random.default_rng(45)
        data = random_dataset(rng, n, 1)
        spec = RealGaussian(gamma=1.0)
        model = fit_srkhs(data, spec, 0.1)
        x_star = random_inputs(rng, n, 1)
        g = spec.gram(x_star, data.X)
        monkeypatch.setattr(kernels, "_sqdist", row_blocks(kernels._sqdist(x_star, data.X)))
        tracemalloc.start()
        try:
            pred = predict(model, x_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n, peak / (8 * n * n)
        bound = 1e-12 * np.abs(model.alpha).sum()
        np.testing.assert_allclose(pred, g.astype(complex) @ model.alpha, rtol=0, atol=bound)

    def test_pseudo_kernel_applied_one_gamma_at_a_time(self, specs, monkeypatch):
        # with the distances given, the peak is one block's exp buffer; the Gram
        # pair would take a real K and a complex Kt (3 mn doubles) or more
        n = 600
        data = random_dataset(np.random.default_rng(43), n, 1)
        models = {
            name: fit_augmented(data, spec, 0.5)
            for name, spec in (
                ("sum_of_separable", specs["sum_of_separable"]),
                ("real_imag_blocks", specs["real_imag_blocks"]),
                ("mixed_gamma_blocks", mixed_gamma_blocks()),
            )
        }
        sqdist = kernels._sqdist
        for name, model in models.items():
            # distances of their own: a block's last exp is written over them
            monkeypatch.setattr(kernels, "_sqdist", row_blocks(sqdist(data.X, data.X.copy())))
            tracemalloc.start()
            try:
                predict(model, data.X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * 8 * n * n, (name, peak / (8 * n * n))

    def test_training_inputs_match_a_copy_of_them(self):
        # predict takes the same row blocks whatever array object holds x*
        rng = np.random.default_rng(47)
        data = random_dataset(rng, 300, 2)
        for name, spec in {**zoo_specs(), "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            model = fit_augmented(data, spec, 0.6)
            np.testing.assert_array_equal(predict(model, data.X), predict(model, data.X.copy()),
                                          err_msg=name)

    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_row_blocks_match_the_gram_pair(self, m):
        rng = np.random.default_rng(48)
        data = random_dataset(rng, 40, 2)
        x_star = random_inputs(rng, m, 2)
        for name, spec in {**zoo_specs(), "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            model = fit_augmented(data, spec, 0.6)
            k, kt = spec.pair(x_star, data.X)
            want = k @ model.alpha + kt @ model.alpha.conj()
            np.testing.assert_allclose(predict(model, x_star), want, rtol=0,
                                       atol=1e-12 * np.abs(model.alpha).sum(), err_msg=name)

    def test_a_block_is_predicted_alone(self):
        # a row's prediction does not depend on the rows around it, to the bit
        rng = np.random.default_rng(49)
        data = random_dataset(rng, 40, 2)
        x_star = random_inputs(rng, 3 * BLOCK + 7, 2)
        for name, spec in {**zoo_specs(), "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            model = fit_augmented(data, spec, 0.6)
            pred = predict(model, x_star)
            np.testing.assert_array_equal(pred[:BLOCK], predict(model, x_star[:BLOCK]), err_msg=name)
            np.testing.assert_array_equal(pred[3 * BLOCK :], predict(model, x_star[3 * BLOCK :]),
                                          err_msg=name)

    def test_memory_does_not_grow_with_the_rows(self):
        # beyond its output predict holds one block's buffers; a whole m x n
        # distance matrix would add 12000 x 200 x 8 B from m = 4000 to 16000
        rng = np.random.default_rng(50)
        data = random_dataset(rng, 200, 1)
        model = fit_augmented(data, SeparateRealImag(rr=RealGaussian(gamma=0.9),
                                                     jj=RealGaussian(gamma=3.1)), 0.5)
        peaks = {}
        for m in (4000, 16000):
            x_star = random_inputs(rng, m, 1)
            tracemalloc.start()
            try:
                predict(model, x_star)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16000] <= peaks[4000] + 12000 * 16 + 2**16, peaks

    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_models_on_equal_inputs_are_predicted_together(self, m):
        # pairs with and without a common gamma, and with a complex Gaussian or
        # independent member, whose blocks are their Gram times alpha
        rng = np.random.default_rng(51)
        data = random_dataset(rng, 40, 2)
        x_star = random_inputs(rng, m, 2)
        specs = {**zoo_specs(), "mixed_gamma_blocks": mixed_gamma_blocks()}
        models = {name: fit_augmented(data, spec, 0.6) for name, spec in specs.items()}
        alone = {name: predict(model, x_star) for name, model in models.items()}
        for pair in [*itertools.combinations(models, 2), tuple(models)]:
            preds = predict(tuple(models[name] for name in pair), x_star)
            assert isinstance(preds, tuple) and len(preds) == len(pair)
            for name, pred in zip(pair, preds):
                np.testing.assert_allclose(pred, alone[name], rtol=0, err_msg=f"{pair} {name}",
                                           atol=1e-12 * np.abs(models[name].alpha).sum())

    def test_models_predicted_together_need_equal_inputs(self):
        rng = np.random.default_rng(52)
        data = random_dataset(rng, 12, 1)
        model = fit_srkhs(data, RealGaussian(1.0), 0.1)
        other = fit_srkhs(ComplexDataset(X=data.X + 0.5, y=data.y), RealGaussian(1.0), 0.1)
        fewer = fit_srkhs(ComplexDataset(X=data.X[:6], y=data.y[:6]), RealGaussian(1.0), 0.1)
        x_star = random_inputs(rng, 3, 1)
        for bad in ((model, other), (model, fewer), (), (model, "model"), ("model",)):
            with pytest.raises(ValueError, match="equal training inputs"):
                predict(bad, x_star)
        equal = fit_srkhs(ComplexDataset(X=data.X.copy(), y=-data.y), RealGaussian(2.0), 0.1)
        assert len(predict((model, equal), x_star)) == 2

    def test_a_saturated_evaluation_warns_once_from_its_caller(self):
        # 1000 rows are four blocks, each with saturated exponents (250j)
        rng = np.random.default_rng(53)
        spec = ComplexGaussian(gamma=60.0)
        model = fit_srkhs(random_dataset(rng, 5, 1, scale=0.5), spec, 0.1)
        x_star = np.zeros((1000, 1), dtype=complex)
        x_star[::50] = 250j
        for evaluate in (lambda: predict(model, x_star),
                         lambda: kernels.apply_pairs(x_star, model.X, [(spec, model.alpha)]),
                         lambda: spec.gram(x_star, model.X),
                         lambda: spec.pair(x_star, model.X)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                evaluate()
            assert [w.category for w in caught] == [KernelOverflowWarning]
            assert caught[0].filename == __file__

    def test_nonfinite_inputs_rejected(self):
        rng = np.random.default_rng(17)
        model = fit_srkhs(random_dataset(rng, 5, 1), RealGaussian(1.0), 0.1)
        for bad in (np.nan, np.inf, 1j * np.nan):
            x_star = random_inputs(rng, 3, 1)
            x_star[1, 0] = bad
            with pytest.raises(ValueError, match="^x contains non-finite values"):
                predict(model, x_star)

    def test_one_dimensional_x_star_is_scalar_samples(self, specs):
        # a model fitted from a 1-D X takes a 1-D x_star under the same rule
        rng = np.random.default_rng(29)
        x = random_inputs(rng, 6, 1)[:, 0]
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x_star = random_inputs(rng, 4, 1)[:, 0]
        for name, spec in specs.items():
            model = fit_augmented(ComplexDataset(X=x, y=y), spec, 0.3)
            np.testing.assert_array_equal(
                predict(model, x_star), predict(model, x_star[:, None]), err_msg=name
            )

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


class TestTriangleContract:
    """A self-Gram is handed to the solves as a packed lower triangle: a full
    matrix is packed without reading its strict upper triangle, and a failed
    factorization takes its jitter on a matrix built afresh."""

    @staticmethod
    def poison_upper(monkeypatch):
        # every full matrix packed for a solve gets NaN above its diagonal
        pack = core.packed

        def poisoned(a):
            a = np.array(a, dtype=np.result_type(np.asarray(a).dtype, np.float64))
            a[np.triu_indices(a.shape[0], 1)] = np.nan
            return pack(a)

        for module in (core, kernels):
            monkeypatch.setattr(module, "packed", poisoned)

    def test_upper_triangle_is_never_read(self, monkeypatch):
        rng = np.random.default_rng(46)
        specs = {**zoo_specs(), "mixed_gamma_blocks": mixed_gamma_blocks()}
        # 300 samples cross several tiles
        problems = [(random_dataset(rng, n, d), float(rng.uniform(0.3, 1.5)))
                    for n, d in ((7, 1), (40, 3), (300, 2))]

        def run():
            out = []
            for data, lam in problems:
                for name, spec in specs.items():
                    model = fit_augmented(data, spec, lam)
                    out += [model.alpha, predict(model, data.X)]
                    if spec.has_null_pseudo:
                        out += [fit_srkhs(data, spec, lam).alpha,
                                streaming_ridge_predictions(spec, data.X, data.y, lam)]
            return out

        clean = run()
        self.poison_upper(monkeypatch)
        for got, want in zip(run(), clean, strict=True):
            np.testing.assert_array_equal(got, want)

    @staticmethod
    def check_jitter_once(data, monkeypatch):
        # lam = 0 with equal samples: each first factorization fails, or keeps a
        # pivot of rounding only; the retry factors K + 1e-12 trace(K)/n I, built afresh
        n, y = len(data.y), data.y

        def jittered(m):
            return m + 1e-12 * np.trace(m) / m.shape[0] * np.eye(m.shape[0])

        builds = []
        for cls, name in ((RealGaussian, "_gram"), (kernels._TermSum, "_ridge_systems")):
            build = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *a, build=build: builds.append(1) or build(*a))

        spec = RealGaussian(gamma=1.0)
        alpha = fit_srkhs(data, spec, 0.0).alpha
        assert len(builds) == 2
        want = hermitian_solve(jittered(spec.gram(data.X)), y)
        np.testing.assert_allclose(alpha, want, rtol=1e-12)

        builds.clear()
        spec = SeparateRealImag(rr=RealGaussian(gamma=0.9), jj=RealGaussian(gamma=3.1))
        alpha = fit_augmented(data, spec, 0.0).alpha
        assert len(builds) == 3  # the pair, then afresh for each of its two systems
        h, (plus, minus) = ridge_systems(spec, data.X)
        want = h * (hermitian_solve(jittered(plus), (y / h).real)
                    + 1j * hermitian_solve(jittered(minus), (y / h).imag))
        np.testing.assert_allclose(alpha, want, rtol=1e-12)

        builds.clear()
        spec = mixed_gamma_blocks()
        alpha = fit_augmented(data, spec, 0.0).alpha
        assert len(builds) == 2  # the 2n system, then afresh
        # the system rounds apart from the composite matrix by 1e-16, which the
        # 1e12 condition of the jittered system lifts to 1e-5 in alpha; so the
        # reference solves the system itself (its composite identity is tested
        # in test_kernels)
        h, (system,) = ridge_systems(spec, data.X)
        b = hermitian_solve(jittered(system), np.concatenate([(y / h).real, (y / h).imag]))
        np.testing.assert_allclose(alpha, h * (b[:n] + 1j * b[n:]), rtol=1e-12)

    def test_rank_deficient_gram_takes_the_jitter_once(self, monkeypatch):
        # duplicate samples first: the dense Cholesky fails at the second pivot
        # of every system, the packed one of K +- S keeps one of about 4e-16
        x = np.array([1 + 1j, 1 + 1j, 0.5j, 2.0, 1 + 1j, -0.5 + 0.25j])
        y = np.arange(1.0, 7.0) - 1j
        self.check_jitter_once(ComplexDataset(X=x, y=y), monkeypatch)

    def test_a_widely_scaled_diagonal_takes_no_jitter(self, caplog):
        # the complex Gaussian's k(x, x) is 1 at the real samples and 3.5e62 at 6j and
        # 6j + 1: the pivots span 62 decades, but each is within 15 % of its own
        # diagonal entry, and the diagonally scaled system has condition 3.1
        data = ComplexDataset(X=np.array([0, 1, 2, 6j, 6j + 1]), y=np.arange(1.0, 6.0))
        spec = ComplexGaussian(1.0)
        with caplog.at_level("WARNING", logger="wrkhs.core"):
            model = fit_srkhs(data, spec, 1e-3)
        assert caplog.records == [] and model.info.shifts == (1e-3,)
        a = spec.gram(data.X, data.X) + 1e-3 * np.eye(5)
        d = np.sqrt(np.diag(a).real)
        want = np.linalg.solve(a / np.outer(d, d), data.y / d) / d
        np.testing.assert_allclose(model.alpha, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 300, 301])
    def test_jitter_retry_at_packed_orders(self, n, monkeypatch):
        # the first two samples equal, at orders of either parity
        data = random_dataset(np.random.default_rng(80 + n), n, 1)
        x = data.X.copy()
        x[1] = x[0]
        self.check_jitter_once(ComplexDataset(X=x, y=data.y), monkeypatch)

    def test_jitter_retry_holds_one_build_of_the_systems(self, monkeypatch):
        # every sample twice and lam = 0: each first factorization fails, and the
        # retry builds afresh after the failed buffer is dropped, so the peaks
        # stay within the bounds of a fit without the retry; a split fit
        # rebuilds only the system that failed, while it holds the other
        n = 600
        data = random_dataset(np.random.default_rng(54), n // 2, 1)
        data = ComplexDataset(X=np.concatenate([data.X, data.X]), y=np.tile(data.y, 2))
        builds = []
        for cls, name in ((RealGaussian, "_gram"), (kernels._TermSum, "_ridge_systems")):
            build = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *a, build=build: builds.append(1) or build(*a))
        split = SeparateRealImag(rr=RealGaussian(gamma=0.9), jj=RealGaussian(gamma=3.1))
        for fit, spec, bound, count in ((fit_srkhs, RealGaussian(gamma=1.0), 0.6, 2),
                                        (fit_augmented, split, 1.15, 3),
                                        (fit_augmented, mixed_gamma_blocks(), 2.6, 2)):
            builds.clear()
            tracemalloc.start()
            try:
                fit(data, spec, 0.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(builds) == count, spec.family
            assert peak <= bound * 8 * n * n, (spec.family, peak / (8 * n * n))


class TestPackedParity:
    """Every ridge system is a packed triangle whose layout depends on the
    parity of its order: each solve matches a dense oracle at small orders and
    at one of each parity past the tiles, to 1e-12 of sum |alpha|."""

    ORDERS = [1, 2, 3, 4, 7, 8, 300, 301]

    @pytest.mark.parametrize("n", ORDERS)
    def test_fits_match_the_dense_oracles(self, n):
        data = random_dataset(np.random.default_rng(70 + n), n, 2)
        lam = 0.4
        for name, spec in {**zoo_specs(), "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            alpha = fit_augmented(data, spec, lam).alpha
            a_com = fit_composite(data, spec, lam)
            want = a_com[:n] + 1j * a_com[n:]
            assert np.abs(alpha - want).max() <= 1e-12 * np.abs(want).sum(), name
            if spec.has_null_pseudo:
                k = spec.gram(data.X)
                want = np.linalg.solve(k + lam * np.eye(n), data.y)
                alpha = fit_srkhs(data, spec, lam).alpha
                assert np.abs(alpha - want).max() <= 1e-12 * np.abs(want).sum(), name
                # prequential: y - diag(L) L^-1 y with L the dense Cholesky factor
                low = np.linalg.cholesky(k + lam * np.eye(n))
                want = data.y - np.diagonal(low).real * np.linalg.solve(low, data.y)
                got = streaming_ridge_predictions(spec, data.X, data.y, lam)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(data.y).sum(), name


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


class TestFitInfo:
    """Each fit reports its solve path and the diagonal shift of each
    factorization, from which the training residual follows without a kernel
    evaluation."""

    PATHS = {"real_gaussian": "srkhs", "complex_gaussian": "srkhs", "independent": "srkhs",
             "real_imag_blocks": "split", "separate_real_imag": "split",
             "sum_of_separable": "split", "mixed_gamma_blocks": "2n"}

    def test_path_and_shifts(self, specs):
        data = random_dataset(np.random.default_rng(90), 12, 2)
        for name, spec in {**specs, "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            info = fit_augmented(data, spec, 0.4).info
            assert info.path == self.PATHS[name], name
            assert info.shifts == ((0.4, 0.4) if info.path == "split" else (0.4,)), name
            assert info.h == {"srkhs": 1, "2n": 2}.get(info.path, 1 + (spec.phase or 0)), name

    @pytest.mark.parametrize("lam", [1e-3, 0.4])
    def test_residual_is_the_training_error(self, specs, lam):
        data = random_dataset(np.random.default_rng(91), 40, 2)
        for name, spec in {**specs, "mixed_gamma_blocks": mixed_gamma_blocks()}.items():
            model = fit_augmented(data, spec, lam)
            want = data.y - predict(model, data.X)
            np.testing.assert_allclose(model.info.residual(model.alpha), want,
                                       rtol=0, atol=1e-9 * np.max(np.abs(data.y)), err_msg=name)

    def test_jitter_retry_logs_once_and_reports_its_shift(self, caplog):
        # lam = 0 on three equal samples: one factorization, one retry
        x = np.array([1 + 1j, 1 + 1j, 0.5j, 2.0, 1 + 1j, -0.5 + 0.25j])
        data = ComplexDataset(X=x, y=np.arange(1.0, 7.0) - 1j)
        with caplog.at_level("WARNING", logger="wrkhs.core"):
            model = fit_srkhs(data, RealGaussian(gamma=1.0), 0.0)
        records = [r for r in caplog.records if r.name == "wrkhs.core"]
        assert len(records) == 1 and records[0].levelname == "WARNING"
        # k(x, x) = 1, so the jitter is 1e-12 * trace/n = 1e-12
        assert "order 6" in records[0].getMessage() and "1e-12" in records[0].getMessage()
        assert model.info.shifts == (1e-12,)
        np.testing.assert_allclose(model.info.residual(model.alpha),
                                   data.y - predict(model, data.X), rtol=0, atol=1e-3)

    def test_a_stored_model_has_none(self):
        data = random_dataset(np.random.default_rng(92), 5, 1)
        model = fit_srkhs(data, RealGaussian(gamma=1.0), 0.4)
        assert model.info is not None
        assert model_from_json(model_to_json(model)).info is None


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


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: regression.WrkhsModel(X=np.zeros((2, 1)), spec=RealGaussian(1.0), lam=0.1,
                                       alpha=np.ones(3)), "^alpha"),
        (lambda: mse_db([1.0, 2.0], [1.0]), "^pred and truth"),
    ],
    ids=["alpha_length", "mse_db_lengths"],
)
def test_every_input_check_names_its_field(call, field):
    with pytest.raises(ValueError, match=field):
        call()
